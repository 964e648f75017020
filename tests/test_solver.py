import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowzero import rayleigh, solver
from lowzero.bounds import height_bound, height_bound_result, orthogonal_asymptotic
from lowzero.chebyshev import u_stack
from lowzero.solver import (
    EXCLUSION_CORE,
    EXCLUSION_RADIUS,
    GRID_STEP,
    GUESS_POINTS,
    ROOT_XTOL,
    DegenerateRadiusError,
    RootScanError,
    _bisect,
    _first_bracket,
    _inverse_interpolation_zero,
    _one_mode_quotient,
    _upper_frequency,
    build_context,
    first_root,
    forcing_amplitude,
    minimal_quotient,
    small_support_minimum,
    smallest_root,
    spectral_equation,
    spectral_equation_two_piece,
    tan_ratio,
    tan_ratio_fixed_point,
    tan_ratio_inverse,
    u_product_roots,
)
from lowzero.symmetry import Symmetry
from lowzero.testfunction import reconstruct
from solver_oracles import bisect_one_at_a_time, context_arrays_loop, spectral_equation_loop

EQUATION_KERNELS = (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)


# ---------------------------------------------------------------------------
# Normalized tangent map
# ---------------------------------------------------------------------------

def test_tan_ratio_values():
    assert tan_ratio(0.0) == 1.0
    assert tan_ratio(0.5) == pytest.approx(0.0, abs=1e-15)  # tan(pi) = 0
    assert tan_ratio(0.2) == pytest.approx(
        math.tan(0.4 * math.pi) / (0.4 * math.pi), rel=1e-15
    )


def test_tan_ratio_domain():
    with pytest.raises(ValueError):
        tan_ratio(0.25)
    with pytest.raises(ValueError):
        tan_ratio(-0.1)
    with pytest.raises(ValueError):
        tan_ratio(tan_ratio_fixed_point())


def test_fixed_point_defining_equation():
    x1 = tan_ratio_fixed_point()
    assert abs(math.tan(2 * math.pi * x1) - 2 * math.pi * x1) < 1e-9
    # the map approaches 1 from below on the upper branch
    assert tan_ratio(x1 - 1e-9) < 1.0
    # printed two-decimal approximation (the reference value truncates 0.7151)
    assert abs(x1 - 0.71) < 6e-3
    # independent root via scipy on the same bracket
    ref = scipy.optimize.brentq(
        lambda x: math.tan(2 * math.pi * x) - 2 * math.pi * x,
        0.26,
        0.74,
        xtol=1e-14,
    )
    assert x1 == pytest.approx(ref, abs=1e-11)


def test_inverse_fixed_values():
    assert tan_ratio_inverse(1.0) == 0.0
    assert tan_ratio_inverse(0.0) == pytest.approx(0.5, abs=1e-12)
    inv2 = tan_ratio_inverse(2.0)
    assert 0.18 < inv2 < 0.19
    ref = scipy.optimize.brentq(
        lambda x: math.tan(2 * math.pi * x) - 4 * math.pi * x, 0.05, 0.2499, xtol=1e-14
    )
    assert inv2 == pytest.approx(ref, abs=1e-11)


def test_inverse_round_trip():
    for y in (-12.0, -3.0, -0.5, 0.0, 0.7, 0.999, 1.001, 1.6, 2.0, 9.0, 120.0):
        x = tan_ratio_inverse(y)
        assert tan_ratio(x) == pytest.approx(y, rel=1e-9, abs=1e-9)
        branch = (0, 0.25) if y > 1 else (0.25, tan_ratio_fixed_point())
        if y != 1.0:
            assert branch[0] < x < branch[1]


def test_inverse_names_its_reach():
    for y in (1.01e13, -1.01e13):
        assert 0 < tan_ratio_inverse(y) < tan_ratio_fixed_point()
    for y in (1.02e13, -1.02e13, 1e300):
        with pytest.raises(ValueError, match=r"solves \|y\| up to 1\.01e\+13"):
            tan_ratio_inverse(y)


# ---------------------------------------------------------------------------
# Small-support branch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,smallest",
    [
        (Symmetry.U, 1.5e-154),
        (Symmetry.O, 1e-13),
        (Symmetry.Sp, 1e-13),
        (Symmetry.SOplus, 1e-13),
        (Symmetry.SOminus, 1e-13),
    ],
)
def test_smallest_support_is_solved_and_named(g, smallest):
    # every support from the limit up gives a finite minimum; below it the
    # error names the limit instead of a bisection failure, an overflow to
    # inf or a ZeroDivisionError
    for R in np.geomspace(smallest, 0.5, 200).tolist():
        res = solver.minimal_quotient(g, R)
        assert math.isfinite(res.m_tilde) and res.m_tilde > 0
    for R in (math.nextafter(smallest, 0.0), smallest / 10, 1e-200, 5e-321):
        with pytest.raises(ValueError, match=f"below {smallest!r}, the smallest support"):
            solver.minimal_quotient(g, R)
        if g is not Symmetry.U:
            with pytest.raises(ValueError, match=f"below {smallest!r}"):
                small_support_minimum(g, R)


@pytest.mark.parametrize("R", [math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("g", list(Symmetry), ids=lambda g: g.name)
def test_non_finite_support_is_named(g, R):
    # a NaN or infinite support is refused by value, not returned as NaN or
    # 0.0 or failed as a bisection bracket or an OverflowError
    named = f"support R = {R!r} is not finite"
    calls = [lambda: solver.minimal_quotient(g, R)]
    if g is not Symmetry.U:  # reconstruct refuses the unitary kernel at any support
        calls.append(lambda: reconstruct(g, R))
    if g in EQUATION_KERNELS:
        calls.append(lambda: build_context(g, R))
    for call in calls:
        with pytest.raises(ValueError, match=named):
            call()


@pytest.mark.parametrize("nu_max", [math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("g", list(Symmetry), ids=lambda g: g.name)
def test_non_finite_nu_max_is_named(g, nu_max):
    # the front end names nu_max itself, not the support it would hand on
    named = f"^nu_max = {nu_max!r} is not finite$"
    calls = [lambda: height_bound(g, nu_max), lambda: height_bound_result(g, nu_max)]
    if g is Symmetry.O:
        calls.append(lambda: orthogonal_asymptotic(nu_max))
    for call in calls:
        with pytest.raises(ValueError, match=named):
            call()


def test_negative_infinite_nu_max_is_not_positive():
    for call in (height_bound, height_bound_result):
        with pytest.raises(ValueError, match="nu_max must be positive"):
            call(Symmetry.Sp, -math.inf)
    with pytest.raises(ValueError, match="expansion regime needs nu_max >= 4"):
        orthogonal_asymptotic(-math.inf)


def test_small_support_orthogonal_full_range():
    res = small_support_minimum(Symmetry.O, 1.0)
    assert res.bound == pytest.approx(tan_ratio_inverse(2.0), rel=1e-12)
    assert res.branch == "small_support"


def test_small_support_symplectic_upper_branch():
    res = small_support_minimum(Symmetry.Sp, 0.25)
    sqrt_scaled = 4 * res.bound * 0.25  # sqrt of the 16R^2-scaled minimum
    x = sqrt_scaled / 4
    assert 0.25 < x < tan_ratio_fixed_point()  # 1 - 1/R = -3 < 1: upper branch
    scaled = sqrt_scaled**2
    assert 1.0 < scaled < 1 / (1 - 8 * 0.25 / math.pi**2)


def test_small_support_so_plus_half():
    res = small_support_minimum(Symmetry.SOplus, 0.5)
    assert 4 * res.bound * 0.5 == pytest.approx(4 * tan_ratio_inverse(3.0), rel=1e-12)


def test_small_support_guards():
    with pytest.raises(ValueError):
        small_support_minimum(Symmetry.U, 0.3)
    with pytest.raises(ValueError):
        small_support_minimum(Symmetry.Sp, 0.7)
    with pytest.raises(ValueError):
        small_support_minimum(Symmetry.O, 0.0)


def test_small_support_minimum_inverts_once_per_support(monkeypatch):
    # minimal_quotient and reconstruct at one support share one inversion;
    # a float support and an equal np.float64 one are separate entries
    solver._small_support_minimum.cache_clear()
    inverse = solver.tan_ratio_inverse
    calls = []
    monkeypatch.setattr(solver, "tan_ratio_inverse", lambda y: calls.append(y) or inverse(y))
    first = minimal_quotient(Symmetry.O, 2.7)
    assert small_support_minimum(Symmetry.O, 2.7) is first
    assert len(calls) == 1
    wide = small_support_minimum(Symmetry.O, np.float64(2.7))
    assert len(calls) == 2 and wide == first and type(wide.support) is np.float64
    with pytest.raises(ValueError):
        small_support_minimum(Symmetry.Sp, 0.7)  # checked before the cache


# ---------------------------------------------------------------------------
# Equation context
# ---------------------------------------------------------------------------

def test_context_two_cells():
    ctx = build_context(Symmetry.SOplus, 0.75)
    assert ctx.n == 2
    assert ctx.a[1] == pytest.approx(0.25)
    assert ctx.a[2] == pytest.approx(0.75)
    theta_cap = 0.5 * (0.75 - 0.5) + 0.5 * math.pi * (1 + ctx.delta / 2)
    det = np.linalg.det(ctx.m_matrix)
    assert det == pytest.approx(-ctx.delta * math.cos(theta_cap), rel=1e-12)


def test_context_integral_weights_two_cells():
    for g in EQUATION_KERNELS:
        ctx = build_context(g, 0.75)
        assert ctx.alpha[0] == pytest.approx(0.5, rel=1e-12)  # 2(1 - R)
        assert ctx.beta_arr[0] == pytest.approx(0.5, rel=1e-12)


def test_context_three_cells_partition():
    ctx = build_context(Symmetry.SOminus, 1.2)
    assert ctx.n == 3
    assert np.allclose(ctx.a[1:], [0.2, 0.8, 1.2])
    gaps = np.diff(ctx.a[1:])
    # gaps alternate between n - 2R and 2R - (n - 1)
    assert gaps[0] == pytest.approx(3 - 2.4)
    assert gaps[1] == pytest.approx(2.4 - 2)
    assert abs(np.linalg.det(ctx.m_matrix)) > 1e-8


def test_context_endpoint_identities():
    for g in EQUATION_KERNELS:
        for R in (0.6, 0.85, 1.3, 1.45):
            ctx = build_context(g, R)
            assert ctx.a[ctx.n] == pytest.approx(R)
            assert ctx.a[ctx.n - 1] == pytest.approx(ctx.n - 1 - R)
            # the U_k tables hold the scalar recurrence's bits at each frequency
            for table, thetas in ((ctx.u_lo, ctx.theta_lo), (ctx.u_hi, ctx.theta_hi)):
                for j, th in enumerate(thetas):
                    assert table[:, j].tolist() == u_stack(ctx.n - 1, float(th)).tolist()


def test_context_guards():
    with pytest.raises(ValueError):
        build_context(Symmetry.O, 0.8)
    with pytest.raises(ValueError):
        build_context(Symmetry.Sp, 0.4)
    # 2R = n builds the closed-end context with n points; just past it, n + 1
    assert build_context(Symmetry.Sp, 1.0).n == 2
    assert build_context(Symmetry.Sp, 1.0 + 1e-12).n == 3


CONTEXT_ARRAYS = ("a", "theta_lo", "theta_hi", "u_lo", "u_hi", "m_matrix", "alpha", "beta_arr")


def test_context_cached_per_kernel_support_and_type():
    ctx = build_context(Symmetry.Sp, 2.3)
    assert build_context(Symmetry.Sp, 2.3) is ctx
    assert build_context(Symmetry.SOplus, 2.3) is not ctx
    wide = build_context(Symmetry.Sp, np.float64(2.3))
    assert wide is not ctx
    assert type(wide.R) is np.float64 and type(ctx.R) is float
    assert type(minimal_quotient(Symmetry.Sp, np.float64(2.3)).support) is np.float64


@pytest.mark.parametrize("name", CONTEXT_ARRAYS)
def test_context_arrays_are_read_only(name):
    arr = getattr(build_context(Symmetry.SOminus, 1.2), name)
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 1.0


def test_solve_finds_each_root_once(monkeypatch):
    solver._build_context.cache_clear()
    supports = []

    def counting_root(ctx):
        supports.append(ctx.R)
        return smallest_root(ctx)

    monkeypatch.setattr(solver, "smallest_root", counting_root)
    first = solver.solve(Symmetry.SOplus, 3.7)
    second = solver.solve(Symmetry.SOplus, 3.7)
    assert supports == [3.7]
    assert first[0] == second[0]
    assert first[1] is second[1]


def test_degenerate_support_is_not_cached(monkeypatch):
    solver._build_context.cache_clear()
    monkeypatch.setattr(np.linalg, "cond", lambda M, p=None: 1e12)
    for _ in range(2):
        with pytest.raises(DegenerateRadiusError):
            build_context(Symmetry.Sp, 1.3)
    monkeypatch.undo()
    assert build_context(Symmetry.Sp, 1.3).R == 1.3


# ---------------------------------------------------------------------------
# Forcing amplitude and the equation
# ---------------------------------------------------------------------------

def test_forcing_amplitude_two_cells_closed_form():
    ctx = build_context(Symmetry.Sp, 0.75)
    lam = 0.3
    d = ctx.delta
    u1 = 2 * lam
    u2 = 4 * lam * lam - 1
    expected = (
        -2j * np.exp(-1j * lam * 0.25) / (u1 * u2) * (1 + 1j * d * u1 * np.exp(1j * lam))
    )
    assert forcing_amplitude(ctx, lam) == pytest.approx(expected, rel=1e-12)


def test_forcing_amplitude_excluded_frequencies():
    ctx = build_context(Symmetry.Sp, 0.75)
    for root in u_product_roots(2):
        with pytest.raises(ValueError):
            forcing_amplitude(ctx, root)


@pytest.mark.parametrize("lam", [0.0, -0.0, -0.3])
def test_forcing_amplitude_rejects_a_nonpositive_frequency(lam):
    ctx = build_context(Symmetry.Sp, 0.75)
    with pytest.raises(ValueError, match="frequency must be positive"):
        forcing_amplitude(ctx, lam)


def test_equation_scalar_vs_vector():
    ctx = build_context(Symmetry.Sp, 0.9)
    grid = np.linspace(0.2, 3.0, 29)
    vec = np.asarray(spectral_equation(ctx, grid))
    scal = np.array([spectral_equation(ctx, float(x)) for x in grid])
    assert np.allclose(vec, scal, rtol=1e-12, atol=1e-14)


BIT_EQUALITY_CONTEXTS = [(g, R) for g in EQUATION_KERNELS for R in (0.75, 2.3, 6.949, 9.6)]


@pytest.mark.parametrize("g,R", BIT_EQUALITY_CONTEXTS)
def test_equation_array_matches_scalar_bitwise(g, R):
    ctx = build_context(g, R)
    grid = np.linspace(1e-3, 6.0, 502)[1:-1]
    vec = spectral_equation(ctx, grid)
    scal = np.array([spectral_equation(ctx, float(x)) for x in grid])
    assert np.array_equal(vec, scal)


ORACLE_CONTEXTS = BIT_EQUALITY_CONTEXTS + [(g, R) for g in EQUATION_KERNELS for R in (15.3, 19.6)]


@pytest.mark.parametrize("g,R", ORACLE_CONTEXTS)
def test_equation_matches_per_order_loop_bitwise(g, R):
    ctx = build_context(g, R)
    rng = np.random.default_rng(7)
    for size in (1, 2, 63, 5000):
        lam = rng.uniform(1e-3, 6.0, size)
        assert np.array_equal(spectral_equation(ctx, lam), spectral_equation_loop(ctx, lam))
    for x in rng.uniform(1e-3, 6.0, 5).tolist():
        expected = spectral_equation_loop(ctx, x)
        for point in (x, np.array(x)):
            got = spectral_equation(ctx, point)
            assert type(got) is float and got == expected


# supports with 2R an integer, where the context is closed-ended
CLOSED_END_SUPPORTS = [1.0, 1.5, 7.0, 20.0]


def test_context_arrays_match_per_entry_assembly_bitwise():
    rng = np.random.default_rng(11)
    for g in EQUATION_KERNELS:
        for R in rng.uniform(0.51, 20.0, 67).tolist() + CLOSED_END_SUPPORTS:
            ctx = build_context(g, R)
            for name, expected in context_arrays_loop(g, R).items():
                assert np.array_equal(getattr(ctx, name), expected), (g, R, name)


@pytest.mark.parametrize("g,R", BIT_EQUALITY_CONTEXTS)
def test_batched_bisection_matches_one_at_a_time(g, R, monkeypatch):
    brackets = []

    def recording_bisect(f, lo, hi, xtol, ends=None, guess=None):
        brackets.append((f, lo, hi, ends, guess))
        return _bisect(f, lo, hi, xtol, ends, guess)

    monkeypatch.setattr(solver, "_bisect", recording_bisect)
    ctx = build_context(g, R)
    root = smallest_root(ctx)
    (guide, lo, hi, ends, guess), = brackets
    assert lo < guess < hi
    single = bisect_one_at_a_time(lambda lam: spectral_equation(ctx, lam), lo, hi, ROOT_XTOL)
    assert list(ends) == guide(np.array([lo, hi])).tolist()
    # with the scan's first guess, and from the secant alone
    for first_guess, most_calls in ((guess, 2), (None, 3)):
        calls = []

        def f(lam):
            calls.append(np.size(lam))
            return guide(lam)

        assert _bisect(f, lo, hi, ROOT_XTOL, ends, first_guess) == single == root
        assert len(calls) <= most_calls


def steep_step(x):
    return math.tanh(1e6 * (x - 0.3)) + 0.5  # the secant of a wide bracket misses by far


def pole_at_right_end(x):
    return math.tan(x) - 3.0  # bracketed up to just below the pole at pi/2


@pytest.mark.parametrize(
    "f,lo,hi", [(steep_step, 0.0, 1.0), (pole_at_right_end, 0.0, math.pi / 2 - 1e-12)]
)
def test_guided_bisection_with_a_poor_secant(f, lo, hi):
    calls = []

    def on_array(x):
        calls.append(x.size)
        return np.array([f(v) for v in x.tolist()])

    reference = bisect_one_at_a_time(f, lo, hi, 1e-12)
    assert _bisect(on_array, lo, hi, 1e-12) == reference
    assert len(calls) > 4  # the predicted paths were left early, and predicted again
    assert _bisect(on_array, lo, hi, 1e-12, (f(lo), f(hi))) == reference
    assert abs(f(reference)) < 1e-3


@pytest.mark.parametrize("root", [0.5, 0.375, 0.5 + 2.0**-9, 0.5 - 2.0**-14])
def test_batched_bisection_stops_on_exact_zero(root):
    f = lambda x: x - root  # vanishes exactly at a dyadic midpoint of (0, 1)
    assert _bisect(f, 0.0, 1.0, 1e-12) == root
    assert bisect_one_at_a_time(f, 0.0, 1.0, 1e-12) == root
    bent = lambda x: (x - root) * (1.0 + 1e3 * (x - root) ** 2)  # same zero, poor secant
    assert _bisect(bent, 0.0, 1.0, 1e-12) == root


def test_batched_bisection_bracket_narrower_than_xtol():
    f = lambda x: x - 0.3
    lo, hi = 0.3 - 1e-14, 0.3 + 2e-14
    assert _bisect(f, lo, hi, 1e-12) == bisect_one_at_a_time(f, lo, hi, 1e-12) == 0.5 * (lo + hi)


def test_bisection_returns_an_end_where_f_vanishes():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.asarray(x) - 0.3

    assert _bisect(f, 0.3, 1.0, 1e-12) == 0.3
    assert _bisect(f, 0.0, 0.3, 1e-12) == 0.3
    assert _bisect(f, 1.0, 0.3, 1e-12, ends=(0.7, 0.0)) == 0.3
    assert calls == [2, 2]  # the ends alone, and none when they are given


def test_bisection_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="does not straddle a sign change"):
        _bisect(lambda x: np.asarray(x) - 0.3, 0.4, 1.0, 1e-12)
    with pytest.raises(ValueError, match="does not straddle a sign change"):
        _bisect(lambda x: np.asarray(x) - 0.3, 0.0, 0.2, 1e-12, ends=(-0.3, -0.1))


def test_bisection_of_adjacent_floats_returns_their_rounded_midpoint():
    # with xtol = 0 the bracket shrinks to two adjacent floats, whose
    # midpoint rounds onto one of them
    lo = 0.5
    hi = float(np.nextafter(lo, 1.0))
    step = lambda x: np.where(np.asarray(x) > lo, 1.0, -1.0)
    assert _bisect(step, lo, hi, 0.0) == 0.5 * (lo + hi)
    assert _bisect(step, 0.0, 1.0, 0.0) in (lo, hi)


def test_tan_ratio_bisections_keep_their_bits():
    assert tan_ratio_fixed_point().hex() == "0x1.6e27ebe4bf298p-1"
    # the shifted-cosine minimum on both branches of the tangent map
    assert small_support_minimum(Symmetry.O, 1.0).bound.hex() == "0x1.7be9f40623afep-3"
    assert small_support_minimum(Symmetry.Sp, 0.25).bound.hex() == "0x1.1e89451c7f0fap+0"
    assert small_support_minimum(Symmetry.SOplus, 0.5).bound.hex() == "0x1.af9ecafeba2d6p-2"
    # each equals plain bisection of tan_ratio(x) - y on the same bracket
    for y in (-12.0, 0.0, 0.7, 1.6, 120.0):
        lo, hi = (1e-15, 0.25 - 1e-14) if y > 1 else (0.25 + 1e-14, tan_ratio_fixed_point() - 1e-15)
        expected = bisect_one_at_a_time(lambda x: tan_ratio(x) - y, lo, hi, 1e-13)
        assert tan_ratio_inverse(y) == expected


# ---------------------------------------------------------------------------
# The root scan
# ---------------------------------------------------------------------------

def scan_grid(lam_max, excluded):
    """The scan of ``first_root``: the grid points i * GRID_STEP, split at
    the window of each excluded frequency above the first of them, up to
    the first point past lam_max; and per pair of neighbours whether an
    excluded frequency lies between them."""
    windowed = [e for e in excluded if e > GRID_STEP]
    grid = [GRID_STEP + i * GRID_STEP for i in range(int(lam_max / GRID_STEP) + 3)]
    points = [p for p in grid if all(abs(p - e) >= EXCLUSION_RADIUS for e in windowed)]
    points += [e + s * EXCLUSION_RADIUS for e in windowed for s in (-1, 1)]
    points = np.array(sorted(points))
    points = points[: int(np.sum(points <= lam_max)) + 1]
    window = [any(a < e < b for e in windowed) for a, b in zip(points[:-1], points[1:])]
    return points, np.array(window, dtype=bool)


def first_bracket(f, lam_max, excluded):
    """``solver._first_bracket`` on the scan that ``first_root(f, lam_max,
    excluded)`` makes."""
    ex = solver._windowed(excluded)
    pts, window = solver._scan_points(lam_max, ex)
    return _first_bracket(f, pts, window, np.asarray(f(pts), dtype=float), ex, repr(lam_max))


def test_scan_holds_a_root_just_past_lam_max():
    f = lambda x: x - 4.0004  # past lam_max, below the scan's last point
    pts, _ = scan_grid(4.0, [])
    assert pts[-2] <= 4.0 < 4.0004 < pts[-1]
    root = first_root(f, 4.0, [])
    assert root == bisect_one_at_a_time(f, float(pts[-2]), float(pts[-1]), ROOT_XTOL)
    assert abs(root - 4.0004) < 1e-12


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_equation_roots_lie_in_the_scan_prefix(g):
    """Every root lies below the one-mode frequency, where the scan ends:
    past half support the one-mode test function is admissible, so its
    quotient bounds the minimum."""
    checked = 0
    for R in np.random.default_rng(3).uniform(0.51, 40.0, 600).tolist():
        ctx = build_context(g, R)
        try:
            root = smallest_root(ctx)
        except RootScanError:
            assert g is Symmetry.SOminus and R > 20.3  # the scan's grid step is too coarse
            continue
        assert root <= _upper_frequency(ctx), R
        checked += 1
    assert checked >= (250 if g is Symmetry.SOminus else 600)


def test_root_scan_error_prints_the_scan_end():
    g, R = Symmetry.SOminus, 100.0 - 1e-5  # height_bound(SO-, 200)'s first sample
    lam_up = _upper_frequency(build_context(g, R))
    assert lam_up < 1e-4  # printed with 3 decimals, it would read "0.000"
    with pytest.raises(RootScanError) as info:
        height_bound(g, 200.0)
    expected = f"no admissible root up to the one-mode frequency {lam_up!r} for SO- at R={R!r}"
    assert str(info.value) == expected


def test_root_in_an_exclusion_core_is_a_loud_scan_error():
    # both ends of the exclusion window around 0.1361666490962466 keep the
    # sign of the scan point beside them: the root lies within 1e-9 of it
    with pytest.raises(RootScanError) as info:
        solver.solve(Symmetry.Sp, 22.773737034258563)
    assert str(info.value) == (
        "root within 1e-09 of excluded frequency 0.1361666490962466"
        " for Sp at R=22.773737034258563"
    )
    assert info.value.grid.size == info.value.values.size == 394


def test_first_root_error_carries_the_whole_scan():
    calls = []
    excluded = [0.5, 2.5]

    def f(x):
        calls.append(np.size(x))
        # changes sign at the excluded frequencies and past the scan's last point
        return (x - 0.5) * (x - 2.5) * (x - 4.0015)

    with pytest.raises(RootScanError) as info:
        first_root(f, 4.0, excluded)
    pts, _ = scan_grid(4.0, excluded)
    assert pts[-1] < 4.0015
    assert calls == [pts.size]  # one scan, and nothing past it
    assert np.array_equal(info.value.grid, pts)
    assert np.array_equal(info.value.values, f(pts))


def test_first_root_window_straddling_the_prefix_cut():
    e = 1.0 + 5e-7  # its window [e -+ 1e-6] holds the scan end lam_max = 1
    root = e + 5e-7
    f = lambda x: (x - e) * (x - root)  # both window ends positive: a root inside
    pts, window = scan_grid(1.0, [e])
    assert pts[-2:].tolist() == [e - EXCLUSION_RADIUS, e + EXCLUSION_RADIUS] and window[-1]
    found = first_root(f, 1.0, [e])
    assert found == bisect_one_at_a_time(f, e + EXCLUSION_CORE, e + EXCLUSION_RADIUS, ROOT_XTOL)
    assert abs(found - root) < 1e-12


@pytest.fixture
def fresh_tables():
    """Empty per-(n, delta) tables."""
    solver._order_tables.cache_clear()


@pytest.mark.parametrize("n", (2, 7, 20))
def test_kept_scan_points_match_a_fresh_build(n, fresh_tables):
    excluded = u_product_roots(n)
    tables = solver._order_tables(n, -1)
    rng = np.random.default_rng(n)
    ends = rng.uniform(0.01, 6.0, 30).tolist()
    # scans ending next to an excluded frequency, inside its window or not
    ends += [e + s for e in excluded[:3] for s in (-2e-6, -5e-7, 0.0, 5e-7, 2e-6)]
    for lam_max in ends:
        pts, window, sums = tables.scan(lam_max)
        expected = scan_grid(lam_max, excluded)
        assert np.array_equal(pts, expected[0]) and np.array_equal(window, expected[1])
        assert sums.shape == (2, pts.size)
    kept = (tables.excluded, tables.points, tables.window, tables.sums)
    assert not any(arr.flags.writeable for arr in kept)
    # first_root's scans of other excluded sets, one next to the first grid point
    for ex in ([0.401 - 5e-7, 0.5 - 4e-7, 2.0], [0.5 * GRID_STEP, GRID_STEP + 5e-7]):
        for lam_max in ends + [0.5 * GRID_STEP, GRID_STEP, 1.2 * GRID_STEP]:
            pts, window = solver._scan_points(lam_max, solver._windowed(ex))
            expected = scan_grid(lam_max, ex)
            assert np.array_equal(pts, expected[0]) and np.array_equal(window, expected[1])


def _counting_amplitude_sums(monkeypatch):
    points = []
    real = solver._amplitude_sum

    def counted(delta, lam, u):
        points.append(lam.size)
        return real(delta, lam, u)

    monkeypatch.setattr(solver, "_amplitude_sum", counted)
    return points


TABLE_SUPPORTS = {2: 0.8, 7: 3.3, 20: 9.7}


@pytest.mark.parametrize("g", EQUATION_KERNELS)
@pytest.mark.parametrize("n", sorted(TABLE_SUPPORTS))
@pytest.mark.parametrize("longer_first", (False, True))
def test_tabulated_prefix_matches_per_order_loop(g, n, longer_first, fresh_tables, monkeypatch):
    ctx = build_context(g, TABLE_SUPPORTS[n])
    other = build_context(g, TABLE_SUPPORTS[n] + 0.1)  # another support with n cells
    assert ctx.n == other.n == n
    points = _counting_amplitude_sums(monkeypatch)
    tables = solver._order_tables(n, g.delta)
    ends = [_upper_frequency(ctx), 4 * _upper_frequency(ctx)]
    scans = [tables.scan(lam_max) for lam_max in (ends[::-1] if longer_first else ends)]
    short, long = sorted(scans, key=lambda scan: scan[0].size)
    assert short[0].size < long[0].size and np.array_equal(long[0][: short[0].size], short[0])
    for c in (ctx, other):
        for pts, _, sums in scans:
            got = spectral_equation(c, pts, _sums=sums)
            assert got.tobytes() == spectral_equation_loop(c, pts).tobytes()
    # the first scan sums its points; a longer one sums its new points only
    sizes = (short[0].size, long[0].size)
    assert points == ([sizes[1]] if longer_first else [sizes[0], sizes[1] - sizes[0]])


def test_add_rows_gives_accumulate_bits():
    rng = np.random.default_rng(7)
    shapes = [(3, 2910), (21, 600), (41, 20), (21, 2), (7, 2, 300), (4, 0)]
    shapes += [(9,), (41,), (5, 1), (41, 1)]  # one entry a row: a reduce of 41 adds pairwise
    inputs = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 9, s) for s in shapes]
    wide = inputs[1]
    inputs += [wide.T, wide[1::2], wide[:, ::3]]  # not C-contiguous
    for rows in inputs:
        got = solver._add_rows(rows)
        assert got.tobytes() == np.add.accumulate(rows, axis=0)[-1].tobytes()
        assert got.shape == rows.shape[1:]
        if got.shape:
            assert not np.shares_memory(got, rows)


def test_equation_and_stack_on_empty_inputs():
    for g in EQUATION_KERNELS:
        got = spectral_equation(build_context(g, 3.3), np.array([]))
        assert got.shape == (0,) and got.dtype == np.float64
    for n in (0, 1, 7):
        got = u_stack(n, np.array([]))
        assert got.shape == (n + 1, 0) and got.dtype == np.float64


def test_tabulated_equation_on_every_input_shape(fresh_tables):
    for g in EQUATION_KERNELS:
        ctx = build_context(g, 3.3)
        pts, _, sums = solver._order_tables(ctx.n, ctx.delta).scan(_upper_frequency(ctx))
        inputs = [(pts, sums), (pts[:24], sums[:, :24])]  # as the scan hands them over
        lams = (pts[:1], pts[:24], pts[5:40], pts[:24].reshape(4, 6), pts[:24].reshape(24, 1))
        inputs += [(lam, None) for lam in lams + (float(pts[7]), np.array(pts[7]))]
        for lam, lam_sums in inputs:
            got = spectral_equation(ctx, lam, _sums=lam_sums)
            expected = spectral_equation_loop(ctx, lam)
            assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _guess_from(run, values, lo):
    """The first guess ``_first_bracket`` makes from the run of scan points
    ``run`` with the divided values ``values``."""
    square = _inverse_interpolation_zero((run * run).tolist(), values.tolist(), lo * lo)
    return math.sqrt(square)


@pytest.mark.parametrize(
    "root,below",  # below: the run's scan points below the bracket
    [(0.2504, 4), (0.0024, 1), (3.9996, 7)],  # centred, at the scan's start and at its end
)
def test_first_guess_is_the_inverse_interpolation_zero(root, below):
    f = lambda x: x - root  # a straight line: lam^2 is a quadratic in its value
    f_div, lo, hi, ends, guess = first_bracket(f, 4.0, [])
    pts, _ = scan_grid(4.0, [])
    i = pts.tolist().index(lo)
    assert hi == pts[i + 1] and f_div is f
    run = pts[i - below : i - below + GUESS_POINTS]
    assert run.size == GUESS_POINTS and run[0] <= lo < hi <= run[-1]
    assert guess == _guess_from(run, f(run), lo)
    assert abs(guess - root) <= 2e-18  # measured: 0, 1.3e-18 and 0


PIECEWISE_GRID = [0.246, 0.247, 0.248, 0.249, 0.25, 0.251, 0.252, 0.253, 0.254, 0.255]


@pytest.mark.parametrize(
    "values,kept",  # kept: the run's points that the guess interpolates
    [
        # steep all along, zero inside: the whole run
        ([-4.2, -3.4, -2.6, -1.8, -1.0, 1e-3, 1.0, 1.9, 2.8, 3.6], slice(0, 10)),
        # flattening toward an extremum past the run: cut before the first
        # step below 0.7 of the bracket's slope, though all are monotone
        ([-4.2, -3.4, -2.6, -1.8, -1.0, 1e-3, 1.0, 1.9, 2.5, 2.6], slice(0, 8)),
        # not monotone at the run's first point, flat at 3.5: cut on both sides
        ([-1.0, -1.5, -1.4, -1.3, -1.0, 1e-3, 1.5, 3.0, 3.5, 4.5], slice(4, 8)),
        # not strictly monotone at the run's last point
        ([-4.0, -3.0, -2.5, -2.0, -1.0, 1e-3, 1.5, 3.0, 3.5, 3.5], slice(3, 8)),
        # the whole run would put the guess below lo
        ([-5.0, -4.0, -3.0, -2.0, -1e-2, 1.0, 1.01, 1.02, 1.03, 1.04], slice(0, 6)),
        # the whole run would put the guess above hi
        ([-1.004, -1.003, -1.002, -1.001, -1.0, 1e-3, 2.0, 3.0, 4.0, 5.0], slice(4, 10)),
    ],
)
def test_first_guess_interpolates_the_steep_part_of_the_run(values, kept):
    f = lambda x: np.interp(x, PIECEWISE_GRID, values, left=-5.0, right=5.0)
    _, lo, hi, _, guess = first_bracket(f, 1.04, [])
    assert (lo, hi) == (0.25, 0.251)
    pts, _ = scan_grid(1.04, [])
    run = pts[pts.tolist().index(lo) - 4 :][kept]
    assert guess == _guess_from(run, f(run), lo) and lo < guess < hi
    assert first_root(f, 1.04, []) == bisect_one_at_a_time(f, lo, hi, ROOT_XTOL)


def test_no_first_guess_outside_the_bracket(monkeypatch):
    f = lambda x: np.interp(x, PIECEWISE_GRID, [-4.2, -3.4, -2.6, -1.8, -1.0, 1e-3, 1.0, 1.9, 2.8, 3.6])
    for outside in (0.2499, 0.2511):
        monkeypatch.setattr(solver, "_inverse_interpolation_zero", lambda x, y, origin: outside**2)
        assert first_bracket(f, 1.04, [])[4] is None
        assert first_root(f, 1.04, []) == bisect_one_at_a_time(f, 0.25, 0.251, ROOT_XTOL)


def test_first_guess_needs_a_window_free_run():
    # the excluded frequency e, and the bounds of the run it leaves
    for e, first, last in (
        (0.2510005, 0.2415, 0.251),  # the window replaces 0.251: the run grows left only
        (0.2525, 0.2435, 0.2525),  # the window stops the run two points past hi
        (0.2478, 0.2478, 0.2565),  # the window stops the run three points below lo
    ):
        f = lambda x: (x - 0.2504) * (x - e)  # vanishes at e, as the equation does
        f_div, lo, hi, _, guess = first_bracket(f, 4.0, [e])
        assert f_div(np.array([0.2])) == f(np.array([0.2])) / (0.2 * 0.2 - e * e)
        pts, window = scan_grid(4.0, [e])
        a, b = np.searchsorted(pts, [first, last])
        run = pts[a:b]
        assert run.size == GUESS_POINTS and not window[a : b - 1].any()
        assert run[0] <= lo < hi <= run[-1]
        assert guess == _guess_from(run, f(run) / (run * run - e * e), lo)
        assert abs(guess - 0.2504) < 1e-15  # f / (x^2 - e^2) = (x - 0.2504) / (x + e)
        assert first_root(f, 4.0, [e]) == bisect_one_at_a_time(f_div, lo, hi, ROOT_XTOL)


def test_no_first_guess_when_the_bracket_is_a_window():
    e = 0.2504 + 0.5 * EXCLUSION_RADIUS  # both window ends lie above 0: a second zero inside
    f = lambda x: (x - 0.2504) * (x - e)
    f_div, lo, hi, _, guess = first_bracket(f, 4.0, [e])
    assert (lo, hi) == (e - EXCLUSION_RADIUS, e - EXCLUSION_CORE)
    assert guess is None
    assert first_root(f, 4.0, [e]) == bisect_one_at_a_time(f_div, lo, hi, ROOT_XTOL)


# Supports with at most 20 cells, where the scan between windows is long
GUESS_SUPPORTS = [
    (g, R) for g in EQUATION_KERNELS for R in np.random.default_rng(8).uniform(0.51, 10.0, 20).tolist()
]


#: Sp and SO+ supports past R = 20, where the run of scan values around a
#: root often flattens toward an extremum.
FAR_GUESS_SUPPORTS = [
    (g, R)
    for g in (Symmetry.Sp, Symmetry.SOplus)
    for R in np.random.default_rng(29).uniform(20.0, 60.0, 40).tolist()
]


def test_first_guess_changes_no_root():
    rng = np.random.default_rng(5)
    supports = [(g, R) for g in EQUATION_KERNELS for R in rng.uniform(0.51, 20.0, 20).tolist()]
    supports += [(g, R) for g in EQUATION_KERNELS for R in CLOSED_END_SUPPORTS] + GUESS_SUPPORTS
    supports += FAR_GUESS_SUPPORTS
    for g, R in supports:
        ctx = build_context(g, R)
        f = lambda lam: spectral_equation(ctx, lam)
        excluded = u_product_roots(ctx.n)
        f_div, lo, hi, ends, guess = first_bracket(f, _upper_frequency(ctx), excluded)
        assert smallest_root(ctx) == _bisect(f_div, lo, hi, ROOT_XTOL, ends, guess)
        assert smallest_root(ctx) == _bisect(f_div, lo, hi, ROOT_XTOL, ends)
        assert smallest_root(ctx) == bisect_one_at_a_time(f, lo, hi, ROOT_XTOL)


# measured: 1.13 calls per root (Sp 1.25, SO+ 1.15, SO- 1.0), 2.07 with a
# four-point guess through the equation divided by lam - e; past R = 20 2.55,
# and 2.75 with a guess only where the whole run is monotone
@pytest.mark.parametrize(
    "supports,most", [(GUESS_SUPPORTS, 1.25), (FAR_GUESS_SUPPORTS, 2.6)], ids=["to R=10", "past R=20"]
)
def test_first_guess_leaves_few_path_calls_per_root(supports, most, monkeypatch):
    calls = []

    def counting_bisect(f, lo, hi, xtol, ends=None, guess=None):
        def counted(lam):
            calls.append(np.size(lam))
            return f(lam)

        return _bisect(counted, lo, hi, xtol, ends, guess)

    monkeypatch.setattr(solver, "_bisect", counting_bisect)
    for g, R in supports:
        smallest_root(build_context(g, R))
    assert len(calls) <= most * len(supports)


def _one_mode_supports():
    """R just above 1/2, on both sides of each half-integer up to 60, and a
    dense grid of (0.5, 60)."""
    near_half = [0.5 + 10.0**-k for k in range(1, 13)]
    near_cells = [k / 2 + s for k in range(2, 121) for s in (-1e-3, -1e-9, 1e-9, 1e-3)]
    return near_half + near_cells + np.linspace(0.5001, 60.0, 2001).tolist()


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_one_mode_quotient_matches_one_mode_forms_bitwise(g):
    for R in _one_mode_supports():
        forms = rayleigh.assemble_forms(g, R, 1)
        expected = forms.numerator[0, 0] / forms.denominator[0, 0]
        assert _one_mode_quotient(g, R) == expected, R


def test_scan_end_assembles_no_forms(monkeypatch):
    def no_forms(*args):
        raise AssertionError("the scan end assembled the oracle's forms")

    monkeypatch.setattr(rayleigh, "assemble_forms", no_forms)
    ctx = build_context(Symmetry.SOminus, 3.3)
    m_up = _one_mode_quotient(Symmetry.SOminus, 3.3)
    assert _upper_frequency(ctx) == math.pi * math.sqrt(m_up) / (2 * 3.3)
    assert solver.solve(Symmetry.SOminus, 3.3)[0].lam == smallest_root(ctx)


def test_two_piece_vanishes_at_excluded_half():
    for g in EQUATION_KERNELS:
        for R in (0.6, 0.75, 0.9):
            assert abs(spectral_equation_two_piece(g, R, 0.5)) < 1e-12


def test_two_piece_domain():
    with pytest.raises(ValueError):
        spectral_equation_two_piece(Symmetry.Sp, 1.2, 0.7)
    with pytest.raises(ValueError):
        spectral_equation_two_piece(Symmetry.O, 0.8, 0.7)


def test_smallest_root_avoids_excluded_set():
    for g in EQUATION_KERNELS:
        for R in (0.6, 0.95, 1.2, 1.45):
            ctx = build_context(g, R)
            root = smallest_root(ctx)
            assert all(abs(root - e) > 1e-6 for e in u_product_roots(ctx.n))
            # root genuinely solves the regularized equation
            assert abs(spectral_equation(ctx, root)) < 1e-8


def test_smallest_root_matches_oracle_spot():
    for g, R, tol in [
        (Symmetry.SOplus, 0.75, 5e-3),
        (Symmetry.Sp, 0.6, 5e-3),
        (Symmetry.SOminus, 1.2, 5e-3),
        # roots within one grid step of an excluded frequency
        (Symmetry.Sp, 6.949, 1e-8),
        (Symmetry.SOplus, 2.99, 1e-8),
        (Symmetry.SOminus, 1.1676, 1e-8),
        # roots inside an exclusion window, where both window ends agree in sign
        (Symmetry.SOplus, 1.7892145507812498, 1e-9),
        (Symmetry.SOplus, 2.9864935546874998, 1e-9),
        (Symmetry.SOplus, 13.872709030100335, 1e-9),
        (Symmetry.Sp, 3.10365380859375, 1e-9),
        # 1.1e-9 from cos(pi/4), where the regularized equation loses digits
        (Symmetry.SOminus, 1.1683677734375002, 2e-8),
    ]:
        ctx = build_context(g, R)
        lam = smallest_root(ctx)
        assert lam / (2 * math.pi) == pytest.approx(
            rayleigh.sqrt_quotient(g, R, max(400, round(200 * R))), abs=tol
        )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def test_dispatch_unitary_exact():
    res = minimal_quotient(Symmetry.U, 0.3)
    assert res.branch == "unitary_exact"
    assert res.m_tilde == pytest.approx(1 / (16 * 0.09), rel=1e-15)
    assert res.lam is None


def test_dispatch_orthogonal_always_small_support():
    for R in (0.3, 0.9, 1.7):
        assert minimal_quotient(Symmetry.O, R).branch == "small_support"


def test_dispatch_equation_branch_consistency():
    res = minimal_quotient(Symmetry.Sp, 0.7)
    assert res.branch == "transcendental"
    assert res.m_tilde == pytest.approx((res.lam / (2 * math.pi)) ** 2, rel=1e-15)
    assert res.bound == pytest.approx(math.sqrt(res.m_tilde), rel=1e-15)


def test_branch_seam_differences_shrink():
    for g in EQUATION_KERNELS:
        diffs = []
        for h in (0.05, 0.02, 0.01, 0.005):
            below = minimal_quotient(g, 0.5 - h).bound
            above = minimal_quotient(g, 0.5 + h).bound
            diffs.append(abs(below - above))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-2


def test_minimum_strictly_decreasing_in_support():
    inputs = [(g, np.linspace(0.1, 0.95, 20)) for g in (Symmetry.O, *EQUATION_KERNELS)]
    inputs += [(g, np.linspace(0.51, 19.99, 200)) for g in EQUATION_KERNELS]
    for g, supports in inputs:
        grid = [r for r in supports if abs(2 * r - round(2 * r)) > 1e-3]
        values = [minimal_quotient(g, float(R)).m_tilde for R in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("g", list(Symmetry))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(R=st.floats(min_value=0.02, max_value=20.0), step=st.floats(min_value=1e-6, max_value=1e-1))
@example(R=1.0, step=1e-6)
@example(R=7.0, step=0.1)
@example(R=1.5 - 2**-19, step=2**-19)  # R + step = 1.5
@example(R=20.0 - 2**-19, step=2**-19)  # R + step = 20
def test_minimum_strictly_decreasing_for_any_step(g, R, step):
    assert minimal_quotient(g, R + step).m_tilde < minimal_quotient(g, R).m_tilde


def test_sp_scaled_frequency_stays_between_one_and_two():
    # s = 2 R lam / pi is the square root of the 16 R^2-scaled Sp minimum;
    # it never comes near an odd integer, where the piecewise optimizer
    # would only be conditionally optimal.
    scaled = []
    for R in np.linspace(0.51, 20.0, 2002)[1:]:
        result, _ = solver.solve(Symmetry.Sp, float(R))
        scaled.append(2 * result.support * result.lam / math.pi)
    assert 1.0 < min(scaled) and max(scaled) < 2.0


@pytest.mark.parametrize(
    "g,R", [(Symmetry.Sp, 1.0), (Symmetry.SOplus, 1.5), (Symmetry.SOminus, 2.0 - 2e-10)]
)
def test_integer_2r_support_is_solved_there_and_matches_the_oracle(g, R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, ctx = solver.solve(g, R)
    assert result.support == ctx.R == R
    # measured: the oracle lies 8e-12 to 8.3e-11 above
    assert 0.0 <= rayleigh.sqrt_quotient(g, R, 400) - result.bound <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 7, 14])
@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_supports_near_integer_2r_are_solved_where_asked(g, n):
    # The closed-end context at 2R = n and the contexts within 1e-9 of it
    # are well conditioned, and the minimum is continuous across 2R = n:
    # measured cond(M, 1) <= 4.6e3 and a relative slope <= 4.0 in R.
    at_edge = minimal_quotient(g, n / 2).m_tilde
    for step in (0.0, 5e-13, -5e-13, 5e-11, -5e-11, 5e-10, -5e-10, 1e-9, -1e-9):
        R = n / 2 + step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, ctx = solver.solve(g, R)
        assert result.support == ctx.R == R
        assert np.linalg.cond(ctx.m_matrix, 1) <= 1e6
        assert abs(result.m_tilde - at_edge) / at_edge <= 5 * abs(step) + 1e-10, (R, step)


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_closed_end_root_at_r1_matches_two_piece_form(g):
    two_piece = first_root(
        lambda lam: spectral_equation_two_piece(g, 1.0, lam), 8.0, u_product_roots(2)
    )
    root = build_context(g, 1.0).root  # measured: the same bits
    assert abs(root - two_piece) <= 1e-12 * two_piece


def test_degenerate_radius_error_is_a_value_error():
    err = DegenerateRadiusError("degenerate")
    assert isinstance(err, ValueError)
