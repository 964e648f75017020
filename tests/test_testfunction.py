import cmath
import math
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from lowzero import chebyshev as cheb
from lowzero import rayleigh, solver, testfunction
from test_solver import CLOSED_END_SUPPORTS
from testfunction_oracles import (
    assemble_loop,
    cell_terms,
    full_integral_loop,
    integral_all_pieces,
    piece_index_linear_scan,
    quotient_quadpack,
    quotient_quadrature_scalar,
    residuals_scalar,
    slope_by_terms,
    solve_continuity_loop,
    tail_integral_loop,
    value_by_terms,
)
from lowzero.chebyshev import u_stack
from lowzero.solver import build_context, smallest_root
from lowzero.symmetry import Symmetry
from lowzero.verification import RESIDUAL_PAIRS, RESIDUAL_TOL, _case
from lowzero.testfunction import (
    PiecewiseTestFunction,
    ResidualReport,
    assemble,
    _mode_coefficient,
    closed_integrals,
    quotient_quadrature,
    reconstruct,
    residuals,
)

EQUATION_CASES = [
    (Symmetry.SOplus, 0.75),
    (Symmetry.Sp, 0.75),
    (Symmetry.Sp, 0.6),
    (Symmetry.SOminus, 0.8),
    (Symmetry.SOminus, 1.2),
]

EQUATION_KERNELS = (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)

SMALL_CASES = [
    (Symmetry.O, 0.35),
    (Symmetry.O, 0.9),
    (Symmetry.Sp, 0.3),
    (Symmetry.SOplus, 0.45),
    (Symmetry.SOminus, 0.25),
]


def _mode(ctx, lam, k, order):
    return _mode_coefficient(ctx, lam, k, order, u_stack(order, lam).tolist())


def _solved(g, R):
    ctx = build_context(g, R)
    lam = smallest_root(ctx)
    return ctx, lam


# ---------------------------------------------------------------------------
# Mode coefficients
# ---------------------------------------------------------------------------

def test_mode_conjugation_identity():
    for g, R in EQUATION_CASES:
        ctx = build_context(g, R)
        n = ctx.n
        for lam in (0.37, 0.83, 1.9):
            z_last = _mode(ctx, lam, n - 1, order=n)
            z_first = _mode(ctx, lam, 0, order=n)
            assert z_last.conjugate() == pytest.approx(-z_first, abs=1e-12)


def test_mode_cross_order_identity():
    # z_{n-1}(0) = i*delta*(U_n/U_{n-1})*e^{i lam/2}*z_n(0) - 2*delta*e^{i lam n/2}
    # (scale 1); the final term is what produces -2 delta lam cos(lam R) in
    # the derivative limit at the inner edge of the outermost cell.
    for g, R in EQUATION_CASES:
        ctx = build_context(g, R)
        n, d = ctx.n, ctx.delta
        lam = 0.837
        u = u_stack(n, lam)
        zn0 = _mode(ctx, lam, 0, order=n)
        zlo0 = _mode(ctx, lam, 0, order=n - 1)
        rhs = (
            1j * d * u[n] / u[n - 1] * cmath.exp(1j * lam / 2) * zn0
            - 2 * d * cmath.exp(1j * lam * n / 2)
        )
        assert zlo0 == pytest.approx(rhs, abs=1e-10)
        lhs_deriv = lam * (zlo0 * cmath.exp(1j * lam * (R - n / 2))).real
        rhs_deriv = -2 * d * lam * math.cos(lam * R) + lam * (
            1j * d * u[n] / u[n - 1]
            * zn0 * cmath.exp(1j * lam * (R - (n - 1) / 2))
        ).real
        assert lhs_deriv == pytest.approx(rhs_deriv, abs=1e-10)


def test_mode_coefficient_guards():
    ctx = build_context(Symmetry.Sp, 0.75)
    with pytest.raises(ValueError):
        _mode(ctx, 0.5, 0, order=2)  # root of U_2


def test_mode_coefficient_outermost_cell_display():
    # alternative form of z_n(0): the whole partial geometric sum divided
    # through by (i*delta)^n U_n, instead of the term-by-term expression
    for g, R in EQUATION_CASES:
        ctx = build_context(g, R)
        n, d = ctx.n, ctx.delta
        for lam in (0.41, 1.3):
            u = u_stack(n, lam)
            zfac = 1j * d * cmath.exp(1j * lam)
            series = 1 - zfac**n * u[n] + zfac ** (n + 1) * u[n - 1]
            alt = (
                1j / ((1j * d) ** n * u[n])
                * cmath.exp(-1j * lam * (n + 1) / 2)
                * series
                / (lam + d * math.sin(lam))
            )
            assert _mode(ctx, lam, 0, order=n) == pytest.approx(
                alt, rel=1e-12
            )


# ---------------------------------------------------------------------------
# Continuity system
# ---------------------------------------------------------------------------

def test_solve_continuity_residual():
    from lowzero.solver import _ipow, forcing_amplitude

    for g, R in EQUATION_CASES:
        ctx, lam = _solved(g, R)
        x = testfunction._solve_continuity(ctx, testfunction._lambda_mode(ctx, lam))
        z = forcing_amplitude(ctx, lam)
        u = u_stack(ctx.n - 1, lam)
        rhs = np.array([u[k] * (z * _ipow(-ctx.delta, k)).imag for k in range(ctx.n)])
        residual = np.linalg.norm(ctx.m_matrix @ x - rhs)
        assert residual <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)


def test_solve_continuity_two_cells_cramer():
    ctx, lam = _solved(Symmetry.SOplus, 0.75)
    d = ctx.delta
    theta_cap = 0.5 * (0.75 - 0.5) + 0.5 * math.pi * (1 + d / 2)
    inv = np.linalg.inv(ctx.m_matrix)
    assert inv[0, 0] == pytest.approx(-1.0, rel=1e-12)
    assert inv[1, 0] == pytest.approx(0.0, abs=1e-14)
    assert inv[0, 1] == pytest.approx(-d * math.tan(theta_cap), rel=1e-12)
    assert inv[1, 1] == pytest.approx(d / math.cos(theta_cap), rel=1e-12)


# ---------------------------------------------------------------------------
# Assembled optimizer
# ---------------------------------------------------------------------------

def test_assembled_even_continuous_supported():
    rng = np.random.default_rng(99)
    for g, R in EQUATION_CASES:
        ctx, lam = _solved(g, R)
        h = assemble(ctx, lam)
        amp = max(abs(h(float(u))) for u in np.linspace(-R, R, 101))
        for u in rng.uniform(0, R + 0.3, 500):
            u = float(u)
            assert abs(h(u) - h(-u)) <= 1e-9 * max(amp, 1.0)
        for b in h.breakpoints()[1:-1]:
            b = float(b)
            assert abs(h(b - 1e-12) - h(b + 1e-12)) <= 1e-8 * amp
        assert h(R) == pytest.approx(0.0, abs=1e-10 * amp)
        assert h(-R) == pytest.approx(0.0, abs=1e-10 * amp)
        assert h(R + 0.05) == 0.0
        assert h(-R - 10.0) == 0.0


def test_assembled_frequency_split():
    # each cell carries exactly one term at the solved frequency, the rest at
    # Chebyshev frequencies strictly below 1
    ctx, lam = _solved(Symmetry.SOminus, 1.2)
    h = assemble(ctx, lam)
    f = h.terms[1]  # [term, cell]; padding terms have frequency 0
    at_lam = np.abs(f - lam) < 1e-12
    assert (at_lam.sum(axis=0) == 1).all()
    assert (np.abs(f[~at_lam]) < 1.0).all()


def test_small_support_function_is_shifted_cosine():
    for g, R in SMALL_CASES:
        h, _ = reconstruct(g, R)
        lam = h.lam
        for u in np.linspace(-R, R, 41):
            expected = -(1.0 / lam) * (math.cos(lam * u) - math.cos(lam * R))
            assert h(float(u)) == pytest.approx(expected, abs=1e-13)
        assert h(R + 1e-9) == 0.0


def test_reconstruct_dispatch():
    h, res = reconstruct(Symmetry.O, 0.9)
    assert res.branch == "small_support"
    h2, res2 = reconstruct(Symmetry.Sp, 0.75)
    assert res2.branch == "transcendental"
    with pytest.raises(ValueError):
        reconstruct(Symmetry.U, 0.5)


# ---------------------------------------------------------------------------
# Integrals: closed forms against quadrature
# ---------------------------------------------------------------------------

def test_integral_closed_forms_match_quadrature():
    for g, R in EQUATION_CASES:
        ctx, lam = _solved(g, R)
        h = assemble(ctx, lam)
        tail_quad, _ = scipy.integrate.quad(
            h, R - 1, R, points=[float(b) for b in h.breakpoints() if R - 1 < b < R],
            limit=200, epsabs=1e-12,
        )
        full_quad, _ = scipy.integrate.quad(
            h, -R, R, points=[float(b) for b in h.breakpoints()[1:-1]],
            limit=200, epsabs=1e-12,
        )
        scale = max(abs(tail_quad), abs(full_quad), 1e-12)
        tail_closed, full_closed = closed_integrals(ctx, lam)
        assert abs(tail_closed - tail_quad) <= 1e-9 * scale
        assert abs(full_closed - full_quad) <= 1e-9 * scale


LAMBDA_MODE_CASES = list(dict.fromkeys(
    [(g, R) for g in EQUATION_KERNELS for R in (0.75, 2.3, 6.949, 9.6)]
    + [(g, R) for g, R in RESIDUAL_PAIRS if R > 0.5 and g is not Symmetry.O]
    + [(Symmetry.SOminus, 5.2), (Symmetry.SOplus, 50.3)]
))


@pytest.mark.parametrize("g,R", LAMBDA_MODE_CASES)
def test_lambda_mode_record_matches_the_reference_loops_bitwise(g, R):
    # the continuity solve and both closed-form integrals, read from one
    # record of the lam mode, against loops that each derive it afresh
    h, _ = reconstruct(g, R)
    ctx, lam = h.ctx, h.lam
    x = testfunction._solve_continuity(ctx, testfunction._lambda_mode(ctx, lam))
    assert x.tobytes() == solve_continuity_loop(ctx, lam).tobytes()
    tail, full = closed_integrals(ctx, lam)
    assert type(tail) is float and type(full) is float
    assert _bits_equal(tail, tail_integral_loop(ctx, lam))
    assert _bits_equal(full, full_integral_loop(ctx, lam))


def _count_lambda_modes(monkeypatch) -> dict:
    """Counts of forcing-amplitude calls and of Chebyshev stacks at a
    scalar frequency from here on."""
    amplitude = testfunction._amplitude_and_stack
    stack = cheb.u_stack
    calls = {"amplitude": 0, "scalar stack": 0}

    def counted_amplitude(ctx, lam):
        calls["amplitude"] += 1
        return amplitude(ctx, lam)

    def counted_stack(n_max, x):
        calls["scalar stack"] += np.ndim(x) == 0
        return stack(n_max, x)

    monkeypatch.setattr(testfunction, "_amplitude_and_stack", counted_amplitude)
    monkeypatch.setattr(cheb, "u_stack", counted_stack)
    return calls


def test_one_lambda_mode_per_reconstruct_and_check(monkeypatch):
    # the optimizer evaluates the forcing amplitude once, with the one
    # Chebyshev stack at lam that the record keeps; its residuals read the
    # record kept on h
    calls = _count_lambda_modes(monkeypatch)
    h, res = reconstruct(Symmetry.SOplus, 5.2)
    residuals(h)
    residuals(h, h.ctx)
    assert res.branch == "transcendental"
    assert calls == {"amplitude": 1, "scalar stack": 1}


def test_forcing_amplitude_reads_the_roots_kept_per_order(monkeypatch):
    # the exclusion test reads the (n, delta) tables' roots, not a fresh
    # u_product_roots(n), and the record's stack is the amplitude's own
    ctx = build_context(Symmetry.SOplus, 5.2)
    lam = ctx.root
    monkeypatch.setattr(solver, "u_product_roots", None)
    z, u = solver._amplitude_and_stack(ctx, lam)
    assert z == solver.forcing_amplitude(ctx, lam)
    assert u.tobytes() == u_stack(ctx.n, lam).tobytes()
    root = solver._order_tables(ctx.n, ctx.delta).roots[0]
    with pytest.raises(ValueError, match="excluded"):
        solver.forcing_amplitude(ctx, root)


@pytest.mark.parametrize("g,R", [(Symmetry.SOplus, 5.2), (Symmetry.Sp, 0.75), (Symmetry.SOminus, 1.2)])
def test_residuals_derive_the_lambda_mode_of_another_context(g, R, monkeypatch):
    # an equal context that is not h's own is not trusted with h's record:
    # the mode is derived afresh from it, with the same bits
    h, _ = reconstruct(g, R)
    want = residuals(h)
    other = solver._build_context.__wrapped__(g, R)
    assert other is not h.ctx
    calls = _count_lambda_modes(monkeypatch)
    got = residuals(h, other)
    assert calls == {"amplitude": 1, "scalar stack": 1}
    assert _bits_equal(astuple(got), astuple(want))


ASSEMBLE_CASES = list(dict.fromkeys(
    LAMBDA_MODE_CASES
    + [(g, R) for g in EQUATION_KERNELS for R in CLOSED_END_SUPPORTS]
    + [
        (EQUATION_KERNELS[i % 3], R)
        for i, R in enumerate(np.random.default_rng(27).uniform(0.51, 20.0, 50).tolist())
    ]
))


def _table_bytes(h) -> list:
    wholes, support, arrays = h._antiderivatives
    return [a.tobytes() for a in (h.los, h.his, h.terms, wholes, *arrays)] + [float.hex(support)]


@pytest.mark.parametrize("g,R", ASSEMBLE_CASES)
def test_assemble_matches_the_per_term_loop_bitwise(g, R):
    # the [cell, term] arrays give every term, and so h's tables, the bits
    # of forming each term on its own
    ctx, lam = _solved(g, R)
    got, want = assemble(ctx, lam), assemble_loop(ctx, lam)
    assert got.terms.shape == want.terms.shape
    assert _table_bytes(got) == _table_bytes(want)


@pytest.mark.parametrize(
    "g,R", [(Symmetry.SOminus, 5.2), (Symmetry.Sp, 7.0), (Symmetry.O, 0.9), (Symmetry.Sp, 0.3)]
)
def test_h_is_its_read_only_cell_table(g, R):
    # an equation support, a closed-end one (2R = 14, whose empty cells are
    # dropped) and two shifted cosines (one cell of two terms)
    h, _ = reconstruct(g, R)
    quantities, _, cells = h.terms.shape
    assert quantities == 3 and cells == h.los.size == h.his.size
    if h.ctx is None:
        assert h.terms.shape == (3, 2, 1)
    for arr in (h.los, h.his, h.terms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    assert (h.his > h.los).all() and np.array_equal(h.his[:-1], h.los[1:])
    brks = h.breakpoints()
    assert np.array_equal(brks, np.append(h.los, h.his[-1]))
    assert brks[0] == -R and brks[-1] == R


def test_lambda_mode_integrals_closed_form():
    # isolate the lam-frequency part of the optimizer and compare its two
    # closed-form integrals against quadrature of that part alone
    from lowzero.solver import _ipow, forcing_amplitude

    for g, R in EQUATION_CASES:
        ctx, lam = _solved(g, R)
        h = assemble(ctx, lam)
        at_lam = np.abs(h.terms[1] - lam) < 1e-12  # the lam column of every cell
        lam_terms = np.where(at_lam, h.terms, 0.0)
        h_lam = PiecewiseTestFunction(h.los, h.his, lam_terms, R=h.R, lam=lam, g=h.g)
        z = forcing_amplitude(ctx, lam)
        u = u_stack(ctx.n - 1, lam)
        d = ctx.delta
        full_closed = -(2 / lam) * sum(u[k] * (z * _ipow(-d, k)).real for k in range(ctx.n))
        acc = sum(_ipow(-d, k) * u[k] for k in range(ctx.n))
        tail_closed = (
            -(2 / (d * lam)) * math.cos(lam * R)
            - (2 / lam) * z.real
            + 2 * d * (1j * z * acc).real
        )
        pts = [float(b) for b in h.breakpoints()]
        full_quad, _ = scipy.integrate.quad(
            h_lam, -R, R, points=[b for b in pts if -R < b < R], limit=200,
            epsabs=1e-12,
        )
        tail_quad, _ = scipy.integrate.quad(
            h_lam, R - 1, R, points=[b for b in pts if R - 1 < b < R], limit=200,
            epsabs=1e-12,
        )
        scale = max(abs(full_quad), abs(tail_quad), 1.0)
        assert abs(full_closed - full_quad) <= 1e-9 * scale
        assert abs(tail_closed - tail_quad) <= 1e-9 * scale


SUPPORT_INTEGRAL_CASES = list(dict.fromkeys(
    [
        (g, R)
        for i, g in enumerate((Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus))
        for R in np.random.default_rng([28, i]).uniform(0.05, 3.0 if i == 0 else 20.0, 6).tolist()
    ]
    + [(g, R) for g in EQUATION_KERNELS for R in CLOSED_END_SUPPORTS]
    + [(Symmetry.O, 1e-10), (Symmetry.O, 5e6), (Symmetry.Sp, 0.3), (Symmetry.SOplus, 50.3)]
))


@pytest.mark.parametrize("g,R", SUPPORT_INTEGRAL_CASES)
def test_support_integral_is_the_window_integral_bitwise(g, R):
    # the fold of the whole-cell integrals kept in h's table is the integral
    # over the window [-R, R], one cell or more than 200 cuts alike
    h, _ = reconstruct(g, R)
    support = h._antiderivatives[1]
    assert type(support) is float
    assert float.hex(support) == float.hex(h.integral(-R, R))
    assert float.hex(support) == float.hex(integral_all_pieces(h, -R, R))


def test_exact_integral_matches_quadrature():
    ctx, lam = _solved(Symmetry.Sp, 0.75)
    h = assemble(ctx, lam)
    for lo, hi in [(-0.75, 0.75), (0.1, 0.6), (-0.3, 0.71), (0.6, 1.4)]:
        quad, _ = scipy.integrate.quad(
            h, lo, hi, points=[float(b) for b in h.breakpoints() if lo < b < hi],
            limit=200, epsabs=1e-12,
        )
        assert h.integral(lo, hi) == pytest.approx(quad, abs=1e-10)


BITWISE_CASES = [
    (Symmetry.SOminus, 5.2),
    (Symmetry.Sp, 0.75),
    (Symmetry.SOplus, 3.7),
    (Symmetry.O, 0.9),  # one cell, with a constant term
    (Symmetry.Sp, 8.7),  # 35 cells
]


@pytest.mark.parametrize("g,R", BITWISE_CASES)
def test_table_driven_evaluation_matches_oracle_bitwise(g, R):
    h, _ = reconstruct(g, R)
    us = np.linspace(-R - 0.5, R + 0.5, 397)
    for u in us:
        u = float(u)
        assert h.integral(u - 1, u + 1) == integral_all_pieces(h, u - 1, u + 1)
        assert h.integral(u, R + 1) == integral_all_pieces(h, u, R + 1)
    # windows that end on cell edges, cover whole cells or sit inside one
    # cell, and the convolution windows (-1-t, 1-t) with t on the breakpoints
    brks = [float(b) for b in h.breakpoints()]
    mids = [0.5 * (lo + hi) for lo, hi in zip(brks, brks[1:])]
    windows = [(b, c) for b in brks for c in brks if b != c]
    windows += [w for b in brks for m in mids for w in ((b, m), (m, b))]
    windows += [(m - 0.01, m + 0.01) for m in mids]
    windows += [(-1 - t, 1 - t) for t in brks + mids]
    for lo, hi in windows:
        assert h.integral(lo, hi) == integral_all_pieces(h, lo, hi), (lo, hi)
    assert np.array_equal(h(us), np.array([h(float(u)) for u in us]))
    for u in [float(u) for u in us] + [float(b) for b in h.breakpoints()]:
        i = piece_index_linear_scan(h, u)
        terms = cell_terms(h, i) if i >= 0 else ()
        value = slope = 0.0  # added left to right, as the builtin sum does before 3.12
        for a, f, p in terms:
            value += a * math.sin(f * u + p)
            slope += a * f * math.cos(f * u + p)
        assert h(u) == value
        assert h.derivative(u) == slope


def test_scalar_calls_return_python_floats():
    h, _ = reconstruct(Symmetry.Sp, 5.349)
    R = h.R
    for u in np.linspace(-R - 0.5, R + 0.5, 47).tolist():
        for x in (u, np.float64(u)):
            assert type(h(x)) is float and type(h.derivative(x)) is float
            assert type(h.integral(x, R)) is float and type(h.integral(-R, x)) is float
    for call in (h, h.derivative):
        with pytest.raises(TypeError):
            call([0.0, 0.1])


@pytest.mark.parametrize("g,R", [(Symmetry.Sp, 3.3), (Symmetry.SOminus, 1.2), (Symmetry.O, 0.9)])
def test_evaluators_on_empty_inputs(g, R):
    h, _ = reconstruct(g, R)
    empty = np.array([])
    for got in (h(empty), h.derivative(empty), h._integrals(empty, empty)):
        assert got.shape == (0,) and got.dtype == np.float64
    assert h(np.empty((0, 3))).shape == (0, 3)


def _bits_equal(got, want) -> bool:
    """Equal values and equal signs, so +0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("g,R", BITWISE_CASES)
def test_array_evaluators_match_scalar_bitwise(g, R):
    h, _ = reconstruct(g, R)
    brks = [float(b) for b in h.breakpoints()]
    mids = [0.5 * (lo + hi) for lo, hi in zip(brks, brks[1:])]
    # off the support on both sides, on every breakpoint and inside cells
    edges = [-R - 1e-300, R + 1e-12]
    us = np.array(list(np.linspace(-R - 1.5, R + 1.5, 301)) + brks + mids + edges)
    assert _bits_equal(h(us), [value_by_terms(h, float(u)) for u in us])
    assert _bits_equal(h.derivative(us), [slope_by_terms(h, float(u)) for u in us])
    assert _bits_equal(h(us.reshape(-1, 1)).ravel(), h(us))
    # reversed, empty, whole-cell and cell-edge windows, windows off the
    # support, and the convolution windows (-1 - t, 1 - t)
    windows = [(b, c) for b in brks for c in brks]
    windows += [w for b in brks for m in mids for w in ((b, m), (m, b))]
    windows += [(-1 - t, 1 - t) for t in list(us)]
    windows += [(u, R + 1) for u in us] + [(u - 1, R - 1) for u in us]
    windows += [(R + 1, R + 2), (-R - 2, -R - 1), (R + 2, -R - 2)]
    lo, hi = np.array(windows).T
    assert _bits_equal(
        h._integrals(lo, hi), [integral_all_pieces(h, float(a), float(b)) for a, b in windows]
    )


# ---------------------------------------------------------------------------
# Residual suite
# ---------------------------------------------------------------------------

def test_residuals_equation_branch():
    for g, R in EQUATION_CASES:
        ctx, lam = _solved(g, R)
        h = assemble(ctx, lam)
        report = residuals(h, ctx)
        assert report.delayed_ode <= 1e-7
        assert report.volterra <= 1e-7
        assert report.compatibility <= 1e-7
        assert report.rayleigh_gap <= 1e-7
        assert report.int_tail_gap <= 1e-9
        assert report.int_full_gap <= 1e-9


# Closed-end supports, 2R an integer: measured max_defect <= 2.6e-12, apart
# from SO- at R = 7 (4.7e-10), where SO-'s lam-mode coefficient loses about
# eps/lam^3 to cancellation, as at the neighbouring supports.
CLOSED_END_CASES = [(g, R, 1e-11) for g in EQUATION_KERNELS for R in (1.0, 1.5, 2.0)] + [
    (Symmetry.Sp, 7.0, 1e-11),
    (Symmetry.SOplus, 7.0, 1e-11),
    (Symmetry.SOminus, 7.0, 1e-9),
]


@pytest.mark.parametrize("g,R,gate", CLOSED_END_CASES)
def test_residuals_at_closed_end_supports(g, R, gate):
    h, res = reconstruct(g, R)
    assert res.support == h.R == R
    assert np.diff(h.breakpoints()).min() > 0  # the empty cells are dropped
    assert residuals(h).max_defect() <= gate


@pytest.mark.parametrize("g,R", [(Symmetry.SOminus, 1.2), (Symmetry.O, 0.9)])
def test_residuals_repeatable_and_keep_no_state_on_h(g, R):
    h, _ = reconstruct(g, R)
    h(0.0), h.integral(-R, R)  # fill the evaluation tables
    attrs = set(vars(h))
    first = residuals(h)
    assert set(vars(h)) == attrs
    assert residuals(h) == first
    target = h.lam**2 / (4 * math.pi**2)
    assert abs(quotient_quadrature(h) - target) / target == first.rayleigh_gap


@pytest.mark.parametrize("g,R", [(Symmetry.SOplus, 5.2), (Symmetry.Sp, 0.3), (Symmetry.SOminus, 20.0)])
def test_one_evaluator_call_per_kind(g, R, monkeypatch):
    # residuals evaluates h once and h' once, at its own samples and at the
    # quotient's nodes, and takes the quotient's windows and the Volterra
    # windows in one call each; the quotient alone makes one call of each
    calls = []
    for name in ("_values", "_slopes", "_integrals"):
        method = getattr(PiecewiseTestFunction, name)
        counted = lambda self, *args, name=name, method=method: calls.append(name) or method(self, *args)
        monkeypatch.setattr(PiecewiseTestFunction, name, counted)
    h, _ = reconstruct(g, R)
    residuals(h)
    assert sorted(calls) == ["_integrals", "_integrals", "_slopes", "_values"]
    calls.clear()
    quotient_quadrature(h)
    assert sorted(calls) == ["_integrals", "_slopes", "_values"]


@pytest.mark.parametrize("g,R", [(Symmetry.SOplus, 5.2), (Symmetry.Sp, 0.75), (Symmetry.SOminus, 1.2)])
def test_residual_report_fields_are_python_floats(g, R):
    h, _ = reconstruct(g, R)
    report = residuals(h)
    assert all(type(v) is float for v in vars(report).values())
    assert "np.float64" not in repr(report)


@pytest.mark.parametrize("at", range(6))
def test_max_defect_keeps_a_nan(at):
    # max() alone returns 1e-13 for a NaN that is not the first field, and
    # the verify case would pass
    fields = [1e-13, 2e-14, 1e-14, 1e-13, 0.0, 0.0]
    fields[at] = math.nan
    defect = ResidualReport(*fields).max_defect()
    assert math.isnan(defect)
    assert _case("residuals", 0.0, defect, RESIDUAL_TOL)["pass"] is False


def test_max_defect_of_finite_fields_is_their_max():
    fields = (1e-13, 2e-14, 1e-14, 3e-13, 0.0, 0.0)
    assert float.hex(ResidualReport(*fields).max_defect()) == float.hex(max(fields))
    assert ResidualReport(0.0, 0.0, 0.0, 0.0, 0.0, math.inf).max_defect() == math.inf


def test_residuals_small_support_branch():
    for g, R in SMALL_CASES:
        h, _ = reconstruct(g, R)
        report = residuals(h, None)
        assert report.max_defect() <= 1e-7


@pytest.mark.parametrize("R", [1e-4, 1e-5, 1e-7, 1e-12])
@pytest.mark.parametrize("g", [Symmetry.O, Symmetry.Sp])
def test_residuals_sample_inside_a_tiny_support(g, R):
    # fixed margins of 1e-4 and 1e-6 would sample h off its support here
    h, _ = reconstruct(g, R)
    report = residuals(h)
    assert report.delayed_ode <= 1e-12
    assert report.volterra <= 1e-12
    assert report.max_defect() <= 1e-7


def test_quotient_matches_solved_minimum_and_oracle():
    for g, R in [(Symmetry.SOplus, 0.75), (Symmetry.SOminus, 1.2), (Symmetry.O, 0.6)]:
        h, res = reconstruct(g, R)
        target = res.m_tilde
        assert quotient_quadrature(h) == pytest.approx(target, rel=1e-6)
        assert math.sqrt(quotient_quadrature(h)) == pytest.approx(
            rayleigh.sqrt_quotient(g, R, 400), abs=5e-3
        )


REFERENCE_CASES = (
    list(RESIDUAL_PAIRS)
    + BITWISE_CASES
    + [(g, R) for g in (Symmetry.O, Symmetry.Sp) for R in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
)


@pytest.mark.parametrize("g,R", REFERENCE_CASES)
def test_residuals_equal_the_scalar_reference(g, R):
    h, _ = reconstruct(g, R)
    assert residuals(h) == residuals_scalar(h)
    value = lambda u: value_by_terms(h, u)
    slope = lambda u: slope_by_terms(h, u)
    assert quotient_quadrature(h) == quotient_quadrature_scalar(h, value, slope)


@pytest.mark.parametrize("seed", range(40))
def test_residuals_equal_the_scalar_reference_at_seeded_supports(seed):
    rng = np.random.default_rng([22, seed])
    g = (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)[seed % 4]
    R = float(rng.uniform(0.2, 12.0))
    h, _ = reconstruct(g, R)
    assert residuals(h) == residuals_scalar(h)


def test_no_quadpack_call_on_an_optimizer_round(monkeypatch):
    # the residuals of a benchmark optimizer round, of the verify residual
    # supports and of two supports past 200 cut points call no QUADPACK
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    ops = workloads.Optimizer().make_round(1, 0)
    done = 0
    for op in ops:
        try:
            workloads.Optimizer.call(*op.args)
        except solver.RootScanError:
            continue
        done += 1
    assert done >= len(ops) - len(workloads.Optimizer.pinned)
    for g, R in [*RESIDUAL_PAIRS, (Symmetry.SOplus, 50.3), (Symmetry.Sp, 60.3)]:
        residuals(reconstruct(g, R)[0])


@pytest.mark.parametrize("g,R,gate", [(Symmetry.SOplus, 50.3, 1e-10), (Symmetry.Sp, 60.3, 2e-9)])
def test_residuals_past_200_breakpoints_within_gate(g, R, gate):
    h, _ = reconstruct(g, R)
    assert len(testfunction._cuts(h)) >= 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = residuals(h)
    assert report.max_defect() <= gate


# ---------------------------------------------------------------------------
# The quotient's Gauss-Legendre rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(16))
def test_quotient_agrees_with_quadpack_at_seeded_supports(seed):
    # QUADPACK at 1e-11 on the same cuts; the largest gap measured over 48
    # such supports was 5.2e-14 (Sp R = 7.5)
    rng = np.random.default_rng([26, seed])
    g = (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)[seed % 4]
    R = float(rng.uniform(0.05, 3.0 if g is Symmetry.O else 12.0))
    h, _ = reconstruct(g, R)
    want = quotient_quadpack(h)
    assert abs(quotient_quadrature(h) - want) <= 1e-13 * want


# Measured gaps between the 12- and 24-point rules: at most 2.4e-15 (O
# R = 1000), and 3.0e-13 at O R = 5e6, the largest O support solved.
DOUBLED_RULE_CASES = [
    (Symmetry.O, 1e-10, 4e-15),
    (Symmetry.O, 1e-4, 4e-15),
    (Symmetry.O, 1000.0, 4e-15),
    (Symmetry.O, 5e6, 5e-13),
    (Symmetry.Sp, 1e-6, 4e-15),
    (Symmetry.Sp, 1.0, 4e-15),
    (Symmetry.SOminus, 0.49999, 4e-15),
    (Symmetry.SOplus, 0.5000001, 4e-15),
    (Symmetry.SOplus, 7.0, 4e-15),
]


@pytest.mark.parametrize("g,R,gate", DOUBLED_RULE_CASES)
def test_quotient_rule_agrees_with_twice_its_nodes(g, R, gate, monkeypatch):
    h, _ = reconstruct(g, R)
    got = quotient_quadrature(h)
    x, w = np.polynomial.legendre.leggauss(2 * testfunction._GAUSS_POINTS)
    monkeypatch.setattr(testfunction, "_GAUSS_X", x)
    monkeypatch.setattr(testfunction, "_GAUSS_W", w)
    want = quotient_quadrature(h)
    assert abs(got - want) <= gate * want
