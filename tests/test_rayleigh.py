import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lowzero import rayleigh
from lowzero.rayleigh import QuadraticForms, assemble_forms, minimize, sqrt_quotient
from lowzero.solver import minimal_quotient, small_support_minimum
from lowzero.symmetry import Symmetry
from lowzero.verification import oracle_grid
from rayleigh_oracles import (
    assemble_forms_meshgrid,
    cos_conv_integral,
    minimize_cholesky,
    sin_conv_integral,
)

NON_UNITARY = (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)


# ---------------------------------------------------------------------------
# Quadrature oracles for the convolution coefficients: integrate the mode
# convolution directly, using only elementary antiderivatives of a single
# cosine/sine for the inner integral.
# ---------------------------------------------------------------------------

def _inner_cos(n, R, lo, hi):
    # integral of cos(pi*n*s/(2R)) over [lo, hi] clipped to [-R, R]
    lo, hi = max(lo, -R), min(hi, R)
    if hi <= lo:
        return 0.0
    a = math.pi * n / (2 * R)
    return (math.sin(a * hi) - math.sin(a * lo)) / a


def _inner_sin(n, R, lo, hi):
    lo, hi = max(lo, -R), min(hi, R)
    if hi <= lo:
        return 0.0
    a = math.pi * n / (2 * R)
    return (math.cos(a * lo) - math.cos(a * hi)) / a


def oracle_cos_conv(m, n, R):
    f = lambda t: math.cos(math.pi * m * t / (2 * R)) * _inner_cos(n, R, -1 - t, 1 - t)
    val, _ = scipy.integrate.quad(
        f, -R, R, points=[-1 + R - 1e-12, 1 - R + 1e-12] if R < 1 else None,
        limit=300, epsabs=1e-10,
    )
    return val


def oracle_sin_conv(m, n, R):
    f = lambda t: math.sin(math.pi * m * t / (2 * R)) * _inner_sin(n, R, -1 - t, 1 - t)
    val, _ = scipy.integrate.quad(
        f, -R, R, points=[-1 + R - 1e-12, 1 - R + 1e-12] if R < 1 else None,
        limit=300, epsabs=1e-10,
    )
    return val


def test_mode_coefficient_printed_value():
    R = 0.75
    expected = (
        2 * R * (2 * R - 1) / math.pi * math.sin(math.pi / (2 * R))
        - 8 * R * R / math.pi**2 * math.cos(math.pi / (2 * R))
        + 8 * R * R / math.pi**2
    )
    assert cos_conv_integral(1, 1, R) == pytest.approx(expected, rel=1e-15)
    assert sin_conv_integral(1, 1, R) == pytest.approx(
        -2 * R * (2 * R - 1) / math.pi * math.sin(math.pi / (2 * R)), rel=1e-15
    )


def test_mode_coefficients_symmetric():
    for (m, n, R) in [(1, 3, 0.75), (1, 5, 0.8), (3, 5, 0.9), (5, 7, 0.61)]:
        assert cos_conv_integral(m, n, R) == pytest.approx(
            cos_conv_integral(n, m, R), rel=1e-14, abs=1e-16
        )
        assert sin_conv_integral(m, n, R) == pytest.approx(
            sin_conv_integral(n, m, R), rel=1e-14, abs=1e-16
        )


def test_mode_coefficients_vs_quadrature():
    for (m, n, R) in [(1, 1, 0.75), (3, 3, 0.6), (1, 3, 0.75), (3, 5, 0.9), (1, 7, 0.55)]:
        assert cos_conv_integral(m, n, R) == pytest.approx(
            oracle_cos_conv(m, n, R), abs=1e-8
        )
        assert sin_conv_integral(m, n, R) == pytest.approx(
            oracle_sin_conv(m, n, R), abs=1e-8
        )


def test_mode_coefficients_reject_small_support():
    with pytest.raises(ValueError):
        cos_conv_integral(1, 1, 0.5)
    with pytest.raises(ValueError):
        sin_conv_integral(2, 1, 0.75)


def test_forms_unitary_is_diagonal():
    forms = assemble_forms(Symmetry.U, 0.3, 5)
    assert np.allclose(forms.numerator, np.diag([1.0, 9.0, 25.0, 49.0, 81.0]))
    assert np.allclose(forms.denominator, np.eye(5))


def test_forms_small_support_rank_one():
    forms = assemble_forms(Symmetry.O, 0.25, 2)
    v = np.array([1.0, -1.0 / 3.0])
    expected = np.eye(2) + (8 * 0.25 / math.pi**2) * np.outer(v, v)
    assert np.allclose(forms.denominator, expected, rtol=1e-14)
    assert np.allclose(forms.numerator, np.diag([1.0, 9.0]))


def test_forms_symmetric_and_positive_definite():
    for g in NON_UNITARY:
        for R in (0.3, 0.8, 1.2):
            forms = assemble_forms(g, R, 40)
            assert np.array_equal(forms.numerator, forms.numerator.T)
            assert np.array_equal(forms.denominator, forms.denominator.T)
            np.linalg.cholesky(forms.denominator)  # raises if not pos. def.


def test_forms_match_quadrature_entries_past_half_support():
    # One spot entry of each matrix assembled from the closed forms.
    g, R, N = Symmetry.Sp, 0.8, 3
    forms = assemble_forms(g, R, N)
    idx = [1, 3, 5]
    i, j = 0, 2
    m, n = idx[i], idx[j]
    lam_ij = cos_conv_integral(m, n, R)
    mu_ij = sin_conv_integral(m, n, R)
    delta = g.delta
    assert forms.denominator[i, j] == pytest.approx(delta / (2 * R) * lam_ij, rel=1e-12)
    assert forms.numerator[i, j] == pytest.approx(
        -delta / (2 * R) * m * n * mu_ij, rel=1e-12
    )


def _same_bits(x, y):
    # np.array_equal, and the same sign on every zero as well
    return np.array_equal(x, y) and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("g", list(Symmetry), ids=lambda g: g.value)
def test_forms_match_meshgrid_reference_bit_for_bit(g):
    # both sides of half support, half support itself and just above it, and
    # supports at or near an integer 2R, where cosines of two modes can tie
    supports = (0.17, 0.4999, 0.5, 0.5 + 1e-9, 0.75, 1.2, 1.5, 2.0, 1.49995, 2.9999, 7.3)
    for R in supports:
        for N in (1, 2, 7, 64, 400):
            forms = assemble_forms(g, R, N)
            reference = assemble_forms_meshgrid(g, R, N)
            assert _same_bits(forms.numerator, reference.numerator), (R, N)
            assert _same_bits(forms.denominator, reference.denominator), (R, N)
            # exactly symmetric, so the transposes handed to LAPACK are the same
            for form in (forms.numerator, forms.denominator):
                assert _same_bits(form, np.ascontiguousarray(form.T)), (R, N)


@pytest.mark.parametrize("R", [0.3, 2.7])
@pytest.mark.parametrize("func", [assemble_forms, minimize], ids=lambda f: f.__name__)
def test_oracle_peak_memory_is_three_forms(func, R):
    # three N x N buffers, two of them the returned forms; minimize's
    # Cholesky copy of A takes the place of the third once it is freed
    N = 1000
    tracemalloc.start()
    try:
        func(Symmetry.SOminus, R, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * N * N * 8, peak / (N * N * 8)


@pytest.mark.parametrize("R", [0.3, 0.5, 2.7])
@pytest.mark.parametrize("g", list(Symmetry), ids=lambda g: g.value)
def test_forms_are_separate_contiguous_symmetric_arrays(g, R):
    forms = assemble_forms(g, R, 50)
    A, B = forms.numerator, forms.denominator
    for form in (A, B):
        assert form.flags.c_contiguous and form.flags.owndata
        assert _same_bits(form, np.ascontiguousarray(form.T))
    assert not np.shares_memory(A, B)


def test_minimize_leaves_its_forms_intact(monkeypatch):
    real = rayleigh.assemble_forms
    seen = []

    def keep(g, R, N):
        forms = real(g, R, N)
        seen.append((forms, forms.numerator.copy(), forms.denominator.copy()))
        return forms

    monkeypatch.setattr(rayleigh, "assemble_forms", keep)
    minimize(Symmetry.SOminus, 2.7, 200)
    [(forms, A, B)] = seen
    assert _same_bits(forms.numerator, A)
    assert _same_bits(forms.denominator, B)


def test_minimize_matches_reference_eigensolve_on_oracle_grid():
    # LAPACK's generalized eigensolve of the gridded reference forms agrees to
    # its own accuracy: 7.6e-11 at worst on one BLAS thread, 1.1e-10 on two.
    # Unlike it, the oracle never lies below the closed-form minimum it bounds
    # from above.
    for g in NON_UNITARY:
        for R in oracle_grid(12):
            reference = assemble_forms_meshgrid(g, R, 400)
            expected = scipy.linalg.eigh(
                reference.numerator,
                reference.denominator,
                eigvals_only=True,
                subset_by_index=(0, 0),
            )[0]
            got = minimize(g, R, 400)
            assert abs(got - expected) <= 2e-10 * expected, (g, R)
            assert sqrt_quotient(g, R, 400) >= minimal_quotient(g, R).bound, (g, R)


DIAGONAL_NUMERATOR_CASES = [(g, R) for g in Symmetry for R in (0.17, 0.3, 0.5)] + [
    (g, R) for g in (Symmetry.O, Symmetry.U) for R in (0.75, 2.7, 7.3, 20.0)
]


@pytest.mark.parametrize("g,R", DIAGONAL_NUMERATOR_CASES)
def test_diagonal_numerator_minimize_matches_the_cholesky_solves_bitwise(g, R, monkeypatch):
    modes = (1, 7, 64, 400)
    expected = [minimize_cholesky(g, R, N).hex() for N in modes]

    def no_factor(*args):
        raise AssertionError("the diagonal numerator was factored")

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", no_factor)
    assert [minimize(g, R, N).hex() for N in modes] == expected


def test_numerator_not_positive_definite_raises_naming_the_case(monkeypatch):
    g, R, N = Symmetry.SOminus, 0.8, 30
    real = rayleigh.assemble_forms

    def indefinite_numerator(g, R, N):
        forms = real(g, R, N)
        forms.numerator[N - 1, N - 1] = -1.0
        return forms

    monkeypatch.setattr(rayleigh, "assemble_forms", indefinite_numerator)
    message = f"Cholesky factorization of the numerator failed for {g} at R={R}, N={N} "
    with pytest.raises(RuntimeError, match=re.escape(message)):
        minimize(g, R, N)


def test_unsettled_iteration_raises_naming_the_case(monkeypatch):
    g, R, N = Symmetry.SOminus, 0.8, 30
    monkeypatch.setattr(rayleigh, "_MAX_STEPS", 2)  # it settles after 8 solves here
    message = f"inverse iteration did not settle for {g} at R={R}, N={N} "
    with pytest.raises(RuntimeError, match=re.escape(message)):
        minimize(g, R, N)


def _mpmath_smallest_eigenvalue(forms: QuadraticForms) -> mpmath.mpf:
    """Smallest generalized eigenvalue of the float forms at 30 digits: with
    B = L L^T, the smallest eigenvalue of L^-1 A L^-T."""
    with mpmath.workdps(30):
        L_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(forms.denominator.tolist())))
        C = L_inv * mpmath.matrix(forms.numerator.tolist()) * L_inv.T
        return min(mpmath.eigsy((C + C.T) / 2, eigvals_only=True))


@pytest.mark.parametrize(
    "g, R",
    [(Symmetry.O, 0.17), (Symmetry.Sp, 0.35), (Symmetry.SOminus, 0.8), (Symmetry.Sp, 0.93)],
    ids=str,
)
def test_minimize_matches_mpmath_eigenvalue_of_the_float_forms(g, R):
    N = 32
    reference = _mpmath_smallest_eigenvalue(assemble_forms(g, R, N))
    assert abs(float((minimize(g, R, N) - reference) / reference)) <= 1e-14


@pytest.mark.parametrize(
    "g, gaps",
    [
        (Symmetry.SOminus, {1500: 2.3e-9, 3000: 2.7e-10}),
        (Symmetry.Sp, {1500: 1.2e-9, 3000: 1.4e-10}),
    ],
    ids=["SO-", "Sp"],
)
def test_large_support_oracle_bounds_the_closed_form_and_refines(g, gaps):
    # just inside R = 15, where a dense eigensolve put SO-'s oracle 3.3e-7
    # below the closed form at N = 3000
    R = 14.99999
    closed = minimal_quotient(g, R).bound
    values = []
    for N, gap in gaps.items():
        value = sqrt_quotient(g, R, N)
        assert gap / 2 <= (value - closed) / closed <= 2 * gap, (N, value, closed)
        values.append(value)
    assert values == sorted(values, reverse=True)


def test_minimize_unitary_is_one():
    for R in (0.2, 0.5, 0.9, 1.4):
        for N in (5, 60):
            value = minimize(Symmetry.U, R, N)
            assert type(value) is float  # printed as 1.0, not np.float64(1.0)
            assert value == pytest.approx(1.0, abs=1e-12)


def test_minimize_monotone_refinement():
    for g, R in [(Symmetry.O, 0.25), (Symmetry.Sp, 0.3), (Symmetry.SOminus, 0.8)]:
        values = [minimize(g, R, N) for N in (25, 50, 100, 200, 400)]
        assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))


def test_minimize_orthogonal_window():
    value = minimize(Symmetry.O, 0.25, 200)
    assert 1 / 1.25 < value < 1 / (1 + 8 * 0.25 / math.pi**2)


def test_minimize_symplectic_window():
    value = minimize(Symmetry.Sp, 0.3, 200)
    assert 1.0 < value < 1 / (1 - 8 * 0.3 / math.pi**2)


def test_sandwich_grids():
    for g in (Symmetry.O, Symmetry.SOplus, Symmetry.SOminus):
        for R in np.linspace(0.05, 0.5, 8):
            R = float(R)
            value = minimize(g, R, 200)
            assert 1 / (1 + R) < value <= 1 / (1 + 8 * R / math.pi**2) + 1e-12
    for R in np.linspace(0.05, 0.49, 8):
        R = float(R)
        value = minimize(Symmetry.Sp, R, 200)
        assert 1.0 < value < 1 / (1 - 8 * R / math.pi**2)


def test_small_support_closed_form_agreement():
    for g in NON_UNITARY:
        for R in (0.2, 0.35, 0.49):
            closed = 4 * small_support_minimum(g, R).bound * R  # sqrt of scaled min
            estimate = math.sqrt(minimize(g, R, 400))
            assert abs(estimate - closed) <= 5e-3


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    t=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).filter(
        lambda v: abs(v) > 1e-3
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quotient_scale_invariance(t, seed):
    forms = assemble_forms(Symmetry.SOminus, 0.8, 12)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(12)

    def quotient(vec):
        return (vec @ forms.numerator @ vec) / (vec @ forms.denominator @ vec)

    assert quotient(t * c) == pytest.approx(quotient(c), rel=1e-10)


def test_normalized_minimum_strictly_decreasing_in_support():
    for g in NON_UNITARY:
        grid = [r for r in np.linspace(0.12, 0.94, 20) if abs(r - 0.5) > 0.02]
        values = [minimize(g, float(R), 200) / (16 * R * R) for R in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_bad_arguments():
    with pytest.raises(ValueError):
        assemble_forms(Symmetry.O, -0.1, 5)
    with pytest.raises(ValueError):
        assemble_forms(Symmetry.O, 0.4, 0)
    for R in (math.nan, math.inf):
        with pytest.raises(ValueError):
            minimize(Symmetry.SOminus, R, 5)
