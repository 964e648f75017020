import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowzero import solver
from lowzero.bounds import (
    family_height_bound,
    height_bound,
    height_bound_result,
    orthogonal_asymptotic,
)
from lowzero.solver import minimal_quotient, tan_ratio_inverse
from lowzero.symmetry import FamilySpec, Symmetry, family_params

ALL = (Symmetry.Sp, Symmetry.U, Symmetry.SOplus, Symmetry.O, Symmetry.SOminus)


def test_unitary_instance():
    assert height_bound(Symmetry.U, 2.0) == pytest.approx(0.25, rel=1e-14)


def test_orthogonal_instance():
    value = height_bound(Symmetry.O, 2.0)
    assert value == pytest.approx(tan_ratio_inverse(2.0), rel=1e-12)
    assert value < 0.19


def test_even_orthogonal_instance():
    # SO+ at full admissible support: the classic 0.22 upper bound
    value = height_bound(Symmetry.SOplus, 2.0)
    assert value <= 0.22
    assert abs(value - 0.22) < 0.02


def test_symplectic_instance():
    value = height_bound(Symmetry.Sp, 2.0)
    assert value <= 0.39
    assert abs(value - 0.39) < 0.02


def test_branches_recorded():
    assert height_bound_result(Symmetry.U, 2.0).branch == "unitary_exact"
    assert height_bound_result(Symmetry.O, 2.0).branch == "small_support"
    assert height_bound_result(Symmetry.Sp, 0.8).branch == "small_support"
    res = height_bound_result(Symmetry.Sp, 2.0)
    assert res.branch == "transcendental"
    assert res.lam is not None


def test_small_support_formula_below_unit_support():
    for g in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        for nu_max in (0.4, 0.8, 1.0):
            expected = (
                1 / (2 * nu_max)
                * 4
                * tan_ratio_inverse(1 + float(g.corrective_weight) * 2 / nu_max)
            )
            assert height_bound(g, nu_max) == pytest.approx(expected, rel=1e-12)


def test_base_family_bound():
    assert family_height_bound(FamilySpec(r=1, weight_k=2)) == pytest.approx(
        tan_ratio_inverse(2.0), rel=1e-12
    )


def test_even_power_family_bound():
    f = FamilySpec(r=2, weight_k=4)
    nu = float(family_params(f).nu_max)
    expected = (2 / nu) * tan_ratio_inverse(1 - 2 / nu)
    assert family_height_bound(f) == pytest.approx(expected, rel=1e-12)


def test_signed_power_family_bound():
    f = FamilySpec(r=3, restriction="plus", weight_k=4)
    params = family_params(f)
    nu = float(params.nu_max)
    assert nu == min(
        float(family_params(FamilySpec(r=3, weight_k=4)).nu_max), 3 / 12
    )
    expected = (2 / nu) * tan_ratio_inverse(1 + 2 / nu)
    assert family_height_bound(f) == pytest.approx(expected, rel=1e-12)


def test_minus_family_routes_through_effective_symmetry():
    f = FamilySpec(r=3, restriction="minus", weight_k=4)
    params = family_params(f)
    assert params.w_star is Symmetry.Sp
    nu = float(params.nu_max)
    expected = (2 / nu) * tan_ratio_inverse(1 - 2 / nu)
    assert family_height_bound(f) == pytest.approx(expected, rel=1e-12)


def test_high_power_families_land_in_small_support():
    for r in range(2, 7):
        nu = float(family_params(FamilySpec(r=r, weight_k=4)).nu_max)
        assert nu <= 0.5


def test_asymptotic_expansion_quality():
    gaps = []
    for nu_max in (10.0, 100.0, 1000.0):
        exact, expansion = orthogonal_asymptotic(nu_max)
        assert exact > 0 and expansion > 0
        gaps.append(abs(exact - expansion) / exact)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] <= 1e-3


def test_asymptotic_small_edge():
    exact, expansion = orthogonal_asymptotic(4.0)
    assert exact > 0 and expansion > 0
    with pytest.raises(ValueError):
        orthogonal_asymptotic(3.9)


def test_asymptotic_keeps_to_the_o_support_limit():
    assert orthogonal_asymptotic(4.0)[0] == height_bound(Symmetry.O, 4.0)
    with pytest.raises(ValueError, match="the largest support the O kernel is solved at"):
        orthogonal_asymptotic(1e17)


def test_curve_ordering():
    grid = np.linspace(0.25, 2.95, 10)
    for nu_max in grid:
        nu_max = float(nu_max)
        values = [height_bound(g, nu_max) for g in ALL]
        # top-to-bottom: Sp, U, SO+, O, SO- (ties allowed where formulas merge)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(nu=st.floats(min_value=2.95, max_value=40.5, exclude_min=True))
@example(nu=3.0)
@example(nu=4.0)
@example(nu=4.00003)
@example(nu=13.898)
@example(nu=20.0)
@example(nu=40.0)
@example(nu=40.5)
def test_curve_ordering_past_the_grid(nu):
    # Sp > U > SO+ > O > SO- past test_curve_ordering's grid, up to 40.5
    # because SO- raises above 40.74 (ROADMAP item 2A); over 407 values of
    # nu the closest two kernels were 9.5e-5 apart
    values = [height_bound(g, nu) for g in ALL]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_curves_strictly_decreasing():
    grid = np.linspace(0.25, 2.95, 10)
    for g in ALL:
        values = [height_bound(g, float(nu)) for nu in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# The limit sample
# ---------------------------------------------------------------------------

EQUATION_KERNELS = (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)
# past nu = 1, with samples on both branches just above 1 and on both sides
# of a cell edge (2R an integer) near nu = 4 and 9
GUARD_NUS = np.linspace(1.01, 30.0, 25).tolist() + [1.00003, 4.00003, 9.000025, 13.898]


@pytest.fixture
def fresh_contexts():
    solver._build_context.cache_clear()
    solver.solve.cache_clear()
    yield
    solver._build_context.cache_clear()
    solver.solve.cache_clear()


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_limit_guard_matches_two_solve_reference(g, fresh_contexts):
    # the bound is one solve at nu/2 - 1e-5, bit for bit, and warns of nothing
    for nu in GUARD_NUS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = height_bound_result(g, nu)
            solver.solve.cache_clear()  # an independent solve, not the kept root
            solver._build_context.cache_clear()
            expected = minimal_quotient(g, nu / 2.0 - 1e-5)
        assert repr(result) == repr(expected)
        assert caught == []


def test_equation_calls_per_bound(monkeypatch, fresh_contexts):
    calls = []
    real_equation = solver.spectral_equation

    def counting(ctx, lam, _sums=None):
        calls.append(ctx.R)
        return real_equation(ctx, lam)

    monkeypatch.setattr(solver, "spectral_equation", counting)
    count = 0
    for g in EQUATION_KERNELS:
        for nu in GUARD_NUS:
            height_bound_result(g, nu)
            count += 1
    assert len(calls) <= 3.5 * count  # 3.29 measured; 4.92 with a second limit sample


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_limit_sample_is_within_a_step_of_the_next(g):
    # The bound falls as R rises to nu/2, and the sample 1e-5 further below
    # lies above the one printed by at most 9.7e-6 (measured over 12,000
    # seeded nu; the largest gaps are at nu just above 1).
    rng = np.random.default_rng(21)
    for nu in [1.0001] + rng.uniform(1.0001, 40.0, 150).tolist():
        first = minimal_quotient(g, nu / 2.0 - 1e-5).bound
        second = minimal_quotient(g, nu / 2.0 - 2e-5).bound
        assert 0 < second - first <= 1.2e-5, nu
