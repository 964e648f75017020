import math
import warnings

import numpy as np
import pytest

from bounds_oracles import height_bound_result_two_solves
from lowzero import bounds, solver
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


def test_curve_ordering():
    grid = np.linspace(0.25, 2.95, 10)
    for nu_max in grid:
        nu_max = float(nu_max)
        values = [height_bound(g, nu_max) for g in ALL]
        # top-to-bottom: Sp, U, SO+, O, SO- (ties allowed where formulas merge)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_curves_strictly_decreasing():
    grid = np.linspace(0.25, 2.95, 10)
    for g in ALL:
        values = [height_bound(g, float(nu)) for nu in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# The limit guard against its two-solve reference
# ---------------------------------------------------------------------------

EQUATION_KERNELS = (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)
# past nu = 1, with samples on both branches just above 1 and on both sides
# of a cell edge (2R an integer) near nu = 4 and 9
GUARD_NUS = np.linspace(1.01, 30.0, 25).tolist() + [1.00003, 4.00003, 9.000025, 13.898]


@pytest.fixture
def fresh_contexts():
    solver._build_context.cache_clear()
    yield
    solver._build_context.cache_clear()


def _with_warnings(fn, g, nu):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(g, nu)
    return result, caught


def _assert_matches_reference(g, nu):
    """Same result and warning texts as the two-solve reference; returns the
    warnings of ``height_bound_result``."""
    result, caught = _with_warnings(height_bound_result, g, nu)
    expected, expected_caught = _with_warnings(height_bound_result_two_solves, g, nu)
    assert repr(result) == repr(expected)
    assert [(w.category, str(w.message)) for w in caught] == [
        (w.category, str(w.message)) for w in expected_caught
    ]
    return caught


@pytest.mark.parametrize("g", EQUATION_KERNELS)
def test_limit_guard_matches_two_solve_reference(g, fresh_contexts):
    for nu in GUARD_NUS:
        assert _assert_matches_reference(g, nu) == []


def _samples(nu_max):
    nu = nu_max / 2.0
    return nu - bounds._LIMIT_OFFSET, nu - 2 * bounds._LIMIT_OFFSET


@pytest.mark.parametrize("which", [(0,), (1,), (0, 1)])
def test_limit_guard_nudges_like_reference(which, monkeypatch, fresh_contexts):
    g, nu_max = Symmetry.SOplus, 5.3
    degenerate = [_samples(nu_max)[k] for k in which]
    real_build = solver.build_context

    def build(g, R):
        if R in degenerate:
            raise solver.DegenerateRadiusError("rigged")
        return real_build(g, R)

    monkeypatch.setattr(solver, "build_context", build)
    caught = _assert_matches_reference(g, nu_max)
    assert [str(w.message) for w in caught] == [
        f"support {R} is numerically degenerate; using {R - 1e-6}" for R in degenerate
    ]
    # each nudge is reported at the line of height_bound_result that solved it
    assert all(w.filename == bounds.__file__ for w in caught)


def _root_at(c, excluded):
    """A stand-in equation whose smallest admissible root is c: it vanishes
    at every excluded frequency and changes sign at each, as the equation's
    regularized form does, and at c.  Evaluated one operation per element,
    so array and scalar calls agree."""

    def f(lam):
        out = np.asarray(lam, dtype=float) - c
        for e in excluded:
            out = out * (lam - e)
        return out

    return f


# offsets of the second sample's bound from the first's, as functions of
# the first: far below (half of it), just past the guard on either side,
# just inside it on either side
FORCED_OFFSETS = {
    "half": lambda b: -b / 2,
    "below": lambda b: -1.5e-4,
    "inside_below": lambda b: -0.5e-4,
    "inside_above": lambda b: 0.5e-4,
    "above": lambda b: 1.5e-4,
}


@pytest.mark.parametrize("offset", FORCED_OFFSETS)
@pytest.mark.parametrize("g,nu_max", [(Symmetry.Sp, 2.6), (Symmetry.SOminus, 7.3)])
def test_limit_guard_fires_like_reference(g, nu_max, offset, monkeypatch, fresh_contexts):
    first = minimal_quotient(g, _samples(nu_max)[0])
    second_support = _samples(nu_max)[1]
    excluded = solver.u_product_roots(int(math.floor(2 * second_support)) + 1)
    offset = FORCED_OFFSETS[offset](first.bound)
    c = 2 * math.pi * (first.bound + offset)  # the bound at root c is first.bound + offset
    assert min(abs(c - e) for e in excluded) > 1e-4
    real_equation = solver.spectral_equation

    def equation(ctx, lam, _sums=None):
        if ctx.R == second_support:
            return _root_at(c, excluded)(lam)
        return real_equation(ctx, lam)

    monkeypatch.setattr(solver, "spectral_equation", equation)
    caught = _assert_matches_reference(g, nu_max)
    fires = abs(offset) > bounds._SMOOTHNESS_GUARD
    assert len(caught) == fires
    if fires:
        assert str(caught[0].message).startswith(
            f"limit approximation for {g} at nu_max={nu_max} looks rough: {first.bound} vs "
        )


def test_limit_guard_at_the_edge_of_its_tolerance(monkeypatch, fresh_contexts):
    # roots whose bounds lie within 1e-12 of the guard's edge: no bracket
    # settles the verdict before the bisection reaches the root
    g, nu_max = Symmetry.SOplus, 3.4
    first = minimal_quotient(g, _samples(nu_max)[0])
    second_support = _samples(nu_max)[1]
    excluded = solver.u_product_roots(int(math.floor(2 * second_support)) + 1)
    real_equation = solver.spectral_equation
    fired = []
    for k in range(-5, 6):  # the root is bisected to 1e-12, 1.6e-13 in the bound
        c = 2 * math.pi * (first.bound - bounds._SMOOTHNESS_GUARD + k * 1e-13)
        monkeypatch.setattr(
            solver,
            "spectral_equation",
            lambda ctx, lam, _sums=None: _root_at(c, excluded)(lam)
            if ctx.R == second_support
            else real_equation(ctx, lam),
        )
        solver._build_context.cache_clear()  # the reference caches the root it finds
        fired.append(len(_assert_matches_reference(g, nu_max)))
    assert 0 < sum(fired) < len(fired)  # both verdicts occur


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
    assert len(calls) <= 5.5 * count  # 5.1 measured; 6.5 with two full solves
