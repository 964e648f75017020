import math
from fractions import Fraction

import pytest

from lowzero.symmetry import FamilySpec, Symmetry, family_params, sign_and_rho_max
from symmetry_oracles import density_fourier, unit_window

KERNEL_TABLE = {
    Symmetry.U: (0, Fraction(0)),
    Symmetry.O: (0, Fraction(1, 2)),
    Symmetry.Sp: (-1, Fraction(0)),
    Symmetry.SOplus: (1, Fraction(0)),
    Symmetry.SOminus: (-1, Fraction(1)),
}

CORRECTIVE = {
    Symmetry.U: 0,
    Symmetry.O: 1,
    Symmetry.Sp: -1,
    Symmetry.SOplus: 1,
    Symmetry.SOminus: 1,
}


def test_kernel_table_exact():
    for g, pair in KERNEL_TABLE.items():
        assert (g.delta, g.epsilon) == pair


def test_corrective_weight_is_integer_in_range():
    for g, value in CORRECTIVE.items():
        assert g.corrective_weight == value
        assert g.corrective_weight in (-1, 0, 1)


def test_unit_window_cases():
    assert unit_window(0.5) == 1
    assert unit_window(-0.999) == 1
    assert unit_window(1.0) == 0.5
    assert unit_window(-1.0) == 0.5
    assert unit_window(-3) == 0
    assert unit_window(1.0001) == 0


def test_density_fourier_values():
    assert density_fourier(Symmetry.Sp, 0.5) == -0.5
    assert density_fourier(Symmetry.SOminus, 2.0) == 1.0
    for y in (-5.0, -1.0, 0.0, 0.3, 1.0, 7.0):
        assert density_fourier(Symmetry.U, y) == 0.0
    # boundary carries the half window
    assert density_fourier(Symmetry.SOplus, 1.0) == 0.25
    assert density_fourier(Symmetry.O, 0.0) == 0.5


def test_symmetry_parse_aliases():
    assert Symmetry.parse("SO+") is Symmetry.SOplus
    assert Symmetry.parse("SOplus") is Symmetry.SOplus
    assert Symmetry.parse("so-") is Symmetry.SOminus
    assert Symmetry.parse("sp") is Symmetry.Sp
    with pytest.raises(ValueError):
        Symmetry.parse("SU(2)")


def test_base_family_weight_two():
    p = family_params(FamilySpec(r=1, restriction="none", weight_k=2))
    assert p.nu_max == 2
    assert p.rho_max == 1
    assert p.sigma == 1
    assert p.w is Symmetry.O
    assert p.w_star is Symmetry.O


def test_minus_family_routes_to_effective_symplectic():
    p = family_params(FamilySpec(r=3, restriction="minus", weight_k=4))
    assert p.w is Symmetry.SOminus
    assert p.w_star is Symmetry.Sp
    assert p.sigma == -1
    assert p.rho_max == Fraction(1, 30)


def test_even_power_family():
    p = family_params(FamilySpec(r=2, restriction="none", weight_k=4))
    expected_nu = (1 - Fraction(1, 2) / (4 - Fraction(7, 32))) * Fraction(1, 2)
    assert p.nu_max == expected_nu
    assert math.isclose(float(p.nu_max), (1 - 1 / (2 * (4 - 7 / 32))) / 2)
    assert p.sigma == -1
    assert p.w is Symmetry.Sp
    assert p.w_star is Symmetry.Sp


def test_signed_cap_applies():
    # r=3, k=4: the sign-restricted support is capped at 3/(r(r+1)) = 1/4
    unsigned = family_params(FamilySpec(r=3, restriction="none", weight_k=4))
    signed = family_params(FamilySpec(r=3, restriction="plus", weight_k=4))
    assert signed.nu_max == min(unsigned.nu_max, Fraction(3, 12))
    assert signed.sigma == 1
    assert signed.w is Symmetry.SOplus


def test_odd_r_sign_split():
    for r in (1, 3, 5):
        minus = family_params(FamilySpec(r=r, restriction="minus", weight_k=4))
        assert minus.sigma == -1
        assert minus.w is Symmetry.SOminus
        assert minus.w_star is Symmetry.Sp
        none = family_params(FamilySpec(r=r, restriction="none", weight_k=4))
        assert none.sigma == 1


def test_sign_and_rho_max_halves_to_the_proportion_supports():
    # the proportion bounds sit at R = rho_max/2, which rounds to the bits of
    # 1/(2 r^2) and 1/(4 r (r+2)); family_params reads the same rule
    for r in list(range(1, 400)) + [10**6 + 1, 10**40 + 1, 10**160 + 1]:
        sigma, rho_max = sign_and_rho_max(r)
        assert (sigma, float(rho_max / 2)) == ((-1) ** (r + 1), 1 / (2 * r * r))
        for restriction, sign in (("plus", 1), ("minus", -1)):
            sigma, rho_max = sign_and_rho_max(r, restriction)
            assert (sigma, float(rho_max / 2)) == (sign, 1 / (4 * r * (r + 2)))
    for r, restriction in ((2, "none"), (3, "none"), (3, "plus"), (5, "minus")):
        params = family_params(FamilySpec(r, restriction, weight_k=4))
        assert (params.sigma, params.rho_max) == sign_and_rho_max(r, restriction)


def test_nu_max_strictly_decreasing_in_r():
    for k in (4, 8, 12):
        values = [
            family_params(FamilySpec(r=r, restriction="none", weight_k=k)).nu_max
            for r in range(2, 9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        FamilySpec(r=2, restriction="plus", weight_k=4)
    with pytest.raises(ValueError):
        FamilySpec(r=1, restriction="sideways", weight_k=2)
    with pytest.raises(ValueError):
        FamilySpec(r=1, restriction="none", weight_k=3)
    with pytest.raises(ValueError):
        FamilySpec(r=2, restriction="none", weight_k=2)
    with pytest.raises(ValueError):
        FamilySpec(r=0)
