"""Symmetry types, density kernels, and symmetric-power family parameters.

Five classical compact matrix groups drive every computation in this package.
Each is encoded by a pair (delta, epsilon) through the Fourier transform of
its one-level density:

    FT[W](y) = delta_0(y) + (delta/2) * 1_{|y|<1} + epsilon

where delta_0 is a unit Dirac atom at the origin; ``_KERNEL_TABLE`` holds
the pair of each type.  epsilon is kept as an exact rational so that
identities such as delta + 2*epsilon being an exact integer survive symbolic
comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Symmetry",
    "FamilySpec",
    "FamilyParams",
    "family_params",
    "sign_and_rho_max",
]

#: Fixed exponent bound entering the admissible-support formulas.
THETA0 = Fraction(7, 64)


class Symmetry(enum.Enum):
    """The five symmetry types, tagged by their classical group."""

    U = "U"
    O = "O"
    Sp = "Sp"
    SOplus = "SO+"
    SOminus = "SO-"

    @property
    def delta(self) -> int:
        return _KERNEL_TABLE[self][0]

    @property
    def epsilon(self) -> Fraction:
        return _KERNEL_TABLE[self][1]

    @property
    def corrective_weight(self) -> Fraction:
        """delta + 2*epsilon; an exact integer in {-1, 0, 1}."""
        return self.delta + 2 * self.epsilon

    @classmethod
    def parse(cls, name: str) -> "Symmetry":
        """Resolve a user-facing name (ASCII aliases included)."""
        key = name.strip()
        aliases = {
            "U": cls.U,
            "O": cls.O,
            "SP": cls.Sp,
            "SO+": cls.SOplus,
            "SOPLUS": cls.SOplus,
            "SO-": cls.SOminus,
            "SOMINUS": cls.SOminus,
        }
        try:
            return aliases[key.upper()]
        except KeyError:
            raise ValueError(f"unknown symmetry type: {name!r}") from None


_KERNEL_TABLE = {
    Symmetry.U: (0, Fraction(0)),
    Symmetry.O: (0, Fraction(1, 2)),
    Symmetry.Sp: (-1, Fraction(0)),
    Symmetry.SOplus: (1, Fraction(0)),
    Symmetry.SOminus: (-1, Fraction(1)),
}


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of a symmetric-power family of cusp-form L-functions.

    ``r`` is the symmetric-power order, ``restriction`` fixes the sign of the
    functional equation ("none", "plus" or "minus"; a sign only makes sense
    for odd r), and ``weight_k`` is the (even) weight of the underlying forms.
    """

    r: int
    restriction: str = "none"
    weight_k: int = 2

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("symmetric-power order r must be >= 1")
        if self.restriction not in ("none", "plus", "minus"):
            raise ValueError(f"bad restriction {self.restriction!r}")
        if self.restriction != "none" and self.r % 2 == 0:
            raise ValueError("a sign restriction requires odd r")
        if self.weight_k < 2 or self.weight_k % 2 != 0:
            raise ValueError("weight_k must be an even integer >= 2")
        if self.r >= 2 and self.weight_k < 4:
            # Conservative guard: keeps the admissible support positive and
            # k - 2*theta0 comfortably away from 0 for higher powers.
            raise ValueError("weight_k must be >= 4 for r >= 2")


@dataclass(frozen=True)
class FamilyParams:
    """Derived analytic parameters of a catalog family."""

    nu_max: Fraction
    rho_max: Fraction
    sigma: int
    w: Symmetry
    w_star: Symmetry


def admissible_support(r: int, weight_k: int, signed: bool = False) -> Fraction:
    """Largest proven test-function support for a symmetric-power family.

    Equals 2 for r = 1.  For r >= 2 it is (1 - 1/(2(k - 2*theta0))) * 2/r^2,
    capped additionally by 3/(r(r+1)) when the family is sign-restricted.
    """
    if r == 1:
        return Fraction(2)
    base = (1 - Fraction(1, 2) / (weight_k - 2 * THETA0)) * Fraction(2, r * r)
    if signed:
        return min(base, Fraction(3, r * (r + 1)))
    return base


def sign_and_rho_max(r: int, restriction: str = "none") -> tuple[int, Fraction]:
    """(sigma, rho_max) of the order-r symmetric-power family under
    ``restriction``, for every weight: ((-1)^(r+1), 1/r^2) for the full
    family, (+-1, 1/(2 r (r+2))) for the sign-restricted ones."""
    if restriction == "none":
        return (-1) ** (r + 1), Fraction(1, r * r)
    return (1 if restriction == "plus" else -1), Fraction(1, 2 * r * (r + 2))


def family_params(f: FamilySpec) -> FamilyParams:
    """Resolve a family descriptor into its analytic parameters.

    The pair (w, w_star) distinguishes the raw symmetry of the family from
    the effective symmetry once the forced central zero is removed: for the
    minus-sign families w = SO- but w_star = Sp.
    """
    nu_max = admissible_support(f.r, f.weight_k, signed=f.restriction != "none")
    sigma, rho_max = sign_and_rho_max(f.r, f.restriction)
    if f.restriction == "plus":
        w = w_star = Symmetry.SOplus
    elif f.restriction == "minus":
        w = Symmetry.SOminus
        w_star = Symmetry.Sp
    elif f.r % 2 == 0:
        w = w_star = Symmetry.Sp
    else:
        w = w_star = Symmetry.O
    return FamilyParams(nu_max=nu_max, rho_max=rho_max, sigma=sigma, w=w, w_star=w_star)
