"""Front end assembling the upper bound on the height of the lowest zero.

Given the effective symmetry type of a family and its admissible support
``nu_max``, the bound on the lowest normalized zero is

    1/(2 nu_max) * { 1,                                       unitary
                     4 * tan_ratio_inverse(1 + 2/nu_max),     orthogonal
                     4 * tan_ratio_inverse(1 + c*2/nu_max),   Sp/SO, nu_max <= 1
                     (nu_max/pi) * lim_{R -> nu_max/2} lam_R, Sp/SO, nu_max > 1 }

with c = delta + 2*epsilon.  The limit is sampled once, at R = nu/2 - 1e-5;
the minimum falls as R grows, so the sample bounds the limit from above.
The solve scans once, up to the one-mode frequency: the one-mode test
function is admissible, so its quotient bounds the minimum and its frequency
the root.  That quotient is computed in closed form
(``solver._one_mode_quotient``), with the bits of the oracle's one-mode
forms, and a scan that holds no root raises ``RootScanError`` naming it.

Only the CLI's oracle checks (``bound --oracle-check``, ``verify``) use the
eigenvalue oracle; on a 2-core machine their output is byte-identical with
the BLAS library on one thread and on both.
"""

from __future__ import annotations

import math

from .solver import BoundResult, equation_branch, minimal_quotient
from .symmetry import FamilySpec, Symmetry, family_params

__all__ = [
    "height_bound",
    "height_bound_result",
    "family_height_bound",
    "orthogonal_asymptotic",
]

_LIMIT_OFFSET = 1e-5


def height_bound_result(w_star: Symmetry, nu_max: float) -> BoundResult:
    """Full minimization record behind ``height_bound``."""
    if nu_max <= 0:
        raise ValueError("nu_max must be positive")
    if not math.isfinite(nu_max):
        raise ValueError(f"nu_max = {nu_max!r} is not finite")
    R = nu_max / 2.0
    if equation_branch(w_star, R):
        R -= _LIMIT_OFFSET  # the limit as R rises to nu_max/2, sampled below it
    return minimal_quotient(w_star, R)


def height_bound(w_star: Symmetry, nu_max: float) -> float:
    """Upper bound on the lowest normalized zero for one symmetry type."""
    return height_bound_result(w_star, nu_max).bound


def family_height_bound(f: FamilySpec) -> float:
    """Bound for a catalog family, routed through its effective symmetry."""
    params = family_params(f)
    return height_bound(params.w_star, float(params.nu_max))


def orthogonal_asymptotic(nu_max: float) -> tuple[float, float]:
    """Orthogonal bound and its large-support expansion, for comparison.

    Returns (exact, expansion) with

        exact     = height_bound(O, nu_max)
                  = (2/nu_max) * tan_ratio_inverse(1 + 2/nu_max)
        expansion = sqrt(6)/(pi * nu_max^{3/2}) * (1 - 6/(5 nu_max)),

    the expansion error being of smaller order than the bracketed correction.
    Past nu_max = 1e7, the largest O support solved, ``ValueError`` names
    that limit.
    """
    if nu_max < 4:
        raise ValueError("the expansion regime needs nu_max >= 4")
    exact = height_bound(Symmetry.O, nu_max)
    expansion = math.sqrt(6.0) / (math.pi * nu_max**1.5) * (1.0 - 6.0 / (5.0 * nu_max))
    return exact, expansion
