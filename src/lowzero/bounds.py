"""Front end assembling the upper bound on the height of the lowest zero.

Given the effective symmetry type of a family and its admissible support
``nu_max``, the bound on the lowest normalized zero is

    1/(2 nu_max) * { 1,                                       unitary
                     4 * tan_ratio_inverse(1 + 2/nu_max),     orthogonal
                     4 * tan_ratio_inverse(1 + c*2/nu_max),   Sp/SO, nu_max <= 1
                     (nu_max/pi) * lim_{R -> nu_max/2} lam_R, Sp/SO, nu_max > 1 }

with c = delta + 2*epsilon.  The limit is approximated at R = nu/2 - 1e-5; a
second sample at nu/2 - 2e-5 guards against landing near a degenerate
support (the scaled frequency is smooth in R with slope of order one, so the
two samples legitimately differ by about 1e-5 * |dlam/dR|), with a warning
when their bounds differ by more than 1e-4.

The second sample builds its own context (nudged off a degenerate support
with a warning, as any solve is) and scans for its own root bracket, but
bisects only until the guard's verdict is settled.  The bound
sqrt((lam/2 pi)^2) does not decrease as the root lam grows, and
abs(b1 - b2) > 1e-4 is monotone in b2 on each side of b1 in floats too, so
once both ends of a bracket pass the guard, every root inside it does.
Otherwise the bisection runs on to the root, and the warning prints the
bound a full solve gives.  Each sample scans once, up to the one-mode
frequency: the one-mode test function is admissible, so its quotient bounds
the minimum and its frequency the root.  That quotient is computed in closed
form (``solver._one_mode_quotient``), with the bits of the oracle's one-mode
forms, and a scan that holds no root raises ``RootScanError`` naming it.

Only the CLI's oracle checks (``bound --oracle-check``, ``verify``) use the
eigenvalue oracle; on a 2-core machine their output is byte-identical with
the BLAS library on one thread and on both.
"""

from __future__ import annotations

import math
import warnings

from .solver import (
    BoundResult,
    _bound_beyond,
    equation_branch,
    minimal_quotient,
    tan_ratio_inverse,
)
from .symmetry import FamilySpec, Symmetry, family_params

__all__ = [
    "height_bound",
    "height_bound_result",
    "family_height_bound",
    "orthogonal_asymptotic",
]

_LIMIT_OFFSET = 1e-5
_SMOOTHNESS_GUARD = 1e-4


def height_bound_result(w_star: Symmetry, nu_max: float) -> BoundResult:
    """Full minimization record behind ``height_bound``."""
    if nu_max <= 0:
        raise ValueError("nu_max must be positive")
    nu = nu_max / 2.0
    if not equation_branch(w_star, nu):
        return minimal_quotient(w_star, nu)
    first = minimal_quotient(w_star, nu - _LIMIT_OFFSET)
    second = _bound_beyond(w_star, nu - 2 * _LIMIT_OFFSET, first.bound, _SMOOTHNESS_GUARD)
    if second is not None:
        warnings.warn(
            f"limit approximation for {w_star} at nu_max={nu_max} looks rough: "
            f"{first.bound} vs {second}",
            stacklevel=2,
        )
    return first


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

        exact     = (2/nu_max) * tan_ratio_inverse(1 + 2/nu_max)
        expansion = sqrt(6)/(pi * nu_max^{3/2}) * (1 - 6/(5 nu_max)),

    the expansion error being of smaller order than the bracketed correction.
    """
    if nu_max < 4:
        raise ValueError("the expansion regime needs nu_max >= 4")
    exact = (2.0 / nu_max) * tan_ratio_inverse(1.0 + 2.0 / nu_max)
    expansion = math.sqrt(6.0) / (math.pi * nu_max**1.5) * (1.0 - 6.0 / (5.0 * nu_max))
    return exact, expansion
