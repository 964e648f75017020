"""Lower bounds on the proportion of family members with a small first zero.

Everything here is the calculus of one explicit test function: the cosine
window g0, whose transform is cos(pi*u/(2R)) on [-R, R], paired with the
shifted-quadratic detector Phi(x) = (x^2 - beta^2) g0(x)^2.  Averaging the
detector against the family's effective density and applying a second-moment
(Bienayme-Chebyshev) argument yields the closed-form lower bound

    proportion_bound(sigma, R, beta)

on the proportion of members whose first zero lies below beta, where sigma
is the +-1 weight of the central term in the averaged detector.  The bound
has a pole at ``beta_pole`` (where the averaged detector changes sign),
turns positive at ``beta_threshold``, increases beyond it, and saturates at
``proportion_bound_limit``.

The two symmetric-power families are ``beta_threshold`` and
``proportion_bound`` at their sign sigma and R fixed to half the
variance-admissible support rho_max (``symmetry.sign_and_rho_max``):
R = 1/(2 r^2) for the full family, R = 1/(4 r (r+2)) for the sign-restricted
ones.
"""

from __future__ import annotations

import math
import sys

from .symmetry import sign_and_rho_max

__all__ = [
    "detector_hat",
    "proportion_bound",
    "beta_pole",
    "beta_threshold",
    "proportion_bound_limit",
    "sym_power_proportion",
    "sym_power_proportion_signed",
]

_PI2 = math.pi**2
_PI4 = math.pi**4


def detector_hat(u: float, R: float, beta: float) -> float:
    """Fourier transform of the shifted-quadratic detector; 0 outside [-2R, 2R]."""
    au = abs(u)
    if au > 2 * R:
        return 0.0
    return (2 * R - au) / 2.0 * (1.0 / (16 * R * R) - beta * beta) * math.cos(
        math.pi * u / (2 * R)
    ) - (1.0 / math.pi) * (1.0 / (16 * R) + beta * beta * R) * math.sin(
        math.pi * au / (2 * R)
    )


def proportion_bound(sigma: int, R: float, beta: float) -> float:
    """Second-moment lower bound on the small-first-zero proportion.

    Only meaningful above ``beta_threshold``; returns the signed closed form
    everywhere else (negative values carry no information).  Rejects the
    pole of the averaged detector, and an R whose R**4 is not a normal float.
    Where beta^4 or the squared denominator overflows (beta past about 1e76)
    it returns ``proportion_bound_limit``: there R*beta > 1, so the two
    differ by about 0.1/beta^2, far below an ulp.
    """
    _check_sigma_R(sigma, R)
    if _underflows(R):
        raise ValueError(f"R={R!r} is too small for the closed form: R**4 underflows")
    b2 = beta * beta
    b4 = b2 * b2
    den = 128 * sigma * R**3 * b2 + 16 * _PI2 * R * R * b2 - _PI2
    if math.isinf(b4) or math.isinf(den * den):
        return proportion_bound_limit(sigma, R)
    den_scale = abs(128 * sigma * R**3 * b2) + 16 * _PI2 * R * R * b2 + _PI2
    if abs(den) <= 1e-12 * den_scale:
        raise ValueError(f"beta={beta} is the detector's sign-change pole at R={R}")
    num = 256 * (3 + _PI2) * R**4 * b4 + 32 * (9 - _PI2) * R * R * b2 + _PI2 + 3
    return 1.0 - (2 * _PI2 * R * R / 3.0) * num / den**2


def beta_pole(sigma: int, R: float) -> float:
    """Rayleigh ratio of the cosine window; the pole of ``proportion_bound``."""
    _check_sigma_R(sigma, R)
    return 1.0 / (4 * R * math.sqrt(1.0 + sigma * 8 * R / _PI2))


def beta_threshold(sigma: int, R: float) -> float:
    """Smallest beta at which the proportion bound becomes positive.

    Always exceeds ``beta_pole``; ``proportion_bound`` vanishes here and
    increases beyond.
    """
    _check_sigma_R(sigma, R)
    inner = 9 * _PI4 + 72 * sigma * R * _PI2 - 6 * (_PI4 - 7 * _PI2 - 12) * R * R
    if inner < 0:
        raise ValueError(f"threshold radicand is negative at sigma={sigma}, R={R}")
    num = _PI2 * (3 * _PI2 + 24 * sigma * R - 2 * (_PI2 - 9) * R * R) + 4 * math.pi * R * math.sqrt(inner)
    den = 3 * _PI4 + 48 * sigma * R * _PI2 + (192 - 6 * _PI2 - 2 * _PI4) * R * R
    ratio = num / den
    if ratio < 0:
        raise ValueError(f"threshold radicand is negative at sigma={sigma}, R={R}")
    return math.sqrt(ratio) / (4 * R)


def proportion_bound_limit(sigma: int, R: float) -> float:
    """Saturation value of the proportion bound as beta grows."""
    _check_sigma_R(sigma, R)
    return 1.0 - (2 * _PI2 * R * R / 3.0) * (_PI2 + 3) / (_PI2 + 8 * R * sigma) ** 2


def sym_power_proportion(r: int, beta: float) -> tuple[float, float]:
    """Threshold and lower bound for the full symmetric-power family: the
    generic ones at sigma = (-1)^(r+1), R = 1/(2 r^2)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return _family(r, "none", beta)


def sym_power_proportion_signed(r: int, sigma: int, beta: float) -> tuple[float, float]:
    """Threshold and lower bound for a sign-restricted symmetric-power family.

    Only odd r carries a sign split; the generic ones at R = 1/(4 r (r+2)).
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("sign-restricted families require odd r")
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +-1")
    return _family(r, "plus" if sigma == 1 else "minus", beta)


def _family(r: int, restriction: str, beta: float) -> tuple[float, float]:
    """The generic threshold and bound at the family's sigma and
    R = rho_max/2; names an r too large."""
    sigma, rho_max = sign_and_rho_max(r, restriction)
    R = float(rho_max / 2)
    if _underflows(R):
        raise ValueError(f"r={r} is too large: R={R!r} is below the closed form's range")
    return beta_threshold(sigma, R), proportion_bound(sigma, R, beta)


def _underflows(R: float) -> bool:
    """Whether R**4, a factor of the closed form, falls below the normal floats."""
    return R**4 < sys.float_info.min


def _check_sigma_R(sigma: int, R: float) -> None:
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +-1")
    if not 0 < R <= 0.5:
        # R = 1/2 is admitted by continuity: the specialized families reach it.
        raise ValueError("R must lie in (0, 1/2]")
