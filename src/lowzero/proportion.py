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

The two symmetric-power specializations fix R at half the variance-admissible
support: R = 1/(2 r^2) for the full family, R = 1/(4 r (r+2)) for the
sign-restricted ones.
"""

from __future__ import annotations

import math

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


def _denominator(sigma: int, R: float, beta: float) -> float:
    b2 = beta * beta
    return 128 * sigma * R**3 * b2 + 16 * _PI2 * R * R * b2 - _PI2


def proportion_bound(sigma: int, R: float, beta: float) -> float:
    """Second-moment lower bound on the small-first-zero proportion.

    Only meaningful above ``beta_threshold``; returns the signed closed form
    everywhere else (negative values carry no information).  Rejects the
    pole of the averaged detector.
    """
    _check_sigma_R(sigma, R)
    den = _denominator(sigma, R, beta)
    b2 = beta * beta
    den_scale = abs(128 * sigma * R**3 * b2) + 16 * _PI2 * R * R * b2 + _PI2
    if abs(den) <= 1e-12 * den_scale:
        raise ValueError(f"beta={beta} is the detector's sign-change pole at R={R}")
    b4 = b2 * b2
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
    """Threshold and lower bound for the full symmetric-power family.

    Specializes the generic bound at sigma = (-1)^(r+1), R = 1/(2 r^2); the
    returned closed forms are algebraically identical to that specialization.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    r2 = r * r
    r4 = r2 * r2
    sgn = (-1) ** r
    inner = -_PI4 + 6 * _PI4 * r4 + 7 * _PI2 + 12 - 24 * sgn * _PI2 * r2
    num = (
        6 * math.pi**3 * r4
        - 24 * sgn * math.pi * r2
        + 9 * math.pi
        - math.pi**3
        + 2 * math.sqrt(6) * math.sqrt(inner)
    )
    den = 6 * _PI4 * r4 - 48 * sgn * _PI2 * r2 + 96 - 3 * _PI2 - _PI4
    threshold = math.sqrt(math.pi * r4 / 4.0 * num / den)

    b2 = beta * beta
    b4 = b2 * b2
    lb_num = 16 * (_PI2 + 3) * b4 + 8 * r4 * (9 - _PI2) * b2 + (3 + _PI2) * r4 * r4
    lb_den = r4 * r2 * _PI2 - 4 * b2 * r2 * _PI2 + 16 * b2 * sgn
    lower = 1.0 - (_PI2 / 6.0) * lb_num / lb_den**2
    return threshold, lower


def sym_power_proportion_signed(r: int, sigma: int, beta: float) -> tuple[float, float]:
    """Threshold and lower bound for a sign-restricted symmetric-power family.

    Only odd r carries a sign split; specializes at R = 1/(4 r (r+2)).
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("sign-restricted families require odd r")
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +-1")
    q = r * (r + 2)
    q2 = q * q
    inner = -_PI4 + 24 * _PI4 * q2 + 7 * _PI2 + 12 + 48 * sigma * _PI2 * q
    num = math.pi * (24 * _PI2 * q2 + 48 * sigma * q + 9 - _PI2) + 2 * math.sqrt(
        6
    ) * math.sqrt(inner)
    den = 24 * _PI4 * q2 + 96 * sigma * _PI2 * q + 96 - 3 * _PI2 - _PI4
    threshold = q * math.sqrt(math.pi) * math.sqrt(num / den)

    b2 = beta * beta
    b4 = b2 * b2
    lb_num = (_PI2 + 3) * b4 + 2 * q2 * (9 - _PI2) * b2 + (_PI2 + 3) * q2 * q2
    lb_den = 2 * sigma * b2 + _PI2 * b2 * q - _PI2 * q * q2
    lower = 1.0 - (_PI2 / 24.0) * lb_num / lb_den**2
    return threshold, lower


def _check_sigma_R(sigma: int, R: float) -> None:
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +-1")
    if not 0 < R <= 0.5:
        # R = 1/2 is admitted by continuity: the specialized families reach it.
        raise ValueError("R must lie in (0, 1/2]")
