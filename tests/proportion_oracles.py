"""Closed forms of the proportion calculus used only as test oracles.

``weighted_integral`` is the |u|-weighted energy of
``proportion.detector_hat`` and ``variation_radii`` the root constants of the
threshold's sign analysis; no library path reads either.
"""

import math

_PI2 = math.pi**2
_PI4 = math.pi**4


def weighted_integral(R: float, beta: float) -> float:
    """Closed form of the |u|-weighted energy of ``detector_hat``.

    Equals the integral over the line of |u| * detector_hat(u)^2, which is
    half the variance entering the second-moment bound.
    """
    b2 = beta * beta
    b4 = b2 * b2
    R2 = R * R
    R4 = R2 * R2
    return (
        768 * R4 * b4
        + 3
        + 288 * b2 * R2
        + _PI2
        - 32 * b2 * R2 * _PI2
        + 256 * R4 * b4 * _PI2
    ) / (768 * _PI2)


def variation_radii(sigma: int) -> tuple[float, float, float, float]:
    """Root constants (R1, R2, R3, R4) of the threshold's sign analysis.

    R1 <= R2 are the zeros of the discriminant of the sign polynomial in
    beta^2, R3 <= R4 those of its leading coefficient; the threshold formula
    is real precisely because (0, 1/2) sits inside both root intervals.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +-1")
    disc = math.sqrt(6 * (_PI2 - 3) * (_PI2 - 4))
    d_den = 2 * (_PI4 - 7 * _PI2 - 12)
    r_a = _PI2 * (12 * sigma + disc) / d_den
    r_b = _PI2 * (12 * sigma - disc) / d_den
    lead = math.sqrt(6 * _PI2 * (_PI2 + 3))
    l_den = 192 - 6 * _PI2 - 2 * _PI4
    r_c = _PI2 * (-24 * sigma + lead) / l_den
    r_d = _PI2 * (-24 * sigma - lead) / l_den
    return (min(r_a, r_b), max(r_a, r_b), min(r_c, r_d), max(r_c, r_d))
