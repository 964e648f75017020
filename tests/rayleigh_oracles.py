"""Rayleigh-quotient routines used only as test oracles.

``cos_conv_integral`` and ``sin_conv_integral`` give single entries of the
convolution matrices as scalar closed forms.  ``assemble_forms_meshgrid``
builds both quadratic forms on full (m, n) index grids, evaluating every
entry's formula directly; ``lowzero.rayleigh.assemble_forms`` must agree
with it bit for bit.  ``minimize_cholesky`` is ``lowzero.rayleigh.minimize``
with LAPACK's Cholesky factor and BLAS triangular solves at every support,
the diagonal numerators included.
"""

import math

import numpy as np
import scipy.linalg

from lowzero import rayleigh
from lowzero.rayleigh import QuadraticForms
from lowzero.symmetry import Symmetry


def cos_conv_integral(m: int, n: int, R: float) -> float:
    """Integral over [-1, 1] of the self-convolution C_m * C_n.

    Only used past half support (R > 1/2); below it the convolution integral
    collapses to a rank-one term.  Symmetric in (m, n).
    """
    _check_mode_args(m, n, R)
    if m == n:
        return (
            2 * R * (2 * R - 1) / (n * math.pi) * math.sin(math.pi * n / (2 * R))
            - 8 * R * R / (math.pi * n) ** 2 * math.cos(math.pi * n / (2 * R))
            + 8 * R * R / (math.pi * n) ** 2
        )
    sign = -1.0 if ((m + n) // 2) % 2 else 1.0
    lead = 8 * R * R * sign / math.pi**2
    bracket = (
        math.cos(math.pi * n / (2 * R)) / n**2
        - math.cos(math.pi * m / (2 * R)) / m**2
    )
    return lead * m * n / (m * m - n * n) * bracket - lead / (m * n)


def sin_conv_integral(m: int, n: int, R: float) -> float:
    """Integral over [-1, 1] of S_m * S_n with S_n(u) = sin(pi*n*u/(2R)).

    Captures the derivative convolution; symmetric in (m, n).
    """
    _check_mode_args(m, n, R)
    if m == n:
        return -2 * R * (2 * R - 1) / (n * math.pi) * math.sin(math.pi * n / (2 * R))
    sign = -1.0 if ((m + n) // 2) % 2 else 1.0
    return (
        8 * R * R * sign / (math.pi**2 * (m * m - n * n))
        * (math.cos(math.pi * m / (2 * R)) - math.cos(math.pi * n / (2 * R)))
    )


def _check_mode_args(m: int, n: int, R: float) -> None:
    if R <= 0.5:
        raise ValueError("convolution coefficients only apply for R > 1/2")
    if m < 1 or n < 1 or m % 2 == 0 or n % 2 == 0:
        raise ValueError("mode indices must be odd positive integers")


def assemble_forms_meshgrid(g: Symmetry, R: float, N: int) -> QuadraticForms:
    """Both quadratic forms, every entry evaluated on N x N index grids."""
    if R <= 0:
        raise ValueError("R must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    delta = g.delta
    eps = float(g.epsilon)
    idx = 2 * np.arange(1, N + 1) - 1  # odd mode indices 1, 3, 5, ...
    v = np.where((idx // 2) % 2 == 0, 1.0, -1.0) / idx

    A = np.diag(idx.astype(float) ** 2)
    B = np.eye(N)
    if R <= 0.5:
        B += (delta + 2 * eps) * (8 * R / math.pi**2) * np.outer(v, v)
    else:
        mm, nn = np.meshgrid(idx, idx, indexing="ij")
        off = mm != nn
        sign = np.where(((mm + nn) // 2) % 2 == 0, 1.0, -1.0)
        cos_m = np.cos(math.pi * mm / (2 * R))
        cos_n = np.cos(math.pi * nn / (2 * R))
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = (mm * mm - nn * nn).astype(float)
            lead = 8 * R * R * sign / math.pi**2
            lam_off = lead * mm * nn / diff * (cos_n / nn**2 - cos_m / mm**2)
            lam_off -= lead / (mm * nn)
            mu_off = lead / diff * (cos_m - cos_n)
        d = idx.astype(float)
        sin_d = np.sin(math.pi * idx / (2 * R))
        cos_d = np.cos(math.pi * idx / (2 * R))
        lam_diag = (
            2 * R * (2 * R - 1) / (d * math.pi) * sin_d
            - 8 * R * R / (math.pi * d) ** 2 * cos_d
            + 8 * R * R / (math.pi * d) ** 2
        )
        mu_diag = -2 * R * (2 * R - 1) / (d * math.pi) * sin_d
        lam = np.where(off, lam_off, 0.0) + np.diag(lam_diag)
        mu = np.where(off, mu_off, 0.0) + np.diag(mu_diag)

        A -= (delta / (2 * R)) * (mm * nn) * mu
        B += (delta / (2 * R)) * lam + (16 * R * eps / math.pi**2) * np.outer(v, v)

    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    return QuadraticForms(numerator=A, denominator=B, R=R, g=g)


def minimize_cholesky(g: Symmetry, R: float, N: int) -> float:
    """Inverse iteration of ``rayleigh.minimize``, every step solving
    A y = B x by ``dpotrf``'s factor and two ``dtrsv`` calls and applying A
    by a matrix-vector product."""
    forms = rayleigh.assemble_forms(g, R, N)
    A, B = forms.numerator, forms.denominator
    factor, info = scipy.linalg.lapack.dpotrf(A.T)
    assert info == 0, info
    trsv = scipy.linalg.blas.dtrsv
    rhs = B[:, 0]
    best = math.inf
    for _ in range(rayleigh._MAX_STEPS):
        y = trsv(factor, trsv(factor, rhs, trans=1))
        By = B @ y
        yBy = y @ By
        q = (y @ (A @ y)) / yBy
        if not q < best:
            return float(best)
        best = q
        rhs = By / math.sqrt(yBy)
    raise AssertionError("inverse iteration did not settle")
