"""Brute-force oracle: minimize the support-constrained Rayleigh quotient.

Admissible test functions on [-R, R] are expanded in the odd cosine modes
C_n(u) = cos(pi*n*u/(2R)) (even-index coefficients vanish identically for
this boundary condition).  In that basis the quotient becomes a ratio of two
quadratic forms c^T A c / c^T B c whose entries are closed-form trigonometric
integrals, and its minimum over the first N modes is the smallest generalized
eigenvalue of (A, B).  B is positive definite, so the LAPACK Cholesky-based
reduction applies.

The minimum returned is the 16 R^2 - scaled quantity (so the unitary case is
exactly 1 for every R and N); divide its square root by 4R to compare with
the normalized quotient used by the closed-form solver.

Truncation makes this an upper-bounding subspace minimum, nonincreasing in N;
nothing here certifies a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .symmetry import Symmetry

__all__ = [
    "QuadraticForms",
    "assemble_forms",
    "minimize",
    "sqrt_quotient",
]


@dataclass(frozen=True)
class QuadraticForms:
    """Numerator/denominator forms of the truncated Rayleigh quotient."""

    numerator: np.ndarray
    denominator: np.ndarray
    R: float
    g: Symmetry


def assemble_forms(g: Symmetry, R: float, N: int) -> QuadraticForms:
    """Build the N x N quadratic forms over the first N odd cosine modes.

    Past half support an entry depends on its modes m and n only through
    per-mode vectors (cos(pi*m/(2R)), m^2, m*n and the sign
    (-1)^((m+n)/2) = -p_m*p_n with parity p_m = (-1)^((m-1)/2)), so they are
    broadcast rather than laid out on index grids.  Each entry still takes
    the same floating-point operations in the same order as its closed form
    with the sign on the leading factor; a sign flip commutes with rounding,
    so moving it onto a per-mode factor changes no bit.
    """
    if not 0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    if N < 1:
        raise ValueError("N must be >= 1")
    delta = g.delta
    eps = float(g.epsilon)
    idx = 2 * np.arange(1, N + 1) - 1  # odd mode indices 1, 3, 5, ...
    parity = np.where((idx // 2) % 2 == 0, 1.0, -1.0)
    v = parity / idx
    d = idx.astype(float)
    sq = d**2
    diag = slice(None, None, N + 1)  # the diagonal of a flattened N x N form

    if R <= 0.5:
        # Both forms are exactly symmetric: a diagonal plus outer(v, v).
        B = np.eye(N)
        B += (delta + 2 * eps) * (8 * R / math.pi**2) * np.outer(v, v)
        return QuadraticForms(numerator=np.diag(sq), denominator=B, R=R, g=g)

    lead = 8 * R * R / math.pi**2
    scale = delta / (2 * R)
    sin_d = np.sin(math.pi * idx / (2 * R))
    cos_d = np.cos(math.pi * idx / (2 * R))
    signed = parity * d  # p_m*m
    diff = np.subtract.outer(sq, sq)  # m^2 - n^2, exact
    diff.flat[diag] = 1.0  # diagonals come from their own formulas below

    # lam = lead*sign*m*n/(m^2 - n^2)*(cos_n/n^2 - cos_m/m^2) - lead*sign/(m*n)
    lam = np.multiply.outer(-parity * (lead * d), signed)
    lam /= diff
    q = cos_d / sq
    lam *= q - q[:, None]
    signed_mn = np.multiply.outer(-signed, signed)
    lam -= np.divide(lead, signed_mn, out=signed_mn)
    lam.flat[diag] = (
        2 * R * (2 * R - 1) / (d * math.pi) * sin_d
        - 8 * R * R / (math.pi * d) ** 2 * cos_d
        + 8 * R * R / (math.pi * d) ** 2
    )
    lam *= scale
    lam += (16 * R * eps / math.pi**2) * np.outer(v, v)
    lam += 0.0  # eye(N) + lam is 0.0 + lam off the diagonal: no -0.0 survives
    lam.flat[diag] += 1.0
    B = lam + lam.T
    B *= 0.5

    # A = diag(m^2) - scale*m*n*mu, mu = lead*sign/(m^2 - n^2)*(cos_m - cos_n),
    # with the sign moved onto m*n.  lead/(m^2 - n^2) and cos_m - cos_n are
    # each exactly antisymmetric, so A is exactly symmetric as it stands.
    mu = np.divide(lead, diff, out=diff)  # unsigned mu
    mu *= np.subtract.outer(cos_d, cos_d)
    A = np.multiply.outer(signed, signed)  # -sign*m*n
    A *= scale
    A *= mu
    A += 0.0  # diag(m^2) - x is 0.0 - x off the diagonal: no -0.0 survives
    mu_diag = -2 * R * (2 * R - 1) / (d * math.pi) * sin_d
    A.flat[diag] = sq - (scale * sq) * mu_diag
    return QuadraticForms(numerator=A, denominator=B, R=R, g=g)


def minimize(g: Symmetry, R: float, N: int = 400) -> float:
    """Smallest generalized eigenvalue of the truncated quotient forms.

    This is the subspace minimum of the scaled quotient; it decreases toward
    the true minimum as N grows.
    """
    forms = assemble_forms(g, R, N)
    try:
        # Both forms are exactly symmetric, so each transpose, a Fortran-order
        # view, is the same matrix: LAPACK works on the forms in place
        # instead of on copies.
        vals = scipy.linalg.eigh(
            forms.numerator.T,
            forms.denominator.T,
            eigvals_only=True,
            subset_by_index=(0, 0),
            overwrite_a=True,
            overwrite_b=True,
            check_finite=False,
        )
    except scipy.linalg.LinAlgError as exc:
        # The failed eigensolve may have overwritten the denominator.
        cond = np.linalg.cond(assemble_forms(g, R, N).denominator)
        raise RuntimeError(
            f"generalized eigensolve failed for {g} at R={R}, N={N} "
            f"(denominator condition estimate {cond:.3e})"
        ) from exc
    return float(vals[0])


def sqrt_quotient(g: Symmetry, R: float, N: int = 400) -> float:
    """Oracle value of the square root of the normalized minimum.

    Rescales ``minimize`` from the 16 R^2 convention back to the quotient the
    closed-form solver reports the square root of.
    """
    return math.sqrt(minimize(g, R, N)) / (4 * R)
