"""Brute-force oracle: minimize the support-constrained Rayleigh quotient.

Admissible test functions on [-R, R] are expanded in the odd cosine modes
C_n(u) = cos(pi*n*u/(2R)) (even-index coefficients vanish identically for
this boundary condition).  In that basis the quotient becomes a ratio of two
quadratic forms c^T A c / c^T B c whose entries are closed-form trigonometric
integrals, and its minimum over the first N modes is the smallest generalized
eigenvalue of (A, B).  Both forms are symmetric positive definite.
``minimize`` reaches that eigenvalue by inverse iteration with the Cholesky
factor of A and returns the Rayleigh quotient of an actual coefficient
vector, which can only lie above the eigenvalue.  On a 2-core machine its
bits were the same with one BLAS thread as with two, which those of a dense
generalized eigensolve were not.

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

#: Cap on the inverse-iteration steps of ``minimize``; the quotient stops
#: decreasing within 19 steps on every kernel for R in [0.02, 20] and N up
#: to 400.
_MAX_STEPS = 100


@dataclass(frozen=True)
class QuadraticForms:
    """Numerator/denominator forms of the truncated Rayleigh quotient."""

    numerator: np.ndarray
    denominator: np.ndarray
    R: float
    g: Symmetry


def _diagonal_numerator(g: Symmetry, R: float) -> bool:
    """True where the numerator A is diag(m^2): with delta = 0 (the O and U
    kernels) or at or below half support."""
    return g.delta == 0 or R <= 0.5


def assemble_forms(g: Symmetry, R: float, N: int) -> QuadraticForms:
    """Build the N x N quadratic forms over the first N odd cosine modes.

    Past half support an entry depends on its modes m and n only through
    per-mode vectors (cos(pi*m/(2R)), m^2, m*n and the sign
    (-1)^((m+n)/2) = -p_m*p_n with parity p_m = (-1)^((m-1)/2)), so they are
    broadcast rather than laid out on index grids.  Each entry still takes
    the same floating-point operations in the same order as its closed form
    with the sign on the leading factor; a sign flip commutes with rounding,
    so moving it onto a per-mode factor changes no bit.

    Every outer product is written straight into one of three N x N
    buffers, so the peak is 3 N^2 doubles, two of which are returned:
    W holds m^2 - n^2, then lead/(m^2 - n^2), then mu; L holds lambda, then
    cos_m - cos_n, then the numerator A; T is scratch for the terms of
    lambda and then receives the denominator B.  At or below half support
    the two forms are the only N x N arrays, and so they are wherever
    delta = 0: A is diag(m^2) and B the identity plus a multiple of
    outer(v, v), the same bits as the general formulas give there.
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

    if _diagonal_numerator(g, R):
        # Both forms are exactly symmetric: a diagonal plus c*outer(v, v).
        B = np.outer(v, v)
        B *= (delta + 2 * eps) * (8 * R / math.pi**2)
        B.flat[diag] += 1.0
        B += 0.0  # eye(N) + x is 0.0 + x off the diagonal: no -0.0 survives
        return QuadraticForms(numerator=np.diag(sq), denominator=B, R=R, g=g)

    lead = 8 * R * R / math.pi**2
    scale = delta / (2 * R)
    sin_d = np.sin(math.pi * idx / (2 * R))
    cos_d = np.cos(math.pi * idx / (2 * R))
    signed = parity * d  # p_m*m
    W = np.subtract.outer(sq, sq)  # m^2 - n^2, exact
    W.flat[diag] = 1.0  # diagonals come from their own formulas below

    # lam = lead*sign*m*n/(m^2 - n^2)*(cos_n/n^2 - cos_m/m^2) - lead*sign/(m*n)
    L = np.multiply.outer(-parity * (lead * d), signed)
    L /= W
    q = cos_d / sq
    T = np.subtract(q, q[:, None])
    L *= T
    np.multiply(-signed[:, None], signed, out=T)
    L -= np.divide(lead, T, out=T)
    L.flat[diag] = (
        2 * R * (2 * R - 1) / (d * math.pi) * sin_d
        - 8 * R * R / (math.pi * d) ** 2 * cos_d
        + 8 * R * R / (math.pi * d) ** 2
    )
    L *= scale
    np.multiply(v[:, None], v, out=T)
    T *= 16 * R * eps / math.pi**2
    L += T
    L += 0.0  # eye(N) + lam is 0.0 + lam off the diagonal: no -0.0 survives
    L.flat[diag] += 1.0
    B = np.add(L, L.T, out=T)
    B *= 0.5

    # A = diag(m^2) - scale*m*n*mu, mu = lead*sign/(m^2 - n^2)*(cos_m - cos_n),
    # with the sign moved onto m*n.  lead/(m^2 - n^2) and cos_m - cos_n are
    # each exactly antisymmetric, so A is exactly symmetric as it stands.
    mu = np.divide(lead, W, out=W)  # unsigned mu
    mu *= np.subtract(cos_d[:, None], cos_d, out=L)
    A = np.multiply(signed[:, None], signed, out=L)  # -sign*m*n
    A *= scale
    A *= mu
    A += 0.0  # diag(m^2) - x is 0.0 - x off the diagonal: no -0.0 survives
    mu_diag = -2 * R * (2 * R - 1) / (d * math.pi) * sin_d
    A.flat[diag] = sq - (scale * sq) * mu_diag
    return QuadraticForms(numerator=A, denominator=B, R=R, g=g)


def minimize(g: Symmetry, R: float, N: int = 400) -> float:
    """Smallest Rayleigh quotient over the first N modes, by inverse iteration.

    Starting from the first mode, each step solves A y = B x with the
    Cholesky factor of the numerator A and takes the quotient
    q = (y^T A y) / (y^T B y) of the iterate, each form applied by one
    matrix-vector product.  Every q is the quotient of an actual coefficient
    vector, so however inexact the solves, it is at least the smallest
    generalized eigenvalue of (A, B), and so an upper bound on the true
    minimum, up to the few ulps of rounding in q itself.  The quotients
    decrease toward that eigenvalue; the iteration stops at the first one
    that does not decrease and returns the smallest.

    Where A is diag(d^2), d the odd mode index (delta = 0, or R <= 1/2),
    its Cholesky factor is diag(d) exactly, so each step divides by d twice
    and applies A as d^2 * y: the same bits as the two triangular solves
    and the matrix-vector product, without the factorization.

    The result is the subspace minimum of the scaled quotient; it decreases
    toward the true minimum as N grows.  Raises ``RuntimeError`` if the
    numerator is not numerically positive definite or the quotients keep
    decreasing for ``_MAX_STEPS`` steps.
    """
    forms = assemble_forms(g, R, N)
    A, B = forms.numerator, forms.denominator
    if _diagonal_numerator(g, R):
        # A = diag(d^2) with d the odd mode index: its Cholesky factor is
        # diag(d) exactly, and the two triangular solves are two divisions.
        sq = np.diagonal(A)
        d = np.sqrt(sq)
        solve = lambda rhs: (rhs / d) / d
        apply_a = lambda y: sq * y
    else:
        # A is exactly symmetric, so its transpose, a Fortran-order view, is
        # the same matrix: LAPACK factors a copy of it and A stays intact.
        factor, info = scipy.linalg.lapack.dpotrf(A.T)
        if info != 0:
            raise RuntimeError(
                f"Cholesky factorization of the numerator failed for {g} at R={R}, N={N} "
                f"(LAPACK info {info})"
            )
        trsv = scipy.linalg.blas.dtrsv
        # A = U^T U: y = U^-1 (U^-T rhs) by two triangular solves
        solve = lambda rhs: trsv(factor, trsv(factor, rhs, trans=1))
        apply_a = lambda y: A @ y
    rhs = B[:, 0]  # B x for the first mode x = e_1
    best = math.inf
    for _ in range(_MAX_STEPS):
        y = solve(rhs)
        By = B @ y
        yBy = y @ By
        q = (y @ apply_a(y)) / yBy
        if not q < best:
            return float(best)
        best = q
        rhs = By / math.sqrt(yBy)  # B x for the next x = y, B-normalized
    raise RuntimeError(
        f"inverse iteration did not settle for {g} at R={R}, N={N} "
        f"(quotient still decreasing after {_MAX_STEPS} steps)"
    )


def sqrt_quotient(g: Symmetry, R: float, N: int = 400) -> float:
    """Oracle value of the square root of the normalized minimum.

    Rescales ``minimize`` from the 16 R^2 convention back to the quotient the
    closed-form solver reports the square root of.
    """
    return math.sqrt(minimize(g, R, N)) / (4 * R)
