"""Closed-form minimization of the support-constrained Rayleigh quotient.

Three computational branches cover all symmetry types and supports R:

* unitary kernel: the minimum is exactly 1/(16 R^2) for every R;
* O kernel (any R), or Sp/SO kernels up to half support: the optimizer is a
  single shifted cosine and the minimum solves a one-line transcendental
  relation inverted through the normalized-tangent map ``tan_ratio``;
* Sp/SO kernels past half support: the optimizer is a piecewise sinusoid
  whose continuity across an explicit partition of [-R, R] forces a linear
  system M_R x = rhs; eliminating x yields one real equation in the scaled
  frequency, and the minimum is its smallest admissible positive root.

The equation is evaluated in a regularized form: the raw statement divides by
the modulus of a complex amplitude and by a product of Chebyshev values, both
of which vanish on an excluded set.  Multiplying through by those factors
leaves a smooth function whose zeros away from the excluded set are exactly
the equation's roots, which is what a bracketing root scan needs.

The complex amplitude has scale 1 (the convention w := 1); the equation is
linear in that scale, so the root set does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Optional

import numpy as np

from . import chebyshev as cheb
from .symmetry import Symmetry

__all__ = [
    "RootScanError",
    "BoundResult",
    "EquationContext",
    "tan_ratio",
    "tan_ratio_fixed_point",
    "tan_ratio_inverse",
    "small_support_minimum",
    "build_context",
    "forcing_amplitude",
    "spectral_equation_two_piece",
    "first_root",
    "smallest_root",
    "u_product_roots",
    "equation_branch",
    "solve",
    "minimal_quotient",
]


#: The largest cond(M, 1) of a continuity matrix that ``build_context`` accepts.
DEGENERATE_COND = 1e10


class DegenerateRadiusError(ValueError):
    """The continuity matrix is numerically singular at this support
    (cond(M, 1) above ``DEGENERATE_COND``).

    A safety check: no support measured comes near it (see
    ``build_context``).
    """


class RootScanError(RuntimeError):
    """No admissible root was found in the scanned frequency range."""

    def __init__(self, message: str, grid: np.ndarray, values: np.ndarray):
        super().__init__(message)
        self.grid = grid
        self.values = values


# ---------------------------------------------------------------------------
# The normalized-tangent map and its inverse
# ---------------------------------------------------------------------------

_BRANCH_POINT = 0.25
#: The largest |y| that ``tan_ratio_inverse`` solves: its brackets stop
#: 1e-14 short of the pole at 1/4, where |tan_ratio| is about 1.012e13.
_TAN_RATIO_REACH = 1.01e13


def tan_ratio(x: float) -> float:
    """tan(2*pi*x) / (2*pi*x), with the limit value 1 at x = 0.

    Defined on [0, 1/4) union (1/4, x1) where x1 = ``tan_ratio_fixed_point``;
    strictly increasing on each branch, spanning [1, +inf) and (-inf, 1).
    """
    if math.isnan(x):
        raise ValueError(f"tan_ratio of {x!r}: not a number")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0:
        return 1.0
    if x == _BRANCH_POINT:
        raise ValueError("argument 1/4 is a pole")
    if x >= tan_ratio_fixed_point():
        raise ValueError("argument beyond the fixed point")
    t = 2 * math.pi * x
    return math.tan(t) / t


def _map(fn, x: np.ndarray) -> np.ndarray:
    """The float function fn (such as ``math.sin``) at every entry of x."""
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)


def _bisect(
    f,
    lo: float,
    hi: float,
    xtol: float,
    ends: Optional[tuple] = None,
    guess: Optional[float] = None,
) -> float:
    """One-at-a-time bisection of [lo, hi]; sign logic only, so invariant
    under f -> -f.

    ``f`` maps an ndarray of points to their values.  ``ends`` holds the
    values at lo and hi when the caller already has them; otherwise they
    are one call.  Each further call holds the whole midpoint path that
    bisection takes if the root is at a predicted point: ``guess`` for the
    first call when the caller has one, else where the secant of the
    current bracket crosses zero.  The walk takes the one-at-a-time steps
    through the values it gets back, and predicts again from the current
    bracket once its midpoint leaves the predicted path.  Every step reads
    f at the midpoint plain bisection visits, so the root is plain
    bisection's bit for bit, as long as ``f`` gives an array element the
    bits it gives the same point alone.
    """
    flo, fhi = np.asarray(f(np.array([lo, hi])) if ends is None else ends).tolist()
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ValueError("bisection bracket does not straddle a sign change")
    path, values, i = [], [], 0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if i == len(path) or path[i] != mid:
            if guess is None:
                guess = lo - flo * (hi - lo) / (fhi - flo)
            path, i, a, b = [], 0, lo, hi
            while b - a > xtol and a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                path.append(m)
                a, b = (a, m) if guess < m else (m, b)
            values = np.asarray(f(np.array(path))).tolist()
            guess = None
        fm = values[i]
        i += 1
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def _pole_free(gap):
    """x -> gap(t, tan t) * cos t on an ndarray x, with t = 2 pi x.

    On a bracket that keeps off the poles of tan, cos t is finite, nonzero
    and of one sign, so the product changes sign exactly where the gap
    does; unlike the gap it stays finite next to a pole, where the secant
    guesses of ``_bisect`` would otherwise stall.
    """

    def f(x):
        t = 2 * math.pi * x
        return gap(t, _map(math.tan, t)) * _map(math.cos, t)

    return f


@cache
def tan_ratio_fixed_point() -> float:
    """Smallest x > 1/4 with tan(2*pi*x) = 2*pi*x (approximately 0.715)."""
    return _bisect(_pole_free(lambda t, tan: tan - t), 0.25 + 1e-12, 0.75 - 1e-12, 1e-14)


def tan_ratio_inverse(y: float) -> float:
    """Unique preimage of y under ``tan_ratio`` on the appropriate branch.

    y > 1 inverts on (0, 1/4); y < 1 on (1/4, x1); y = 1 maps to 0.
    |y| up to 1.01e13 is solved; larger |y| and NaN raise ``ValueError``.
    """
    if math.isnan(y):
        raise ValueError(f"tan_ratio_inverse of {y!r}: not a number")
    if abs(y) > _TAN_RATIO_REACH:
        raise ValueError(
            f"tan_ratio_inverse solves |y| up to {_TAN_RATIO_REACH:g}, not y = {y!r}"
        )
    if y == 1.0:
        return 0.0
    if y > 1.0:
        lo, hi = 1e-15, _BRANCH_POINT - 1e-14
    else:
        lo, hi = _BRANCH_POINT + 1e-14, tan_ratio_fixed_point() - 1e-15
    # tan_ratio(x) - y, on a bracket that keeps off 0, 1/4 and x1
    return _bisect(_pole_free(lambda t, tan: tan / t - y), lo, hi, 1e-13)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """Outcome of one quotient minimization.

    ``m_tilde`` is the minimal normalized quotient, ``bound`` its square root
    (the quantity bounding the lowest zero), ``support`` the support R it was
    solved at, which is the one asked for, ``lam`` the scaled frequency
    2*pi*sqrt(m_tilde) when the transcendental branch produced it.
    """

    m_tilde: float
    bound: float
    branch: str
    support: float
    lam: Optional[float] = None


# ---------------------------------------------------------------------------
# Small-support branch
# ---------------------------------------------------------------------------

# The smallest supports solved.  The unitary minimum 1/(16 R^2) keeps R^2 a
# normal double down to 1.5e-154 (it overflows below R = 1.9e-155); the
# shifted cosine inverts tan_ratio at 1 + w/R with |w| = 1, which
# ``tan_ratio_inverse`` solves down to R = 1e-13.
_SMALLEST_UNITARY_SUPPORT = 1.5e-154
_SMALLEST_SUPPORT = 1e-13
# The largest supports solved.  The unitary minimum is subnormal past
# R = 1.68e153 (16 R^2 overflows past 3.35e153) and 2.8e-308 at 1.5e153.
# Rounding 1 + 1/R loses the last bits of 1/R, so the O minimum's relative
# error grows about like R * 1e-16: against a 40-digit inversion it stays
# below 6e-10 up to R = 5e6 and passes 1e-9 before R = 1e7.
_LARGEST_UNITARY_SUPPORT = 1.5e153
_LARGEST_O_SUPPORT = 5e6


def _check_support(g: Symmetry, R: float) -> None:
    """Raise ``ValueError`` for a support outside those g's minimum is
    solved at."""
    if R <= 0:
        raise ValueError("R must be positive")
    if not math.isfinite(R):
        raise ValueError(f"support R = {R!r} is not finite")
    smallest = _SMALLEST_UNITARY_SUPPORT if g is Symmetry.U else _SMALLEST_SUPPORT
    if R < smallest:
        raise ValueError(
            f"support R = {R!r} is below {smallest!r}, the smallest support the "
            f"{g.value} kernel is solved at (a height bound needs nu_max >= {2 * smallest!r})"
        )
    largest = {Symmetry.U: _LARGEST_UNITARY_SUPPORT, Symmetry.O: _LARGEST_O_SUPPORT}.get(g, math.inf)
    if R > largest:
        raise ValueError(
            f"support R = {R!r} is above {largest!r}, the largest support the "
            f"{g.value} kernel is solved at (a height bound needs nu_max <= {2 * largest!r})"
        )


def small_support_minimum(g: Symmetry, R: float) -> BoundResult:
    """Minimum via the shifted-cosine optimizer.

    Valid for the O kernel at every support and for Sp/SO kernels up to half
    support.  The defining relation inverts to

        sqrt(scaled minimum) = 4 * tan_ratio_inverse(1 + (delta + 2 eps)/R).

    Each call inverts ``tan_ratio``; ``solve`` keeps the minima it returns.
    """
    if g is Symmetry.U:
        raise ValueError("unitary kernel has its own exact branch")
    _check_support(g, R)
    if g is not Symmetry.O and R > 0.5:
        raise ValueError("Sp/SO kernels need the transcendental branch past R = 1/2")
    weight = float(g.corrective_weight)
    sqrt_m = 4 * tan_ratio_inverse(1.0 + weight / R)
    m_tilde = (sqrt_m / (4 * R)) ** 2
    return BoundResult(m_tilde, math.sqrt(m_tilde), "small_support", R)


# ---------------------------------------------------------------------------
# Equation context (partition, continuity matrix, weight contractions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationContext:
    """Everything about one (kernel, support) pair that does not depend on
    the unknown frequency.

    ``a`` holds the positive partition points a_1 < ... < a_n of [-R, R]
    (index 0 unused), with a_n = R.  ``theta_lo``/``theta_hi`` are the
    nonnegative Chebyshev frequencies of orders n-1 and n feeding the two
    blocks of the continuity matrix ``m_matrix``; ``u_lo``/``u_hi`` hold
    U_k at those frequencies, indexed [k, j] for k = 0..n-1.
    ``alpha``/``beta_arr`` are the integral contractions of the inverse
    matrix entering the final equation, and ``weights`` the per-order
    weights of ``spectral_equation``: the parts of (-i delta)^k and
    -(delta alpha_k/2 - 1 + eps beta_k).  A context may be shared between
    callers (see ``build_context``), so its arrays are read-only.
    """

    g: Symmetry
    R: float
    n: int
    a: np.ndarray
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    m_matrix: np.ndarray
    alpha: np.ndarray
    beta_arr: np.ndarray
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def delta(self) -> int:
        return self.g.delta

    @property
    def eps(self) -> float:
        return float(self.g.epsilon)


def _ipow(delta: int, p: int) -> complex:
    """(i*delta)^p computed exactly for delta = +-1 and integer p."""
    table = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
    q = (p if delta > 0 else -p) % 4
    return table[q]


class _OrderTables:
    """The support-independent tables of the contexts with n cells and
    kernel sign delta, built whole; shared between contexts, so every
    array is read-only.

    ``blocks`` holds the two blocks of the continuity matrix, orders n-1
    and n.  Each block holds its Chebyshev frequencies theta_j, the
    U_k(theta_j) table, the phases pi/2 * (j + delta * (n - 2k - p) / 2) of
    the continuity entries (p = 2, 1 for the two blocks), the sines of the
    phases at k = 0 (the first integral weight) and, per j, the sum over
    the block's orders k of U_k times the sine of the phase (the second);
    the tables are indexed [k, j].  ``powers`` holds the real and
    imaginary parts of (-i delta)^k for k < n.

    ``roots`` holds the positive roots of U_n * U_{n-1}
    (``u_product_roots``), ``excluded`` those where the root scan puts its
    windows, and ``points``, ``window`` and ``sums`` the scan of
    ``first_root`` with the amplitude sums at its points, up to one
    ``GRID_STEP`` past the one-mode frequency at R = (n - 1)/2 and eps = 0.
    That frequency bounds the one-mode frequency of every support with n
    cells: it falls as R grows, and eps = 1 only lowers it.
    """

    def __init__(self, n: int, delta: int):
        blocks = []
        for order, parity in ((n - 1, 2), (n, 1)):
            j = np.arange(1, (order + 1) // 2 + 1)
            theta = _map(math.cos, j * math.pi / (order + 1))
            u = cheb.u_stack(n - 1, theta)
            k = np.arange(n)[:, None]
            phase = 0.5 * math.pi * (j + delta * (n - 2 * k - parity) / 2.0)
            sines = _map(math.sin, phase[:order])
            beta_sum = _add_rows(u[:order] * sines) + 0.0
            blocks.append((theta, u, phase, sines[0], beta_sum))
        self.blocks = tuple(blocks)
        powers = [_ipow(-delta, k) for k in range(n)]
        self.powers = (np.array([p.real for p in powers]), np.array([p.imag for p in powers]))
        self.roots = u_product_roots(n)
        self.excluded = _windowed(self.roots)
        end = _upper_frequency((n - 1) / 2, delta, 0.0) + GRID_STEP
        self.points, self.window = _scan_points(end, self.excluded)
        self.sums = _amplitude_sum(delta, self.points, cheb.u_stack(n - 1, self.points))
        kept = (*self.powers, self.excluded, self.points, self.window, self.sums)
        for arr in (*kept, *(arr for block in blocks for arr in block)):
            arr.setflags(write=False)

    def scan(self, lam_max: float) -> tuple:
        """The scan points of ``first_root`` up to the first past lam_max,
        the window flags of their neighbour pairs, and the amplitude sums
        (``_amplitude_sum``) at the points, for a lam_max below the last
        point.  The scans of every lam_max are prefixes of one sequence (see
        ``_scan_points``), so the slice has the bits of a scan built to it.
        """
        cut = int(np.searchsorted(self.points, lam_max, side="right")) + 1
        return self.points[:cut], self.window[: cut - 1], self.sums[:, :cut]


#: The tables of the last 128 (n, delta) pairs used.
_order_tables = lru_cache(maxsize=128)(_OrderTables)


def build_context(g: Symmetry, R: float) -> EquationContext:
    """Assemble the frequency-independent data for the equation branch.

    Requires a Sp/SO kernel and finite R > 1/2.  The partition has n = ceil(2R)
    positive points and alternates cells of widths 2R-(n-1) and n-2R.
    Where 2R = n exactly, the second width is 0: this closed-end context
    is the limit of the contexts just below, and its empty cells carry no
    part of the optimizer.  Raises ``DegenerateRadiusError`` where the
    continuity matrix is numerically singular (cond(M, 1) above
    ``DEGENERATE_COND``); the largest measured is 3.3e5 over 20,000
    supports per kernel in (0.5, 20.4), and 2.8e5 over the closed-end
    contexts 2R = 2..40.

    The contexts of the last 16 (kernel, support) pairs are kept, each
    finished when first returned.  A float support and an equal
    ``np.float64`` one are separate entries, so the context's ``R`` keeps
    the type the caller passed.
    """
    return _build_context(g, R)


@lru_cache(maxsize=16, typed=True)
def _build_context(g: Symmetry, R: float) -> EquationContext:
    if g not in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        raise ValueError("equation branch applies to Sp and SO kernels only")
    if R <= 0.5:
        raise ValueError("equation branch requires R > 1/2")
    if not math.isfinite(R):
        raise ValueError(f"support R = {R!r} is not finite")
    n = math.ceil(2 * R)

    a = np.zeros(n + 1)
    a[n:0:-2] = R - np.arange((n + 1) // 2)
    a[n - 1 : 0 : -2] = (n - 1) - R - np.arange(n // 2)

    # Block lo holds the order-(n-1) modes in columns :n//2, block hi the
    # order-n modes in the rest; the integral weight vectors contract the
    # inverse matrix, each block integrating its modes over its home interval.
    tables = _order_tables(n, g.delta)
    lo, hi = tables.blocks
    M = np.empty((n, n))
    v_alpha = np.empty(n)
    v_beta = np.empty(n)
    for (theta, u, phase, alpha_sine, beta_sum), shift, c, cols in (
        (lo, a[n - 1] - (n - 2) / 2.0, R - n / 2.0, slice(None, n // 2)),
        (hi, a[n - 1] - (n - 1) / 2.0, R - (n - 1) / 2.0, slice(n // 2, None)),
    ):
        M[:, cols] = u * _map(math.sin, shift * theta - phase)
        ratio = c * np.sinc(c * theta / math.pi)  # sin(c theta) / theta
        v_alpha[cols] = 2 * ratio * alpha_sine
        v_beta[cols] = 2 * ratio * beta_sum

    cond = float(np.linalg.cond(M, 1))
    if cond > DEGENERATE_COND:
        raise DegenerateRadiusError(f"continuity matrix is singular at R={R!r} (cond {cond:.3e})")

    alpha = np.linalg.solve(M.T, v_alpha)
    beta_arr = np.linalg.solve(M.T, v_beta)
    neg_coef = -(g.delta * alpha / 2.0 - 1.0 + float(g.epsilon) * beta_arr)

    for arr in (a, M, alpha, beta_arr, neg_coef):
        arr.setflags(write=False)
    return EquationContext(
        g=g,
        R=R,
        n=n,
        a=a,
        theta_lo=lo[0],
        theta_hi=hi[0],
        u_lo=lo[1],
        u_hi=hi[1],
        m_matrix=M,
        alpha=alpha,
        beta_arr=beta_arr,
        weights=(*tables.powers, neg_coef),
    )


# ---------------------------------------------------------------------------
# The transcendental equation
# ---------------------------------------------------------------------------

def _add_rows(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ... added in that order, as a new array.

    The one home of the rule that keeps every array sum's bits: an array
    call and a call on each entry alone add the same operands in the same
    order.  ``np.add.reduce`` adds pairwise only along the axis that is
    fastest in memory, so the rows are copied, where needed, into a
    C-contiguous [row, entry] table and reduced along axis 0, which adds
    row 0, then row 1, and so on.  Rows of one entry or none (a stack of
    scalars, a call at one point, an empty array) would be reduced along
    the fast axis; they go through ``np.add.accumulate``, sequential by
    definition, of which only the last partial sum is kept, copied, so no
    view holds the others alive.  A sum that starts at +0.0, as a loop
    into a total of 0.0 does, is ``_add_rows(rows) + 0.0``: the two differ
    at most in the sign of a zero, which adding +0.0 clears.
    """
    size = rows[0].size
    if size <= 1:
        return np.add.accumulate(rows, axis=0)[-1].copy()
    table = np.ascontiguousarray(rows).reshape(len(rows), size)
    return np.add.reduce(table, axis=0).reshape(rows.shape[1:])


def _amplitude_sum(delta: int, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sum_k (i delta e^{i lam})^k U_k(lam)`` over the orders k of the
    stack ``u`` (indexed [k, ...]) at the ndarray ``lam``: its real and
    imaginary parts, indexed [0 or 1, ...].  Depends on no support.
    """
    zfac = 1j * delta * np.exp(1j * lam)
    fr, fi = zfac.real, zfac.imag
    # General complex products are spelled out in real parts, as a scalar
    # complex multiply computes them: numpy's array multiply may fuse the
    # multiply-adds, and array and scalar calls must agree bit for bit.
    # z[k] holds the real and imaginary parts of zfac**k, one product at a
    # time: (zr fr + zi (-fi), zr fi + zi fr), and x + (-y) is x - y exactly.
    rot = np.array([[fr, -fi], [fi, fr]])
    z = np.empty(u.shape[:1] + (2,) + lam.shape)
    z[0, 0], z[0, 1] = 1.0, 0.0
    for k in range(1, len(u)):
        prod = z[k - 1] * rot
        np.add(prod[:, 0], prod[:, 1], out=z[k])
    z *= u[:, None]  # row 0 becomes (U_0, 0.0) = (1.0, 0.0) exactly
    return _add_rows(z)


def _scaled_amplitude(ctx: EquationContext, lam: np.ndarray, amp: np.ndarray) -> tuple:
    """Real and imaginary parts of the complex forcing amplitude times
    U_n * U_{n-1}; entire in the frequency.

    Equals ``-2i exp(-i lam a_{n-1})`` times the amplitude sum ``amp`` of
    ``_amplitude_sum`` over the orders 0..n-1 (scale 1), the pole-free
    numerator of ``forcing_amplitude``.
    """
    acc_r, acc_i = amp
    lead = -2j * np.exp(-1j * lam * ctx.a[ctx.n - 1])
    lr, li = lead.real, lead.imag
    return lr * acc_r - li * acc_i, lr * acc_i + li * acc_r


def forcing_amplitude(ctx: EquationContext, lam: float) -> complex:
    """Complex amplitude whose modulus/argument feed the continuity system.

    Undefined within ``EXCLUSION_CORE`` of a root of U_n * U_{n-1}; those
    frequencies are excluded from the root search as well.
    """
    return _amplitude_and_stack(ctx, lam)[0]


def _amplitude_and_stack(ctx: EquationContext, lam: float) -> tuple[complex, np.ndarray]:
    """``forcing_amplitude`` at lam, with the stack U_0(lam)..U_n(lam) it
    is built from; the roots of U_n * U_{n-1} are read from the (n, delta)
    tables."""
    if lam <= 0:
        raise ValueError("frequency must be positive")
    for root in _order_tables(ctx.n, ctx.delta).roots:
        if abs(lam - root) < EXCLUSION_CORE:
            raise ValueError(f"frequency {lam} is excluded (Chebyshev root)")
    lam = np.asarray(lam, dtype=float)
    u = cheb.u_stack(ctx.n, lam)
    re, im = _scaled_amplitude(ctx, lam, _amplitude_sum(ctx.delta, lam, u[: ctx.n]))
    return complex(float(re), float(im)) / float(u[ctx.n] * u[ctx.n - 1]), u


def u_product_roots(n: int) -> list[float]:
    """Positive roots of U_n * U_{n-1} (all lie strictly inside (0, 1))."""
    roots = [r for r in cheb.u_roots(n) if r > 0]
    roots += [r for r in cheb.u_roots(n - 1) if r > 0]
    return sorted(roots)


def spectral_equation(ctx: EquationContext, lam, _sums=None):
    """Regularized left side of the minimum-pinning equation.

    The raw equation reads, with Z the forcing amplitude r*e^{i theta},

        (delta/lam) cos(theta)
        - sum_k U_k(lam) sin(theta - k delta pi/2) [delta alpha_k/2 - 1 + eps beta_k]
        + (2 eps/lam) sum_k U_k(lam) cos(theta - k delta pi/2) = 0 .

    Multiplying through by r * U_n * U_{n-1} replaces every trigonometric
    factor by a real/imaginary part of the scaled amplitude, removing both
    the argument's branch jumps and the Chebyshev-root poles.  Zeros away
    from roots of U_n * U_{n-1} are exactly the equation's roots.  Accepts a
    scalar or ndarray of frequencies.  ``_sums`` is internal: the root scan
    hands over the amplitude sums at lam that it keeps per (n, delta).
    """
    lam = np.asarray(lam, dtype=float)
    delta = ctx.delta
    eps = ctx.eps
    u = cheb.u_stack(ctx.n - 1, lam)
    re, im = _scaled_amplitude(ctx, lam, _amplitude_sum(delta, lam, u) if _sums is None else _sums)
    # Row 1 + k holds term k of the sine sum, negated, and with eps the
    # rows interleave it with term k of the cosine sum; zk = ztil * (-i
    # delta)^k is written out in real parts as a complex multiply computes
    # it, the power's parts c and d being 0 or +-1.  Adding the negated term
    # is subtracting it, bit for bit.
    column = (-1,) + (1,) * lam.ndim
    c, d, neg_coef = (v.reshape(column) for v in ctx.weights)
    rows = np.empty((1 + ctx.n * (2 if eps else 1),) + lam.shape)
    rows[0] = (delta / lam) * re
    np.multiply(u * (re * d + im * c), neg_coef, out=rows[1::2] if eps else rows[1:])
    if eps:
        np.multiply((2 * eps / lam) * u, re * c - im * d, out=rows[2::2])
    out = _add_rows(rows)
    return out if out.shape else float(out)


def spectral_equation_two_piece(g: Symmetry, R: float, lam):
    """Reduced left side valid when the partition has two positive cells
    (1/2 < R <= 1, the closed-end context at R = 1 included); roots away
    from the excluded set match the general form.
    """
    if g not in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        raise ValueError("two-piece equation applies to Sp and SO kernels only")
    if not 0.5 < R <= 1.0:
        raise ValueError("two-piece reduction requires 1/2 < R <= 1")
    lam = np.asarray(lam, dtype=float)
    delta = g.delta
    weight = float(g.corrective_weight)
    eps = float(g.epsilon)
    theta_cap = 0.5 * (R - 0.5) + 0.5 * math.pi * (1 + delta / 2.0)
    s_part = np.sin(lam * (1 - R)) - 2 * delta * lam * np.cos(lam * R)
    c_part = np.cos(lam * (1 - R)) - 2 * delta * lam * np.sin(lam * R)
    bracket = weight * (1 - R) - 1 + 4 * eps
    out = weight * (1 - 4 * lam**2) / lam * s_part - bracket * (
        c_part - 2 * lam * math.tan(theta_cap) * s_part
    )
    return out if out.shape else float(out)


def _upper_frequency(R: float, delta: int, eps: float) -> float:
    """The one-mode frequency of the kernel (delta, eps) at R: the scan's end.

    Past half support the first basis mode cos(pi u / 2R) is admissible, so
    its quotient A/B bounds the minimum from above and its frequency
    (pi/2R) sqrt(A/B) bounds the smallest root.  With s = sin(pi/2R) and
    h = sin(pi/4R),

        A = 1 + delta (2R - 1) s / pi,    B = A + 8R (delta h^2 + 2 eps) / pi^2,

    where 2 h^2 stands for 1 - cos(pi/2R), which cancels at large R.
    """
    h = math.sin(math.pi / (4 * R))
    a = 1 + delta * (2 * R - 1) * math.sin(math.pi / (2 * R)) / math.pi
    b = a + 8 * R * (delta * h * h + 2 * eps) / math.pi**2
    return math.pi / (2 * R) * math.sqrt(a / b)


GRID_STEP = 1e-3
EXCLUSION_RADIUS = 1e-6
EXCLUSION_CORE = 1e-9
ROOT_XTOL = 1e-12
#: The most scan points the first guess of a root's bisection interpolates
#: through (see ``_first_bracket``).
GUESS_POINTS = 10


def first_root(f, lam_max: float, excluded) -> float:
    """Smallest sign change of ``f`` in (0, lam_max] away from ``excluded``.

    ``f`` takes a scalar or an ndarray of frequencies; ``excluded`` is
    ascending.  The scan grid steps by ``GRID_STEP`` and is split at every
    excluded frequency e above its first point: the grid points within
    ``EXCLUSION_RADIUS`` of e give way to e -+ ``EXCLUSION_RADIUS``.  The
    regularized equations genuinely vanish at the excluded frequencies, so
    a window [e -+ radius] whose ends differ in sign holds no root, and one
    whose ends agree holds a second zero besides e: that root is bisected
    in whichever of [e - radius, e - core] and [e + core, e + radius]
    changes sign, with core ``EXCLUSION_CORE``, and a root inside the core
    raises.  f is evaluated once at every scan point up to the first past
    lam_max; a ``RootScanError`` carries those points and values.  The
    first bracket is bisected to ``ROOT_XTOL`` (see ``_first_bracket``).
    """
    ex = _windowed(excluded)
    pts, window = _scan_points(lam_max, ex)
    vals = np.asarray(f(pts), dtype=float)
    f, lo, hi, ends, guess = _first_bracket(f, pts, window, vals, ex, repr(lam_max))
    return _bisect(f, lo, hi, ROOT_XTOL, ends, guess)


def _windowed(excluded) -> np.ndarray:
    """The excluded frequencies above the first grid point, which get windows."""
    ex = np.asarray(excluded, dtype=float)
    return ex[ex > GRID_STEP]


def _scan_points(lam_max: float, ex: np.ndarray) -> tuple:
    """The scan points of ``first_root`` up to the first past lam_max,
    given the windowed frequencies ex, and per pair of neighbours whether
    it spans a window.

    A grid is a bitwise prefix of any longer one (``np.arange`` writes
    start + i * step), and every e in ex gets its window wherever the grid
    ends, so the scan points of every lam_max are prefixes of one sequence.
    """
    grid = np.arange(GRID_STEP, lam_max + 2 * GRID_STEP, GRID_STEP)
    windows = np.column_stack([ex - EXCLUSION_RADIUS, ex + EXCLUSION_RADIUS])
    pieces = np.split(grid, np.searchsorted(grid, windows.ravel()))
    pieces[1::2] = windows  # odd pieces held the grid points inside a window
    pts = np.concatenate(pieces)
    pts = pts[: int(np.searchsorted(pts, lam_max, side="right")) + 1]
    below = np.searchsorted(ex, pts)  # excluded frequencies below each point
    return pts, below[:-1] != below[1:]


def _first_bracket(f, pts, window, vals, ex, end: str) -> tuple:
    """The first bracket of the scan of ``first_root`` (f's values ``vals``
    at ``pts``; ``end`` names the scan end when there is no bracket):
    (function, lo, hi, end values, guess) to hand ``_bisect``.

    The function is f divided by lam^2 - e^2 for the windowed frequency e
    nearest the bracket: no bracket holds an excluded frequency, and every
    point is positive, so the division flips no sign within it, and it
    takes out the zero at e that would bend the secant guesses of a
    bracket next to e.  The end values are the scan's (or the exclusion
    core's), divided the same way.

    The guess is the square root of the zero in (lo^2, hi^2) of the
    polynomial that interpolates the divided values as a function of lam^2
    (``_forward_zero``) through the longest run of scan points around the
    bracket that holds no window, up to ``GUESS_POINTS``: the run grows by
    one point at a time on the side with fewer, or on the one side left
    where a window or the scan's end stops the other.  There is no guess
    when the bracket is a window or its two values are equal (both zero),
    and then the bisection starts from the secant.  The equations are
    nearly even in lam, so near 0, where the SO- roots of many cells lie,
    they are flat in lam but not in lam^2.
    """
    sign = np.signbit(vals)
    hits = np.flatnonzero((sign[:-1] != sign[1:]) != window)
    if not hits.size:
        raise RootScanError(f"no admissible root up to {end}", pts, vals)
    i = int(hits[0])
    lo, hi = float(pts[i]), float(pts[i + 1])
    ends = (vals[i], vals[i + 1])
    if window[i]:
        e = float(ex[np.searchsorted(ex, pts[i])])
        core = np.asarray(f(np.array([e - EXCLUSION_CORE, e + EXCLUSION_CORE])))
        if np.signbit(core[0]) != sign[i]:
            hi, ends = e - EXCLUSION_CORE, (vals[i], core[0])
        elif np.signbit(core[1]) != sign[i + 1]:
            lo, ends = e + EXCLUSION_CORE, (core[1], vals[i + 1])
        else:
            raise RootScanError(
                f"root within {EXCLUSION_CORE:g} of excluded frequency {e!r}", pts, vals
            )
    if ex.size:
        e = float(ex[np.argmin(np.abs(ex - 0.5 * (lo + hi)))])
        f = lambda lam, f=f: np.asarray(f(lam)) / (lam * lam - e * e)
        ends = (ends[0] / (lo * lo - e * e), ends[1] / (hi * hi - e * e))
    guess = None
    if not window[i] and ends[0] != ends[1]:
        a, b = i, i + 1  # the run is pts[a : b + 1]; grow it on the shorter side first
        while b - a + 1 < GUESS_POINTS:
            left = a > 0 and not window[a - 1]
            right = b + 1 < vals.size and not window[b]
            if not (left or right):
                break
            if left and (not right or i - a <= b - i - 1):
                a -= 1
            else:
                b += 1
        x, y = pts[a : b + 1], vals[a : b + 1]
        if ex.size:
            y = y / (x * x - e * e)
        guess = _forward_zero(x.tolist(), y.tolist(), i - a)
    return f, lo, hi, ends, guess


def _forward_zero(x: list, y: list, k: int) -> Optional[float]:
    """sqrt(t) for the zero t in (x_k^2, x_(k+1)^2) of the polynomial
    through the points (x_j^2, y_j), where y_k and y_(k+1) differ in sign.

    Newton's method on the polynomial's divided-difference form, from the
    secant of that bracket, until its step stops shrinking; None once a
    step leaves the bracket.
    """
    # c[j] becomes the divided difference over the points 0..j; each
    # x_j^2 - x_i^2 is taken as (x_j - x_i)(x_j + x_i), nonzero for x_j != x_i
    m, c = len(x), list(y)
    for d in range(1, m):
        for j in range(m - 1, d - 1, -1):
            c[j] = (c[j] - c[j - 1]) / ((x[j] - x[j - d]) * (x[j] + x[j - d]))
    s = [v * v for v in x]
    lo, hi, ylo, yhi = s[k], s[k + 1], y[k], y[k + 1]
    t, last = lo - ylo * (hi - lo) / (yhi - ylo), math.inf
    while True:
        p, dp = c[-1], 0.0
        for sj, cj in zip(s[-2::-1], c[-2::-1]):
            dp = dp * (t - sj) + p
            p = p * (t - sj) + cj
        step = p / dp if dp else math.inf
        if not lo < t - step < hi:
            return None
        if not abs(step) < last:
            return math.sqrt(t)
        t, last = t - step, abs(step)


def smallest_root(ctx: EquationContext) -> float:
    """Smallest positive root of the equation away from the excluded set.

    The scan ends at the one-mode frequency (``_upper_frequency``), which
    bounds the root.  Its points and amplitude sums are a slice of the
    record every context of the same n and delta shares (``_OrderTables``).
    The scans of every end are prefixes of one sequence, so any end above
    the root gives the root the same bits.  ``solve`` keeps the roots.
    """
    lam_up = _upper_frequency(ctx.R, ctx.delta, ctx.eps)
    tables = _order_tables(ctx.n, ctx.delta)
    pts, window, sums = tables.scan(lam_up)
    f = lambda lam: spectral_equation(ctx, lam)
    vals = spectral_equation(ctx, pts, _sums=sums)
    end = f"the one-mode frequency {lam_up!r}"
    try:
        f, lo, hi, ends, guess = _first_bracket(f, pts, window, vals, tables.excluded, end)
    except RootScanError as exc:
        message = f"{exc} for {ctx.g.value} at R={ctx.R}"
        raise RootScanError(message, exc.grid, exc.values) from None
    return _bisect(f, lo, hi, ROOT_XTOL, ends, guess)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def equation_branch(g: Symmetry, R: float) -> bool:
    """True where the minimum solves the transcendental equation: Sp and SO
    kernels past half support.  The U kernel has its exact value and the O
    kernel, like every kernel up to half support, the shifted cosine."""
    return g not in (Symmetry.U, Symmetry.O) and R > 0.5


@lru_cache(maxsize=16, typed=True)
def solve(g: Symmetry, R: float) -> tuple[BoundResult, Optional[EquationContext]]:
    """Minimum for kernel g at support R, with the context it was solved on.

    Dispatches on kernel and support: exact unitary value, shifted-cosine
    branch, or transcendental-equation branch; the context is None off the
    equation branch.  Every support is solved where it is asked, 2R an
    integer included (see ``build_context``).  A support below the
    smallest solved, 1e-13 (1.5e-154 for U), a U support above 1.5e153 or
    an O support above 5e6 raises ``ValueError`` naming the limit, a NaN
    or infinite support one naming the value, and a singular continuity
    matrix raises ``DegenerateRadiusError``.

    The results of the last 16 (kernel, support) pairs are kept (not a
    raise), so ``minimal_quotient`` and ``reconstruct`` at one support
    solve it once.  A float support and an equal ``np.float64`` one are
    separate entries, so ``support`` keeps the type the caller passed.
    """
    _check_support(g, R)
    if g is Symmetry.U:
        m_tilde = 1.0 / (16 * R * R)
        return BoundResult(m_tilde, math.sqrt(m_tilde), "unitary_exact", R), None
    if not equation_branch(g, R):
        return small_support_minimum(g, R), None

    ctx = build_context(g, R)
    lam = smallest_root(ctx)
    m_tilde = (lam / (2 * math.pi)) ** 2
    return BoundResult(m_tilde, math.sqrt(m_tilde), "transcendental", R, lam), ctx


def minimal_quotient(g: Symmetry, R: float) -> BoundResult:
    """Minimal normalized Rayleigh quotient for kernel g at support R; see
    ``solve``."""
    return solve(g, R)[0]
