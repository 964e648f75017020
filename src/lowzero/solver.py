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
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import chebyshev as cheb
from .symmetry import Symmetry

__all__ = [
    "DegenerateRadiusError",
    "RootScanError",
    "BoundResult",
    "EquationContext",
    "tan_ratio",
    "tan_ratio_fixed_point",
    "tan_ratio_inverse",
    "small_support_minimum",
    "build_context",
    "forcing_amplitude",
    "spectral_equation",
    "spectral_equation_two_piece",
    "first_root",
    "smallest_root",
    "u_product_roots",
    "equation_branch",
    "solve",
    "minimal_quotient",
]


class DegenerateRadiusError(ValueError):
    """The continuity matrix is numerically singular at this support.

    Happens for at most finitely many R per unit interval; callers should
    perturb R by ~1e-6 and retry.
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


def tan_ratio(x: float) -> float:
    """tan(2*pi*x) / (2*pi*x), with the limit value 1 at x = 0.

    Defined on [0, 1/4) union (1/4, x1) where x1 = ``tan_ratio_fixed_point``;
    strictly increasing on each branch, spanning [1, +inf) and (-inf, 1).
    """
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


def _bisect(f, lo: float, hi: float, xtol: float, levels: int = 1) -> float:
    """Plain bisection; sign logic only, so invariant under f -> -f.

    With ``levels`` > 1, ``f`` takes an ndarray: the two ends go in one call,
    then each call holds the 2**levels - 1 midpoints the next ``levels``
    halvings can reach, in heap order (node i halves into 2i+1 and 2i+2).
    The walk down that tree takes exactly the steps of one-at-a-time
    bisection, so the root does not depend on ``levels`` as long as ``f``
    gives an array element the bits it gives the same float.
    """

    def evaluate(xs):
        return f(np.array(xs)).tolist() if levels > 1 else [f(x) for x in xs]

    flo, fhi = evaluate([lo, hi])
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ValueError("bisection bracket does not straddle a sign change")
    while hi - lo > xtol:
        mids, cells = [], [(lo, hi)]
        while len(mids) < 2**levels - 1:
            a, b = cells[len(mids)]
            mid = 0.5 * (a + b)
            mids.append(mid)
            cells += [(a, mid), (mid, b)]
        values = evaluate(mids)
        node = 0
        for _ in range(levels):
            if hi - lo <= xtol:
                break
            mid = mids[node]  # equals 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                return mid
            fm = values[node]
            if fm == 0.0:
                return mid
            if (fm < 0) == (flo < 0):
                lo, flo, node = mid, fm, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
    return 0.5 * (lo + hi)


_X1_CACHE: Optional[float] = None


def tan_ratio_fixed_point() -> float:
    """Smallest x > 1/4 with tan(2*pi*x) = 2*pi*x (approximately 0.715)."""
    global _X1_CACHE
    if _X1_CACHE is None:
        f = lambda x: math.tan(2 * math.pi * x) - 2 * math.pi * x
        _X1_CACHE = _bisect(f, 0.25 + 1e-12, 0.75 - 1e-12, 1e-14)
    return _X1_CACHE


def tan_ratio_inverse(y: float) -> float:
    """Unique preimage of y under ``tan_ratio`` on the appropriate branch.

    y > 1 inverts on (0, 1/4); y < 1 on (1/4, x1); y = 1 maps to 0.
    """
    if y == 1.0:
        return 0.0
    if y > 1.0:
        lo, hi = 1e-15, _BRANCH_POINT - 1e-14
    else:
        lo, hi = _BRANCH_POINT + 1e-14, tan_ratio_fixed_point() - 1e-15
    return _bisect(lambda x: tan_ratio(x) - y, lo, hi, 1e-13)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """Outcome of one quotient minimization.

    ``m_tilde`` is the minimal normalized quotient, ``bound`` its square root
    (the quantity bounding the lowest zero), ``support`` the support R it was
    solved at (after any nudge off a degenerate support), ``lam`` the scaled
    frequency 2*pi*sqrt(m_tilde) when the transcendental branch produced it.
    The Sp diagnostic fields record the near-integer flag described in
    ``solve``.
    """

    m_tilde: float
    bound: float
    branch: str
    support: float
    lam: Optional[float] = None
    sp_flag: bool = False
    sp_compat_integral: Optional[float] = None


# ---------------------------------------------------------------------------
# Small-support branch
# ---------------------------------------------------------------------------

def small_support_minimum(g: Symmetry, R: float) -> BoundResult:
    """Minimum via the shifted-cosine optimizer.

    Valid for the O kernel at every support and for Sp/SO kernels up to half
    support.  The defining relation inverts to

        sqrt(scaled minimum) = 4 * tan_ratio_inverse(1 + (delta + 2 eps)/R).
    """
    if g is Symmetry.U:
        raise ValueError("unitary kernel has its own exact branch")
    if R <= 0:
        raise ValueError("R must be positive")
    if g is not Symmetry.O and R > 0.5:
        raise ValueError("Sp/SO kernels need the transcendental branch past R = 1/2")
    weight = float(g.corrective_weight)
    sqrt_m = 4 * tan_ratio_inverse(1.0 + weight / R)
    m_tilde = (sqrt_m / (4 * R)) ** 2
    return BoundResult(
        m_tilde=m_tilde,
        bound=math.sqrt(m_tilde),
        branch="small_support",
        support=R,
    )


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
    matrix entering the final equation.  A context may be shared between
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

    @property
    def delta(self) -> int:
        return self.g.delta

    @property
    def eps(self) -> float:
        return float(self.g.epsilon)

    def breakpoints(self) -> np.ndarray:
        """All 2n partition points of [-R, R], sorted ascending."""
        pos = self.a[1:]
        return np.concatenate([-pos[::-1], pos])

    @cached_property
    def root(self) -> float:
        """``smallest_root`` of this context, computed on first use."""
        return smallest_root(self)


def _ipow(delta: int, p: int) -> complex:
    """(i*delta)^p computed exactly for delta = +-1 and integer p."""
    table = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
    q = (p if delta > 0 else -p) % 4
    return table[q]


def _sin_over_theta(c: float, theta: float) -> float:
    """sin(c*theta)/theta with its limit c at theta = 0."""
    return c * float(np.sinc(c * theta / math.pi))


def build_context(g: Symmetry, R: float) -> EquationContext:
    """Assemble the frequency-independent data for the equation branch.

    Requires a Sp/SO kernel, R > 1/2, and 2R away from integers (the
    partition alternates gaps of 2R-(n-1) and n-2R, both of which must stay
    positive).  Raises ``DegenerateRadiusError`` at the finitely many R where
    the continuity matrix degenerates.

    The contexts of the last 16 (kernel, support) pairs are kept, so a
    support solved a moment ago returns the same context, with its root.
    A float support and an equal ``np.float64`` one are separate entries,
    so the context's ``R`` keeps the type the caller passed.
    """
    return _build_context(g, R)


@lru_cache(maxsize=16, typed=True)
def _build_context(g: Symmetry, R: float) -> EquationContext:
    if g not in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        raise ValueError("equation branch applies to Sp and SO kernels only")
    if R <= 0.5:
        raise ValueError("equation branch requires R > 1/2")
    if abs(2 * R - round(2 * R)) < 1e-9:
        raise ValueError("2R must not be (numerically) an integer")
    delta = g.delta
    n = int(math.floor(2 * R)) + 1

    a = np.zeros(n + 1)
    for i in range((n - 1) // 2 + 1):
        a[n - 2 * i] = R - i
    for i in range((n - 2) // 2 + 1):
        a[n - 2 * i - 1] = math.floor(2 * R) - R - i

    theta_lo = np.array([math.cos(j * math.pi / n) for j in range(1, n // 2 + 1)])
    theta_hi = np.array(
        [math.cos(j * math.pi / (n + 1)) for j in range(1, (n + 1) // 2 + 1)]
    )

    shift_lo = a[n - 1] - (n - 2) / 2.0
    shift_hi = a[n - 1] - (n - 1) / 2.0
    u_lo = np.array(cheb.u_stack(n - 1, theta_lo))
    u_hi = np.array(cheb.u_stack(n - 1, theta_hi))
    M = np.zeros((n, n))
    for k in range(n):
        for j0, th in enumerate(theta_lo):
            j = j0 + 1
            M[k, j0] = u_lo[k, j0] * math.sin(
                shift_lo * th - 0.5 * math.pi * (j + delta * (n - 2 * k - 2) / 2.0)
            )
        for j0, th in enumerate(theta_hi):
            j = j0 + 1
            M[k, n // 2 + j0] = u_hi[k, j0] * math.sin(
                shift_hi * th - 0.5 * math.pi * (j + delta * (n - 2 * k - 1) / 2.0)
            )

    cond = float(np.linalg.cond(M, 1))
    if cond > 1e10:
        raise DegenerateRadiusError(
            f"continuity matrix is singular at R={R!r} (cond {cond:.3e}); "
            "perturb R by about 1e-6 and retry"
        )

    # Weight vectors contracting the inverse matrix into the two integral
    # coefficient arrays; the first block integrates the order-(n-1) modes
    # over their home interval, the second the order-n modes.
    c_lo = R - n / 2.0
    c_hi = R - (n - 1) / 2.0
    v_alpha = np.zeros(n)
    v_beta = np.zeros(n)
    for j0, th in enumerate(theta_lo):
        j = j0 + 1
        ratio = _sin_over_theta(c_lo, th)
        v_alpha[j0] = 2 * ratio * math.sin(0.5 * math.pi * (j + delta * (n - 2) / 2.0))
        acc = 0.0
        for l in range(n - 1):
            acc += u_lo[l, j0] * math.sin(
                0.5 * math.pi * (j + delta * (n - 2 * l - 2) / 2.0)
            )
        v_beta[j0] = 2 * ratio * acc
    for j0, th in enumerate(theta_hi):
        j = j0 + 1
        ratio = _sin_over_theta(c_hi, th)
        col = n // 2 + j0
        v_alpha[col] = 2 * ratio * math.sin(0.5 * math.pi * (j + delta * (n - 1) / 2.0))
        acc = 0.0
        for l in range(n):
            acc += u_hi[l, j0] * math.sin(
                0.5 * math.pi * (j + delta * (n - 2 * l - 1) / 2.0)
            )
        v_beta[col] = 2 * ratio * acc

    alpha = np.linalg.solve(M.T, v_alpha)
    beta_arr = np.linalg.solve(M.T, v_beta)

    for arr in (a, theta_lo, theta_hi, u_lo, u_hi, M, alpha, beta_arr):
        arr.setflags(write=False)
    return EquationContext(
        g=g,
        R=R,
        n=n,
        a=a,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        u_lo=u_lo,
        u_hi=u_hi,
        m_matrix=M,
        alpha=alpha,
        beta_arr=beta_arr,
    )


# ---------------------------------------------------------------------------
# The transcendental equation
# ---------------------------------------------------------------------------

def _scaled_amplitude(ctx: EquationContext, lam: np.ndarray, u) -> np.ndarray:
    """Complex forcing amplitude times U_n * U_{n-1}; entire in the frequency.

    Equals ``-2i exp(-i lam a_{n-1}) sum_k (i delta e^{i lam})^k U_k(lam)``
    (scale 1), the pole-free numerator of ``forcing_amplitude``, given the
    stack ``u`` of U_0(lam)..U_{n-1}(lam) (or more orders) at the ndarray
    ``lam``.
    """
    delta = ctx.delta
    zfac = 1j * delta * np.exp(1j * lam)
    fr, fi = zfac.real, zfac.imag
    # General complex products are spelled out in real parts, as a scalar
    # complex multiply computes them: numpy's array multiply may fuse the
    # multiply-adds, and array and scalar calls must agree bit for bit.
    zr, zi = 1.0, 0.0
    acc_r, acc_i = u[0], 0.0
    for k in range(1, ctx.n):
        zr, zi = zr * fr - zi * fi, zr * fi + zi * fr
        acc_r = acc_r + zr * u[k]
        acc_i = acc_i + zi * u[k]
    lead = -2j * np.exp(-1j * lam * ctx.a[ctx.n - 1])
    lr, li = lead.real, lead.imag
    out = np.empty(lam.shape, dtype=complex)
    out.real = lr * acc_r - li * acc_i
    out.imag = lr * acc_i + li * acc_r
    return out


def forcing_amplitude(ctx: EquationContext, lam: float) -> complex:
    """Complex amplitude whose modulus/argument feed the continuity system.

    Undefined within 1e-9 of a root of U_n * U_{n-1}; those frequencies are
    excluded from the root search as well.
    """
    if lam <= 0:
        raise ValueError("frequency must be positive")
    for root in u_product_roots(ctx.n):
        if abs(lam - root) < 1e-9:
            raise ValueError(f"frequency {lam} is excluded (Chebyshev root)")
    lam = np.asarray(lam, dtype=float)
    u = cheb.u_stack(ctx.n, lam)
    return complex(_scaled_amplitude(ctx, lam, u)) / float(u[ctx.n] * u[ctx.n - 1])


def u_product_roots(n: int) -> list[float]:
    """Positive roots of U_n * U_{n-1} (all lie strictly inside (0, 1))."""
    roots = [r for r in cheb.u_roots(n) if r > 0]
    roots += [r for r in cheb.u_roots(n - 1) if r > 0]
    return sorted(roots)


def spectral_equation(ctx: EquationContext, lam):
    """Regularized left side of the minimum-pinning equation.

    The raw equation reads, with Z the forcing amplitude r*e^{i theta},

        (delta/lam) cos(theta)
        - sum_k U_k(lam) sin(theta - k delta pi/2) [delta alpha_k/2 - 1 + eps beta_k]
        + (2 eps/lam) sum_k U_k(lam) cos(theta - k delta pi/2) = 0 .

    Multiplying through by r * U_n * U_{n-1} replaces every trigonometric
    factor by a real/imaginary part of the scaled amplitude, removing both
    the argument's branch jumps and the Chebyshev-root poles.  Zeros away
    from roots of U_n * U_{n-1} are exactly the equation's roots.  Accepts a
    scalar or ndarray of frequencies.
    """
    lam = np.asarray(lam, dtype=float)
    delta = ctx.delta
    eps = ctx.eps
    u = cheb.u_stack(ctx.n - 1, lam)
    ztil = _scaled_amplitude(ctx, lam, u)
    out = (delta / lam) * ztil.real
    for k in range(ctx.n):
        zk = ztil * _ipow(-delta, k)
        coef = delta * ctx.alpha[k] / 2.0 - 1.0 + eps * ctx.beta_arr[k]
        out = out - u[k] * zk.imag * coef
        if eps:
            out = out + (2 * eps / lam) * u[k] * zk.real
    return out if out.shape else float(out)


def spectral_equation_two_piece(g: Symmetry, R: float, lam):
    """Reduced left side valid when the partition has two positive cells
    (1/2 < R < 1); roots away from the excluded set match the general form.
    """
    if g not in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        raise ValueError("two-piece equation applies to Sp and SO kernels only")
    if not 0.5 < R < 1.0:
        raise ValueError("two-piece reduction requires 1/2 < R < 1")
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


def _upper_frequency(ctx: EquationContext) -> float:
    """Safe upper end for the root scan.

    The first basis mode gives a closed-form upper bound on the scaled
    minimum; the corresponding frequency, padded by a factor 4, must contain
    the smallest root.
    """
    from . import rayleigh

    forms = rayleigh.assemble_forms(ctx.g, ctx.R, 1)
    m_up = forms.numerator[0, 0] / forms.denominator[0, 0]
    return 4 * math.pi * math.sqrt(m_up) / (2 * ctx.R)


GRID_STEP = 1e-3
EXCLUSION_RADIUS = 1e-6
EXCLUSION_CORE = 1e-9
ROOT_XTOL = 1e-12
_BISECT_LEVELS = 6  # halvings per call of the equation: 63 points per call


def first_root(f, lam_max: float, excluded) -> float:
    """Smallest sign change of ``f`` in (0, lam_max] away from ``excluded``.

    ``f`` takes a scalar or an ndarray of frequencies; ``excluded`` is
    ascending.  The scan grid steps by ``GRID_STEP`` and is split at every
    excluded frequency e: the grid points within ``EXCLUSION_RADIUS`` of e
    give way to e -+ ``EXCLUSION_RADIUS``.  The regularized equations
    genuinely vanish at the excluded frequencies, so a window [e -+ radius]
    whose ends differ in sign holds no root, and one whose ends agree holds
    a second zero besides e: that root is bisected in whichever of
    [e - radius, e - core] and [e + core, e + radius] changes sign, with
    core ``EXCLUSION_CORE``, and a root inside the core raises.  The first
    bracket holding a root is bisected to ``ROOT_XTOL``.
    """
    grid = np.arange(GRID_STEP, lam_max + GRID_STEP, GRID_STEP)
    ex = np.asarray(excluded, dtype=float)
    ex = ex[(ex > grid[0]) & (ex < grid[-1])]
    windows = np.column_stack([ex - EXCLUSION_RADIUS, ex + EXCLUSION_RADIUS])
    pieces = np.split(grid, np.searchsorted(grid, windows.ravel()))
    pieces[1::2] = windows  # odd pieces held the grid points inside a window
    pts = np.concatenate(pieces)
    vals = np.asarray(f(pts))
    sign = np.signbit(vals)
    below = np.searchsorted(ex, pts)  # excluded frequencies below each point
    window = below[:-1] != below[1:]
    hits = np.flatnonzero((sign[:-1] != sign[1:]) != window)
    if hits.size == 0:
        raise RootScanError(f"no admissible root in (0, {lam_max:.3f}]", pts, vals)
    i = int(hits[0])
    lo, hi = float(pts[i]), float(pts[i + 1])
    if window[i]:
        e = float(ex[below[i]])
        core = np.signbit(f(np.array([e - EXCLUSION_CORE, e + EXCLUSION_CORE])))
        if core[0] != sign[i]:
            hi = e - EXCLUSION_CORE
        elif core[1] != sign[i + 1]:
            lo = e + EXCLUSION_CORE
        else:
            raise RootScanError(
                f"root within {EXCLUSION_CORE:g} of excluded frequency {e!r}", pts, vals
            )
    return _bisect(f, lo, hi, ROOT_XTOL, _BISECT_LEVELS)


def smallest_root(ctx: EquationContext) -> float:
    """Smallest positive root of the equation away from the excluded set."""
    f = lambda lam: spectral_equation(ctx, lam)
    try:
        return first_root(f, _upper_frequency(ctx), u_product_roots(ctx.n))
    except RootScanError as exc:
        message = f"{exc} for {ctx.g} at R={ctx.R}"
        raise RootScanError(message, exc.grid, exc.values) from None


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def equation_branch(g: Symmetry, R: float) -> bool:
    """True where the minimum solves the transcendental equation: Sp and SO
    kernels past half support.  The U kernel has its exact value and the O
    kernel, like every kernel up to half support, the shifted cosine."""
    return g not in (Symmetry.U, Symmetry.O) and R > 0.5


def solve(g: Symmetry, R: float) -> tuple[BoundResult, Optional[EquationContext]]:
    """Minimum for kernel g at support R, with the context it was solved on.

    Dispatches on kernel and support: exact unitary value, shifted-cosine
    branch, or transcendental-equation branch; the context is None off the
    equation branch.  A support where the continuity matrix degenerates is
    nudged by 1e-6 with a warning, and the result and the context record the
    support used.  A support solved a moment ago reuses its context and the
    root found on it (see ``build_context``).
    In the symplectic equation branch, a square-rooted scaled minimum within
    1e-4 of an odd integer is flagged (the piecewise construction is then
    only conditionally optimal) and the compatibility integral of the
    reconstructed optimizer over [R-1, R] is attached as a diagnostic; it
    should vanish.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if g is Symmetry.U:
        m_tilde = 1.0 / (16 * R * R)
        return BoundResult(m_tilde, math.sqrt(m_tilde), "unitary_exact", R), None
    if not equation_branch(g, R):
        return small_support_minimum(g, R), None

    try:
        ctx = build_context(g, R)
    except DegenerateRadiusError:
        n = int(math.floor(2 * R)) + 1
        for nudged in (R - 1e-6, R + 1e-6):
            if (n - 1) / 2.0 < nudged < n / 2.0:
                try:
                    ctx = build_context(g, nudged)
                except DegenerateRadiusError:
                    continue
                warnings.warn(
                    f"support {R} is numerically degenerate; using {nudged}",
                    stacklevel=3,
                )
                break
        else:
            raise
    lam = ctx.root
    m_tilde = (lam / (2 * math.pi)) ** 2
    result = BoundResult(
        m_tilde=m_tilde,
        bound=math.sqrt(m_tilde),
        branch="transcendental",
        support=ctx.R,
        lam=lam,
    )
    if g is Symmetry.Sp:
        sqrt_scaled = 2 * ctx.R * lam / math.pi  # sqrt of the 16R^2-scaled minimum
        nearest_odd = 2 * round((sqrt_scaled - 1) / 2) + 1
        if nearest_odd >= 1 and abs(sqrt_scaled - nearest_odd) < 1e-4:
            from .testfunction import assemble

            compat = assemble(ctx, lam).integral(ctx.R - 1, ctx.R)
            result = replace(result, sp_flag=True, sp_compat_integral=compat)
    return result, ctx


def minimal_quotient(g: Symmetry, R: float) -> BoundResult:
    """Minimal normalized Rayleigh quotient for kernel g at support R; see
    ``solve``."""
    return solve(g, R)[0]
