"""Reconstruction of the optimal test function as explicit piecewise sinusoids.

Past half support the optimizer restricted to each partition cell is a finite
sum of sinusoids: one mode per nonnegative Chebyshev frequency of the two
homogeneous orders, plus a single mode at the solved frequency lam.  The
homogeneous amplitudes come from the continuity linear system; the lam-mode
amplitudes are fixed complex numbers depending only on (kernel, support, lam).
One record of that mode (``_lambda_mode``) holds the forcing amplitude z,
U_0(lam)..U_n(lam) and z(-i delta)^k for k < n; each cell's lam-mode
coefficient, the continuity right side and both closed-form integrals of h
read it, so an optimizer and its residuals each evaluate it once.

Every defining property of the optimizer is re-checked here as a residual
(``residuals``): the delay differential equation, the integral (Volterra)
form, the scalar compatibility relation, the two closed-form integrals of h,
and the Rayleigh quotient itself.  The quotient has one path,
``quotient_quadrature``, adaptive quadrature over the piecewise
representation cut at the exact cell boundaries, which evaluates h and h' at
its own nodes; ``residuals`` calls it and evaluates h only where its other
checks read it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.integrate

from . import chebyshev as cheb
from .solver import BoundResult, EquationContext, _ipow, forcing_amplitude, solve
from .symmetry import Symmetry

__all__ = [
    "PiecewiseTestFunction",
    "ResidualReport",
    "assemble",
    "reconstruct",
    "residuals",
    "quotient_quadrature",
    "closed_integrals",
]

_ZERO_FREQ = 1e-14
_RESIDUAL_SAMPLES = 200


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    #: (amplitude, frequency, phase) triples; value = sum a*sin(f*u + p).
    terms: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class PiecewiseTestFunction:
    """Even, continuous, compactly supported piecewise-sinusoidal function.

    ``ctx`` is the equation context it was assembled from, None for the
    shifted cosine.  Amplitudes follow the scale-1 convention of ``solver``.
    """

    pieces: tuple[Piece, ...]
    R: float
    lam: float
    g: Symmetry
    ctx: Optional[EquationContext] = field(default=None, compare=False, repr=False)

    def breakpoints(self) -> np.ndarray:
        pts = [p.lo for p in self.pieces] + [self.pieces[-1].hi]
        return np.asarray(pts)

    @cached_property
    def _cells(self) -> tuple:
        """Lookup tables of ``_values`` and ``_slopes``: the cells' lower
        and upper ends, and a, f, ph and the slope amplitudes a*f as [term,
        cell] arrays, each cell padded to the longest cell's number of terms
        with terms (0, 0, 0).  searchsorted(side="right") on the upper ends
        of every cell but the last gives the first cell whose upper end
        exceeds u, else the last cell, which keeps its upper end; a*f is the
        product that a * f * cos(f*u + ph) forms first.
        """
        terms = [p.terms for p in self.pieces]
        width = max(map(len, terms))
        pad = ((0.0, 0.0, 0.0),)
        flat = chain.from_iterable(chain.from_iterable(c + pad * (width - len(c)) for c in terms))
        table = np.fromiter(flat, float, 3 * width * len(terms)).reshape(len(terms), width, 3)
        a, f, ph = table.transpose(2, 1, 0).copy()
        los = np.array([p.lo for p in self.pieces])
        his = np.array([p.hi for p in self.pieces])
        return los, his, a, f, ph, a * f

    @cached_property
    def _antiderivatives(self) -> tuple:
        """Integration tables over the padded terms of ``_cells``.

        Per term (f, ph, c, cos_lo, cos_hi, const), as [term, cell] arrays:
        c = a/f, the term integrates to c*(cos(f*x + ph) - cos(f*y + ph))
        over [x, y], and cos_lo and cos_hi are those cosines at the cell's
        ends; a term of frequency below ``_ZERO_FREQ``, padding included, is
        a constant (const true) c = a*sin(ph) and integrates to c*(y - x).
        Returned with the number of terms per cell and every term's integral
        over its whole cell, in cell order, with 0.0 appended.  A padding
        term integrates to 0 times a width, +0.0, and a term of a cell of
        no width to c*0.0: adding either leaves a sum that starts at +0.0
        as it is.
        """
        los, his, a, f, ph, _ = self._cells
        const = np.abs(f) < _ZERO_FREQ
        c = np.where(const, a * np.sin(ph), a / np.where(const, 1.0, f))
        cos_lo, cos_hi = np.cos(f * los + ph), np.cos(f * his + ph)
        whole = np.where(const, c * (his - los), c * (cos_lo - cos_hi)).T.ravel()
        return f.shape[0], np.append(whole, 0.0), (f, ph, c, cos_lo, cos_hi, const)

    # The terms of a cell are added left to right, one [term] row after
    # another or in a left fold (np.add.accumulate is sequential by
    # definition, np.add.reduce may add pairwise), and a Python float is
    # evaluated as a one-element array, so every route gives the same bits.

    def _values(self, u: np.ndarray) -> np.ndarray:
        """h at every entry of the 1-D array u."""
        return self._fold_terms(u, self._cells[2], np.sin)

    def _slopes(self, u: np.ndarray) -> np.ndarray:
        """h' at every entry of the 1-D array u."""
        return self._fold_terms(u, self._cells[5], np.cos)

    def _fold_terms(self, u: np.ndarray, amp: np.ndarray, wave) -> np.ndarray:
        """Sum over u's cell of amp * wave(f*u + ph), amp being a [term,
        cell] table; 0.0 off the support."""
        los, his, _, f, ph, _ = self._cells
        u = np.asarray(u, dtype=float)
        inside = (los[0] <= u) & (u <= his[-1])
        u = np.where(inside, u, los[0])  # keeps wave finite where the result is 0.0
        cell = np.searchsorted(his[:-1], u, side="right")
        total = np.zeros(u.shape)
        for amp_j, f_j, ph_j in zip(amp, f, ph):
            total += amp_j[cell] * wave(f_j[cell] * u + ph_j[cell])
        return np.where(inside, total, 0.0)

    def __call__(self, u):
        if isinstance(u, np.ndarray):
            return self._values(u.ravel()).reshape(u.shape)
        return self._values(np.array([float(u)])).item()

    def derivative(self, u):
        """One-sided derivative (right-sided at interior breakpoints)."""
        if isinstance(u, np.ndarray):
            return self._slopes(u.ravel()).reshape(u.shape)
        return self._slopes(np.array([float(u)])).item()

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi] via per-term antiderivatives; see
        ``_integrals``."""
        return self._integrals(np.array([float(lo)]), np.array([float(hi)])).item()

    def _integrals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact integral over every window [lo[k], hi[k]] of two 1-D arrays.

        A reversed window is swapped and its integral negated, and each
        window is clipped to the support, where h vanishes.  The cells are
        contiguous, so only the first and last covered cells can be partial:
        each window's cosines are taken once per term, at lo in its first
        cell and at hi in its last, and those two cells add their terms one
        by one, with the stored cosines at their other ends; the whole cells
        between add their stored per-term integrals, gathered into rows (a
        window with fewer adds the appended 0.0) and folded left to right by
        np.add.accumulate.  These are the same operands in the same order as
        evaluating every term afresh, so the same sum.  A window's total
        starts at +0.0 and so never is -0.0, and adding +0.0 leaves it as it
        is.
        """
        los, his = self._cells[:2]
        width, wholes, (f, ph, _, cos_lo, cos_hi, _) = self._antiderivatives
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        flip = hi < lo
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
        # Clipping is spelled out as max() and min() evaluate it (the second
        # operand only when strictly past the first).
        lo = np.where(los[0] > lo, los[0], lo)
        hi = np.where(his[-1] < hi, his[-1], hi)
        some = hi > lo
        first = np.where(some, np.searchsorted(his, lo, side="right"), 0)
        last = np.where(some, np.searchsorted(los, hi, side="left") - 1, 0)
        inner = last > first
        at_lo = np.cos(f[:, first] * lo + ph[:, first])
        at_hi = np.cos(f[:, last] * hi + ph[:, last])
        # the first cell ends where the window does if it is also the last
        first_hi = np.where(inner, his[first], hi)
        first_cos = np.where(inner, cos_hi[:, first], at_hi)
        total = self._cell_integrals(first, lo, at_lo, first_hi, first_cos, np.zeros(lo.shape), some)
        begin = (first + 1) * width
        count = np.where(inner, (last - first - 1) * width, 0)
        if count.size and count.max() > 0:
            step = np.arange(count.max())[:, None]
            rows = wholes[np.where(step < count, begin + step, len(wholes) - 1)]
            total = np.add.accumulate(np.concatenate([total[None], rows]), axis=0)[-1]
        total = self._cell_integrals(last, los[last], cos_lo[:, last], hi, at_hi, total, inner)
        total = np.where(some, total, 0.0)
        return np.where(flip, -total, total)

    def _cell_integrals(self, i, a, cos_a, b, cos_b, total, use) -> np.ndarray:
        """``total`` plus, where ``use`` holds, the integral of cell i[k]
        over [a[k], b[k]], given cos(f*a + ph) and cos(f*b + ph) per term,
        added in place."""
        _, _, c, _, _, const = self._antiderivatives[2]
        c = c[:, i]
        terms = np.where(const[:, i], c * (b - a), c * (cos_a - cos_b))
        for row in np.where(use, terms, 0.0):
            total += row
        return total


# ---------------------------------------------------------------------------
# Equation-branch assembly
# ---------------------------------------------------------------------------

def _mode_coefficient(
    ctx: EquationContext, lam: float, k: int, m: int, u: list[float]
) -> complex:
    """Complex amplitude of the lam-frequency mode on cell k of the interval
    family of order m (the Chebyshev order whose roots provide the cell's
    homogeneous frequencies): ``n`` for the outermost family, ``n - 1`` for
    the interleaved one.  ``u`` holds U_0(lam), U_1(lam), ... up to at least
    U_m(lam)."""
    delta = ctx.delta
    denom = lam + delta * math.sin(lam)
    if abs(denom) < 1e-12:
        raise ValueError("frequency cancels the mode normalization")
    um = u[m]
    if abs(um) < 1e-12:
        raise ValueError("frequency is a root of the homogeneous order")
    lead = 1j / denom
    return lead * (
        _ipow(delta, k - m) * cmath.exp(-1j * lam * (m + 1) / 2) * u[k] / um
        - cmath.exp(1j * lam * (m - 2 * k - 1) / 2)
        + _ipow(delta, k + 1) * cmath.exp(1j * lam * (m + 1) / 2) * u[m - k - 1] / um
    )


class _LambdaMode(NamedTuple):
    """The lam-frequency mode at (ctx, lam); see the module docstring."""

    z: complex  # the forcing amplitude
    u: list[float]  # U_0(lam)..U_n(lam)
    rot: list[complex]  # z * (-i delta)^k for k < n
    rhs: list[float]  # the continuity right side, U_k(lam) * Im(rot[k])


def _lambda_mode(ctx: EquationContext, lam: float) -> _LambdaMode:
    z = forcing_amplitude(ctx, lam)
    u = cheb.u_stack(ctx.n, lam).tolist()
    rot = [z * _ipow(-ctx.delta, k) for k in range(ctx.n)]
    return _LambdaMode(z, u, rot, [uk * r.imag for uk, r in zip(u, rot)])


def _solve_continuity(ctx: EquationContext, mode: _LambdaMode) -> np.ndarray:
    """Homogeneous amplitudes enforcing continuity at the partition points:
    the floor(n/2) amplitudes of the inner (order n-1) family, then the
    *negatives* of the outer (order n) family's."""
    return np.linalg.solve(ctx.m_matrix, np.array(mode.rhs))


def _interval_bounds(ctx: EquationContext, m: int) -> tuple[float, float]:
    a = ctx.a
    if m == 0:
        return (-a[1], a[1])
    if m > 0:
        return (a[m], a[m + 1])
    return (-a[-m + 1], -a[-m])


def assemble(ctx: EquationContext, lam: float) -> PiecewiseTestFunction:
    """Build the piecewise optimizer at the solved frequency.

    The two interval families jointly tile [-R, R]; on each cell the phases
    of the homogeneous modes are pinned to the cell midpoint, and the
    lam-mode amplitude/phase come from ``_mode_coefficient``.
    """
    n = ctx.n
    delta = ctx.delta
    mode = _lambda_mode(ctx, lam)
    x = _solve_continuity(ctx, mode)
    r_inner = x[: n // 2]
    r_outer = -x[n // 2 :]

    pieces: list[Piece] = []

    def add_piece(m: int, mid: float, amps, thetas, zmode: complex) -> None:
        lo, hi = _interval_bounds(ctx, m)
        if not hi > lo:  # an empty cell of a closed-end context
            return
        terms = []
        for j0, (r, th) in enumerate(zip(amps, thetas)):
            j = j0 + 1
            amp = r
            phase = -0.5 * math.pi * (j + delta * mid) - th * mid
            terms.append((amp, th, phase))
        terms.append((abs(zmode), lam, cmath.phase(zmode) - lam * mid))
        pieces.append(Piece(lo=lo, hi=hi, terms=tuple(terms)))

    for k in range(n):  # outer family: cells n-1, n-3, ..., -(n-1)
        m = n - 1 - 2 * k
        mid = (n - 2 * k - 1) / 2.0
        amps = r_outer * ctx.u_hi[k]
        add_piece(m, mid, amps, ctx.theta_hi, _mode_coefficient(ctx, lam, k, n, mode.u))
    for k in range(n - 1):  # inner family: cells n-2, n-4, ..., -(n-2)
        m = n - 2 - 2 * k
        mid = (n - 2 * k - 2) / 2.0
        amps = r_inner * ctx.u_lo[k]
        add_piece(m, mid, amps, ctx.theta_lo, _mode_coefficient(ctx, lam, k, n - 1, mode.u))

    pieces.sort(key=lambda p: p.lo)
    return PiecewiseTestFunction(pieces=tuple(pieces), R=ctx.R, lam=lam, g=ctx.g, ctx=ctx)


def _shifted_cosine(g: Symmetry, R: float, lam: float) -> PiecewiseTestFunction:
    """Shifted-cosine optimizer -(1/lam)(cos(lam*u) - cos(lam*R)) on [-R, R]."""
    terms = (
        (-1 / lam, lam, 0.5 * math.pi),  # -(1/lam) cos(lam u)
        (1 / lam * math.cos(lam * R), 0.0, 0.5 * math.pi),
    )
    return PiecewiseTestFunction(
        pieces=(Piece(lo=-R, hi=R, terms=terms),), R=R, lam=lam, g=g
    )


def reconstruct(g: Symmetry, R: float) -> tuple[PiecewiseTestFunction, BoundResult]:
    """Optimizer and minimum for any non-unitary kernel and support R,
    solved at R exactly as ``solver.solve`` does."""
    if g is Symmetry.U:
        raise ValueError("the unitary kernel has no attained optimizer to build")
    res, ctx = solve(g, R)
    if ctx is None:
        return _shifted_cosine(g, R, 2 * math.pi * res.bound), res
    return assemble(ctx, res.lam), res


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Relative residuals of every defining property of the optimizer.

    ``delayed_ode``: sup-norm defect of h'(u) = phi'(u) - (delta/2)(h(u+1)-h(u-1));
    ``volterra``: defect of the integrated form on [0, R);
    ``compatibility``: the scalar relation (1/lam) cos(lam R)
      + (delta/2) * int_{R-1}^R h + eps * int h;
    ``rayleigh_gap``: quotient-vs-lam^2/(4 pi^2) gap by adaptive quadrature;
    ``int_tail_gap``/``int_full_gap``: closed-form-vs-quadrature gaps for the
      two integrals of h (only meaningful on the equation branch).
    """

    delayed_ode: float
    volterra: float
    compatibility: float
    rayleigh_gap: float
    int_tail_gap: float
    int_full_gap: float

    def max_defect(self) -> float:
        return max(
            self.delayed_ode,
            self.volterra,
            self.compatibility,
            self.rayleigh_gap,
            self.int_tail_gap,
            self.int_full_gap,
        )


def _phi(h: PiecewiseTestFunction, u: np.ndarray) -> np.ndarray:
    inside = -(1 / h.lam) * (np.cos(h.lam * u) - math.cos(h.lam * h.R))
    return np.where(np.abs(u) > h.R, 0.0, inside)


def _quad_points(h: PiecewiseTestFunction, lo: float, hi: float, extra=()) -> list[float]:
    pts = set()
    for b in list(h.breakpoints()) + list(extra):
        if lo < b < hi:
            pts.add(float(b))
    return sorted(pts)


def _shifted_points(h: PiecewiseTestFunction) -> list:
    """The breakpoints shifted by 1 - b and -1 - b, where the convolution
    integrands have kinks."""
    brks = list(h.breakpoints())
    return [1 - b for b in brks] + [-1 - b for b in brks]


_QUAD_TOL = 1e-11  # epsabs and epsrel of every residual quadrature


def _quad(f, lo: float, hi: float, points: Sequence[float]) -> float:
    """QUADPACK's dqagpe at ``points`` (sorted, strictly inside), or dqagse
    when there are none.  dqagpe takes the points as its first intervals,
    so the limit of 200 subintervals is raised by their number."""
    val, _ = scipy.integrate.quad(
        f,
        lo,
        hi,
        points=list(points) or None,
        limit=200 + len(points),
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
    )
    return val


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21), as its source spells it:
# the abscissae xgk(1..10), the Kronrod weights wgk(1..11), wgk(11) being
# the centre's, and the Gauss weights wg(1..5) of xgk(2), xgk(4), ..., xgk(10).
_KRONROD_X = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_KRONROD_W = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208034367454,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_W = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# dqk21 adds wgk(11)*f(centr), then wgk(j)*(f(centr - absc) + f(centr + absc))
# for the abscissae xgk(2), xgk(4), ..., xgk(10), then xgk(1), xgk(3), ...,
# xgk(9): the order of the nodes here
_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_RESK_W = np.append(_KRONROD_W[10], _KRONROD_W[_ORDER])[:, None]
# the weights of the 21 nodes of an interval, in ``_kronrod_nodes``' order
_NODE_WGK = np.concatenate([_RESK_W.ravel(), _KRONROD_W[_ORDER]])
_NODE_WG = np.concatenate([[0.0], _GAUSS_W, np.zeros(5), _GAUSS_W, np.zeros(5)])
_ERR_FLOOR = 50 * np.finfo(float).eps  # dqk21's least error estimate, relative to resabs


def _kronrod_nodes(lo: float, hi: float, points: Sequence[float]) -> np.ndarray:
    """Every node of QUADPACK's first pass of ``_quad(f, lo, hi, points)``,
    21 per interval, interval by interval.

    That pass applies dqk21 to each interval between consecutive points of
    lo, ``points`` (sorted, strictly inside) and hi, which samples [a, b] at
    centr = 0.5*(a + b) and at centr -+ hlgth*x for its ten abscissae x,
    with hlgth = 0.5*(b - a): the same operations here give the same bits.
    The nodes of an interval are centr, then centr - hlgth*x and then
    centr + hlgth*x for x = xgk(2), xgk(4), ..., xgk(10), xgk(1), ..., xgk(9).
    """
    edges = np.array([lo, *points, hi])
    a, b = edges[:-1], edges[1:]
    centr = (0.5 * (a + b))[:, None]
    absc = (0.5 * (b - a))[:, None] * _KRONROD_X[_ORDER]
    return np.concatenate([centr, centr - absc, centr + absc], axis=1).ravel()


def _integrate(f, fx: np.ndarray, lo: float, hi: float, points: Sequence[float]) -> float:
    """``_quad(f, lo, hi, points)``, given f's values ``fx`` at
    ``_kronrod_nodes(lo, hi, points)``.

    Where QUADPACK stops after its first pass, its result is summed here
    from ``fx``: per interval, resk = wgk(11)*f(centr) plus the terms
    wgk(j)*(f(centr - absc) + f(centr + absc)) in the nodes' order, folded
    left to right, and area = resk*hlgth; dqagse returns the one
    area, dqagpe the areas added left to right from 0.0.  Those are
    QUADPACK's operands in its order, so the same bits where QUADPACK
    takes each product and sum rounded on its own, with no fused
    multiply-add: checked with scipy 1.17.1 on x86_64 (Linux, glibc 2.36).

    Whether it stops is read from dqk21's error estimate, summed here in
    any order, so with a margin for rounding.  dqagpe stops when the
    estimates add up to at most errbnd = max(epsabs, epsrel*|result|),
    and dqagse when its one estimate is at most errbnd and differs from
    resasc, or is 0; here they must be at most errbnd/2 and below
    resasc/2, or f vanish at every node, where QUADPACK's estimate is 0.
    Otherwise ``_quad`` integrates f, a function of one float.
    """
    edges = np.array([lo, *points, hi])
    hlgth = 0.5 * (edges[1:] - edges[:-1])
    fx = fx.reshape(hlgth.size, 21)
    pairs = np.concatenate([fx[:, :1], fx[:, 1:11] + fx[:, 11:]], axis=1)
    resk = np.add.accumulate(pairs.T * _RESK_W)[-1]
    area = resk * hlgth
    result = np.add.accumulate(np.append(0.0, area))[-1] if points else area[0]

    resabs = np.abs(fx) @ _NODE_WGK * hlgth
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _NODE_WGK * hlgth
    err = np.abs(resk - fx @ _NODE_WG) * hlgth
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    err = np.maximum(_ERR_FLOOR * resabs, err)

    half_bound = 0.5 * max(_QUAD_TOL, _QUAD_TOL * abs(result))
    if points:
        stops = err.sum() <= half_bound
    else:
        stops = err[0] <= half_bound and err[0] < 0.5 * resasc[0] or not fx.any()
    return float(result) if stops else _quad(f, lo, hi, points)


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 at every entry of x, with the bits Python's x ** 2 gives a float:
    the C library's pow(x, 2.0), which need not be rounded as x * x is."""
    return np.array([v**2 for v in x.tolist()])


def _at(fn, *args: np.ndarray) -> list[np.ndarray]:
    """The array evaluator fn at each 1-D array of args, in one call."""
    return np.split(fn(np.concatenate(args)), np.cumsum([a.size for a in args[:-1]]))


def quotient_quadrature(h: PiecewiseTestFunction) -> float:
    """Normalized Rayleigh quotient of h by adaptive quadrature.

    All convolution-range integrals reduce to single integrals against exact
    inner antiderivatives; quadrature subdivides at every cell boundary and,
    for the convolution integrands h(t) * (integral of h over [-1 - t, 1 - t])
    and h'(t) * (h(1 - t) - h(-1 - t)), also at the boundaries shifted by +-1.
    h is evaluated in one ``_values`` call and h' in one ``_slopes`` call, at
    every node of QUADPACK's first pass of each quadrature, and the windows
    of the convolution integrand take one ``_integrals`` call.  A quadrature
    past its first pass evaluates h one point at a time.
    """
    delta = h.g.delta
    eps = float(h.g.epsilon)
    R = h.R

    cuts = _quad_points(h, -R, R)
    shifts = _quad_points(h, -R, R, _shifted_points(h))
    u = _kronrod_nodes(-R, R, cuts)
    t = _kronrod_nodes(-R, R, shifts) if delta else np.empty(0)
    hu, ht, ahead, behind = _at(h._values, u, t, 1 - t, -1 - t)
    du, dt = _at(h._slopes, u, t)

    h2, d2 = np.split(_squares(np.concatenate([hu, du])), 2)
    i_h2 = _integrate(lambda u: h(u) ** 2, h2, -R, R, cuts)
    i_d2 = _integrate(lambda u: h.derivative(u) ** 2, d2, -R, R, cuts)
    i_h = h.integral(-R, R)

    num = i_d2
    den = i_h2 + eps * i_h**2
    if delta:
        conv_h = ht * h._integrals(-1 - t, 1 - t)
        conv_d = dt * (ahead - behind)
        window = lambda s: h(s) * h.integral(-1 - s, 1 - s)
        shift = lambda s: h.derivative(s) * (h(1 - s) - h(-1 - s))
        num -= 0.5 * delta * _integrate(shift, conv_d, -R, R, shifts)
        den += 0.5 * delta * _integrate(window, conv_h, -R, R, shifts)
    return num / (4 * math.pi**2 * den)


def closed_integrals(ctx: EquationContext, lam: float) -> tuple[float, float]:
    """Closed forms of the integrals of the optimizer over [R-1, R] and
    [-R, R], as Python floats."""
    z, u, rot, rhs = _lambda_mode(ctx, lam)
    delta = ctx.delta
    tail = full = 0.0
    acc_mode = 0j
    for k, (alpha, beta) in enumerate(zip(ctx.alpha.tolist(), ctx.beta_arr.tolist())):
        tail += rhs[k] * alpha
        acc_mode += _ipow(-delta, k) * u[k]
        full += u[k] * (rot[k].imag * beta - (2 / lam) * rot[k].real)
    tail += (
        -(2 / (delta * lam)) * math.cos(lam * ctx.R)
        - (2 / lam) * z.real
        + 2 * delta * (1j * z * acc_mode).real
    )
    return tail, full


def residuals(
    h: PiecewiseTestFunction, ctx: Optional[EquationContext] = None
) -> ResidualReport:
    """Evaluate every defining property of a reconstructed optimizer.

    ``ctx`` (default ``h.ctx``) enables the closed-form-vs-quadrature
    integral comparisons on the equation branch.  The pointwise defects are
    sampled at ``_RESIDUAL_SAMPLES`` points at least 1e-4 inside the support,
    avoiding a 1e-6 neighbourhood of the cell boundaries, where h is only
    one-sidedly differentiable; the Volterra form is sampled on [0, R - 1e-6].
    A support up to 1e-4 is a single cell narrower than those margins, and
    there they shrink to R/2 and R/4.

    The quotient is ``quotient_quadrature``'s.  Besides it, h is evaluated
    in one ``_values`` call, at the samples, their shifts by +-1, the
    Volterra samples and, on the equation branch, every node of QUADPACK's
    first pass of the quadratures over [R - 1, R] and [-R, R] that the
    closed forms are compared with; h' in one ``_slopes`` call at the
    samples; the Volterra and closed-form integrals of h take one
    ``_integrals`` call.  ``_integrate`` sums each quadrature where QUADPACK
    stops after that pass, and leaves the rest to QUADPACK.
    """
    ctx = h.ctx if ctx is None else ctx
    delta = h.g.delta
    eps = float(h.g.epsilon)
    R, lam = h.R, h.lam

    edge, near = (1e-4, 1e-6) if R > 1e-4 else (R / 2, R / 4)
    brks = h.breakpoints()
    us = np.linspace(-R + edge, R - edge, _RESIDUAL_SAMPLES)
    us = us[np.min(np.abs(us[:, None] - brks[None, :]), axis=1) > near]
    vs = np.linspace(0.0, R - near, _RESIDUAL_SAMPLES // 2)

    if ctx is not None:
        tail_cuts, full_cuts = _quad_points(h, R - 1, R), _quad_points(h, -R, R)
        tail, full = _kronrod_nodes(R - 1, R, tail_cuts), _kronrod_nodes(-R, R, full_cuts)
    else:
        tail = full = np.empty(0)
    hs, ahead, behind, h_vs, h_tail, h_full = _at(h._values, us, us + 1, us - 1, vs, tail, full)
    dhs = h._slopes(us)
    h_scale = max(1e-300, float(np.max(np.abs(hs))))
    dh_scale = max(1.0, float(np.max(np.abs(dhs))))

    defect = dhs - np.sin(lam * us) + 0.5 * delta * (ahead - behind)
    ode = float(np.max(np.abs(defect))) / dh_scale

    # the Volterra windows (v + 1, R + 1) and (v - 1, R - 1), then [R - 1, R]
    # and [-R, R], in one call
    lo = np.concatenate([vs + 1, vs - 1, [R - 1, -R]])
    hi = np.concatenate([np.full(vs.size, R + 1), np.full(vs.size, R - 1), [R, R]])
    ints = h._integrals(lo, hi)
    ahead, behind = np.split(ints[:-2], 2)
    defect = h_vs - _phi(h, vs) - 0.5 * delta * (ahead - behind)
    volt = float(np.max(np.abs(defect))) / h_scale

    tail_exact, full_exact = ints[-2:].tolist()
    compat = (1 / lam) * math.cos(lam * R) + 0.5 * delta * tail_exact + eps * full_exact
    compat_scale = max(abs(1 / lam), abs(tail_exact), abs(full_exact), 1e-300)
    compat = abs(compat) / compat_scale

    target = lam**2 / (4 * math.pi**2)
    ray = abs(quotient_quadrature(h) - target) / target

    if ctx is not None:
        tail_quad = _integrate(h, h_tail, R - 1, R, tail_cuts)
        full_quad = _integrate(h, h_full, -R, R, full_cuts)
        scale = max(abs(tail_exact), abs(full_exact), 1e-300)
        tail_closed, full_closed = closed_integrals(ctx, lam)
        tail_gap = abs(tail_closed - tail_quad) / scale
        full_gap = abs(full_closed - full_quad) / scale
    else:
        tail_gap = full_gap = 0.0

    return ResidualReport(
        delayed_ode=ode,
        volterra=volt,
        compatibility=compat,
        rayleigh_gap=ray,
        int_tail_gap=tail_gap,
        int_full_gap=full_gap,
    )
