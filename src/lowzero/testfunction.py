"""Reconstruction of the optimal test function as explicit piecewise sinusoids.

Past half support the optimizer restricted to each partition cell is a finite
sum of sinusoids: one mode per nonnegative Chebyshev frequency of the two
homogeneous orders, plus a single mode at the solved frequency lam.  The
homogeneous amplitudes come from the continuity linear system; the lam-mode
amplitudes are fixed complex numbers depending only on (kernel, support, lam).
One record of that mode (``_lambda_mode``) holds the forcing amplitude z,
U_0(lam)..U_n(lam) (the stack z was built from) and z(-i delta)^k for
k < n; each cell's lam-mode coefficient, the continuity right side and both
closed-form integrals of h read it.  ``assemble`` evaluates it once and
keeps it on h, and the residuals of h at h's own context read it from
there, so an optimizer and its residuals evaluate it once between them.

h has one representation, its table: the ends of its cells and the
[quantity, term, cell] array of every cell's (amplitude, frequency, phase)
triples, which every evaluator reads.

Every defining property of the optimizer is re-checked here as a residual
(``residuals``): the delay differential equation, the integral (Volterra)
form, the scalar compatibility relation, the two closed-form integrals of h
against h's exact antiderivative, and the Rayleigh quotient itself.  The
quotient has one path, ``_quotient``, behind ``quotient_quadrature``: a
fixed Gauss-Legendre rule on every interval between the cell ends and the
cell ends shifted by +-1, where each integrand is analytic, so the rule
converges geometrically in its number of nodes.  ``residuals`` evaluates h
and h' once each, at its own samples and at the rule's nodes together, and
sums the quotient from those values.  Every evaluator is a few numpy calls
on [term, point] or [term, window] arrays, whatever the number of terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.integrate  # noqa: F401  uncalled; bench/harness.py times its import (ROADMAP item 4)

from .solver import BoundResult, EquationContext, _amplitude_and_stack, _ipow, solve
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


@dataclass(frozen=True, eq=False)
class PiecewiseTestFunction:
    """Even, continuous, compactly supported piecewise-sinusoidal function.

    On cell k, [los[k], his[k]], h(u) is the sum of a * sin(f*u + ph) over
    (a, f, ph) = terms[:, j, k], padded with terms (0, 0, 0) to the longest
    cell's count.  The three arrays are read-only, since ``_antiderivatives``
    caches tables built from them, and h compares by identity (eq=False).
    ``ctx`` is the equation context h was assembled from and ``_mode`` the
    lam-mode record ``assemble`` read there, both None for the shifted
    cosine.  Amplitudes follow the scale-1 convention of ``solver``.
    """

    los: np.ndarray
    his: np.ndarray
    terms: np.ndarray
    R: float
    lam: float
    g: Symmetry
    ctx: Optional[EquationContext] = field(default=None, repr=False)
    _mode: Optional[_LambdaMode] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.los, self.his, self.terms):
            arr.setflags(write=False)

    def breakpoints(self) -> np.ndarray:
        return np.append(self.los, self.his[-1])

    @cached_property
    def _antiderivatives(self) -> tuple:
        """Integration tables over h's padded terms.

        Per term c = a/f: the term integrates to c*(w(x) - w(y)) over
        [x, y], with w(u) = cos(f*u + ph); a term of frequency below
        ``_ZERO_FREQ``, padding included, is a constant (const true) c =
        a*sin(ph), and w(u) = -u, since (-x) - (-y) is y - x exactly.
        Returned: every term's integral over its whole cell as a [term,
        cell] array with a column of 0.0 appended, the integral over the
        support [-R, R] as a Python float, and the stacked [term, cell]
        arrays (f, ph, c, w at the cell's lower end, w at its upper end,
        const) that ``_integrals`` gathers from.  A padding term integrates
        to 0 times a width, and a term of a cell of no width to c*0.0:
        adding either leaves a sum that starts at +0.0 as it is.  The
        support's integral is the left fold of the whole-cell integrals
        from +0.0, which is the sum ``_integrals`` forms for the window
        [-R, R]: its first and last cells are whole.
        """
        los, his, (a, f, ph) = self.los, self.his, self.terms
        const = np.abs(f) < _ZERO_FREQ
        c = np.where(const, a * np.sin(ph), a / np.where(const, 1.0, f))
        at_lo = np.where(const, -los, np.cos(f * los + ph))
        at_hi = np.where(const, -his, np.cos(f * his + ph))
        whole = np.zeros((f.shape[0], los.size + 1))
        whole[:, :-1] = c * (at_lo - at_hi)
        support = np.add.accumulate(np.concatenate([[0.0], whole[:, :-1].T.ravel()]))[-1].item()
        return whole, support, np.array([f, ph, c, at_lo, at_hi, const])

    # The terms of a cell are added left to right, one [term] row after
    # another into a total that starts at +0.0 (np.add.reduce may add
    # pairwise), and a Python float is evaluated as a one-element array, so
    # every route gives the same bits.

    def _values(self, u: np.ndarray) -> np.ndarray:
        """h at every entry of the 1-D array u."""
        return self._fold_terms(u)

    def _slopes(self, u: np.ndarray) -> np.ndarray:
        """h' at every entry of the 1-D array u."""
        return self._fold_terms(u, slope=True)

    def _fold_terms(self, u: np.ndarray, slope: bool = False) -> np.ndarray:
        """Sum over u's cell of a * sin(f*u + ph), or for the slope of
        a * f * cos(f*u + ph), which forms a*f first; 0.0 off the support.
        u's cell is the first whose upper end exceeds u, else the last, which
        keeps its upper end.  One take gathers every term at every point as
        [term, point] rows, which are added in term order."""
        u = np.asarray(u, dtype=float)
        inside = (self.los[0] <= u) & (u <= self.his[-1])
        u = np.where(inside, u, self.los[0])  # keeps wave finite where the result is 0.0
        a, f, ph = np.take(self.terms, np.searchsorted(self.his[:-1], u, side="right"), axis=2)
        total = np.zeros(u.shape)
        for row in a * f * np.cos(f * u + ph) if slope else a * np.sin(f * u + ph):
            total += row
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
        """Exact integral over every window [lo[k], hi[k]] of two 1-D arrays
        of one size.

        A reversed window is swapped and its integral negated, and each
        window is clipped to the support, where h vanishes.  The cells are
        contiguous, so only the first and last covered cells can be partial.
        One take gathers both, side by side ([first cells | last cells]),
        from the table of ``_antiderivatives``, and w (a cosine, or -u for a
        constant term) is taken once per term, at lo in the first cell and
        at hi in the last; the first cell spans [lo, its upper end] and the
        last [its lower end, hi], read from the stored w at the cells'
        edges, except that a first cell that is also the last spans
        [lo, hi].  The window's total adds the first cell's terms one by
        one, then the stored integrals of the whole cells between, gathered
        in one take as [cell, term, window] rows (a window with fewer cells
        reads the column of 0.0) and added row by row, then the last cell's
        terms.  These are the same operands in the same order as evaluating
        every term afresh, so the same sum.  A window's total starts at
        +0.0 and so never is -0.0, and adding a zero leaves it as it is.
        An empty window (after clipping) gets a first cell at or past its
        last, like a window in one cell, and its total is set to 0.0.
        """
        los, his = self.los, self.his
        wholes, _, table = self._antiderivatives
        ends = np.array([lo, hi], dtype=float)
        flip = ends[1] < ends[0]
        ends = np.where(flip, ends[::-1], ends)
        # Clipping is spelled out as max() and min() evaluate it (the second
        # operand only when strictly past the first); it clips both ends of
        # a window at both ends of the support, which changes no result.
        ends = np.where(los[0] > ends, los[0], ends)
        ends = np.where(his[-1] < ends, his[-1], ends)
        lo, hi = ends
        first = np.searchsorted(his, lo, side="right")
        last = np.searchsorted(los, hi, side="left") - 1
        single = last <= first
        k = lo.size
        # (mode="clip": an empty window's cells may lie one past either end)
        f, ph, c, w_a, w_b, const = np.take(table, np.concatenate([first, last]), axis=2, mode="clip")
        x = ends.ravel()  # lo, then hi
        w = np.where(const, -x, np.cos(f * x + ph))
        w_a[:, :k] = w[:, :k]
        w_b[:, k:] = w[:, k:]
        np.copyto(w_b[:, :k], w[:, k:], where=single)
        terms = c * (w_a - w_b)
        np.copyto(terms[:, k:], 0.0, where=single)
        total = np.zeros(k)
        for row in terms[:, :k]:
            total += row
        count = np.where(single, 0, last - first - 1)
        if count.size and count.max() > 0:
            step = np.arange(count.max())[:, None]
            cells = np.where(step < count, first + 1 + step, los.size)
            for block in np.take(wholes, cells, axis=1).transpose(1, 0, 2):
                for row in block:
                    total += row
        for row in terms[:, k:]:
            total += row
        total = np.where(hi > lo, total, 0.0)
        return np.where(flip, -total, total)


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
    z, u = _amplitude_and_stack(ctx, lam)
    u = u.tolist()  # the stack the forcing amplitude was built from
    rot = [z * _ipow(-ctx.delta, k) for k in range(ctx.n)]
    return _LambdaMode(z, u, rot, [uk * r.imag for uk, r in zip(u, rot)])


def _solve_continuity(ctx: EquationContext, mode: _LambdaMode) -> np.ndarray:
    """Homogeneous amplitudes enforcing continuity at the partition points:
    the floor(n/2) amplitudes of the inner (order n-1) family, then the
    *negatives* of the outer (order n) family's."""
    return np.linalg.solve(ctx.m_matrix, np.array(mode.rhs))


def assemble(ctx: EquationContext, lam: float) -> PiecewiseTestFunction:
    """Build the piecewise optimizer at the solved frequency.

    The two interval families jointly tile [-R, R]; on each cell the phases
    of the homogeneous modes are pinned to the cell midpoint, and the
    lam-mode amplitude/phase come from ``_mode_coefficient``.  Each
    family's homogeneous terms are written at once into a [cell, quantity,
    term] array: amplitude r_j * U_k(theta_j), frequency theta_j and phase
    -pi/2 * (j + delta * mid) - theta_j * mid on cell k with midpoint mid;
    only the lam-mode term (|z|, lam, arg z - lam * mid) is formed cell by
    cell, in the column after the homogeneous terms.  The empty cells of a
    closed-end context are dropped, and the array is turned into h's
    [quantity, term, cell] table.  h also keeps the record of the lam mode
    for ``residuals``.
    """
    n = ctx.n
    mode = _lambda_mode(ctx, lam)
    x = _solve_continuity(ctx, mode)

    # cell m, from -(n - 1) to n - 1, spans [a_m, a_{m+1}] for m > 0,
    # [-a_1, a_1] for m = 0 and the mirror image of cell -m for m < 0
    a = ctx.a
    los = np.concatenate([-a[n:0:-1], a[1:n]])
    his = np.concatenate([-a[n - 1 : 0 : -1], a[1 : n + 1]])
    values = np.zeros((2 * n - 1, 3, n - n // 2 + 1))
    # outer family (order n): cells n-1, n-3, ..., -(n-1); inner family
    # (order n-1): cells n-2, n-4, ..., -(n-2); cell m has midpoint m/2
    for order, r, u, theta in (
        (n, -x[n // 2 :], ctx.u_hi, ctx.theta_hi),
        (n - 1, x[: n // 2], ctx.u_lo[: n - 1], ctx.theta_lo),
    ):
        m = order - 1 - 2 * np.arange(order)
        mid = (m / 2.0)[:, None]
        j = np.arange(1, theta.size + 1)
        cells = values[order + n - 2 :: -2]  # the rows m + n - 1
        cells[:, 0, : theta.size] = r * u
        cells[:, 1, : theta.size] = theta
        cells[:, 2, : theta.size] = -0.5 * math.pi * (j + ctx.delta * mid) - theta * mid
        for k, m_k in enumerate(m.tolist()):
            z = _mode_coefficient(ctx, lam, k, order, mode.u)
            cells[k, :, theta.size] = (abs(z), lam, cmath.phase(z) - lam * (m_k / 2.0))

    full = his > los  # not an empty cell of a closed-end context
    return PiecewiseTestFunction(
        los[full], his[full], values[full].transpose(1, 2, 0).copy(),
        R=ctx.R, lam=lam, g=ctx.g, ctx=ctx, _mode=mode,
    )


def _shifted_cosine(g: Symmetry, R: float, lam: float) -> PiecewiseTestFunction:
    """Shifted-cosine optimizer -(1/lam)(cos(lam*u) - cos(lam*R)) on [-R, R]."""
    a = [-1 / lam, 1 / lam * math.cos(lam * R)]  # -(1/lam) cos(lam u), then a constant
    terms = np.array([a, [lam, 0.0], [0.5 * math.pi] * 2])[:, :, None]
    return PiecewiseTestFunction(np.array([-R]), np.array([R]), terms, R=R, lam=lam, g=g)


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
    ``rayleigh_gap``: gap of ``quotient_quadrature`` (a fixed Gauss-Legendre
      rule) to lam^2/(4 pi^2);
    ``int_tail_gap``/``int_full_gap``: gaps of ``closed_integrals`` to the
      exact integrals of h over [R-1, R] and [-R, R] (0.0 off the equation
      branch).
    """

    delayed_ode: float
    volterra: float
    compatibility: float
    rayleigh_gap: float
    int_tail_gap: float
    int_full_gap: float

    def max_defect(self) -> float:
        """The largest field; NaN if any field is NaN, which ``max`` alone
        would drop unless it came first."""
        defects = astuple(self)
        return math.nan if any(map(math.isnan, defects)) else max(defects)


def _phi(h: PiecewiseTestFunction, u: np.ndarray) -> np.ndarray:
    inside = -(1 / h.lam) * (np.cos(h.lam * u) - math.cos(h.lam * h.R))
    return np.where(np.abs(u) > h.R, 0.0, inside)


def _cuts(h: PiecewiseTestFunction) -> list[float]:
    """The cell ends inside (-R, R) and the cell ends shifted by +-1 that fall
    there, sorted, each once: every point where a quotient integrand has a
    kink.  On the equation branch the shifted ends are cell ends already."""
    brks = h.breakpoints().tolist()
    shifted = chain(brks, [1 - b for b in brks], [-1 - b for b in brks])
    return sorted({b for b in shifted if -h.R < b < h.R})


_GAUSS_POINTS = 12  # nodes per interval, fixed by measurement against twice as many
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_POINTS)


def _gauss_rule(lo: float, hi: float, cuts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GAUSS_POINTS``-point Gauss-Legendre rule on
    each interval between consecutive points of lo, ``cuts`` (sorted, strictly
    inside) and hi, interval by interval."""
    edges = np.array([lo, *cuts, hi])
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def _at(fn, *args: np.ndarray) -> list[np.ndarray]:
    """The array evaluator fn at each 1-D array of args, in one call."""
    values, ends = fn(np.concatenate(args)), list(accumulate(a.size for a in args))
    return [values[end - a.size : end] for a, end in zip(args, ends)]


def quotient_quadrature(h: PiecewiseTestFunction) -> float:
    """Normalized Rayleigh quotient of h by a fixed Gauss-Legendre rule.

    All convolution-range integrals reduce to single integrals against exact
    inner antiderivatives, which leaves four integrals over [-R, R]: of h^2,
    of h'^2, of h(t) * (integral of h over [-1 - t, 1 - t]) and of
    h'(t) * (h(1 - t) - h(-1 - t)).  Each is analytic between consecutive
    ``_cuts``, so one rule, ``_gauss_rule`` on those cuts, serves all four:
    h is evaluated in one ``_values`` call at its nodes t and at 1 - t and
    -1 - t, h' in one ``_slopes`` call at t, and ``_quotient`` sums the
    quotient from those values.
    """
    t, w = _gauss_rule(-h.R, h.R, _cuts(h))
    ht, ahead, behind = _at(h._values, t, 1 - t, -1 - t)
    return _quotient(h, t, w, ht, ahead, behind, h._slopes(t))


def _quotient(h, t, w, ht, ahead, behind, dt) -> float:
    """The quotient of ``quotient_quadrature`` from h at the nodes t of its
    rule (weights w) and at 1 - t and -1 - t, and h' at t.

    The windows [-1 - t, 1 - t] take one ``_integrals`` call, and the
    integral of h over [-R, R] is read from h's ``_antiderivatives`` table.
    Each integral is np.sum(f * w), which calls no BLAS routine, so its
    bits do not depend on the thread count.
    """
    delta = h.g.delta
    eps = float(h.g.epsilon)
    i_h = h._antiderivatives[1]

    num = np.sum(dt * dt * w)
    den = np.sum(ht * ht * w) + eps * i_h**2
    if delta:
        num -= 0.5 * delta * np.sum(dt * (ahead - behind) * w)
        den += 0.5 * delta * np.sum(ht * h._integrals(-1 - t, 1 - t) * w)
    return float(num / (4 * math.pi**2 * den))


def closed_integrals(ctx: EquationContext, lam: float) -> tuple[float, float]:
    """Closed forms of the integrals of the optimizer over [R-1, R] and
    [-R, R], as Python floats."""
    return _closed_integrals(ctx, lam, _lambda_mode(ctx, lam))


def _closed_integrals(ctx: EquationContext, lam: float, mode: _LambdaMode) -> tuple[float, float]:
    """``closed_integrals`` from the lam-mode record at (ctx, lam)."""
    z, u, rot, rhs = mode
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

    ``ctx`` (default ``h.ctx``) enables, on the equation branch, the
    comparison of ``closed_integrals`` (built from the context's alpha and
    beta contractions and the lam mode) with the exact integrals of the
    assembled h over [R - 1, R] and [-R, R].  At h's own context the lam
    mode is the record ``assemble`` kept on h; any other context, even an
    equal one, derives it afresh.  The pointwise defects are
    sampled at ``_RESIDUAL_SAMPLES`` points at least 1e-4 inside the support,
    avoiding a 1e-6 neighbourhood of the cell boundaries, where h is only
    one-sidedly differentiable; the Volterra form is sampled on [0, R - 1e-6].
    A support up to 1e-4 is a single cell narrower than those margins, and
    there they shrink to R/2 and R/4.

    The quotient is ``quotient_quadrature``'s, summed by ``_quotient`` from
    the values below.  h is evaluated in one ``_values`` call, at the
    samples, their shifts by +-1, the Volterra samples and the quotient's
    nodes t, 1 - t and -1 - t; h' in one ``_slopes`` call at the samples
    and at t.  The quotient's windows take one ``_integrals`` call, the
    Volterra windows and [R - 1, R] another, and the integral over
    [-R, R] is read from h's ``_antiderivatives`` table.
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

    t, w = _gauss_rule(-R, R, _cuts(h))
    hs, ahead, behind, h_vs, ht, t_ahead, t_behind = _at(
        h._values, us, us + 1, us - 1, vs, t, 1 - t, -1 - t
    )
    dhs, dt = _at(h._slopes, us, t)
    h_scale = max(1e-300, float(np.max(np.abs(hs))))
    dh_scale = max(1.0, float(np.max(np.abs(dhs))))

    defect = dhs - np.sin(lam * us) + 0.5 * delta * (ahead - behind)
    ode = float(np.max(np.abs(defect))) / dh_scale

    # the Volterra windows (v + 1, R + 1) and (v - 1, R - 1), then [R - 1, R],
    # in one call
    lo = np.concatenate([vs + 1, vs - 1, [R - 1]])
    hi = np.concatenate([np.full(vs.size, R + 1), np.full(vs.size, R - 1), [R]])
    ints = h._integrals(lo, hi)
    ahead, behind = ints[: vs.size], ints[vs.size : -1]
    defect = h_vs - _phi(h, vs) - 0.5 * delta * (ahead - behind)
    volt = float(np.max(np.abs(defect))) / h_scale

    tail_exact, full_exact = ints[-1].item(), h._antiderivatives[1]
    compat = (1 / lam) * math.cos(lam * R) + 0.5 * delta * tail_exact + eps * full_exact
    compat_scale = max(abs(1 / lam), abs(tail_exact), abs(full_exact), 1e-300)
    compat = abs(compat) / compat_scale

    target = lam**2 / (4 * math.pi**2)
    ray = abs(_quotient(h, t, w, ht, t_ahead, t_behind, dt) - target) / target

    if ctx is not None:
        scale = max(abs(tail_exact), abs(full_exact), 1e-300)
        mode = h._mode if ctx is h.ctx else _lambda_mode(ctx, lam)
        tail_closed, full_closed = _closed_integrals(ctx, lam, mode)
        tail_gap = abs(tail_closed - tail_exact) / scale
        full_gap = abs(full_closed - full_exact) / scale
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
