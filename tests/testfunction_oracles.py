"""Piecewise test-function routines used only as test oracles."""

import cmath
import math
from functools import cache

import numpy as np
import scipy.integrate

from lowzero.chebyshev import u_stack
from lowzero.solver import _ipow, forcing_amplitude
from lowzero.testfunction import (
    _RESIDUAL_SAMPLES,
    _ZERO_FREQ,
    PiecewiseTestFunction,
    ResidualReport,
    _cuts,
    _gauss_rule,
    _lambda_mode,
    _mode_coefficient,
    _solve_continuity,
)


def cell_terms(h, i: int) -> list[tuple[float, float, float]]:
    """The (a, f, ph) triples of cell i, read from h's table, padding
    included: a padding term (0, 0, 0) adds +0.0 to a sum that started at
    +0.0, which leaves it as it is."""
    return [tuple(t) for t in h.terms[:, :, i].T.tolist()]


def piece_index_linear_scan(h, u: float) -> int:
    """Index of the cell holding u by scanning the cells in order: the
    first whose upper end exceeds u, the last one keeping its upper end;
    -1 off the support."""
    his = h.his.tolist()
    if u < h.los[0] or u > his[-1]:
        return -1
    for i, hi in enumerate(his):
        if u < hi or (i == len(his) - 1 and u <= hi):
            return i
    return -1


def value_by_terms(h, u: float) -> float:
    """h(u) from the terms of the cell holding u, added left to right as
    the builtin sum does before Python 3.12."""
    i = piece_index_linear_scan(h, u)
    total = 0.0
    for a, f, p in cell_terms(h, i) if i >= 0 else ():
        total += a * math.sin(f * u + p)
    return total


def slope_by_terms(h, u: float) -> float:
    """h'(u), right-sided at interior breakpoints, the way
    ``value_by_terms`` gives h(u)."""
    i = piece_index_linear_scan(h, u)
    total = 0.0
    for a, f, p in cell_terms(h, i) if i >= 0 else ():
        total += a * f * math.cos(f * u + p)
    return total


def integral_all_pieces(h, lo: float, hi: float) -> float:
    """Integral of h over [lo, hi] term by term, visiting every cell.

    The straightforward form of ``PiecewiseTestFunction.integral``: it scans
    all cells and derives each term's antiderivative coefficient afresh.
    """
    if hi < lo:
        return -integral_all_pieces(h, hi, lo)
    los, his = h.los.tolist(), h.his.tolist()
    lo = max(lo, los[0])
    hi = min(hi, his[-1])
    if hi <= lo:
        return 0.0
    total = 0.0
    for i, (cell_lo, cell_hi) in enumerate(zip(los, his)):
        seg_lo = max(lo, cell_lo)
        seg_hi = min(hi, cell_hi)
        if seg_hi <= seg_lo:
            continue
        for a, f, ph in cell_terms(h, i):
            if abs(f) < _ZERO_FREQ:
                total += a * math.sin(ph) * (seg_hi - seg_lo)
            else:
                total += (a / f) * (math.cos(f * seg_lo + ph) - math.cos(f * seg_hi + ph))
    return total


def interval_bounds(ctx, m: int) -> tuple[float, float]:
    """The ends of cell m of the partition, -(n - 1) <= m <= n - 1."""
    a = ctx.a
    if m == 0:
        return (-a[1], a[1])
    if m > 0:
        return (a[m], a[m + 1])
    return (-a[-m + 1], -a[-m])


def assemble_loop(ctx, lam) -> PiecewiseTestFunction:
    """``testfunction.assemble`` with every term of every cell formed on its
    own: the amplitude r_j * U_k(theta_j) and the phase
    -pi/2 * (j + delta * mid) - theta_j * mid, one float at a time.  The
    cells' lists of terms are then padded with terms (0, 0, 0) into h's
    [quantity, term, cell] table."""
    n = ctx.n
    delta = ctx.delta
    mode = _lambda_mode(ctx, lam)
    x = _solve_continuity(ctx, mode)
    r_inner = x[: n // 2]
    r_outer = -x[n // 2 :]

    cells = []  # (lo, hi, terms)

    def add_cell(m, mid, amps, thetas, zmode):
        lo, hi = interval_bounds(ctx, m)
        if not hi > lo:  # an empty cell of a closed-end context
            return
        terms = []
        for j0, (r, th) in enumerate(zip(amps, thetas)):
            j = j0 + 1
            phase = -0.5 * math.pi * (j + delta * mid) - th * mid
            terms.append((r, th, phase))
        terms.append((abs(zmode), lam, cmath.phase(zmode) - lam * mid))
        cells.append((lo, hi, terms))

    for k in range(n):  # outer family: cells n-1, n-3, ..., -(n-1)
        mid = (n - 2 * k - 1) / 2.0
        amps = r_outer * ctx.u_hi[k]
        add_cell(n - 1 - 2 * k, mid, amps, ctx.theta_hi, _mode_coefficient(ctx, lam, k, n, mode.u))
    for k in range(n - 1):  # inner family: cells n-2, n-4, ..., -(n-2)
        mid = (n - 2 * k - 2) / 2.0
        amps = r_inner * ctx.u_lo[k]
        add_cell(n - 2 - 2 * k, mid, amps, ctx.theta_lo, _mode_coefficient(ctx, lam, k, n - 1, mode.u))

    cells.sort(key=lambda c: c[0])
    table = np.zeros((3, max(len(terms) for _, _, terms in cells), len(cells)))
    for k, (_, _, terms) in enumerate(cells):
        for j, term in enumerate(terms):
            table[:, j, k] = term
    los = np.array([lo for lo, _, _ in cells])
    his = np.array([hi for _, hi, _ in cells])
    return PiecewiseTestFunction(los, his, table, R=ctx.R, lam=lam, g=ctx.g, ctx=ctx, _mode=mode)


# The continuity solve and the two closed-form integrals of h, each deriving
# the lam mode on its own: the forcing amplitude, the U_k(lam) and every
# rotation z * (-i delta)^k.  ``testfunction`` forms the same products and
# sums from one record of that mode, so the same bits.


def solve_continuity_loop(ctx, lam) -> np.ndarray:
    """Homogeneous amplitudes enforcing continuity, right side entry by entry."""
    z = forcing_amplitude(ctx, lam)
    u = u_stack(ctx.n - 1, lam).tolist()
    rhs = np.empty(ctx.n)
    for k in range(ctx.n):
        rhs[k] = u[k] * (z * _ipow(-ctx.delta, k)).imag
    return np.linalg.solve(ctx.m_matrix, rhs)


def tail_integral_loop(ctx, lam) -> float:
    """Closed form of the integral of the optimizer over [R-1, R]."""
    z = forcing_amplitude(ctx, lam)
    u = u_stack(ctx.n - 1, lam).tolist()
    delta = ctx.delta
    acc_sin = 0.0
    for k in range(ctx.n):
        acc_sin += u[k] * (z * _ipow(-delta, k)).imag * ctx.alpha[k]
    acc_mode = 0j
    for k in range(ctx.n):
        acc_mode += _ipow(-delta, k) * u[k]
    phi_part = (
        -(2 / (delta * lam)) * math.cos(lam * ctx.R)
        - (2 / lam) * z.real
        + 2 * delta * (1j * z * acc_mode).real
    )
    return acc_sin + phi_part


def full_integral_loop(ctx, lam) -> float:
    """Closed form of the integral of the optimizer over [-R, R]."""
    z = forcing_amplitude(ctx, lam)
    u = u_stack(ctx.n - 1, lam).tolist()
    delta = ctx.delta
    acc = 0.0
    for k in range(ctx.n):
        rot = z * _ipow(-delta, k)
        acc += u[k] * (rot.imag * ctx.beta_arr[k] - (2 / lam) * rot.real)
    return acc


def quotient_quadrature_scalar(h, value, slope) -> float:
    """``testfunction.quotient_quadrature`` with every node of
    ``_gauss_rule`` evaluated one float at a time through ``value`` and
    ``slope`` (scalar evaluators of h and h'), and every integral of h by
    ``integral_all_pieces``; each integral is the np.sum of the same
    products, so the same bits."""
    delta = h.g.delta
    eps = float(h.g.epsilon)
    R = h.R
    t, w = _gauss_rule(-R, R, _cuts(h))
    t = t.tolist()

    def rule(f) -> float:
        return np.sum(np.array([f(x) for x in t]) * w)

    i_h = integral_all_pieces(h, -R, R)
    num = rule(lambda x: slope(x) * slope(x))
    den = rule(lambda x: value(x) * value(x)) + eps * i_h**2
    if delta:
        num -= 0.5 * delta * rule(lambda x: slope(x) * (value(1 - x) - value(-1 - x)))
        den += 0.5 * delta * rule(lambda x: value(x) * integral_all_pieces(h, -1 - x, 1 - x))
    return float(num / (4 * math.pi**2 * den))


def quotient_quadpack(h) -> float:
    """The normalized Rayleigh quotient of h with each of its four integrals
    by QUADPACK (``scipy.integrate.quad`` at epsabs = epsrel = 1e-11) on
    scalar evaluations of h, cut at the quotient rule's ``_cuts``: an
    adaptive reference for ``testfunction.quotient_quadrature``."""
    delta = h.g.delta
    eps = float(h.g.epsilon)
    R = h.R
    cuts = _cuts(h)

    def quad(f) -> float:
        value, _ = scipy.integrate.quad(
            f, -R, R, points=cuts or None, limit=200 + len(cuts), epsabs=1e-11, epsrel=1e-11
        )
        return value

    num = quad(lambda x: h.derivative(x) ** 2)
    den = quad(lambda x: h(x) ** 2) + eps * h.integral(-R, R) ** 2
    if delta:
        num -= 0.5 * delta * quad(lambda x: h.derivative(x) * (h(1 - x) - h(-1 - x)))
        den += 0.5 * delta * quad(lambda x: h(x) * h.integral(-1 - x, 1 - x))
    return num / (4 * math.pi**2 * den)


def residuals_scalar(h, ctx=None) -> ResidualReport:
    """``testfunction.residuals`` evaluating h, h' and the integrals of h one
    float at a time, at the samples and at every node of the quotient's
    rule, by ``value_by_terms``, ``slope_by_terms`` and
    ``integral_all_pieces``, and the closed-form integrals by
    ``tail_integral_loop`` and ``full_integral_loop``."""
    ctx = h.ctx if ctx is None else ctx
    delta = h.g.delta
    eps = float(h.g.epsilon)
    R, lam = h.R, h.lam

    edge, near = (1e-4, 1e-6) if R > 1e-4 else (R / 2, R / 4)
    brks = h.breakpoints()
    us = np.linspace(-R + edge, R - edge, _RESIDUAL_SAMPLES)
    us = us[np.min(np.abs(us[:, None] - brks[None, :]), axis=1) > near]

    value = cache(lambda u: value_by_terms(h, u))  # shared with the quotient
    slope = cache(lambda u: slope_by_terms(h, u))
    h_scale = max(1e-300, max(abs(value(float(u))) for u in us))
    dh_scale = max(1.0, max(abs(slope(float(u))) for u in us))

    ode = 0.0
    for u in us:
        u = float(u)
        defect = (
            slope(u)
            - math.sin(lam * u)
            + 0.5 * delta * (value(u + 1) - value(u - 1))
        )
        ode = max(ode, abs(defect))
    ode /= dh_scale

    volt = 0.0
    for u in np.linspace(0.0, R - near, _RESIDUAL_SAMPLES // 2):
        u = float(u)
        shift = integral_all_pieces(h, u + 1, R + 1) - integral_all_pieces(h, u - 1, R - 1)
        phi = 0.0 if abs(u) > R else -(1 / lam) * (math.cos(lam * u) - math.cos(lam * R))
        defect = value(u) - phi - 0.5 * delta * shift
        volt = max(volt, abs(defect))
    volt /= h_scale

    tail_exact = integral_all_pieces(h, R - 1, R)
    full_exact = integral_all_pieces(h, -R, R)
    compat = (1 / lam) * math.cos(lam * R) + 0.5 * delta * tail_exact + eps * full_exact
    compat_scale = max(abs(1 / lam), abs(tail_exact), abs(full_exact), 1e-300)
    compat = abs(compat) / compat_scale

    target = lam**2 / (4 * math.pi**2)
    ray = abs(quotient_quadrature_scalar(h, value, slope) - target) / target

    if ctx is not None:
        scale = max(abs(tail_exact), abs(full_exact), 1e-300)
        tail_gap = abs(tail_integral_loop(ctx, lam) - tail_exact) / scale
        full_gap = abs(full_integral_loop(ctx, lam) - full_exact) / scale
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
