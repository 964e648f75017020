"""Per-order loop versions of the solver's array code, used only as test oracles.

``scaled_amplitude_loop``, ``spectral_equation_loop`` and
``context_arrays_loop`` compute the regularized equation and the
frequency-independent context arrays one order and one entry at a time, with
scalar ``math.sin`` and ``np.sinc`` per entry.  The whole-array versions in
``lowzero.solver`` must agree with them bit for bit.  ``bisect_one_at_a_time``
is plain bisection, one scalar evaluation per halving; ``solver._bisect``
must return its root bit for bit.
"""

import math

import numpy as np

from lowzero import chebyshev as cheb
from lowzero.solver import _ipow
from lowzero.symmetry import Symmetry


def bisect_one_at_a_time(f, lo, hi, xtol):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise ValueError("bisection bracket does not straddle a sign change")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaled_amplitude_loop(ctx, lam, u):
    """Complex forcing amplitude times U_n * U_{n-1}, summed order by order."""
    zfac = 1j * ctx.delta * np.exp(1j * lam)
    fr, fi = zfac.real, zfac.imag
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


def spectral_equation_loop(ctx, lam):
    """Regularized equation, its sums over the orders taken one term at a time."""
    lam = np.asarray(lam, dtype=float)
    delta = ctx.delta
    eps = ctx.eps
    u = cheb.u_stack(ctx.n - 1, lam)
    ztil = scaled_amplitude_loop(ctx, lam, u)
    out = (delta / lam) * ztil.real
    for k in range(ctx.n):
        zk = ztil * _ipow(-delta, k)
        coef = delta * ctx.alpha[k] / 2.0 - 1.0 + eps * ctx.beta_arr[k]
        out = out - u[k] * zk.imag * coef
        if eps:
            out = out + (2 * eps / lam) * u[k] * zk.real
    return out if out.shape else float(out)


def _sin_over_theta(c, theta):
    return c * float(np.sinc(c * theta / math.pi))


def context_arrays_loop(g: Symmetry, R: float) -> dict:
    """The context arrays of (g, R), every entry assembled on its own."""
    delta = g.delta
    n = math.ceil(2 * R)

    a = np.zeros(n + 1)
    for i in range((n - 1) // 2 + 1):
        a[n - 2 * i] = R - i
    for i in range((n - 2) // 2 + 1):
        a[n - 2 * i - 1] = (n - 1) - R - i

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

    return {
        "a": a,
        "theta_lo": theta_lo,
        "theta_hi": theta_hi,
        "u_lo": u_lo,
        "u_hi": u_hi,
        "m_matrix": M,
        "alpha": np.linalg.solve(M.T, v_alpha),
        "beta_arr": np.linalg.solve(M.T, v_beta),
    }
