"""Chebyshev routines used only as test oracles for the package."""

import numpy as np


def t_eval(n: int, x):
    """First-kind Chebyshev polynomial T_n(x); scalar or ndarray x."""
    if n < 0:
        raise ValueError("order must be >= 0")
    prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if n == 0:
        return prev
    cur = x
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def truncated_geometric(n: int, x: float, z: complex) -> complex:
    """Partial sum  sum_{j=0}^{n-1} U_j(x) z^j  by direct summation.

    The closed form (1 - z^n U_n(x) + z^{n+1} U_{n-1}(x)) / (1 - 2zx + z^2)
    is equivalent away from the denominator's zero set and is used as a test
    oracle only, so this routine stays safe at the singularity.
    """
    if n < 1:
        raise ValueError("need at least one term")
    total = 0j
    u_prev, u_cur = 0.0, 1.0  # U_{-1}, U_0
    zpow = 1.0 + 0j
    for _ in range(n):
        total += u_cur * zpow
        u_prev, u_cur = u_cur, 2 * x * u_cur - u_prev
        zpow *= z
    return total


def u_stack_list(n_max: int, x):
    """U_0(x)..U_{n_max}(x) as a list, each order 2 x U_{k-1} - U_{k-2} in
    turn; the list recurrence ``chebyshev.u_stack`` replaced."""
    out = [np.ones_like(x) if isinstance(x, np.ndarray) else 1.0]
    if n_max >= 1:
        out.append(2 * x)
    for _ in range(n_max - 1):
        out.append(2 * x * out[-1] - out[-2])
    return out
