"""Chebyshev polynomials of the second kind.

Everything here evaluates through the three-term recurrence, never through
the trigonometric forms: the solver routinely needs arguments with |x| > 1,
and the recurrence is exact-form stable for the small orders (n <= ~20)
appearing in this package.  The trig identities, the first kind and the
truncated generating sums are reserved for tests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["u_roots", "u_stack"]


def u_roots(n: int) -> list[float]:
    """The n roots of U_n, cos(k*pi/(n+1)) for k = 1..n, in decreasing order."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return [math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]


def u_stack(n_max: int, x):
    """All of U_0(x)..U_{n_max}(x) at once, sharing the recurrence.

    Returns a list indexed by order; entries are scalars or arrays matching x.
    """
    out = [np.ones_like(x) if isinstance(x, np.ndarray) else 1.0]
    if n_max >= 1:
        out.append(2 * x)
    for _ in range(n_max - 1):
        out.append(2 * x * out[-1] - out[-2])
    return out
