"""Chebyshev polynomials of the second kind.

Everything here evaluates through the three-term recurrence, never through
the trigonometric forms: the solver routinely needs arguments with |x| > 1.
The orders used run up to n = ceil(2R) at a support R (``solver``'s context
tables and ``_amplitude_and_stack``), so up to 200 for ``bound --symmetry Sp
--nu-max 200``.  The trig identities, the first kind and the truncated
generating sums are reserved for tests.
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


def u_stack(n_max: int, x) -> np.ndarray:
    """All of U_0(x)..U_{n_max}(x) at once, sharing the recurrence.

    Returns one float ndarray of shape (n_max + 1, *np.shape(x)), indexed
    by order; for a float x, ``.tolist()`` gives the values as Python floats.
    Each order is 2 x U_{k-1}(x) - U_{k-2}(x), so every entry has the bits
    of the same recurrence run on that point alone.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        two_x = 2 * x
        out[1] = two_x
        for k in range(2, n_max + 1):
            out[k] = two_x * out[k - 1] - out[k - 2]
    return out
