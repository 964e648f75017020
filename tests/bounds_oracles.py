"""The limit guard of ``bounds.height_bound_result`` as two full solves,
used only as a test oracle.

``height_bound_result_two_solves`` samples the limit at nu/2 - 1e-5 and
solves the second sample at nu/2 - 2e-5 through ``minimal_quotient`` to its
root, then warns when the two bounds differ by more than 1e-4.
``bounds.height_bound_result`` must return the same result and issue the
same warnings.
"""

import warnings

from lowzero.bounds import _LIMIT_OFFSET, _SMOOTHNESS_GUARD
from lowzero.solver import equation_branch, minimal_quotient


def height_bound_result_two_solves(w_star, nu_max):
    if nu_max <= 0:
        raise ValueError("nu_max must be positive")
    nu = nu_max / 2.0
    if not equation_branch(w_star, nu):
        return minimal_quotient(w_star, nu)
    first = minimal_quotient(w_star, nu - _LIMIT_OFFSET)
    second = minimal_quotient(w_star, nu - 2 * _LIMIT_OFFSET)
    if abs(first.bound - second.bound) > _SMOOTHNESS_GUARD:
        warnings.warn(
            f"limit approximation for {w_star} at nu_max={nu_max} looks rough: "
            f"{first.bound} vs {second.bound}",
            stacklevel=2,
        )
    return first
