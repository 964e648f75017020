"""The non-atomic one-level density transform, used only as a test oracle.

The library reads each kernel's (delta, epsilon) pair directly; these
pointwise functions restate FT[W](y) = delta_0(y) + (delta/2) * 1_{|y|<1}
+ epsilon without the atom.
"""

from lowzero.symmetry import Symmetry


def unit_window(y: float) -> float:
    """Closed unit window: 1 inside (-1, 1), 1/2 on the boundary, 0 outside."""
    ay = abs(y)
    if ay < 1.0:
        return 1.0
    if ay == 1.0:
        return 0.5
    return 0.0


def density_fourier(g: Symmetry, y: float) -> float:
    """Non-atomic part of the Fourier-transformed one-level density.

    The full transform adds a unit Dirac atom at y = 0 on top of this value.
    """
    return 0.5 * g.delta * unit_window(y) + float(g.epsilon)
