"""Write residuals_golden.json: the exact residuals and quotients of the optimizers.

Run from the root of a checkout, against the lowzero it should pin, on one
BLAS thread (from n = 100 cells on, h's continuity solve depends on the
thread count):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/data/make_residuals_golden.py

It records, as ``float.hex``, every field of ``residuals(h)`` and
``quotient_quadrature(h)`` for h = ``reconstruct(g, R)``, and the SHA-256 of
the bytes of h and h' at 401 points on [-R - 0.1, R + 0.1] and of
``h.breakpoints()``, at about 60 supports: a quarter of the first optimizer round of the benchmark at seeds
1 and 2 (``bench/workloads.py``), the residual pairs of ``verify``, five
supports of many cells up to R = 60.3, the closed-end supports 2R = 2, 3,
14 and 40 of every equation kernel and the O kernel's smallest and largest
supports.  ``tests/test_residuals_golden.py`` compares the residual layer
and h itself against the file bit for bit, so a change meant to keep every output byte
must leave it standing; regenerate it only for a change that moves the
residuals on purpose.
"""

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lowzero.symmetry import Symmetry
from lowzero.testfunction import quotient_quadrature, reconstruct, residuals
from lowzero.verification import RESIDUAL_PAIRS

S = Symmetry
EQUATION_KERNELS = (S.Sp, S.SOplus, S.SOminus)
CLOSED_END_SUPPORTS = (1.0, 1.5, 7.0, 20.0)
FIXED_SUPPORTS = (
    *RESIDUAL_PAIRS,
    (S.SOminus, 5.2),
    (S.SOplus, 9.7),
    (S.Sp, 20.3),
    (S.SOplus, 50.3),
    (S.Sp, 60.3),
    *[(g, R) for g in EQUATION_KERNELS for R in CLOSED_END_SUPPORTS],
    (S.O, 1e-10),
    (S.O, 5e6),
)


def optimizer_supports(seed: int) -> list:
    """Every fourth (kernel, R) of the optimizer workload's first round."""
    sys.path.insert(0, str(Path(__file__).parents[2] / "bench"))
    import workloads

    ops = workloads.Optimizer().make_round(seed, 0)
    return [op.args for op in ops[::4]]


def h_digest(h) -> str:
    """SHA-256 of h and h' at 401 points on [-R - 0.1, R + 0.1], then of
    h's breakpoints, as float64 bytes."""
    us = np.linspace(-h.R - 0.1, h.R + 0.1, 401)
    arrays = (h(us), h.derivative(us), h.breakpoints())
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def record(g: Symmetry, R: float) -> dict:
    h, _ = reconstruct(g, R)
    fields = {name: value.hex() for name, value in asdict(residuals(h)).items()}
    return {
        "kernel": g.name,
        "R": R,
        **fields,
        "quotient": quotient_quadrature(h).hex(),
        "h_sha256": h_digest(h),
    }


def main() -> None:
    supports = optimizer_supports(1) + optimizer_supports(2) + list(FIXED_SUPPORTS)
    table = [record(g, R) for g, R in supports]
    path = Path(__file__).with_name("residuals_golden.json")
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
