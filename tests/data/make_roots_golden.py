"""Write roots_golden.json: the exact roots and height bounds of the solver.

Run from the root of a checkout, against the lowzero it should pin:

    PYTHONPATH=src python tests/data/make_roots_golden.py

It records ``minimal_quotient(g, R).lam.hex()`` (with the support actually
solved at) for Sp, SO+ and SO- at 40 supports in (0.51, 20) and at the five
supports whose roots lie inside an exclusion window, and
``repr(height_bound_result(g, nu))`` with its warnings at 30 (kernel, nu)
pairs.  ``tests/test_roots_golden.py`` compares the solver against the file
bit for bit, so a change meant to keep every output byte must leave it
standing; regenerate it only for a change that moves roots on purpose.
"""

import json
import warnings
from pathlib import Path

import numpy as np

from lowzero import bounds, solver
from lowzero.symmetry import Symmetry

KERNELS = (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)
#: Roots inside an exclusion window, where both window ends agree in sign,
#: and one 1.1e-9 below cos(pi/4).
WINDOW_SUPPORTS = (
    (Symmetry.SOplus, 1.7892145507812498),
    (Symmetry.SOplus, 2.9864935546874998),
    (Symmetry.SOplus, 13.872709030100335),
    (Symmetry.Sp, 3.10365380859375),
    (Symmetry.SOminus, 1.1683677734375002),
)


def supports() -> list:
    rng = np.random.default_rng(20)
    cases = [(g, R) for g in KERNELS for R in sorted(rng.uniform(0.51, 20.0, 40).tolist())]
    return cases + list(WINDOW_SUPPORTS)


def heights() -> list:
    rng = np.random.default_rng(21)
    nus = [0.7, 1.00003, 2.0, 5.98, 13.898, 19.4, 19.0] + rng.uniform(0.3, 40.0, 23).tolist()
    return [(KERNELS[i % 3], nu) for i, nu in enumerate(nus)]


def root_record(g: Symmetry, R: float) -> dict:
    result = solver.minimal_quotient(g, R)
    return {"kernel": g.name, "R": R, "support": result.support, "lam": result.lam.hex()}


def height_record(g: Symmetry, nu: float) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = repr(bounds.height_bound_result(g, nu))
    return {
        "kernel": g.name,
        "nu": nu,
        "repr": text,
        "warnings": [str(w.message) for w in caught],
    }


def main() -> None:
    table = {
        "roots": [root_record(g, R) for g, R in supports()],
        "heights": [height_record(g, nu) for g, nu in heights()],
    }
    path = Path(__file__).with_name("roots_golden.json")
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
