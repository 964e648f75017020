"""The residual layer and the optimizer h, bit for bit against a stored table.

``tests/data/residuals_golden.json`` was written by
``tests/data/make_residuals_golden.py`` on one BLAS thread, before the
optimizer's evaluators were batched across the residuals and the quotient;
its ``h_sha256`` key (h and h' at 401 points and h's breakpoints) was added
before h lost its ``Piece`` tuples.  A change that keeps every output byte
leaves these tests passing.  From n = 100 cells on, h's continuity solve
depends on the BLAS thread count, so those supports are checked in a
subprocess on one thread.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lowzero
from lowzero.symmetry import Symmetry

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
from make_residuals_golden import record  # noqa: E402

GOLDEN = json.loads((DATA / "residuals_golden.json").read_text())
MANY_CELLS = [r for r in GOLDEN if math.ceil(2 * r["R"]) >= 100 and r["kernel"] != "O"]


def _label(record: dict) -> str:
    return f"{record['kernel']}-{record['R']!r}"


@pytest.mark.parametrize("want", [r for r in GOLDEN if r not in MANY_CELLS], ids=_label)
def test_residuals_match_the_golden_table(want):
    assert record(Symmetry[want["kernel"]], want["R"]) == want


def test_residuals_of_many_cells_match_the_golden_table_on_one_blas_thread():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(DATA)!r})\n"
        "from make_residuals_golden import record\n"
        "from lowzero.symmetry import Symmetry\n"
        "cases = json.loads(sys.argv[1])\n"
        "print(json.dumps([record(Symmetry[g], R) for g, R in cases]))\n"
    )
    cases = json.dumps([(r["kernel"], r["R"]) for r in MANY_CELLS])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = str(Path(lowzero.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script, cases], env=env, capture_output=True, check=True
    ).stdout
    assert MANY_CELLS and json.loads(out) == MANY_CELLS
