"""The solver's roots and height bounds, bit for bit against a stored table.

``tests/data/roots_golden.json`` was written by
``tests/data/make_roots_golden.py`` before the per-(n, delta) tables of the
root scan existed; a speed change that keeps every output byte leaves these
tests passing.
"""

import json
import warnings
from pathlib import Path

import pytest

from lowzero import bounds, solver
from lowzero.symmetry import Symmetry

GOLDEN = json.loads((Path(__file__).parent / "data" / "roots_golden.json").read_text())


def _label(record: dict) -> str:
    return f"{record['kernel']}-{record.get('R', record.get('nu'))!r}"


@pytest.mark.parametrize("record", GOLDEN["roots"], ids=_label)
def test_root_bits_match_the_golden_table(record):
    result = solver.minimal_quotient(Symmetry[record["kernel"]], record["R"])
    assert (result.lam.hex(), result.support) == (record["lam"], record["support"])


@pytest.mark.parametrize("record", GOLDEN["heights"], ids=_label)
def test_height_bound_matches_the_golden_table(record):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = repr(bounds.height_bound_result(Symmetry[record["kernel"]], record["nu"]))
    assert text == record["repr"]
    assert [str(w.message) for w in caught] == record["warnings"]
