"""The ``proportion`` command's records, byte for byte against a stored table.

``tests/data/proportion_golden.json`` was written by
``tests/data/make_proportion_golden.py`` once the symmetric-power families
became specializations of ``proportion_bound``; a change that keeps every
output byte leaves these tests passing.
"""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
from make_proportion_golden import record  # noqa: E402

GOLDEN = json.loads((DATA / "proportion_golden.json").read_text())


@pytest.mark.parametrize("want", GOLDEN, ids=lambda want: " ".join(want["argv"]))
def test_proportion_records_match_the_golden_table(want):
    assert record(want["argv"]) == want
