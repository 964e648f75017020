"""Write proportion_golden.json: the exact records of the ``proportion`` command.

Run from the root of a checkout, against the lowzero it should pin:

    PYTHONPATH=src python tests/data/make_proportion_golden.py

It records what ``lowzero proportion`` prints, in text and in JSON, for the
full family at r = 1..6 and the sign-restricted families at r = 1, 3, 5 with
either sign, each at beta = m / (4R) for m = 0.5 (below the pole), 2 and 20
(near saturation).  ``tests/test_cli.py`` compares the command against the
file byte for byte, so a change meant to keep every output byte must leave
it standing; regenerate it only for a change that moves a proportion bound
or threshold on purpose.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from lowzero import cli

FULL_ORDERS = range(1, 7)
SIGNED_ORDERS = (1, 3, 5)
MULTIPLES = (Fraction(1, 2), 2, 20)


def families() -> list:
    """(argv without --beta, 1/(4R)) for every pinned family."""
    full = [(["--family", "Hr", "--r", str(r)], Fraction(r * r, 2)) for r in FULL_ORDERS]
    signed = [
        (["--family", "Hrpm", "--r", str(r), "--sign", sign], Fraction(r * (r + 2)))
        for r in SIGNED_ORDERS
        for sign in ("+1", "-1")
    ]
    return full + signed


def record(argv: list) -> dict:
    """What ``proportion`` prints for argv, in either format."""
    printed = {}
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["proportion", *argv, "--format", fmt])
        assert code == 0, argv
        printed[fmt] = out.getvalue()
    return {"argv": argv, **printed}


def main() -> None:
    table = [
        record([*family, "--beta", repr(float(m * quarter_inverse))])
        for family, quarter_inverse in families()
        for m in MULTIPLES
    ]
    path = Path(__file__).with_name("proportion_golden.json")
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
