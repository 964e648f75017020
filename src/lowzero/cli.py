"""Command-line interface.

Subcommands mirror the library surface: ``bound`` and ``proportion`` print
single evaluations, ``curve`` and ``testfn`` emit CSV artifacts, ``verify``
runs the cross-validation matrix and sets the exit code.  Every run is
deterministic given its flags; CSV output uses LF line endings and
round-trip float precision so repeated runs are byte-identical.

Exit codes: 0 success, 1 verification failure (``verify``, or a ``bound
--oracle-check`` whose bound lies above its oracle), 2 usage error.  ``curve``
computes every row before it writes any, so a bound that fails leaves no
partial CSV on stdout or at ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import bounds, proportion, rayleigh, solver, testfunction, verification
from .symmetry import Symmetry

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(x, ".17g")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The stream ``--out`` names: stdout for none or "-", else the file,
    closed on leaving; a file that cannot be opened exits 2."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", newline="")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    with stream:
        yield stream


def _symmetry(value: str) -> Symmetry:
    try:
        return Symmetry.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _print_record(record: dict, fmt: str) -> None:
    """One JSON line with sorted keys, or one ``key value`` line per entry."""
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for key, value in record.items():
            print(f"{key} {value}")


def cmd_bound(args) -> int:
    result = bounds.height_bound_result(args.symmetry, args.nu_max)
    lines = {
        "symmetry": args.symmetry.value,
        "nu_max": _fmt(args.nu_max),
        "bound": _fmt(result.bound),
        "branch": result.branch,
        "lambda": _fmt(result.lam) if result.lam is not None else "",
        "m_tilde": _fmt(result.m_tilde),
    }
    if args.oracle_check:
        oracle = rayleigh.sqrt_quotient(args.symmetry, result.support, args.trunc)
        lines["oracle"] = _fmt(oracle)
        lines["oracle_gap"] = _fmt(abs(oracle - result.bound))
    _print_record(lines, args.format)
    # the oracle bounds the minimum from above, so a bound above it is a wrong root
    if args.oracle_check and result.bound - oracle > verification.ORACLE_EXCESS_TOL * result.bound:
        print(
            f"error: bound {_fmt(result.bound)} lies above its oracle {_fmt(oracle)} for "
            f"{args.symmetry.value} at R={result.support!r} (N={args.trunc})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_curve(args) -> int:
    if not args.nu_from < args.nu_to:
        print("error: --nu-from must be below --nu-to", file=sys.stderr)
        return 2
    if args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 2
    rows = []  # all of them before any output, so a failing bound writes none
    for nu in np.linspace(args.nu_from, args.nu_to, args.steps).tolist():
        result = bounds.height_bound_result(args.symmetry, nu)
        rows.append([_fmt(nu), _fmt(result.bound), result.branch])
    with _output(args.out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["nu_max", "bound", "branch"])
        writer.writerows(rows)
    return 0


def cmd_proportion(args) -> int:
    if args.family == "Hr":
        if args.sign is not None:
            print("error: --sign only applies to the Hrpm family", file=sys.stderr)
            return 2
        threshold, lower = proportion.sym_power_proportion(args.r, args.beta)
    else:
        if args.sign is None:
            print("error: Hrpm requires --sign", file=sys.stderr)
            return 2
        threshold, lower = proportion.sym_power_proportion_signed(
            args.r, args.sign, args.beta
        )
    cleared = args.beta >= threshold
    record = {
        "family": args.family,
        "r": args.r,
        "beta": _fmt(args.beta),
        "threshold": _fmt(threshold),
        "cleared": cleared,
        "lower_bound": _fmt(lower) if cleared else "not applicable (below threshold)",
    }
    if args.sign is not None:
        record["sign"] = args.sign
    _print_record(record, args.format)
    return 0


def cmd_testfn(args) -> int:
    if args.symmetry is Symmetry.U:
        print("error: the unitary kernel has no reconstructed optimizer", file=sys.stderr)
        return 2
    if args.samples < 2:
        print("error: --samples must be at least 2", file=sys.stderr)
        return 2
    h, _ = testfunction.reconstruct(args.symmetry, args.R)
    us = np.linspace(-args.R - 0.1, args.R + 0.1, args.samples)
    with _output(args.out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["u", "h"])
        writer.writerows([_fmt(u), _fmt(v)] for u, v in zip(us.tolist(), h(us).tolist()))
    report = testfunction.residuals(h)
    fields = (f"{f.name}={getattr(report, f.name):.3e}" for f in dataclasses.fields(report))
    print("residuals:", *fields, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.grid_size < 1:
        print("error: --grid-size must be at least 1", file=sys.stderr)
        return 2
    summary = verification.run_all(grid_size=args.grid_size, trunc=args.trunc)
    with _output(args.out) as stream:
        json.dump(summary, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if not summary["passed"]:
        failures = [c["name"] for c in summary["cases"] if not c["pass"]]
        print(f"verification failed: {len(failures)} case(s)", file=sys.stderr)
        for name in failures:
            print(f"  FAIL {name}", file=sys.stderr)
        return 1
    return 0


def _finite(value: str) -> float:
    """A float option's value; inf, -inf and nan are usage errors."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {value!r}")
    return x


def _sign(value: str) -> int:
    table = {"+1": 1, "1": 1, "plus": 1, "+": 1, "-1": -1, "minus": -1, "-": -1}
    try:
        return table[value]
    except KeyError:
        raise argparse.ArgumentTypeError(f"bad sign {value!r} (use +1 or -1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowzero",
        description="Lowest-zero height bounds and small-zero proportions "
        "by random-matrix symmetry type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="height bound for one symmetry type")
    p.add_argument("--symmetry", type=_symmetry, required=True)
    p.add_argument("--nu-max", type=_finite, required=True, dest="nu_max")
    p.add_argument("--oracle-check", action="store_true", dest="oracle_check")
    p.add_argument("--trunc", type=int, default=400)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("curve", help="CSV of the bound over a support range")
    p.add_argument("--symmetry", type=_symmetry, required=True)
    p.add_argument("--nu-from", type=_finite, required=True, dest="nu_from")
    p.add_argument("--nu-to", type=_finite, required=True, dest="nu_to")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("proportion", help="small-first-zero proportion bound")
    p.add_argument("--family", choices=("Hr", "Hrpm"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sign", type=_sign, default=None)
    p.add_argument("--beta", type=_finite, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_proportion)

    p = sub.add_parser("testfn", help="sample the reconstructed optimizer to CSV")
    p.add_argument("--symmetry", type=_symmetry, required=True)
    p.add_argument("--R", type=_finite, required=True)
    p.add_argument("--samples", type=int, default=501)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_testfn)

    p = sub.add_parser("verify", help="run the cross-validation matrix")
    p.add_argument("--grid-size", type=int, default=12, dest="grid_size")
    p.add_argument("--trunc", type=int, default=400)
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, solver.RootScanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the array it could not allocate, e.g. an oracle's
        # --trunc x --trunc form; a bare MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
