"""Benchmark of lowzero: one command, four workloads, checked outputs.

    python3 bench/run.py --workload {cli,sweep,optimizer,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` and
the CLI runs as ``python3 -m lowzero.cli`` with ``PYTHONPATH=src``.

``--trace 0`` repeats whole rounds of the workload for S seconds and prints
the end-to-end metrics.  ``--trace 1`` runs one round untraced and the same
round traced, and prints the per-layer metrics; its spans and counts go to
``.bench_out/``.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.

This file only pins the environment: BLAS and OpenMP threads and the CPU
must be fixed before numpy is first imported, which ``harness`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli", "sweep", "optimizer", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lowzero" / "__init__.py").is_file():
        print(f"error: no lowzero package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ["PYTHONPATH"] = str(SRC)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
