"""Everything a run does once the environment is pinned; see run.py."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import lowzero
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
IMPORT_MODULES = {"lowzero": "import.lowzero_s", "scipy.linalg": "import.scipy_linalg_s",
                  "scipy.integrate": "import.scipy_integrate_s"}


def setup_probe(env: dict) -> float:
    """Seconds from process start to ``import lowzero`` done, in a fresh interpreter.

    ``time.monotonic`` reads one system-wide clock, so the child's reading
    after the import minus the parent's reading before the start is that span.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, lowzero; print(time.monotonic())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def import_probe(env: dict) -> dict[str, float]:
    """Cumulative import seconds of lowzero and its scipy parts, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lowzero"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] in IMPORT_MODULES and parts[1].isdigit():
            found[IMPORT_MODULES[parts[2]]] = int(parts[1]) * 1e-6
    return found


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_timed(workload, args, ctx):
    """Whole rounds until ``--seconds`` have passed."""
    results, reasons = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        batch = workloads.run_round(workload, workload.make_round(args.seed, index), ctx)
        results += batch
        reasons += workload.check(batch)
        index += 1
    return results, reasons


def run_traced(workload, args, ctx):
    """Round 0 untraced, then the same round traced."""
    ops = workload.make_round(args.seed, 0)
    untraced = workloads.run_round(workload, ops, ctx)
    ctx.traced = True
    if workload.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workloads.run_round(workload, ops, ctx, tracer)
        finally:
            tracer.uninstall()
        dumps = [dict(op=None, **tracer.dump())]
    else:
        traced = workloads.run_round(workload, ops, ctx)
        dumps = [dict(op=i, argv=list(r.op.args), **r.trace) for i, r in enumerate(traced)]
    return untraced, traced, dumps


def end_to_end(workload, results, reasons, setups, speeds):
    scaled = workloads.scaled_seconds(workload, results)
    ok = [(r.op.kind, r.seconds, x) for r, x, why in zip(results, scaled, reasons) if why is None]
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (statistics.median(setups) * speed.PROCESS.reference / statistics.median(speeds), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        "ops_per_s": (len(ok) / sum(scaled), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(x for *_, x in ok), "ms"),
    }
    print(f"machine speed: {workload.probe.name} probe median"
          f" {1e3 * statistics.median(r.probe for r in results):.4f} ms"
          f" (reference {1e3 * workload.probe.reference:.4f} ms)")
    print(f"unscaled wall: setup_s {statistics.median(setups):.4f} s,"
          f" ops_per_s {len(ok) / sum(r.seconds for r in results):.4f} 1/s,"
          f" op_ms_p50 {1e3 * statistics.median(t for _, t, _ in ok):.4f} ms")
    for kind in sorted({k for k, *_ in ok}):
        xs = sorted(x for k, _, x in ok if k == kind)
        line = f"  {kind}: n={len(xs)} median {1e3 * statistics.median(xs):.4f} ms"
        if len(xs) >= 200:  # ten samples beyond p95
            line += f", p95 {1e3 * statistics.quantiles(xs, n=20)[-1]:.4f} ms"
        print(line)
    return metrics


def per_layer(workload, untraced, traced, dumps, imports):
    totals = tracing.Totals()
    for d in dumps:
        totals.add(d)
    metrics = {k: (v, "s") for k, v in imports.items()}
    metrics.update(totals.metrics())
    wall = sum(r.seconds for r in traced)
    attributed = sum(totals.layer_self(layer) for layer in tracing.ALL_LAYERS)
    # Compare the two passes at one machine speed, then express in traced seconds.
    traced_scaled = sum(workloads.scaled_seconds(workload, traced))
    overhead = traced_scaled - sum(workloads.scaled_seconds(workload, untraced))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.outside_s"] = (wall - attributed, "s")
    metrics["trace.overhead_s"] = (overhead * wall / traced_scaled, "s")
    return metrics


def run(args) -> int:
    if Path(lowzero.__file__).resolve().parent != SRC / "lowzero":
        print(f"error: imported lowzero from {lowzero.__file__}", file=sys.stderr)
        return 2

    env = dict(os.environ)  # run.py pinned the threads and put src/ on PYTHONPATH
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(root=ROOT, env=env, trace_file=OUT / f"proc-{os.getpid()}.json")
    info = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in info.items() if k != "threads")
          + " " + " ".join(f"{k}={v}" for k, v in info["threads"].items()))

    problems = checks.self_test()
    print(f"self-tests {'passed' if not problems else 'FAILED: ' + '; '.join(problems)}")

    if args.trace:
        probes = [import_probe(env) for _ in range(SETUP_PROBES)]
        imports = {k: statistics.median(p[k] for p in probes) for k in IMPORT_MODULES.values()}
    else:
        speeds, setups = [speed.PROCESS.measure(env)], []
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe(env))
            speeds.append(speed.PROCESS.measure(env))
    workload.warm_up()

    if args.trace:
        untraced, traced, dumps = run_traced(workload, args, ctx)
        results = untraced + traced
        reasons = workload.check(untraced) + workload.check(traced)
    else:
        results, reasons = run_timed(workload, args, ctx)

    failed = [i for i, why in enumerate(reasons) if why is not None]
    unexpected = [i for i in failed if results[i].op.fault is None]
    print(f"attempted {len(results)} failed {len(failed)} "
          f"(pinned fault inputs {len(failed) - len(unexpected)}, other {len(unexpected)})")
    for i in unexpected[:20]:
        print(f"  FAIL {results[i].op.kind} {results[i].op.args}: {reasons[i]}")

    if args.trace:
        metrics = per_layer(workload, untraced, traced, dumps, imports)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "env": info, "processes": dumps}))
        print(f"spans and counts written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(workload, results, reasons, setups, speeds)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    record = {
        "correct": not problems and not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    ops = [{"kind": r.op.kind, "args": [str(a) for a in r.op.args], "seconds": r.seconds,
            "probe": r.probe, "failure": why} for r, why in zip(results, reasons)]
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({**record, "env": info, "operations": ops}, indent=1))
    print(json.dumps(record))
    return 0

