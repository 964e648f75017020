"""The four workloads: their inputs, their operations and their checks.

Every workload is a closed loop with one client: one operation runs at a
time, from one process.  A run repeats whole *rounds*.  A round is a list of
operations drawn from ``(seed, round index)`` plus, where a fault is kept in
view, the same pinned inputs in every round.  So the share of failed
operations is the same in every run, however many rounds fit in it.

* ``cli``: a scripted session of ``python3 -m lowzero.cli`` subprocesses.
* ``sweep``: in-process ``height_bound_result`` over seeded, distinct nu.
* ``optimizer``: in-process ``minimal_quotient`` -> ``reconstruct`` ->
  ``residuals`` at seeded (kernel, R).
* ``verify``: ``python3 -m lowzero.cli verify`` with default arguments.

Seeded supports are drawn one per cell of the range, so every round covers
the whole range.  Draws that fall where a known fault strikes are drawn
again (fault A: the smallest root lies within two scan steps of an excluded
Chebyshev frequency; fault B: Sp or SO- past R = 9).  Each fault is kept in
view by pinned inputs that fail in every round; see README.md.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import speed
from lowzero import bounds, solver, testfunction
from lowzero.symmetry import Symmetry
from lowzero.verification import RESIDUAL_PAIRS

S = Symmetry
clock = time.perf_counter
SUBPROCESS_TIMEOUT = 150


@dataclass
class Op:
    kind: str
    args: tuple
    fault: str | None = None  # "A" or "B" for a pinned input that shows a fault
    oracle: float | None = None  # oracle upper bound, computed before the run


@dataclass
class Result:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None
    trace: dict | None = None
    probe: float = 0.0  # seconds the speed probe took just before the operation


@dataclass
class Context:
    root: Path
    env: dict
    trace_file: Path  # where a traced subprocess writes its spans and counts
    traced: bool = False


def run_round(workload, ops: list[Op], ctx: Context, tracer=None) -> list[Result]:
    """Run ops one after another, each preceded by a probe of the machine's speed."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        p = workload.probe.measure(ctx.env)
        r = workload.execute(op, ctx)
        r.probe = p
        results.append(r)
    return results


def scaled_seconds(workload, results: list[Result]) -> list[float]:
    return workload.probe.scale([r.seconds for r in results], [r.probe for r in results])


def _rng(seed: int, index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, tag])


def _cells(lo: float, hi: float, step: float) -> list[tuple[float, float]]:
    """(lo, hi) cut at the multiples of ``step`` inside it."""
    inner = [k * step for k in range(math.floor(lo / step) + 1, math.ceil(hi / step))]
    edges = [lo, *inner, hi]
    return list(zip(edges[:-1], edges[1:]))


def _screened_draw(rng, g: Symmetry, lo: float, hi: float, to_support) -> tuple[float, float | None]:
    """Draw x in (lo, hi) until its support lies outside fault A's domain.

    Returns x and, on the equation branch, the oracle bound at its support.
    """
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        R = to_support(x)
        if not checks.equation_branch(g, R):
            return x, None
        oracle = checks.oracle_bound(g, R)
        if not checks.in_fault_a_domain(g, R, oracle):
            return x, oracle
    raise RuntimeError(f"({lo}, {hi}) lies in fault A's domain for {g}")


def _oracle_if_equation(g: Symmetry, R: float) -> float | None:
    return checks.oracle_bound(g, R) if checks.equation_branch(g, R) else None


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    in_process = True
    probe = speed.INTERPRETER

    def execute(self, op: Op, ctx: Context) -> Result:
        start = clock()
        try:
            out = self.call(*op.args)
            error = None
        except Exception as exc:  # a raising input is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        return Result(op, clock() - start, out, error)


class Sweep(InProcess):
    """``height_bound_result`` for Sp, SO+, SO- over seeded distinct nu."""

    name = "sweep"
    #: One draw per cell; past nu = 1 each unit cell holds one partition size
    #: n, so every round covers every n once per kernel.
    cells = {g: _cells(0.3, hi, 1.0) for g, hi in ((S.Sp, 18.0), (S.SOplus, 19.6), (S.SOminus, 18.0))}
    pinned = (
        (S.Sp, 13.898, "A"),  # R = 6.949: returns 0.1380, the oracle gives 0.0690
        (S.SOplus, 5.98, "A"),  # R = 2.99: about 3x the oracle
        (S.SOplus, 7.9, "A"),  # R = 3.95: about 3x the oracle
        (S.SOminus, 2.3352, "A"),  # R = 1.1676: RootScanError
        (S.SOplus, 13.78, "A"),  # R = 6.89: RootScanError
        (S.Sp, 19.4, "B"),  # DegenerateRadiusError
        (S.SOminus, 19.0, "B"),  # DegenerateRadiusError
    )

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index, 1)
        ops = []
        for g, cells in self.cells.items():
            for lo, hi in cells:
                nu, oracle = _screened_draw(rng, g, lo, hi, lambda x, g=g: checks.support_for(g, x))
                ops.append(Op("bound", (g, nu), oracle=oracle))
        for g, nu, fault in self.pinned:
            ops.append(Op("bound", (g, nu), fault, _oracle_if_equation(g, checks.support_for(g, nu))))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        bounds.height_bound_result(S.SOplus, 2.0)

    @staticmethod
    def call(g: Symmetry, nu: float):
        return bounds.height_bound_result(g, nu).bound

    def check(self, results: list[Result]) -> list[str | None]:
        reasons, groups = [], {}
        for i, r in enumerate(results):
            g, nu = r.op.args
            reason = r.error or checks.check_bound(g, checks.support_for(g, nu), r.output, r.op.oracle)
            reasons.append(reason)
            if reason is None and r.op.fault is None:
                groups.setdefault(g, []).append((nu, r.output, i))
        _flag_steps(groups, reasons, checks.check_monotone, "bound rises with nu")
        return reasons


class Optimizer(InProcess):
    """``minimal_quotient``, ``reconstruct`` and ``residuals`` at one support."""

    name = "optimizer"
    kernels = (S.O, S.Sp, S.SOplus, S.SOminus)
    #: One draw per cell; past R = 1/2 each cell holds one partition size n.
    cells = _cells(0.2, 9.0, 0.5)
    pinned = (
        (S.Sp, 6.949, "A"),  # minimal_quotient returns twice the oracle's value
        (S.SOminus, 1.1676, "A"),  # RootScanError
        (S.SOplus, 2.99, "A"),  # about 3x the oracle
    )
    samples = 201

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index, 2)
        ops = []
        for g in self.kernels:
            for lo, hi in self.cells:
                R, oracle = _screened_draw(rng, g, lo, hi, lambda x: x)
                ops.append(Op("optimizer", (g, R), oracle=oracle))
        for g, R, fault in self.pinned:
            ops.append(Op("optimizer", (g, R), fault, _oracle_if_equation(g, R)))
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        self.call(S.Sp, 0.75)

    @staticmethod
    def call(g: Symmetry, R: float):
        mq = solver.minimal_quotient(g, R)
        h, rec = testfunction.reconstruct(g, R)
        ctx = solver.build_context(g, R) if checks.equation_branch(g, R) else None
        report = testfunction.residuals(h, ctx)
        return mq.bound, rec.bound, h, report

    def check(self, results: list[Result]) -> list[str | None]:
        reasons = []
        for r in results:
            if r.error:
                reasons.append(r.error)
                continue
            g, R = r.op.args
            bound, rec_bound, h, report = r.output
            us = [float(u) for u in np.linspace(-R - 0.1, R + 0.1, self.samples)]
            hs = [float(h(u)) for u in us]
            reasons.append(
                checks.check_bound(g, R, bound, r.op.oracle)
                or (None if abs(rec_bound - bound) <= 1e-14 * bound else
                    f"reconstruct bound {rec_bound!r} != minimal_quotient {bound!r}")
                or checks.check_even_support(R, us, hs)
                or checks.check_residuals(checks.report_residuals(report))
            )
            r.output = None  # drop the optimizer once checked
        return reasons


def _flag_steps(groups: dict, reasons: list, bad_steps, why: str) -> None:
    """``groups`` maps a key to (x, y, result index) triples; mark both ends
    of every step of y along x that ``bad_steps`` flags."""
    for pts in groups.values():
        pts.sort()
        for j in bad_steps([(x, y) for x, y, _ in pts]):
            for _, _, i in (pts[j - 1], pts[j]):
                reasons[i] = reasons[i] or why


# ---------------------------------------------------------------------------
# Subprocess workloads
# ---------------------------------------------------------------------------

class Subprocess:
    in_process = False
    probe = speed.PROCESS

    def execute(self, op: Op, ctx: Context) -> Result:
        args = [str(a) for a in op.args]
        if ctx.traced:
            argv = [sys.executable, str(ctx.root / "bench" / "tracing.py"), str(ctx.trace_file),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "lowzero.cli", *args]
        start = clock()
        proc = subprocess.run(argv, cwd=ctx.root, env=ctx.env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
        seconds = clock() - start
        trace = None
        if ctx.traced:
            trace = json.loads(ctx.trace_file.read_text())
            ctx.trace_file.unlink()
        return Result(op, seconds, proc, None, trace)

    def warm_up(self) -> None:
        pass


def _cli_record(stdout: str, json_format: bool) -> dict:
    if json_format:
        return json.loads(stdout)
    record = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        record[key] = value
    if "cleared" in record:
        record["cleared"] = {"True": True, "False": False}[record["cleared"]]
    return record


class Cli(Subprocess):
    """A scripted session: bound, proportion, testfn and curve commands."""

    name = "cli"
    kernels = (S.U, S.O, S.Sp, S.SOplus, S.SOminus)
    nu_strata = ((0.3, 2.0, "text"), (2.0, 6.0, "json"))
    families = (("Hr", (1, 2, 3, 4), None), ("Hrpm", (1, 3), 1), ("Hrpm", (1, 3), -1))
    beta_strata = ((0.2, 5.0, "text"), (5.0, 40.0, "json"))
    testfn_samples = 801
    curve = ("curve", "--symmetry", "Sp", "--nu-from", "1", "--nu-to", "3", "--steps", "100")

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index, 3)
        ops = []
        for g in self.kernels:
            for lo, hi, fmt in self.nu_strata:
                nu, oracle = _screened_draw(rng, g, lo, hi, lambda x, g=g: checks.support_for(g, x))
                ops.append(Op("bound", ("bound", "--symmetry", g.value, "--nu-max", repr(nu),
                                        "--format", fmt), oracle=oracle))
        ops.append(Op("bound", ("bound", "--symmetry", "SO+", "--nu-max", "2", "--oracle-check")))
        for family, orders, sign in self.families:
            r = int(rng.choice(orders))
            for lo, hi, fmt in self.beta_strata:
                beta = rng.uniform(lo, hi)
                args = ["proportion", "--family", family, "--r", str(r), "--beta", repr(beta),
                        "--format", fmt]
                if sign is not None:
                    args += ["--sign", str(sign)]
                ops.append(Op("proportion", tuple(args)))
        for g, R in RESIDUAL_PAIRS:
            ops.append(Op("testfn", ("testfn", "--symmetry", g.value, "--R", repr(R),
                                     "--samples", str(self.testfn_samples))))
        ops.append(Op("curve", self.curve))
        return ops

    def check(self, results: list[Result]) -> list[str | None]:
        reasons: list[str | None] = []
        bound_points: dict = {}  # kernel -> [(nu, bound, result index)]
        beta_points: dict = {}  # (family, r, sign) -> [(beta, lower bound, result index)]
        for i, r in enumerate(results):
            proc, a = r.output, r.op.args
            if proc.returncode != 0:
                reasons.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            try:
                if r.op.kind == "bound":
                    reason, key, point = self._check_bound(r, a, proc.stdout)
                    if key is not None and reason is None:
                        bound_points.setdefault(key, []).append((*point, i))
                elif r.op.kind == "proportion":
                    reason, key, point = self._check_proportion(a, proc.stdout)
                    if key is not None and reason is None:
                        beta_points.setdefault(key, []).append((*point, i))
                elif r.op.kind == "testfn":
                    reason = checks.check_testfn(float(_arg(a, "--R")), self.testfn_samples,
                                                 proc.stdout, proc.stderr)
                else:
                    reason = self._check_curve(proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            reasons.append(reason)
        _flag_steps(bound_points, reasons, checks.check_monotone, "bound rises with nu")
        _flag_steps(beta_points, reasons, checks.check_proportion_monotone,
                    "proportion bound falls as beta grows")
        return reasons

    @staticmethod
    def _check_bound(r: Result, a: tuple, stdout: str):
        record = _cli_record(stdout, "json" in a)
        g = Symmetry.parse(_arg(a, "--symmetry"))
        nu = float(_arg(a, "--nu-max"))
        bound = float(record["bound"])
        if "--oracle-check" in a:
            return checks.check_headline(bound, float(record["oracle"])), None, None
        reason = checks.check_bound(g, checks.support_for(g, nu), bound, r.op.oracle)
        return reason, g, (nu, bound)

    @staticmethod
    def _check_proportion(a: tuple, stdout: str):
        record = _cli_record(stdout, "json" in a)
        family, order = _arg(a, "--family"), int(_arg(a, "--r"))
        sign = int(_arg(a, "--sign")) if "--sign" in a else None
        beta = float(_arg(a, "--beta"))
        reason = checks.check_proportion(family, order, sign, beta, record)
        if not record["cleared"]:
            return reason, None, None
        return reason, (family, order, sign), (beta, float(record["lower_bound"]))

    @staticmethod
    def _check_curve(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != 101 or lines[0] != "nu_max,bound,branch":
            return "curve output is not a header and 100 rows"
        pts = []
        for line in lines[1:]:
            nu_s, bound_s, branch = line.split(",")
            nu, bound = float(nu_s), float(bound_s)
            want = "small_support" if nu <= 1 else "transcendental"
            if branch != want:
                return f"branch {branch} at nu={nu!r}, expected {want}"
            reason = checks.check_bound(S.Sp, checks.support_for(S.Sp, nu), bound)
            if reason:
                return reason
            pts.append((nu, bound))
        if checks.check_monotone(pts):
            return "curve bound rises with nu"
        return None


def _arg(a: tuple, flag: str) -> str:
    return a[a.index(flag) + 1]


class Verify(Subprocess):
    """``lowzero verify`` with default arguments."""

    name = "verify"
    probe = speed.SCIPY_PROCESS

    def make_round(self, seed: int, index: int) -> list[Op]:
        return [Op("verify", ("verify",))]

    @staticmethod
    def expected_cases() -> int:
        oracle_grid = [r for r in np.linspace(0.17, 0.93, 12) if abs(r - 0.5) > 0.01]
        kernels, two_piece_kernels, two_piece_grid, proportion_cases = 4, 3, 8, 3
        return (kernels * len(oracle_grid) + two_piece_kernels * (two_piece_grid + 1)
                + len(RESIDUAL_PAIRS) + proportion_cases)

    def check(self, results: list[Result]) -> list[str | None]:
        reasons = []
        for r in results:
            try:
                summary = json.loads(r.output.stdout)
            except ValueError as exc:
                reasons.append(f"verify printed no JSON: {exc}")
                continue
            reasons.append(checks.check_verify(r.output.returncode, summary, self.expected_cases()))
        return reasons


WORKLOADS = {w.name: w for w in (Cli(), Sweep(), Optimizer(), Verify())}
