"""Spans and counts around lowzero's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
modules in ``LAYERS`` with a wrapper, and rebinds every other name in the
package that refers to the same function object, so a call made through a
``from .solver import smallest_root`` binding is traced too.  The wrapper
keeps a stack of open calls; when a call ends it adds its duration to its
parent's child time, so self time = duration - time in traced children.

Most functions record one span (id, name, parent id, operation, start,
end).  The functions in ``COUNT_ONLY`` run many thousands of times per
operation (Chebyshev recurrences, samples of the optimizer); they keep the
stack, the counts and the self time but store no span.

Run as a script, this module is the hook for traced subprocesses:

    python3 bench/tracing.py OUT.json -- <lowzero CLI arguments>

It times ``import lowzero`` as a span of the ``import`` layer, installs the
tracer, runs ``lowzero.cli.main`` and writes the spans and counts to OUT.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "symmetry",
    "chebyshev",
    "solver",
    "rayleigh",
    "testfunction",
    "bounds",
    "proportion",
    "verification",
    "cli",
)
ALL_LAYERS = ("import",) + LAYERS

COUNT_ONLY_LAYERS = ("symmetry", "chebyshev")
COUNT_ONLY = {"solver.tan_ratio", "testfunction.h_eval"}

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.pairs: Counter = Counter()  # (parent name, name) -> calls
        self.errors: Counter = Counter()  # (name, exception type) -> raises
        self.points = 0  # frequencies handed to spectral_equation
        self.supports: set = set()  # distinct (kernel, R) seen by smallest_root
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool):
        stack = self._stack
        calls, total, self_time, pairs = self.calls, self.total, self.self_time, self.pairs
        spans, errors = self.spans, self.errors
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "solver.spectral_equation":
                tracer.points += _size(args[1] if len(args) > 1 else kwargs["lam"])
            elif name == "solver.smallest_root":
                ctx = args[0] if args else kwargs["ctx"]
                tracer.supports.add((ctx.g.value, ctx.R))
            parent = stack[-1] if stack else None
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
                pairs[(parent[0] if parent else None, name)] += 1
            else:
                sid = parent[3] if parent else None
            frame = [name, 0.0, 0.0, sid]
            stack.append(frame)
            frame[1] = start = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if record:
                    spans.append((sid, name, parent[3] if parent else None, tracer.op, start, end))

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        import lowzero

        modules = {layer: importlib.import_module(f"lowzero.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                record = layer not in COUNT_ONLY_LAYERS and name not in COUNT_ONLY
                wrappers[fn] = self._wrap(name, fn, record)
        for mod in [lowzero, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        cls = modules["testfunction"].PiecewiseTestFunction
        self._patch(cls, "__call__", self._wrap("testfunction.h_eval", cls.__call__, False))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, name: str, body):
        """Call ``body()`` inside a span named ``name``."""
        return self._wrap(name, body, True)()

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "pairs": [[p, c, n] for (p, c), n in self.pairs.items()],
            "errors": [[f, e, n] for (f, e), n in self.errors.items()],
            "points": self.points,
            "supports": sorted([g, R] for g, R in self.supports),
            "spans": self.spans,
        }


def _size(lam) -> int:
    shape = getattr(lam, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


class Totals:
    """Counts and times merged over one or more traced processes."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.pairs: Counter = Counter()
        self.errors: Counter = Counter()
        self.points = 0
        self.supports: set = set()

    def add(self, dump: dict) -> None:
        self.calls.update(dump["calls"])
        self.total.update(dump["total"])
        self.self_time.update(dump["self"])
        self.pairs.update({(p, c): n for p, c, n in dump["pairs"]})
        self.errors.update({(f, e): n for f, e, n in dump["errors"]})
        self.points += dump["points"]
        self.supports.update((g, R) for g, R in dump["supports"])

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, except the import probes and overhead."""
        c, s = self.calls, self.self_time
        out = {f"{layer}.self_s": (self.layer_self(layer), "s") for layer in ALL_LAYERS}
        hbr = c["bounds.height_bound_result"]
        nested = self.pairs[("bounds.height_bound_result", "solver.minimal_quotient")]
        out.update(
            {
                "solver.smallest_root.self_s": (s["solver.smallest_root"], "s"),
                "solver.spectral_equation.calls": (c["solver.spectral_equation"], "count"),
                "solver.spectral_equation.points": (self.points, "count"),
                "solver.build_context.self_s": (s["solver.build_context"], "s"),
                "solver.build_context.calls": (c["solver.build_context"], "count"),
                "solver.build_context.degenerate": (
                    self.errors[("solver.build_context", "DegenerateRadiusError")],
                    "count",
                ),
                "bounds.solves_per_bound": (nested / hbr if hbr else 0.0, "solves/bound"),
                "bounds.height_bound_result.self_s": (s["bounds.height_bound_result"], "s"),
                "solver.solves_per_support": (
                    c["solver.smallest_root"] / len(self.supports) if self.supports else 0.0,
                    "solves/support",
                ),
                "solver.small_support_minimum.calls": (c["solver.small_support_minimum"], "count"),
                "solver.tan_ratio_inverse.self_s": (s["solver.tan_ratio_inverse"], "s"),
                "chebyshev.u_eval.calls": (c["chebyshev.u_eval"], "count"),
                "chebyshev.u_stack.calls": (c["chebyshev.u_stack"], "count"),
                "rayleigh.assemble_forms.self_s": (s["rayleigh.assemble_forms"], "s"),
                "rayleigh.assemble_forms.calls": (c["rayleigh.assemble_forms"], "count"),
                "rayleigh.eigensolve_s": (s["rayleigh.minimize"], "s"),
                "testfunction.residuals.self_s": (s["testfunction.residuals"], "s"),
                "testfunction.quotient_quadrature.self_s": (s["testfunction.quotient_quadrature"], "s"),
                "testfunction.assemble.self_s": (s["testfunction.assemble"], "s"),
                "testfunction.h_evals": (c["testfunction.h_eval"], "count"),
                "proportion.calls": (
                    sum(n for name, n in c.items() if name.startswith("proportion.")),
                    "count",
                ),
                "verification.oracle_cases_s": (self.total["verification.oracle_equivalence_cases"], "s"),
                "verification.two_piece_cases_s": (self.total["verification.two_piece_cases"], "s"),
                "verification.residual_cases_s": (self.total["verification.residual_cases"], "s"),
                "verification.proportion_cases_s": (self.total["verification.proportion_cases"], "s"),
            }
        )
        return out


def _hook(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- <lowzero arguments>")
    tracer = Tracer()
    tracer.op = 0

    def load():
        import lowzero  # noqa: F401
        import lowzero.cli

        return lowzero.cli

    cli = tracer.call("import.lowzero", load)
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_hook(sys.argv[1:]))
