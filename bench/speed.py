"""Machine-speed probes, and operation times scaled to a reference speed.

The 2-core machine the benchmark was written on is shared.  For seconds to
minutes at a time it runs everything up to twice as slow (the process's CPU
time grows with its wall time, so this is not waiting for a core).  A run
that lands in a slow spell reads up to 1.9x slower on every metric, far more
than any change worth measuring.

So just before each operation the benchmark times a fixed piece of work that
does not involve lowzero and slows down with it, and reports each
operation's wall time multiplied by ``reference / probe``: the time the
operation would have taken at the speed where the probe takes ``reference``
seconds.  The probe's time around operation i is the median of the probes
taken before operations i-w .. i+w, which skips a probe hit by an interrupt.
Unscaled times are printed too and kept in the result file.

Each workload uses the probe that matches its operations:

* ``INTERPRETER`` for in-process operations: a loop of Python arithmetic
  and small numpy arrays, about 0.6 ms.  Measured on ``sweep``: across runs
  that straddled slow spells, the raw rate varied by 36% (max - min over
  median) and the scaled rate by 5%.
* ``PROCESS`` for short subprocess operations (``cli``): a fresh
  interpreter that imports numpy and does the same loop, about 0.13 s, since
  most of a CLI command's time is interpreter start and import.  Measured on
  ``cli``: the median command time varied by 21% over five runs unscaled and
  by 6% scaled.
* ``SCIPY_PROCESS`` for ``verify``, whose 2-4 s commands mix start-up,
  dense eigensolves and Python loops: a fresh interpreter that imports numpy
  and scipy.linalg, solves for the smallest eigenvalue of a fixed 300 x 300
  matrix three times and runs a Python loop, about 0.4 s.  Over seven runs
  of 15 s in a noisy spell the median verify time varied by 21% unscaled
  (IQR over median), 31% scaled by the in-process probe, 12% by the numpy
  process probe and 7% by this one; in a quiet spell, 6% unscaled and 6%
  with this probe.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial

_WORK = """
import math
import numpy as np
acc = 0.0
for i in range(400):
    acc += math.sin(i * 1e-3) * math.cos(acc * 1e-9)
x = np.linspace(0.0, 1.0, 200)
for i in range(40):
    x = x + 1e-9 * (np.sin(x * i) * np.exp(1j * x)).real
"""


_CODE = compile(_WORK, "<probe>", "exec")

_SCIPY_WORK = """
import math
import numpy as np
import scipy.linalg
a = np.random.default_rng(0).random((300, 300))
a = a @ a.T + 300 * np.eye(300)
for _ in range(3):
    scipy.linalg.eigh(a, eigvals_only=True, subset_by_index=(0, 0))
acc = 0.0
for i in range(20000):
    acc += math.sin(i * 1e-3)
"""


def _interpreter(env: dict) -> float:
    best = math.inf
    for _ in range(3):  # best of three, to skip an interrupt
        start = time.perf_counter()
        exec(_CODE, {})
        best = min(best, time.perf_counter() - start)
    return best


def _process(env: dict, code: str = _WORK) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                   capture_output=True)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Probe:
    name: str
    measure: object  # env -> seconds
    #: Seconds the probe takes on the reference machine (2 cores, Python
    #: 3.11.7, numpy 2.4.6) outside slow spells; any fixed value would do.
    reference: float
    #: Probes on each side of an operation whose median gives its speed.
    window: int

    def scale(self, seconds: list[float], probes: list[float]) -> list[float]:
        out = []
        for i, t in enumerate(seconds):
            around = probes[max(0, i - self.window): i + self.window + 1]
            out.append(t * self.reference / statistics.median(around))
        return out


INTERPRETER = Probe("interpreter", _interpreter, 0.6e-3, 3)
PROCESS = Probe("process", _process, 0.13, 1)
SCIPY_PROCESS = Probe("scipy-process", partial(_process, code=_SCIPY_WORK), 0.4, 1)
