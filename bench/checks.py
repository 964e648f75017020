"""Independent checks of the outputs lowzero prints, and their self-tests.

Each check takes an output of the program and returns ``None`` when it holds
or a one-line reason when it does not.  A check never compares against a
saved copy of an earlier output.  It recomputes the value by a route the
program did not take, or it tests a property the method must have:

* the unitary bound is exactly 1/(2 nu);
* for O at every support, and for Sp/SO+/SO- up to half support, the bound
  solves tan(2 pi x)/(2 pi x) = 1 + c/R, here solved with ``brentq``;
* past half support the bound is at most the truncated eigenvalue oracle
  (``rayleigh.sqrt_quotient``), which is an upper bound on the true minimum at
  any truncation, so a correct value passes at any N;
* the paper's SO+ instance at nu = 2 is 0.21850... <= 0.22 and agrees with
  the oracle;
* bounds do not increase with nu on one kernel;
* a ``testfn`` optimizer is even, vanishes outside [-R, R], and reports
  residuals of at most ``RESIDUAL_TOL``;
* a ``proportion`` lower bound lies in (0, 1] exactly when it is cleared,
  matches the generic second-moment bound, and does not decrease in beta;
* ``verify`` exits 0 and every case holds within its own tolerance.

``self_test`` feeds every check a correct value and a perturbed one and
reports each check that accepts the perturbation or rejects the truth.
"""

from __future__ import annotations

import math

import scipy.optimize

from lowzero import proportion, rayleigh
from lowzero.symmetry import Symmetry
from lowzero.verification import RESIDUAL_TOL

#: Truncation of the eigenvalue oracle used by the one-sided check.  Any N
#: gives an upper bound; at 64 modes the oracle sits within 1e-6 of the true
#: minimum for every support up to R = 10, so a wrong root shows.
ORACLE_N = 64
#: Slack of the one-sided oracle check for rounding in the eigensolve.
ORACLE_SLACK = 1e-9
#: Relative tolerance of the closed-form comparisons.
CLOSED_FORM_TOL = 1e-10
#: Relative slack of the monotonicity check for rounding between neighbours.
MONOTONE_SLACK = 1e-10
#: Limit sample used by ``height_bound_result`` past nu = 1.
LIMIT_OFFSET = 1e-5
#: Distance to an excluded frequency within which the root scan can skip the
#: smallest root (fault A).  The scan's grid step is 1e-3; this is two steps.
FAULT_A_MARGIN = 2e-3

HEADLINE_LOW, HEADLINE_HIGH = 0.2185, 0.22
HEADLINE_ORACLE_GAP = 1e-9
PROPORTION_TOL = 1e-10


def support_for(g: Symmetry, nu: float) -> float:
    """The support R at which ``height_bound_result`` evaluates nu_max."""
    if g in (Symmetry.U, Symmetry.O) or nu <= 1:
        return nu / 2
    return nu / 2 - LIMIT_OFFSET


def equation_branch(g: Symmetry, R: float) -> bool:
    """True where the minimum comes from the transcendental equation."""
    return g not in (Symmetry.U, Symmetry.O) and R > 0.5


def _tan_ratio_fixed_point() -> float:
    f = lambda x: math.tan(2 * math.pi * x) - 2 * math.pi * x
    return scipy.optimize.brentq(f, 0.25 + 1e-9, 0.75 - 1e-9, xtol=1e-15, rtol=1e-15)


_X1 = _tan_ratio_fixed_point()


def small_support_bound(g: Symmetry, R: float) -> float:
    """Bound from tan(2 pi x)/(2 pi x) = 1 + c/R, solved with brentq."""
    y = 1.0 + float(g.corrective_weight) / R
    f = lambda x: math.tan(2 * math.pi * x) / (2 * math.pi * x) - y
    if y > 1.0:
        lo, hi = 1e-12, 0.25 - 1e-12
    else:
        lo, hi = 0.25 + 1e-12, _X1
    x = scipy.optimize.brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)
    return x / R


def oracle_bound(g: Symmetry, R: float) -> float:
    return rayleigh.sqrt_quotient(g, R, ORACLE_N)


def excluded_frequencies(R: float) -> list[float]:
    """Roots of U_n * U_{n-1} for the partition of [-R, R], from cosines."""
    n = math.floor(2 * R) + 1
    return [math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)] + [
        math.cos(k * math.pi / n) for k in range(1, n)
    ]


def in_fault_a_domain(g: Symmetry, R: float, oracle: float) -> bool:
    """The smallest root lies within ``FAULT_A_MARGIN`` of an excluded frequency.

    The oracle gives the root to about 1e-6, far inside the margin.
    """
    if not equation_branch(g, R):
        return False
    lam = 2 * math.pi * oracle
    return any(abs(lam - e) < FAULT_A_MARGIN for e in excluded_frequencies(R))


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Height bounds
# ---------------------------------------------------------------------------

def check_bound(g: Symmetry, R: float, bound: float, oracle: float | None = None) -> str | None:
    """Bound at support R (already the limit sample for nu > 1).

    ``oracle`` is ``oracle_bound(g, R)`` when the caller has it already.
    """
    if not (isinstance(bound, float) and math.isfinite(bound) and bound > 0):
        return f"bound {bound!r} is not a positive number"
    if g is Symmetry.U:
        want = 1 / (4 * R)
        if _rel_gap(bound, want) > 1e-14:
            return f"unitary bound {bound!r} != 1/(4R) = {want!r}"
        return None
    if not equation_branch(g, R):
        want = small_support_bound(g, R)
        if _rel_gap(bound, want) > CLOSED_FORM_TOL:
            return f"{g.value} R={R!r}: bound {bound!r} != brentq {want!r}"
        return None
    if oracle is None:
        oracle = oracle_bound(g, R)
    if bound > oracle * (1 + ORACLE_SLACK):
        return f"{g.value} R={R!r}: bound {bound!r} exceeds the oracle's upper bound {oracle!r}"
    return None


def check_headline(bound: float, oracle: float) -> str | None:
    """SO+ at nu_max = 2: 0.21850... <= 0.22, in agreement with the oracle."""
    if not HEADLINE_LOW <= bound <= HEADLINE_HIGH or not repr(bound).startswith("0.21850"):
        return f"SO+ nu=2 bound {bound!r} is not 0.21850... <= 0.22"
    if abs(oracle - bound) > HEADLINE_ORACLE_GAP:
        return f"SO+ nu=2 bound {bound!r} and oracle {oracle!r} disagree"
    return None


def check_monotone(points: list[tuple[float, float]]) -> list[int]:
    """Indices i (in nu order) where bound[i] rises above bound[i-1]."""
    pts = sorted(points)
    return [
        i
        for i in range(1, len(pts))
        if pts[i][1] > pts[i - 1][1] * (1 + MONOTONE_SLACK)
    ]


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

def check_even_support(R: float, us: list[float], hs: list[float]) -> str | None:
    """Samples on a grid symmetric about 0: h is even and vanishes past R."""
    scale = max((abs(h) for h in hs), default=0.0)
    if not scale > 0:
        return "h vanishes everywhere"
    for u, h in zip(us, hs):
        if abs(u) > R and h != 0.0:
            return f"h({u!r}) = {h!r} outside [-R, R]"
    n = len(us)
    for i in range(n // 2):
        if abs(us[i] + us[n - 1 - i]) > 1e-9:
            return "sample grid is not symmetric"
        if abs(hs[i] - hs[n - 1 - i]) > 1e-9 * scale:
            return f"h is not even at u={us[i]!r}: {hs[i]!r} vs {hs[n - 1 - i]!r}"
    return None


def check_residuals(report: dict[str, float]) -> str | None:
    bad = {k: v for k, v in report.items() if not v <= RESIDUAL_TOL}
    if bad:
        return f"residuals above {RESIDUAL_TOL}: {bad}"
    return None


def report_residuals(report) -> dict[str, float]:
    """The residuals of a ``testfunction.ResidualReport``, without its
    reference constant ``k_normalization``."""
    return {k: float(v) for k, v in vars(report).items() if k != "k_normalization"}


def parse_testfn(stdout: str, stderr: str) -> tuple[list[float], list[float], dict[str, float]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "u,h":
        raise ValueError("testfn output lacks the u,h header")
    us, hs = [], []
    for line in lines[1:]:
        u, h = line.split(",")
        us.append(float(u))
        hs.append(float(h))
    report = {}
    for line in stderr.splitlines():
        if line.startswith("residuals:"):
            for item in line.split()[1:]:
                key, value = item.split("=")
                report[key] = float(value)
    if not report:
        raise ValueError("testfn printed no residuals")
    return us, hs, report


def check_testfn(R: float, samples: int, stdout: str, stderr: str) -> str | None:
    try:
        us, hs, report = parse_testfn(stdout, stderr)
    except ValueError as exc:
        return str(exc)
    if len(us) != samples:
        return f"{len(us)} samples, expected {samples}"
    if abs(us[0] + R + 0.1) > 1e-12 or abs(us[-1] - R - 0.1) > 1e-12:
        return "samples do not span [-R-0.1, R+0.1]"
    return check_even_support(R, us, hs) or check_residuals(report)


# ---------------------------------------------------------------------------
# Proportions
# ---------------------------------------------------------------------------

def family_sigma_R(family: str, r: int, sign: int | None) -> tuple[int, float]:
    """Central weight and support of the generic bound for one family."""
    if family == "Hr":
        return (-1) ** (r + 1), 1 / (2 * r * r)
    return sign, 1 / (4 * r * (r + 2))


def check_proportion(family: str, r: int, sign: int | None, beta: float, record: dict) -> str | None:
    """``record`` holds ``threshold``, ``cleared`` and ``lower_bound`` as printed."""
    sigma, R = family_sigma_R(family, r, sign)
    cleared = record["cleared"]
    threshold = float(record["threshold"])
    want_threshold = proportion.beta_threshold(sigma, R)
    if _rel_gap(threshold, want_threshold) > PROPORTION_TOL:
        return f"threshold {threshold!r} != generic {want_threshold!r}"
    if cleared != (beta >= threshold):
        return f"cleared={cleared} at beta={beta!r}, threshold {threshold!r}"
    generic = proportion.proportion_bound(sigma, R, beta)
    try:
        lower = float(record["lower_bound"])
    except ValueError:
        lower = None
    if cleared:
        if lower is None or not 0 < lower <= 1:
            return f"cleared but lower bound {record['lower_bound']!r} is not in (0, 1]"
        if abs(lower - generic) > PROPORTION_TOL * max(1.0, abs(generic)):
            return f"lower bound {lower!r} != generic {generic!r}"
    elif lower is not None:
        return f"not cleared, yet lower bound {lower!r} printed"
    return None


def check_proportion_monotone(points: list[tuple[float, float]]) -> list[int]:
    """Indices i (in beta order) where a cleared lower bound drops."""
    pts = sorted(points)
    return [i for i in range(1, len(pts)) if pts[i][1] < pts[i - 1][1] * (1 - MONOTONE_SLACK)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(returncode: int, summary: dict, expected_cases: int) -> str | None:
    if returncode != 0:
        return f"verify exited {returncode}"
    cases = summary.get("cases", [])
    if len(cases) != expected_cases:
        return f"verify ran {len(cases)} cases, expected {expected_cases}"
    for c in cases:
        holds = abs(c["got"] - c["expected"]) <= c["tol"]
        if not (c["pass"] and holds):
            return f"case {c['name']} fails: got {c['got']!r}, expected {c['expected']!r}"
    if summary.get("passed") is not True:
        return "verify summary is not passed"
    return None


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Run every check on a true and a perturbed value; list what misbehaved."""
    problems = []

    def expect(name: str, truth, perturbed) -> None:
        if truth is not None:
            problems.append(f"{name}: rejects the true value ({truth})")
        if not perturbed:
            problems.append(f"{name}: accepts the perturbed value")

    from lowzero import bounds, solver, testfunction

    b = bounds.height_bound(Symmetry.U, 1.5)
    expect("unitary", check_bound(Symmetry.U, 0.75, b), check_bound(Symmetry.U, 0.75, 2 * b))
    for g, R in ((Symmetry.O, 2.5), (Symmetry.Sp, 0.3), (Symmetry.SOminus, 0.45)):
        b = solver.minimal_quotient(g, R).bound
        expect(f"brentq/{g.value}", check_bound(g, R, b), check_bound(g, R, b * (1 + 1e-8)))
    R = support_for(Symmetry.Sp, 5.3)
    b = bounds.height_bound(Symmetry.Sp, 5.3)
    expect("oracle/Sp", check_bound(Symmetry.Sp, R, b), check_bound(Symmetry.Sp, R, 2 * b))

    b = bounds.height_bound(Symmetry.SOplus, 2.0)
    o = rayleigh.sqrt_quotient(Symmetry.SOplus, support_for(Symmetry.SOplus, 2.0), 400)
    expect("headline", check_headline(b, o), check_headline(2 * b, o))
    expect("headline-oracle", check_headline(b, o), check_headline(b, o + 1e-6))

    pts = [(1.0, 0.5), (2.0, 0.4), (3.0, 0.3)]
    expect("monotone", None if not check_monotone(pts) else "flagged",
           check_monotone(pts[:2] + [(3.0, 0.8)]))

    R = 0.75
    h, _ = testfunction.reconstruct(Symmetry.Sp, R)
    us = [-R - 0.1 + i * (2 * R + 0.2) / 100 for i in range(101)]
    hs = [float(h(u)) for u in us]
    flipped = [-v if i == 40 else v for i, v in enumerate(hs)]
    outside = [0.5 if i == 0 else v for i, v in enumerate(hs)]
    expect("even", check_even_support(R, us, hs), check_even_support(R, us, flipped))
    expect("support", check_even_support(R, us, hs), check_even_support(R, us, outside))
    report = testfunction.residuals(h, solver.build_context(Symmetry.Sp, R))
    good = report_residuals(report)
    expect("residuals", check_residuals(good), check_residuals({**good, "volterra": 1e-5}))

    beta = 3.0
    threshold, lower = proportion.sym_power_proportion(1, beta)
    record = {"threshold": repr(threshold), "cleared": True, "lower_bound": repr(lower)}
    expect("proportion", check_proportion("Hr", 1, None, beta, record),
           check_proportion("Hr", 1, None, beta, {**record, "lower_bound": repr(2 * lower)}))
    expect("proportion-cleared", check_proportion("Hr", 1, None, beta, record),
           check_proportion("Hr", 1, None, beta, {**record, "cleared": False,
                                                  "lower_bound": "not applicable"}))
    expect("proportion-monotone", None if not check_proportion_monotone([(2, 0.2), (3, 0.5)]) else "flagged",
           check_proportion_monotone([(2, 0.2), (3, 0.1)]))

    case = {"name": "c", "expected": 1.0, "got": 1.0 + 1e-12, "tol": 1e-9, "pass": True}
    summary = {"cases": [case], "passed": True}
    bad = {"cases": [{**case, "got": 1.1}], "passed": True}
    expect("verify", check_verify(0, summary, 1), check_verify(0, bad, 1))
    expect("verify-exit", check_verify(0, summary, 1), check_verify(1, summary, 1))
    return problems
