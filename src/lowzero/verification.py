"""Cross-validation matrix behind the ``verify`` CLI command.

Each case compares an independent route against the production one: the
closed-form minimum against the truncated eigenvalue oracle, the general
transcendental equation against its two-piece reduction, the reconstructed
optimizer against its defining residuals, and the symmetric-power proportion
closed forms against the generic bound.  Results are flat, deterministic
records so two runs diff cleanly.
"""

from __future__ import annotations

import numpy as np

from . import proportion as prop
from . import rayleigh, solver, testfunction
from .symmetry import Symmetry

__all__ = ["run_all", "ORACLE_TOL", "ORACLE_EXCESS_TOL", "ROOT_TOL", "RESIDUAL_TOL", "IDENTITY_TOL"]

ORACLE_TOL = 5e-3
#: The most, relative to the bound, that ``bound --oracle-check`` lets a bound
#: exceed its oracle, which bounds the minimum from above: the O minimum's own
#: error reaches 6e-10 below R = 5e6, and the largest excess measured at
#: N = 400 over all five kernels is 1.1e-13.
ORACLE_EXCESS_TOL = 1e-9
ROOT_TOL = 1e-9
RESIDUAL_TOL = 1e-6
IDENTITY_TOL = 1e-10
THRESHOLD_ZERO_TOL = 1e-9
PROPORTION_DRAWS = 50
PROPORTION_SEED = 20240901

_NON_UNITARY = (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus)


def _case(
    name: str, expected: float, got: float, tol: float, one_sided: bool = False
) -> dict:
    """One record; it passes when got - expected lies in [-tol, tol], or in
    [0, tol] when ``one_sided`` says got bounds expected from above."""
    low = 0.0 if one_sided else -tol
    return {
        "name": name,
        "expected": expected,
        "got": got,
        "tol": tol,
        "pass": bool(low <= got - expected <= tol),
    }


def oracle_grid(grid_size: int) -> list[float]:
    """R grid in (0.15, 0.95) avoiding the branch seam at 0.5."""
    grid = np.linspace(0.17, 0.93, grid_size)
    return [float(r) for r in grid if abs(r - 0.5) > 0.01]


def oracle_equivalence_cases(grid_size: int = 12, trunc: int = 400) -> list[dict]:
    """The oracle is the quotient of an admissible test function, so it may
    exceed the closed-form minimum by at most ``ORACLE_TOL`` and never fall
    below it."""
    cases = []
    for g in _NON_UNITARY:
        for R in oracle_grid(grid_size):
            closed = solver.minimal_quotient(g, R).bound
            estimate = rayleigh.sqrt_quotient(g, R, trunc)
            cases.append(
                _case(
                    f"oracle/{g.value}/R={R:.4f}", closed, estimate, ORACLE_TOL, one_sided=True
                )
            )
    return cases


def two_piece_cases() -> list[dict]:
    cases = []
    grid = np.linspace(0.56, 0.94, 8)
    for g in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
        for R in grid:
            R = float(R)
            ctx = solver.build_context(g, R)
            general = solver.smallest_root(ctx)
            reduced = _two_piece_root(g, R)
            cases.append(
                _case(f"two-piece/{g.value}/R={R:.4f}", general, reduced, ROOT_TOL)
            )
        cases.append(
            _case(
                f"two-piece/{g.value}/vanishes-at-half",
                0.0,
                float(solver.spectral_equation_two_piece(g, 0.8, 0.5)),
                1e-12,
            )
        )
    return cases


def _two_piece_root(g: Symmetry, R: float) -> float:
    f = lambda lam: solver.spectral_equation_two_piece(g, R, lam)
    return solver.first_root(f, 8.0, solver.u_product_roots(2))


RESIDUAL_PAIRS = (
    (Symmetry.O, 0.35),
    (Symmetry.O, 0.9),
    (Symmetry.Sp, 0.3),
    (Symmetry.Sp, 0.75),
    (Symmetry.SOplus, 0.75),
    (Symmetry.SOminus, 1.2),
)


def residual_cases() -> list[dict]:
    cases = []
    for g, R in RESIDUAL_PAIRS:
        h, _ = testfunction.reconstruct(g, R)
        report = testfunction.residuals(h)
        cases.append(
            _case(
                f"residuals/{g.value}/R={R:.4f}",
                0.0,
                report.max_defect(),
                RESIDUAL_TOL,
            )
        )
    return cases


def proportion_cases() -> list[dict]:
    rng = np.random.default_rng(PROPORTION_SEED)
    cases = []
    worst_full = 0.0
    for _ in range(PROPORTION_DRAWS):
        r = int(rng.integers(1, 7))
        beta = float(rng.uniform(0.2, 40.0))
        _, lower = prop.sym_power_proportion(r, beta)
        generic = prop.proportion_bound((-1) ** (r + 1), 1 / (2 * r * r), beta)
        worst_full = max(worst_full, abs(lower - generic) / max(1.0, abs(generic)))
    cases.append(_case("proportion/full-family-identity", 0.0, worst_full, IDENTITY_TOL))

    worst_signed = 0.0
    for _ in range(PROPORTION_DRAWS):
        r = int(rng.choice([1, 3, 5]))
        sigma = int(rng.choice([-1, 1]))
        beta = float(rng.uniform(0.2, 40.0))
        _, lower = prop.sym_power_proportion_signed(r, sigma, beta)
        generic = prop.proportion_bound(sigma, 1 / (4 * r * (r + 2)), beta)
        worst_signed = max(worst_signed, abs(lower - generic) / max(1.0, abs(generic)))
    cases.append(_case("proportion/signed-family-identity", 0.0, worst_signed, IDENTITY_TOL))

    worst_zero = 0.0
    for _ in range(20):
        sigma = int(rng.choice([-1, 1]))
        R = float(rng.uniform(0.05, 0.5))
        worst_zero = max(
            worst_zero, abs(prop.proportion_bound(sigma, R, prop.beta_threshold(sigma, R)))
        )
    cases.append(_case("proportion/zero-at-threshold", 0.0, worst_zero, THRESHOLD_ZERO_TOL))
    return cases


def run_all(grid_size: int = 12, trunc: int = 400) -> dict:
    """Run every suite; returns a JSON-ready deterministic summary."""
    cases = []
    cases += oracle_equivalence_cases(grid_size=grid_size, trunc=trunc)
    cases += two_piece_cases()
    cases += residual_cases()
    cases += proportion_cases()
    gaps = [
        abs(c["got"] - c["expected"]) for c in cases if c["name"].startswith("oracle/")
    ]
    return {
        "grid_size": grid_size,
        "trunc": trunc,
        "cases": cases,
        "max_oracle_gap": max(gaps),
        "passed": all(c["pass"] for c in cases),
    }
