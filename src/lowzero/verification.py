"""Cross-validation matrix behind the ``verify`` CLI command.

Each case compares an independent route against the production one: the
closed-form minimum against the truncated eigenvalue oracle, the general
transcendental equation against its two-piece reduction, the reconstructed
optimizer against its defining residuals, and the symmetric-power proportion
bounds against their second-moment definition, rebuilt by quadrature.
Results are flat, deterministic records so two runs diff cleanly.
"""

from __future__ import annotations

import numpy as np

from . import proportion as prop
from . import rayleigh, solver, testfunction
from .symmetry import Symmetry, sign_and_rho_max

__all__ = ["run_all", "ORACLE_TOL", "ORACLE_EXCESS_TOL", "ROOT_TOL", "RESIDUAL_TOL", "DEFINITION_TOL"]

ORACLE_TOL = 5e-3
#: The most, relative to the bound, that ``bound --oracle-check`` lets a bound
#: exceed its oracle, which bounds the minimum from above: the O minimum's own
#: error reaches 6e-10 below R = 5e6, and the largest excess measured at
#: N = 400 over all five kernels is 1.1e-13.
ORACLE_EXCESS_TOL = 1e-9
ROOT_TOL = 1e-9
#: The two-piece equation at R = 0.8 vanishes at 1/2: Sp, SO+, SO- give 0, 1.8e-16, 0.
HALF_ZERO_TOL = 1e-12
RESIDUAL_TOL = 1e-6
#: Gap between a family's proportion bound and its definition, relative to
#: max(1, |bound|); the seeded draws of ``proportion_cases`` measure 1.1e-14.
DEFINITION_TOL = 1e-13
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
                HALF_ZERO_TOL,
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
        sigma, rho_max = sign_and_rho_max(r)
        defined = proportion_by_definition(sigma, float(rho_max / 2), beta)
        worst_full = max(worst_full, abs(lower - defined) / max(1.0, abs(defined)))
    cases.append(_case("proportion/full-family-definition", 0.0, worst_full, DEFINITION_TOL))

    worst_signed = 0.0
    for _ in range(PROPORTION_DRAWS):
        r = int(rng.choice([1, 3, 5]))
        sigma = int(rng.choice([-1, 1]))
        beta = float(rng.uniform(0.2, 40.0))
        _, lower = prop.sym_power_proportion_signed(r, sigma, beta)
        _, rho_max = sign_and_rho_max(r, "plus" if sigma == 1 else "minus")
        defined = proportion_by_definition(sigma, float(rho_max / 2), beta)
        worst_signed = max(worst_signed, abs(lower - defined) / max(1.0, abs(defined)))
    cases.append(_case("proportion/signed-family-definition", 0.0, worst_signed, DEFINITION_TOL))

    worst_zero = 0.0
    for _ in range(20):
        sigma = int(rng.choice([-1, 1]))
        R = float(rng.uniform(0.05, 0.5))
        worst_zero = max(
            worst_zero, abs(prop.proportion_bound(sigma, R, prop.beta_threshold(sigma, R)))
        )
    cases.append(_case("proportion/zero-at-threshold", 0.0, worst_zero, THRESHOLD_ZERO_TOL))
    return cases


def proportion_by_definition(sigma: int, R: float, beta: float) -> float:
    """The proportion bound 1 - 2V/E^2 from its second-moment argument.

    E = detector_hat(0) + (sigma/2) Phi(0) is the averaged detector, with
    Phi(0) = -beta^2 (4R/pi)^2, and V the integral over the line of
    |u| detector_hat(u)^2, half the variance, by ``testfunction._gauss_rule``
    on [0, 2R] (where detector_hat is analytic), doubled.
    """
    phi0 = -beta * beta * (4 * R / np.pi) ** 2
    mean = prop.detector_hat(0.0, R, beta) + sigma / 2 * phi0
    u, w = testfunction._gauss_rule(0.0, 2 * R, ())
    hat = np.array([prop.detector_hat(x, R, beta) for x in u.tolist()])
    half_variance = 2 * float(np.sum(u * hat * hat * w))
    return 1.0 - 2 * half_variance / mean**2


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
