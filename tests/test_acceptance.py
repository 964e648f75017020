"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate

from chebyshev_oracles import truncated_geometric
from lowzero import proportion as prop
from lowzero import rayleigh, verification
from lowzero.bounds import height_bound, orthogonal_asymptotic
from lowzero.chebyshev import u_stack
from lowzero.solver import (
    build_context,
    minimal_quotient,
    smallest_root,
    spectral_equation_two_piece,
    tan_ratio_fixed_point,
    tan_ratio_inverse,
)
from lowzero.symmetry import Symmetry
from lowzero.testfunction import reconstruct, residuals
from proportion_oracles import variation_radii, weighted_integral


def oracle_detector_hat(u: float, R: float, beta: float) -> float:
    """Transform of the quadratic-weighted cosine detector, from scratch.

    Uses only the cosine window and the convolution/derivative transform
    identities, never the production closed form.
    """
    win = lambda t: math.cos(math.pi * t / (2 * R)) if abs(t) <= R else 0.0
    win_d = lambda t: (
        -math.pi / (2 * R) * math.sin(math.pi * t / (2 * R)) if abs(t) <= R else 0.0
    )

    def conv(f1, f2):
        lo, hi = max(-R, u - R), min(R, u + R)
        if hi <= lo:
            return 0.0
        val, _ = scipy.integrate.quad(
            lambda t: f1(t) * f2(u - t), lo, hi, limit=200, epsabs=1e-12
        )
        return val

    return -conv(win_d, win_d) / (4 * math.pi**2) - beta * beta * conv(win, win)


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:02d} FAIL  ({elapsed:8.3f}s <= {limit_s}s)  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num:02d} PASS  ({elapsed:8.3f}s <= {limit_s}s)  {description}")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_criterion_01_tangent_inversion():
    tan_ratio_fixed_point()  # warm the cached fixed point
    tan_ratio_inverse(2.0)
    with criterion(1, "inverse tangent-ratio value and speed", 1e-3):
        value = tan_ratio_inverse(2.0)
        assert 0.18 < value < 0.19


def test_criterion_02_headline_bound_instances():
    with criterion(2, "even-orthogonal instance at full support", 5.0):
        value = height_bound(Symmetry.SOplus, 2.0)
        assert value <= 0.22
        assert abs(value - 0.22) < 0.02
    with criterion(2, "symplectic instance at full support", 5.0):
        value = height_bound(Symmetry.Sp, 2.0)
        assert value <= 0.39
        assert abs(value - 0.39) < 0.02


def test_criterion_03_oracle_equivalence():
    with criterion(3, "closed form vs eigenvalue oracle on the support grid", 120.0):
        for g in (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
            for R in verification.oracle_grid(12):
                closed = minimal_quotient(g, R).bound
                estimate = rayleigh.sqrt_quotient(g, R, 400)
                assert abs(closed - estimate) <= 5e-3, (g, R)


def test_criterion_04_oracle_window_bounds():
    with criterion(4, "two-sided windows for the scaled oracle minimum", 30.0):
        for R in np.linspace(0.04, 0.5, 20):
            R = float(R)
            for g in (Symmetry.O, Symmetry.SOplus, Symmetry.SOminus):
                value = rayleigh.minimize(g, R, 400)
                assert 1 / (1 + R) < value <= 1 / (1 + 8 * R / math.pi**2) + 1e-12
        for R in np.linspace(0.04, 0.49, 20):
            R = float(R)
            value = rayleigh.minimize(Symmetry.Sp, R, 400)
            assert 1.0 < value < 1 / (1 - 8 * R / math.pi**2)


def test_criterion_05_two_piece_cross_route():
    with criterion(5, "two-piece reduction agrees with the general equation", 10.0):
        for g in (Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
            for R in np.linspace(0.56, 0.94, 8):
                R = float(R)
                general = smallest_root(build_context(g, R))
                reduced = verification._two_piece_root(g, R)
                assert abs(general - reduced) <= 1e-9, (g, R)
            assert abs(spectral_equation_two_piece(g, 0.8, 0.5)) < 1e-12


def test_criterion_06_reconstruction_residuals():
    with criterion(6, "optimizer residuals across both branches", 30.0):
        for g, R in verification.RESIDUAL_PAIRS:
            h, _ = reconstruct(g, R)
            report = residuals(h)
            assert report.delayed_ode <= 1e-6, (g, R)
            assert report.volterra <= 1e-6, (g, R)
            assert report.compatibility <= 1e-6, (g, R)
            assert report.rayleigh_gap <= 1e-6, (g, R)


def test_criterion_07_symmetric_power_identities():
    with criterion(7, "symmetric-power proportion closed-form identities", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            r = int(rng.integers(1, 7))
            beta = float(rng.uniform(0.2, 50.0))
            _, lower = prop.sym_power_proportion(r, beta)
            assert lower == prop.proportion_bound((-1) ** (r + 1), 1 / (2 * r * r), beta)
        for _ in range(50):
            r = int(rng.choice([1, 3, 5]))
            sigma = int(rng.choice([-1, 1]))
            beta = float(rng.uniform(0.2, 50.0))
            _, lower = prop.sym_power_proportion_signed(r, sigma, beta)
            assert lower == prop.proportion_bound(sigma, 1 / (4 * r * (r + 2)), beta)
        for _ in range(20):
            sigma = int(rng.choice([-1, 1]))
            R = float(rng.uniform(0.05, 0.5))
            threshold = prop.beta_threshold(sigma, R)
            assert abs(prop.proportion_bound(sigma, R, threshold)) <= 1e-9
            betas = np.geomspace(threshold, threshold * 50, 12)
            values = [prop.proportion_bound(sigma, R, float(b)) for b in betas]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_criterion_08_detector_calculus():
    with criterion(8, "detector transform calculus and root constants", 10.0):
        for R, beta in ((0.25, 0.5), (0.45, 1.3)):
            for u in np.linspace(-2 * R + 1e-3, 2 * R - 1e-3, 7):
                u = float(u)
                assert abs(
                    prop.detector_hat(u, R, beta) - oracle_detector_hat(u, R, beta)
                ) <= 1e-8
            quad, _ = scipy.integrate.quad(
                lambda t: t * prop.detector_hat(t, R, beta) ** 2, 0, 2 * R,
                limit=200, epsabs=1e-13,
            )
            assert abs(weighted_integral(R, beta) - 2 * quad) <= 1e-8
        _, r2_minus, _, _ = variation_radii(-1)
        _, _, _, r4_plus = variation_radii(1)
        assert abs(r2_minus - 1.074) < 1e-3
        assert abs(r4_plus - 8.210) < 1e-3


def test_criterion_09_orthogonal_expansion():
    with criterion(9, "large-support expansion of the orthogonal bound", 1.0):
        gaps = []
        for nu_max in (10.0, 100.0, 1000.0):
            exact, expansion = orthogonal_asymptotic(nu_max)
            gaps.append(abs(exact - expansion) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] <= 1e-3


def test_criterion_10_chebyshev_identities():
    with criterion(10, "polynomial product and partial-sum identities", 1.0):
        rng = np.random.default_rng(77)
        for _ in range(400):
            n = int(rng.integers(2, 13))
            j = int(rng.integers(1, n))
            x = float(rng.uniform(-2, 2))
            p1 = u_stack(n - 1, x)[n - 1] * u_stack(j, x)[j]
            p2 = u_stack(n, x)[n] * u_stack(j - 1, x)[j - 1]
            rhs = u_stack(n - 1 - j, x)[n - 1 - j]
            assert abs(p1 - p2 - rhs) <= 1e-10 * max(1.0, abs(p1), abs(p2), abs(rhs))
        for _ in range(200):
            n = int(rng.integers(1, 14))
            x = float(rng.uniform(-2, 2))
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            denom = 1 - 2 * z * x + z * z
            if abs(denom) <= 1e-9:
                continue
            closed = (
                1 - z**n * u_stack(n, x)[n] + z ** (n + 1) * u_stack(n - 1, x)[n - 1]
            ) / denom
            direct = truncated_geometric(n, x, z)
            assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))


def test_criterion_11_monotonicity_and_ordering():
    with criterion(11, "support monotonicity and five-curve ordering", 60.0):
        for g in (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
            grid = [r for r in np.linspace(0.1, 0.95, 20) if abs(2 * r - 1) > 1e-3]
            values = [minimal_quotient(g, float(R)).m_tilde for R in grid]
            assert all(a > b for a, b in zip(values, values[1:])), g
        order = (Symmetry.Sp, Symmetry.U, Symmetry.SOplus, Symmetry.O, Symmetry.SOminus)
        for nu_max in np.linspace(0.25, 2.95, 12):
            stack = [height_bound(g, float(nu_max)) for g in order]
            assert all(a >= b - 1e-12 for a, b in zip(stack, stack[1:]))
