import math

import numpy as np
import pytest
import scipy.integrate

from lowzero.proportion import (
    beta_pole,
    beta_threshold,
    detector_hat,
    proportion_bound,
    proportion_bound_limit,
    sym_power_proportion,
    sym_power_proportion_signed,
)
from proportion_oracles import variation_radii, weighted_integral

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# Independent oracles, built from the cosine window only
# ---------------------------------------------------------------------------

def _window_hat(t, R):
    return math.cos(math.pi * t / (2 * R)) if abs(t) <= R else 0.0


def _window_hat_deriv(t, R):
    return -math.pi / (2 * R) * math.sin(math.pi * t / (2 * R)) if abs(t) <= R else 0.0


def _conv(u, f1, f2, R):
    lo, hi = max(-R, u - R), min(R, u + R)
    if hi <= lo:
        return 0.0
    val, _ = scipy.integrate.quad(lambda t: f1(t) * f2(u - t), lo, hi, limit=200,
                                  epsabs=1e-12)
    return val


def oracle_detector_hat(u, R, beta):
    # transform of (x^2 - beta^2) g0^2 via the convolution identities
    d2 = _conv(u, lambda t: _window_hat_deriv(t, R), lambda t: _window_hat_deriv(t, R), R)
    h2 = _conv(u, lambda t: _window_hat(t, R), lambda t: _window_hat(t, R), R)
    return -d2 / (4 * PI2) - beta * beta * h2


def _cosine_window_direct(x, R):
    # inverse transform of the cosine window, with the removable pole filled
    den = 1 - 16 * R * R * x * x
    if abs(den) < 1e-6:
        return R * math.cos(math.pi * (abs(4 * R * x) - 1) / 2)  # -> R at the pole
    return (4 * R / math.pi) * math.cos(2 * math.pi * R * x) / den


def test_detector_hat_center_and_edge():
    for R, beta in ((0.25, 0.5), (0.4, 1.1), (0.5, 0.2)):
        assert detector_hat(0.0, R, beta) == pytest.approx(
            1 / (16 * R) - beta * beta * R, rel=1e-14
        )
        assert detector_hat(2 * R, R, beta) == pytest.approx(0.0, abs=1e-14)
        assert detector_hat(2 * R + 1e-9, R, beta) == 0.0
        assert detector_hat(-0.3 * R, R, beta) == detector_hat(0.3 * R, R, beta)


def test_detector_hat_vs_convolution_oracle():
    for R, beta in ((0.25, 0.5), (0.45, 1.3)):
        for u in np.linspace(-2 * R + 1e-3, 2 * R - 1e-3, 9):
            u = float(u)
            assert detector_hat(u, R, beta) == pytest.approx(
                oracle_detector_hat(u, R, beta), abs=1e-8
            )


def test_detector_hat_vs_direct_transform():
    # direct oscillatory Fourier integral of (x^2 - beta^2) g0(x)^2
    R, beta, u = 0.25, 0.5, 0.1
    f = lambda x: 2 * (x * x - beta * beta) * _cosine_window_direct(x, R) ** 2
    val, _ = scipy.integrate.quad(
        f, 0, np.inf, weight="cos", wvar=2 * math.pi * u, limit=400
    )
    assert detector_hat(u, R, beta) == pytest.approx(val, abs=1e-8)


def test_weighted_integral_vs_quadrature():
    for R, beta in ((0.25, 0.5), (0.4, 1.2), (0.5, 0.9), (0.1, 3.0)):
        val, _ = scipy.integrate.quad(
            lambda u: u * detector_hat(u, R, beta) ** 2, 0, 2 * R,
            limit=200, epsabs=1e-13,
        )
        assert weighted_integral(R, beta) == pytest.approx(2 * val, abs=1e-10)


def test_weighted_integral_beta_zero():
    R = 0.25
    assert weighted_integral(R, 0.0) == pytest.approx((3 + PI2) / (768 * PI2), rel=1e-14)


def test_weighted_integral_increasing_in_beta():
    # The beta^2 coefficient 32 R^2 (9 - pi^2) is negative, so the energy
    # first dips; the quartic term wins past beta ~ sqrt(pi^2-9)/(4R sqrt(pi^2+3)).
    for R in (0.1, 0.3, 0.5):
        turn = math.sqrt(PI2 - 9) / (4 * R * math.sqrt(PI2 + 3))
        betas = np.linspace(1.01 * turn, 1.01 * turn + 5.0 / R, 40)
        values = [weighted_integral(R, float(b)) for b in betas]
        assert all(a < b for a, b in zip(values, values[1:]))
        # and the dip is real: the energy at the turning point sits below beta=0
        assert weighted_integral(R, turn) < weighted_integral(R, 0.0)


# ---------------------------------------------------------------------------
# The proportion bound and its landmarks
# ---------------------------------------------------------------------------

def test_pole_rejected():
    for sigma in (1, -1):
        for R in (0.2, 0.5):
            pole = beta_pole(sigma, R)
            with pytest.raises(ValueError):
                proportion_bound(sigma, R, pole)


def test_pole_matches_moment_ratio_oracle():
    # B(g0)^2 = (1/4pi^2) \int g0hat'^2 / (g0hat*g0hat(0) + (sigma/2) (\int g0hat)^2)
    for sigma in (1, -1):
        for R in (0.2, 0.35, 0.5):
            num, _ = scipy.integrate.quad(
                lambda t: _window_hat_deriv(t, R) ** 2, -R, R, epsabs=1e-13
            )
            h2, _ = scipy.integrate.quad(
                lambda t: _window_hat(t, R) ** 2, -R, R, epsabs=1e-13
            )
            h1, _ = scipy.integrate.quad(
                lambda t: _window_hat(t, R), -R, R, epsabs=1e-13
            )
            oracle = math.sqrt(num / (4 * PI2) / (h2 + sigma / 2 * h1 * h1))
            assert beta_pole(sigma, R) == pytest.approx(oracle, rel=1e-10)


def test_threshold_zeroes_the_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sigma = int(rng.choice([-1, 1]))
        R = float(rng.uniform(0.05, 0.5))
        threshold = beta_threshold(sigma, R)
        assert threshold > beta_pole(sigma, R)
        assert abs(proportion_bound(sigma, R, threshold)) <= 1e-9


def test_threshold_is_larger_root_of_sign_polynomial():
    # independent oracle: beta_threshold^2 is the larger root of the quadratic
    # sign polynomial in beta^2 with the printed coefficients
    for sigma in (1, -1):
        for R in (0.15, 0.3, 0.45):
            c0 = 3 * math.pi**4 - 6 * PI2 * R**2 - 2 * math.pi**4 * R**2
            c1 = (
                -96 * R**2 * math.pi**4
                - 768 * sigma * PI2 * R**3
                - 576 * R**4 * PI2
                + 64 * R**4 * math.pi**4
            )
            c2 = (
                768 * R**4 * math.pi**4
                + 12288 * sigma * R**5 * PI2
                + 49152 * R**6
                - 1536 * R**6 * PI2
                - 512 * R**6 * math.pi**4
            )
            roots = np.roots([c2, c1, c0])
            larger = max(float(r) for r in roots.real)
            assert beta_threshold(sigma, R) == pytest.approx(
                math.sqrt(larger), rel=1e-10
            )


def test_variation_radii_printed_values():
    r1m, r2m, r3m, r4m = variation_radii(-1)
    assert abs(r1m - (-8.330)) < 1e-3
    assert abs(r2m - 1.074) < 1e-3
    assert abs(r3m - (-8.210)) < 1e-3
    assert abs(r4m - 0.573) < 1e-3
    r1p, r2p, r3p, r4p = variation_radii(1)
    assert abs(r3p - (-0.573)) < 1e-3
    assert abs(r4p - 8.210) < 1e-3
    # ordering used by the sign analysis
    assert r1m < r3m < 0 < 0.5 < r4p < r2p


def test_bound_increasing_past_threshold():
    for sigma in (1, -1):
        for R in (0.2, 0.35, 0.5):
            start = beta_threshold(sigma, R)
            betas = np.geomspace(start, start * 100, 25)
            values = [proportion_bound(sigma, R, float(b)) for b in betas]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_value():
    for sigma in (1, -1):
        for R in (0.2, 0.35, 0.5):
            limit = proportion_bound_limit(sigma, R)
            assert 0.0 < limit < 1.0
            assert proportion_bound(sigma, R, 1e8) == pytest.approx(limit, abs=1e-6)


def test_bound_diverges_at_pole():
    sigma, R = 1, 0.3
    pole = beta_pole(sigma, R)
    assert proportion_bound(sigma, R, pole + 1e-6) < -1e6


# ---------------------------------------------------------------------------
# Symmetric-power specializations
# ---------------------------------------------------------------------------

def test_full_family_matches_generic_bound():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = int(rng.integers(1, 7))
        beta = float(rng.uniform(0.2, 50.0))
        _, lower = sym_power_proportion(r, beta)
        generic = proportion_bound((-1) ** (r + 1), 1 / (2 * r * r), beta)
        assert abs(lower - generic) <= 1e-10 * max(1.0, abs(generic))


def test_signed_family_matches_generic_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = int(rng.choice([1, 3, 5]))
        sigma = int(rng.choice([-1, 1]))
        beta = float(rng.uniform(0.2, 50.0))
        _, lower = sym_power_proportion_signed(r, sigma, beta)
        generic = proportion_bound(sigma, 1 / (4 * r * (r + 2)), beta)
        assert abs(lower - generic) <= 1e-10 * max(1.0, abs(generic))


def test_thresholds_match_generic_threshold():
    for r in range(1, 7):
        th, _ = sym_power_proportion(r, 1.0)
        assert th == pytest.approx(
            beta_threshold((-1) ** (r + 1), 1 / (2 * r * r)), rel=1e-12
        )
    for r in (1, 3, 5):
        for sigma in (1, -1):
            th, _ = sym_power_proportion_signed(r, sigma, 1.0)
            assert th == pytest.approx(
                beta_threshold(sigma, 1 / (4 * r * (r + 2))), rel=1e-12
            )


def test_threshold_zero_and_limit_for_base_family():
    th, lower = sym_power_proportion(1, 0.0)
    th2, at_th = sym_power_proportion(1, th)
    assert abs(at_th) <= 1e-9
    _, at_large = sym_power_proportion(1, 1e8)
    assert at_large == pytest.approx(proportion_bound_limit(1, 0.5), abs=1e-6)


def test_signed_bound_increasing_past_threshold():
    th, _ = sym_power_proportion_signed(3, -1, 1.0)
    betas = np.geomspace(th, th * 50, 20)
    values = [sym_power_proportion_signed(3, -1, float(b))[1] for b in betas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_guards():
    with pytest.raises(ValueError):
        sym_power_proportion_signed(2, 1, 1.0)
    with pytest.raises(ValueError):
        sym_power_proportion_signed(3, 0, 1.0)
    with pytest.raises(ValueError):
        sym_power_proportion(0, 1.0)
    with pytest.raises(ValueError):
        proportion_bound(2, 0.3, 1.0)
    with pytest.raises(ValueError):
        proportion_bound(1, 0.6, 1.0)
    with pytest.raises(ValueError):
        beta_threshold(1, 0.0)
