import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebyshev_oracles import t_eval, truncated_geometric, u_stack_list
from lowzero.chebyshev import u_roots, u_stack


def trig_u(n: int, x: float) -> float:
    theta = math.acos(x)
    return math.sin((n + 1) * theta) / math.sin(theta)


def trig_t(n: int, x: float) -> float:
    return math.cos(n * math.acos(x))


def test_u_small_values():
    assert u_stack(0, -2.5)[0] == 1.0
    assert u_stack(2, 0.5)[2] == pytest.approx(0.0, abs=1e-15)
    assert u_stack(3, 1.0)[3] == 4.0  # U_n(1) = n + 1
    assert u_stack(5, 0.3)[5] == pytest.approx(trig_u(5, 0.3), rel=1e-12)


def test_t_small_values():
    assert t_eval(0, 0.7) == 1.0
    assert t_eval(2, 0.0) == -1.0
    assert t_eval(4, 0.2) == pytest.approx(trig_t(4, 0.2), rel=1e-12)


def test_trig_agreement_inside_unit_interval():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-0.99, 0.99, 60):
        for n in range(0, 14):
            assert u_stack(n, float(x))[n] == pytest.approx(
                trig_u(n, float(x)), rel=1e-12, abs=1e-12
            )
            assert t_eval(n, float(x)) == pytest.approx(
                trig_t(n, float(x)), rel=1e-12, abs=1e-12
            )


def test_array_evaluation_matches_scalar():
    xs = np.linspace(-2.0, 2.0, 11)
    for n in range(0, 9):
        vec = u_stack(n, xs)[n]
        assert np.array_equal(vec, [u_stack(n, float(x))[n] for x in xs])
    stack = u_stack(8, xs)
    for n in range(9):
        assert np.array_equal(stack[n], u_stack(n, xs)[n])


def test_u_stack_array_matches_list_recurrence():
    rng = np.random.default_rng(4)
    for n_max in range(26):
        for x in rng.uniform(-2.5, 2.5, 5).tolist() + [0.0, -1.0, 1.0]:
            got = u_stack(n_max, x)
            assert got.shape == (n_max + 1,)
            values = got.tolist()
            assert all(type(v) is float for v in values)
            assert np.array(values).tobytes() == np.array(u_stack_list(n_max, x)).tobytes()
        for shape in ((), (9,), (3, 7)):
            xs = rng.uniform(-2.5, 2.5, shape)
            got = u_stack(n_max, xs)
            assert got.shape == (n_max + 1,) + shape
            assert got.tobytes() == np.array(u_stack_list(n_max, xs)).tobytes()


def test_u_roots_order_and_vanishing():
    assert u_roots(1) == pytest.approx([0.0], abs=1e-15)
    assert u_roots(2) == pytest.approx([0.5, -0.5], abs=1e-15)
    for n in (4, 7, 11):
        roots = u_roots(n)
        assert all(a > b for a, b in zip(roots, roots[1:]))
        for r in roots:
            assert abs(u_stack(n, r)[n]) < 1e-12


def test_u_at_roots_of_next_order_alternates():
    # U_{n-1} at the j-th root of U_n equals (-1)^(j+1)
    for n in range(2, 12):
        for j, root in enumerate(u_roots(n), start=1):
            assert u_stack(n - 1, root)[n - 1] == pytest.approx((-1) ** (j + 1), abs=1e-10)


def test_leading_coefficient_power_of_two():
    # U_{2k}(x) ~ 2^{2k} x^{2k}: read the coefficient off a large argument.
    for k in (1, 2, 3, 4):
        n = 2 * k
        x = 1e4
        assert u_stack(n, x)[n] / x**n == pytest.approx(2.0**n, rel=1e-6)


@settings(max_examples=200, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=12),
    x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    data=st.data(),
)
def test_product_identity(n, x, data):
    j = data.draw(st.integers(min_value=1, max_value=n - 1))
    p1 = u_stack(n - 1, x)[n - 1] * u_stack(j, x)[j]
    p2 = u_stack(n, x)[n] * u_stack(j - 1, x)[j - 1]
    rhs = u_stack(n - 1 - j, x)[n - 1 - j]
    # relative to the cancelling products: the difference of two O(2^n x^n)
    # terms cannot beat that scale in double precision
    scale = max(1.0, abs(p1), abs(p2), abs(rhs))
    assert abs(p1 - p2 - rhs) <= 1e-10 * scale


def test_product_identity_dense_sweep():
    rng = np.random.default_rng(123)
    xs = rng.uniform(-2.0, 2.0, 200)
    for n in range(2, 13):
        for j in range(1, n):
            for x in xs:
                x = float(x)
                p1 = u_stack(n - 1, x)[n - 1] * u_stack(j, x)[j]
                p2 = u_stack(n, x)[n] * u_stack(j - 1, x)[j - 1]
                rhs = u_stack(n - 1 - j, x)[n - 1 - j]
                scale = max(1.0, abs(p1), abs(p2), abs(rhs))
                assert abs(p1 - p2 - rhs) <= 1e-10 * scale


def test_truncated_geometric_single_term():
    assert truncated_geometric(1, 0.37, 2.2 + 0.5j) == 1.0 + 0j


def test_truncated_geometric_direct_sum():
    # U_0 + U_1 + U_2 at 0.5 is 1 + 1 + 0
    assert truncated_geometric(3, 0.5, 1.0) == pytest.approx(2.0)


def test_truncated_geometric_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 14))
        x = float(rng.uniform(-2, 2))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        denom = 1 - 2 * z * x + z * z
        if abs(denom) <= 1e-9:
            continue
        u = u_stack(n, x)
        closed = (1 - z**n * u[n] + z ** (n + 1) * u[n - 1]) / denom
        direct = truncated_geometric(n, x, z)
        assert abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))


def test_truncated_geometric_unit_circle():
    direct = truncated_geometric(4, 0.2, 1j)
    denom = 1 - 2 * 1j * 0.2 + (1j) ** 2
    u = u_stack(4, 0.2)
    closed = (1 - (1j) ** 4 * u[4] + (1j) ** 5 * u[3]) / denom
    assert abs(direct - closed) <= 1e-12


def test_bad_orders_rejected():
    with pytest.raises(ValueError):
        t_eval(-1, 0.0)
    with pytest.raises(ValueError):
        u_roots(0)
    with pytest.raises(ValueError):
        truncated_geometric(0, 0.0, 1.0)
