"""Bump construction: mollifier, smooth steps, supports, Taylor-jet derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deltakit import (Interval, TestFunction, bump, derivative,
                      difference_quotient, mollifier, smooth_step_down,
                      smooth_step_up)
from deltakit.testfn import MOLLIFIER_KNEE

# exp(-1), cross-checked against mpmath.exp(-1) to 30 digits
EXP_MINUS_ONE = 0.36787944117144233


def test_mollifier_branches():
    assert mollifier(0.0) == 0.0
    assert mollifier(-3.0) == 0.0
    assert_allclose(mollifier(1.0), EXP_MINUS_ONE, rtol=1e-15)
    # below the underflow knee the value is an exact zero, not a denormal
    assert mollifier(1e-4) == 0.0
    assert mollifier(0.01) > 0.0


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_mollifier_total_and_nonnegative(x):
    v = mollifier(x)
    assert 0.0 <= v < 1.0
    if x <= 0.0:
        assert v == 0.0


def test_step_up_values():
    F = smooth_step_up(1.0, 2.0)
    assert F(0.5) == 0.0
    assert F(3.0) == 1.0
    # midpoint: both mollifiers equal exp(-2), quotient is exactly 1/2
    assert F(1.5) == 0.5
    xs = np.linspace(1.05, 1.95, 50)
    vals = F(xs)
    assert np.all((vals > 0) & (vals < 1))
    assert np.all(np.diff(vals) > 0)


def test_step_down_values():
    G = smooth_step_down(3.0, 4.0)
    assert G(2.0) == 1.0
    assert G(5.0) == 0.0
    assert G(3.5) == 0.5


def test_step_rejects_bad_interval():
    with pytest.raises(ValueError):
        smooth_step_up(2.0, 2.0)
    with pytest.raises(ValueError):
        smooth_step_down(4.0, 3.0)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)


def test_bump_shape():
    f = bump(1.0, 2.0, 3.0, 4.0)
    assert f.support.lo == 1.0 and f.support.hi == 4.0
    assert f(2.5) == 1.0
    assert f(0.9) == 0.0
    # left ramp midpoint: up-step is 1/2, down-step is exactly 1
    assert f(1.5) == 0.5
    with pytest.raises(ValueError):
        bump(1.0, 3.0, 2.0, 4.0)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_bump_support_exact_and_bounded(x):
    f = bump(-2.0, -1.0, 1.0, 2.0)
    v = f(x)
    assert 0.0 <= v <= 1.0
    if x < -2.0 or x > 2.0:
        assert v == 0.0


def test_bump_plateau_exact():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 501)
    assert np.all(f(xs) == 1.0)


def test_shift_and_scale():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    g = f.shifted(3.0)
    assert g.support.lo == 1.0 and g.support.hi == 5.0
    assert g(3.0) == f(0.0) == 1.0
    h = f.scaled(0.5)
    assert h(0.0) == 0.5


def test_derivative_plateau_and_outside():
    f = bump(1.0, 2.0, 3.0, 4.0)
    assert derivative(f, 2.5, 1) == 0.0
    assert derivative(f, 0.5, 2) == 0.0


def test_derivative_on_ramp():
    # F_{1,2}'(1.5) = 2 exactly (logistic form of the quotient at the midpoint);
    # cross-checked with mpmath.diff to 30 digits
    F = smooth_step_up(1.0, 2.0)
    assert_allclose(derivative(F, 1.5, 1), 2.0, atol=5e-9)


def test_derivative_flat_contact_at_knots():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    for order in (1, 2, 3):
        assert abs(derivative(f, -2.0, order)) <= 1e-4
        assert abs(derivative(f, 2.0, order)) <= 1e-4


def test_derivative_order_validation():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        derivative(f, 0.0, 0)
    with pytest.raises(ValueError):
        derivative(f, 0.0, 5)


def test_difference_quotient_values():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    g = difference_quotient(f)
    assert g(0.0) == 0.0  # f is 1 near 0, so f'(0) = 0
    # f(1.5) = 0.5 exactly -> g(1.5) = (0.5 - 1)/1.5
    assert_allclose(g(1.5), -1.0 / 3.0, rtol=1e-14)
    assert g(1.5) < 0


def test_difference_quotient_zero_function_near_zero():
    f = bump(1.0, 2.0, 3.0, 4.0)  # vanishes identically near 0
    g = difference_quotient(f)
    assert g(0.0) == 0.0
    assert g(1e-8) == 0.0
    assert g(0.5) == 0.0


def test_difference_quotient_taylor_consistency():
    # first derivative of g at 0 agrees with f''(0)/2 for a ramp-at-zero bump
    f = bump(-0.5, 0.5, 1.5, 2.5)
    g = difference_quotient(f)
    lhs = derivative(g, 0.0, 1)
    rhs = 0.5 * derivative(f, 0.0, 2)
    assert abs(lhs - rhs) <= 1e-5


def test_difference_quotient_matches_quotient_away_from_zero():
    f = bump(-0.5, 0.5, 1.5, 2.5)
    g = difference_quotient(f)
    xs = np.array([-0.3, 0.2, 0.7, 1.0, 2.0])
    assert_allclose(g(xs), (f(xs) - f(0.0)) / xs, rtol=1e-13)


@settings(max_examples=200)
@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_steps_stay_in_unit_interval(x):
    F = smooth_step_up(-1.0, 1.0)
    G = smooth_step_down(-1.0, 1.0)
    assert 0.0 <= F(x) <= 1.0
    assert 0.0 <= G(x) <= 1.0
    # complementary construction shares the denominator
    assert_allclose(F(x) + G(x), 1.0, rtol=0, atol=1e-15)


# -- Taylor jets (their values against mpmath.diff are in test_testfn_mpmath.py) --

def test_jet_derivatives_exact_zero_off_transitions():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    plateau = np.linspace(-1.0, 1.0, 41)
    knots = np.array([-2.0, -1.0, 1.0, 2.0])
    outside = np.array([-7.0, -2.5, -2.0005, 2.0005, 3.0])
    for g, x0 in ((f, 0.0), (f.shifted(0.5), 0.5), (f.scaled(3.0), 0.0)):
        for order in range(1, 5):
            for xs in (plateau, knots, outside):
                assert np.all(derivative(g, xs + x0, order) == 0.0)


def test_order_zero_jet_is_the_value_bit_for_bit():
    # the value written out with numpy, as the closed form exp(-1/t) quotients
    def m(t):
        pos = t > 1.0 / 745.0
        return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)

    xs = np.linspace(-3.0, 3.0, 100_001)
    up = m(xs + 2.0) / (m(xs + 2.0) + m(-1.0 - xs))
    down = m(2.0 - xs) / (m(xs - 1.0) + m(2.0 - xs))
    f = bump(-2.0, -1.0, 1.0, 2.0)
    assert f(xs).tobytes() == (up * down).tobytes()
    assert f.jet(xs, 0)[0].tobytes() == f(xs).tobytes()
    assert f.jet(xs, 4)[0].tobytes() == f(xs).tobytes()
    assert f(0.5) == 1.0 and isinstance(f(0.5), float)


def test_plain_callable_uses_finite_differences():
    calls = []

    def sine(x):
        calls.append(1)
        return np.sin(x)

    # one Richardson level over the central 2-point stencil: 4 evaluations
    assert abs(derivative(sine, 0.7, 1) - math.cos(0.7)) <= 1e-10
    assert len(calls) == 4


def test_plain_callable_third_and_fourth_derivatives():
    xs = np.array([-1.2, 0.3, 4.0])
    assert_allclose(derivative(np.sin, xs, 3), -np.cos(xs), atol=1e-5, rtol=0)
    assert_allclose(derivative(np.sin, xs, 4), np.sin(xs), atol=1e-3, rtol=0)
    d4 = derivative(np.sin, 0.3, 4)
    assert isinstance(d4, float) and d4 == derivative(np.sin, xs, 4)[1]


def test_test_function_is_given_by_its_jet():
    # the old values-only form fails at construction, not inside a quadrature
    with pytest.raises(TypeError):
        TestFunction(np.cos, (-1.0, 1.0))
    with pytest.raises(TypeError):
        TestFunction((-1.0, 1.0))
    f = bump(-2.0, -1.0, 1.0, 2.0)
    g = TestFunction(f.support, jet=f.jet, label="g")
    xs = np.linspace(-2.5, 2.5, 41)
    assert g(xs).tobytes() == f(xs).tobytes()
    assert derivative(g, xs, 3).tobytes() == derivative(f, xs, 3).tobytes()


def test_difference_quotient_taylor_form_in_a_transition_is_exact():
    # the origin lies inside the rising transition, so f'(0) and f''(0) are nonzero
    f = bump(-2.1, -1.2, 1.1, 1.9).shifted(1.5)
    g = difference_quotient(f)
    d1, d2 = derivative(f, 0.0, 1), derivative(f, 0.0, 2)
    assert d1 != 0.0 and d2 != 0.0
    xs = np.array([0.0, 3e-7, -1e-6, 0.5 * g.switch])
    assert np.all(np.abs(xs) < g.switch)
    assert g(xs).tobytes() == (d1 + xs * d2 / 2).tobytes()


# -- Jets against the full-array formula: every step evaluated on every point
# and the bump taken as the product of two step jets. The library runs the
# mollifiers only inside the transitions; order 0 must agree bit for bit and
# the higher orders by value. --

def _full_mollifier_jet(t, order, sign=1.0):
    pos = t > MOLLIFIER_KNEE
    u = [-1.0 / np.where(pos, t, 1.0)]
    e = [np.where(pos, np.exp(u[0]), 0.0)]
    for k in range(1, order + 1):
        u.append(u[-1] * (sign * u[0]))
        e.append(sum((j * u[j] * e[k - j] for j in range(2, k + 1)), u[1] * e[k - 1]) / k)
    return e


def _full_jet_div(a, b):
    q = []
    for k in range(len(a)):
        acc = a[k]
        for i in range(k):
            acc = acc - q[i] * b[k - i]
        q.append(acc / b[0])
    return q


def _full_jet_mul(a, b):
    return [sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
            for k in range(len(a))]


def _full_step_jet(lo, hi, falling, x, order):
    arr = np.asarray(x, dtype=float)
    rising_m = _full_mollifier_jet(arr - lo, order)
    falling_m = _full_mollifier_jet(hi - arr, order, sign=-1.0)
    den = [r + f for r, f in zip(rising_m, falling_m)]
    ok = den[0] > 0.0
    den[0] = np.where(ok, den[0], 1.0)
    num = falling_m if falling else rising_m
    sharp = (arr >= 0.5 * (lo + hi)) ^ falling
    value = np.where(ok, num[0] / den[0], sharp)
    if order == 0:
        return [value]
    rising_smaller = rising_m[0] <= falling_m[0]
    q = _full_jet_div([np.where(rising_smaller, r, f) for r, f in zip(rising_m, falling_m)],
                      den)
    sign = np.where(rising_smaller != falling, 1.0, -1.0)
    return [value] + [sign * c for c in q[1:]]


def _full_bump_jet(knots, x, order):
    a, b, c, d = knots
    return _full_jet_mul(_full_step_jet(a, b, False, x, order),
                         _full_step_jet(c, d, True, x, order))


NARROW = (0.25, 0.25 + 0.5 * MOLLIFIER_KNEE)  # every inside point takes the sharp step

# (function under test, full-array oracle jet, its knots in x)
JET_CASES = {
    "bump": (bump(-2.0, -1.0, 1.0, 2.0),
             lambda x, n: _full_bump_jet((-2.0, -1.0, 1.0, 2.0), x, n),
             (-2.0, -1.0, 1.0, 2.0)),
    "bump_shifted_scaled": (
        bump(-1.7, -0.45, 0.3, 2.1).shifted(0.37).scaled(-2.5),
        lambda x, n: [-2.5 * v for v in
                      _full_bump_jet((-1.7, -0.45, 0.3, 2.1), np.asarray(x) - 0.37, n)],
        tuple(k + 0.37 for k in (-1.7, -0.45, 0.3, 2.1))),
    "step_down": (smooth_step_down(-0.5, 1.25),
                  lambda x, n: _full_step_jet(-0.5, 1.25, True, x, n),
                  (-0.5, 1.25)),
    "step_narrow": (smooth_step_up(*NARROW),
                    lambda x, n: _full_step_jet(*NARROW, False, x, n),
                    NARROW),
}


def _edge_points(knots):
    pts = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for k in knots:
        pts += [k, k - MOLLIFIER_KNEE, k + MOLLIFIER_KNEE, k - 1e-17, k + 1e-17,
                math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
    for lo, hi in zip(knots, knots[1:]):
        pts += list(np.linspace(lo, hi, 9))
    return np.array(pts)


def _assert_jets_match(case, xs):
    f, oracle, _ = JET_CASES[case]
    for order in range(5):
        got, want = f.jet(xs, order), oracle(xs, order)
        assert len(got) == len(want) == order + 1
        assert np.shape(got[0]) == np.shape(want[0]) == np.shape(xs)
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes(), (case, order)
        for k in range(1, order + 1):
            assert np.array_equal(got[k], want[k], equal_nan=True), (case, order, k)


@pytest.mark.parametrize("case", sorted(JET_CASES))
def test_jets_match_the_full_array_formula(case):
    xs = _edge_points(JET_CASES[case][2])
    _assert_jets_match(case, xs)
    # the quadrature hands (panels, 15) node arrays
    _assert_jets_match(case, np.resize(xs, (xs.size // 15 + 1, 15)))
    for x in xs:
        _assert_jets_match(case, np.array(x))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(JET_CASES)),
       st.lists(st.floats(min_value=-4.0, max_value=4.0) | st.floats(), min_size=1,
                max_size=45))
def test_jets_match_the_full_array_formula_at_drawn_points(case, values):
    xs = np.array(values)
    _assert_jets_match(case, xs)
    if xs.size % 3 == 0:
        _assert_jets_match(case, xs.reshape(3, -1))
