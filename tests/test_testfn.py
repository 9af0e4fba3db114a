"""Bump construction: mollifier, smooth steps, supports, Taylor-jet derivatives."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import fd_derivative
from deltakit import (Interval, QuadratureError, TestFunction, bump, derivative,
                      difference_quotient, mollifier, smooth_step_down,
                      smooth_step_up)
from deltakit import testfn
from deltakit.testfn import MAX_DERIVATIVE_ORDER, MOLLIFIER_KNEE

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


@pytest.mark.parametrize("step", [smooth_step_up, smooth_step_down])
@pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (4.0, 3.0), (math.nan, 1.0), (-math.inf, 0.0)])
def test_step_rejects_bad_interval(step, lo, hi):
    # the step's transition Interval checks the order and finiteness of its ends
    with pytest.raises(ValueError, match="interval"):
        step(lo, hi)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            Interval(lo, hi)


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
    # g'(0) = f''(0)/2, with the origin 0.1 below the midpoint of the rising
    # transition, where f''(0) is far from 0 (at the midpoint it vanishes)
    f = bump(-0.4, 0.6, 1.5, 2.5)
    g = difference_quotient(f)
    rhs = 0.5 * derivative(f, 0.0, 2)
    assert rhs > 1.0
    assert derivative(g, 0.0, 1) == pytest.approx(rhs, rel=1e-14)


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


def test_plain_callable_has_no_derivative():
    # derivatives are read off jets only; finite differences live in the test oracles
    for order in range(1, MAX_DERIVATIVE_ORDER + 1):
        with pytest.raises(TypeError, match="has no jet"):
            derivative(np.sin, 0.3, order)
    assert abs(fd_derivative(np.sin, 0.3, 1) - math.cos(0.3)) <= 1e-10


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


def test_difference_quotient_splits_its_integral_over_a_narrow_transition(monkeypatch):
    # the origin is mid-way through a 0.02-wide transition, which changes on a
    # scale near 0.02^2 / 8 = 5e-5: one 15-point panel over [0, x] is off by 5e-4
    f = bump(-0.01, 0.01, 1.0, 1.02)
    g = difference_quotient(f)
    x = 0.9 * g.switch
    assert g(x) == pytest.approx((f(x) - f(0.0)) / x, rel=1e-13)
    monkeypatch.setattr(testfn, "MAX_QUOTIENT_PANELS", 4)
    with pytest.raises(QuadratureError, match=re.escape(f"at x = {x!r} needs more than 4 panels")):
        g(x)


def test_derivative_of_a_difference_quotient_reads_its_jet():
    # the origin lies inside the rising transition, so g is not constant near 0
    g = difference_quotient(bump(-2.1, -1.2, 1.1, 1.9).shifted(1.5))
    xs = np.array([-0.8, -g.switch, -1e-4, 0.0, 1e-9, 0.5 * g.switch, g.switch, 0.3, 1.7])
    for order in range(1, MAX_DERIVATIVE_ORDER + 1):
        assert derivative(g, xs, order).tobytes() == \
            (math.factorial(order) * g.jet(xs, order)[order]).tobytes()
    assert g(xs).tobytes() == g.jet(xs, 0)[0].tobytes()
    assert isinstance(g(0.0), float) and g(0.0) == g(xs)[3]
    # against central differences of the values, on both sides of the switch
    assert_allclose(derivative(g, xs, 1), fd_derivative(g, xs, 1), rtol=0, atol=1e-8)


def _probe_points(f):
    """0 and 30 points each side of it from 1e-9 to a tenth of the support width, the
    points at which test_testfn_mpmath checks difference quotients."""
    pos = np.geomspace(1e-9, 0.1 * f.support.width, 30)
    return np.concatenate([[0.0], pos, -pos])


def _independence_inputs():
    """(f, g, points, orders): probe points on a plateau, in a 0.02-wide transition and next
    to a knot at orders 0..2, then 199 points across the switch at order 2 on narrow
    transitions, where numpy's power once rounded t ** 2 with the batch size."""
    for f in (bump(-2.0, -1.0, 1.0, 2.0), bump(-0.01, 0.01, 1.0, 1.02), bump(0.0, 1.0, 2.0, 3.0)):
        g = difference_quotient(f)
        xs = np.concatenate([_probe_points(f), [0.999 * g.switch, -0.999 * g.switch]])
        yield f, g, xs, range(3)
    for f in (bump(-0.01, 0.01, 1.0, 1.02), bump(-1.0, -0.95, 0.95, 1.0).shifted(0.975),
              bump(-0.00502, 0.00498, 1.0, 1.01)):
        g = difference_quotient(f)
        yield f, g, np.linspace(-0.99, 0.99, 199) * g.switch, [2]


def test_difference_quotient_points_are_independent():
    # each point is its own row of the bisection loop: alone it gives its entry of
    # the array bit for bit, whatever the other points need (a matmul in the panel
    # rule would not)
    for f, g, xs, orders in _independence_inputs():
        for order in orders:
            jet = g.jet(xs, order)
            for i, x in enumerate(xs):
                alone = g.jet(np.array([x]), order)
                for k in range(order + 1):
                    assert alone[k][0].tobytes() == jet[k][i].tobytes(), (f, x, order, k)


def test_difference_quotient_of_zero_is_exactly_zero():
    g = difference_quotient(bump(-2.0, -1.0, 1.0, 2.0).scaled(0.0))
    xs = np.array([0.0, 1e-9, -1e-4, 0.5 * g.switch, -0.999 * g.switch])
    for order in range(3):
        assert all(np.all(c == 0.0) for c in g.jet(xs, order))  # RuntimeWarnings are errors


@pytest.mark.parametrize("f", [bump(0.0, 1.0, 2.0, 3.0), bump(-3.0, -2.0, -0.001, 1.0),
                               bump(-2.0, -1.0, 1.0, 2.0).shifted(1.002),
                               bump(-1.0, -0.9, 0.9, 1.0).shifted(0.999)])
def test_difference_quotient_near_a_knot_converges(f):
    # f' is negligible over [0, x] at some points, and the estimates there are
    # measured against sup |f| / width: without that floor the first and third raise
    g = difference_quotient(f)
    xs = _probe_points(f)
    for order in range(3):
        g.jet(xs, order)
    if f(0.0) == 0.0:  # bump(0, 1, 2, 3): g is near 1e-56 here, so the floor sets its accuracy
        small = xs[(np.abs(xs) < g.switch) & (xs != 0.0)]
        assert_allclose(g(small), f(small) / small, rtol=0, atol=1e-13)


@pytest.mark.parametrize("knots", [(-0.004, 0.001, 1.0, 2.0), (-0.0005, 0.0025, 1.0, 2.0),
                                   (-0.002, 0.002, 1.0, 2.0)])
def test_difference_quotient_meets_its_tolerance_or_raises(knots):
    # transitions narrower than 0.01 with the origin inside are near-jumps, which all
    # 15 nodes of a first cut can miss at some points (such a point alone is accepted).
    # Over 160 points the call raises, or every point is within 1e-12 of the direct
    # quotient: not 57% off, as equal panels doubled on [0, 1] were on the first bump
    f = bump(*knots)
    g = difference_quotient(f)
    xs = np.linspace(-g.switch, g.switch, 201)[1:-1]
    xs = xs[np.abs(xs) > 1e-3]
    direct = (f(xs) - f(0.0)) / xs
    try:
        values = g(xs)
    except ArithmeticError as err:
        assert "panels" in str(err)
    else:
        assert np.max(np.abs(values - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_difference_quotient_refines_only_where_needed():
    # the origin mid-way through a 0.01-wide transition: a row bisects only the
    # panels near it. The bound is half the 17 972 jet points that equal panels
    # doubled over all of [0, 1] need
    f = bump(-0.00502, 0.00498, 1.0, 1.01)
    points = []

    def jet(x, order):
        points.append(np.size(x))
        return f.jet(x, order)

    g = difference_quotient(TestFunction(f.support, jet=jet))
    points.clear()
    jet = g.jet(_probe_points(f), 2)
    assert sum(points) < 9000
    assert all(np.isfinite(c).all() for c in jet)


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
