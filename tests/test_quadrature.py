"""Adaptive panel quadrature: the panel rule, convergence reporting, lifting."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import dblquad

from _oracles import fd_derivative
from deltakit import (FundamentalSeq, QuadResult, QuadratureError, adaptive_quad,
                      bump, derivative, difference_quotient, fubini_square, half_abs,
                      lorentz_delta, lorentz_delta_n, lorentz_kink, lorentz_step, sinc_delta,
                      sinc_kink, sinc_step)
from deltakit import quadrature, testfn
from deltakit.quadrature import (NODES, ROW_BLOCK_NODES, _dyadic_edges, _first_cut, _panel_rule,
                                 _quad_rows)
from deltakit.special import FUBINI_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_panel_rule_names_a_bad_point(bad):
    def f(x):
        return np.where(x > 0.5, bad, 1.0)

    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    with pytest.raises(QuadratureError, match="non-finite") as exc:
        _panel_rule(f, lo, hi)
    x = float(re.fullmatch(r".* near x=([-+0-9.e]+)", str(exc.value)).group(1))
    assert 0.5 < x < 2.0


def test_panel_rule_sums_stacked_values_row_by_row():
    # values stacked as (m, panels, 15) give, row by row, the bits of m calls
    rows = [np.cos, lambda x: np.exp(-x * x) * np.sin(7.0 * x), lambda x: x ** 5 - 3.0 * x,
            lambda x: np.abs(x - 0.3)]
    lo = np.array([-1.0, 0.25, 0.3, 2.0, -7.5])
    hi = np.array([0.25, 0.3, 2.0, 2.5, -1.0])
    k15, err = _panel_rule(lambda x: np.stack([g(x) for g in rows]), lo, hi)
    assert k15.shape == err.shape == (len(rows), lo.size)
    for i, g in enumerate(rows):
        one_k15, one_err = _panel_rule(g, lo, hi)
        assert k15[i].tobytes() == one_k15.tobytes()
        assert err[i].tobytes() == one_err.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_panel_rule_names_a_bad_point_of_a_later_value_row(bad):
    def f(x):  # the first row is finite; the third is not right of 2.6
        return np.stack([np.cos(x), np.sin(x), np.where(x > 2.6, bad, x)])

    with pytest.raises(QuadratureError, match="non-finite") as exc:
        _panel_rule(f, np.array([0.0, 2.0]), np.array([2.0, 3.0]))
    x = float(re.fullmatch(r".* near x=([-+0-9.e]+)", str(exc.value)).group(1))
    assert 2.6 < x < 3.0 and x in (2.5 + 0.5 * NODES)


def _antiderivative_on_the_old_layout(values, cosines, half):
    """The reference: the cosine transform laid out with c_0 doubled and two zero columns
    appended, then C_m = h (c_(m-1) - c_(m+1)) / (2m) on it, C_0 left 0."""
    n = cosines.shape[0]
    c = np.zeros(values.shape[:-1] + (n + 2,))
    c[..., :n] = (2.0 / n) * values @ cosines.T
    coef = np.zeros(c.shape[:-1] + (n + 1,))
    coef[..., 1:] = half * (c[..., :n] - c[..., 2:]) / (2 * np.arange(1, n + 1))
    return coef


@pytest.mark.parametrize("n", [3, 16, quadrature.LIFT_POINTS])
def test_antiderivative_of_plain_coefficients_matches_the_old_layout(n):
    rng = np.random.default_rng(n)
    cosines = quadrature._chebyshev_cosines(n)
    values = rng.standard_normal((40, n)) * np.exp(rng.uniform(-30.0, 30.0, (40, 1)))
    half = rng.uniform(1e-6, 3.0, (40, 1))
    c = quadrature._chebyshev_coefficients(values, cosines)
    # plain coefficients: sum_m c_m T_m interpolates the values at the nodes
    assert c.shape == (40, n)
    through = np.array([np.polynomial.chebyshev.chebval(cosines[1], row) for row in c])
    assert np.all(np.abs(through - values) <= 1e-13 * np.abs(values).max(axis=-1, keepdims=True))
    new = quadrature._chebyshev_antiderivative(c, half)
    assert new.tobytes() == _antiderivative_on_the_old_layout(values, cosines, half).tobytes()


def test_identity_integrand_is_not_overwritten():
    # the integrand returns its own argument, the node array
    assert adaptive_quad(lambda x: x, 0.0, 2.0).value == 2.0
    k15, err = _panel_rule(lambda x: x, np.array([0.0]), np.array([2.0]))
    assert_allclose(k15, [2.0], rtol=1e-15)


def test_converged_reports_the_tolerance():
    res = adaptive_quad(np.cos, 0.0, 1.0, tol=1e-12)
    assert res.converged and res.abs_error_estimate <= 1e-12
    assert adaptive_quad(np.cos, 1.0, 1.0).converged


def test_kept_is_the_value_of_a_converged_result():
    res = adaptive_quad(np.cos, 0.0, 1.0, tol=1e-12)
    assert res.converged and res.kept("cos").hex() == res.value.hex()
    with pytest.raises(QuadratureError) as exc:
        replace(res, converged=False).kept("the integral of cos")
    assert str(exc.value) == "the integral of cos did not converge"


def test_dyadic_edges_double_while_below_reach():
    assert _dyadic_edges(0.1, 1.0) == [0.1, 0.2, 0.4, 0.8]
    assert _dyadic_edges(0.25, 1.0) == [0.25, 0.5]  # reach itself is not an edge
    assert _dyadic_edges(1.0, 1.0) == [] and _dyadic_edges(2.0, 1.0) == []
    # doubling is exact, and it stops at the float range's end, inf not being below inf
    assert _dyadic_edges(2.0 ** -1074, 1.0) == [2.0 ** k for k in range(-1074, 0)]
    assert _dyadic_edges(1e308, math.inf) == [1e308]


def test_finite_difference_noise_does_not_converge():
    # the 2nd finite difference of a bump carries ~1e-8 point-to-point noise,
    # so the K15-G7 estimate cannot reach tol; its Taylor jet can
    f = bump(-2.0, -1.0, 1.0, 2.0)
    fd = lambda x: fd_derivative(f, x, 2)
    noisy = adaptive_quad(lambda x: half_abs(x) * fd(x), -2.0, 2.0, tol=1e-9,
                          breakpoints=(0.0,), max_panels=2000)
    assert not noisy.converged
    assert noisy.panels_used == 2000 and noisy.abs_error_estimate > 1e-9
    exact = adaptive_quad(lambda x: half_abs(x) * derivative(f, x, 2), -2.0, 2.0,
                          tol=1e-9, breakpoints=(0.0,), max_panels=2000)
    assert exact.converged and exact.panels_used < 1000
    # int |x|/2 f'' = f(0) = 1, two integrations by parts
    assert abs(exact.value - 1.0) <= 1e-12


# Row i integrates A[i]/x + cos(W[i] x). On [0, 1], rows 0 and 3 converge on
# their first panel and rows 1 and 4 take several rounds; row 2's 1/x halves
# the panel at 0 every round and stops at the last round, unconverged.
_A = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
_W = np.array([1.0, 40.0, 0.0, 0.5, 90.0])


def _wave(i, x):
    return _A[i] / x + np.cos(_W[i] * x)


def _rows(f, a, b, row_kw, *, tol, max_panels=quadrature.MAX_PANELS):
    """_quad_rows over [a, b], a < b, with row i cut first by _first_cut as
    adaptive_quad(lambda x: f(i, x), a, b, tol=tol, max_panels=max_panels, **row_kw[i])
    cuts it: row_kw[i] holds that row's breakpoints and max_panel."""
    cuts = [_first_cut(a, b, kw.get("breakpoints", ()), kw.get("max_panel"), max_panels)
            for kw in row_kw]
    return _quad_rows(f, cuts, tol=tol, max_panels=max_panels)


def _one_row_calls(f, a, b, row_kw, **kw):
    return [adaptive_quad(lambda x: f(i, x), a, b, **row, **kw) for i, row in enumerate(row_kw)]


def test_rows_match_one_row_calls():
    rows = _rows(_wave, 0.0, 1.0, [{}] * 5, tol=1e-10)
    assert rows == _one_row_calls(_wave, 0.0, 1.0, [{}] * 5, tol=1e-10)
    assert rows[0].panels_used == rows[3].panels_used == 1
    assert rows[1].panels_used > 2 and rows[4].panels_used > rows[1].panels_used
    assert all(r.converged for i, r in enumerate(rows) if i != 2)
    cut = [dict(max_panel=0.3, breakpoints=(0.25, 0.7))] * 5
    kw = dict(tol=1e-12, max_panels=40)
    assert _rows(_wave, 0.0, 1.0, cut, **kw) == _one_row_calls(_wave, 0.0, 1.0, cut, **kw)


def _wave_near_one(i, x):
    return _A[i] / (np.nextafter(1.0, 2.0) - x) + np.cos(_W[i] * x)


def test_rows_stop_when_their_flagged_panels_are_too_narrow(monkeypatch):
    # row 2's pole lies one ulp past 1, so its panels over their share narrow at 1
    # to rounding width relative to 1: more rounds split nothing more. The pole
    # of _wave sits at 0, where floats are dense, so there row 2 splits every round
    base = _rows(_wave_near_one, 0.0, 1.0, [{}] * 5, tol=1e-10)
    at_zero = _rows(_wave, 0.0, 1.0, [{}] * 5, tol=1e-10)
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", quadrature.MAX_ROUNDS + 6)
    longer = _rows(_wave_near_one, 0.0, 1.0, [{}] * 5, tol=1e-10)
    assert longer == base and not longer[2].converged
    assert longer == _one_row_calls(_wave_near_one, 0.0, 1.0, [{}] * 5, tol=1e-10)
    at_zero_longer = _rows(_wave, 0.0, 1.0, [{}] * 5, tol=1e-10)
    assert not at_zero_longer[2].converged
    assert at_zero_longer[2].panels_used > at_zero[2].panels_used


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 80.0)), min_size=1, max_size=4),
       st.floats(0.0, 1.0), st.floats(-13.0, -6.0), st.none() | st.floats(0.05, 1.0),
       st.floats(0.01, 0.99), st.integers(20, 400))
def test_rows_match_one_row_calls_property(aw, c, log_tol, max_panel, cut, max_panels):
    # rows A_i/(x - c) + cos(W_i x): poles, oscillation, and rows that hit the cap
    amp, freq = np.array(aw).T

    def f(i, x):
        return amp[i] / (x - c) + np.cos(freq[i] * x)

    row_kw = [dict(max_panel=max_panel, breakpoints=(cut,))] * amp.size
    kw = dict(tol=10.0 ** log_tol, max_panels=max_panels)
    try:
        rows = _rows(f, 0.0, 1.0, row_kw, **kw)
    except QuadratureError:  # a Kronrod node landed on the pole
        with pytest.raises(QuadratureError):
            _one_row_calls(f, 0.0, 1.0, row_kw, **kw)
        return
    assert rows == _one_row_calls(f, 0.0, 1.0, row_kw, **kw)
    for r in rows:
        assert r.panels_used <= max_panels
        assert r.converged == (r.abs_error_estimate <= kw["tol"])


def test_rows_with_their_own_breakpoints_match_one_row_calls():
    # first cuts of 100 to 300 panels, so the blocks of ROW_BLOCK_NODES nodes close
    # at rows of different sizes; row 5's 250 cuts near 0 and its 0.1 panels
    # elsewhere would pass max_panels, so its max_panel is widened as adaptive_quad
    # widens it
    def f(i, x):
        return np.cos((1.0 + 3.0 * i) * x) * np.exp(-0.1 * i * x) + 0.01 / (x + 0.1 * i + 0.01)

    cuts = [(), (5.0,), list(np.linspace(0.0, 10.0, 150)), (0.001, 0.002, 0.004),
            list(np.linspace(0.0, 10.0, 120)), list(np.linspace(0.001, 0.5, 250)), (), (7.0,)]
    cuts = cuts * 3
    row_kw = [dict(breakpoints=p, max_panel=0.1) for p in cuts]
    kw = dict(tol=1e-11, max_panels=300)

    def first_cut(p, max_panels):  # at tol = inf the first cut is the last
        return adaptive_quad(np.cos, 0.0, 10.0, breakpoints=p, tol=math.inf, max_panel=0.1,
                             max_panels=max_panels).panels_used

    nodes = [NODES.size * first_cut(p, 300) for p in cuts]
    assert max(nodes) < ROW_BLOCK_NODES < sum(nodes) and len(set(nodes)) == 5
    assert first_cut(cuts[5], 300) <= 300 < first_cut(cuts[5], quadrature.MAX_PANELS)
    rows = _rows(f, 0.0, 10.0, row_kw, **kw)
    assert rows == _one_row_calls(f, 0.0, 10.0, row_kw, **kw)
    # a breakpoint every row shares adds to each row's own, and one-row calls over the
    # reversed interval give every row negated
    shared = [dict(breakpoints=(2.5, *p), max_panel=0.1) for p in cuts]
    flipped = [replace(r, value=-r.value) for r in _rows(f, 0.0, 10.0, shared, **kw)]
    assert flipped == _one_row_calls(f, 10.0, 0.0, shared, **kw)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 80.0),
                          st.lists(st.floats(0.01, 0.99), max_size=30),
                          st.none() | st.floats(0.05, 1.0)), min_size=1, max_size=4),
       st.floats(0.0, 1.0), st.floats(-13.0, -6.0), st.integers(20, 400))
def test_rows_with_their_own_breakpoints_match_one_row_calls_property(awcm, c, log_tol,
                                                                      max_panels):
    # rows A_i/(x - c) + cos(W_i x), each cut first at its own breakpoints and cap
    amp, freq = np.array([(a, w) for a, w, _, _ in awcm]).T
    row_kw = [dict(breakpoints=p, max_panel=m) for _, _, p, m in awcm]

    def f(i, x):
        return amp[i] / (x - c) + np.cos(freq[i] * x)

    kw = dict(tol=10.0 ** log_tol, max_panels=max_panels)
    try:
        rows = _rows(f, 0.0, 1.0, row_kw, **kw)
    except QuadratureError:  # a Kronrod node landed on the pole
        with pytest.raises(QuadratureError):
            _one_row_calls(f, 0.0, 1.0, row_kw, **kw)
        return
    assert rows == _one_row_calls(f, 0.0, 1.0, row_kw, **kw)
    for r in rows:
        assert r.panels_used <= max_panels
        assert r.converged == (r.abs_error_estimate <= kw["tol"])


@pytest.mark.parametrize("f, tol, max_panels", [
    (lambda x: np.sin(50.0 * x), 1e-14, 100),
    (lambda x: np.sin(300.0 * x) * np.exp(x), 1e-13, 150),
])
def test_max_panels_caps_the_last_round(f, tol, max_panels):
    # a row one round short of converging would split every flagged panel and
    # pass the cap; it splits only its worst panels, as many as still fit
    res = adaptive_quad(f, 0.0, 10.0, tol=tol, max_panels=max_panels)
    assert res.panels_used <= max_panels and not res.converged


def test_nan_max_panel_is_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="max_panel"):
            adaptive_quad(np.cos, 0.0, 1.0, max_panel=math.nan)
        with pytest.raises(ValueError, match="max_panel"):
            quadrature.anchored_primitive_values(np.cos, [1.0], max_panel=math.nan)
    # None, a cap <= 0 and an infinite cap leave the interval uncut
    for cap in (0.0, -1.0, math.inf):
        assert adaptive_quad(np.cos, 0.0, 1.0, max_panel=cap) == adaptive_quad(np.cos, 0.0, 1.0)
        assert (quadrature.anchored_primitive_values(np.cos, [1.0], max_panel=cap)
                == quadrature.anchored_primitive_values(np.cos, [1.0]))


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
def test_non_finite_endpoints_are_rejected_before_evaluating(end):
    def f(x):
        raise AssertionError("f was evaluated")

    for a, b in ((end, 1.0), (0.0, end)):
        with pytest.raises(ValueError, match="endpoints must be finite"):
            adaptive_quad(f, a, b)


def test_reversed_and_empty_interval():
    # adaptive_quad orients the endpoints: reversed is the forward result negated, bit
    # for bit, and a == b is an exact 0; rows take cuts, and no cut gives no row
    for i in range(5):
        forward = adaptive_quad(lambda x: _wave(i, x), 0.0, 1.0, tol=1e-10)
        back = adaptive_quad(lambda x: _wave(i, x), 1.0, 0.0, tol=1e-10)
        assert back == replace(forward, value=-forward.value)
        assert back.value.hex() == (-forward.value).hex()
        assert adaptive_quad(lambda x: _wave(i, x), 0.5, 0.5) == QuadResult(0.0, 0.0, 1, True)
    assert _quad_rows(_wave, [], tol=1e-10) == []


def test_rows_beyond_one_block():
    # 100 initial panels a row, so a block holds fewer rows than asked for
    rows = 23
    assert ROW_BLOCK_NODES // (NODES.size * 100) < rows // 2
    f = lambda i, x: np.cos((1.0 + 3.0 * i) * x) * np.exp(-0.1 * i * x)
    cut = [dict(max_panel=0.1)] * rows
    assert _rows(f, 0.0, 10.0, cut, tol=1e-11) == _one_row_calls(f, 0.0, 10.0, cut, tol=1e-11)


def test_refined_panels_tile_each_row_from_left_to_right(monkeypatch):
    # each flagged panel is split in place: a row's panels stay contiguous, rows in
    # order, and each panel ends where the next one of its row starts
    calls = []
    real = quadrature._refine_rows

    def refine_rows(rule, cuts, tol, max_panels):
        calls.append((cuts, real(rule, cuts, tol, max_panels)))
        return calls[-1][1]

    monkeypatch.setattr(quadrature, "_refine_rows", refine_rows)
    monkeypatch.setattr(testfn, "_refine_rows", refine_rows)
    peaks = lambda i, x: np.sin((5.0 + 20.0 * i) * x) / (1e-3 + (x - 0.37) ** 2)
    assert all(r.converged for r in _rows(peaks, 0.0, 1.0, [{}] * 3, tol=1e-10))
    quadrature.anchored_primitive_values(lambda x: lorentz_delta(1e-3, x), [-3.0, 0.5, 3.0])
    g = difference_quotient(bump(-0.0045, -0.0005, 1.0, 2.0))  # f' is narrow near 0
    g.jet(np.linspace(-0.99, 0.99, 9) * g.switch, 2)
    assert [(len(cuts), row.size) for cuts, (row, *_) in calls] == [(3, 64), (1, 24), (9, 61)]
    for cuts, (row, lo, hi, *_) in calls:
        first = row.searchsorted(np.arange(len(cuts)))
        assert (np.diff(row) >= 0).all() and (np.diff(first) > 0).all()
        assert lo[first].tolist() == [c[0] for c in cuts]
        assert hi[np.append(first[1:], row.size) - 1].tolist() == [c[-1] for c in cuts]
        within = row[1:] == row[:-1]
        assert (hi[:-1][within] == lo[1:][within]).all()


def _fubini_one_call_per_node(R, order):
    """The square of fubini_square nested: at each outer node, the inner integral
    by an adaptive_quad of its own."""
    inner, inner_cap, outer_cap = {
        "x_first": (lambda a: lambda x: np.exp(-a * x) * np.sin(x), math.pi, 0.5),
        "alpha_first": (lambda x: lambda a: np.exp(-a * x) * np.sin(x), 0.5, math.pi),
    }[order]
    inner_tol = max(1e-14, FUBINI_TOL / (20.0 * R))
    inner_converged = True

    def outer_integrand(ts):
        nonlocal inner_converged
        res = [adaptive_quad(inner(t), 0.0, R, tol=inner_tol, max_panel=inner_cap)
               for t in ts.ravel()]
        inner_converged = inner_converged and all(r.converged for r in res)
        return np.reshape([r.value for r in res], ts.shape)

    res = adaptive_quad(outer_integrand, 0.0, R, tol=0.5 * FUBINI_TOL, max_panel=outer_cap)
    err = res.abs_error_estimate + R * inner_tol
    return QuadResult(res.value, err, res.panels_used,
                      res.converged and inner_converged and err <= FUBINI_TOL)


@pytest.mark.parametrize("order", ["x_first", "alpha_first"])
@pytest.mark.parametrize("R", [1.0, 5.0, 22.3])
def test_fubini_closed_inner_integral_matches_nested_quadrature(R, order):
    res = fubini_square(R, order)
    nested = _fubini_one_call_per_node(R, order)
    assert res.converged and nested.converged
    assert abs(res.value - nested.value) <= FUBINI_TOL
    if R <= 10.0:
        want, _ = dblquad(lambda x, a: math.exp(-a * x) * math.sin(x), 0.0, R, 0.0, R,
                          epsabs=1e-13, epsrel=0.0)
        assert abs(res.value - want) <= FUBINI_TOL


def _open_tower(term, panel_hint=None):
    """A sequence declared with no closed primitives: every level is lifted."""
    return FundamentalSeq(term=term, primitive_order=2, primitives=(),
                          panel_hint=panel_hint)


def _scaled_cos(n, x):
    return n * np.cos(n * np.asarray(x, dtype=float))


@pytest.mark.parametrize("n", [1, 7, 50])
def test_lifting_two_levels_matches_closed_kinks(n):
    xs = np.linspace(-5.0, 5.0, 2001)
    hint = lambda n: min(0.5, math.pi / n)
    for term, kink, panel_hint in (
            (sinc_delta, sinc_kink, hint),
            (lorentz_delta_n, lorentz_kink, None),
            (_scaled_cos, lambda n, x: (1.0 - np.cos(n * x)) / n, hint)):
        lifted = _open_tower(term, panel_hint).primitive(2, n, xs)
        assert_allclose(lifted, kink(n, xs), atol=1e-9, rtol=0)


@pytest.mark.parametrize("n", [1, 7, 50])
def test_lifting_three_levels(n):
    xs = np.linspace(-5.0, 5.0, 2001)
    seq = _open_tower(_scaled_cos, lambda n: min(0.5, math.pi / n))
    assert_allclose(seq.primitive(3, n, xs), (xs - np.sin(n * xs) / n) / n, atol=1e-9, rtol=0)


def test_lifting_refines_segments_the_shared_panels_miss():
    # one degree-24 Chebyshev panel on each side of 0 reads 0.359 for a peak of
    # width 1e-3, against 0.5; only bisecting the panels at 0 recovers arctan(x/eps)/pi
    xs = np.array([-3.0, -1.0, 0.5, 3.0])
    prim = quadrature.anchored_primitive_values(lambda x: lorentz_delta(1e-3, x), xs)
    assert prim.shape == (4,)
    assert_allclose(prim, lorentz_step(1e3, xs), atol=1e-14, rtol=0)


def test_lifting_raises_when_its_bisection_does_not_converge(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 1)
    xs = np.array([-3.0, -1.0, 0.5, 3.0])
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.anchored_primitive_values(lambda x: lorentz_delta(1e-3, x), xs)


@pytest.mark.parametrize("eps, tol", [(1e-5, 1e-10), (1e-8, 1e-10), (1e-3, 1e-13)])
def test_lifting_resolves_narrow_peaks(eps, tol):
    # each panel's share of tol grows with its width: the panels at the peak
    # stop splitting before their coefficients reach rounding
    xs = np.linspace(-3.0, 4.0, 2001)
    prim = quadrature.anchored_primitive_values(lambda x: lorentz_delta(eps, x), xs, tol=tol)
    assert_allclose(prim, lorentz_step(1.0 / eps, xs), atol=1e-14, rtol=0)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_lifting_a_jump_stays_within_tol(tol):
    xs = np.linspace(-1.0, 2.0, 301)
    prim = quadrature.anchored_primitive_values(lambda x: (x > 0.3).astype(float), xs, tol=tol)
    assert_allclose(prim, np.maximum(xs - 0.3, 0.0), atol=tol, rtol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lifting_rejects_a_non_finite_point_before_evaluating(bad):
    def f(x):
        raise AssertionError("f was evaluated")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"x={bad!r}"):
            quadrature.anchored_primitive_values(f, [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            quadrature.anchored_primitive_values(f, np.array([[0.5, 2.0], [bad, -1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lifting_names_a_non_finite_value_of_its_integrand(bad):
    def f(x):
        return np.where(x > 0.5, bad, np.cos(x))

    with pytest.raises(QuadratureError, match="non-finite value") as exc:
        quadrature.anchored_primitive_values(f, [-1.0, 2.0])
    x = float(re.fullmatch(r".* near x=([-+0-9.e]+)", str(exc.value)).group(1))
    assert 0.5 < x < 2.0


def test_lifting_samples_fewer_points_than_the_grid_holds():
    # the integrand is smooth on the scale 1/n: half-period panels of 25
    # Chebyshev points resolve it, with no panel per grid gap
    points = []

    def term(t):
        points.append(t.size)
        return sinc_step(20, t)

    xs = np.linspace(-3.7, 4.3, 2001)
    prim = quadrature.anchored_primitive_values(term, xs, max_panel=math.pi / 20)
    assert sum(points) < xs.size
    assert_allclose(prim, sinc_kink(20, xs), atol=1e-10, rtol=0)


def _poly_primitive(xs, level):
    """Closed level-fold primitive of 1 + 2t - 3t^2 + t^7/5 anchored at 0:
    t^i integrates to x^(i+level) i!/(i+level)!."""
    terms = ((1.0, 0), (2.0, 1), (-3.0, 2), (0.2, 7))
    xs = np.asarray(xs, dtype=float)
    return sum(a * xs ** (i + level) * math.factorial(i) / math.factorial(i + level)
               for a, i in terms)


@pytest.mark.parametrize("xs", [
    np.float64(1.7),
    np.array(-2.5),
    np.array([0.25, 1.0, 3.0]),
    np.array([-3.0, -0.5, -2.0]),
    np.array([0.0, 1.5, -1.5, 1.5, 0.0, 2.0]),
    np.array([[-1.0, 0.3], [2.2, -1.0], [0.0, 2.2]]),
], ids=["0-d", "0-d negative", "right of 0", "left of 0", "zero and repeats", "2-D"])
def test_lifting_keeps_the_shape_and_integrates_polynomials(xs):
    poly = lambda t: 1.0 + 2.0 * t - 3.0 * t ** 2 + t ** 7 / 5.0
    for level in (1, 2, 3):
        prim = quadrature.anchored_primitive_values(poly, xs, max_panel=0.5, levels=level)
        want = _poly_primitive(xs, level)
        assert np.shape(prim) == np.shape(xs)
        assert type(prim) is (float if np.ndim(xs) == 0 else np.ndarray)
        assert_allclose(prim, want, atol=1e-13 * max(1.0, np.abs(want).max()), rtol=0)
    with pytest.raises(ValueError, match="levels must be"):
        quadrature.anchored_primitive_values(poly, xs, levels=0)


def test_lifting_three_levels_far_from_the_anchor():
    # the closed third primitive of n cos(n x) is (x - sin(n x)/n)/n; at |x| = 20 the
    # moments t^j P(t) of a repeated-integration formula outgrow the lift's tolerance
    n, xs = 7, np.linspace(-20.0, 20.0, 2001)
    seq = _open_tower(_scaled_cos, lambda n: min(0.5, math.pi / n))
    assert_allclose(seq.primitive(3, n, xs), (xs - np.sin(n * xs) / n) / n, atol=1e-11, rtol=0)


def test_lifted_level_of_a_scalar_is_a_float():
    seq = _open_tower(_scaled_cos, lambda n: min(0.5, math.pi / n))
    for level in (1, 2, 3):
        value = seq.primitive(level, 7, 1.3)
        assert type(value) is float
        assert value == seq.primitive(level, 7, np.array([1.3]))[0]


def test_first_cut_fits_in_max_panels():
    # 10 000 panels of width 0.01 would pass max_panels; a wider cap fits 1000
    res = adaptive_quad(np.sin, 0.0, 100.0, max_panel=0.01, max_panels=1000)
    assert res.panels_used <= 1000 and res.converged
    assert abs(res.value - (1.0 - math.cos(100.0))) <= 1e-12


def test_first_cut_is_counted_before_it_is_built():
    # the uncapped cut holds 1e300 panels: only its count is ever taken
    res = adaptive_quad(np.cos, 0.0, 1.0, max_panel=1e-300, max_panels=1000)
    assert res.panels_used == 1000 and res.converged
    assert res.value == math.sin(1.0)


def test_lifting_counts_its_first_cut_before_it_is_built():
    def f(x):
        raise AssertionError("f was evaluated")

    with pytest.raises(QuadratureError, match=r"needs 9\.9+e\+299 panels, over 200000"):
        quadrature.anchored_primitive_values(f, [0.0, 1.0], max_panel=1e-300)


def test_lifting_raises_before_sampling_past_max_panels(monkeypatch):
    def f(x):
        raise AssertionError("f was evaluated")

    monkeypatch.setattr(quadrature, "MAX_PANELS", 100)
    with pytest.raises(QuadratureError, match="needs 1000 panels"):
        quadrature.anchored_primitive_values(f, [0.0, 100.0], max_panel=0.1)
