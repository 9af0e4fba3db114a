"""Adaptive panel quadrature: the panel rule, convergence reporting, lifting."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltakit import (FundamentalSeq, QuadResult, QuadratureError, adaptive_quad,
                      bump, derivative, fubini_square, half_abs, lorentz_delta,
                      lorentz_delta_n, lorentz_kink, lorentz_step, sinc_delta,
                      sinc_kink)
from deltakit import quadrature
from deltakit.quadrature import NODES, ROW_BLOCK_NODES, _panel_rule, _quad_rows
from deltakit.special import FUBINI_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_panel_rule_names_a_bad_point(bad):
    def f(x):
        return np.where(x > 0.5, bad, 1.0)

    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    with pytest.raises(QuadratureError, match="non-finite") as exc:
        _panel_rule(f, lo, hi)
    x = float(re.search(r"x=(?:np\.float64\()?([-+0-9.e]+)", str(exc.value)).group(1))
    assert 0.5 < x < 2.0


def test_identity_integrand_is_not_overwritten():
    # the integrand returns its own argument, the node array
    assert adaptive_quad(lambda x: x, 0.0, 2.0).value == 2.0
    k15, err = _panel_rule(lambda x: x, np.array([0.0]), np.array([2.0]))
    assert_allclose(k15, [2.0], rtol=1e-15)


def test_converged_reports_the_tolerance():
    res = adaptive_quad(np.cos, 0.0, 1.0, tol=1e-12)
    assert res.converged and res.abs_error_estimate <= 1e-12
    assert adaptive_quad(np.cos, 1.0, 1.0).converged


def test_finite_difference_noise_does_not_converge():
    # the 2nd finite difference of a bump carries ~1e-8 point-to-point noise,
    # so the K15-G7 estimate cannot reach tol; its Taylor jet can
    f = bump(-2.0, -1.0, 1.0, 2.0)
    fd = lambda x: derivative(lambda t: f(t), x, 2)
    noisy = adaptive_quad(lambda x: half_abs(x) * fd(x), -2.0, 2.0, tol=1e-9,
                          breakpoints=(0.0,), max_panels=2000)
    assert not noisy.converged
    assert noisy.panels_used >= 2000 and noisy.abs_error_estimate > 1e-9
    exact = adaptive_quad(lambda x: half_abs(x) * derivative(f, x, 2), -2.0, 2.0,
                          tol=1e-9, breakpoints=(0.0,), max_panels=2000)
    assert exact.converged and exact.panels_used < 1000
    # int |x|/2 f'' = f(0) = 1, two integrations by parts
    assert abs(exact.value - 1.0) <= 1e-12


# Row i integrates A[i]/x + cos(W[i] x). On [0, 1], rows 0 and 3 converge on
# their first panel and rows 1 and 4 take several rounds; row 2's 1/x narrows
# the panel at 0 until it cannot split, after which that row splits its worst
# splittable panel each round and stops unconverged after the last round.
_A = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
_W = np.array([1.0, 40.0, 0.0, 0.5, 90.0])


def _wave(i, x):
    return _A[i] / x + np.cos(_W[i] * x)


def _one_row_calls(f, rows, a, b, **kw):
    return [adaptive_quad(lambda x: f(i, x), a, b, **kw) for i in range(rows)]


def test_rows_match_one_row_calls():
    rows = _quad_rows(_wave, 5, 0.0, 1.0, tol=1e-10)
    assert rows == _one_row_calls(_wave, 5, 0.0, 1.0, tol=1e-10)
    assert rows[0].panels_used == rows[3].panels_used == 1
    assert rows[1].panels_used > 2 and rows[4].panels_used > rows[1].panels_used
    assert all(r.converged for i, r in enumerate(rows) if i != 2)
    kw = dict(tol=1e-12, max_panel=0.3, breakpoints=(0.25, 0.7), max_panels=40)
    assert _quad_rows(_wave, 5, 0.0, 1.0, **kw) == _one_row_calls(_wave, 5, 0.0, 1.0, **kw)


def test_rows_fall_back_to_the_worst_panel(monkeypatch):
    # once row 2 cannot split its panel at 0, each round splits one other panel
    base = _quad_rows(_wave, 5, 0.0, 1.0, tol=1e-10)
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", quadrature.MAX_ROUNDS + 6)
    longer = _quad_rows(_wave, 5, 0.0, 1.0, tol=1e-10)
    assert longer[2].panels_used == base[2].panels_used + 6 and not longer[2].converged
    assert longer[:2] == base[:2] and longer[3:] == base[3:]
    assert longer == _one_row_calls(_wave, 5, 0.0, 1.0, tol=1e-10)


def test_rows_reversed_and_empty_interval():
    rows = _quad_rows(_wave, 5, 1.0, 0.0, tol=1e-10)
    assert rows == _one_row_calls(_wave, 5, 1.0, 0.0, tol=1e-10)
    assert rows[1].value == -_quad_rows(_wave, 5, 0.0, 1.0, tol=1e-10)[1].value
    assert _quad_rows(_wave, 3, 0.5, 0.5, tol=1e-10) == [QuadResult(0.0, 0.0, 1, True)] * 3


def test_rows_beyond_one_block():
    # 100 initial panels a row, so a block holds fewer rows than asked for
    rows = 23
    assert ROW_BLOCK_NODES // (NODES.size * 100) < rows // 2
    f = lambda i, x: np.cos((1.0 + 3.0 * i) * x) * np.exp(-0.1 * i * x)
    kw = dict(tol=1e-11, max_panel=0.1)
    assert _quad_rows(f, rows, 0.0, 10.0, **kw) == _one_row_calls(f, rows, 0.0, 10.0, **kw)


def _fubini_one_call_per_node(R, order):
    """fubini_square with one adaptive_quad per outer node."""
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
@pytest.mark.parametrize("R", [1.0, 22.3])
def test_fubini_rows_match_one_call_per_node(R, order):
    res = fubini_square(R, order)
    assert res == _fubini_one_call_per_node(R, order)
    assert res.converged


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
    # one panel on each segment next to 0 reads 0.212 and 0.372 for a peak of
    # width 1e-3; only refining those segments recovers arctan(x/eps)/pi
    xs = np.array([-3.0, -1.0, 0.5, 3.0])
    prim = quadrature.anchored_primitive_values(lambda x: lorentz_delta(1e-3, x), xs)
    assert prim.shape == (1, 4)
    assert_allclose(prim[0], lorentz_step(1e3, xs), atol=1e-14, rtol=0)


def test_lifting_raises_when_a_refined_segment_does_not_converge(monkeypatch):
    real = quadrature.adaptive_quad
    monkeypatch.setattr(quadrature, "adaptive_quad", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), converged=False))
    xs = np.array([-3.0, -1.0, 0.5, 3.0])
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.anchored_primitive_values(lambda x: lorentz_delta(1e-3, x), xs)
