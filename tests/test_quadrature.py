"""Adaptive panel quadrature: the panel rule, convergence reporting, lifting."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltakit import (FundamentalSeq, QuadratureError, adaptive_quad, bump,
                      derivative, half_abs, lorentz_delta_n, lorentz_kink,
                      sinc_delta, sinc_kink)
from deltakit.quadrature import _panel_rule


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
