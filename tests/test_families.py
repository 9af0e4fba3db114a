"""Closed-form families: values, parity, primitive consistency, uniform bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deltakit import (adaptive_quad, derivative, half_abs, half_step,
                      lorentz_delta, lorentz_delta_n, lorentz_delta_seq,
                      lorentz_kink, lorentz_step, sinc_delta, sinc_delta_seq,
                      sinc_kink, sinc_step)

# oracle values (tests/_oracles.py): cos-kernel quadrature and QUADPACK Si
SINC_DELTA_2_HALF = 0.5356970668023275
STEP_1_PI = 0.5894898722360836
KINK_1_1 = 0.15482127375092583
ATAN2_OVER_PI = 0.35241638234956674


def test_sinc_delta_values():
    assert_allclose(sinc_delta(1.0, 0.0), 1.0 / math.pi, rtol=1e-15)
    assert abs(sinc_delta(1.0, math.pi)) <= 1e-15
    assert_allclose(sinc_delta(2.0, 0.5), SINC_DELTA_2_HALF, atol=1e-12, rtol=0)


def test_sinc_delta_series_branch_is_smooth():
    # the Taylor branch below |r x| = 1e-4 agrees with the direct quotient
    u = 0.99e-4
    assert_allclose(sinc_delta(1.0, u), math.sin(u) / (math.pi * u), rtol=1e-14)
    assert_allclose(sinc_delta(3.0, 1e-6), 3.0 / math.pi, rtol=1e-11)


def test_param_validation():
    for fn in (sinc_delta, sinc_step, sinc_kink, lorentz_delta, lorentz_step,
               lorentz_kink, lorentz_delta_n):
        with pytest.raises(ValueError):
            fn(0.0, 1.0)
        with pytest.raises(ValueError):
            fn(-2.0, 1.0)


def test_sinc_step_values():
    assert sinc_step(5.0, 0.0) == 0.0
    assert_allclose(sinc_step(1.0, math.pi), STEP_1_PI, atol=1e-12, rtol=0)
    # half-step limit
    assert abs(sinc_step(1e5, 1.0) - 0.5) <= 1e-4
    assert abs(sinc_step(1e5, -1.0) + 0.5) <= 1e-4


def test_sinc_kink_values():
    assert sinc_kink(7.0, 0.0) == 0.0
    assert_allclose(sinc_kink(1.0, 1.0), KINK_1_1, atol=1e-12, rtol=0)


def test_sinc_kink_concise_rewrite():
    # the kink equals (|x|/pi) * integral of sin^2 y / y^2 over [0, n|x|/2]
    # (both factors flip sign together, so the even closed form falls out)
    from deltakit import sinc_sq_integral
    for n, x in ((1.0, 1.0), (5.0, 0.7), (12.0, -2.5)):
        expected = (abs(x) / math.pi) * sinc_sq_integral(0.0, n * abs(x) / 2)
        assert_allclose(sinc_kink(n, x), expected, atol=1e-11, rtol=0)


def test_sinc_kink_uniform_bound():
    xs = np.linspace(-5.0, 5.0, 2001)
    for n in (1, 3, 17, 120):
        sup = np.max(np.abs(sinc_kink(n, xs) - half_abs(xs)))
        assert sup <= 2.0 / (n * math.pi) + 1e-9


def test_lorentz_values():
    assert_allclose(lorentz_delta_n(7.0, 0.0), 7.0 / math.pi, rtol=1e-15)
    eps = 0.37
    assert_allclose(lorentz_delta(eps, eps), 1.0 / (2 * math.pi * eps), rtol=1e-15)
    assert_allclose(lorentz_step(2.0, 1.0), ATAN2_OVER_PI, rtol=1e-15)
    assert lorentz_kink(11.0, 0.0) == 0.0
    # half-step limit for growing sharpness
    assert abs(lorentz_step(1e6, 2.0) - 0.5) <= 1e-6
    assert abs(lorentz_step(1e6, -2.0) + 0.5) <= 1e-6


def test_lorentz_delta_normalization():
    # antiderivative is arctan: integral over [-L, L] is (2/pi) arctan(L/eps)
    eps = 0.1
    res = adaptive_quad(lambda x: lorentz_delta(eps, x), -100.0, 100.0,
                        tol=1e-12, breakpoints=(0.0,), max_panel=0.5)
    assert_allclose(res.value, 2.0 / math.pi * math.atan(1000.0), atol=1e-9, rtol=0)
    assert abs(res.value - 1.0) <= 1e-3


def test_lorentz_step_matches_kernel_quadrature():
    res = adaptive_quad(lambda x: lorentz_delta(0.5, x), 0.0, 1.0, tol=1e-12)
    assert_allclose(res.value, lorentz_step(2.0, 1.0), atol=1e-10, rtol=0)


def test_lorentz_kink_limit_bound():
    n, M = 100.0, 5.0
    xs = np.linspace(-M, M, 2001)
    gap = np.max(np.abs(lorentz_kink(n, xs) - half_abs(xs)))
    bound = 1.0 / (math.pi * n) + math.log1p(n * n * M * M) / (2 * math.pi * n)
    assert gap <= bound + 1e-12


@settings(max_examples=150)
@given(st.floats(min_value=1e-3, max_value=8e2, allow_nan=False),
       st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_parity(r, x):
    assert sinc_delta(r, -x) == sinc_delta(r, x)
    assert sinc_step(r, -x) == -sinc_step(r, x)
    assert_allclose(sinc_kink(r, -x), sinc_kink(r, x), rtol=0, atol=1e-14)
    assert lorentz_delta(r, -x) == lorentz_delta(r, x)
    assert lorentz_step(r, -x) == -lorentz_step(r, x)
    assert_allclose(lorentz_kink(r, -x), lorentz_kink(r, x), rtol=0, atol=1e-14)


# The closed towers, each with the sequence index n of a family parameter:
# the sinc cutoff r is n itself, the Lorentz width eps is 1/n.
FAMILIES = [(sinc_delta_seq(), lambda r: r), (lorentz_delta_seq(), lambda eps: 1.0 / eps)]


@pytest.mark.parametrize("family", FAMILIES)
def test_primitive_tower_consistency(family):
    # d/dx primitive1 = term and d/dx primitive2 = primitive1, away from 0
    seq, index = family
    xs = np.concatenate([np.linspace(-5, -0.02, 40), np.linspace(0.02, 5, 40)])
    for lam in (0.9, 3.0):
        n = index(lam)
        d1 = derivative(lambda x: seq.primitive(1, n, x), xs, 1)
        assert np.max(np.abs(d1 - seq.term(n, xs))) <= 1e-6
        d2 = derivative(lambda x: seq.primitive(2, n, x), xs, 1)
        assert np.max(np.abs(d2 - seq.primitive(1, n, xs))) <= 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_primitive1_matches_quadrature(family):
    seq, index = family
    for lam in (0.5, 4.0, 20.0):
        n = index(lam)
        for x in (-4.0, -0.7, 1.3, 5.0):
            res = adaptive_quad(lambda t: seq.term(n, t), 0.0, x,
                                tol=1e-11, max_panel=min(0.5, math.pi / lam))
            assert abs(res.value - seq.primitive(1, n, x)) <= 1e-8


def test_primitives_anchored_at_zero():
    for seq, index in FAMILIES:
        assert seq.primitive(1, index(2.5), 0.0) == 0.0
        assert seq.primitive(2, index(2.5), 0.0) == 0.0


def test_limit_objects():
    assert half_step(0.0) == 0.0
    assert half_step(1e-9) == 0.5
    assert half_step(-1e-9) == -0.5
    assert half_abs(-3.0) == 1.5
    assert half_step(2.0) == 0.5
