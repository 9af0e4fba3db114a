"""Sine integral, Dirichlet tail, sinc^2 integral, and the double-integral check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deltakit import dirichlet_tail, fubini_square, si, sinc_sq_integral, sinc_step

# QUADPACK oracle values (see tests/_oracles.py), double-checked with mpmath
SI_PI = 1.8519370519824663
DIRICHLET_TAIL_PI = -0.2811407251875697


def test_si_basic_values():
    assert si(0.0) == 0.0
    assert_allclose(si(math.pi), SI_PI, atol=1e-12, rtol=0)
    assert abs(si(1e6) - math.pi / 2) <= 2e-6


def test_si_odd_by_reflection():
    xs = np.array([1e-8, 0.3, 1.0, 7.0, 49.9, 50.1, 123.0, 1e5])
    assert np.all(si(-xs) == -si(xs))


@given(st.floats(min_value=1e-12, max_value=1e8, allow_nan=False))
def test_si_oddness_property(x):
    assert si(-x) == -si(x)


def test_si_vectorized_matches_scalar():
    xs = np.linspace(-120.0, 120.0, 37)
    vec = si(xs)
    assert_allclose(vec, [si(float(x)) for x in xs], rtol=0, atol=0)


def test_si_non_finite():
    assert si(math.inf) == math.pi / 2
    assert si(-math.inf) == -math.pi / 2
    assert math.isnan(si(math.nan))
    out = si(np.array([-math.inf, math.nan, 1.0, math.inf]))
    assert out[0] == -math.pi / 2 and math.isnan(out[1]) and out[3] == math.pi / 2
    assert out[2] == si(1.0)
    assert dirichlet_tail(math.inf) == 0.0
    assert sinc_step(3.0, -math.inf) == -0.5


def test_si_accuracy_against_scipy():
    sici = pytest.importorskip("scipy.special").sici
    xs = np.geomspace(1e-3, 1e6, 400)
    assert np.max(np.abs(si(xs) - sici(xs)[0])) <= 1e-12


def test_si_tail_envelope():
    xs = np.geomspace(1.0, 1e6, 61)
    assert np.all(np.abs(si(xs) - math.pi / 2) <= 2.0 / xs)


def test_dirichlet_tail():
    with pytest.raises(ValueError):
        dirichlet_tail(0.0)
    with pytest.raises(ValueError):
        dirichlet_tail(-1.0)
    assert_allclose(dirichlet_tail(math.pi), DIRICHLET_TAIL_PI, atol=1e-12, rtol=0)
    for x in (1.0, 10.0, 100.0):
        assert abs(dirichlet_tail(x)) <= 2.0 / x
    assert abs(dirichlet_tail(1e6)) <= 2e-6


def test_sinc_sq_integral_values():
    assert_allclose(sinc_sq_integral(0.0, math.inf), math.pi / 2, atol=1e-12, rtol=0)
    # 1/y^2 majorant for the tail
    assert sinc_sq_integral(2.0, math.inf) <= 0.5
    # removable singularity: integrand -> 1, so the head integral -> b
    assert_allclose(sinc_sq_integral(0.0, 1e-6), 1e-6, rtol=1e-6)


def test_sinc_sq_integral_validation():
    with pytest.raises(ValueError):
        sinc_sq_integral(-1.0, 2.0)
    with pytest.raises(ValueError):
        sinc_sq_integral(2.0, 2.0)
    with pytest.raises(ValueError):
        sinc_sq_integral(2.0, 1.0)


def test_sinc_sq_additivity():
    total = sinc_sq_integral(0.0, 7.0)
    assert_allclose(sinc_sq_integral(0.0, 3.0) + sinc_sq_integral(3.0, 7.0),
                    total, atol=1e-12, rtol=0)


def test_fubini_orders_agree():
    for R in (1.0, 5.0, 10.0, 20.0):
        rx = fubini_square(R, "x_first")
        ra = fubini_square(R, "alpha_first")
        assert abs(rx.value - ra.value) <= max(1e-8, rx.abs_error_estimate + ra.abs_error_estimate)
        assert rx.abs_error_estimate >= 0.0
        assert rx.panels_used >= 1


def test_fubini_tracks_arctan():
    res = fubini_square(10.0, "x_first")
    assert abs(res.value - math.atan(10.0)) <= 0.15


def test_fubini_validation():
    with pytest.raises(ValueError):
        fubini_square(0.0)
    with pytest.raises(ValueError):
        fubini_square(-3.0)
    with pytest.raises(ValueError):
        fubini_square(1.0, "y_first")


def test_parts_identity_spot():
    # Si(u) = (1 - cos u)/u + int_0^{u/2} sin^2 y / y^2 dy
    for u in (0.5, 3.0, 12.0, 40.0):
        head = (1.0 - math.cos(u)) / u
        assert_allclose(si(u), head + sinc_sq_integral(0.0, u / 2), atol=1e-10, rtol=0)
