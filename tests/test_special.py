"""Sine integral, Dirichlet tail, sinc^2 integral, and the double-integral check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from _si_grid import SEAMS, si_grid
from numpy.testing import assert_allclose

from deltakit import (QuadratureError, dirichlet_tail, fubini_square, quadrature, si,
                      sinc_sq_integral, sinc_step, special)
from deltakit.special import si_half_pi_roots

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
    grid = si_grid(sweep=1001)
    xs = np.concatenate([np.linspace(-120.0, 120.0, 37), grid, -grid])
    scalars = np.array([si(float(x)) for x in xs])
    assert scalars.tobytes() == si(xs).tobytes()  # bit for bit, signed zeros too


def test_si_non_finite():
    assert si(math.inf) == math.pi / 2
    assert si(-math.inf) == -math.pi / 2
    assert math.isnan(si(math.nan))
    out = si(np.array([-math.inf, math.nan, 1.0, math.inf]))
    assert out[0] == -math.pi / 2 and math.isnan(out[1]) and out[3] == math.pi / 2
    assert out[2] == si(1.0)
    assert dirichlet_tail(math.inf) == 0.0
    assert sinc_step(3.0, -math.inf) == -0.5


def test_si_huge_arguments():
    # x*x overflows past ~1.3e154; the asymptotic pair still gives pi/2 - cos(x)/x
    assert si(1e300) == math.pi / 2 and si(-1e200) == -math.pi / 2
    out = si(np.array([1e154, 1.4e154, 1e300, -1.7e308]))
    assert_allclose(out, np.sign(out) * math.pi / 2, rtol=0, atol=0)
    assert sinc_step(1e5, 1e150) == 0.5


def test_si_accuracy_against_scipy():
    sici = pytest.importorskip("scipy.special").sici
    xs = np.geomspace(1e-3, 1e6, 400)
    assert np.max(np.abs(si(xs) - sici(xs)[0])) <= 2e-15


def test_si_matches_scipy_on_the_dense_grid():
    sici = pytest.importorskip("scipy.special").sici
    xs = si_grid()
    assert np.max(np.abs(si(xs) - sici(xs)[0])) <= 2e-15


def test_si_is_continuous_across_the_seams():
    # Si rises by at most ~1e-17 over the two floats around a seam
    below, above = np.nextafter(SEAMS, -np.inf), np.nextafter(SEAMS, np.inf)
    assert np.max(np.abs(si(above) - si(below))) <= 1e-15


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
    # a first cut past MAX_PANELS is refused: widened, it would put no Kronrod node near 0
    # and "converge" to 0.0, not pi/2
    with pytest.raises(QuadratureError, match="panels, over 200000"):
        sinc_sq_integral(0.0, 1e300)


def test_sinc_sq_integral_reads_every_end_off_one_lift():
    bs = np.array([[1.5, 3.0], [math.inf, 40.0]])
    got = sinc_sq_integral(1.0, bs)
    assert got.shape == bs.shape
    assert_allclose(got.ravel(), [sinc_sq_integral(1.0, b) for b in bs.ravel()],
                    atol=1e-12, rtol=0)
    assert type(sinc_sq_integral(1.0, 2.0)) is float
    with pytest.raises(ValueError, match="b > a"):
        sinc_sq_integral(1.0, np.array([0.5, 3.0]))


def test_sinc_sq_integral_raises_when_the_lift_does_not_converge(monkeypatch):
    # a tolerance below rounding, which no panel meets, and one bisection round
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 1)
    monkeypatch.setattr(special, "SINC_SQ_TOL", 1e-30)
    with pytest.raises(QuadratureError, match="did not converge"):
        sinc_sq_integral(0.0, 50.0)


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


def test_fubini_reports_a_square_past_its_panel_cap():
    # at R = 1e6 an alpha-first outer cut over all of [0, R] needed more than MAX_PANELS
    # panels; with the head Si(R) closed, both orders integrate only the layer on
    # [0, 745/R] and converge to mpmath's value (Si(R) minus the layer integral at 30
    # digits, as in test_special_mpmath.py)
    for order in special._FUBINI_ORDERS:
        res = fubini_square(1e6, order)
        assert res.converged and abs(res.value - 1.57079439004311908) <= special.FUBINI_TOL


@pytest.mark.parametrize("R", [1e20, 1e300])
def test_fubini_x_first_keeps_the_tail_at_a_huge_square(R):
    # without edges past 1 the first cut's panels there widen to ~5e14 at R = 1e20, and
    # one that misses the 1/(1 + a^2) tail at its left end reads ~0 in K15 and G7 alike
    res = fubini_square(R, "x_first")
    assert res.converged and abs(res.value - math.atan(R)) <= 1e-9


def test_fubini_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for order, (head, layer) in special._FUBINI_ORDERS.items():
            for R in (1e-300, 1e-3, 1.0, 50.0, 1e3, 1e308):
                head(R)
                # the layer's nodes lie in [0, min(R, 745/R)]
                layer(R, min(R, 745.0 / R) * np.array([0.0, 1e-300, 1e-8, 0.3, 1.0]))
                assert fubini_square(R, order).converged


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


def test_si_half_pi_roots_come_one_per_half_period():
    roots = si_half_pi_roots(5000.0)
    assert np.array_equal(np.floor(roots / math.pi), np.arange(roots.size))
    assert roots[-1] <= 5000.0 < si_half_pi_roots(5000.0 + math.pi)[-1]
    assert abs(roots[0] - 1.9264476603173706) <= 1e-15
    assert np.max(np.abs(si(roots) - math.pi / 2)) <= 1e-15
    assert si_half_pi_roots(1.9).size == 0 and si_half_pi_roots(1.93).size == 1


def test_si_half_pi_roots_raise_when_newton_misses(monkeypatch):
    # a derivative ten times too large leaves Newton far short of the roots
    monkeypatch.setattr(special, "sinc", lambda t: 10.0 * np.sinc(np.asarray(t) / math.pi))
    with pytest.raises(ArithmeticError):
        si_half_pi_roots(100.0)
