"""Pairing, the split identity, decay fits, and limit extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deltakit import (QuadResult, QuadratureError, TestFunction, adaptive_quad,
                      bump, difference_quotient, extrapolate_limit, lorentz_delta,
                      pair, pair_lorentz, pair_sinc, pair_split, sinc_delta,
                      sinc_step, sine_decay_fit)
from deltakit.pairing import PAIR_TOL
from deltakit.quadrature import half_period_cap

# closed-form oracle: int_{-1}^{1} x sin(10 x) dx = 2 (sin 10 - 10 cos 10)/100
I_10_LINEAR = 0.15693388359750307


def make_bump():
    return bump(-2.0, -1.0, 1.0, 2.0)


def test_pair_zero_function():
    f = make_bump()
    res = pair(lambda x: np.zeros_like(np.asarray(x, dtype=float)), f)
    assert res.value == 0.0


def test_pair_constant_one():
    f = make_bump()
    res = pair(lambda x: np.ones_like(np.asarray(x, dtype=float)), f)
    # plateau contributes exactly 2; each symmetric ramp contributes 1/2
    assert 2.0 < res.value < 4.0
    assert_allclose(res.value, 3.0, atol=1e-9, rtol=0)


def test_pair_nonfinite_phi_raises():
    f = make_bump()
    with pytest.raises(QuadratureError):
        pair(lambda x: 1.0 / np.asarray(x, dtype=float), f)


def test_pair_sinc_concentrates_at_zero():
    f = make_bump()
    res = pair_sinc(500.0, f)
    assert abs(res.value - 1.0) <= 2e-2


def test_pairings_return_their_quadratures_result():
    # each pairing is one adaptive_quad over f's support, returned whole
    f = make_bump()
    r, eps = 50.0, 1e-2
    edges = [0.0] + [s * eps * 2.0 ** k for k in range(8) for s in (1.0, -1.0)]
    cases = [
        (pair(np.cos, f, tol=1e-8),
         adaptive_quad(lambda x: np.cos(x) * f(x), -2.0, 2.0, tol=1e-8)),
        (pair_sinc(r, f),
         adaptive_quad(lambda x: sinc_delta(r, x) * f(x), -2.0, 2.0, tol=PAIR_TOL,
                       max_panel=half_period_cap(r))),
        (pair_lorentz(eps, f),
         adaptive_quad(lambda x: lorentz_delta(eps, x) * f(x), -2.0, 2.0, tol=1e-10,
                       max_panel=0.5, breakpoints=edges)),
    ]
    for got, want in cases:
        assert isinstance(got, QuadResult)
        assert got == want and got.converged


def test_pair_sinc_away_from_origin():
    far = bump(1.0, 1.25, 1.75, 2.0)
    res = pair_sinc(500.0, far)
    assert abs(res.value) <= 1e-2


def test_pair_sinc_equals_cos_kernel_pairing():
    # parity: the complex kernel's real (cosine) part carries the whole integral
    from _oracles import cos_kernel_oracle
    f = make_bump()
    direct = pair_sinc(10.0, f)
    # the oracle keeps its input's shape, so the whole node array goes through one call
    via_cos = pair(np.vectorize(lambda t: cos_kernel_oracle(10.0, t), otypes=[float]),
                   f, max_panel=math.pi / 10.0)
    assert abs(direct.value - via_cos.value) <= 1e-8


def test_split_identity():
    f = make_bump()
    for r in (5.0, 20.0, 100.0):
        t1, t2 = pair_split(r, f)
        direct = pair_sinc(r, f)
        assert abs((t1 + t2) - direct.value) <= 1e-8


def test_split_limits():
    f = make_bump()
    t1, t2 = pair_split(800.0, f)
    assert abs(t2 - f(0.0)) <= 1e-3   # delta-defining part
    assert abs(t1) <= 1e-3            # oscillatory remainder


def test_sine_decay_zero_function():
    fit = sine_decay_fit(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                         (-1.0, 1.0), [10.0, 20.0, 40.0])
    assert all(v == 0.0 for _, v in fit.samples)
    assert fit.n_excluded == 3
    assert math.isnan(fit.fitted_exponent)


def test_sine_decay_linear_oracle():
    fit = sine_decay_fit(lambda x: np.asarray(x, dtype=float), (-1.0, 1.0),
                         [5.0, 10.0, 20.0])
    r, value = fit.samples[1]
    assert r == 10.0
    assert_allclose(value, I_10_LINEAR, atol=1e-10, rtol=0)


def test_sine_decay_difference_quotient_rate():
    g = difference_quotient(make_bump())
    rs = np.geomspace(10.0, 1e4, 13)
    fit = sine_decay_fit(g, (-2.0, 2.0), rs)
    assert fit.fitted_exponent <= -0.8
    assert fit.n_excluded == 0


def test_sine_decay_validation():
    with pytest.raises(ValueError):
        sine_decay_fit(lambda x: x, (-1.0, 1.0), [10.0])
    with pytest.raises(ValueError):
        sine_decay_fit(lambda x: x, (-1.0, 1.0), [10.0, 5.0])


def test_pair_lorentz_convergence():
    f = make_bump()
    res = pair_lorentz(1e-3, f)
    assert abs(res.value - 1.0) <= 5e-3
    far = bump(1.0, 1.25, 1.75, 2.0)
    assert abs(pair_lorentz(1e-3, far).value) <= 1e-2


def test_pair_lorentz_majorant():
    # |value - f(0)| <= (S eps/pi)(ln(M^2+eps^2) - ln eps^2) + |2 atan(M/eps)/pi - 1| |f(0)|
    f = make_bump()
    g = difference_quotient(f)
    M = 2.0
    xs = np.linspace(-M, M, 2001)
    S = float(np.max(np.abs(g(xs))))
    for eps in (1e-1, 1e-2, 1e-3):
        err = abs(pair_lorentz(eps, f).value - f(0.0))
        majorant = (S * eps / math.pi) * (math.log(M * M + eps * eps) - math.log(eps * eps)) \
            + abs(2.0 * math.atan(M / eps) / math.pi - 1.0) * abs(f(0.0))
        assert err <= majorant + 1e-10


def test_error_envelope_halves_when_param_doubles():
    # O(1/R) envelope: doubling the cutoff at least halves the pairing error
    f = make_bump()
    errs = [abs(pair_sinc(r, f).value - 1.0) for r in (50.0, 100.0, 200.0)]
    assert errs[1] <= 0.5 * errs[0]
    assert errs[2] <= 0.5 * errs[1]


def test_extrapolate_constant():
    assert extrapolate_limit([(1.0, 4.2), (2.0, 4.2), (3.0, 4.2)]) == pytest.approx(4.2)


def test_extrapolate_pair_sinc_limit():
    f = make_bump()
    samples = [(r, pair_sinc(r, f).value) for r in (100.0, 200.0, 400.0, 800.0)]
    assert abs(extrapolate_limit(samples) - 1.0) <= 1e-3


def test_extrapolate_step_values_on_integer_ladder():
    ns = np.arange(100.0, 801.0)
    samples = [(n, sinc_step(n, 1.0)) for n in ns]
    assert abs(extrapolate_limit(samples) - 0.5) <= 1e-4


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate_limit([(1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(ValueError):
        extrapolate_limit([(1.0, 0.0), (3.0, 0.0), (2.0, 0.0)])
    with pytest.raises(ValueError):
        extrapolate_limit([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], mode="quadratic")


def test_extrapolate_inverse_param_rejects_a_zero_param(capfd):
    # 1/param is infinite there; the fit must refuse before LAPACK sees it
    for params in ((0.0, 1.0, 2.0), (-1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="nonzero"):
            extrapolate_limit([(p, 1.0) for p in params])
    assert capfd.readouterr().err == ""


def test_extrapolate_log_corrected():
    # exact model values are recovered
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    values = 2.5 + 0.8 * eps * np.log(1.0 / eps)
    out = extrapolate_limit(list(zip(eps, values)), mode="log_corrected")
    assert_allclose(out, 2.5, atol=1e-12, rtol=0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_pair_linearity(a, b):
    f = make_bump()
    h = bump(-1.5, -0.5, 0.5, 1.5)
    combined = TestFunction((-2.0, 2.0), jet=lambda x, o: [a * u + b * v for u, v in
                                                          zip(f.jet(x, o), h.jet(x, o))])
    phi = lambda x: np.cos(np.asarray(x, dtype=float))
    lhs = pair(phi, combined)
    rhs_f = pair(phi, f)
    rhs_h = pair(phi, h)
    tol = lhs.abs_error_estimate + abs(a) * rhs_f.abs_error_estimate \
        + abs(b) * rhs_h.abs_error_estimate + 1e-12
    assert abs(lhs.value - (a * rhs_f.value + b * rhs_h.value)) <= tol
