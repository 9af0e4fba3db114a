"""Pairing, the split identity, decay fits, and limit extrapolation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deltakit import (QuadResult, QuadratureError, TestFunction, adaptive_quad,
                      bump, difference_quotient, extrapolate_limit, lorentz_delta,
                      pair, pair_lorentz, pair_lorentz_ladder, pair_sinc, pair_split,
                      sinc_delta, sinc_step, sine_decay_fit)
from deltakit import pairing
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


def _one_width_quad(eps, f, tol=1e-10):
    """A Lorentz pairing as its own adaptive_quad: cut at 0 and at +-eps 2^k in the support."""
    reach = max(abs(f.support.lo), abs(f.support.hi))
    edges = [0.0]
    scale = eps
    while scale < reach:
        edges.extend((scale, -scale))
        scale *= 2.0
    return adaptive_quad(lambda x: lorentz_delta(eps, x) * f(x), f.support.lo, f.support.hi,
                         tol=tol, max_panel=0.5, breakpoints=edges)


@pytest.mark.parametrize("shift", [0.0, 1.5, 3.0], ids=["plateau", "transition", "off"])
@pytest.mark.parametrize("eps_list", [
    [0.2, 0.03, 4e-3],
    # 7.5 is wider than every shifted support's reach: no dyadic edges
    [7.5, 3.0, 0.5, 0.11, 0.021, 4e-3, 8.7e-4, 1.3e-4, 2.2e-5, 1e-5],
], ids=["3", "10"])
def test_lorentz_ladder_equals_one_width_pairings(eps_list, shift):
    f = bump(-2.1, -1.2, 1.1, 1.9).shifted(shift)
    ladder = pair_lorentz_ladder(eps_list, f)
    assert len(ladder) == len(eps_list)
    assert ladder == [pair_lorentz(eps, f) for eps in eps_list]
    assert ladder == [_one_width_quad(eps, f) for eps in eps_list]
    # a tighter tol takes more rounds, still row for row
    tight = pair_lorentz_ladder(eps_list, f, tol=1e-15)
    assert tight == [_one_width_quad(eps, f, tol=1e-15) for eps in eps_list]


def test_lorentz_ladder_rejects_a_bad_width():
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be a finite positive number"):
            pair_lorentz_ladder([0.1, bad, 1e-3], make_bump())
    assert pair_lorentz_ladder([], make_bump()) == []


class _Unevaluated:
    """A support whose test function raises if it is evaluated."""

    def __init__(self, support):
        self.support = support

    def __call__(self, x):
        raise AssertionError("f was evaluated")


def test_kernels_that_overflow_are_rejected_before_any_quadrature():
    f = _Unevaluated(make_bump().support)
    # the Kronrod weights sum to 2, so a panel sum of the peak 1/(pi eps) is inf once
    # 2/(pi eps) is, below eps ~ 3.54e-309
    with pytest.raises(ValueError, match=r"eps = 3.28e-309: .* 2/\(pi eps\) overflows"):
        pair_lorentz_ladder([1e-300, 3.28e-309], f)
    # the nodes r x overflow on [-2, 2] once r M = 2 r does, in all three sine pairings
    for call in (lambda: pair_sinc(1e308, f), lambda: pair_split(1e308, f),
                 lambda: sine_decay_fit(f, (-2.0, 2.0), [1e307, 1e308])):
        with pytest.raises(ValueError, match=r"^r = 1e\+308: the kernel's nodes r x overflow"):
            call()


def test_the_narrowest_width_whose_peak_sums_converges():
    res = pair_lorentz(3.55e-309, make_bump())
    assert res.converged and abs(res.value - 1.0) <= 1e-14


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


def test_split_raises_when_its_integral_does_not_converge():
    # at r = 1e6 the integral of g(x) sin(r x) stops at MAX_PANELS, unconverged
    with pytest.raises(QuadratureError, match=r"pair_split: the integral at r = 1e\+06 did not"):
        pair_split(1e6, make_bump())


def test_split_limits():
    f = make_bump()
    t1, t2 = pair_split(800.0, f)
    assert abs(t2 - f(0.0)) <= 1e-3   # delta-defining part
    assert abs(t1) <= 1e-3            # oscillatory remainder


def _line(slope):
    """slope * x on [-1, 1], given by its jet (sine_decay_fit reads g' off it)."""
    def jet(x, order):
        x = np.asarray(x, dtype=float)
        return [slope * x, np.full(x.shape, slope)][:order + 1] + [np.zeros(x.shape)] * (order - 1)
    return TestFunction((-1.0, 1.0), jet=jet)


def test_sine_decay_zero_function():
    fit = sine_decay_fit(_line(0.0), (-1.0, 1.0), [10.0, 20.0, 40.0])
    assert all(v == 0.0 for _, v in fit.samples)
    assert fit.n_excluded == 3
    assert math.isnan(fit.fitted_exponent)


def test_sine_decay_linear_oracle():
    fit = sine_decay_fit(_line(1.0), (-1.0, 1.0), [5.0, 10.0, 20.0])
    r, value = fit.samples[1]
    assert r == 10.0
    assert_allclose(value, I_10_LINEAR, atol=1e-10, rtol=0)


def test_sine_decay_difference_quotient_rate():
    g = difference_quotient(make_bump())
    rs = np.geomspace(10.0, 1e4, 13)
    fit = sine_decay_fit(g, (-2.0, 2.0), rs)
    assert fit.fitted_exponent <= -0.8
    assert fit.n_excluded == 0


@pytest.mark.parametrize("f", [make_bump(), bump(-1.0, -0.95, 0.95, 1.0).shifted(0.975)],
                         ids=["default bump", "narrow shifted bump"])
def test_sine_decay_samples_are_rows_of_one_quadrature(monkeypatch, f):
    # every r is a row of one _quad_rows call, cut first into half-period panels, and
    # its sample is the one adaptive_quad call for that r, bit for bit
    g = difference_quotient(f)
    lo, hi = f.support.lo, f.support.hi
    rs = np.geomspace(10.0, 1e4, 13).tolist()
    rows = []
    real = pairing._quad_rows

    def counted(*args, **kwargs):
        rows.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "_quad_rows", counted)
    fit = sine_decay_fit(g, (lo, hi), rs)
    assert rows == [len(rs)]
    for (r, value), want_r in zip(fit.samples, rs):
        want = adaptive_quad(lambda x: np.asarray(g(x), dtype=float) * np.sin(want_r * x), lo,
                             hi, tol=pairing.SINE_DECAY_TOL, max_panel=half_period_cap(want_r))
        assert r == want_r and value.hex() == want.value.hex()


def test_sine_decay_raises_when_an_integral_does_not_converge(monkeypatch):
    real_rows, real_quad = pairing._quad_rows, pairing.adaptive_quad

    def unconverged_rows(*args, **kwargs):  # the samples: rows of one _quad_rows call
        return [dataclasses.replace(r, converged=False) for r in real_rows(*args, **kwargs)]

    def unconverged_quad(*args, **kwargs):  # the bound integral: one adaptive_quad call
        return dataclasses.replace(real_quad(*args, **kwargs), converged=False)

    g = difference_quotient(make_bump())
    monkeypatch.setattr(pairing, "_quad_rows", unconverged_rows)
    with pytest.raises(QuadratureError, match="integral at r = 10 did not converge"):
        sine_decay_fit(g, (-2.0, 2.0), [10.0, 20.0])
    monkeypatch.setattr(pairing, "_quad_rows", real_rows)
    monkeypatch.setattr(pairing, "adaptive_quad", unconverged_quad)
    with pytest.raises(QuadratureError, match=r"bound integral of \|g'\| did not converge"):
        sine_decay_fit(g, (-2.0, 2.0), [10.0, 20.0])


@pytest.mark.parametrize("f", [bump(-1.0, -0.95, 0.95, 1.0).shifted(0.975),
                               bump(-0.01, 0.01, 1.0, 1.02)],
                         ids=["narrow shifted bump", "narrow left transition"])
def test_sine_decay_bound_integral_sees_narrow_transitions(monkeypatch, f):
    # the bound integral starts from the largest r's half-period cut: as one uncut
    # panel it missed the 0.05- and 0.02-wide transitions, read about 3e-38 and
    # 2e-68, and the samples then raised ArithmeticError; integral |f'| is 2
    bounds = []
    real = pairing.adaptive_quad

    def recorded(*args, **kwargs):
        bounds.append(real(*args, **kwargs))
        return bounds[-1]

    monkeypatch.setattr(pairing, "adaptive_quad", recorded)
    fit = sine_decay_fit(f, (f.support.lo, f.support.hi), [10.0, 100.0])
    (bound,) = bounds
    assert bound.converged and abs(bound.value - 2.0) <= 1e-8
    assert all(abs(v) <= 2.0 / r for r, v in fit.samples)
    assert math.isfinite(fit.fitted_exponent) and fit.n_excluded == 0


def test_sine_decay_raises_when_its_samples_break_the_parts_bound():
    # a jet that reports g' = 0 under values sin(10 x): the bound C/r holds only
    # |g(1)| + |g(-1)| = 2 |sin 10|, and I(10) = 1 - sin(20)/20 exceeds C/10
    def jet(x, order):
        x = np.asarray(x, dtype=float)
        return [np.sin(10.0 * x)] + [np.zeros(x.shape)] * order

    with pytest.raises(ArithmeticError, match=r"\|I\(10.0\)\| = 9\.5..e-01 exceeds the "
                                              r"integration-by-parts bound 1\.088e-01"):
        sine_decay_fit(TestFunction((-1.0, 1.0), jet=jet), (-1.0, 1.0), [10.0, 20.0])


def test_sine_decay_validation():
    with pytest.raises(ValueError):
        sine_decay_fit(lambda x: x, (-1.0, 1.0), [10.0])
    with pytest.raises(ValueError):
        sine_decay_fit(lambda x: x, (-1.0, 1.0), [10.0, 5.0])


@pytest.mark.parametrize("rs", [[0.0, 10.0], [-10.0, 10.0], [math.nan, 10.0], [10.0, math.inf]])
def test_sine_decay_rejects_a_non_positive_r(rs):
    def g(x):
        raise AssertionError("g was evaluated")

    with pytest.raises(ValueError, match="r must be"):
        sine_decay_fit(g, (-1.0, 1.0), rs)


def test_pair_lorentz_convergence():
    f = make_bump()
    res = pair_lorentz(1e-3, f)
    assert abs(res.value - 1.0) <= 5e-3
    far = bump(1.0, 1.25, 1.75, 2.0)
    assert abs(pair_lorentz(1e-3, far).value) <= 1e-2


SMALL_WIDTH_BUMPS = [make_bump(), bump(-2.1, -1.2, 1.1, 1.9).shifted(0.3), make_bump().shifted(1.5)]


@pytest.mark.parametrize("f", SMALL_WIDTH_BUMPS, ids=["default", "asymmetric", "shifted"])
def test_lorentz_ladder_converges_at_small_widths(f):
    # panels at 0 split down to any width (the splittable width is relative to the
    # panel's abscissae), and the kernel, scaled to eps, does not underflow
    rows = pair_lorentz_ladder([1e-15, 1e-20, 1e-100, 1e-150, 1e-200, 1e-300], f)
    f0 = float(f(0.0))
    assert all(r.converged and abs(r.value - f0) <= 1e-15 for r in rows)


@pytest.mark.parametrize("f", SMALL_WIDTH_BUMPS, ids=["default", "asymmetric", "shifted"])
def test_lorentz_widths_down_to_1e_307_converge_within_their_majorant(f):
    # 100 log-uniform widths in [1e-307, 1e-1], one ladder: every row converges, no
    # farther from f(0) than its tol plus lemma 5's majorant
    # (S eps/pi) ln(1 + M^2/eps^2) + |2 atan(M/eps)/pi - 1| |f(0)|, its logarithm
    # taken as 2 ln(M/eps) + log1p((eps/M)^2), which does not overflow
    eps = np.sort(10.0 ** np.random.default_rng(1).uniform(-307.0, -1.0, 100))
    f0 = float(f(0.0))
    M = max(abs(f.support.lo), abs(f.support.hi))
    S = float(np.max(np.abs(difference_quotient(f)(np.linspace(-M, M, 2001)))))
    for e, res in zip(eps.tolist(), pair_lorentz_ladder(eps, f)):
        ln = 2.0 * math.log(M / e) + math.log1p((e / M) ** 2)
        majorant = S * e / math.pi * ln + abs(2.0 * math.atan(M / e) / math.pi - 1.0) * abs(f0)
        assert res.converged and abs(res.value - f0) <= PAIR_TOL + majorant


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
    with pytest.raises(ValueError, match="samples must be finite"):
        extrapolate_limit([(1.0, 0.0), (2.0, math.nan), (3.0, 0.0)])
    for params in ((0.0, 0.1, 0.2), (-0.1, 0.1, 0.2)):
        with pytest.raises(ValueError, match="log_corrected mode requires positive params"):
            extrapolate_limit([(p, 1.0) for p in params], mode="log_corrected")
    # finite regressors, but 1 and 1/p (or p ln(1/p)) are too far apart in scale for rank 2
    for mode in ("inverse_param", "log_corrected"):
        with pytest.raises(ValueError, match="singular fit matrix"):
            extrapolate_limit([(1e-300, 1.0), (2e-300, 1.0), (3e-300, 1.0)], mode=mode)


def test_extrapolate_inverse_param_rejects_a_zero_param(capfd):
    # 1/param is infinite there; the fit must refuse before LAPACK sees it
    for params in ((0.0, 1.0, 2.0), (-1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="nonzero"):
            extrapolate_limit([(p, 1.0) for p in params])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("mode, params", [
    ("inverse_param", (1e-310, 1e-309, 1e-308)),  # 1/p overflows
    ("log_corrected", (1e306, 1e305, 1e304)),  # p ln(1/p) overflows
])
def test_extrapolate_refuses_a_regressor_that_overflows(capfd, mode, params):
    # refused before LAPACK sees it, which would print to fd 1, and with no RuntimeWarning
    with pytest.raises(ValueError, match=f"the {mode} regressor overflows"):
        extrapolate_limit([(p, 1.0) for p in params], mode=mode)
    assert capfd.readouterr() == ("", "")


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
