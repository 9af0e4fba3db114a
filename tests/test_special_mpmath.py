"""si, sinc's derivatives, the kink error E, fubini_square and the Lorentz kink against
mpmath at 20 to 50 digits.

Kept apart from test_special.py so that the rest of the si tests collect
where mpmath is not installed; this module is skipped there.
"""

import math

import numpy as np
import pytest
from _si_grid import si_grid

from deltakit import fubini_square, si, sinc_kink
from deltakit.certify import _kink_sups
from deltakit.families import lorentz_delta_prime, lorentz_kink, sinc_delta_prime
from deltakit.special import _FUBINI_ORDERS, sinc, sinc_prime

mpmath = pytest.importorskip("mpmath")


def _mp_si(xs):
    with mpmath.workdps(30):
        return np.array([float(mpmath.si(mpmath.mpf(float(x)))) for x in xs])


def test_si_matches_mpmath_on_the_grid():
    xs = si_grid()
    err = np.abs(si(xs) - _mp_si(xs))
    assert err.max() <= 2e-15, (xs[err.argmax()], err.max())


def test_si_matches_mpmath_past_the_switch():
    # the asymptotic pair: at most ~5e-16 just past 100, O(x^-11) beyond
    xs = np.concatenate([np.linspace(100.0, 200.0, 401)[1:], np.geomspace(200.0, 1e12, 200)])
    err = np.abs(si(xs) - _mp_si(xs))
    assert err.max() <= 2e-15, (xs[err.argmax()], err.max())


@pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-16, 1e-12, 0.01, 0.06])
def test_si_error_is_relative_near_zero(x):
    # Si(x) ~ x: below 1/16 the Maclaurin series keeps a relative error at
    # rounding, where the Chebyshev piece on [0, pi] read 0.0 at 1e-20 and
    # 3.4 times the true value at 1e-16
    with mpmath.workdps(40):
        want = mpmath.si(mpmath.mpf(x))
        for v in (x, -x):
            assert abs((mpmath.mpf(si(v)) - math.copysign(1, v) * want) / want) <= 2.2e-16


# sinc_prime sums its series below |t| = 1 and takes the closed form
# (cos t - sinc t)/t from there on; 1e-2 was the switch before
_SWITCHES = (1.0, 1e-2)
_NEAR_SWITCH = [0.0] + [s * t for s in (1.0, -1.0) for switch in _SWITCHES
                        for t in (math.nextafter(switch, 0.0), switch,
                                  math.nextafter(switch, 2.0))]
_SWEEP = np.concatenate([np.linspace(0.0, 4.0, 801), _NEAR_SWITCH,
                         np.linspace(0.9, 1.1, 41), [0.010331]])


def _mp_diff(fn, x):
    with mpmath.workdps(40):
        return float(mpmath.diff(fn, mpmath.mpf(x)))


def test_sinc_derivatives_match_mpmath_across_the_series_switch():
    # both sides of the switch stay at rounding: the closed form cancelled
    # to 1.8e-14 just above the old switch 1e-2, and without its t^15 term
    # the series would be off by 16/17! = 4.5e-14 at the switch
    err = np.array([abs(sinc_prime(t) - _mp_diff(mpmath.sinc, t)) for t in _SWEEP])
    assert err.max() <= 1e-15, (_SWEEP[err.argmax()], err.max())
    for r in (1.0, 7.0):
        kernel = lambda y: r / mpmath.pi * mpmath.sinc(r * y)
        for t in _NEAR_SWITCH:
            err = abs(sinc_delta_prime(r, t / r) - _mp_diff(kernel, t / r))
            assert err <= 1e-15 * r * r / math.pi, (r, t)


def test_lorentz_delta_prime_matches_mpmath():
    for n in (1.0, 100.0):
        kernel = lambda y: n / (mpmath.pi * (1 + (n * y) ** 2))
        for t in _NEAR_SWITCH + [0.3, -2.5, 7.0]:
            want = _mp_diff(kernel, t / n)
            assert abs(lorentz_delta_prime(n, t / n) - want) <= 1e-15 * abs(want), (n, t)


def _iv_si(x):
    """Interval enclosure of Si(x) for a float 0 < x <= 2 from its Taylor series.

    The terms x^(2k+1)/((2k+1) (2k+1)!) alternate and decrease for x <= 2, so
    the first omitted term bounds the remainder.
    """
    iv = mpmath.iv
    x = iv.mpf(x)
    total, term = iv.mpf(0), x  # term = x^(2k+1)/(2k+1)!
    for k in range(30):
        total += (-1) ** k * term / (2 * k + 1)
        term = term * x * x / ((2 * k + 2) * (2 * k + 3))
    return total + iv.mpf([-1, 1]) * term / 61


def test_first_root_and_the_kink_sup_are_enclosed():
    from deltakit.special import si_half_pi_roots

    iv = mpmath.iv
    u1 = float(si_half_pi_roots(2.0)[0])
    lo, hi = u1 - 8 * np.spacing(u1), u1 + 8 * np.spacing(u1)
    dps, iv.dps = iv.dps, 40
    try:
        half_pi = iv.pi / 2
        # Si increases on (0, pi): the root of Si = pi/2 lies in [lo, hi]
        assert (_iv_si(lo) - half_pi).b < 0 < (_iv_si(hi) - half_pi).a
        # there Si = pi/2, so |E(u_1)| = (1 - cos u_1)/pi
        peak = (1 - iv.cos(iv.mpf([lo, hi]))) / iv.pi
    finally:
        iv.dps = dps
    assert float(peak.b) - float(peak.a) <= 2e-15
    # n = 1: the sup over [-5, 5] is |E(u_1)|; rounding stays uncovered
    sup = _kink_sups()[0]
    assert float(peak.a) - 1e-15 <= sup <= float(peak.b) + 1e-15


def _mp_kink_error(u):
    """E(u) = sinc_kink(1, u) - |u|/2 = (u/pi) Si(u) - (1 - cos u)/pi - u/2, for u > 0."""
    return u / mpmath.pi * mpmath.si(u) - (1 - mpmath.cos(u)) / mpmath.pi - u / 2


def test_kink_error_at_the_roots_on_0_to_5_matches_mpmath():
    every_n = _kink_sups()[1]
    with mpmath.workdps(30):
        # mpmath's own roots of Si = pi/2, one per half-period below 5
        roots = [mpmath.findroot(lambda u: mpmath.si(u) - mpmath.pi / 2, g) for g in (2, 4.9)]
        want = [abs(float(_mp_kink_error(u))) for u in roots]
    u = np.array(every_n["roots"])
    assert np.max(np.abs(u - [float(r) for r in roots])) <= 1e-15
    got = np.abs(sinc_kink(1.0, u) - 0.5 * u)
    assert np.max(np.abs(got - want)) <= 1e-15, (got, want)
    assert every_n["sup"] == got[0] and abs(every_n["sup"] - want[0]) <= 1e-15


def test_kink_error_past_5_obeys_the_closed_tail():
    # |E(u) + 1/pi| <= (1/u + 2/u^2)/pi, so |E| <= (1 + 1/5 + 2/25)/pi past 5: below |E(u_1)|
    us = np.geomspace(5.0, 1e6, 400)
    with mpmath.workdps(40):
        gaps = [float(abs(_mp_kink_error(mpmath.mpf(u)) + 1 / mpmath.pi)) for u in us]
    assert np.all(np.array(gaps) <= (1.0 / us + 2.0 / us**2) / math.pi)
    every_n = _kink_sups()[1]
    assert abs(every_n["tail_bound"] - 0.40744) <= 1e-5 and every_n["tail_bound"] < every_n["sup"]


def test_a_constant_below_the_kink_sup_fails_the_verdict_for_every_n():
    # S = |E(u_1)| = 0.4291457 (mpmath): a bound 0.42/n fails at u_1 ~ 1.9264 for every n,
    # since the sup at n is S/n; 2/(pi n) holds
    every_n = _kink_sups()[1]
    with mpmath.workdps(30):
        u1 = mpmath.findroot(lambda u: mpmath.si(u) - mpmath.pi / 2, 2)
        assert 0.42 < abs(_mp_kink_error(u1)) < 2 / mpmath.pi
    assert every_n["premise"] and abs(every_n["argmax"] - 1.9264) < 1e-4
    assert 0.42 < every_n["sup"] <= 2 / math.pi


def _mp_inner(order, R, t):
    """mpmath's quad of exp(-a*x)*sin(x) over the inner variable's [0, R] at the
    outer node t, on dyadic panels in 1/t and, where it oscillates, pi wide."""
    with mpmath.workdps(20):
        t, R = mpmath.mpf(t), mpmath.mpf(R)
        reach = min(R, 80 / t) if t > 0 else R  # e^(-80) is below the tolerance
        if order == "x_first":
            f = lambda x: mpmath.exp(-t * x) * mpmath.sin(x)
            pts = [k * mpmath.pi for k in range(int(reach / mpmath.pi) + 1)]
        else:
            f = lambda a: mpmath.exp(-a * t) * mpmath.sin(t)
            pts = [0]
        pts += [mpmath.ldexp(1, k) / max(t, 1) for k in range(-4, 12)]
        return mpmath.quad(f, sorted({p for p in pts if p < reach} | {reach}),
                           method="gauss-legendre")


@pytest.mark.parametrize("order", ["x_first", "alpha_first"])
@pytest.mark.parametrize("R", [1.0, 50.0, 1e3])
def test_fubini_inner_integrals_match_mpmath(order, R):
    # scipy's quad misreads the peak of width 1e-3 at the node 1e3; the inner integral is
    # the 1 term, whose outer integral the head closes, minus the layer
    one = {"x_first": lambda a: 1.0 / (1.0 + a * a), "alpha_first": sinc}[order]
    layer = _FUBINI_ORDERS[order][1]
    for t in (0.0, 1e-300, 1e-8, 0.3, 5.0, 1e3):
        assert abs(one(t) - layer(R, t) - _mp_inner(order, R, t)) <= 1e-15, t


def _mp_fubini(R):
    """The square's integral, Si(R) - integral of sin(x) e^(-Rx)/x over [0, R]."""
    with mpmath.workdps(30):
        R = mpmath.mpf(R)
        layer = mpmath.quad(lambda x: mpmath.sin(x) * mpmath.exp(-R * x) / x,
                            [0, 1 / R, 10 / R, 100 / R, R])
        return float(mpmath.si(R) - layer)


@pytest.mark.parametrize("order", ["x_first", "alpha_first"])
@pytest.mark.parametrize("R", [1e4, 1e5])
def test_fubini_resolves_the_layer_at_zero(order, R):
    # both closed inner integrals change on the scale 1/R at 0; cut only at
    # the outer panel cap, the outer integral missed that layer by about 1e-4 at
    # R = 1e4 and still reported converged
    res = fubini_square(R, order)
    assert res.converged and abs(res.value - _mp_fubini(R)) <= 1e-9


@pytest.mark.parametrize("order", ["x_first", "alpha_first"])
@pytest.mark.parametrize("R", [1e6, 1e20, 1e300, 1e308])
def test_fubini_at_a_huge_square_integrates_only_its_layer(order, R):
    # the heads arctan R and Si(R) are closed, and the layer lives on [0, 745/R]: the
    # whole outer [0, R] once took more than MAX_PANELS panels from R ~ 1e6
    res = fubini_square(R, order)
    assert res.converged and res.panels_used <= 16
    assert abs(res.value - _mp_fubini(R)) <= 1e-15


@pytest.mark.parametrize("n, x", [(1e200, 5.0), (1.0, 1e300), (1.0, -1e300), (1e150, 1e10)])
def test_lorentz_kink_where_its_square_overflows_matches_mpmath(n, x):
    # (n x)^2 overflows past |n x| ~ 1.3e154, where ln(1 + (n x)^2) is 2 ln|n x|;
    # the suite turns a RuntimeWarning into an error
    with mpmath.workdps(50):
        n_mp, x_mp = mpmath.mpf(n), mpmath.mpf(x)
        want = (x_mp * mpmath.atan(n_mp * x_mp) / mpmath.pi
                - mpmath.log1p((n_mp * x_mp) ** 2) / (2 * mpmath.pi * n_mp))
        assert abs((mpmath.mpf(lorentz_kink(n, x)) - want) / want) <= 1e-15
    got = lorentz_kink(n, np.array([x, 0.0, 1e-3]))
    assert got[0] == lorentz_kink(n, x) and got[1] == 0.0 and np.isfinite(got[2])
