"""si against mpmath's sine integral at 30 digits.

Kept apart from test_special.py so that the rest of the si tests collect
where mpmath is not installed; this module is skipped there.
"""

import math

import numpy as np
import pytest
from _si_grid import si_grid

from deltakit import si
from deltakit.families import lorentz_delta_prime, sinc_delta_prime
from deltakit.special import sinc_prime

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



# sinc_prime takes its series below |t| = 1e-2 and the closed form
# (cos t - sinc t)/t from there on
_SWITCH = 1e-2
_NEAR_SWITCH = [0.0] + [s * t for s in (1.0, -1.0)
                        for t in (math.nextafter(_SWITCH, 0.0), _SWITCH,
                                  math.nextafter(_SWITCH, 1.0))]


def _mp_diff(fn, x):
    with mpmath.workdps(40):
        return float(mpmath.diff(fn, mpmath.mpf(x)))


def test_sinc_derivatives_match_mpmath_across_the_series_switch():
    # 2e-14 is the closed form's cancellation bound ulp(1)/t at the switch; a
    # dropped series term would be off by t^5/840 = 1.2e-13 there
    for t in _NEAR_SWITCH:
        assert abs(sinc_prime(t) - _mp_diff(mpmath.sinc, t)) <= 2e-14, t
    for r in (1.0, 7.0):
        kernel = lambda y: r / mpmath.pi * mpmath.sinc(r * y)
        for t in _NEAR_SWITCH:
            err = abs(sinc_delta_prime(r, t / r) - _mp_diff(kernel, t / r))
            assert err <= 2e-14 * r * r / math.pi, (r, t)


def test_lorentz_delta_prime_matches_mpmath():
    for n in (1.0, 100.0):
        kernel = lambda y: n / (mpmath.pi * (1 + (n * y) ** 2))
        for t in _NEAR_SWITCH + [0.3, -2.5, 7.0]:
            want = _mp_diff(kernel, t / n)
            assert abs(lorentz_delta_prime(n, t / n) - want) <= 1e-15 * abs(want), (n, t)
