"""si against mpmath's sine integral at 30 digits.

Kept apart from test_special.py so that the rest of the si tests collect
where mpmath is not installed; this module is skipped there.
"""

import numpy as np
import pytest
from _si_grid import si_grid

from deltakit import si

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

