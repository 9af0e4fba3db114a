"""Taylor-jet derivatives of bumps and steps against mpmath.diff at 40 digits.

Kept apart from test_testfn.py so that the rest of the bump tests collect
where mpmath is not installed; this module is skipped there.
"""

import pytest
from numpy.testing import assert_allclose

from deltakit import bump, derivative, smooth_step_down, smooth_step_up

mpmath = pytest.importorskip("mpmath")


# The oracles are written with mpmath, independently of deltakit.testfn.

def _mp_step(lo, hi, falling):
    def m(t):
        return mpmath.exp(-1 / t) if t > 0 else mpmath.mpf(0)

    def step(x):
        r, f = m(x - lo), m(hi - x)
        return (f if falling else r) / (r + f)

    return step


def _mp_bump(a, b, c, d):
    up, down = _mp_step(a, b, False), _mp_step(c, d, True)
    return lambda x: up(x) * down(x)


_MP_BUMP = _mp_bump(-2, -1, 1, 2)
JET_CASES = {
    "bump": (lambda: bump(-2.0, -1.0, 1.0, 2.0), _MP_BUMP, [(-2.0, -1.0), (1.0, 2.0)]),
    "shifted": (lambda: bump(-2.0, -1.0, 1.0, 2.0).shifted(0.375),
                lambda x: _MP_BUMP(x - mpmath.mpf("0.375")), [(-1.625, -0.625), (1.375, 2.375)]),
    "scaled": (lambda: bump(-2.0, -1.0, 1.0, 2.0).scaled(-1.5),
               lambda x: -1.5 * _MP_BUMP(x), [(-2.0, -1.0), (1.0, 2.0)]),
    "rising": (lambda: smooth_step_up(1.0, 2.0), _mp_step(1, 2, False), [(1.0, 2.0)]),
    "falling": (lambda: smooth_step_down(3.0, 4.0), _mp_step(3, 4, True), [(3.0, 4.0)]),
}


@pytest.mark.parametrize("name", sorted(JET_CASES))
def test_jet_derivatives_match_mpmath(name):
    make, oracle, transitions = JET_CASES[name]
    f = make()
    mpmath.mp.dps = 40
    for lo, hi in transitions:
        # inside each transition, away from the midpoint (where even orders vanish)
        for frac in (0.05, 0.3, 0.45, 0.7, 0.95):
            x = lo + frac * (hi - lo)
            for order in range(1, 5):
                ref = float(mpmath.diff(oracle, mpmath.mpf(x), order))
                assert_allclose(derivative(f, x, order), ref, rtol=1e-12, atol=0,
                                err_msg=f"{name} order {order} at x={x}")
