"""Taylor jets of bumps, steps and difference quotients against mpmath.

Kept apart from test_testfn.py so that the rest of the bump tests collect
where mpmath is not installed; this module is skipped there.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltakit import bump, derivative, difference_quotient, smooth_step_down, smooth_step_up

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


# (knots, shift, scale): the origin in a transition, 0.02 from a knot on either
# side, in a narrow and a wide transition, and on a plateau near a transition.
# The last four put the origin in transitions 0.05, 0.02 and 0.01 wide, where f
# changes on a scale near width^2 / 8, far below the switch. Those 0.02 and 0.01
# wide are unshifted: a shift by x0 moves f's argument by eps |x0|, which moves
# such a transition's log-ratio by up to 8 eps |x0| / width^2, so f itself, and
# any quotient of it, is then off by more than these tolerances.
QUOTIENT_CASES = [
    ((-2.1, -1.2, 1.1, 1.9), 1.5, 1.0),
    ((-0.5, -0.3, 0.3, 0.5), 0.4, 1.0),
    ((-1.0, -0.9, 0.9, 1.0), 0.95, 1.0),
    ((-2.0, -1.0, 1.0, 2.0), -1.02, 1.0),
    ((-2.0, -1.0, 1.0, 2.0), 1.02, 1.0),
    ((-2.0, -1.0, 1.0, 2.0), 0.98, 1.0),
    ((-3.0, -0.5, 0.5, 3.0), 2.0, 1.0),
    ((-1.7, -0.45, 0.3, 2.1), 0.37, -2.5),
    ((-1.0, -0.95, 0.95, 1.0), 0.975, 1.0),
    ((-0.01, 0.01, 1.0, 1.02), 0.0, 1.0),
    ((-0.0099, 0.0101, 1.0, 1.02), 0.0, 1.0),
    ((-0.00502, 0.00498, 1.0, 1.01), 0.0, -3.0),
]


@pytest.mark.parametrize("knots, x0, c", QUOTIENT_CASES)
def test_difference_quotient_jet_matches_mpmath(knots, x0, c):
    # g = (f(x) - f(0))/x and g' = (x f'(x) - f(x) + f(0))/x^2 at 50 digits, with
    # g(0) = f'(0) and g'(0) = f''(0)/2; both sides of the switch are probed
    f = bump(*knots).shifted(x0).scaled(c)
    g = difference_quotient(f)
    base = _mp_bump(*knots)
    pos = np.geomspace(1e-9, 0.1 * f.support.width, 30)
    xs = np.concatenate([[0.0], pos, -pos])
    with mpmath.workdps(50):
        fm = lambda x: c * base(x - mpmath.mpf(x0))
        f0 = fm(mpmath.mpf(0))
        ref = [[mpmath.diff(fm, 0, 1), mpmath.diff(fm, 0, 2) / 2]]
        for x in map(mpmath.mpf, xs[1:]):
            dif = fm(x) - f0
            ref.append([dif / x, (x * mpmath.diff(fm, x, 1) - dif) / (x * x)])
    ref = np.array(ref, dtype=float).T
    jet = g.jet(xs, 1)
    for order, tol in ((0, 2e-14), (1, 1e-12)):
        scale = max(1.0, np.max(np.abs(ref[order])))
        assert np.max(np.abs(jet[order] - ref[order])) <= tol * scale, order
