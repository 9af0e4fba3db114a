"""Smooth compactly supported test functions built from the exp(-1/x) mollifier.

Construction: one-sided mollifier -> smooth unit up/down steps -> bump that is
exactly 0 outside [alpha, delta] and exactly 1 on [beta, gamma]. Each of
them evaluates its truncated Taylor series (a "jet") by univariate Taylor
arithmetic: the series of -1/(t + s) gives the mollifier's jet through the
exp recurrence, and the step quotient follows the quotient rule (Griewank &
Walther, Evaluating Derivatives, ch. 13). Values and jets are computed only
at the points strictly inside a transition interval; at every other point a
step or bump is the exact constant 0 or 1 with higher coefficients 0. The
bump's two transitions are disjoint, so each point takes at most one step's
jet and the bump forms no product of jets. A TestFunction is given by its
jet alone, and derivative(f, x, k) reads f^(k)(x) off it, exact to rounding;
only plain callables get central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import EPS, as_float_array, maybe_scalar

__all__ = [
    "Interval",
    "TestFunction",
    "SmoothStep",
    "mollifier",
    "smooth_step_up",
    "smooth_step_down",
    "bump",
    "derivative",
    "difference_quotient",
    "DifferenceQuotient",
]

# exp(-1/x) underflows double precision for x < 1/745; returning an exact 0
# there avoids denormal noise. Consumers must keep tolerance test points at
# distance >= 0.01 from the knots.
MOLLIFIER_KNEE = 1.0 / 745.0

# Highest derivative order: the truncation order of the jets and the highest
# finite-difference stencil.
MAX_DERIVATIVE_ORDER = 4


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with strictly ordered endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self):
        return self.hi - self.lo

    def shifted(self, x0):
        return Interval(self.lo + x0, self.hi + x0)

    @staticmethod
    def coerce(value):
        if isinstance(value, Interval):
            return value
        lo, hi = value
        return Interval(float(lo), float(hi))


def _jet_div(a, b):
    """Taylor coefficients of a / b, for b[0] != 0."""
    q = []
    for k in range(len(a)):
        acc = a[k]
        for i in range(k):
            acc = acc - q[i] * b[k - i]
        q.append(acc / b[0])
    return q


def _mollifier_jet(t, order, sign=1.0):
    """Taylor coefficients in s of exp(-1/(t + sign*s)) up to s^order.

    -1/(t + sign*s) has coefficients u_0 = -1/t and u_k = u_{k-1} * (-sign/t);
    the exp recurrence k e_k = sum_j j u_j e_{k-j} then gives the jet. Every
    coefficient is exactly 0 at or below the underflow knee.
    """
    pos = t > MOLLIFIER_KNEE
    u = [-1.0 / np.where(pos, t, 1.0)]
    e = [np.where(pos, np.exp(u[0]), 0.0)]
    for k in range(1, order + 1):
        u.append(u[-1] * (sign * u[0]))
        e.append(sum((j * u[j] * e[k - j] for j in range(2, k + 1)), u[1] * e[k - 1]) / k)
    return e


def mollifier(x):
    """exp(-1/x) for x > 0, exactly 0 for x <= 0 (and below the underflow knee)."""
    arr, scalar = as_float_array(x)
    return maybe_scalar(_mollifier_jet(arr, 0)[0], scalar)


class SmoothStep:
    """Smooth monotone unit step: exactly 0/1 outside its transition interval.

    Rising: 0 for x <= lo, 1 for x >= hi. Falling: 1 for x <= lo, 0 for x >= hi.
    The defining quotient has a strictly positive denominator for lo < hi.
    """

    def __init__(self, lo, hi, *, falling=False):
        self.transition = Interval(lo, hi)
        self.falling = bool(falling)

    def __call__(self, x):
        arr, scalar = as_float_array(x)
        return maybe_scalar(self.jet(arr, 0)[0], scalar)

    def jet(self, x, order):
        """Taylor coefficients f^(k)(x)/k! for k = 0..order, as a list of arrays."""
        arr = np.asarray(x, dtype=float)
        # outside the transition (NaN included) the value is 0 or 1, the rest 0
        out = _constant_jet((arr >= self.transition.hi) ^ self.falling, order)
        self._fill_transition(arr, out)
        return out

    def _fill_transition(self, arr, out):
        """Overwrite the jet out at the points of arr strictly inside the transition."""
        lo, hi = self.transition.lo, self.transition.hi
        inside = (arr > lo) & (arr < hi)
        if not inside.any():
            return
        x = arr[inside]
        rising = _mollifier_jet(x - lo, len(out) - 1)
        falling = _mollifier_jet(hi - x, len(out) - 1, sign=-1.0)
        den = [r + f for r, f in zip(rising, falling)]
        # den[0] == 0 only when both mollifiers are in the underflow knee; the
        # value there stays the sharp step through the midpoint, and the
        # higher coefficients there are 0 like those of the sharp step.
        ok = den[0] > 0.0
        value = ((x >= 0.5 * (lo + hi)) ^ self.falling).astype(float)
        np.divide((falling if self.falling else rising)[0], den[0], out=value, where=ok)
        out[0][inside] = value
        if len(out) == 1:
            return
        den[0] = np.where(ok, den[0], 1.0)
        # The rising and falling quotients sum to 1, so past order 0 their
        # coefficients differ only in sign. Dividing the smaller part avoids
        # the cancellation the quotient rule suffers where the step is near 0
        # or 1.
        rising_smaller = rising[0] <= falling[0]
        q = _jet_div([np.where(rising_smaller, r, f) for r, f in zip(rising, falling)], den)
        sign = np.where(rising_smaller != self.falling, 1.0, -1.0)
        for k in range(1, len(out)):
            out[k][inside] = sign * q[k]


def _constant_jet(value, order):
    """The jet of a piecewise constant: value as floats, higher coefficients 0."""
    value = np.array(value, dtype=float)  # an ndarray even for 0-d input
    return [value] + [np.zeros(value.shape) for _ in range(order)]


def smooth_step_up(alpha, beta):
    """Smooth step that rises from 0 (x <= alpha) to 1 (x >= beta)."""
    if not float(alpha) < float(beta):
        raise ValueError(f"smooth_step_up requires alpha < beta, got {alpha}, {beta}")
    return SmoothStep(alpha, beta)


def smooth_step_down(gamma, delta):
    """Smooth step that falls from 1 (x <= gamma) to 0 (x >= delta)."""
    if not float(gamma) < float(delta):
        raise ValueError(f"smooth_step_down requires gamma < delta, got {gamma}, {delta}")
    return SmoothStep(gamma, delta, falling=True)


class TestFunction:
    """Smooth function with compact support, given by its jet.

    jet(x, order) is the list of its Taylor coefficients f^(k)(x)/k! for
    k = 0..order; the value is the order-0 coefficient, and derivative(f, x, k)
    reads f^(k)(x) off the jet, exact to rounding. Immutable.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, support, *, jet, label="f"):
        self.jet = jet
        self.support = Interval.coerce(support)
        self.label = label

    def __call__(self, x):
        arr, scalar = as_float_array(x)
        return maybe_scalar(self.jet(arr, 0)[0], scalar)

    def __repr__(self):
        return f"TestFunction({self.label}, support=[{self.support.lo}, {self.support.hi}])"

    def shifted(self, x0):
        """Translate: g(x) = f(x - x0); support moves with it."""
        x0 = float(x0)
        jet = self.jet
        return TestFunction(self.support.shifted(x0), label=f"{self.label} shifted by {x0:g}",
                            jet=lambda x, order: jet(np.asarray(x, dtype=float) - x0, order))

    def scaled(self, c):
        """Scale values: g(x) = c * f(x); support unchanged."""
        c = float(c)
        jet = self.jet
        return TestFunction(self.support, label=f"{c:g} * {self.label}",
                            jet=lambda x, order: [c * v for v in jet(x, order)])


def bump(alpha, beta, gamma, delta):
    """Smooth bump: 0 outside [alpha, delta], 1 on [beta, gamma], in (0, 1) between.

    Product of a rising step on [alpha, beta] and a falling step on
    [gamma, delta], evaluated piecewise: each transition takes its step's
    jet, the plateau is 1 and the rest 0. Requires alpha < beta < gamma <
    delta strictly.
    """
    knots = [float(alpha), float(beta), float(gamma), float(delta)]
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise ValueError(f"bump requires alpha < beta < gamma < delta, got {knots}")
    up = smooth_step_up(alpha, beta)
    down = smooth_step_down(gamma, delta)
    return TestFunction(Interval(alpha, delta),
                        label=f"bump({alpha:g},{beta:g},{gamma:g},{delta:g})",
                        jet=lambda x, order: _bump_jet(up, down, x, order))


def _bump_jet(up, down, x, order):
    """The bump's jet: 1 on the plateau, each step's jet inside its transition
    (they are disjoint), and 0 elsewhere."""
    arr = np.asarray(x, dtype=float)
    out = _constant_jet((arr >= up.transition.hi) & (arr <= down.transition.lo), order)
    up._fill_transition(arr, out)
    down._fill_transition(arr, out)
    return out


def _stencil(f, x, h, order):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)
    if order == 4:
        return (f(x + 2 * h) - 4.0 * f(x + h) + 6.0 * f(x) - 4.0 * f(x - h) + f(x - 2 * h)) / h ** 4
    raise ValueError(f"unsupported derivative order {order}")


def derivative(f, x, order=1):
    """The order-th derivative of f at x, for orders 1..MAX_DERIVATIVE_ORDER.

    Read off f.jet, exact to rounding, when f has one (every TestFunction and
    SmoothStep). Only a plain callable gets a central finite difference with
    one Richardson level, O(h^4), with step h = eps^(1/(order+2)) * max(1, |x|),
    the standard truncation/roundoff tradeoff for each stencil.
    """
    order = int(order)
    if not 1 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in [1, {MAX_DERIVATIVE_ORDER}], got {order}")
    arr, scalar = as_float_array(x)
    jet = getattr(f, "jet", None)
    if jet is not None:
        return maybe_scalar(math.factorial(order) * jet(arr, order)[order], scalar)
    h = EPS ** (1.0 / (order + 2)) * np.maximum(1.0, np.abs(arr))
    coarse = _stencil(f, arr, h, order)
    fine = _stencil(f, arr, 0.5 * h, order)
    return maybe_scalar((4.0 * fine - coarse) / 3.0, scalar)


class DifferenceQuotient:
    """g(x) = (f(x) - f(0)) / x, extended continuously through 0.

    Below the switch threshold (1e-6 of the support width) the quotient is
    replaced by the Taylor form f'(0) + x f''(0) / 2, where cancellation in
    f(x) - f(0) would otherwise dominate.
    """

    def __init__(self, f):
        self._f = f
        # the Taylor coefficients f(0), f'(0) and f''(0)/2
        self._f0, self._d1, self._c2 = map(float, f.jet(0.0, 2))
        self.switch = 1e-6 * f.support.width

    def __call__(self, x):
        arr, scalar = as_float_array(x)
        small = np.abs(arr) < self.switch
        safe = np.where(small, 1.0, arr)
        out = np.where(small,
                       self._d1 + self._c2 * arr,
                       (self._f(arr) - self._f0) / safe)
        return maybe_scalar(out, scalar)


def difference_quotient(f):
    """Continuous difference quotient of a TestFunction (g(0) = f'(0))."""
    return DifferenceQuotient(f)
