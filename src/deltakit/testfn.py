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
jet alone, and derivative(f, x, k) reads f^(k)(x) off it, exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import float_if_0d, require_count
from .quadrature import _panel_rule, _refine_rows

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

# Highest derivative order: the truncation order of the jets.
MAX_DERIVATIVE_ORDER = 4

# The most panels DifferenceQuotient's integral form splits [0, 1] into at one point.
MAX_QUOTIENT_PANELS = 1024


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
    return float_if_0d(_mollifier_jet(np.asarray(x, dtype=float), 0)[0])


class _JetFunction:
    """A function given by its jet(x, order): its value is the order-0 coefficient."""

    def __call__(self, x):
        return float_if_0d(self.jet(np.asarray(x, dtype=float), 0)[0])


class SmoothStep(_JetFunction):
    """Smooth monotone unit step: exactly 0/1 outside its transition interval.

    Rising: 0 for x <= lo, 1 for x >= hi. Falling: 1 for x <= lo, 0 for x >= hi.
    The defining quotient has a strictly positive denominator for lo < hi.
    """

    def __init__(self, lo, hi, *, falling=False):
        self.transition = Interval(lo, hi)
        self.falling = bool(falling)

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
    """Smooth step that rises from 0 (x <= alpha) to 1 (x >= beta), for finite alpha < beta."""
    return SmoothStep(alpha, beta)


def smooth_step_down(gamma, delta):
    """Smooth step that falls from 1 (x <= gamma) to 0 (x >= delta), for finite gamma < delta."""
    return SmoothStep(gamma, delta, falling=True)


class TestFunction(_JetFunction):
    """Smooth function with compact support, given by its jet.

    jet(x, order) is the list of its Taylor coefficients f^(k)(x)/k! for
    k = 0..order; the value is the order-0 coefficient, and derivative(f, x, k)
    reads f^(k)(x) off the jet, exact to rounding.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, support, *, jet, label="f"):
        self.jet = jet
        self.support = Interval.coerce(support)
        self.label = label

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


def derivative(f, x, order=1):
    """The order-th derivative of f at x, for orders 1..MAX_DERIVATIVE_ORDER.

    Read off f.jet, exact to rounding (every TestFunction, SmoothStep and
    DifferenceQuotient has one); an f without a jet raises TypeError.
    """
    order = require_count(order, "derivative order")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in [1, {MAX_DERIVATIVE_ORDER}], got {order}")
    if not hasattr(f, "jet"):
        raise TypeError(f"derivative reads f.jet(x, order), and {f!r} has no jet")
    return float_if_0d(math.factorial(order) * f.jet(np.asarray(x, dtype=float), order)[order])


class DifferenceQuotient(_JetFunction):
    """g(x) = (f(x) - f(0)) / x, extended continuously through 0, given by its jet.

    At |x| >= switch (0.0025 of the support width) the jet is the Taylor division
    of x g = f - f(0): g_0 = (f_0 - f(0))/x, g_k = (f_k - g_(k-1))/x. Below it, where
    that would cancel (and f's Taylor series at 0 may not reach x), it is the exact
    g_k(x) = (k+1) int_0^1 t^k f_(k+1)(t x) dt, each point a row of the bisection loop.
    """

    def __init__(self, f):
        self._f = f
        self._f0 = float(f(0.0))
        self.switch = 0.0025 * f.support.width

    def jet(self, x, order):
        """Taylor coefficients g^(k)(x)/k! for k = 0..order, as a list of arrays."""
        arr = np.asarray(x, dtype=float)
        out = [np.empty(arr.shape) for _ in range(order + 1)]  # writable, 0-d input too
        small = np.abs(arr) < self.switch
        xb, g, gs = arr[~small], self._f0, self._integral_jet(arr[small], order)
        for k, fk in enumerate(self._f.jet(xb, order)):
            g = (fk - g) / xb
            out[k][~small], out[k][small] = g, gs[k]
        return out

    def _integral_jet(self, x, order):
        """The integral form at the points x, each a row of _refine_rows cut first into [0, 1]
        (a narrow transition of f may lie inside [0, x]). A row is done when its |K15 - G7| on
        g_0 sum to 1e-12 of its first cut's int |f'(t x)| dt, raised to sup |f| / width (65
        samples, once) if some first cut misses that: a shifted f's jet carries relative
        rounding near 1e-12 there. A reference of 0 means f', and every estimate, is 0."""
        if not x.size:  # no jet to evaluate
            return np.empty((order + 1, 0))
        f, s, k, ref = self._f, self._f.support, np.arange(order + 1)[:, None, None], None

        def integrands(row, t):  # those of g_0..g_order, then |g_0's| for the reference
            # t^k by products: numpy's power rounds t ** 2 differently in small and large batches
            powers = np.cumprod([np.ones(t.shape)] + [t] * order, axis=0)
            terms = (k + 1) * np.array(f.jet(x[row, None] * t, order + 1)[1:]) * powers
            return np.concatenate([terms, np.abs(terms[:1])])

        def rule(row, lo, hi):  # every order's Kronrod value from one jet, the estimate on g_0
            nonlocal ref
            kron, (err, *_) = _panel_rule(lambda t: integrands(row, t), lo, hi)
            if ref is None:  # the first cut: panel i is row i's
                ref = kron[-1]
                if (err > 1e-12 * ref).any():
                    ref = np.maximum(ref, np.abs(f(np.linspace(s.lo, s.hi, 65))).max() / s.width)
            return kron[:-1].T, np.divide(err, ref[row], out=np.zeros_like(err), where=err > 0)

        row, _, _, vals, errs = _refine_rows(rule, [[0, 1]] * x.size, 1e-12, MAX_QUOTIENT_PANELS)
        if not (total := np.bincount(row, errs, x.size)).max() <= 1e-12:  # NaN fails too
            raise ArithmeticError(f"the difference quotient of {f!r} at "
                                  f"x = {float(x[total.argmax()])!r} "
                                  f"needs more than {MAX_QUOTIENT_PANELS} panels")
        g = np.full((x.size, order + 1), -0.0)  # -0.0 + v is v, bit for bit
        np.add.at(g, row, vals)  # a row's panels from left to right
        return g.T


difference_quotient = DifferenceQuotient
