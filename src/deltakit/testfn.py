"""Smooth compactly supported test functions built from the exp(-1/x) mollifier.

Construction: one-sided mollifier -> smooth unit up/down steps -> bump that is
exactly 0 outside [alpha, delta] and exactly 1 on [beta, gamma]. Derivatives
are finite differences (central stencils + one Richardson level); the closed
forms are never differentiated symbolically.
"""

from __future__ import annotations

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

# Highest derivative order the finite-difference stencils provide.
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


def mollifier(x):
    """exp(-1/x) for x > 0, exactly 0 for x <= 0 (and below the underflow knee)."""
    arr, scalar = as_float_array(x)
    pos = arr > MOLLIFIER_KNEE
    safe = np.where(pos, arr, 1.0)
    out = np.where(pos, np.exp(-1.0 / safe), 0.0)
    return maybe_scalar(out, scalar)


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
        lo, hi = self.transition.lo, self.transition.hi
        rising_part = mollifier(arr - lo)
        falling_part = mollifier(hi - arr)
        den = rising_part + falling_part
        num = falling_part if self.falling else rising_part
        # den == 0 only when both mollifiers are in the underflow knee; fall
        # back to the sharp step through the midpoint.
        safe_den = np.where(den > 0.0, den, 1.0)
        quotient = np.where(den > 0.0, num / safe_den, 0.0)
        past_mid = arr >= 0.5 * (lo + hi)
        sharp = np.where(past_mid ^ self.falling, 1.0, 0.0)
        out = np.where(den > 0.0, quotient, sharp)
        return maybe_scalar(out, scalar)


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
    """Smooth function with compact support; derivative(f, x, k) differentiates it.

    Immutable after construction.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, fn, support, *, label="f"):
        self._fn = fn
        self.support = Interval.coerce(support)
        self.label = label

    def __call__(self, x):
        return self._fn(x)

    def __repr__(self):
        return f"TestFunction({self.label}, support=[{self.support.lo}, {self.support.hi}])"

    def shifted(self, x0):
        """Translate: g(x) = f(x - x0); support moves with it."""
        x0 = float(x0)
        fn = self._fn
        return TestFunction(lambda x: fn(np.asarray(x, dtype=float) - x0),
                            self.support.shifted(x0),
                            label=f"{self.label} shifted by {x0:g}")

    def scaled(self, c):
        """Scale values: g(x) = c * f(x); support unchanged."""
        c = float(c)
        fn = self._fn
        return TestFunction(lambda x: c * fn(x), self.support,
                            label=f"{c:g} * {self.label}")


def bump(alpha, beta, gamma, delta):
    """Smooth bump: 0 outside [alpha, delta], 1 on [beta, gamma], in (0, 1) between.

    Product of a rising step on [alpha, beta] and a falling step on
    [gamma, delta]; requires alpha < beta < gamma < delta strictly.
    """
    knots = [float(alpha), float(beta), float(gamma), float(delta)]
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise ValueError(f"bump requires alpha < beta < gamma < delta, got {knots}")
    up = smooth_step_up(alpha, beta)
    down = smooth_step_down(gamma, delta)
    return TestFunction(lambda x: up(x) * down(x), Interval(alpha, delta),
                        label=f"bump({alpha:g},{beta:g},{gamma:g},{delta:g})")


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
    """Central finite-difference derivative with one Richardson level, O(h^4).

    Orders 1..MAX_DERIVATIVE_ORDER. Step: h = eps^(1/(order+2)) * max(1, |x|),
    the standard truncation/roundoff tradeoff for each stencil.
    """
    order = int(order)
    if not 1 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in [1, {MAX_DERIVATIVE_ORDER}], got {order}")
    arr, scalar = as_float_array(x)
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
        self._f0 = float(f(0.0))
        self._d1 = float(derivative(f, 0.0, 1))
        self._d2 = float(derivative(f, 0.0, 2))
        self.switch = 1e-6 * Interval.coerce(f.support).width

    @property
    def value_at_zero(self):
        return self._d1

    def __call__(self, x):
        arr, scalar = as_float_array(x)
        small = np.abs(arr) < self.switch
        safe = np.where(small, 1.0, arr)
        out = np.where(small,
                       self._d1 + 0.5 * self._d2 * arr,
                       (self._f(arr) - self._f0) / safe)
        return maybe_scalar(out, scalar)


def difference_quotient(f):
    """Continuous difference quotient of a TestFunction (g(0) = f'(0))."""
    return DifferenceQuotient(f)
