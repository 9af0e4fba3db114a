"""Small shared helpers: the scalar rule, argument checks, ln(1 + u^2) and Newton's method.

The scalar rule: a function of points takes x as np.asarray(x, dtype=float) and returns
through float_if_0d, which gives a 0-d result as a Python float and any other as it is. So
scalar arguments give a float, and an array parameter broadcasts against x like any operand.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def log1p_square(u):
    """ln(1 + u^2): log1p(u^2), which keeps precision for small u, or 2 ln|u| where u^2
    overflows (|u| > ~1.3e154) and 1 + u^2 rounds to u^2. A Python float goes through
    math, numpy input through numpy, so each keeps the bits of its log1p(u * u)."""
    if type(u) is float:
        uu = u * u
        return math.log1p(uu) if uu < math.inf else 2.0 * math.log(abs(u))
    with np.errstate(over="ignore"):  # an overflowed u^2 is replaced below
        uu = u * u
    if (uu < np.inf).all():
        return np.log1p(uu)
    with np.errstate(divide="ignore"):  # ln 0 at u = 0, where log1p's value is kept
        return np.where(uu < np.inf, np.log1p(uu), 2.0 * np.log(np.abs(u)))


def float_if_0d(out):
    """A 0-d result as a Python float; any other as it is."""
    return out if getattr(out, "ndim", 0) else float(out)


def require_positive(value, name):
    """A finite positive number as a float, or an array-like of them as a float ndarray."""
    if np.ndim(value):
        arr = np.asarray(value, dtype=float)
        if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):  # a NaN fails both
            for v in arr.flat:  # the scalar check raises at the first bad value
                require_positive(v, name)
        return arr
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def require_count(value, name, minimum=1):
    """An integer >= minimum; an integral float such as 1000.0 counts as one."""
    value = float(value)
    if not (value >= minimum and value.is_integer()):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value:g}")
    return int(value)


def newton(fn, u, lo, hi, *, steps, tol):
    """Take `steps` Newton steps on value = 0 from u, elementwise, where fn(u) gives
    (value, slope, ...); return u and fn(u) there. Raises ArithmeticError if a step
    leaves [lo, hi] or if |value| > tol at the result."""
    for _ in range(steps):
        value, slope = fn(u)[:2]
        u = u - value / slope
        if np.any((u < lo) | (u > hi)):
            raise ArithmeticError("a Newton step left its bracket")
    last = fn(u)
    if np.any(np.abs(last[0]) > tol):
        raise ArithmeticError(f"Newton missed its residual {tol:g}")
    return u, last
