"""Small shared helpers: scalar/array dispatch, argument checks, ln(1 + u^2) and Newton's method."""

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


def as_float_array(x):
    """Coerce to a float ndarray; report whether the input was scalar.

    Returns (array, was_scalar). Scalar inputs come back as 0-d arrays so the
    caller can do `float(out)` at the end and keep a scalar-in scalar-out API.
    """
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def maybe_scalar(out, was_scalar):
    return float(out) if was_scalar else out


def require_positive(value, name):
    """A finite positive number as a float, or an ndarray of them as a float array."""
    if getattr(value, "ndim", 0):
        arr = value.astype(float, copy=False)
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
