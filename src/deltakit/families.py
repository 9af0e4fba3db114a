"""Closed-form regularized delta families, their primitive towers, and limits.

Two one-parameter families approximate the delta functional:

* truncated-spectrum (sinc) kernel sin(r x)/(pi x), with anchored primitives
  Si(r x)/pi (a smoothed half-step) and the smoothed kink that converges
  uniformly to |x|/2 with error at most 2/(pi r);
* Lorentz kernel (eps/pi)/(x^2 + eps^2), with arctan and x*arctan - log
  primitives.

Both eval functions are even; first primitives are odd, second primitives
even, all anchored at 0.
"""

from __future__ import annotations

import numpy as np

from ._util import as_float_array, maybe_scalar, require_positive
from .special import si, sinc, sinc_prime

__all__ = [
    "sinc_delta",
    "sinc_delta_prime",
    "sinc_step",
    "sinc_kink",
    "lorentz_delta",
    "lorentz_delta_n",
    "lorentz_delta_prime",
    "lorentz_step",
    "lorentz_kink",
    "half_step",
    "half_abs",
]

_PI = np.pi


def sinc_delta(r, x):
    """Truncated-spectrum delta kernel sin(r x)/(pi x); value r/pi at x = 0."""
    r = require_positive(r, "r")
    arr, scalar = as_float_array(x)
    return maybe_scalar((r / _PI) * sinc(r * arr), scalar)


def sinc_delta_prime(r, x):
    """x-derivative of sinc_delta (closed form via the sinc derivative)."""
    r = require_positive(r, "r")
    arr, scalar = as_float_array(x)
    return maybe_scalar((r * r / _PI) * sinc_prime(r * arr), scalar)


def sinc_step(r, x):
    """Anchored primitive of sinc_delta: Si(r x)/pi, a smoothed half-step."""
    r = require_positive(r, "r")
    arr, scalar = as_float_array(x)
    return maybe_scalar(si(r * arr) / _PI, scalar)


def sinc_kink(r, x):
    """Second anchored primitive of sinc_delta.

    Closed form (x/pi) Si(r x) + (cos(r x) - 1)/(r pi), written with
    2 sin^2(u/2) for the cosine difference to avoid cancellation. Converges
    uniformly to |x|/2 with |error| <= 2/(pi r).
    """
    r = require_positive(r, "r")
    arr, scalar = as_float_array(x)
    u = r * arr
    half = np.sin(0.5 * u)
    out = (arr / _PI) * si(u) - 2.0 * half * half / (r * _PI)
    return maybe_scalar(out, scalar)


def lorentz_delta(eps, x):
    """Lorentz delta kernel (eps/pi)/(x^2 + eps^2); peak 1/(pi eps) at 0."""
    eps = require_positive(eps, "eps")
    arr, scalar = as_float_array(x)
    return maybe_scalar((eps / _PI) / (arr * arr + eps * eps), scalar)


def lorentz_delta_n(n, x):
    """Sequence view of the Lorentz kernel: eps = 1/n, i.e. (n/pi)/(1+n^2 x^2)."""
    n = require_positive(n, "n")
    return lorentz_delta(1.0 / n, x)


def lorentz_delta_prime(n, x):
    """x-derivative of lorentz_delta_n."""
    n = require_positive(n, "n")
    arr, scalar = as_float_array(x)
    den = 1.0 + (n * arr) ** 2
    return maybe_scalar(-(2.0 * n ** 3 / _PI) * arr / (den * den), scalar)


def lorentz_step(n, x):
    """Anchored primitive of the Lorentz kernel: arctan(n x)/pi."""
    n = require_positive(n, "n")
    arr, scalar = as_float_array(x)
    return maybe_scalar(np.arctan(n * arr) / _PI, scalar)


def lorentz_kink(n, x):
    """Second anchored primitive: x*arctan(n x)/pi - log(1 + n^2 x^2)/(2 pi n).

    Even in x; converges almost uniformly to |x|/2. log1p keeps precision
    for small n x.
    """
    n = require_positive(n, "n")
    arr, scalar = as_float_array(x)
    u = n * arr
    out = arr * np.arctan(u) / _PI - np.log1p(u * u) / (2.0 * _PI * n)
    return maybe_scalar(out, scalar)


def half_step(x):
    """Pointwise limit of sinc_step: -1/2 for x < 0, 0 at 0, +1/2 for x > 0."""
    arr, scalar = as_float_array(x)
    out = np.where(arr > 0.0, 0.5, np.where(arr < 0.0, -0.5, 0.0))
    return maybe_scalar(out, scalar)


def half_abs(x):
    """Pointwise (and uniform) limit of the kinks: |x|/2."""
    arr, scalar = as_float_array(x)
    return maybe_scalar(0.5 * np.abs(arr), scalar)
