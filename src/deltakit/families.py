"""Closed-form regularized delta families, their primitive towers, and limits.

Two one-parameter families approximate the delta functional:

* truncated-spectrum (sinc) kernel sin(r x)/(pi x), with anchored primitives
  Si(r x)/pi (a smoothed half-step) and the smoothed kink that converges
  uniformly to |x|/2 with error at most 2/(pi r);
* Lorentz kernel (eps/pi)/(x^2 + eps^2), with arctan and x*arctan - log
  primitives.

Both eval functions are even; first primitives are odd, second primitives
even, all anchored at 0.

Every kernel follows the scalar rule of _util: its parameter (r, eps or n) and x
broadcast against each other, each value is the one the scalar call gives, bit for
bit, and a result of scalar arguments is a Python float.
"""

from __future__ import annotations

import numpy as np

from ._util import float_if_0d, log1p_square, require_positive
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
    arr = np.asarray(x, dtype=float)
    return float_if_0d((r / _PI) * sinc(r * arr))


def sinc_delta_prime(r, x):
    """x-derivative of sinc_delta (closed form via the sinc derivative)."""
    r = require_positive(r, "r")
    arr = np.asarray(x, dtype=float)
    return float_if_0d((r * r / _PI) * sinc_prime(r * arr))


def sinc_step(r, x):
    """Anchored primitive of sinc_delta: Si(r x)/pi, a smoothed half-step."""
    r = require_positive(r, "r")
    arr = np.asarray(x, dtype=float)
    return float_if_0d(si(r * arr) / _PI)


def sinc_kink(r, x):
    """Second anchored primitive of sinc_delta.

    Closed form (x/pi) Si(r x) + (cos(r x) - 1)/(r pi), written with
    2 sin^2(u/2) for the cosine difference to avoid cancellation. Converges
    uniformly to |x|/2 with |error| <= 2/(pi r).
    """
    r = require_positive(r, "r")
    arr = np.asarray(x, dtype=float)
    u = r * arr
    half = np.sin(0.5 * u)
    out = (arr / _PI) * si(u) - 2.0 * half * half / (r * _PI)
    return float_if_0d(out)


def lorentz_delta(eps, x):
    """Lorentz delta kernel (eps/pi)/(x^2 + eps^2); peak 1/(pi eps) at 0.

    It is s (s eps/pi) / ((s x)^2 + (s eps)^2) with s the power of two that puts s eps in
    [1/2, 1): the plain form's bits where its steps are normal floats, 0 past
    |x| ~ 1e154 eps (unwarned), and inf below eps ~ 1e-308.
    """
    eps = require_positive(eps, "eps")
    arr = np.asarray(x, dtype=float)
    m, e = np.frexp(eps)  # eps = m 2^e, m = s eps in [1/2, 1) for s = 2^-e
    with np.errstate(over="ignore"):  # (s x)^2 overflows far in the tails
        out = np.ldexp(m / _PI, -e) / (np.square(np.ldexp(arr, -e)) + m * m)
    return float_if_0d(out)


def lorentz_delta_n(n, x):
    """Sequence view of the Lorentz kernel: eps = 1/n, i.e. (n/pi)/(1+n^2 x^2)."""
    n = require_positive(n, "n")
    return lorentz_delta(1.0 / n, x)


def lorentz_delta_prime(n, x):
    """x-derivative of lorentz_delta_n, -2 pi n x k^2 from its kernel k: 0 where k reads 0,
    and an infinity (unwarned) only past the float range, as k reads inf past it."""
    n = require_positive(n, "n")
    k = lorentz_delta_n(n, x)
    with np.errstate(over="ignore"):  # 2 pi n x k <= n: only a value past the range overflows
        return float_if_0d(-2.0 * _PI * (n * (np.asarray(x, dtype=float) * k)) * k)


def lorentz_step(n, x):
    """Anchored primitive of the Lorentz kernel: arctan(n x)/pi."""
    n = require_positive(n, "n")
    arr = np.asarray(x, dtype=float)
    return float_if_0d(np.arctan(n * arr) / _PI)


def lorentz_kink(n, x):
    """Second anchored primitive: x*arctan(n x)/pi - log(1 + n^2 x^2)/(2 pi n).

    Even in x; converges almost uniformly to |x|/2. The logarithm is log1p_square's,
    precise for small n x and finite where (n x)^2 overflows.
    """
    n = require_positive(n, "n")
    arr = np.asarray(x, dtype=float)
    u = n * arr
    out = arr * np.arctan(u) / _PI - log1p_square(u) / (2.0 * _PI * n)
    return float_if_0d(out)


def half_step(x):
    """Pointwise limit of sinc_step: -1/2 for x < 0, 0 at 0, +1/2 for x > 0, nan at nan."""
    return float_if_0d(0.5 * np.sign(np.asarray(x, dtype=float)))


def half_abs(x):
    """Pointwise (and uniform) limit of the kinks: |x|/2."""
    return float_if_0d(0.5 * np.abs(np.asarray(x, dtype=float)))
