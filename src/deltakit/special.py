"""Sine integral, Dirichlet tails, and the exp-damped sine double integral.

si(x) uses half-period Gauss-Kronrod panels (cached prefix sums over the
integer multiples of pi) up to |x| = 100 and a three-term asymptotic pair
beyond, so its absolute error stays below 1e-12 in the quadrature regime and
below ~1e-11 everywhere (bounded by 720/x^7 + 5040/x^8 past the switch).
"""

from __future__ import annotations

import math

import numpy as np

from ._util import as_float_array, maybe_scalar, require_positive
from .quadrature import QuadResult, _panel_rule, _quad_rows, adaptive_quad

__all__ = ["si", "dirichlet_tail", "sinc_sq_integral", "fubini_square", "QuadResult"]

HALF_PI = 0.5 * math.pi

# Removable singularities are evaluated by series below this threshold.
_SERIES_CUTOFF = 1e-4

# Quadrature/asymptotic switch for si. The asymptotic pair truncated after
# the 1/x^7 and 1/x^8 terms is accurate to ~4e-14 at x = 100.
_SI_SWITCH = 100.0

# Absolute tolerances of sinc_sq_integral and of fubini_square.
SINC_SQ_TOL = 1e-12
FUBINI_TOL = 1e-9

# order -> (inner integrand f(outer node, inner variable), inner panel cap,
# outer panel cap) for the integral of exp(-a*x)*sin(x) over [0,R]x[0,R].
_FUBINI_ORDERS = {
    "x_first": (lambda a, x: np.exp(-a * x) * np.sin(x), math.pi, 0.5),
    "alpha_first": (lambda x, a: np.exp(-a * x) * np.sin(x), 0.5, math.pi),
}


def sinc(t):
    """sin(t)/t with a 4-term Taylor series near the removable singularity."""
    arr, scalar = as_float_array(t)
    small = np.abs(arr) < _SERIES_CUTOFF
    # one buffer: sin(t)/t everywhere but the small subset, which gets the series
    out = np.sin(arr, out=np.empty_like(arr))
    np.divide(out, arr, out=out, where=~small)
    small_t = arr[small]
    t2 = small_t * small_t
    out[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
    return maybe_scalar(out, scalar)


def sinc_prime(t):
    """d/dt [sin(t)/t] = (cos(t) - sinc(t))/t, series-evaluated near 0."""
    arr, scalar = as_float_array(t)
    small = np.abs(arr) < 1e-2
    safe = np.where(small, 1.0, arr)
    t2 = arr * arr
    series = arr * (-1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0)
    out = np.where(small, series, (np.cos(safe) - np.sin(safe) / safe) / safe)
    return maybe_scalar(out, scalar)


def _sinc_sq(y):
    s = sinc(y)
    return s * s


_PREFIX = None  # cumulative integral of sinc over [0, k*pi], k = 0..32


def _prefix_table():
    global _PREFIX
    if _PREFIX is None:
        n_panels = int(_SI_SWITCH // math.pi) + 1
        partials = [adaptive_quad(sinc, k * math.pi, (k + 1) * math.pi, tol=1e-15).value
                    for k in range(n_panels)]
        cumulative = [0.0]
        for k in range(n_panels):
            cumulative.append(math.fsum(partials[:k + 1]))
        _PREFIX = np.asarray(cumulative)
    return _PREFIX


def _si_panels(ax):
    """Si on 0 <= ax <= switch: prefix sum plus one Kronrod panel remainder."""
    prefix = _prefix_table()
    m = np.minimum(np.floor(ax / math.pi).astype(int), prefix.size - 2)
    lo = m * math.pi
    k15, err = _panel_rule(sinc, lo, ax)
    for i in np.flatnonzero(err > 1e-13):
        k15[i] = adaptive_quad(sinc, lo[i], ax[i], tol=1e-14).value
    return prefix[m] + k15


def _si_asymptotic(ax):
    with np.errstate(over="ignore"):  # ax*ax is inf past ~1.3e154; p is then 0
        p = 1.0 / (ax * ax)
    f = (1.0 - p * (2.0 - p * (24.0 - 720.0 * p))) / ax
    g = p * (1.0 - p * (6.0 - p * (120.0 - 5040.0 * p)))
    return HALF_PI - np.cos(ax) * f - np.sin(ax) * g


def si(x):
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x.

    Odd by reflection (exactly). Absolute error <= 1e-12 for |x| <= 100;
    beyond the switch the documented envelope is 1e-4/x (actual error is
    far smaller, O(x^-7)). Si(+-inf) = +-pi/2 and Si(nan) is nan.
    """
    arr, scalar = as_float_array(x)
    flat = np.atleast_1d(arr).astype(float)
    sign = np.sign(flat)  # nan at nan, which carries through the product below
    ax = np.abs(flat)
    out = np.full_like(ax, HALF_PI)
    big = (ax > _SI_SWITCH) & (ax < math.inf)
    if big.any():
        out[big] = _si_asymptotic(ax[big])
    small = ax <= _SI_SWITCH
    if small.any():
        out[small] = _si_panels(ax[small])
    out *= sign
    out = out.reshape(np.shape(arr))
    return maybe_scalar(out, scalar)


def dirichlet_tail(x):
    """pi/2 - Si(x) for x > 0: the remaining tail of the Dirichlet integral.

    Satisfies |dirichlet_tail(x)| <= 2/x (one integration by parts).
    """
    arr, scalar = as_float_array(x)
    if np.any(arr <= 0.0):
        raise ValueError("dirichlet_tail requires x > 0")
    return maybe_scalar(HALF_PI - si(arr), scalar)


def sinc_sq_integral(a, b):
    """Integral of sin(y)^2 / y^2 over [a, b], 0 <= a < b (b may be inf).

    The integrand is 1 at the removable singularity y = 0; b = inf is
    evaluated as pi/2 minus the finite head.
    """
    a = float(a)
    if a < 0.0:
        raise ValueError("sinc_sq_integral requires a >= 0")
    if not b > a:
        raise ValueError("sinc_sq_integral requires b > a")
    if math.isinf(b):
        if a == 0.0:
            return HALF_PI
        return HALF_PI - sinc_sq_integral(0.0, a)
    return adaptive_quad(_sinc_sq, a, b, tol=SINC_SQ_TOL, max_panel=math.pi).value


def fubini_square(R, order="x_first"):
    """Numerically integrate exp(-a*x)*sin(x) over the square [0,R]x[0,R].

    order selects which variable is integrated first ("x_first" or
    "alpha_first"); both orders must agree within their combined error
    estimates, and the value approaches pi/2 as R grows, with
    |value - arctan(R)| <= 3(1 - exp(-R^2))/(2R). The inner integrals at the
    nodes of one outer panel-rule call are refined as rows of one quadrature
    call. converged holds only when the outer integral and every inner
    integral met their tolerances.
    """
    R = require_positive(R, "R")
    if order not in _FUBINI_ORDERS:
        raise ValueError(f"order must be 'x_first' or 'alpha_first', got {order!r}")
    inner, inner_cap, outer_cap = _FUBINI_ORDERS[order]
    inner_tol = max(1e-14, FUBINI_TOL / (20.0 * R))
    inner_converged = True

    def outer_integrand(ts):
        nonlocal inner_converged
        nodes = ts.ravel()
        rows = _quad_rows(lambda i, x: inner(nodes[i], x), nodes.size, 0.0, R,
                          tol=inner_tol, max_panel=inner_cap)
        inner_converged = inner_converged and all(r.converged for r in rows)
        return np.reshape([r.value for r in rows], ts.shape)

    res = adaptive_quad(outer_integrand, 0.0, R, tol=0.5 * FUBINI_TOL, max_panel=outer_cap)
    err = res.abs_error_estimate + R * inner_tol
    return QuadResult(res.value, err, res.panels_used,
                      res.converged and inner_converged and err <= FUBINI_TOL)
