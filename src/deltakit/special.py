"""Sine integral, Dirichlet tails, and the exp-damped sine double integral.

si(x) evaluates, for 1/16 <= |x| <= 100, a degree-16 Chebyshev expansion of
Si on the half-period [k*pi, (k+1)*pi] that holds |x|, by Clenshaw's
recurrence: no quadrature per point. The table is built once from sinc
samples. Its absolute error measured against mpmath is at most 6.7e-16 on
[0, pi] and 2.2e-16 on [pi, 100]. Below 1/16, where Si(x) ~ x, the odd
Maclaurin series through x^9 keeps the error relative, at most 1.1e-16.
Beyond 100, si uses a five-term asymptotic pair, whose truncation error is
bounded by the first omitted terms, 10!/x^11 + 11!/x^12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from ._util import float_if_0d, newton, require_positive
from .quadrature import (_chebyshev_antiderivative, _chebyshev_coefficients, _chebyshev_cosines,
                         _clenshaw, _dyadic_edges, adaptive_quad, anchored_primitive_values)

__all__ = ["si", "si_half_pi_roots", "dirichlet_tail", "sinc_sq_integral", "fubini_square"]

HALF_PI = 0.5 * math.pi

# Removable singularities are evaluated by series below this threshold.
_SERIES_CUTOFF = 1e-4

# sinc_prime's series below |t| = 1 (coefficient k of t^(2k-1), highest k first)
_SINC_PRIME_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(9, 0, -1))

# Chebyshev/asymptotic switch for si. The asymptotic pair truncated after
# the 1/x^9 and 1/x^10 terms is accurate to ~5e-16 at x = 100.
_SI_SWITCH = 100.0

# Degree of si's Chebyshev interpolant on each half-period below the switch.
_SI_DEGREE = 16

# Absolute tolerances of sinc_sq_integral and of fubini_square.
SINC_SQ_TOL = 1e-12
FUBINI_TOL = 1e-9

def sinc(t):
    """sin(t)/t with a 4-term Taylor series near the removable singularity."""
    arr = np.asarray(t, dtype=float)
    small = np.abs(arr) < _SERIES_CUTOFF
    # one buffer: sin(t)/t everywhere but the small subset, which gets the series
    out = np.sin(arr, out=np.empty_like(arr))
    np.divide(out, arr, out=out, where=~small)
    small_t = arr[small]
    t2 = small_t * small_t
    out[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
    return float_if_0d(out)


def sinc_prime(t):
    """d/dt [sin(t)/t] = (cos(t) - sinc(t))/t, series-evaluated for |t| < 1."""
    arr = np.asarray(t, dtype=float)
    small = np.abs(arr) < 1.0  # above 1 the closed form cancels to < 2e-16
    safe = np.where(small, 1.0, arr)
    out = np.asarray((np.cos(safe) - np.sin(safe) / safe) / safe)  # 0-d for a scalar
    out[small] = arr[small] * np.polyval(_SINC_PRIME_SERIES, arr[small] ** 2)  # Horner in t^2
    return float_if_0d(out)


def _sinc_sq(y):
    s = sinc(y)
    return s * s


@functools.cache
def _si_table():
    """Chebyshev coefficients of Si on the half-periods [k*pi, (k+1)*pi].

    One piece per k = 0..31, which covers [0, switch]; built on the first
    call. sinc is sampled at _SI_DEGREE first-kind Chebyshev points of each
    piece, a cosine sum (a DCT) gives its coefficients, and the
    antiderivative recurrence integrates them. Si(k*pi) goes into each
    piece's constant term: math.fsum of Fejer's first rule on the same
    samples over the earlier pieces, which rounds less than summing their
    integrated coefficients. Returns the pieces' left ends, their
    half-widths and the coefficient rows, row j holding T_j's coefficient of
    every piece.
    """
    n = _SI_DEGREE
    edges = np.arange(int(_SI_SWITCH // math.pi) + 2) * math.pi
    left, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    cosines = _chebyshev_cosines(n)  # row m: T_m at the nodes
    # sin(left + offset) by angle addition, so each sample is taken at its
    # node exactly and not at the rounded sum
    offset = half * (cosines[1] + 1.0)
    values = (np.sin(left) * np.cos(offset) + np.cos(left) * np.sin(offset)) / (left + offset)
    coef = _chebyshev_antiderivative(_chebyshev_coefficients(values, cosines), half)
    even = np.arange(2, n, 2)
    weights = (2.0 / n) * (1.0 + (2.0 / (1.0 - even * even)) @ cosines[even])
    at_left = (-1.0) ** np.arange(1, n + 1)  # T_m(-1)
    earlier = []  # Fejer terms of the earlier pieces: they sum to Si(k*pi)
    for row, rise in zip(coef, (half * weights * values).tolist()):
        row[0] = math.fsum([*earlier, *(-at_left * row[1:])])
        earlier += rise
    return edges[:-1], half.ravel(), np.ascontiguousarray(coef.T)


def _si_chebyshev(ax):
    """Si on 0 <= ax <= switch: Clenshaw's recurrence on the piece holding ax."""
    left, half, coef = _si_table()
    k = np.minimum((ax / math.pi).astype(np.intp), half.size - 1)
    return _clenshaw(coef, k, (ax - left[k]) / half[k] - 1.0)


def _si_asymptotic(ax):
    with np.errstate(over="ignore"):  # ax*ax is inf past ~1.3e154; p is then 0
        p = 1.0 / (ax * ax)
    f = (1.0 - p * (2.0 - p * (24.0 - p * (720.0 - 40320.0 * p)))) / ax
    g = p * (1.0 - p * (6.0 - p * (120.0 - p * (5040.0 - 362880.0 * p))))
    return HALF_PI - np.cos(ax) * f - np.sin(ax) * g


def si(x):
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x.

    For 1/16 <= |x| <= 100, a piecewise Chebyshev table (one degree-16 piece
    per half-period) evaluated by Clenshaw's recurrence, with no quadrature;
    absolute error measured against mpmath at most 6.7e-16. Below 1/16, the
    odd Maclaurin series through x^9, whose error is relative (at most
    1.1e-16 against mpmath). Bitwise the same for a scalar and for that
    scalar inside an array. Beyond the switch the documented envelope is
    1e-4/x (actual error is far smaller, O(x^-11)). Odd by reflection
    (exactly). Si(+-inf) = +-pi/2 and Si(nan) is nan.
    """
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).astype(float)
    sign = np.sign(flat)  # nan at nan, which carries through the product below
    ax = np.abs(flat)
    out = np.full_like(ax, HALF_PI)
    big = (ax > _SI_SWITCH) & (ax < math.inf)
    if big.any():
        out[big] = _si_asymptotic(ax[big])
    small = ax <= _SI_SWITCH
    if small.any():
        out[small] = _si_chebyshev(ax[small])
    tiny = ax < 0.0625  # odd Maclaurin series: the error stays relative where Si(x) ~ x
    if tiny.any():
        t = ax[tiny]
        t2 = t * t
        out[tiny] = t - t * t2 * (1 / 18 - t2 * (1 / 600 - t2 * (1 / 35280 - t2 / 3265920)))
    out *= sign
    return float_if_0d(out.reshape(np.shape(arr)))


def si_half_pi_roots(upper):
    """The roots of Si(u) = pi/2 in (0, upper], one per half-period (k pi, (k+1) pi).

    u_1 = 1.9264. Each is 8 Newton steps from pi/2 + k pi, with sinc as Si'. Raises
    ArithmeticError if a step leaves its half-period or |si(u) - pi/2| > 1e-15."""
    mid = HALF_PI + np.arange(int(float(upper) // math.pi) + 1) * math.pi
    u, _ = newton(lambda u: (si(u) - HALF_PI, sinc(u)), mid, mid - HALF_PI, mid + HALF_PI,
                  steps=8, tol=1e-15)
    return u[u <= upper]


def dirichlet_tail(x):
    """pi/2 - Si(x) for x > 0: the remaining tail of the Dirichlet integral.

    Satisfies |dirichlet_tail(x)| <= 2/x (one integration by parts).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):  # NaN fails too
        raise ValueError("dirichlet_tail requires x > 0")
    return float_if_0d(HALF_PI - si(arr))


def sinc_sq_integral(a, b):
    """Integral of sin(y)^2 / y^2 over [a, b], 0 <= a < b; b may be an array, and inf.

    Every end, a included, is read off one lift of the integrand from 0 (to
    SINC_SQ_TOL, panels at most pi wide), which raises QuadratureError if it
    does not converge; b = inf is pi/2 minus the head. A scalar b gives a float.
    """
    a = float(a)
    b = np.asarray(b, dtype=float)
    if a < 0.0:
        raise ValueError("sinc_sq_integral requires a >= 0")
    if not np.all(b > a):
        raise ValueError("sinc_sq_integral requires b > a")
    finite = np.isfinite(b)
    ends = np.full(b.shape, HALF_PI)
    heads = anchored_primitive_values(_sinc_sq, np.append(a, b[finite]), tol=SINC_SQ_TOL,
                                      max_panel=math.pi)
    ends[finite] = heads[1:]
    return float_if_0d(ends - heads[0])


# order -> (the outer integral over [0, R] of the inner integral's 1 term, in closed form;
# the e^(-Rt) layer that the inner integral subtracts from it, at the outer node t)
_FUBINI_ORDERS = {
    # over x at a: (1 - e^(-aR) (a sin R + cos R)) / (1 + a^2), whose 1 term gives arctan R
    "x_first": (math.atan, lambda R, a: np.exp(-a * R) * (a * math.sin(R) + math.cos(R))
                / (1.0 + a * a)),
    # over a at x: sin(x) (1 - e^(-Rx)) / x, whose 1 term gives Si(R)
    "alpha_first": (si, lambda R, x: np.exp(-R * x) * sinc(x)),
}


def fubini_square(R, order="x_first"):
    """Numerically integrate exp(-a*x)*sin(x) over the square [0,R]x[0,R].

    order selects which variable is integrated first ("x_first" or
    "alpha_first"); both orders must agree within their combined error
    estimates, and the value approaches pi/2 as R grows, with
    |value - arctan(R)| <= 3(1 - exp(-R^2))/(2R). The inner integral is elementary: a 1 term,
    whose outer integral is closed (arctan R or Si(R)), minus an e^(-Rt) layer, which one
    adaptive_quad integrates at tol FUBINI_TOL over [0, min(R, 745/R)] (e^(-Rt) < 5e-324
    past it), cut first at the dyadic edges 2^k/R: at most 11 first panels, whatever R.
    """
    R = require_positive(R, "R")
    if order not in _FUBINI_ORDERS:
        raise ValueError(f"order must be 'x_first' or 'alpha_first', got {order!r}")
    head, layer = _FUBINI_ORDERS[order]
    reach = min(R, 745.0 / R)
    res = adaptive_quad(lambda t: layer(R, t), 0.0, reach, tol=FUBINI_TOL,
                        breakpoints=_dyadic_edges(1.0 / R, reach))
    return replace(res, value=head(R) - res.value)
