"""Distribution / test-function pairing with oscillation-aware quadrature.

pair() integrates phi * f over the (compact) support of f only. The
oscillatory kernels cap panel widths at half the oscillation period pi/r, so
the Kronrod rule always resolves the integrand; the Lorentz kernel instead
seeds panel edges at dyadic multiples of eps around the peak. A ladder of
Lorentz widths is paired as the rows of one quadrature, each width with its
own first cut, so f is evaluated once a round for the whole ladder;
pair_lorentz is its one-width call. sine_decay_fit's samples are the rows
of one quadrature too, one per cutoff r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import require_positive
from .families import lorentz_delta, sinc_delta
from .quadrature import QuadratureError, _first_cut, _quad_rows, adaptive_quad, half_period_cap
from .special import si
from .testfn import Interval, derivative, difference_quotient

__all__ = [
    "RateFit",
    "pair",
    "pair_sinc",
    "pair_split",
    "pair_lorentz",
    "pair_lorentz_ladder",
    "sine_decay_fit",
    "extrapolate_limit",
]

# Absolute tolerance of the sinc pairings and of the sine-decay samples.
PAIR_TOL = 1e-10
SINE_DECAY_TOL = 1e-12


@dataclass(frozen=True)
class RateFit:
    """Log-log decay fit over (param, magnitude) samples.

    Samples with magnitude exactly 0 are excluded from the fit and counted in
    n_excluded; fitted_exponent/fit_residual are NaN if fewer than two samples
    survive.
    """

    samples: tuple
    fitted_exponent: float
    fit_residual: float
    n_excluded: int = 0


def pair(phi, f, *, tol=1e-10, max_panel=None):
    """Pair an integrable phi against a TestFunction f over its support: one QuadResult."""
    return adaptive_quad(lambda x: np.asarray(phi(x), dtype=float) * np.asarray(f(x), dtype=float),
                         f.support.lo, f.support.hi,
                         tol=tol, max_panel=max_panel)


def _sine_cutoff(r, reach):
    """A cutoff r of sin(r x) as a float, checked finite and positive (ValueError), and
    with its nodes r x finite for |x| <= reach (ValueError naming r, before any quadrature)."""
    r = require_positive(r, "r")
    if not math.isfinite(r * reach):
        raise ValueError(f"r = {r:g}: the kernel's nodes r x overflow for |x| <= {reach:g}")
    return r


def pair_sinc(r, f):
    """Pair the truncated-spectrum kernel against f, panels <= pi/r wide; raises ValueError
    first where r M, with M the reach of f's support, overflows."""
    r = _sine_cutoff(r, max(abs(f.support.lo), abs(f.support.hi)))
    return pair(lambda x: sinc_delta(r, x), f, tol=PAIR_TOL, max_panel=half_period_cap(r))


def pair_split(r, f):
    """Split the sinc pairing against a TestFunction f into its two algebraic pieces.

    term1 pairs sin(r x) against the continuous difference quotient of f over
    the symmetric hull [-M, M] of its support; term2 = 2 f(0) Si(r M) / pi
    carries the delta-defining part exactly (through si). term1 + term2 equals the
    direct pairing up to quadrature error. An unconverged term1 raises QuadratureError,
    and an r whose nodes r x overflow on [-M, M] ValueError, as in pair_sinc.
    """
    M = max(abs(f.support.lo), abs(f.support.hi))
    r = _sine_cutoff(r, M)
    g = difference_quotient(f)
    quad = adaptive_quad(lambda x: g(x) * np.sin(r * x), -M, M,
                         tol=PAIR_TOL, max_panel=half_period_cap(r))
    if not quad.converged:
        raise QuadratureError(f"pair_split: the integral at r = {r:g} did not converge")
    return quad.value / math.pi, 2.0 * float(f(0.0)) * si(r * M) / math.pi


def pair_lorentz(eps, f):
    """Pair the Lorentz kernel against a TestFunction f: pair_lorentz_ladder at one width."""
    return pair_lorentz_ladder([eps], f)[0]


def pair_lorentz_ladder(eps_list, f, *, tol=1e-10):
    """Pair the Lorentz kernel at each width of eps_list against a TestFunction f.

    Returns one QuadResult per width. The widths are the rows of one
    quadrature over f's support, so f is evaluated once a round for all of
    them. Each row is cut first at 0 and at the dyadic edges +-eps 2^k inside
    the support, into panels at most 0.5 wide, and is refined as its own
    adaptive_quad call would refine it. A width whose panel sum of the peak,
    2/(pi eps), overflows raises ValueError before any quadrature.
    """
    eps = require_positive(eps_list, "eps")
    if not all(math.isfinite(2.0 / (math.pi * e)) for e in eps.tolist()):
        raise ValueError(f"eps = {eps.min():g}: the kernel's panel sum 2/(pi eps) overflows")
    reach = max(abs(f.support.lo), abs(f.support.hi))
    cuts = []
    for scale in eps.tolist():
        edges = [0.0]
        while scale < reach:
            edges.extend((scale, -scale))
            scale *= 2.0
        cuts.append(_first_cut(f.support.lo, f.support.hi, edges, 0.5))
    return _quad_rows(lambda i, x: lorentz_delta(eps[i], x) * f(x), cuts, tol=tol)


def sine_decay_fit(g, interval, r_list):
    """Measure I(r) = integral of g(x) sin(r x) and fit its decay exponent.

    g must have a jet (a TestFunction or DifferenceQuotient), which gives g'. For
    continuously differentiable g the integration-by-parts constant
    C = |g(hi)| + |g(lo)| + integral |g'| bounds |I(r)| by C/r; a violation raises
    ArithmeticError (a numerical failure, not a property of g), and a sample or the
    bound integral that does not converge QuadratureError. The samples are the rows
    of one quadrature, each r's cut first into panels at most half a period wide, so
    g is evaluated once a round for all of them; the bound integral is cut as the
    largest r's row is, so it sees g' on the scale the samples see g. An r whose nodes
    r x overflow on the interval raises ValueError, as in pair_sinc.
    """
    iv = Interval.coerce(interval)
    rs = [_sine_cutoff(r, max(abs(iv.lo), abs(iv.hi))) for r in r_list]
    if len(rs) < 2 or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_list must be increasing with at least 2 entries")

    r_arr = np.array(rs)
    rows = _quad_rows(lambda i, x: np.asarray(g(x), dtype=float) * np.sin(r_arr[i] * x),
                      [_first_cut(iv.lo, iv.hi, (), half_period_cap(r)) for r in rs],
                      tol=SINE_DECAY_TOL)
    samples = []
    for r, res in zip(rs, rows):
        if not res.converged:
            raise QuadratureError(f"sine_decay_fit: the integral at r = {r:g} did not converge")
        samples.append((r, res.value))

    bound = adaptive_quad(lambda x: np.abs(derivative(g, x, 1)), iv.lo, iv.hi, tol=1e-8,
                          max_panel=half_period_cap(rs[-1]))
    if not bound.converged:
        raise QuadratureError("sine_decay_fit: the bound integral of |g'| did not converge")
    bound_const = abs(float(g(iv.hi))) + abs(float(g(iv.lo))) + bound.value
    for r, value in samples:
        if abs(value) > bound_const / r + 1e-9:
            raise ArithmeticError(
                f"|I({r})| = {abs(value):.3e} exceeds the integration-by-parts "
                f"bound {bound_const / r:.3e}")

    kept = [(r, abs(v)) for r, v in samples if v != 0.0]
    n_excluded = len(samples) - len(kept)
    exponent = residual = math.nan
    if len(kept) >= 2:
        (_, exponent), residual, _ = _line_fit(*np.log(np.array(kept)).T)
    return RateFit(tuple(samples), exponent, residual, n_excluded)


def _line_fit(x, y):
    """Least-squares line y ~ c0 + c1 x: coefficients, rms residual and rank of [1, x]."""
    design = np.column_stack([np.ones_like(x), x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return coef.tolist(), float(np.sqrt(np.mean((design @ coef - y) ** 2))), rank


def extrapolate_limit(samples, mode="inverse_param"):
    """Extrapolate the limit from (param, value) samples.

    Fits value = L + c/param ("inverse_param") or L + c * p * ln(1/p)
    ("log_corrected", for widths p decreasing to 0) by least squares and
    returns L. Requires >= 3 samples with strictly monotone params, and
    refuses a fit whose regressor overflows (a param near 0 or near the float
    range's end) as degenerate, before LAPACK sees it.
    """
    pts = [(float(p), float(v)) for p, v in samples]
    if len(pts) < 3:
        raise ValueError("extrapolate_limit needs at least 3 samples")
    params = np.array([p for p, _ in pts])
    values = np.array([v for _, v in pts])
    if not (np.all(np.isfinite(params)) and np.all(np.isfinite(values))):
        raise ValueError("samples must be finite")
    diffs = np.diff(params)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("params must be strictly monotone")

    if mode == "inverse_param":
        if np.any(params == 0.0):
            raise ValueError("inverse_param mode requires nonzero params")
    elif mode == "log_corrected":
        if np.any(params <= 0.0):
            raise ValueError("log_corrected mode requires positive params")
    else:
        raise ValueError(f"unknown extrapolation mode {mode!r}")
    with np.errstate(over="ignore"):  # an overflow is refused next
        regressor = 1.0 / params if mode == "inverse_param" else params * np.log(1.0 / params)
    if not np.all(np.isfinite(regressor)):
        raise ValueError(f"the {mode} regressor overflows: the fit is degenerate")
    coef, _, rank = _line_fit(regressor, values)
    if rank < 2:
        raise ValueError("singular fit matrix: regressors are degenerate")
    return coef[0]
