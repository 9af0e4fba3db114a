"""Distribution / test-function pairing with oscillation-aware quadrature.

pair() integrates phi * f over the (compact) support of f only. The
oscillatory kernels cap panel widths at half the oscillation period pi/r, so
the Kronrod rule always resolves the integrand; the Lorentz kernel instead
seeds panel edges at dyadic multiples of eps around the peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import require_positive
from .families import lorentz_delta, sinc_delta
from .quadrature import adaptive_quad, half_period_cap
from .special import si
from .testfn import Interval, derivative, difference_quotient

__all__ = [
    "RateFit",
    "pair",
    "pair_sinc",
    "pair_split",
    "pair_lorentz",
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


def pair(phi, f, *, tol=1e-10, max_panel=None, breakpoints=()):
    """Pair an integrable phi against a TestFunction f over its support: one QuadResult."""
    return adaptive_quad(lambda x: np.asarray(phi(x), dtype=float) * np.asarray(f(x), dtype=float),
                         f.support.lo, f.support.hi,
                         tol=tol, max_panel=max_panel, breakpoints=breakpoints)


def pair_sinc(r, f):
    """Pair the truncated-spectrum kernel against f, panels <= pi/r wide."""
    r = require_positive(r, "r")
    return pair(lambda x: sinc_delta(r, x), f, tol=PAIR_TOL, max_panel=half_period_cap(r))


def pair_split(r, f):
    """Split the sinc pairing against a TestFunction f into its two algebraic pieces.

    term1 pairs sin(r x) against the continuous difference quotient of f over
    the symmetric hull [-M, M] of its support; term2 = 2 f(0) Si(r M) / pi
    carries the delta-defining part exactly (through si). term1 + term2
    equals the direct pairing up to quadrature error.
    """
    r = require_positive(r, "r")
    M = max(abs(f.support.lo), abs(f.support.hi))
    g = difference_quotient(f)
    quad = adaptive_quad(lambda x: g(x) * np.sin(r * x), -M, M,
                         tol=PAIR_TOL, max_panel=half_period_cap(r))
    term1 = quad.value / math.pi
    term2 = 2.0 * float(f(0.0)) * si(r * M) / math.pi
    return term1, term2


def pair_lorentz(eps, f, *, tol=1e-10):
    """Pair the Lorentz kernel against a TestFunction f, with panel edges refined near 0."""
    eps = require_positive(eps, "eps")
    reach = max(abs(f.support.lo), abs(f.support.hi))
    edges = [0.0]
    scale = eps
    while scale < reach:
        edges.extend((scale, -scale))
        scale *= 2.0
    return pair(lambda x: lorentz_delta(eps, x), f, tol=tol,
                max_panel=0.5, breakpoints=edges)


def sine_decay_fit(g, interval, r_list):
    """Measure I(r) = integral of g(x) sin(r x) and fit its decay exponent.

    For continuously differentiable g the integration-by-parts constant
    C = |g(hi)| + |g(lo)| + integral |g'| bounds |I(r)| by C/r; the bound is
    verified and a violation raises ArithmeticError (it would indicate a
    numerical failure, not a property of g).
    """
    iv = Interval.coerce(interval)
    rs = [float(r) for r in r_list]
    if len(rs) < 2 or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_list must be increasing with at least 2 entries")

    samples = []
    for r in rs:
        res = adaptive_quad(lambda x: np.asarray(g(x), dtype=float) * np.sin(r * x),
                            iv.lo, iv.hi, tol=SINE_DECAY_TOL, max_panel=half_period_cap(r))
        samples.append((r, res.value))

    gprime_l1 = adaptive_quad(lambda x: np.abs(derivative(g, x, 1)),
                              iv.lo, iv.hi, tol=1e-8).value
    bound_const = abs(float(g(iv.hi))) + abs(float(g(iv.lo))) + gprime_l1
    for r, value in samples:
        if abs(value) > bound_const / r + 1e-9:
            raise ArithmeticError(
                f"|I({r})| = {abs(value):.3e} exceeds the integration-by-parts "
                f"bound {bound_const / r:.3e}")

    kept = [(r, abs(v)) for r, v in samples if v != 0.0]
    n_excluded = len(samples) - len(kept)
    if len(kept) >= 2:
        lr = np.log([r for r, _ in kept])
        lv = np.log([v for _, v in kept])
        design = np.column_stack([np.ones_like(lr), lr])
        coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
        residual = float(np.sqrt(np.mean((design @ coef - lv) ** 2)))
        exponent = float(coef[1])
    else:
        exponent = math.nan
        residual = math.nan
    return RateFit(tuple(samples), exponent, residual, n_excluded)


def extrapolate_limit(samples, mode="inverse_param"):
    """Extrapolate the limit from (param, value) samples.

    Fits value = L + c/param ("inverse_param") or L + c * p * ln(1/p)
    ("log_corrected", for widths p decreasing to 0) by least squares and
    returns L. Requires >= 3 samples with strictly monotone params.
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
        regressor = 1.0 / params
    elif mode == "log_corrected":
        if np.any(params <= 0.0):
            raise ValueError("log_corrected mode requires positive params")
        regressor = params * np.log(1.0 / params)
    else:
        raise ValueError(f"unknown extrapolation mode {mode!r}")

    design = np.column_stack([np.ones_like(regressor), regressor])
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2:
        raise ValueError("singular fit matrix: regressors are degenerate")
    return float(coef[0])
