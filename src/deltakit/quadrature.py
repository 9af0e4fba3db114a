"""Adaptive panel quadrature with an embedded Gauss-Kronrod error estimate.

The engine evaluates whole batches of panels per call (integrands receive
ndarrays), bisects the panels whose embedded 7/15-point difference is too
large, and sums panel contributions in left-to-right order with `math.fsum`,
so results are deterministic bit-for-bit for a given panel set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "adaptive_quad", "anchored_primitive_values",
           "half_period_cap"]

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (classic QUADPACK dqk15 constants).
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

NODES = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

_EPS = float(np.finfo(float).eps)

# Bisection rounds after which adaptive_quad stops refining.
MAX_ROUNDS = 64


class QuadratureError(ArithmeticError):
    """Raised when an integrand produces non-finite values."""


@dataclass(frozen=True)
class QuadResult:
    """value, its summed |K15 - G7| error estimate, the panel count, and
    converged: whether that estimate met the requested tolerance."""

    value: float
    abs_error_estimate: float
    panels_used: int
    converged: bool


def _call_integrand(f, pts):
    """Evaluate f on an ndarray of points, tolerating scalar-only callables."""
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(f(pts), dtype=float)
            if out.shape == pts.shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = pts.ravel()
        out = np.fromiter((np.asarray(f(t), dtype=float).item() for t in flat),
                          dtype=float, count=flat.size)
    return out.reshape(pts.shape)


def _panel_nodes(lo, hi):
    """Kronrod nodes of a batch of panels (one row each) and their half-widths."""
    hw = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + hw[:, None] * NODES, hw


def _panel_sums(fx, pts, hw):
    """Kronrod-15 values and |K15 - G7| error estimates from node values fx."""
    # row-wise reductions (not matmul): results are independent of batch shape.
    # One temporary serves both weighted sums; fx is never written, since an
    # integrand may return its argument pts.
    weighted = fx * KRONROD_WEIGHTS
    k15 = hw * weighted.sum(axis=1)
    if not np.isfinite(k15).all():
        bad = pts[~np.isfinite(fx)]
        if bad.size:
            raise QuadratureError(f"integrand returned a non-finite value near x={bad[0]!r}")
    np.multiply(fx, GAUSS_WEIGHTS, out=weighted)
    g7 = hw * weighted.sum(axis=1)
    return k15, np.abs(k15 - g7)


def _panel_rule(f, lo, hi):
    """Kronrod-15 values and |K15 - G7| error estimates for a batch of panels."""
    pts, hw = _panel_nodes(lo, hi)
    return _panel_sums(_call_integrand(f, pts), pts, hw)


def _initial_edges(edges, max_panel):
    """Panel edges of sorted, distinct edges. With max_panel > 0 each segment
    [lo, hi] is cut into n_sub = ceil((hi - lo)/max_panel) panels whose k-th
    edge is lo + k*((hi - lo)/n_sub), bit-identical to np.linspace."""
    if max_panel is None or max_panel <= 0:
        return edges
    lo = edges[:-1]
    width = edges[1:] - lo
    n_sub = np.maximum(1, np.ceil(width / max_panel)).astype(int)
    k = np.arange(n_sub.sum()) - (n_sub.cumsum() - n_sub).repeat(n_sub)
    refined = lo.repeat(n_sub) + k * (width / n_sub).repeat(n_sub)
    return np.concatenate((refined, edges[-1:]))


def half_period_cap(r):
    """Initial panel width for an integrand oscillating like sin(r x): at
    most half its period pi/r, and never wider than 0.5."""
    return min(0.5, math.pi / r)


def adaptive_quad(f, a, b, *, tol=1e-10, max_panel=None, breakpoints=(),
                  max_panels=200_000):
    """Integrate f over [a, b] adaptively.

    max_panel caps the initial panel width (half-period capping for
    oscillatory integrands); breakpoints seed extra panel edges (kinks,
    near-singular scales). The returned error estimate is the sum of the
    per-panel |K15 - G7| differences, which is conservative for smooth
    integrands.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return QuadResult(0.0, 0.0, 1, True)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    cuts = {a, b}
    cuts.update(p for p in map(float, breakpoints) if a < p < b)
    edges = _initial_edges(np.array(sorted(cuts)), max_panel)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, lo, hi)

    for _ in range(MAX_ROUNDS):
        total_err = float(errs.sum())
        if total_err <= tol or lo.size >= max_panels:
            break
        splittable = (hi - lo) > 16.0 * _EPS * np.maximum(1.0, np.abs(lo) + np.abs(hi))
        mask = (errs > tol / (2.0 * lo.size)) & splittable
        if not mask.any():
            if not splittable.any():
                break
            worst = np.argmax(np.where(splittable, errs, -1.0))
            mask = np.zeros(lo.size, dtype=bool)
            mask[worst] = True
        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[~mask], lo[mask], mid])
        new_hi = np.concatenate([hi[~mask], mid, hi[mask]])
        new_vals, new_errs = _panel_rule(f, np.concatenate([lo[mask], mid]),
                                         np.concatenate([mid, hi[mask]]))
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
        lo, hi = new_lo, new_hi

    order = np.argsort(lo, kind="stable")
    value = math.fsum(vals[order].tolist())
    err = math.fsum(errs[order].tolist())
    return QuadResult(sign * value, err, int(lo.size), err <= tol)


def anchored_primitive_values(f, xs, *, tol=1e-10, max_panel=None, moments=1):
    """Integrals of t^j f(t) from 0 to each x in xs, j = 0..moments-1, on shared knots.

    Builds the sorted knot set {0} ∪ xs, evaluates f once on the panel rule's
    nodes of every inter-knot segment, integrates each moment segment by
    segment (refining segments whose error estimate is out of budget), and
    accumulates signed cumulative sums away from the anchor 0. Returns an
    array of shape (moments,) + xs.shape; row 0 is the primitive of f.
    """
    xs_arr = np.asarray(xs, dtype=float)
    out = np.zeros((int(moments),) + xs_arr.shape)
    knots = np.unique(np.concatenate([xs_arr.ravel(), [0.0]]))
    if knots.size == 1:
        return out
    knots_fine = _initial_edges(knots, max_panel)
    seg_lo, seg_hi = knots_fine[:-1], knots_fine[1:]
    total_len = knots_fine[-1] - knots_fine[0]
    budget = tol * np.maximum((seg_hi - seg_lo) / total_len, 1e-3 / seg_lo.size)
    anchor = np.searchsorted(knots_fine, 0.0)
    idx = np.searchsorted(knots_fine, xs_arr.ravel())

    pts, hw = _panel_nodes(seg_lo, seg_hi)
    fx = _call_integrand(f, pts)
    for j in range(out.shape[0]):
        vals, errs = _panel_sums(fx * pts ** j if j else fx, pts, hw)
        moment = (lambda t, j=j: t ** j * f(t)) if j else f
        for i in np.flatnonzero(errs > budget):
            vals[i] = adaptive_quad(moment, seg_lo[i], seg_hi[i], tol=float(budget[i])).value
        cum = np.concatenate([[0.0], np.cumsum(vals)])
        out[j] = (cum - cum[anchor])[idx].reshape(xs_arr.shape)
    return out
