"""Adaptive panel quadrature with an embedded Gauss-Kronrod error estimate.

The engine evaluates whole batches of panels per call (integrands receive
ndarrays), bisects the panels whose embedded 7/15-point difference is too
large, and sums panel contributions with `math.fsum`, which rounds the exact
sum once, so results are deterministic bit-for-bit for a given panel set.
One bisection loop refines a batch of rows, integrals of f(i, x) over the
same interval; adaptive_quad is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import EPS

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

# Bisection rounds after which adaptive_quad stops refining.
MAX_ROUNDS = 64

# Nodes per block of _quad_rows' initial panels (a block holds >= 1 row) and per
# integrand call of anchored_primitive_values: temporaries get reused, not refaulted.
ROW_BLOCK_NODES = 2 ** 14


class QuadratureError(ArithmeticError):
    """Raised when an integrand produces non-finite values, or when a quadrature
    whose value is kept without its QuadResult does not converge."""


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
    return _quad_rows(lambda _, x: f(x), 1, a, b, tol=tol, max_panel=max_panel,
                      breakpoints=breakpoints, max_panels=max_panels)[0]


def _quad_rows(f, rows, a, b, *, tol, max_panel=None, breakpoints=(), max_panels=200_000):
    """Integrate f(i, x) over [a, b] for each row i < rows: one QuadResult per row.

    f receives a column of row indices broadcast against the Kronrod nodes.
    Every row is refined exactly as adaptive_quad(lambda x: f(i, x), a, b, ...)
    refines it, so its result is the same bit for bit. Rows are refined in
    blocks whose initial panels hold at most ROW_BLOCK_NODES nodes.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return [QuadResult(0.0, 0.0, 1, True)] * rows
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    cuts = {a, b}
    cuts.update(p for p in map(float, breakpoints) if a < p < b)
    edges = _initial_edges(np.array(sorted(cuts)), max_panel)
    block = max(1, ROW_BLOCK_NODES // (NODES.size * (edges.size - 1)))
    results = []
    for first in range(0, rows, block):
        results += _refine_rows(f, first, min(rows, first + block), edges, tol, max_panels,
                                sign)
    return results


def _refine_rows(f, first, stop, edges, tol, max_panels, sign):
    """The bisection loop of _quad_rows for rows first..stop-1.

    Panels of all rows share flat arrays (row index, lo, hi, value, error);
    each round keeps the unsplit panels, then appends the left and the right
    halves, so every row sees its panels in the order a one-row loop has.
    Per-row arrays are indexed by row; their entries below first are unused.
    """
    grid = edges[None].repeat(stop - first, 0)
    lo, hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
    row = np.arange(first, stop).repeat(edges.size - 1)
    vals, errs = _panel_rule(lambda x: f(row[:, None], x), lo, hi)

    for _ in range(MAX_ROUNDS):
        total = np.bincount(row, errs, stop)
        if total.max() <= tol:
            break
        count = np.bincount(row, minlength=stop)
        refine = ~(total <= tol) & (count < max_panels)
        splittable = (hi - lo) > 16.0 * EPS * np.maximum(1.0, np.abs(lo) + np.abs(hi))
        splittable &= refine[row]
        mask = (errs > tol / (2.0 * count[row])) & splittable
        # a row with nothing over its per-panel share splits its worst panel
        refine[row[mask]] = False
        for r in refine.nonzero()[0]:
            cand = (splittable & (row == r)).nonzero()[0]
            if cand.size:
                mask[cand[errs[cand].argmax()]] = True
        if not mask.any():
            break
        keep = ~mask
        split_row, split_lo, split_hi = row[mask], lo[mask], hi[mask]
        mid = 0.5 * (split_lo + split_hi)
        row = np.concatenate([row[keep], split_row, split_row])
        lo = np.concatenate([lo[keep], split_lo, mid])
        hi = np.concatenate([hi[keep], mid, split_hi])
        new = slice(-2 * split_row.size, None)
        new_vals, new_errs = _panel_rule(lambda x: f(row[new, None], x), lo[new], hi[new])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])

    order = row.argsort(kind="stable")  # math.fsum is exact in any order
    vals, errs = vals[order], errs[order]
    results = []
    end = 0
    for n in np.bincount(row, minlength=stop)[first:].tolist():
        start, end = end, end + n
        value, err = math.fsum(vals[start:end].tolist()), math.fsum(errs[start:end].tolist())
        results.append(QuadResult(sign * value, err, n, err <= tol))
    return results


def anchored_primitive_values(f, xs, *, tol=1e-10, max_panel=None, moments=1):
    """Integrals of t^j f(t) from 0 to each x in xs, j = 0..moments-1, on shared knots.

    Builds the sorted knot set {0} ∪ xs, evaluates f once on the panel rule's
    nodes of every inter-knot segment, integrates each moment segment by
    segment (refining segments whose error estimate is out of budget), and
    accumulates signed cumulative sums away from the anchor 0. Returns an
    array of shape (moments,) + xs.shape; row 0 is the primitive of f. Raises
    QuadratureError when a refined segment does not converge.
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
    step = ROW_BLOCK_NODES // NODES.size
    fx = np.concatenate([_call_integrand(f, pts[i:i + step]) for i in range(0, len(pts), step)])
    for j in range(out.shape[0]):
        vals, errs = _panel_sums(fx * pts ** j if j else fx, pts, hw)
        moment = (lambda t, j=j: t ** j * f(t)) if j else f
        for i in np.flatnonzero(errs > budget):
            res = adaptive_quad(moment, seg_lo[i], seg_hi[i], tol=float(budget[i]))
            if not res.converged:
                raise QuadratureError(f"lifting did not converge on [{seg_lo[i]!r}, {seg_hi[i]!r}]")
            vals[i] = res.value
        cum = np.concatenate([[0.0], np.cumsum(vals)])
        out[j] = (cum - cum[anchor])[idx].reshape(xs_arr.shape)
    return out
