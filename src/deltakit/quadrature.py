"""Adaptive panel quadrature with an embedded Gauss-Kronrod error estimate.

The engine evaluates whole batches of panels per call (integrands receive
ndarrays), bisects the panels whose embedded 7/15-point difference is too
large, and sums panel contributions with `math.fsum`, which rounds the exact
sum once, so results are deterministic bit-for-bit for a given panel set.
One bisection loop refines every panel set, each row from the first cut, the
sorted panel edges, that its caller hands it, on a panel rule: Kronrod-15 for
rows, integrals of f(i, x) whose cuts _first_cut builds (adaptive_quad is the
one-row call, and the one place that checks and orients endpoints), the
Chebyshev coefficients of anchored_primitive_values, or the jets of
testfn.DifferenceQuotient, whose stacked integrands (..., panels, 15)
_panel_rule sums row by row like (panels, 15).

anchored_primitive_values integrates from 0 to many points at once with
piecewise Chebyshev interpolants and their exact antiderivatives (Clenshaw &
Curtis 1960; Trefethen, Approximation Theory and Approximation Practice,
2013). Its cosine transform, antiderivative recurrence and Clenshaw
evaluation also build special.si's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import EPS, float_if_0d, require_count

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

# Bisection rounds and panel count at which the bisection loop stops.
MAX_ROUNDS = 64
MAX_PANELS = 200_000

# Nodes per block of _quad_rows' initial panels (a block holds >= 1 row):
# temporaries get reused, not refaulted.
ROW_BLOCK_NODES = 2 ** 14

# Chebyshev points per panel of anchored_primitive_values (degree 24 series).
LIFT_POINTS = 25


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
            if out.shape[out.ndim - pts.ndim:] == pts.shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = pts.ravel()
        out = np.fromiter((np.asarray(f(t), dtype=float).item() for t in flat),
                          dtype=float, count=flat.size)
    return out.reshape(pts.shape)


def _panel_rule(f, lo, hi):
    """Kronrod-15 values and |K15 - G7| error estimates for a batch of panels; f may stack
    its values as (..., panels, 15), and each row is summed as a call of its own would be."""
    hw = 0.5 * (hi - lo)
    pts = (0.5 * (lo + hi))[:, None] + hw[:, None] * NODES
    fx = _call_integrand(f, pts)
    # row-wise reductions (not matmul): results are independent of batch shape.
    # One temporary serves both weighted sums; fx is never written, since an
    # integrand may return its argument pts.
    weighted = fx * KRONROD_WEIGHTS
    k15 = hw * weighted.sum(axis=-1)
    if not np.isfinite(k15).all():
        bad = np.broadcast_to(pts, fx.shape)[~np.isfinite(fx)]
        if bad.size:
            raise QuadratureError(f"integrand returned a non-finite value near x={float(bad[0])!r}")
    np.multiply(fx, GAUSS_WEIGHTS, out=weighted)
    g7 = hw * weighted.sum(axis=-1)
    return k15, np.abs(k15 - g7)


def _panel_counts(edges, max_panel):
    """Panels per segment [lo, hi] of sorted, distinct edges, as floats counted before
    any edge is built: ceil((hi - lo)/max_panel), at least 1; one each for None or
    max_panel <= 0 (no cut), and NaN raises ValueError."""
    if max_panel is not None and math.isnan(max_panel):
        raise ValueError(f"max_panel must be a number or None, got {max_panel!r}")
    if max_panel is None or max_panel <= 0:
        return np.ones(edges.size - 1)
    return np.maximum(1.0, np.ceil((edges[1:] - edges[:-1]) / max_panel))


def _initial_edges(edges, n_sub):
    """Panel edges of sorted, distinct edges, each segment [lo, hi] cut into its
    n_sub (from _panel_counts) panels, whose k-th edge is lo + k*((hi - lo)/n_sub),
    bit-identical to np.linspace."""
    if (n_sub == 1.0).all():
        return edges
    n_sub = n_sub.astype(int)
    lo = edges[:-1]
    width = edges[1:] - lo
    k = np.arange(n_sub.sum()) - (n_sub.cumsum() - n_sub).repeat(n_sub)
    refined = lo.repeat(n_sub) + k * (width / n_sub).repeat(n_sub)
    return np.concatenate((refined, edges[-1:]))


def half_period_cap(r):
    """Initial panel width for an integrand oscillating like sin(r x): at
    most half its period pi/r, and never wider than 0.5."""
    return min(0.5, math.pi / r)


def adaptive_quad(f, a, b, *, tol=1e-10, max_panel=None, breakpoints=(),
                  max_panels=MAX_PANELS):
    """Integrate f over [a, b] adaptively.

    max_panel caps the initial panel width (half-period capping for
    oscillatory integrands), widened where that first cut would exceed
    max_panels; breakpoints seed extra panel edges (kinks, near-singular
    scales). The returned error estimate is the sum of the per-panel
    |K15 - G7| differences, which is conservative for smooth integrands,
    and converged says whether it met tol. b < a gives the negated result
    over [b, a], and a == b an exact, converged 0.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return QuadResult(0.0, 0.0, 1, True)
    lo, hi = min(a, b), max(a, b)
    res, = _quad_rows(lambda _, x: f(x), [_first_cut(lo, hi, breakpoints, max_panel, max_panels)],
                      tol=tol, max_panels=max_panels)
    return res if a < b else replace(res, value=-res.value)


def _quad_rows(f, cuts, *, tol, max_panels=MAX_PANELS):
    """Integrate f(i, x) over row i's first cut cuts[i], the sorted panel edges that
    _first_cut builds: one QuadResult per row.

    f receives a column of row indices broadcast against the Kronrod nodes.
    Every row is refined exactly as adaptive_quad refines its one row, so a
    row whose cut is built as adaptive_quad(lambda x: f(i, x), a, b, ...)
    builds it gives that call's result bit for bit. Rows are refined in
    blocks whose first cuts hold at most ROW_BLOCK_NODES nodes in all (a block
    holds at least one row).
    """
    ends = np.cumsum([len(c) - 1 for c in cuts])  # the panels of rows 0..i
    results = []
    first = p0 = 0  # the block's first row and first panel
    while first < len(cuts):
        # the block ends before the row that would take it past ROW_BLOCK_NODES
        stop = max(first + 1, int(ends.searchsorted(p0 + ROW_BLOCK_NODES // NODES.size,
                                                    side="right")))
        row, _, _, vals, errs = _refine_rows(
            lambda r, lo, hi: _panel_rule(lambda x: f(first + r[:, None], x), lo, hi),
            cuts[first:stop], tol, max_panels)
        end = 0
        for n in np.bincount(row, minlength=stop - first).tolist():
            start, end = end, end + n
            value, err = math.fsum(vals[start:end].tolist()), math.fsum(errs[start:end].tolist())
            results.append(QuadResult(value, err, n, err <= tol))
        first, p0 = stop, int(ends[stop - 1])
    return results


def _first_cut(a, b, breakpoints, max_panel, max_panels=MAX_PANELS):
    """The first panel edges of [a, b], a < b: cut at the breakpoints inside it and
    into panels no wider than max_panel, a cap widened where that cut would exceed
    max_panels."""
    cuts = np.array(sorted({a, b}.union(p for p in map(float, breakpoints) if a < p < b)))
    n_sub = _panel_counts(cuts, max_panel)
    if n_sub.sum() > max_panels:
        # widen the cap: sum(ceil(w / cap)) over the segments is below sum(w) / cap plus
        # their count, so the first cut fits; 4 EPS covers the rounding of each w / cap
        spare = max_panels - (cuts.size - 2)
        n_sub = _panel_counts(cuts, (b - a) / spare * (1.0 + 4.0 * EPS) if spare > 0 else None)
    return _initial_edges(cuts, n_sub)


def _refine_rows(rule, cuts, tol, max_panels):
    """The one bisection loop: the panels of rows 0..len(cuts)-1, where row i is cut
    first at the sorted edges cuts[i].

    rule(row, lo, hi) gives each panel's value (a float, or a row of Chebyshev
    coefficients or jet values) and error estimate. Panels of all rows share
    flat arrays, laid out from the concatenated cuts by a fixed number of
    array operations, not one per row. A round splits the panels over their
    row's share of tol that are wide enough to split, in rows over tol and
    below max_panels, each in place, and calls rule on the new halves only;
    a row with no such panel stops there, unconverged. So each row's panels
    stay contiguous, rows in order, and tile its interval from left to right.
    Returns row, lo, hi, values, errors.
    """
    rows = len(cuts)
    edges = np.concatenate(cuts, dtype=float)
    row = np.arange(rows).repeat(np.fromiter(map(len, cuts), int, rows) - 1)
    at = row + np.arange(row.size)  # left edges: each row before has one more edge than panels
    lo, hi = edges[at], edges[at + 1]
    vals, errs = rule(row, lo, hi)

    for _ in range(MAX_ROUNDS):
        total = np.bincount(row, errs, rows)
        if total.max() <= tol:
            break
        count = np.bincount(row, minlength=rows)
        room = np.where(total <= tol, 0, max_panels - count)
        splittable = (hi - lo) > 16.0 * EPS * (np.abs(lo) + np.abs(hi))
        mask = (errs > tol / (2.0 * count[row])) & (room[row] > 0) & splittable
        if (np.bincount(row[mask], minlength=rows) > room).any():
            # a split adds one panel: a row near the cap splits only its worst
            # panels, as many as it has room for (ties go to the leftmost)
            cand = mask.nonzero()[0][np.lexsort((-errs[mask], row[mask]))]
            rank = np.arange(cand.size) - row[cand].searchsorted(row[cand])
            mask[cand[rank >= room[row[cand]]]] = False
        if not mask.any():
            break
        left = mask.nonzero()[0]
        left += np.arange(left.size)  # each split panel's left half, once the halves are in place
        new = np.concatenate([left, left + 1])
        row, lo, hi, vals, errs = (v.repeat(mask + 1, axis=0) for v in (row, lo, hi, vals, errs))
        hi[left] = lo[left + 1] = 0.5 * (lo[left] + hi[left])
        vals[new], errs[new] = rule(row[new], lo[new], hi[new])
    return row, lo, hi, vals, errs


def anchored_primitive_values(f, xs, *, tol=1e-10, max_panel=None, levels=1):
    """The levels-fold primitive of f anchored at 0, at each x in xs, on Chebyshev panels.

    Cuts [min(xs, 0), max(xs, 0)] at 0 and into panels no wider than
    max_panel, samples f at LIFT_POINTS first-kind Chebyshev points of each
    panel, and refines the panels in the bisection loop of adaptive_quad: a
    panel's error estimate is 2h times its last two coefficients,
    |c_(n-2)| + |c_(n-1)|, and the estimates must sum to at most tol. Each
    level integrates every panel's series exactly and adds the panel
    integrals summed from the anchor 0. Returns the last level at xs: an
    array of xs's shape, or a float for a scalar. Raises ValueError for a
    non-finite x, and QuadratureError when the first cut would exceed
    MAX_PANELS (before f is sampled) or, naming the worst panel, when the
    estimates still sum past tol once the loop stops.
    """
    xs_arr = np.asarray(xs, dtype=float)
    if not np.isfinite(xs_arr).all():
        bad = xs_arr[~np.isfinite(xs_arr)][0]
        raise ValueError(f"lifting points must be finite, got x={float(bad)!r}")
    levels = require_count(levels, "levels")
    lo_end, hi_end = xs_arr.min(initial=0.0), xs_arr.max(initial=0.0)
    if lo_end == hi_end:
        return float_if_0d(np.zeros(xs_arr.shape))
    # a sorted set: np.unique (numpy 2.4) left a deck's peak RSS 1.6 MB higher
    cuts = np.array(sorted({lo_end, 0.0, hi_end}))
    n_sub = _panel_counts(cuts, max_panel)
    if n_sub.sum() > MAX_PANELS:
        raise QuadratureError(f"lifting [{float(lo_end)!r}, {float(hi_end)!r}] at max_panel "
                              f"{max_panel!r} needs {n_sub.sum():.17g} panels, over {MAX_PANELS}")
    edges = _initial_edges(cuts, n_sub)
    _, lo, hi, series, errs = _refine_rows(lambda _, lo, hi: _lift_coefficients(f, lo, hi),
                                           [edges], tol, MAX_PANELS)
    if errs.sum() > tol:
        i = errs.argmax()
        raise QuadratureError(f"lifting did not converge on [{float(lo[i])!r}, {float(hi[i])!r}]")

    half = (0.5 * (hi - lo))[:, None]
    anchor = lo.searchsorted(0.0)
    for _ in range(levels):
        series = _chebyshev_antiderivative(series, half)
        # each panel's series is 0 at its left end, and its integral is its value at the right end
        series[:, 0] = -(series[:, 1:] @ (-1.0) ** np.arange(1, series.shape[1]))
        start = np.concatenate([[0.0], series.sum(axis=-1).cumsum()])
        series[:, 0] += start[:-1] - start[anchor]
    flat = xs_arr.ravel()
    k = np.clip(lo.searchsorted(flat, side="right") - 1, 0, lo.size - 1)
    t = (flat - lo[k]) / half[k, 0] - 1.0
    return float_if_0d(_clenshaw(series.T.copy(), k, t).reshape(xs_arr.shape))


def _lift_coefficients(f, lo, hi):
    """Chebyshev coefficients of f on each panel [lo, hi], shape (panels, n), from
    one integrand call, and each panel's error estimate (hi - lo) times its
    last two coefficients, |c_(n-2)| + |c_(n-1)|."""
    half = 0.5 * (hi - lo)
    pts = (lo + half)[:, None] + half[:, None] * _LIFT_COSINES[1]
    fx = _call_integrand(f, pts)
    if not np.isfinite(fx).all():
        raise QuadratureError(
            f"integrand returned a non-finite value near x={float(pts[~np.isfinite(fx)][0])!r}")
    coef = _chebyshev_coefficients(fx, _LIFT_COSINES)
    return coef, (hi - lo) * np.abs(coef[:, -2:]).sum(axis=-1)


def _chebyshev_cosines(n):
    """Row m holds T_m at the n first-kind Chebyshev points cos((i + 1/2) pi / n):
    row 1 is the points themselves, in decreasing order."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return np.cos(np.outer(np.arange(n), theta))


_LIFT_COSINES = _chebyshev_cosines(LIFT_POINTS)


def _chebyshev_coefficients(values, cosines):
    """Coefficients c_0..c_(n-1) of the interpolant through values (last axis: the
    n points of _chebyshev_cosines) by the cosine transform."""
    c = (2.0 / cosines.shape[0]) * values @ cosines.T
    c[..., 0] *= 0.5
    return c


def _chebyshev_antiderivative(c, half):
    """Coefficients of an antiderivative of the series c_0..c_(n-1) on pieces of
    half-width half, by the recurrence C_m = h (c_(m-1) - c_(m+1)) / (2m) with c_0
    doubled and c_n = c_(n+1) = 0; the constant term C_0 is left 0."""
    n = c.shape[-1]
    ext = np.zeros(c.shape[:-1] + (n + 2,))  # zeros and a slice copy: np.pad is slower
    ext[..., :n] = c
    ext[..., 0] *= 2.0
    coef = np.zeros(c.shape[:-1] + (n + 1,))
    coef[..., 1:] = half * (ext[..., :n] - ext[..., 2:]) / (2 * np.arange(1, n + 1))
    return coef


def _clenshaw(coef, k, t):
    """Sum of coef[m][..., k] T_m(t) by Clenshaw's recurrence: row m of coef holds
    T_m's coefficient of every piece on its last axis (of every series on the
    ones before), and k picks each point's piece."""
    t2 = t + t
    shape = coef.shape[1:-1] + t.shape
    b0, b1, b2 = np.empty(shape), np.zeros(shape), np.zeros(shape)
    for row in coef[:0:-1]:  # b_k goes into b_(k+2)'s buffer
        np.add(row.take(k, axis=-1), np.multiply(t2, b1, out=b0), out=b0)
        b0 -= b2
        b0, b1, b2 = b2, b0, b1
    return coef[0][..., k] + (t * b1 - b2)
