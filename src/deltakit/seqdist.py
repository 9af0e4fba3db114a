"""Sequential representation of distributions: fundamental sequences.

A FundamentalSeq holds a sequence of continuous terms together with its
anchored primitive tower: primitive(0) is the term itself, primitive(j) is
integrated from 0, and primitive_order is the level k at which the primitives
converge almost uniformly. Checks run on uniform grids of DEFAULT_GRID = 2001
points over finitely many intervals; "almost uniform" is only ever probed
on the intervals supplied, which is the unavoidable finite truncation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import require_count, require_positive
from .families import (half_abs, lorentz_delta_n, lorentz_delta_prime, lorentz_kink,
                       lorentz_step, sinc_delta, sinc_delta_prime, sinc_kink, sinc_step)
from .pairing import extrapolate_limit
from .quadrature import adaptive_quad, anchored_primitive_values, half_period_cap
from .special import si
from .testfn import MAX_DERIVATIVE_ORDER, Interval, derivative

__all__ = [
    "FundamentalSeq",
    "OffOriginBound",
    "GridReport",
    "sinc_delta_seq",
    "sinc_step_seq",
    "lorentz_delta_seq",
    "zero_seq",
    "damped_cos_seq",
    "scaled_cos_seq",
    "check_fundamental",
    "check_equivalent",
    "seq_derivative",
    "pair_by_parts",
    "check_zero_off_origin",
    "grid_sup",
]

DEFAULT_GRID = 2001
LIFT_TOL = 1e-10
# check_zero_off_origin probes |x| in [a, a + OFF_ORIGIN_REACH]; a sequence
# without a bound must end below OFF_ORIGIN_TOL there.
OFF_ORIGIN_REACH = 5.0
OFF_ORIGIN_TOL = 1e-8
# pair_by_parts: quadrature tolerance, and the n at which it samples a tower
# without a declared limit.
PARTS_TOL = 1e-9
PARTS_LADDER = (100, 200, 400, 800)


@dataclass(frozen=True)
class GridReport:
    """A check's interval, n_values (1..n_max), per-n sup_errors, verdict, bound_used (what
    was measured), tol, cauchy_tail (check_fundamental's) and bounds, the per-n majorant
    check_zero_off_origin held the sups to (None without one; not in the repr)."""

    interval: tuple
    n_values: tuple
    sup_errors: tuple
    verdict: bool
    bound_used: str
    tol: float | None = None
    cauchy_tail: tuple | None = None
    bounds: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True)
class OffOriginBound:
    """What check_zero_off_origin measures on |x| >= a, and the bound it must obey.

    sup(ns, lo, hi) is the measured sup over lo <= |x| <= hi for each n in ns
    (grid_sup samples one); bound(ns, a) must hold for every n (to 1e-12), and
    the last sup must also lie within max(OFF_ORIGIN_TOL, bound), or, with bound
    None, within OFF_ORIGIN_TOL. text is reported as GridReport.bound_used.
    """

    sup: Callable
    bound: Callable | None
    text: str


class FundamentalSeq:
    """Indexed sequence of continuous functions with an anchored primitive tower.

    term(n, x) evaluates the n-th member; primitives holds closed-form
    anchored primitives for levels 1..len(primitives). A level beyond the
    closed forms is lifted numerically from the top closed level, all
    missing levels in one anchored_primitive_values call that integrates
    its Chebyshev panels once per level (tolerance LIFT_TOL). off_origin,
    an OffOriginBound, is what check_zero_off_origin holds the sequence to
    away from the origin; by default its terms must fall below
    OFF_ORIGIN_TOL. label is only displayed.
    """

    def __init__(self, term, primitive_order, primitives=(),
                 limit_of_primitives=None, term_derivative=None,
                 label="custom", panel_hint=None, off_origin=None):
        self.term = term
        self.primitive_order = require_count(primitive_order, "primitive_order", minimum=0)
        self.primitives = tuple(primitives)
        self.limit_of_primitives = limit_of_primitives
        self.term_derivative = term_derivative
        self.label = label
        self.off_origin = off_origin or OffOriginBound(grid_sup(term), None,
                                                       "sup |term(n, x)| below tol")
        self.panel_hint = panel_hint

    def __repr__(self):
        return f"FundamentalSeq({self.label}, k={self.primitive_order})"

    def _max_panel(self, n):
        return self.panel_hint(n) if self.panel_hint is not None else 0.5

    def primitive(self, level, n, x):
        """Anchored primitive of the given level: primitive(0) is the term."""
        level = require_count(level, "primitive level", minimum=0)
        if level == 0:
            return self.term(n, x)
        top = len(self.primitives)
        if level <= top:
            return self.primitives[level - 1](n, x)
        return anchored_primitive_values(lambda t: self.primitive(top, n, t), x, tol=LIFT_TOL,
                                         max_panel=self._max_panel(n), levels=level - top)


def grid_sup(quantity):
    """A sampled OffOriginBound.sup, only a lower bound: max |quantity(n, x)|
    over DEFAULT_GRID // 2 evenly spaced |x| in [lo, hi], on both sides of 0."""
    def sup(ns, lo, hi):
        xs = np.linspace(lo, hi, DEFAULT_GRID // 2)
        xs = np.concatenate([-xs[::-1], xs])
        return [np.max(np.abs(quantity(int(n), xs))) for n in ns]
    return sup


def _dirichlet_tail_sup(ns, lo, hi):
    """Per n, the sup of |Si(n x)/pi - 1/2| on [lo, hi]: at n lo, n hi or the first m pi
    between, as Si is monotone between its extrema k pi and |Si(k pi) - pi/2| falls in k."""
    lo_u, hi_u = ns * lo, ns * hi
    u = np.stack([lo_u, hi_u, np.clip(np.ceil(lo_u / math.pi) * math.pi, lo_u, hi_u)])
    return np.max(np.abs(si(u) / math.pi - 0.5), axis=0)


# The truncated-spectrum terms oscillate without decay off the origin, so
# their smoothed half-steps are held against the exact step instead.
_DIRICHLET_TAIL = OffOriginBound(
    sup=_dirichlet_tail_sup,
    bound=lambda ns, a: 2.0 / (math.pi * ns * a),
    text="Dirichlet tail bound 2/(pi n a) on |step_n - step|")


def sinc_delta_seq():
    """The truncated-spectrum delta sequence with its closed tower (k = 2)."""
    return FundamentalSeq(
        term=sinc_delta, primitive_order=2,
        primitives=(sinc_step, sinc_kink),
        limit_of_primitives=half_abs,
        term_derivative=sinc_delta_prime,
        label="fourier_kernel",
        panel_hint=half_period_cap,
        off_origin=_DIRICHLET_TAIL)


def sinc_step_seq():
    """The smoothed half-step sequence (k = 1, kink primitives)."""
    return FundamentalSeq(
        term=sinc_step, primitive_order=1,
        primitives=(sinc_kink,),
        limit_of_primitives=half_abs,
        term_derivative=sinc_delta,
        label="fourier_step",
        panel_hint=half_period_cap,
        off_origin=_DIRICHLET_TAIL)


def lorentz_delta_seq():
    """The Lorentz delta sequence (eps = 1/n view) with its closed tower."""
    return FundamentalSeq(
        term=lorentz_delta_n, primitive_order=2,
        primitives=(lorentz_step, lorentz_kink),
        limit_of_primitives=half_abs,
        term_derivative=lorentz_delta_prime,
        label="lorentz",
        # the kernel decreases away from 0: its sup on |x| >= a is its peak at a, < 1/(pi n a^2)
        off_origin=OffOriginBound(lambda ns, lo, hi: lorentz_delta_n(ns, lo),
                                  lambda ns, a: 1.0 / (math.pi * ns * a * a),
                                  "majorant 1/(pi n a^2) of the kernel's peak at |x| = a"))


def zero_seq():
    """The constant zero sequence (k = 0); every anchored primitive is zero too."""
    zero = lambda n, x: np.zeros_like(np.asarray(x, dtype=float))
    return FundamentalSeq(term=zero, primitive_order=0, primitives=(zero,) * MAX_DERIVATIVE_ORDER,
                          limit_of_primitives=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          term_derivative=zero, label="zero")


def damped_cos_seq():
    """Terms -cos(n x)/n: converge almost uniformly to 0 already at k = 0."""
    return FundamentalSeq(
        term=lambda n, x: -np.cos(n * np.asarray(x, dtype=float)) / n,
        primitive_order=0,
        limit_of_primitives=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        term_derivative=lambda n, x: np.sin(n * np.asarray(x, dtype=float)),
        label="damped_cos",
        panel_hint=half_period_cap)


def scaled_cos_seq():
    """Terms n cos(n x): fundamental at k = 2, equivalent to the zero sequence."""
    return FundamentalSeq(
        term=lambda n, x: n * np.cos(n * np.asarray(x, dtype=float)),
        primitive_order=2,
        primitives=(lambda n, x: np.sin(n * np.asarray(x, dtype=float)),
                    lambda n, x: (1.0 - np.cos(n * np.asarray(x, dtype=float))) / n),
        limit_of_primitives=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        term_derivative=lambda n, x: -n * n * np.sin(n * np.asarray(x, dtype=float)),
        label="scaled_cos",
        panel_hint=half_period_cap)


def _grid(interval):
    iv = Interval.coerce(interval)
    return iv, np.linspace(iv.lo, iv.hi, DEFAULT_GRID)


def _tail_diameters(rows, size, target=None):
    """Reduce rows given from the last member down to the first, keeping none.

    Returns cauchy, where cauchy[i] is the sup-grid diameter over members with
    index >= i, and, with a target, each member's sup |member - target| (else
    None). Only the tail's running max and min are held between rows.
    """
    cauchy = np.empty(size)
    errors = None if target is None else np.empty(size)
    hi = lo = None
    for i, row in zip(range(size - 1, -1, -1), rows):
        if hi is None:
            hi, lo = row.copy(), row.copy()
        cauchy[i] = np.max(np.maximum(hi, row, out=hi) - np.minimum(lo, row, out=lo))
        if target is not None:
            errors[i] = np.max(np.abs(row - target))
    return cauchy, errors


def check_fundamental(seq, interval=(-5.0, 5.0), n_max=50, tol=1e-2, *, order=None):
    """Verify almost-uniform convergence of the level-k primitives on a grid.

    Evaluates primitive(order, n, .) for n = n_max down to 1, reducing each
    row as it comes, and checks the sup-norm Cauchy criterion: the tail
    diameter over members n >= n_max/2 must fall below 2*tol (diameter is at
    most twice the distance to a limit). When the level matches the declared
    limit, the sup error against the limit at n_max must also be at most tol,
    whatever the errors before it. Without a limit, the tail diameter must also
    halve from n = 1, or start within tol. n_max must be an integer >= 2.
    """
    n_max = require_count(n_max, "n_max", minimum=2)
    iv, xs = _grid(interval)
    k = seq.primitive_order if order is None else require_count(order, "order", minimum=0)
    limit = seq.limit_of_primitives if k == seq.primitive_order else None
    target = None if limit is None else np.asarray(limit(xs), dtype=float)
    rows = (np.asarray(seq.primitive(k, n, xs), dtype=float) for n in range(n_max, 0, -1))
    cauchy, sup_errors = _tail_diameters(rows, n_max, target)
    half = n_max // 2 - 1
    cauchy_ok = cauchy[half] <= 2.0 * tol

    if limit is not None:
        bound_used = "sup |primitive_k(n, x) - limit(x)| on grid"
        verdict = bool(cauchy_ok and sup_errors[-1] <= tol)
    else:
        sup_errors = cauchy
        bound_used = "sup-norm Cauchy tail diameter on grid"
        decreasing = cauchy[half] <= 0.5 * cauchy[0] or cauchy[0] <= tol
        verdict = bool(cauchy_ok and decreasing)

    return GridReport(interval=(iv.lo, iv.hi), n_values=tuple(range(1, n_max + 1)),
                      sup_errors=tuple(sup_errors.tolist()),
                      verdict=verdict, bound_used=bound_used, tol=float(tol),
                      cauchy_tail=tuple(cauchy.tolist()))


def check_equivalent(a, b, interval=(-5.0, 5.0), n_max=50, tol=1e-2):
    """Check that two fundamental sequences share a common primitive limit.

    Uses the larger of the two primitive orders; the lower tower is lifted by
    further anchored integration (numerically when no closed form exists). It
    passes when the sup difference at n_max is at most tol; n_max must be an integer >= 2.
    """
    n_max = require_count(n_max, "n_max", minimum=2)
    iv, xs = _grid(interval)
    k = max(a.primitive_order, b.primitive_order)
    ns = np.arange(1, n_max + 1)
    level_k = lambda seq, n: np.asarray(seq.primitive(k, int(n), xs), dtype=float)
    sup_diffs = np.array([np.max(np.abs(level_k(a, n) - level_k(b, n))) for n in ns])
    verdict = bool(sup_diffs[-1] <= tol)
    return GridReport(interval=(iv.lo, iv.hi), n_values=tuple(range(1, n_max + 1)),
                      sup_errors=tuple(sup_diffs.tolist()), verdict=verdict,
                      bound_used=f"sup |primitive_{k}(a) - primitive_{k}(b)| on grid",
                      tol=float(tol))


def seq_derivative(seq):
    """Differentiate a sequential distribution by shifting the primitive tower.

    The result's term is the old term's declared closed-form x-derivative
    (term_derivative); without one, evaluating it raises ValueError. Its
    level-1 primitive is the old term, and the primitive order grows by one.
    """
    def no_term(n, x):
        raise ValueError(f"{seq.label} declares no term_derivative: d/dx {seq.label} has no term")

    return FundamentalSeq(
        term=seq.term_derivative or no_term,
        primitive_order=seq.primitive_order + 1,
        primitives=(seq.term,) + seq.primitives,
        limit_of_primitives=seq.limit_of_primitives,
        label=f"d/dx {seq.label}",
        panel_hint=seq.panel_hint)


def pair_by_parts(seq, f):
    """Pair a sequential distribution with a TestFunction f through k integrations by parts.

    Evaluates (-1)^k * integral of Phi * f^(k) over the support of f, using
    the declared limit Phi when available and otherwise extrapolating the
    integrals of the level-k primitives over n = PARTS_LADDER. Raises
    QuadratureError, naming the limit or the n, when an integral does not converge.
    """
    k = seq.primitive_order
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"pairing by parts needs derivative order {k}, "
                         f"but f only supports {MAX_DERIVATIVE_ORDER}")
    fk = f if k == 0 else (lambda x: derivative(f, x, k))
    sign = -1.0 if k % 2 else 1.0
    limit = seq.limit_of_primitives
    phis = ({"declared limit": limit} if limit is not None else
            {f"n = {n}": functools.partial(seq.primitive, k, n) for n in PARTS_LADDER})
    values = [adaptive_quad(lambda x: np.asarray(phi(x), dtype=float) * np.asarray(fk(x), dtype=float),
                            f.support.lo, f.support.hi, tol=PARTS_TOL, breakpoints=(0.0,))
              .kept(f"pair_by_parts: the integral at the {name}") for name, phi in phis.items()]
    if limit is not None:
        return sign * values[0]
    return sign * extrapolate_limit(zip(PARTS_LADDER, values), mode="inverse_param")


def check_zero_off_origin(seq, a, n_max=100):
    """Verify that the sequence represents 0 on |x| >= a (away from the origin).

    Measures the sequence's declared seq.off_origin on |x| in
    [a, a + OFF_ORIGIN_REACH] for n = 1..n_max; OffOriginBound states how the
    verdict follows. a must be > 0 with a finite bound at n = 1, n_max an integer >= 1.
    """
    a = require_positive(a, "a")
    n_max = require_count(n_max, "n_max")
    ns = np.arange(1, n_max + 1)
    off = seq.off_origin
    with np.errstate(over="ignore", divide="ignore"):  # a large a: every bound is 0, as is its sup
        bounds = None if off.bound is None else off.bound(ns, a)
    if bounds is not None and not bounds[0] < math.inf:
        raise ValueError(f"a must leave the bound at n = 1 finite, got {a!r}")
    sups = np.asarray(off.sup(ns, a, a + OFF_ORIGIN_REACH), dtype=float)
    held = bounds is None or bool(np.all(sups <= bounds + 1e-12))
    verdict = held and sups[-1] <= max(OFF_ORIGIN_TOL, 0.0 if bounds is None else bounds[-1])
    return GridReport(interval=(a, a + OFF_ORIGIN_REACH), n_values=tuple(range(1, n_max + 1)),
                      sup_errors=tuple(sups.tolist()), verdict=bool(verdict), bound_used=off.text,
                      tol=OFF_ORIGIN_TOL, bounds=None if bounds is None else tuple(bounds.tolist()))
