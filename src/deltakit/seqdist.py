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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import require_count, require_positive
from .families import (half_abs, lorentz_delta_n, lorentz_delta_prime, lorentz_kink,
                       lorentz_step, sinc_delta, sinc_delta_prime, sinc_kink, sinc_step)
from .pairing import extrapolate_limit
from .quadrature import QuadratureError, adaptive_quad, anchored_primitive_values, half_period_cap
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
    interval: tuple
    n_values: tuple
    sup_errors: tuple
    verdict: bool
    bound_used: str
    tol: float | None = None
    cauchy_tail: tuple | None = None


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
    anchored primitives for levels 1..len(primitives). Levels up to
    primitive_order beyond the closed forms are lifted numerically, all in
    one pass: Cauchy's formula for repeated integration turns m missing
    levels into m moments of the top closed level, which one anchored
    quadrature over shared knots computes (tolerance LIFT_TOL). off_origin,
    an OffOriginBound, is what check_zero_off_origin holds the sequence to
    away from the origin; by default its terms must fall below
    OFF_ORIGIN_TOL. label is only displayed. Immutable.
    """

    def __init__(self, term, primitive_order, primitives=(),
                 limit_of_primitives=None, term_derivative=None,
                 label="custom", panel_hint=None, off_origin=None):
        self.term = term
        self.primitive_order = int(primitive_order)
        self.primitives = tuple(primitives)
        self.limit_of_primitives = limit_of_primitives
        self.term_derivative = term_derivative
        self.label = label
        self.off_origin = off_origin or OffOriginBound(grid_sup(term), None,
                                                       "sup |term(n, x)| below tol")
        self.panel_hint = panel_hint
        if self.primitive_order < 0:
            raise ValueError("primitive_order must be >= 0")

    def __repr__(self):
        return f"FundamentalSeq({self.label}, k={self.primitive_order})"

    def _max_panel(self, n):
        return self.panel_hint(n) if self.panel_hint is not None else 0.5

    def primitive(self, level, n, x):
        """Anchored primitive of the given level: primitive(0) is the term."""
        level = int(level)
        if level < 0:
            raise ValueError("primitive level must be >= 0")
        if level == 0:
            return self.term(n, x)
        top = len(self.primitives)
        if level <= top:
            return self.primitives[level - 1](n, x)
        # Cauchy's formula for repeated integration lifts the m missing levels
        # in one pass: P_{top+m}(x) is the sum over j < m of
        # C(m-1, j) x^(m-1-j) (-1)^j M_j(x) / (m-1)!, where M_j(x) is the
        # integral of t^j P_top(t) from 0 to x.
        m = level - top
        moments = anchored_primitive_values(lambda t: self.primitive(top, n, t), x,
                                            tol=LIFT_TOL, max_panel=self._max_panel(n),
                                            moments=m)
        x = np.asarray(x, dtype=float)
        lifted = sum(math.comb(m - 1, j) * (-1) ** j * x ** (m - 1 - j) * moments[j]
                     for j in range(1, m))
        return (x ** (m - 1) * moments[0] + lifted) / math.factorial(m - 1)


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
    peak = lambda ns, a: (1.0 / ns / math.pi) / (a * a + (1.0 / ns) ** 2)  # lorentz_delta_n(ns, a)
    return FundamentalSeq(
        term=lorentz_delta_n, primitive_order=2,
        primitives=(lorentz_step, lorentz_kink),
        limit_of_primitives=half_abs,
        term_derivative=lorentz_delta_prime,
        label="lorentz",
        # the kernel decreases away from 0, so its sup on |x| >= a is its peak at a
        off_origin=OffOriginBound(lambda ns, lo, hi: peak(ns, lo), peak,
                                  "peak value of the kernel at |x| = a"))


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


def _tail_diameters(values):
    """cauchy_tail[i] = sup-grid diameter over members with index >= i."""
    hi, lo = values[-1].copy(), values[-1].copy()  # the tail's running max and min
    out = np.empty(len(values))
    for i in range(len(values) - 1, -1, -1):
        out[i] = np.max(np.maximum(hi, values[i], out=hi) - np.minimum(lo, values[i], out=lo))
    return out


def check_fundamental(seq, interval=(-5.0, 5.0), n_max=50, tol=1e-2, *, order=None):
    """Verify almost-uniform convergence of the level-k primitives on a grid.

    Evaluates primitive(order, n, .) for n = 1..n_max and checks the sup-norm
    Cauchy criterion: the tail diameter over members n >= n_max/2 must fall
    below 2*tol (diameter is at most twice the distance to a limit). When the
    level matches the declared limit, the sup errors against the limit must
    also decrease below tol by n_max. The verdict fails when the sup errors
    do not decrease. n_max must be an integer >= 2.
    """
    n_max = require_count(n_max, "n_max")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    iv, xs = _grid(interval)
    k = seq.primitive_order if order is None else int(order)
    ns = np.arange(1, n_max + 1)
    values = np.vstack([np.asarray(seq.primitive(k, int(n), xs), dtype=float) for n in ns])

    cauchy = _tail_diameters(values)
    half = max(0, n_max // 2 - 1)
    cauchy_ok = cauchy[half] <= 2.0 * tol

    limit = seq.limit_of_primitives if k == seq.primitive_order else None
    if limit is not None:
        target = np.asarray(limit(xs), dtype=float)
        sup_errors = np.max(np.abs(values - target), axis=1)
        bound_used = "sup |primitive_k(n, x) - limit(x)| on grid"
        decreasing = sup_errors[-1] <= sup_errors[0] or sup_errors[0] <= tol
        verdict = bool(cauchy_ok and sup_errors[-1] <= tol and decreasing)
    else:
        sup_errors = cauchy
        bound_used = "sup-norm Cauchy tail diameter on grid"
        decreasing = cauchy[half] <= 0.5 * cauchy[0] or cauchy[0] <= tol
        verdict = bool(cauchy_ok and decreasing)

    return GridReport(interval=(iv.lo, iv.hi), n_values=tuple(int(n) for n in ns),
                      sup_errors=tuple(float(e) for e in sup_errors),
                      verdict=verdict, bound_used=bound_used, tol=float(tol),
                      cauchy_tail=tuple(float(c) for c in cauchy))


def check_equivalent(a, b, interval=(-5.0, 5.0), n_max=50, tol=1e-2):
    """Check that two fundamental sequences share a common primitive limit.

    Uses the larger of the two primitive orders; the lower tower is lifted by
    further anchored integration (numerically when no closed form exists).
    n_max must be an integer >= 2.
    """
    n_max = require_count(n_max, "n_max")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    iv, xs = _grid(interval)
    k = max(a.primitive_order, b.primitive_order)
    ns = np.arange(1, n_max + 1)
    level_k = lambda seq, n: np.asarray(seq.primitive(k, int(n), xs), dtype=float)
    sup_diffs = np.array([np.max(np.abs(level_k(a, n) - level_k(b, n))) for n in ns])
    decreasing = sup_diffs[-1] <= sup_diffs[0] or sup_diffs[0] <= tol
    verdict = bool(sup_diffs[-1] <= tol and decreasing)
    return GridReport(interval=(iv.lo, iv.hi), n_values=tuple(int(n) for n in ns),
                      sup_errors=tuple(float(d) for d in sup_diffs), verdict=verdict,
                      bound_used=f"sup |primitive_{k}(a) - primitive_{k}(b)| on grid",
                      tol=float(tol))


def seq_derivative(seq):
    """Differentiate a sequential distribution by shifting the primitive tower.

    The result's term is the old term's x-derivative (closed form when
    available, finite differences otherwise); its level-1 primitive is the old
    term, and the primitive order grows by one.
    """
    if seq.term_derivative is not None:
        new_term = seq.term_derivative
    else:
        old_term = seq.term
        new_term = lambda n, x: derivative(lambda t: old_term(n, t), x, 1)
    return FundamentalSeq(
        term=new_term,
        primitive_order=seq.primitive_order + 1,
        primitives=(seq.term,) + seq.primitives,
        limit_of_primitives=seq.limit_of_primitives,
        term_derivative=None,
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
    values = []
    for name, phi in phis.items():
        res = adaptive_quad(lambda x: np.asarray(phi(x), dtype=float) * np.asarray(fk(x), dtype=float),
                            f.support.lo, f.support.hi, tol=PARTS_TOL, breakpoints=(0.0,))
        if not res.converged:
            raise QuadratureError(f"pair_by_parts: the integral at the {name} did not converge")
        values.append(res.value)
    if limit is not None:
        return sign * values[0]
    return sign * extrapolate_limit(zip(PARTS_LADDER, values), mode="inverse_param")


def check_zero_off_origin(seq, a, n_max=100):
    """Verify that the sequence represents 0 on |x| >= a (away from the origin).

    Measures the sequence's declared seq.off_origin on |x| in
    [a, a + OFF_ORIGIN_REACH] for n = 1..n_max; OffOriginBound states how the
    verdict follows. a must be finite and > 0, n_max an integer >= 1.
    """
    a = require_positive(a, "a")
    n_max = require_count(n_max, "n_max")
    ns = np.arange(1, n_max + 1)
    off = seq.off_origin
    sups = np.asarray(off.sup(ns, a, a + OFF_ORIGIN_REACH), dtype=float)
    ok, last_bound = True, 0.0
    if off.bound is not None:
        bounds = off.bound(ns, a)
        ok, last_bound = bool(np.all(sups <= bounds + 1e-12)), float(bounds[-1])
    verdict = ok and sups[-1] <= max(OFF_ORIGIN_TOL, last_bound)
    return GridReport(interval=(a, a + OFF_ORIGIN_REACH), n_values=tuple(int(n) for n in ns),
                      sup_errors=tuple(float(s) for s in sups),
                      verdict=bool(verdict), bound_used=off.text, tol=OFF_ORIGIN_TOL)
