"""Named certificates: machine-checkable verdicts for the quantitative bounds.

Each certificate runs one grid/quadrature check with its grid and tolerance
pinned and returns a CertReport (pass/fail plus the measured numbers). Its
positional parameters are exactly what `certify NAME --params` sets, in the
same order, and are checked before any numeric work. The registry keys are the
stable names exposed by the command-line `certify` subcommand.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import require_count, require_positive
from .families import half_abs, lorentz_delta_n, sinc_kink, sinc_step
from .pairing import pair_lorentz
from .seqdist import DEFAULT_GRID, check_zero_off_origin, lorentz_delta_seq
from .special import si, sinc_sq_integral, fubini_square
from .testfn import bump, difference_quotient

__all__ = ["CertReport", "certificate_names", "run_certificate"]


@dataclass(frozen=True)
class CertReport:
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)


def _kink_uniform_bound(n_max=200):
    """Smoothed kink vs |x|/2: sup error <= 2/(n pi) + slack for every n."""
    n_max = require_count(n_max, "n_max")
    interval, slack = (-5.0, 5.0), 1e-9
    xs = np.linspace(interval[0], interval[1], DEFAULT_GRID)
    target = half_abs(xs)
    rows = []
    worst_margin = -math.inf
    for n in range(1, n_max + 1):
        sup = float(np.max(np.abs(sinc_kink(n, xs) - target)))
        bound = 2.0 / (n * math.pi) + slack
        rows.append((n, sup, bound))
        worst_margin = max(worst_margin, sup - bound)
    passed = worst_margin <= 0.0
    return CertReport(
        "lemma4", passed,
        f"max over n<={n_max} of (sup error - bound) = {worst_margin:.3e}",
        {"n_max": n_max, "interval": list(interval), "grid": DEFAULT_GRID,
         "worst_margin": worst_margin,
         "samples": [{"n": n, "sup_error": s, "bound": b} for n, s, b in rows[:: max(1, len(rows) // 10)]]})


def _lorentz_rate_majorant(*eps):
    """Lorentz pairing error against its analytic majorant, for each width eps.

    |value - f(0)| <= (S eps / pi)(ln(M^2 + eps^2) - ln eps^2)
                      + |2 arctan(M/eps)/pi - 1| |f(0)|,
    with S the sup of the difference quotient of f on [-M, M]. Without eps
    the widths are 1e-1, 1e-2, 1e-3, 1e-4.
    """
    eps_list = tuple(require_positive(e, "eps") for e in eps) or (1e-1, 1e-2, 1e-3, 1e-4)
    f = bump(-2.0, -1.0, 1.0, 2.0)
    f0 = float(f(0.0))
    M = max(abs(f.support.lo), abs(f.support.hi))
    g = difference_quotient(f)
    xs = np.linspace(-M, M, DEFAULT_GRID)
    S = float(np.max(np.abs(g(xs))))
    rows = []
    ok = True
    for eps in eps_list:
        res = pair_lorentz(eps, f, tol=1e-11)
        err = abs(res.value - f0)
        majorant = (S * eps / math.pi) * (math.log(M * M + eps * eps) - math.log(eps * eps)) \
            + abs(2.0 * math.atan(M / eps) / math.pi - 1.0) * abs(f0)
        rows.append({"eps": eps, "abs_error": err, "majorant": majorant})
        ok = ok and err <= majorant + res.abs_error_estimate + 1e-12
    return CertReport("lemma5_rate", ok,
                      "pairing error within the analytic eps*log majorant for all eps"
                      if ok else "majorant violated",
                      {"sup_difference_quotient": S, "f0": f0, "samples": rows})


def _zero_off_origin_lorentz(n_max=1000, a=0.5):
    """sup_{|x|>=a} of the Lorentz terms <= peak(a); at a=0.5 that is 4/(pi n)."""
    n_max, a = require_count(n_max, "n_max"), require_positive(a, "a")
    report = check_zero_off_origin(lorentz_delta_seq(), a, n_max=n_max)
    passed = report.verdict
    return CertReport("lemma6_lorentz", passed,
                      f"sup_(|x|>={a}) |kernel_n| <= peak bound for n <= {n_max}: {passed}",
                      {"a": a, "n_max": n_max,
                       "last_sup": report.sup_errors[-1], "last_bound": lorentz_delta_n(n_max, a)})


def _zero_off_origin_step(n_max=1000, a=1.0):
    """|step_n(x) - sign(x)/2| <= 2/(pi n a) for |x| >= a."""
    n_max, a = require_count(n_max, "n_max"), require_positive(a, "a")
    xs_pos = np.linspace(a, a + 5.0, DEFAULT_GRID // 2)
    rows_ok = True
    worst = -math.inf
    for n in range(1, n_max + 1):
        sup = float(np.max(np.abs(sinc_step(n, xs_pos) - 0.5)))
        bound = 2.0 / (math.pi * n * a)
        worst = max(worst, sup - bound)
        rows_ok = rows_ok and sup <= bound + 1e-12
    return CertReport("lemma6_theta", rows_ok,
                      f"max over n<={n_max} of (sup step error - 2/(pi n a)) = {worst:.3e}",
                      {"a": a, "n_max": n_max, "worst_margin": worst})


def _fubini_agreement(*R):
    """Both integration orders agree; values obey the arctan estimate chain.

    Without R the squares are R = 1, 5, 10.
    """
    R_list = tuple(require_positive(r, "R") for r in R) or (1.0, 5.0, 10.0)
    agree_tol = 1e-8
    rows = []
    ok = True
    for R in R_list:
        rx = fubini_square(R, "x_first")
        ra = fubini_square(R, "alpha_first")
        diff = abs(rx.value - ra.value)
        arctan_gap = abs(rx.value - math.atan(R))
        arctan_bound = 3.0 * (1.0 - math.exp(-R * R)) / (2.0 * R)
        rows.append({"R": R, "x_first": rx.value, "alpha_first": ra.value,
                     "order_diff": diff, "arctan_gap": arctan_gap,
                     "arctan_bound": arctan_bound})
        ok = ok and diff <= agree_tol and arctan_gap <= arctan_bound + 1e-9
    return CertReport("fubini", ok,
                      f"order agreement <= {agree_tol:g} and arctan estimate hold: {ok}",
                      {"samples": rows})


def _si_tail_envelope():
    """|si(x) - pi/2| <= 2/x on a log grid of x >= 1."""
    x_lo, x_hi, points = 1.0, 1e6, 61
    xs = np.geomspace(x_lo, x_hi, points)
    gaps = np.abs(si(xs) - 0.5 * math.pi)
    bounds = 2.0 / xs
    worst = float(np.max(gaps - bounds))
    passed = worst <= 0.0
    return CertReport("si_tail", passed,
                      f"max of |si(x) - pi/2| - 2/x on the log grid = {worst:.3e}",
                      {"x_lo": x_lo, "x_hi": x_hi, "points": points, "worst_margin": worst})


def _parts_identity():
    """Si(u) = (1 - cos u)/u + integral of sin^2/y^2 over [0, u/2], pointwise."""
    n_list, x_lo, x_hi, points, tol = (1, 5, 20), 0.1, 5.0, 99, 1e-9
    worst = 0.0
    for n in n_list:
        for x in np.linspace(x_lo, x_hi, points):
            u = n * x
            head = 2.0 * math.sin(0.5 * u) ** 2 / u
            residual = abs(si(u) - head - sinc_sq_integral(0.0, 0.5 * u))
            worst = max(worst, residual)
    passed = worst <= tol
    return CertReport("eq23_identity", passed,
                      f"max identity residual = {worst:.3e} (tol {tol:g})",
                      {"n_list": list(n_list), "points": points, "worst_residual": worst})


_REGISTRY = {
    "lemma4": _kink_uniform_bound,
    "lemma5_rate": _lorentz_rate_majorant,
    "lemma6_lorentz": _zero_off_origin_lorentz,
    "lemma6_theta": _zero_off_origin_step,
    "fubini": _fubini_agreement,
    "si_tail": _si_tail_envelope,
    "eq23_identity": _parts_identity,
}


def certificate_names():
    return tuple(sorted(_REGISTRY))


def run_certificate(name, *params):
    """Run a named certificate on the values `certify NAME --params` sets, in order.

    lemma4 takes n_max; lemma6_lorentz and lemma6_theta take n_max, a; fubini
    takes any number of R and lemma5_rate of eps; si_tail and eq23_identity
    take none. Omitted values keep their defaults. Unknown names raise
    KeyError; more values than the certificate takes, or values it cannot run
    on, raise ValueError before any numeric work.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown certificate {name!r}; known: {', '.join(certificate_names())}")
    check = _REGISTRY[name]
    try:
        inspect.signature(check).bind(*params)
    except TypeError:
        raise ValueError(f"{name} takes at most {len(inspect.signature(check).parameters)} "
                         f"parameters, got {len(params)}") from None
    return check(*params)
