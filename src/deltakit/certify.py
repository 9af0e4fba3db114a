"""Named certificates: machine-checkable verdicts for the quantitative bounds.

Each certificate runs one sup/quadrature check with its points and tolerance
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

from ._util import log1p_square, newton, require_count, require_positive
from .families import half_abs, sinc_kink
from .pairing import pair_lorentz_ladder
from .seqdist import DEFAULT_GRID, check_zero_off_origin, lorentz_delta_seq, sinc_step_seq
from .special import dirichlet_tail, fubini_square, si, si_half_pi_roots, sinc_sq_integral
from .testfn import bump, difference_quotient

__all__ = ["CertReport", "certificate_names", "run_certificate"]


@dataclass(frozen=True)
class CertReport:
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)


def _kink_sups(reach=5.0):
    """S, with sup over |x| <= reach of |sinc_kink(n, x) - |x|/2| = S/n for every n >= 1,
    and the argument for it.

    The error is E(n x)/n with E(u) = sinc_kink(1, u) - |u|/2, even, and E' = Si/pi - 1/2
    on u > 0: on (0, reach] the critical points of E are the roots of Si = pi/2. For every
    u > 0, |E(u) + 1/pi| <= (1/u + 2/u^2)/pi, from 0 < 1 - u f(u) <= 2/u^2 and
    0 < u g(u) <= 1/u (Si's auxiliary functions, A&S 5.2). So if the largest |E| at the
    roots tops that tail at reach (the premise), it is S = sup over u >= 0 of |E|, taken at
    a root below reach <= reach n (a root past reach cannot top the tail). |E| is computed
    to within `rounding`: si's 2e-15 (its mpmath test) times u/pi <= 1.6, plus the rounding
    of E's three terms, each below 3."""
    roots = si_half_pi_roots(reach)
    peaks = np.abs(sinc_kink(1.0, roots) - half_abs(roots))
    k = int(np.argmax(peaks))  # raises on no root: reach < 1.9264
    S, tail, rounding = float(peaks[k]), (1.0 + 1.0 / reach + 2.0 / reach**2) / math.pi, 1e-14
    return S, {"premise": S - rounding > tail, "roots": roots.tolist(), "argmax": float(roots[k]),
               "sup": S, "reach": reach, "tail_bound": tail, "rounding": rounding}


def _kink_uniform_bound(n_max=200):
    """Smoothed kink vs |x|/2: sup error (exact, S/n, see _kink_sups) <= 2/(n pi) + slack,
    for n <= n_max and, by _kink_sups' argument, for every n. The margin
    (S - 2/pi)/n - slack is monotone in n, so its max over n <= n_max is at n = 1 or
    n_max, and S/n is evaluated there and at the ~10 reported samples only: the cost does
    not grow with n_max. With the premise, passing at n = 1 passes at every n."""
    n_max = require_count(n_max, "n_max")
    interval, slack = (-5.0, 5.0), 1e-9
    S, every_n = _kink_sups(interval[1])
    rows = lambda ns: [{"n": n, "sup_error": S / n, "bound": 2.0 / (n * math.pi) + slack}
                       for n in ns]
    worst_margin = max(row["sup_error"] - row["bound"] for row in rows((1, n_max)))
    summary = f"max over n<={n_max} of (sup error - bound) = {worst_margin:.3e}"
    if not every_n["premise"]:
        summary += (f"; for every n: no argument, max |E| at the roots "
                    f"{every_n['sup']:.7g} does not top the tail {every_n['tail_bound']:.7g}")
    return CertReport(
        "lemma4", worst_margin <= 0.0 and every_n["premise"], summary,
        {"n_max": n_max, "interval": list(interval), "critical_points": len(every_n["roots"]),
         "worst_margin": worst_margin, "for_every_n": every_n,
         "samples": rows(range(1, n_max + 1, max(1, n_max // 10)))})


def _critical_sup(g, M):
    """max |g| over a grid of [-M, M] and at each maximum of |g| it brackets: one Newton
    step on g' = 0, g'' from the jet, from the vertex of the parabola through three grid
    values. |g'| <= 1e-9 then puts |g| within g'^2 / |2 g''| of the maximum (3e-21 for
    lemma5_rate's bump, where |g'| = 1.8e-10 and |g''| = 5.2)."""
    def gprime(u):  # g', g'' and g
        g0, d1, c2 = g.jet(u, 2)
        return d1, 2.0 * c2, g0

    xs, h = np.linspace(-M, M, DEFAULT_GRID, retstep=True)
    a = np.abs(g(xs))
    i = 1 + np.flatnonzero((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]))
    u = xs[i] + 0.5 * h * (a[i - 1] - a[i + 1]) / (a[i - 1] - 2.0 * a[i] + a[i + 1])
    _, (_, _, gu) = newton(gprime, u, xs[i - 1], xs[i + 1], steps=1, tol=1e-9)
    return float(np.max(np.abs(np.concatenate([a, gu]))))


def _lorentz_rate_majorant(*eps):
    """Lorentz pairing error against its analytic majorant, for each width eps.

    |value - f(0)| <= (S eps / pi) ln(1 + M^2/eps^2) + |2 arctan(M/eps)/pi - 1| |f(0)|,
    with S the sup of the difference quotient of f on [-M, M], taken at the maxima
    of its modulus, and the logarithm log1p_square(M/eps): no cancelling, no overflow.
    The widths are one ladder (1e-1, 1e-2, 1e-3, 1e-4 without eps).
    """
    eps_list = tuple(require_positive(e, "eps") for e in eps) or (1e-1, 1e-2, 1e-3, 1e-4)
    f = bump(-2.0, -1.0, 1.0, 2.0)
    f0 = float(f(0.0))
    M = max(abs(f.support.lo), abs(f.support.hi))
    ladder = pair_lorentz_ladder(eps_list, f, tol=1e-11)  # first: it may reject a width
    S = _critical_sup(difference_quotient(f), M)
    rows, unconverged, ok = [], [], True
    for eps, res in zip(eps_list, ladder):
        if not res.converged:
            unconverged.append(f"{eps:g}")
        err = abs(res.value - f0)
        r = M / eps
        majorant = ((S * eps / math.pi) * log1p_square(r)
                    + abs(2.0 * math.atan(r) / math.pi - 1.0) * abs(f0))
        rows.append({"eps": eps, "abs_error": err, "majorant": majorant})
        ok = ok and err <= majorant + res.abs_error_estimate + 1e-12
    summary = (f"pairing at eps = {', '.join(unconverged)} did not converge" if unconverged
               else "pairing error within the analytic eps*log majorant for all eps" if ok
               else "majorant violated")
    return CertReport("lemma5_rate", ok and not unconverged, summary,
                      {"sup_difference_quotient": S, "f0": f0, "samples": rows})


def _zero_off_origin_lorentz(n_max=1000, a=0.5):
    """sup_{|x|>=a} of the Lorentz terms <= 1/(pi n a^2); at a=0.5 that is 4/(pi n)."""
    n_max, a = require_count(n_max, "n_max"), require_positive(a, "a")
    report = check_zero_off_origin(lorentz_delta_seq(), a, n_max=n_max)
    return CertReport("lemma6_lorentz", report.verdict,
                      f"sup_(|x|>={a}) |kernel_n| <= 1/(pi n a^2) for n <= {n_max}: "
                      f"{report.verdict}",
                      {"a": a, "n_max": n_max, "last_sup": report.sup_errors[-1],
                       "last_bound": report.bounds[-1]})


def _zero_off_origin_step(n_max=1000, a=1.0):
    """|step_n(x) - sign(x)/2| <= 2/(pi n a) for |x| >= a."""
    n_max, a = require_count(n_max, "n_max"), require_positive(a, "a")
    report = check_zero_off_origin(sinc_step_seq(), a, n_max=n_max)
    worst = float(np.max(np.subtract(report.sup_errors, report.bounds)))
    return CertReport("lemma6_theta", report.verdict,
                      f"max over n<={n_max} of (sup step error - 2/(pi n a)) = {worst:.3e}",
                      {"a": a, "n_max": n_max, "worst_margin": worst})


def _fubini_agreement(*R):
    """Both integration orders converge and agree; values obey the arctan estimate chain.

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
        ok = (ok and rx.converged and ra.converged and diff <= agree_tol
              and arctan_gap <= arctan_bound + 1e-9)
    return CertReport("fubini", ok,
                      f"order agreement <= {agree_tol:g} and arctan estimate hold: {ok}",
                      {"samples": rows})


def _si_tail_envelope():
    """|si(x) - pi/2| <= 2/x on a log grid of x >= 1."""
    x_lo, x_hi, points = 1.0, 1e6, 61
    xs = np.geomspace(x_lo, x_hi, points)
    gaps = np.abs(dirichlet_tail(xs))
    bounds = 2.0 / xs
    worst = float(np.max(gaps - bounds))
    passed = worst <= 0.0
    return CertReport("si_tail", passed,
                      f"max of |si(x) - pi/2| - 2/x on the log grid = {worst:.3e}",
                      {"x_lo": x_lo, "x_hi": x_hi, "points": points, "worst_margin": worst})


def _parts_identity():
    """Si(u) = (1 - cos u)/u + integral of sin^2/y^2 over [0, u/2], pointwise."""
    n_list, x_lo, x_hi, points, tol = (1, 5, 20), 0.1, 5.0, 99, 1e-9
    us = np.multiply.outer(n_list, np.linspace(x_lo, x_hi, points)).ravel()
    heads = 2.0 * np.sin(0.5 * us) ** 2 / us
    worst = float(np.max(np.abs(si(us) - heads - sinc_sq_integral(0.0, 0.5 * us))))
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
