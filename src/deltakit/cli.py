"""Command-line surface: pair, certify named bounds, and emit figure datasets.

Each subcommand takes only the flags it reads: `pair` takes --bump, --shift
and --tol, `figure` takes --interval and --grid, and all three take --out and
--format. `certify NAME --params` hands its values to run_certificate(NAME,
*params) in order, so a certificate takes exactly the parameters its
signature names. Each flag's parser type converts and checks its value, so a
command line parses straight into a RunConfig.

Exit codes: 0 all checks pass, 1 a tolerance/bound failed, 2 configuration
error: a flag the subcommand does not take, a value its flag rejects (each
number-list item a finite number; --interval lo < hi, --grid an integer >= 2,
--fig 1..9), --params values a certificate cannot run on or has no place for,
and an --out path that cannot be written. Messages read `deltakit <cmd>:
error: argument --flag: ...`; a certificate's own rejection reads `deltakit
certify: error: --params of <name>: ...`. Output is byte-for-byte
deterministic for a fixed configuration (pairing sums panels in a fixed
order); CSV prints floats with 17 significant digits, JSON the shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .certify import certificate_names, run_certificate
from .families import (lorentz_delta_n, sinc_delta, sinc_kink, sinc_step)
from .pairing import extrapolate_limit, pair_lorentz, pair_sinc
from .testfn import bump, mollifier, smooth_step_down, smooth_step_up

__all__ = ["main", "RunConfig"]

_FAMILY_FIGURES = {3: sinc_delta, 4: sinc_step, 6: sinc_kink, 7: lorentz_delta_n}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    family: str | None = None
    params: tuple = ()
    bump_knots: tuple = (-2.0, -1.0, 1.0, 2.0)
    shift: float = 0.0
    interval: tuple = (-5.0, 5.0)
    grid: int = 2001
    tolerance: float = 1e-3
    fig: int | None = None
    certificate: str | None = None
    output_path: str | None = None
    format: str = "json"


def _numbers(text):
    """A comma list of finite numbers, every item one; "" is the empty list."""
    values = tuple(map(float, text.split(","))) if text else ()
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def _ascending(values):
    return all(a < b for a, b in zip(values, values[1:]))


def _checked(convert, rule, test=lambda value: True):
    """An argparse type: convert the text and require test(value), or name the rule."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if test(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return parse


def _write_report(config, passed, header, rows, results, **fields):
    """Print or write one command's report in its format; return the exit code.

    CSV is `header` and then `rows`; JSON is the envelope around `results` and
    `fields`. Only the requested format is built, so `rows` and `results` may
    be generators. Figure CSV goes to fig<N>.csv unless --out names a path; a
    path that cannot be written exits 2.
    """
    path = config.output_path
    if config.format == "csv":
        text = "\n".join([header, *rows]) + "\n"
        if path is None and config.command == "figure":
            path = f"fig{config.fig}.csv"
    else:
        text = json.dumps({"command": config.command, "config": dataclasses.asdict(config),
                           "results": list(results), **fields,
                           "verdict": "pass" if passed else "fail"}, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"deltakit {config.command}: error: argument --out: cannot write {path!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
    return 0 if passed else 1


def cmd_pair(config):
    f = bump(*config.bump_knots)
    if config.shift:
        f = f.shifted(config.shift)
    f0 = float(f(0.0))
    pair_fn, mode = ((pair_sinc, "inverse_param") if config.family == "fourier"
                     else (pair_lorentz, "log_corrected"))
    runs = [(p, pair_fn(p, f)) for p in config.params]
    limit = extrapolate_limit([(p, res.value) for p, res in runs], mode=mode)
    limit_error = abs(limit - f0)
    passed = limit_error <= config.tolerance and all(res.converged for _, res in runs)
    return _write_report(
        config, passed, "param,value,abs_error_estimate",
        ["%.17g,%.17g,%.17g" % (p, res.value, res.abs_error_estimate) for p, res in runs]
        + ["limit,%.17g,%.17g" % (limit, limit_error)],
        [{"param": p, "value": res.value, "abs_error_estimate": res.abs_error_estimate}
         for p, res in runs],
        extrapolated_limit=limit, target_value_at_zero=f0, abs_limit_error=limit_error)


def cmd_certify(config, certify_parser):
    try:
        report = run_certificate(config.certificate, *config.params)
    except ValueError as exc:  # raised on entry, before any numeric work
        certify_parser.error(f"--params of {config.certificate}: {exc}")
    return _write_report(
        config, report.passed, "certificate,verdict,summary",
        [f"{report.name},{'pass' if report.passed else 'fail'},\"{report.summary}\""],
        [{"certificate": report.name, "summary": report.summary, "details": report.details}])


def _figure_series(config):
    """The figure's data as (label, points, values) arrays, one triple per series."""
    lo, hi = config.interval
    xs = np.linspace(lo, hi, config.grid)
    fig = config.fig
    if fig == 1:
        # surface over integer cutoffs; series label carries the parameter
        return [(f"R={r}", xs, sinc_delta(r, xs)) for r in range(1, 21)]
    if fig == 2:
        nz = xs[np.abs(xs) > 0]
        return [("delta_180", xs, sinc_delta(180, xs)),
                ("envelope_upper", nz, 1.0 / (math.pi * np.abs(nz))),
                ("envelope_lower", nz, -1.0 / (math.pi * np.abs(nz)))]
    if fig in _FAMILY_FIGURES:  # members n = 1..5 of one family
        return [(f"n={n}", xs, _FAMILY_FIGURES[fig](n, xs)) for n in range(1, 6)]
    if fig == 5:
        return [("step_180", xs, sinc_step(180, xs))]
    if fig == 8:
        return [("f_1", xs, mollifier(xs - 1.0)), ("g_2", xs, mollifier(2.0 - xs))]
    up, down = smooth_step_up(1.0, 2.0), smooth_step_down(3.0, 4.0)  # fig 9
    return [("F_12", xs, up(xs)), ("G_34", xs, down(xs)), ("product", xs, up(xs) * down(xs))]


def cmd_figure(config):
    series = [(label, points.tolist(), values.tolist())
              for label, points, values in _figure_series(config)]
    return _write_report(
        config, True, "x,value,series",
        ("%.17g,%.17g,%s" % (x, v, label)
         for label, points, values in series for x, v in zip(points, values)),
        ({"x": x, "value": v, "series": label}
         for label, points, values in series for x, v in zip(points, values)))


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deltakit",
        description="Regularized delta families: pairings, certified bounds, figure data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        # each flag's dest is its RunConfig field; a flag left out keeps the field's default
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def add_output(p, fmt, where="stdout"):
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help=f"output path (default {where})")
        p.add_argument("--format", choices=("csv", "json"), default=fmt)

    p_pair = add_command("pair", "pair a regularized family against a bump")
    p_pair.add_argument("--family", choices=("fourier", "lorentz"), required=True)
    p_pair.add_argument("--params", required=True, type=_checked(
        _numbers, "3 or more finite positive numbers, strictly increasing or decreasing",
        lambda v: len(v) >= 3 and min(v) > 0 and (_ascending(v) or _ascending(v[::-1]))),
        help="comma list of cutoffs R (fourier) or widths eps (lorentz)")
    p_pair.add_argument("--bump", dest="bump_knots", metavar="BUMP", type=_checked(
        _numbers, "4 finite, strictly increasing numbers a,b,c,d",
        lambda v: len(v) == 4 and _ascending(v)),
        help="bump knots a,b,c,d (default -2,-1,1,2); write --bump=-2,-1,1,2, "
             "as a value that starts with '-' reads as a flag")
    p_pair.add_argument("--shift", type=_checked(float, "a finite number", math.isfinite),
                        help="translate the test function by x0")
    p_pair.add_argument("--tol", dest="tolerance", metavar="TOL", type=_checked(
        float, "a finite number > 0", lambda t: 0 < t < math.inf), help="pass tolerance")
    add_output(p_pair, "json")

    p_cert = add_command("certify", "run a named bound certificate")
    p_cert.add_argument("certificate", choices=certificate_names())
    p_cert.add_argument("--params", type=_checked(_numbers, "a comma list of finite numbers"),
                        help="comma list: n_max[,a] (lemma4 takes n_max only), "
                             "R list (fubini), eps list (lemma5_rate); "
                             "si_tail and eq23_identity take none")
    add_output(p_cert, "json")

    p_fig = add_command("figure", "emit the dataset behind one figure as CSV")
    p_fig.add_argument("--fig", type=int, choices=range(1, 10), metavar="FIG", required=True,
                       help="figure id, 1..9")
    p_fig.add_argument("--interval", type=_checked(
        _numbers, "two finite numbers lo,hi with lo < hi",
        lambda v: len(v) == 2 and _ascending(v)),
        help="grid interval lo,hi (default -5,5); write --interval=-5,5, "
             "as a value that starts with '-' reads as a flag")
    p_fig.add_argument("--grid", type=_checked(int, "an integer >= 2", lambda n: n >= 2),
                       help="grid points (>= 2)")
    add_output(p_fig, "csv", "fig<N>.csv for CSV, stdout for JSON")
    return parser, p_cert


def main(argv=None):
    parser, certify_parser = _build_parser()
    config = RunConfig(**vars(parser.parse_args(argv)))
    if config.command == "pair":
        return cmd_pair(config)
    if config.command == "certify":
        return cmd_certify(config, certify_parser)
    return cmd_figure(config)


if __name__ == "__main__":
    sys.exit(main())
