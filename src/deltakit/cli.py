"""Command-line surface: pair, certify named bounds, and emit figure datasets.

Each subcommand takes only the flags it reads: `pair` takes --bump, --shift
and --tol, `figure` takes --interval and --grid, and all three take --out and
--format. `certify NAME --params` hands its values to run_certificate(NAME,
*params) in order, so a certificate takes exactly the parameters its
signature names.

Exit codes: 0 all checks pass, 1 a tolerance/bound failed, 2 configuration
error, including a flag the subcommand does not take and --params values a
certificate cannot run on or has no place for. Output is deterministic
byte-for-byte for a fixed configuration (pairing sums panels in a fixed order).
CSV prints floats with 17 significant digits; JSON prints the shortest repr
that round-trips.
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


@dataclasses.dataclass
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


def _parse_floats(text, name, parser, expected=None):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        parser.error(f"--{name} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        parser.error(f"--{name} must not be empty")
    if not all(math.isfinite(v) for v in values):
        parser.error(f"--{name} expects finite numbers, got {text!r}")
    if expected is not None and len(values) != expected:
        parser.error(f"--{name} expects exactly {expected} numbers, got {len(values)}")
    return values


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _build_test_function(config):
    f = bump(*config.bump_knots)
    return f.shifted(config.shift) if config.shift else f


def cmd_pair(config):
    f = _build_test_function(config)
    f0 = float(f(0.0))
    if config.family == "fourier":
        pair_fn = pair_sinc
        mode = "inverse_param"
    else:
        pair_fn = pair_lorentz
        mode = "log_corrected"
    results = [pair_fn(p, f) for p in config.params]
    samples = [(p, res.value) for p, res in zip(config.params, results)]
    limit = extrapolate_limit(samples, mode=mode)
    limit_error = abs(limit - f0)
    passed = limit_error <= config.tolerance and all(r.converged for r in results)
    payload = {
        "command": "pair",
        "config": dataclasses.asdict(config),
        "results": [{"param": p, "value": r.value,
                     "abs_error_estimate": r.abs_error_estimate}
                    for p, r in zip(config.params, results)],
        "extrapolated_limit": limit,
        "target_value_at_zero": f0,
        "abs_limit_error": limit_error,
        "verdict": "pass" if passed else "fail",
    }
    if config.format == "csv":
        lines = ["param,value,abs_error_estimate"]
        lines += ["%.17g,%.17g,%.17g" % (p, r.value, r.abs_error_estimate)
                  for p, r in zip(config.params, results)]
        lines.append("limit,%.17g,%.17g" % (limit, limit_error))
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        _emit(_json_text(payload), config.output_path)
    return 0 if passed else 1


def cmd_certify(config, parser):
    try:
        report = run_certificate(config.certificate, *config.params)
    except ValueError as exc:  # raised on entry, before any numeric work
        parser.error(f"--params of {config.certificate}: {exc}")
    payload = {
        "command": "certify",
        "config": dataclasses.asdict(config),
        "results": [{"certificate": report.name, "summary": report.summary,
                     "details": report.details}],
        "verdict": "pass" if report.passed else "fail",
    }
    if config.format == "csv":
        lines = ["certificate,verdict,summary",
                 f"{report.name},{'pass' if report.passed else 'fail'},\"{report.summary}\""]
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        _emit(_json_text(payload), config.output_path)
    return 0 if report.passed else 1


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
    if config.format == "json":
        payload = {
            "command": "figure",
            "config": dataclasses.asdict(config),
            "results": [{"x": x, "value": v, "series": label}
                        for label, points, values in series for x, v in zip(points, values)],
            "verdict": "pass",
        }
        _emit(_json_text(payload), config.output_path)
    else:
        lines = ["x,value,series"]
        lines += ["%.17g,%.17g,%s" % (x, v, label)
                  for label, points, values in series for x, v in zip(points, values)]
        path = config.output_path or f"fig{config.fig}.csv"
        _emit("\n".join(lines) + "\n", path)
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deltakit",
        description="Regularized delta families: pairings, certified bounds, figure data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, fmt, where="stdout"):
        p.add_argument("--out", default=None, help=f"output path (default {where})")
        p.add_argument("--format", choices=("csv", "json"), default=fmt)

    p_pair = sub.add_parser("pair", help="pair a regularized family against a bump")
    p_pair.add_argument("--family", choices=("fourier", "lorentz"), required=True)
    p_pair.add_argument("--params", required=True,
                        help="comma list of cutoffs R (fourier) or widths eps (lorentz)")
    p_pair.add_argument("--bump", default="-2,-1,1,2",
                        help="bump knots a,b,c,d (default -2,-1,1,2)")
    p_pair.add_argument("--shift", type=float, default=0.0,
                        help="translate the test function by x0")
    p_pair.add_argument("--tol", type=float, default=1e-3, help="pass tolerance")
    add_output(p_pair, "json")

    p_cert = sub.add_parser("certify", help="run a named bound certificate")
    p_cert.add_argument("certificate", choices=certificate_names())
    p_cert.add_argument("--params", default=None,
                        help="comma list: n_max[,a] (lemma4 takes n_max only), "
                             "R list (fubini), eps list (lemma5_rate); "
                             "si_tail and eq23_identity take none")
    add_output(p_cert, "json")

    p_fig = sub.add_parser("figure", help="emit the dataset behind one figure as CSV")
    p_fig.add_argument("--fig", type=int, required=True, help="figure id, 1..9")
    p_fig.add_argument("--interval", default="-5,5", help="grid interval lo,hi")
    p_fig.add_argument("--grid", type=int, default=2001, help="grid points (>= 2)")
    add_output(p_fig, "csv", "fig<N>.csv for CSV, stdout for JSON")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(command=args.command, output_path=args.out, format=args.format)

    if args.command == "pair":
        if not (math.isfinite(args.tol) and args.tol > 0):
            parser.error(f"--tol must be a finite positive number, got {args.tol!r}")
        if not math.isfinite(args.shift):
            parser.error(f"--shift must be a finite number, got {args.shift!r}")
        config.bump_knots = _parse_floats(args.bump, "bump", parser, expected=4)
        if not all(a < b for a, b in zip(config.bump_knots, config.bump_knots[1:])):
            parser.error("--bump knots must be strictly increasing")
        config.family, config.shift, config.tolerance = args.family, args.shift, args.tol
        config.params = _parse_floats(args.params, "params", parser)
        if any(p <= 0 for p in config.params):
            parser.error("--params must all be positive")
        if len(config.params) < 3:
            parser.error("--params needs at least 3 values for limit extrapolation")
        steps = np.diff(config.params)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            parser.error("--params must be strictly increasing or strictly decreasing")
        return cmd_pair(config)

    if args.command == "certify":
        config.certificate = args.certificate
        if args.params:
            config.params = _parse_floats(args.params, "params", parser)
        return cmd_certify(config, parser)

    if not 1 <= args.fig <= 9:
        parser.error("--fig must be in 1..9")
    config.interval = _parse_floats(args.interval, "interval", parser, expected=2)
    if not config.interval[0] < config.interval[1]:
        parser.error("--interval requires lo < hi")
    if args.grid < 2:
        parser.error("--grid must be >= 2")
    config.fig, config.grid = args.fig, args.grid
    return cmd_figure(config)


if __name__ == "__main__":
    sys.exit(main())
