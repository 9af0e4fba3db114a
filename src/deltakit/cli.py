"""Command-line surface: pair, certify named bounds, and emit figure datasets.

Exit codes: 0 all checks pass, 1 a tolerance/bound failed, 2 configuration
error. Output is deterministic byte-for-byte for a fixed configuration
(pairing sums panels in a fixed order; floats are printed with 17 significant
digits).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .certify import certificate_names, run_certificate
from .families import (lorentz_delta_n, sinc_delta, sinc_kink, sinc_step)
from .pairing import extrapolate_limit, pair_lorentz, pair_sinc
from .testfn import bump, mollifier, smooth_step_down, smooth_step_up

__all__ = ["main", "RunConfig"]

_FLOAT_FMT = "%.17g"


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

    def echo(self):
        d = dataclasses.asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}


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


def _fmt(x):
    return _FLOAT_FMT % float(x)


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
    if config.shift:
        f = f.shifted(config.shift)
    return f


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
    passed = limit_error <= config.tolerance
    payload = {
        "command": "pair",
        "config": config.echo(),
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
        lines += [f"{_fmt(p)},{_fmt(r.value)},{_fmt(r.abs_error_estimate)}"
                  for p, r in zip(config.params, results)]
        lines.append(f"limit,{_fmt(limit)},{_fmt(limit_error)}")
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        _emit(_json_text(payload), config.output_path)
    return 0 if passed else 1


def _certify_kwargs(name, params, parser):
    """Certificate arguments from --params; exit 2 on values it cannot run on."""
    kwargs = {}
    if name in ("lemma4", "lemma6_lorentz", "lemma6_theta") and params:
        if not (params[0] >= 1 and params[0].is_integer()):
            parser.error(f"--params n_max must be an integer >= 1, got {params[0]:g}")
        kwargs["n_max"] = int(params[0])
    if name in ("lemma6_lorentz", "lemma6_theta") and len(params) > 1:
        kwargs["a"] = float(params[1])
    if name == "fubini" and params:
        kwargs["R_list"] = params
    if name == "lemma5_rate" and params:
        kwargs["eps_list"] = params
    positive = [kwargs.get("a", 1.0), *kwargs.get("R_list", ()), *kwargs.get("eps_list", ())]
    if not all(v > 0 for v in positive):
        parser.error(f"--params of {name} must be > 0 (a, R or eps)")
    return kwargs


def cmd_certify(config, kwargs):
    report = run_certificate(config.certificate, **kwargs)
    payload = {
        "command": "certify",
        "config": config.echo(),
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


def _figure_rows(config):
    lo, hi = config.interval
    xs = np.linspace(lo, hi, config.grid)
    fig = config.fig
    rows = []

    def add_series(label, values, points=xs):
        rows.extend((x, v, label) for x, v in zip(points, values))

    if fig == 1:
        # surface over integer cutoffs; series label carries the parameter
        for r in range(1, 21):
            add_series(f"R={r}", sinc_delta(r, xs))
    elif fig == 2:
        add_series("delta_180", sinc_delta(180, xs))
        nz = xs[np.abs(xs) > 0]
        add_series("envelope_upper", 1.0 / (math.pi * np.abs(nz)), nz)
        add_series("envelope_lower", -1.0 / (math.pi * np.abs(nz)), nz)
    elif fig == 3:
        for n in range(1, 6):
            add_series(f"n={n}", sinc_delta(n, xs))
    elif fig == 4:
        for n in range(1, 6):
            add_series(f"n={n}", sinc_step(n, xs))
    elif fig == 5:
        add_series("step_180", sinc_step(180, xs))
    elif fig == 6:
        for n in range(1, 6):
            add_series(f"n={n}", sinc_kink(n, xs))
    elif fig == 7:
        for n in range(1, 6):
            add_series(f"n={n}", lorentz_delta_n(n, xs))
    elif fig == 8:
        add_series("f_1", mollifier(xs - 1.0))
        add_series("g_2", mollifier(2.0 - xs))
    elif fig == 9:
        up = smooth_step_up(1.0, 2.0)
        down = smooth_step_down(3.0, 4.0)
        add_series("F_12", up(xs))
        add_series("G_34", down(xs))
        add_series("product", up(xs) * down(xs))
    return rows


def cmd_figure(config):
    rows = _figure_rows(config)
    if config.format == "json":
        payload = {
            "command": "figure",
            "config": config.echo(),
            "results": [{"x": x, "value": float(v), "series": s} for x, v, s in rows],
            "verdict": "pass",
        }
        _emit(_json_text(payload), config.output_path)
    else:
        lines = ["x,value,series"]
        lines += [f"{_fmt(x)},{_fmt(v)},{s}" for x, v, s in rows]
        path = config.output_path or f"fig{config.fig}.csv"
        _emit("\n".join(lines) + "\n", path)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deltakit",
        description="Regularized delta families: pairings, certified bounds, figure data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--bump", default="-2,-1,1,2",
                       help="bump knots a,b,c,d (default -2,-1,1,2)")
        p.add_argument("--shift", type=float, default=0.0,
                       help="translate the test function by x0")
        p.add_argument("--interval", default="-5,5", help="grid interval lo,hi")
        p.add_argument("--grid", type=int, default=2001, help="grid points (>= 2)")
        p.add_argument("--tol", type=float, default=1e-3, help="pass tolerance")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p_pair = sub.add_parser("pair", help="pair a regularized family against a bump")
    p_pair.add_argument("--family", choices=("fourier", "lorentz"), required=True)
    p_pair.add_argument("--params", required=True,
                        help="comma list of cutoffs R (fourier) or widths eps (lorentz)")
    add_common(p_pair)

    p_cert = sub.add_parser("certify", help="run a named bound certificate")
    p_cert.add_argument("certificate", help=f"one of: {', '.join(certificate_names())}")
    p_cert.add_argument("--params", default=None,
                        help="optional comma list (n_max[,a] / R list / eps list)")
    add_common(p_cert)

    p_fig = sub.add_parser("figure", help="emit the dataset behind one figure as CSV")
    p_fig.add_argument("--fig", type=int, required=True, help="figure id, 1..9")
    add_common(p_fig)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    interval = _parse_floats(args.interval, "interval", parser, expected=2)
    if not interval[0] < interval[1]:
        parser.error("--interval requires lo < hi")
    if args.grid < 2:
        parser.error("--grid must be >= 2")
    if args.tol <= 0:
        parser.error("--tol must be positive")
    bump_knots = _parse_floats(args.bump, "bump", parser, expected=4)
    if not all(a < b for a, b in zip(bump_knots, bump_knots[1:])):
        parser.error("--bump knots must be strictly increasing")

    config = RunConfig(command=args.command, bump_knots=bump_knots,
                       shift=args.shift, interval=interval, grid=args.grid,
                       tolerance=args.tol, output_path=args.out,
                       format=args.format or ("csv" if args.command == "figure" else "json"))

    if args.command == "pair":
        config.family = args.family
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
        if config.certificate not in certificate_names():
            parser.error(f"unknown certificate {config.certificate!r}")
        return cmd_certify(config, _certify_kwargs(config.certificate, config.params, parser))

    config.fig = args.fig
    if not 1 <= config.fig <= 9:
        parser.error("--fig must be in 1..9")
    return cmd_figure(config)


if __name__ == "__main__":
    sys.exit(main())
