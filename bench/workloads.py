"""Seeded workloads: each is one pass ("deck") of operations with their checks.

The seed only picks inputs; deltakit receives the generated command lines and
arguments. Parameters that set an operation's cost are drawn from fixed
strata or narrow bands, so every seed gives a deck of about the same cost
and the same heaviest operations: run-to-run differences then come from the
program, not from the draw.

Workloads and why each was chosen (the layer -> metric predictions are in
BENCHMARK.json and in run.py):

* pair_ladder -- `deltakit pair` over cutoff (fourier) and width (lorentz)
  ladders of 3..10 rungs, against bumps with seeded knots; a third of them
  shifted so the origin sits in a transition, a third so it is off the
  support. The headline user operation: panel quadrature and kernel
  evaluation, with no seqdist, certify or finite-difference derivatives.
* certify_figures -- all 7 certificates at their defaults, the heavy ones
  again at larger fixed and seeded parameters, and figures 1..9 written to
  CSV files. Grid loops over n, bulk si and kink evaluation, nested fubini
  quadrature, and CLI formatting and writing.
* parts_sequences -- library calls: pair_by_parts for the sinc and Lorentz
  sequences at the default tol=1e-9 (finite-difference f'' and refinement to
  max_panels), check_fundamental, check_equivalent (two of the pairs need
  numeric lifting through anchored_primitive_values, one is of
  seq_derivative results) and check_zero_off_origin, on seeded intervals.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

PARTS_TOL = 1e-6  # |pair_by_parts - f(0)| allowed
# pair_by_parts refines finite-difference noise until max_panels, and where it
# stops (210k..370k panels, 4..10 s) changes chaotically with the bump's knots
# and even its translation; a seeded bump would make a run's cost a lottery,
# so by-parts pairings use this one fixed bump (it stops at 211k panels).
PARTS_KNOTS = (-2.0, -1.0, 1.0, 2.0)


@dataclass
class Op:
    label: str                        # operation kind, e.g. "certify:lemma4"
    fn: Callable[[], object]          # the timed call
    # untimed: raw result -> (CLI exit code, or None for a library call; output)
    collect: Callable[[object], tuple[int | None, bytes]]
    check: Callable[[int | None, bytes], str | None]  # error message, or None


def _log_strata(rng, lo, hi, count):
    """One draw from each of `count` equal strata of [lo, hi] on a log scale, in order."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (k + rng.random()) / count) for k in range(count)]


def _geometric(first, last, count):
    ratio = (last / first) ** (1.0 / (count - 1))
    return [first * ratio ** i for i in range(count)]


def _seeded_knots(rng):
    """Support of width 4 (so cost does not depend on the seed), seeded transitions."""
    off = rng.uniform(-0.3, 0.3)
    a, d = -2.0 + off, 2.0 + off
    return (a, a + rng.uniform(0.5, 1.4), d - rng.uniform(0.5, 1.4), d)


def _seeded_shift(rng, knots, placement):
    """Shift placing the origin on the plateau, in a transition or off the support."""
    a, b, c, d = knots
    if placement == "plateau":
        return 0.0
    if placement == "transition":
        lo, hi = (a, b) if rng.random() < 0.5 else (c, d)
        return -rng.uniform(lo + 0.1, hi - 0.1)
    if rng.random() < 0.5:
        return -a + rng.uniform(0.5, 2.0)
    return -d - rng.uniform(0.5, 2.0)


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


# -- CLI operations -----------------------------------------------------------

def _cli_op(label, argv, check, out_path=None):
    import deltakit.cli

    def fn():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = deltakit.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code
        return code, buf.getvalue()

    def collect(raw):
        code, text = raw
        data = text.encode()
        if out_path is not None:
            data += out_path.read_bytes()
        return code, data

    return Op(label, fn, collect, check)


def _pair_check(knots, shift, params, tol):
    f0 = oracles.bump_value(knots, shift, 0.0)

    def check(code, data):
        report = json.loads(data)
        if code != 0 or report["verdict"] != "pass":
            return f"exit {code}, verdict {report['verdict']}"
        if len(report["results"]) != len(params):
            return "wrong number of results"
        if abs(report["target_value_at_zero"] - f0) > 1e-12:
            return f"f(0) {report['target_value_at_zero']!r} vs oracle {f0!r}"
        if not abs(report["extrapolated_limit"] - f0) <= tol:
            return f"limit {report['extrapolated_limit']!r} is further than {tol} from {f0!r}"
        return None

    return check


def _certify_check(name):
    def check(code, data):
        report = json.loads(data)
        if code != 0 or report["verdict"] != "pass":
            return f"exit {code}, verdict {report['verdict']}"
        if report["results"][0]["certificate"] != name:
            return "wrong certificate in report"
        return None

    return check


def _figure_check(fig, interval, grid):
    def check(code, data):
        if code != 0:
            return f"exit {code}"
        return oracles.figure_error(fig, interval, grid, data.decode())

    return check


def pair_ladder(seed, out_dir):
    rng = random.Random(seed)
    ops = []
    rungs = range(3, 11)
    placements = ("plateau", "transition", "off")
    cells = [(m, p) for m in rungs for p in placements]
    # stratum k goes to cell k: more rungs get the longer ladders
    r_top = _log_strata(rng, 400.0, 1600.0, len(cells))
    r_bottom = _log_strata(rng, 40.0, 120.0, len(cells))
    eps_top = _log_strata(rng, 0.05, 0.2, len(cells))
    eps_bottom = _log_strata(rng, 1e-5, 1e-4, len(cells))[::-1]
    for k, (m, placement) in enumerate(cells):
        for family, params, tol in (
                ("fourier", _geometric(r_bottom[k], r_top[k], m), 1e-3),
                ("lorentz", _geometric(eps_top[k], eps_bottom[k], m), 1e-2)):
            knots = _seeded_knots(rng)
            shift = _seeded_shift(rng, knots, placement)
            argv = ["pair", "--family", family, "--params", _floats(params),
                    f"--bump={_floats(knots)}", f"--shift={shift!r}", "--tol", repr(tol)]
            ops.append(_cli_op(f"pair:{family}", argv,
                               _pair_check(knots, shift, params, tol)))
    rng.shuffle(ops)
    return ops


def certify_figures(seed, out_dir):
    rng = random.Random(seed)
    names = ("eq23_identity", "fubini", "lemma4", "lemma5_rate",
             "lemma6_lorentz", "lemma6_theta", "si_tail")
    runs = [(name, None) for name in names]
    # fubini at R=50 is the heaviest operation, once a pass; lemma4 at
    # n_max=1000 comes next, three times a pass, so the p90 or p95 tail falls
    # among its runs for any plausible number of passes. Its numpy-bound time
    # repeats better across processes than the call-bound nested quadrature.
    runs += [("fubini", [50.0]),
             ("lemma4", [1000]), ("lemma4", [999]), ("lemma4", [998])]
    # Seeded larger parameters, in bands narrow enough that a pass costs the
    # same for every seed and that none crosses eq23_identity, the median op.
    runs += [("lemma4", [rng.randint(600, 700)]),
             ("fubini", [rng.uniform(20.0, 25.0)]),
             ("lemma6_theta", [rng.randint(1800, 2000), rng.uniform(0.5, 2.0)]),
             ("lemma6_lorentz", [rng.randint(4800, 5200), rng.uniform(0.25, 1.0)])]
    top = rng.uniform(0.05, 0.2)
    runs += [("lemma5_rate", _geometric(top, top * 1e-4, 5))]
    ops = []
    for name, params in runs:
        argv = ["certify", name] + ([] if params is None else ["--params", _floats(params)])
        ops.append(_cli_op(f"certify:{name}", argv, _certify_check(name)))
    for fig in range(1, 10):
        interval = (-rng.uniform(4.0, 6.0), rng.uniform(4.0, 6.0))
        path = Path(out_dir) / f"fig{fig}.csv"
        argv = ["figure", "--fig", str(fig), f"--interval={_floats(interval)}",
                "--out", str(path)]
        ops.append(_cli_op(f"figure:{fig}", argv, _figure_check(fig, interval, 2001), path))
    rng.shuffle(ops)
    return ops


# -- library operations -------------------------------------------------------

def _report_collect(value):
    return None, repr(value).encode()


def _verdict_check(expected):
    def check(code, data):
        verdict = b"verdict=True" in data
        return None if verdict == expected else f"verdict {verdict}, expected {expected}"

    return check


def _parts_check(f0):
    def check(code, data):
        value = float(data.decode())
        if not abs(value - f0) <= PARTS_TOL:
            return f"pair_by_parts {value!r} is further than {PARTS_TOL} from f(0) {f0!r}"
        return None

    return check


def _lift_sinc_seq():
    """Sinc sequence without its closed level-2 primitive, so it is lifted numerically."""
    import deltakit as dk
    return dk.FundamentalSeq(term=dk.sinc_delta, primitive_order=2,
                             primitives=(dk.sinc_step,), limit_of_primitives=dk.half_abs,
                             panel_hint=lambda n: min(0.5, math.pi / n), label="sinc_lifted")


def parts_sequences(seed, out_dir):
    import deltakit as dk
    rng = random.Random(seed)
    f0 = oracles.bump_value(PARTS_KNOTS, 0.0, 0.0)

    def interval():
        centre = rng.uniform(-1.0, 1.0)  # fixed width 8 keeps the lifting cost fixed
        return (centre - 4.0, centre + 4.0)

    iv = [interval() for _ in range(9)]
    a_lorentz, a_step, a_sinc = (rng.uniform(0.3, 1.0) for _ in range(3))
    calls = [
        ("parts:sinc", lambda: dk.pair_by_parts(dk.sinc_delta_seq(), dk.bump(*PARTS_KNOTS)),
         _parts_check(f0)),
        ("parts:lorentz",
         lambda: dk.pair_by_parts(dk.lorentz_delta_seq(), dk.bump(*PARTS_KNOTS)),
         _parts_check(f0)),
        ("fundamental:sinc",
         lambda: dk.check_fundamental(dk.sinc_delta_seq(), iv[0], n_max=50, tol=0.02),
         _verdict_check(True)),
        ("fundamental:lorentz",
         lambda: dk.check_fundamental(dk.lorentz_delta_seq(), iv[1], n_max=50, tol=0.05),
         _verdict_check(True)),
        ("equivalent:sinc_lorentz",
         lambda: dk.check_equivalent(dk.sinc_delta_seq(), dk.lorentz_delta_seq(), iv[2],
                                     n_max=60, tol=0.05),
         _verdict_check(True)),
        ("equivalent:scaled_cos_zero",
         lambda: dk.check_equivalent(dk.scaled_cos_seq(), dk.zero_seq(), iv[3],
                                     n_max=50, tol=0.05),
         _verdict_check(True)),
        ("equivalent:lifted_sinc_lorentz",
         lambda: dk.check_equivalent(_lift_sinc_seq(), dk.lorentz_delta_seq(), iv[4],
                                     n_max=20, tol=0.2),
         _verdict_check(True)),
        ("fundamental:damped_cos",
         lambda: dk.check_fundamental(dk.damped_cos_seq(), iv[5], n_max=100, tol=0.05),
         _verdict_check(True)),
        ("equivalent:derivatives",
         lambda: dk.check_equivalent(dk.seq_derivative(dk.damped_cos_seq()),
                                     dk.seq_derivative(dk.zero_seq()), iv[6],
                                     n_max=80, tol=0.05),
         _verdict_check(True)),
        ("zero_off_origin:lorentz",
         lambda: dk.check_zero_off_origin(dk.lorentz_delta_seq(), a_lorentz, n_max=200),
         _verdict_check(True)),
        ("zero_off_origin:step",
         lambda: dk.check_zero_off_origin(dk.sinc_step_seq(), a_step, n_max=200),
         _verdict_check(True)),
        ("zero_off_origin:sinc",
         lambda: dk.check_zero_off_origin(dk.sinc_delta_seq(), a_sinc, n_max=200),
         _verdict_check(True)),
        ("fundamental:step",
         lambda: dk.check_fundamental(dk.sinc_step_seq(), iv[7], n_max=50, tol=0.02),
         _verdict_check(True)),
        ("fundamental:scaled_cos",
         lambda: dk.check_fundamental(dk.scaled_cos_seq(), iv[8], n_max=50, tol=0.05),
         _verdict_check(True)),
    ]
    ops = [Op(label, fn, _report_collect, check) for label, fn, check in calls]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "pair_ladder": pair_ladder,
    "certify_figures": certify_figures,
    "parts_sequences": parts_sequences,
}
