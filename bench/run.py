"""deltakit benchmark: one closed-loop client driving deltakit in-process.

    python3 bench/run.py --workload pair_ladder --seed 1 --seconds 25 --trace 0

Run from a source checkout; deltakit is imported from ./src. One client runs
the workload's seeded deck of operations again and again, each operation
starting when the previous one has returned, in whole passes (at least
three) until --seconds of wall time have elapsed. Every output is checked:
against the expected exit code and verdict, against independent oracles,
and for byte-identical repeats.

Times are CPU seconds of this process (time.process_time), not wall time.
On a shared small VM, wall time carries the other tenants' steal time: a
fixed 30 ms loop was measured at 25..96 ms wall with a 30% quartile spread,
against 3.7% in CPU time. deltakit runs on one thread here (no
DELTAKIT_THREADS pool, BLAS and OpenMP pinned to one thread), so its CPU
time is its latency without the steal; work moved to other threads of the
process still counts, as process CPU time.

CPU time still drifts with the host's load, by up to a third between runs
minutes apart. So the end-to-end loop also runs a fixed calibration kernel
(numpy and interpreter work, no deltakit) between operations, at least every
CALIBRATE_EVERY CPU seconds, and scales every operation time by
CALIBRATION_NOMINAL_S over the kernel's median time in that run: the
reported times are those of a machine on which the kernel takes its nominal
time. The unscaled figures are printed too.

--trace 0 prints the end-to-end metrics (tracing off):
  setup_s      median over 7 fresh interpreters of the time to import
               deltakit.cli and make the first si call
  ops_per_s    operations completed per second of loop time
  op_p50_ms    median operation latency
  op_tail_ms   highest of p50/p75/p90/p95/p99/p99.9 with at least ten
               samples beyond it
  peak_rss_mb  peak resident memory of the process
and, on its own line, failed_frac, which the final JSON also carries as
failed/attempted.

--trace 1 runs the same passes once untraced and once with bench/tracer.py
installed, and prints per-layer metrics normalised per operation (see
LAYER_METRICS), the tracing overhead, and the share of traced time covered
by spans, all in unscaled CPU time. Spans are written to
.bench_run/trace-<workload>.json.

The last stdout line is one JSON object with correct, attempted, failed and
metrics. Exit code 2, with no JSON, when deltakit's source is missing.
"""

from __future__ import annotations

import os
import sys

# Pin threading before numpy is imported: one client, no thread pools.
os.environ.pop("DELTAKIT_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
CLOCK = time.process_time
SETUP_SAMPLES = 7
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_PASSES = 3  # so a deck of slow operations still gives a p75
CALIBRATE_EVERY = 0.25
CALIBRATION_NOMINAL_S = 0.013

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.process_time()
import deltakit.cli
from deltakit.special import si
si(1.0)
t1 = time.process_time()
if not deltakit.cli.__file__.startswith({src!r}):
    sys.exit("deltakit imported from " + deltakit.cli.__file__)
print(repr(t1 - t0))
"""

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}

CERTIFICATES = ("eq23_identity", "fubini", "lemma4", "lemma5_rate",
                "lemma6_lorentz", "lemma6_theta", "si_tail")

# Per-layer metrics, per benchmark operation unless the unit says otherwise.
# Calls count every call of the layer's public functions, nested ones too;
# self_s is span time minus child-span time; points are sizes of the x
# argument. Each group is predicted to move one end-to-end metric:
#   quadrature.{panels,integrand_points,maxed_calls,converged_ratio} and
#   testfn.derivative.*       -> ops_per_s, peak_rss_mb on parts_sequences
#                                (no change on pair_ladder)
#   quadrature.{calls,self_s,integrand_s,points_per_s,scalar_fallback_points},
#   pairing.*, families.*, testfn.eval_*  -> op_p50_ms on pair_ladder
#   certify.*, special.si.*, special.fubini.*
#                             -> ops_per_s, op_tail_ms on certify_figures
#   cli.*                     -> op_p50_ms on certify_figures
#   seqdist.*                 -> ops_per_s on parts_sequences
# quadrature.points_per_s is integrand points over quadrature self time plus
# integrand time; certify.<name>.s is the mean time of one run_certificate
# call for that certificate; trace.overhead_frac is traced over untraced
# time, minus 1; trace.coverage_frac is the sum of all self times over the
# traced time.
LAYER_METRICS = {
    "quadrature.calls": "count/op", "quadrature.self_s": "s/op",
    "quadrature.integrand_s": "s/op", "quadrature.points_per_s": "points/s",
    "quadrature.scalar_fallback_points": "count/op", "quadrature.panels": "count/op",
    "quadrature.integrand_points": "count/op", "quadrature.maxed_calls": "count/op",
    "quadrature.converged_ratio": "ratio",
    "testfn.derivative.calls": "count/op", "testfn.derivative.points": "count/op",
    "testfn.derivative.self_s": "s/op",
    "testfn.eval_points": "count/op", "testfn.eval_s": "s/op",
    "pairing.calls": "count/op", "pairing.self_s": "s/op",
    "families.calls": "count/op", "families.points": "count/op", "families.self_s": "s/op",
    "certify.calls": "count/op", "certify.self_s": "s/op",
    **{f"certify.{name}.s": "s/run" for name in CERTIFICATES},
    "special.si.calls": "count/op", "special.si.points": "count/op",
    "special.si.self_s": "s/op",
    "special.fubini.calls": "count/op", "special.fubini.self_s": "s/op",
    "cli.calls": "count/op", "cli.self_s": "s/op", "cli.output_bytes": "B/op",
    "seqdist.calls": "count/op", "seqdist.self_s": "s/op", "seqdist.lift_calls": "count/op",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_deltakit():
    """Import deltakit from this checkout's src/, or exit 2."""
    if not (SRC / "deltakit" / "__init__.py").is_file():
        fail(f"no deltakit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltakit
    if Path(deltakit.__file__).resolve().parent != SRC / "deltakit":
        fail(f"deltakit imported from {deltakit.__file__}, not {SRC}")
    return deltakit


def machine_info():
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def calibration_kernel():
    """Fixed work standing in for deltakit's mix of numpy and interpreter time."""
    import numpy as np
    x = np.linspace(-5.0, 5.0, 20001)
    total = 0.0
    for k in range(1, 21):
        total += float(np.sum(np.sin(k * x) / (1.0 + x * x)))
    for i in range(30000):
        total += i * i
    return total


def measure_setup():
    """Median time, in fresh interpreters, to import deltakit.cli and call si once."""
    code = SETUP_CODE.format(src=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        if i:  # the first run only warms the file cache and writes bytecode
            samples.append(float(proc.stdout))
    return statistics.median(samples)


class Loop:
    """Closed loop over whole passes of a deck, recording latency and outputs."""

    def __init__(self, ops, calibrate=False):
        self.ops = ops
        self.calibrate = calibrate
        self.calibration = []   # CPU seconds of each calibration_kernel run
        self.first = {}         # op index -> (exit code, output) of its first run
        self.runs = [0] * len(ops)
        self.fails = [0] * len(ops)
        self.errors = []
        self.latencies = []
        self.output_bytes = 0

    def _fail(self, i, message):
        self.fails[i] += 1
        if len(self.errors) < 10:
            self.errors.append(f"{self.ops[i].label}: {message}")

    def run(self, seconds=None, passes=None, tracer=None, min_passes=MIN_PASSES):
        """Run `passes` passes, or at least `min_passes` until `seconds` of wall time pass.

        Returns (passes, CPU seconds of the loop without calibration runs).
        """
        done = 0
        clock = CLOCK
        wall_start = time.perf_counter()
        start = clock()
        calibrated_at = -math.inf
        calibration_s = 0.0
        while True:
            for i, op in enumerate(self.ops):
                if self.calibrate and clock() - calibrated_at >= CALIBRATE_EVERY:
                    c0 = clock()
                    calibration_kernel()
                    calibrated_at = clock()
                    self.calibration.append(calibrated_at - c0)
                    calibration_s += calibrated_at - c0
                if tracer is not None:
                    tracer.begin_op(op.label)
                self.runs[i] += 1
                t0 = clock()
                try:
                    raw = op.fn()
                except Exception as exc:  # a failing operation counts, the loop goes on
                    self.latencies.append(clock() - t0)
                    self._fail(i, f"raised {exc!r}")
                    continue
                self.latencies.append(clock() - t0)
                code, data = op.collect(raw)
                if code is not None:  # bytes a CLI command printed or wrote
                    self.output_bytes += len(data)
                if i not in self.first:
                    self.first[i] = code, data
                elif (code, data) != self.first[i]:
                    self._fail(i, "output differs from its first run")
            done += 1
            if (passes is not None and done >= passes) or (
                    passes is None and done >= min_passes
                    and time.perf_counter() - wall_start >= seconds):
                return done, clock() - start - calibration_s

    def check_outputs(self):
        """Check each distinct output once; a wrong one fails every run of its op."""
        for i, (code, data) in sorted(self.first.items()):
            try:
                message = self.ops[i].check(code, data)
            except Exception as exc:  # unparsable output is a wrong output
                message = f"check raised {exc!r}"
            if message is not None:
                self._fail(i, message)
                self.fails[i] = self.runs[i]

    @property
    def failed(self):
        return sum(self.fails)

    @property
    def attempted(self):
        return len(self.latencies)


def tail(latencies):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it.

    Returns (value, percentile); the maximum when there are under 20 samples.
    A fixed ladder keeps the percentile the same across runs and commits.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    fits = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0]
    if not fits:
        return ordered[-1], 100.0
    return ordered[math.ceil(fits[-1] / 100.0 * n) - 1], fits[-1]


def end_to_end(ops, seconds):
    setup_s = measure_setup()
    loop = Loop(ops, calibrate=True)
    passes, cpu = loop.run(seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check_outputs()
    kernel_s = statistics.median(loop.calibration)
    scale = CALIBRATION_NOMINAL_S / kernel_s
    tail_s, tail_pct = tail(loop.latencies)
    p50_s = statistics.median(loop.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": loop.attempted / (cpu * scale),
        "op_p50_ms": 1e3 * p50_s * scale,
        "op_tail_ms": 1e3 * tail_s * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"passes={passes} of {len(ops)} ops, {cpu:.3f} CPU s",
             f"calibration kernel median {1e3 * kernel_s:.3f} ms over "
             f"{len(loop.calibration)} runs: times scaled by {scale:.4f}; unscaled "
             f"ops_per_s {loop.attempted / cpu:.6g}, op_p50_ms {1e3 * p50_s:.6g}, "
             f"op_tail_ms {1e3 * tail_s:.6g}",
             f"op_tail_ms is p{tail_pct:g} of {loop.attempted} samples",
             f"failed_frac = {loop.failed / max(1, loop.attempted):.6g} (failed/attempted)"]
    return loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def layer_metrics(tracer, n_ops, cpu, untraced_cpu, output_bytes):
    import numpy as np
    st = tracer.self_times()
    names = tracer.names
    span_name = np.asarray(tracer.span_name, dtype=np.int64)
    self_by = np.bincount(span_name, weights=st, minlength=len(names))
    calls = dict(zip(names, tracer.calls))
    points = dict(zip(names, tracer.points))
    outer = dict(zip(names, tracer.outer_s))
    self_s = dict(zip(names, self_by))

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == prefix)

    q = tracer.quad
    integrand_points = points.get("integrand", 0)
    m = {
        "quadrature.calls": layer("quadrature", calls),
        "quadrature.self_s": layer("quadrature", self_s),
        "quadrature.integrand_s": outer.get("integrand", 0.0),
        "quadrature.scalar_fallback_points": q["scalar_fallback_points"],
        "quadrature.panels": q["panels"],
        "quadrature.integrand_points": integrand_points,
        "quadrature.maxed_calls": q["maxed"],
        "testfn.derivative.calls": calls.get("testfn.derivative", 0),
        "testfn.derivative.points": points.get("testfn.derivative", 0),
        "testfn.derivative.self_s": self_s.get("testfn.derivative", 0.0),
        "testfn.eval_points": points.get("testfn.TestFunction.__call__", 0),
        "testfn.eval_s": outer.get("testfn.TestFunction.__call__", 0.0),
        "pairing.calls": layer("pairing", calls),
        "pairing.self_s": layer("pairing", self_s),
        "families.calls": layer("families", calls),
        "families.points": layer("families", points),
        "families.self_s": layer("families", self_s),
        "certify.calls": layer("certify", calls),
        "certify.self_s": layer("certify", self_s),
        "special.si.calls": calls.get("special.si", 0),
        "special.si.points": points.get("special.si", 0),
        "special.si.self_s": self_s.get("special.si", 0.0),
        "special.fubini.calls": calls.get("special.fubini_square", 0),
        "special.fubini.self_s": self_s.get("special.fubini_square", 0.0),
        "cli.calls": layer("cli", calls),
        "cli.self_s": layer("cli", self_s),
        "cli.output_bytes": output_bytes,
        "seqdist.calls": layer("seqdist", calls),
        "seqdist.self_s": layer("seqdist", self_s),
        "seqdist.lift_calls": tracer.site_calls.get(("seqdist", "anchored_primitive_values"), 0),
    }
    m = {k: v / n_ops for k, v in m.items()}
    engine_s = m["quadrature.self_s"] + m["quadrature.integrand_s"]
    m["quadrature.points_per_s"] = m["quadrature.integrand_points"] / engine_s if engine_s else 0.0
    m["quadrature.converged_ratio"] = q["converged"] / q["calls"] if q["calls"] else 1.0

    # certify.<name>.s: mean duration of run_certificate, by the certificate an op ran
    per_cert = {name: [] for name in CERTIFICATES}
    rc = names.index("certify.run_certificate") if "certify.run_certificate" in names else -1
    for i in np.flatnonzero(span_name == rc):
        label = tracer.op_labels[tracer.span_op[i]]
        per_cert[label.partition(":")[2]].append(tracer.span_end[i] - tracer.span_start[i])
    for name, durations in per_cert.items():
        m[f"certify.{name}.s"] = statistics.fmean(durations) if durations else 0.0

    m["trace.overhead_frac"] = cpu / untraced_cpu - 1.0
    m["trace.coverage_frac"] = float(st.sum()) / cpu
    return {k: (m[k], unit) for k, unit in LAYER_METRICS.items()}


def traced(ops, seconds, workload):
    from tracer import Tracer
    loop = Loop(ops)
    passes, untraced_cpu = loop.run(seconds=seconds / 2.0, min_passes=1)
    bytes_before = loop.output_bytes
    tracer = Tracer(CLOCK)
    with tracer:
        _, cpu = loop.run(passes=passes, tracer=tracer)
    loop.check_outputs()
    n_ops = passes * len(ops)
    metrics = layer_metrics(tracer, n_ops, cpu, untraced_cpu,
                            loop.output_bytes - bytes_before)
    path = RUN_DIR / f"trace-{workload}.json"
    tracer.dump(path)
    notes = [f"passes={passes} of {len(ops)} ops each way, untraced {untraced_cpu:.3f} CPU s, "
             f"traced {cpu:.3f} CPU s, {len(tracer.span_start)} spans -> {path.relative_to(ROOT)}"]
    return loop, metrics, notes


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_deltakit()
    from deltakit.special import si
    si(1.0)  # lazy set-up (the si prefix table) is paid before timing
    RUN_DIR.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, RUN_DIR)

    if args.trace:
        loop, metrics, notes = traced(ops, args.seconds, args.workload)
    else:
        loop, metrics, notes = end_to_end(ops, args.seconds)

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in notes:
        print(note)
    for err in loop.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
