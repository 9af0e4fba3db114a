"""Command-line surface: exit codes, report schemas, CSV determinism."""

import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import deltakit
import deltakit.certify
import deltakit.cli
import deltakit.pairing
from deltakit.certify import certificate_names, run_certificate
from deltakit.cli import RunConfig, _figure_series, main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "pair_fourier": ["pair", "--family", "fourier", "--params", "100,200,400,800"],
    "pair_lorentz": ["pair", "--family", "lorentz", "--params", "1e-1,1e-2,1e-3,1e-4",
                     "--tol", "1e-2"],
    "pair_shift": ["pair", "--family", "fourier", "--params", "100,200,400",
                   "--shift", "0.25"],
    # the shift puts the origin inside the bump's rising transition
    "pair_transition": ["pair", "--family", "lorentz", "--params", "1e-1,1e-2,1e-3",
                        "--bump=-2.1,-1.2,1.1,1.9", "--shift", "1.5", "--tol", "1e-2"],
    **{f"certify_{name}": ["certify", name] for name in certificate_names()},
}
# outputs in the other formats, named by their golden file
FORMAT_GOLDEN_ARGV = {
    **{f"figure_{fig}.csv": ["figure", "--fig", str(fig), "--grid", "41", "--out", "-"]
       for fig in range(1, 10)},
    "figure_3.json": ["figure", "--fig", "3", "--grid", "41", "--format", "json"],
    "certify_si_tail.csv": ["certify", "si_tail", "--format", "csv"],
    "pair_fourier.csv": [*GOLDEN_ARGV["pair_fourier"], "--format", "csv"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pair_fourier(capsys):
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400,800", "--tol", "1e-3")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "pair"
    assert report["verdict"] == "pass"
    assert abs(report["extrapolated_limit"] - 1.0) <= 1e-3
    assert len(report["results"]) == 4
    assert report["results"][0]["param"] == 100.0


@pytest.mark.parametrize("params", [
    "1e-1,1e-2,1e-3,1e-4",  # the eps = 1e-4 rung is 4.3e-5 from f(0)
    "1e-100,1e-120,1e-150",  # every rung is f(0) to rounding
])
def test_pair_lorentz(capsys, params):
    code, out = run_cli(capsys, "pair", "--family", "lorentz", "--params", params)
    assert code == 0
    report = json.loads(out)
    assert abs(report["extrapolated_limit"] - 1.0) <= 1e-3


@pytest.mark.parametrize("bump_flags", [
    [], ["--shift", "0.4"], ["--bump=-2.1,-1.2,1.1,1.9", "--shift", "1.5"],
], ids=["default", "shift", "transition"])
@pytest.mark.parametrize("family, params", [
    ("fourier", "100,200,400,800"), ("fourier", "800,400,200,100"),
    ("lorentz", "1e-1,1e-2,1e-3,1e-4"), ("lorentz", "1e-4,1e-3,1e-2,1e-1"),
])
def test_pair_limit_is_the_finest_rung(capsys, family, params, bump_flags):
    code, out = run_cli(capsys, "pair", "--family", family, "--params", params, *bump_flags)
    report = json.loads(out)
    rungs = {r["param"]: r["value"] for r in report["results"]}
    finest = rungs[max(rungs) if family == "fourier" else min(rungs)]
    f0 = report["target_value_at_zero"]
    assert code == 0 and report["extrapolated_limit"] == finest
    assert report["abs_limit_error"] == abs(finest - f0)
    assert all(abs(finest - f0) <= abs(value - f0) for value in rungs.values())


def test_pair_shifted_bump_targets_zero(capsys):
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400", "--shift", "5", "--tol", "1e-3")
    assert code == 0
    report = json.loads(out)
    assert report["target_value_at_zero"] == 0.0
    assert abs(report["extrapolated_limit"]) <= 1e-3


def test_pair_tolerance_failure_exit_code(capsys):
    # the R = 800 rung, the limit, is 2.2e-16 from f(0)
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400,800", "--tol", "1e-16")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_pair_csv_format(capsys):
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,abs_error_estimate"
    assert lines[-1].startswith("limit,")


def test_pair_config_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--family", "fourier", "--params", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--family", "fourier", "--params", "100,200,inf"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--family", "fourier", "--params", "100,200,400",
              "--bump", "1,2,3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--family", "fourier", "--params", "100,200,400",
              "--bump", "2,1,3,4"])
    assert exc.value.code == 2
    # a tolerance that no error meets, shifts that are not a translation, and one
    # that rounds the bump's support [-2, 2] to the single point 1e17
    for flag, value in (("--tol", "nan"), ("--shift", "inf"), ("--shift", "nan"),
                        ("--shift", "1e17")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--family", "fourier", "--params", "100,200,400", flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}:" in err
    # kernels that overflow: the Lorentz peak's panel sum 2/(pi eps) at 1e-309, and the
    # sinc nodes r x on the support [-2, 2] at 1e308
    for family, params in (("lorentz", "1e-300,1e-305,1e-309"),
                           ("fourier", "1e306,1e307,1e308")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--family", family, "--params", params])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --params:" in err and "Traceback" not in err


def test_pair_non_monotone_params_exit_2():
    # a ladder may rise (cutoffs) or fall (widths), but never repeat or turn
    for params in ("100,100,200", "400,100,200"):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--family", "fourier", "--params", params])
        assert exc.value.code == 2


def test_certify_pass(capsys):
    code, out = run_cli(capsys, "certify", "lemma4", "--params", "50")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["results"][0]["certificate"] == "lemma4"
    # an integral n_max written as a float names the same certificate run
    assert run_cli(capsys, "certify", "lemma4", "--params", "50.0") == (code, out)


# each would otherwise pass vacuously or die in a traceback with exit 1
BAD_CERTIFY_PARAMS = {
    "lemma4": ["0", "-5", "2.7", "nan", "50,7"],
    # an a whose majorant at n = 1 is not finite: 1/(pi a^2) or 2/(pi a) overflows
    "lemma6_lorentz": ["0", "100,0", "100,-0.5", "10,inf", "1000,1e-200", "1000,1e-160"],
    "lemma6_theta": ["0", "-1", "100,0", "100,0.5,3", "1000,1e-320"],
    "fubini": ["-1", "1,0,5"],
    # a width whose kernel's panel sum 2/(pi eps) overflows
    "lemma5_rate": ["0", "1e-2,-1e-3", "1e-309"],
    # values a certificate has no place for would be dropped silently
    "si_tail": ["5"],
    "eq23_identity": ["1"],
}


@pytest.mark.parametrize("name", sorted(BAD_CERTIFY_PARAMS))
def test_certify_bad_params_exit_2(name):
    for text in BAD_CERTIFY_PARAMS[name]:
        with pytest.raises(SystemExit) as exc:
            main(["certify", name, f"--params={text}"])
        assert exc.value.code == 2, text


@pytest.mark.parametrize("argv", [
    ["certify", "lemma4", "--grid", "7"],
    ["figure", "--fig", "8", "--tol", "1e-3"],
    ["pair", "--family", "fourier", "--params", "100,200,400", "--interval", "0,1"],
])
def test_flag_the_subcommand_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_run_certificate_rejects_params_before_running():
    with pytest.raises(ValueError):
        run_certificate("lemma4", 0)
    with pytest.raises(ValueError):
        run_certificate("lemma6_theta", 100, 0.0)


def test_run_certificate_names_the_known_certificates():
    with pytest.raises(KeyError, match="unknown certificate 'nope'; known: "
                                       + ", ".join(certificate_names())):
        run_certificate("nope")


@pytest.mark.parametrize("name, params", [("lemma6_lorentz", "1000,1e200"),
                                          ("lemma6_theta", "1000,1e305")])
def test_lemma6_at_a_large_a_passes_quietly(capsys, name, params):
    # the majorant underflows to 0 there, and so does every measured sup
    code, out = run_cli(capsys, "certify", name, "--params", params)
    assert code == 0 and capsys.readouterr().err == ""
    assert "Infinity" not in out and json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("unconverged", ["x_first", "alpha_first"])
def test_fubini_fails_when_an_order_does_not_converge(monkeypatch, capsys, unconverged):
    real = deltakit.certify.fubini_square

    def fubini_square(R, order):
        res = real(R, order)
        return dataclasses.replace(res, converged=False) if order == unconverged else res

    monkeypatch.setattr(deltakit.certify, "fubini_square", fubini_square)
    assert not run_certificate("fubini", 1.0).passed
    code, out = run_cli(capsys, "certify", "fubini", "--params", "1")
    assert code == 1 and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("R", ["10000", "1e6", "1e308"])
def test_fubini_passes_at_a_square_of_side_1e4(capsys, R):
    # the outer integrals resolve the layer of width 1/R at 0, so the orders agree; past
    # R ~ 1e6 an outer cut over all of [0, R] did not converge, and at 1e308 its nodes
    # overflowed
    code, out = run_cli(capsys, "certify", "fubini", "--params", R)
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert capsys.readouterr().err == ""


def test_lemma4_at_a_million_costs_no_root_sweep(monkeypatch, capsys):
    # the sups are S/n from the two roots on (0, 5]: one root search, no si call per n; the
    # root sweep to 5e6 took 1.4 s CPU, and its worst margin is the one printed here, bit
    # for bit
    real, uppers = deltakit.certify.si_half_pi_roots, []
    monkeypatch.setattr(deltakit.certify, "si_half_pi_roots",
                        lambda upper: uppers.append(upper) or real(upper))
    argv = ("certify", "lemma4", "--params", "1000000")
    cpu = []
    for _ in range(3):  # the fastest of three: a shared machine adds time, never removes it
        start = time.process_time()
        code, out = run_cli(capsys, *argv)
        cpu.append(time.process_time() - start)
    assert uppers == [5.0] * 3
    assert code == 0 and min(cpu) < 0.05, cpu
    details = json.loads(out)["results"][0]["details"]
    assert details["worst_margin"] == -2.0847406166813797e-07
    assert details["for_every_n"]["premise"]


def test_pair_fails_when_a_pairing_does_not_converge(monkeypatch, capsys):
    real = deltakit.cli.pair_sinc

    def pair_sinc(r, f):
        res = real(r, f)
        return dataclasses.replace(res, converged=False) if r == 200.0 else res

    monkeypatch.setattr(deltakit.cli, "pair_sinc", pair_sinc)
    code, out = run_cli(capsys, *GOLDEN_ARGV["pair_fourier"])
    report = json.loads(out)
    # the limit still meets --tol; the unconverged pairing alone fails the run
    assert report["abs_limit_error"] <= 1e-3
    assert code == 1 and report["verdict"] == "fail"


def test_lemma5_rate_fails_when_a_pairing_does_not_converge(monkeypatch, capsys):
    real = deltakit.certify.pair_lorentz_ladder

    def pair_lorentz_ladder(eps_list, f, *, tol=1e-10):
        return [dataclasses.replace(res, converged=False) if eps == 1e-3 else res
                for eps, res in zip(eps_list, real(eps_list, f, tol=tol))]

    monkeypatch.setattr(deltakit.certify, "pair_lorentz_ladder", pair_lorentz_ladder)
    report = run_certificate("lemma5_rate")
    assert not report.passed
    assert report.summary == "pairing at eps = 0.001 did not converge"
    code, out = run_cli(capsys, "certify", "lemma5_rate")
    assert code == 1 and json.loads(out)["verdict"] == "fail"


def test_lemma5_rate_fails_when_a_pairing_breaks_the_majorant(monkeypatch, capsys):
    real = deltakit.certify.pair_lorentz_ladder

    def pair_lorentz_ladder(eps_list, f, *, tol=1e-10):
        return [dataclasses.replace(res, value=res.value + 0.1) if eps == 1e-3 else res
                for eps, res in zip(eps_list, real(eps_list, f, tol=tol))]

    monkeypatch.setattr(deltakit.certify, "pair_lorentz_ladder", pair_lorentz_ladder)
    report = run_certificate("lemma5_rate")
    assert not report.passed and report.summary == "majorant violated"
    code, out = run_cli(capsys, "certify", "lemma5_rate")
    assert code == 1 and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("eps", ["1e8", "1e200", "1e300,1e8,1,1e-4"])
def test_lemma5_rate_majorant_holds_at_wide_widths(capsys, eps):
    # ln(M^2 + eps^2) - ln(eps^2) cancelled to 0 at 1e8 and was NaN past ~1e154
    code, out = run_cli(capsys, "certify", "lemma5_rate", "--params", eps)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "pass"
    result = report["results"][0]
    assert result["summary"] == "pairing error within the analytic eps*log majorant for all eps"
    assert all(math.isfinite(row["majorant"]) for row in result["details"]["samples"])


def test_lemma5_rate_reports_a_width_whose_square_overflows(capsys):
    # (M/eps)^2 overflows below eps ~ 1.5e-154: the majorant is then 2 ln(M/eps) based,
    # finite, and the pairing, with its kernel scaled to eps, converges there
    code, out = run_cli(capsys, "certify", "lemma5_rate", "--params", "1e-160")
    report = json.loads(out)["results"][0]
    assert code == 0 and capsys.readouterr().err == ""
    assert report["summary"] == "pairing error within the analytic eps*log majorant for all eps"
    (row,) = report["details"]["samples"]
    S = report["details"]["sup_difference_quotient"]
    assert row["majorant"] == pytest.approx(S * 1e-160 / math.pi * 2.0 * math.log(2e160),
                                            rel=1e-15, abs=0.0)


def test_certify_si_tail_and_identity(capsys):
    for name in ("si_tail", "eq23_identity"):
        code, out = run_cli(capsys, "certify", name)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


def test_certify_unknown_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "no_such_bound"])
    assert exc.value.code == 2


def test_figure_csv(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code = main(["figure", "--fig", "3", "--grid", "101", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,value,series"
    assert len(lines) == 1 + 5 * 101
    series = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert series == {f"n={k}" for k in range(1, 6)}


def test_figure_envelope_series(tmp_path):
    out_path = tmp_path / "fig2.csv"
    code = main(["figure", "--fig", "2", "--grid", "201", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "delta_180" in text and "envelope_upper" in text and "envelope_lower" in text


def test_figure_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["figure", "--fig", "7", "--grid", "101", "--out", str(p1)])
    main(["figure", "--fig", "7", "--grid", "101", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("interval", [None, (-4.7, 5.3), (-5.2, 4.7)])
@pytest.mark.parametrize("fig", range(1, 10))
def test_full_size_figure_bytes(fig, interval, tmp_path, capsys):
    # every row from the figure's own arrays, each formatted on its own: the
    # CLI fills one row template per series, formats a grid that several
    # series share once, and figure 2's envelopes lie on the nonzero points,
    # not on the grid
    config = RunConfig("figure", fig=fig, **({} if interval is None else {"interval": interval}))
    series = _figure_series(config)
    if fig == 2 and interval is None:  # the default grid holds 0: two grids
        assert [len(points) for _, points, _ in series] == [2001, 2000, 2000]
    want = "x,value,series\n" + "".join(
        "%.17g,%.17g,%s\n" % (x, v, label)
        for label, points, values in series for x, v in zip(points, values))
    argv = ["figure", "--fig", str(fig)]
    if interval is not None:
        argv.append("--interval=%r,%r" % interval)
    path = tmp_path / "fig.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert main([*argv, "--out", "-"]) == 0
    assert path.read_text() == want
    assert capsys.readouterr().out == want


def test_figure_csv_template_keeps_a_label_with_percent_signs(monkeypatch, capsys):
    # a label is text in its row template, not a conversion
    xs = np.array([-1.0, 0.5, 2.0])
    series = [("a%sb%%c%", xs, xs * 3.0), ("%d", xs[1:], xs[1:] ** 2)]
    monkeypatch.setattr(deltakit.cli, "_figure_series", lambda config: series)
    assert main(["figure", "--fig", "1", "--out", "-"]) == 0
    assert capsys.readouterr().out == "x,value,series\n" + "".join(
        "%.17g,%.17g,%s\n" % (x, v, label)
        for label, points, values in series for x, v in zip(points, values))


# a grid or series that is not all finite: hi - lo overflows, so the grid
# itself holds nan and inf; the sinc nodes r x overflow and sin(inf) is nan;
# figure 2's envelopes 1/(pi |x|) overflow
NON_FINITE_FIGURES = [
    *(["figure", "--fig", str(fig), "--interval=-1e308,1e308"] for fig in range(1, 10)),
    ["figure", "--fig", "1", "--interval=-1e307,1e307"],
    ["figure", "--fig", "2", "--interval=-1e307,1e307"],
    ["figure", "--fig", "2", "--interval=-1e-320,1e-320"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", NON_FINITE_FIGURES, ids=" ".join)
def test_figure_that_is_not_finite_exits_2_writing_nothing(argv, fmt, tmp_path, monkeypatch,
                                                           capsys):
    # computed without a RuntimeWarning (which fails the test) and rejected
    # before any file is opened, at the default path, on stdout or at --out
    monkeypatch.chdir(tmp_path)
    for out in ([], ["--out", "-"], ["--out", "x.csv"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt, *out])
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            "deltakit figure: error: argument --interval: figure %s's grid or values are not "
            "all finite on " % argv[2])
    assert list(tmp_path.iterdir()) == []


def test_figure_csv_is_written_without_joining_the_report(tmp_path):
    # figure 1 is 40 020 rows (1.7 MB of CSV): streamed a series at a
    # time, the traced peak stays well below the joined report
    argv = ["figure", "--fig", "1", "--out", str(tmp_path / "fig1.csv")]
    main(argv)  # builds the parser and the si table outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("argv", [
    ["figure", "--fig", "1", "--format", "json"],
    ["certify", "fubini"],
    ["pair", "--family", "lorentz", "--params", "1e-1,1e-2,1e-3"],
], ids=["figure_1", "certify_fubini", "pair_lorentz"])
def test_json_report_is_the_envelope_dumped_whole(argv, tmp_path, capsys):
    # streamed a chunk of results at a time, the report is still the one json.dumps
    code, out = run_cli(capsys, *argv)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == code
    written = path.read_text()
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True)


def test_figure_json_is_written_without_joining_the_report(tmp_path):
    # figure 1 as JSON is 40 020 row dicts (3.9 MB): dumped a series at a time,
    # the traced peak stays far below the rows and the joined report
    argv = ["figure", "--fig", "1", "--format", "json", "--out", str(tmp_path / "fig1.json")]
    main(argv)  # builds the parser and the si table outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


def test_lorentz_ladder_is_one_quadrature(monkeypatch, capsys):
    # the four widths are the rows of one _quad_rows call, not four calls
    calls = []
    real = deltakit.pairing._quad_rows

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(deltakit.pairing, "_quad_rows", counted)
    code, out = run_cli(capsys, *GOLDEN_ARGV["pair_lorentz"])
    assert code == 0 and calls == [4]
    assert out == (GOLDEN / "pair_lorentz.json").read_text()


def test_lemma5_rate_pairs_its_widths_as_one_quadrature(monkeypatch, capsys):
    # the default widths, and the deck's five, are the rows of one _quad_rows call
    calls = []
    real = deltakit.pairing._quad_rows

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(deltakit.pairing, "_quad_rows", counted)
    code, out = run_cli(capsys, *GOLDEN_ARGV["certify_lemma5_rate"])
    assert code == 0 and calls == [4]
    assert out == (GOLDEN / "certify_lemma5_rate.json").read_text()
    calls.clear()
    assert run_certificate("lemma5_rate", 0.2, 0.02, 0.002, 0.0002, 0.00002).passed
    assert calls == [5]


def test_pair_fails_a_tiny_cutoff_ladder_with_a_finite_limit(capsys):
    # every rung is near 0, so the limit, the R = 1e-298 rung, is 1 from f(0)
    params = "1e-300,1e-299,1e-298"
    argv = ["pair", "--family", "fourier", "--params", params]
    code, out = run_cli(capsys, *argv)
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    assert report["extrapolated_limit"] == report["results"][-1]["value"]
    assert math.isclose(report["extrapolated_limit"], 9.549296585513719e-299, rel_tol=1e-12)
    assert report["abs_limit_error"] == 1.0
    assert [r["param"] for r in report["results"]] == [float(p) for p in params.split(",")]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    lines = out.splitlines()
    assert code == 1 and lines[0] == "param,value,abs_error_estimate" and len(lines) == 5
    label, limit, error = lines[-1].split(",")
    assert label == "limit" and float(limit) == report["extrapolated_limit"] and error == "1"


@pytest.mark.parametrize("family, params", [
    ("fourier", "1e-310,1e-309,1e-308"),  # 1/R is not finite
    ("lorentz", "1e306,1e305,1e304"),  # eps ln(1/eps) is not finite
])
def test_pair_fails_an_extreme_ladder_with_its_finest_rung(capfd, family, params):
    # capfd: only the JSON may reach fd 1, where a LAPACK message would also go;
    # each ladder ends at its finest rung, the largest R or the smallest eps
    code = main(["pair", "--family", family, "--params", params])
    out, err = capfd.readouterr()
    report = json.loads(out)
    assert code == 1 and err == "" and report["verdict"] == "fail"
    assert report["extrapolated_limit"] == report["results"][-1]["value"]
    assert report["abs_limit_error"] == 1.0


def test_figure_bad_id_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--fig", "12"])
    assert exc.value.code == 2


def test_pair_output_is_deterministic(capsys):
    argv = ["pair", "--family", "fourier", "--params", "100,200,400"]
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv) == first


def test_shifted_kernel_matches_shifted_bump(capsys):
    # translating the test function realizes pairing against a shifted kernel:
    # 0 stays on the (moved) plateau, so the limit target is still f(0) = 1
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400", "--shift", "0.25",
                        "--tol", "1e-3")
    assert code == 0
    report = json.loads(out)
    assert report["target_value_at_zero"] == 1.0
    assert abs(report["extrapolated_limit"] - 1.0) <= 1e-3
    assert math.isfinite(report["extrapolated_limit"])


def assert_same_report(got, want, where="report"):
    """Strings, verdicts and integers exactly; floats within a relative 1e-12."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_same_report(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), \
            (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_output_matches_golden(capsys, name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    code, out = run_cli(capsys, *GOLDEN_ARGV[name])
    assert code == (0 if want["verdict"] == "pass" else 1)
    assert_same_report(json.loads(out), want)


def test_rejected_commands_do_not_change_the_next_output(capsys):
    # main builds its parser once per process: commands rejected at parse
    # time and after it, with non-default flag values, must not leak into
    # the next command run in the same process
    rejected = (["pair", "--family", "lorentz", "--params", "1e-1,1e-2", "--shift", "0.5",
                 "--bump=-3,-2,2,3", "--tol", "1e-2"],
                ["certify", "no_such_certificate"])
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, *GOLDEN_ARGV["pair_fourier"])
    assert code == 0
    assert_same_report(json.loads(out), json.loads((GOLDEN / "pair_fourier.json").read_text()))


def _csv_cells(text):
    """CSV rows as lists, with each cell that parses as a number a float."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [[cell(c) for c in row] for row in csv.reader(text.splitlines())]


@pytest.mark.parametrize("name", sorted(FORMAT_GOLDEN_ARGV))
def test_other_formats_match_golden(capsys, name):
    code, out = run_cli(capsys, *FORMAT_GOLDEN_ARGV[name])
    assert code == 0
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        assert_same_report(json.loads(out), json.loads(want))
    else:
        assert_same_report(_csv_cells(out), _csv_cells(want))
        # floats compare at rel 1e-12 above, which repr's digits would pass too
        cells = zip(sum(csv.reader(out.splitlines()), []), sum(_csv_cells(out), []))
        assert [t for t, c in cells if isinstance(c, float) and t != "%.17g" % c] == []


@pytest.mark.parametrize("argv, code", [
    (["certify", "si_tail"], 0),
    (["pair", "--family", "fourier", "--params", "100,200,400", "--tol", "1e-15"], 1),
    (["certify", "lemma4", "--params", "0"], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    src = str(Path(deltakit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "deltakit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize("argv", [["certify", "lemma4"], ["figure", "--fig", "1", "--out", "-"]],
                         ids=" ".join)
def test_a_reader_that_closes_stdout_early_ends_the_report_quietly(argv):
    # figure 1's 1.7 MB of CSV overfills the pipe, so its writer always meets
    # the closed end; unbuffered, lemma4's JSON and its newline are two writes
    src = str(Path(deltakit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "deltakit.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0 and err == b"", err.decode()
    assert len(head) == 100


def test_figure_csv_defaults_to_fig_n_in_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "--fig", "3", "--grid", "41"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "fig3.csv").read_bytes() == (GOLDEN / "figure_3.csv").read_bytes()


def _readme_commands():
    """Every `deltakit ...` line of the README's "Command line" block, as argv lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("deltakit ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_exit_0(argv, tmp_path, monkeypatch, capsys):
    # a number list that starts with "-" needs "--flag=value", or argparse
    # reads the value as a flag and exits 2
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "x.json"
    assert main(["certify", "si_tail", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --out" in captured.err and str(path) in captured.err
    assert len(captured.err.splitlines()) == 1
    # a rejected command leaves an existing --out file as it was
    existing = tmp_path / "x.json"
    existing.write_text("kept")
    with pytest.raises(SystemExit) as exc:
        main(["certify", "lemma4", "--params", "0", "--out", str(existing)])
    assert exc.value.code == 2 and existing.read_text() == "kept"


PAIR = ["pair", "--family", "fourier", "--params", "100,200,400"]
FIGURE = ["figure", "--fig", "3"]
REJECTED = [
    # the README's exit-2 list
    (["pair", "--family", "fourier", "--params", "100,100,200"], "--params"),
    (["pair", "--family", "fourier", "--params", "400,100,200"], "--params"),
    (["certify", "lemma4", "--params", "0"], "--params"),
    (["certify", "lemma4", "--params=-5"], "--params"),
    (["certify", "lemma4", "--params", "2.7"], "--params"),
    (["certify", "lemma6_lorentz", "--params", "100,0"], "--params"),
    (["certify", "fubini", "--params=-1"], "--params"),
    (["certify", "lemma5_rate", "--params", "0"], "--params"),
    (["certify", "si_tail", "--params", "5"], "--params"),
    (["certify", "eq23_identity", "--params", "1"], "--params"),
    (["certify", "lemma4", "--params", "50,7"], "--params"),
    (["certify", "lemma6_theta", "--params", "100,0.5,3"], "--params"),
    (["certify", "lemma4", "--params", "inf"], "--params"),
    (["pair", "--family", "fourier", "--params", "100,200,nan"], "--params"),
    (PAIR + ["--bump=-2,-1,1,inf"], "--bump"),
    (FIGURE + ["--interval=-5,nan"], "--interval"),
    (PAIR + ["--shift", "inf"], "--shift"),
    (PAIR + ["--shift", "1e17"], "--shift"),
    (["certify", "lemma6_lorentz", "--params", "1000,1e-200"], "--params"),
    (PAIR + ["--tol", "nan"], "--tol"),
    (["certify", "lemma4", "--grid", "7"], "--grid"),
    (["figure", "--fig", "8", "--tol", "1e-3"], "--tol"),
    (["figure", "--fig", "2", "--params", "1"], "--params"),
    # a flag before its subcommand is named, not read as the command
    (["--grid", "7", "figure", "--fig", "1"], "--grid"),
    (["--tol", "1e-3"] + PAIR, "--tol"),
    # grid, interval, figure id, tolerance and shift rules
    (FIGURE + ["--grid", "1"], "--grid"),
    (FIGURE + ["--grid", "2.5"], "--grid"),
    (FIGURE + ["--interval", "1,1"], "--interval"),
    (FIGURE + ["--interval", "2,1"], "--interval"),
    (FIGURE + ["--interval", "1,2,3"], "--interval"),
    (FIGURE + ["--interval", "1,inf"], "--interval"),
    (["figure", "--fig", "0"], "--fig"),
    (["figure", "--fig", "10"], "--fig"),
    (["figure", "--fig", "x"], "--fig"),
    (PAIR + ["--tol", "0"], "--tol"),
    (PAIR + ["--tol=-1"], "--tol"),
    (PAIR + ["--shift", "x"], "--shift"),
    # a pair ladder needs 3 or more positive values
    (["pair", "--family", "fourier", "--params", ""], "--params"),
    (["pair", "--family", "fourier", "--params", ","], "--params"),
    (["pair", "--family", "fourier", "--params", "100,200"], "--params"),
    (["pair", "--family", "fourier", "--params", "0,1,2"], "--params"),
    # an empty --params runs a certificate's defaults; "," is no list
    (["certify", "lemma4", "--params=,"], "--params"),
    # every comma item must be a number: a blank one is not skipped
    (["pair", "--family", "fourier", "--params", "100,,200,400"], "--params"),
    (["pair", "--family", "fourier", "--params", "100,200,400,"], "--params"),
    (PAIR + ["--bump=-2,-1,,1,2"], "--bump"),
    (FIGURE + ["--interval=-5,,5"], "--interval"),
    (["certify", "lemma4", "--params", "50,"], "--params"),
]


@pytest.mark.parametrize("argv, flag", REJECTED, ids=[" ".join(a) for a, _ in REJECTED])
def test_rejected_command_exits_2_naming_its_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    # every rejection, an unknown flag's and a certificate's own too, reports
    # through its subcommand's parser
    command = next(a for a in argv if a in ("pair", "certify", "figure"))
    assert f"deltakit {command}: error:" in err and f"usage: deltakit {command}" in err
    if argv[0].startswith("-"):
        assert "follows its subcommand" in err


def test_empty_certify_params_runs_the_defaults(capsys):
    assert run_cli(capsys, "certify", "lemma4", "--params=") == run_cli(capsys, "certify", "lemma4")


HELP_FLAGS = {
    "pair": ["--family {fourier,lorentz}", "--params PARAMS", "--bump BUMP",
             "--shift SHIFT", "--tol TOL", "--out OUT", "--format {csv,json}"],
    "certify": ["--params PARAMS", "--out OUT", "--format {csv,json}"],
    "figure": ["--fig FIG", "--interval INTERVAL", "--grid GRID", "--out OUT",
               "--format {csv,json}"],
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_every_flag_with_its_metavar(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for flag in HELP_FLAGS[command]:
        assert any(line.startswith(flag) for line in lines), flag
