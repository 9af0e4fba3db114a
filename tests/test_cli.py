"""Command-line surface: exit codes, report schemas, CSV determinism."""

import csv
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import deltakit
import deltakit.certify
import deltakit.cli
from deltakit.certify import certificate_names, run_certificate
from deltakit.cli import main

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


def test_pair_lorentz(capsys):
    code, out = run_cli(capsys, "pair", "--family", "lorentz",
                        "--params", "1e-1,1e-2,1e-3,1e-4", "--tol", "1e-2")
    assert code == 0
    report = json.loads(out)
    assert abs(report["extrapolated_limit"] - 1.0) <= 1e-2


def test_pair_shifted_bump_targets_zero(capsys):
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400", "--shift", "5", "--tol", "1e-3")
    assert code == 0
    report = json.loads(out)
    assert report["target_value_at_zero"] == 0.0
    assert abs(report["extrapolated_limit"]) <= 1e-3


def test_pair_tolerance_failure_exit_code(capsys):
    code, out = run_cli(capsys, "pair", "--family", "fourier",
                        "--params", "100,200,400,800", "--tol", "1e-15")
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
    # a tolerance that no error meets, and shifts that are not a translation
    for flag, value in (("--tol", "nan"), ("--shift", "inf"), ("--shift", "nan")):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--family", "fourier", "--params", "100,200,400", flag, value])
        assert exc.value.code == 2


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
    "lemma6_lorentz": ["0", "100,0", "100,-0.5", "10,inf"],
    "lemma6_theta": ["0", "-1", "100,0", "100,0.5,3"],
    "fubini": ["-1", "1,0,5"],
    "lemma5_rate": ["0", "1e-2,-1e-3"],
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
    real = deltakit.certify.pair_lorentz

    def pair_lorentz(eps, f, *, tol=1e-10):
        res = real(eps, f, tol=tol)
        return dataclasses.replace(res, converged=False) if eps == 1e-3 else res

    monkeypatch.setattr(deltakit.certify, "pair_lorentz", pair_lorentz)
    report = run_certificate("lemma5_rate")
    assert not report.passed
    assert report.summary == "pairing at eps = 0.001 did not converge"
    code, out = run_cli(capsys, "certify", "lemma5_rate")
    assert code == 1 and json.loads(out)["verdict"] == "fail"


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
    (["pair", "--family", "fourier", "--params", "100,200,400", "--tol", "1e-12"], 1),
    (["certify", "lemma4", "--params", "0"], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    src = str(Path(deltakit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "deltakit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr


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
    (PAIR + ["--tol", "nan"], "--tol"),
    (["certify", "lemma4", "--grid", "7"], "--grid"),
    (["figure", "--fig", "8", "--tol", "1e-3"], "--tol"),
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
    if argv[0] == "certify" and flag == "--params":
        # a certificate's own rejection reports through the certify parser too
        assert "deltakit certify: error:" in err and "usage: deltakit certify" in err


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
