"""Tests for the benchmark tracer: self-time arithmetic and restoring originals.

    python3 -m pytest bench/test_tracer.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import deltakit  # noqa: E402
import deltakit.cli  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [2, 5] > b [3, 4]; root > c [6, 7.5]; separate root d [11, 12]
    start = [0.0, 2.0, 3.0, 6.0, 11.0]
    end = [10.0, 5.0, 4.0, 7.5, 12.0]
    parent = [-1, 0, 1, 0, -1]
    st = self_times(start, end, parent)
    assert st.tolist() == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    # self times of one tree add up to its root's duration
    assert st[:4].sum() == pytest.approx(10.0)


def test_self_time_of_spans_recorded_by_the_tracer():
    tr = Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    tr.begin_op("op")
    i = tr.open(outer)
    j = tr.open(inner, points=7)
    tr.close(j)
    k = tr.open(inner, points=3)
    tr.close(k)
    tr.close(i)
    st = tr.self_times()
    dur = np.subtract(tr.span_end, tr.span_start)
    assert list(tr.span_parent) == [-1, 0, 0]
    assert st[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert tr.calls[inner] == 2 and tr.points[inner] == 10
    assert tr.outer_s[inner] == pytest.approx(dur[1] + dur[2], abs=1e-12)


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "deltakit" or name.startswith("deltakit.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_uninstall_restores_every_original():
    before = _bindings()
    call = deltakit.TestFunction.__call__
    tr = Tracer()
    with tr:
        during = _bindings()
        for key in [("deltakit.quadrature", "adaptive_quad"), ("deltakit.pairing", "adaptive_quad"),
                    ("deltakit.seqdist", "adaptive_quad"), ("deltakit.families", "si"),
                    ("deltakit", "pair_by_parts")]:
            assert during[key] is not before[key]
        assert deltakit.TestFunction.__call__ is not call
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert deltakit.TestFunction.__call__ is call


def test_traced_run_counts_layers_and_keeps_results(capsys):
    argv = ["pair", "--family", "fourier", "--params", "100,200,400"]
    deltakit.cli.main(argv)
    plain = capsys.readouterr().out
    tr = Tracer()
    with tr:
        tr.begin_op("pair")
        deltakit.cli.main(argv)
    assert capsys.readouterr().out == plain
    calls = dict(zip(tr.names, tr.calls))
    assert calls["cli.main"] == 1
    assert calls["pairing.pair_sinc"] == 3
    assert calls["quadrature.adaptive_quad"] == 3
    assert tr.quad["calls"] == 3 and tr.quad["converged"] == 3
    assert tr.site_calls[("pairing", "adaptive_quad")] == 3
    points = dict(zip(tr.names, tr.points))
    assert points["integrand"] == 15 * tr.quad["panels"]
    assert tr.quad["scalar_fallback_points"] == 0
    assert all(e >= s for s, e in zip(tr.span_start, tr.span_end))


def test_scalar_fallback_points_are_counted():
    def scalar_only(x):
        return float(x) ** 2  # float() of an array raises TypeError

    tr = Tracer()
    with tr:
        res = deltakit.adaptive_quad(scalar_only, 0.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(1.0 / 3.0)
    assert tr.quad["scalar_fallback_points"] == 15 * res.panels_used


def test_install_twice_is_refused():
    tr = Tracer()
    with tr:
        with pytest.raises(RuntimeError):
            tr.install()
