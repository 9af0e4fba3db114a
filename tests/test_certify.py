"""Exact sups of the certificates against sampled ones.

A sup taken on grid points is a lower bound of the true sup. If |g''| <= M2
on every cell of a grid of spacing h, the true sup of |g| is at most the
grid's sup plus M2 h^2 / 8 (the linear-interpolation error). So an exact sup
must lie between the old 2001-point grid sup and a fine grid's sup plus
M2 h^2 / 8; 1e-15 covers the rounding of the two evaluations.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from deltakit import (bump, check_zero_off_origin, derivative, difference_quotient,
                      lorentz_delta_n, lorentz_delta_seq, run_certificate, sinc_kink,
                      sinc_step, sinc_step_seq)
from deltakit import certify
from deltakit.certify import _kink_sups
from deltakit.seqdist import grid_sup


def _grid_sup(values):
    return float(np.max(np.abs(values)))


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 998, 1000])
def test_lemma4_sup_lies_between_the_grid_and_its_interpolation_bound(n):
    S, _ = _kink_sups()
    exact = S / n
    old = np.linspace(-5.0, 5.0, 2001)
    assert exact >= _grid_sup(sinc_kink(n, old) - 0.5 * np.abs(old)) - 1e-15
    fine, h = np.linspace(0.0, 5.0, 200_001, retstep=True)
    assert exact <= _grid_sup(sinc_kink(n, fine) - 0.5 * fine) + (n / math.pi) * h * h / 8 + 1e-15


@pytest.mark.parametrize("n, a", [(1, 0.3), (200, 1.0), (1900, 1.2)])
def test_dirichlet_sup_lies_between_the_grid_and_its_interpolation_bound(n, a):
    exact = sinc_step_seq().off_origin.sup(np.array([n]), a, a + 5.0)[0]
    old = np.linspace(a, a + 5.0, 1000)
    assert exact >= _grid_sup(sinc_step(n, old) - 0.5) - 1e-15
    fine, h = np.linspace(a, a + 5.0, 2_000_001, retstep=True)
    assert exact <= _grid_sup(sinc_step(n, fine) - 0.5) + (n * n / math.pi) * h * h / 8 + 1e-15


def test_lemma5_sup_lies_between_the_grid_and_its_interpolation_bound():
    S = run_certificate("lemma5_rate", 0.1).details["sup_difference_quotient"]
    g = difference_quotient(bump(-2.0, -1.0, 1.0, 2.0))
    old = np.linspace(-2.0, 2.0, 2001)
    assert S >= _grid_sup(g(old)) + 3e-7  # that grid reads 3.6e-7 low
    fine, h = np.linspace(-2.0, 2.0, 400_001, retstep=True)
    m2 = np.max(np.abs(derivative(g, fine, 2)))
    assert _grid_sup(g(fine)) - 1e-15 <= S <= _grid_sup(g(fine)) + m2 * h * h / 8 + 1e-15


def test_lemma5_rate_rejects_a_width_before_any_other_numeric_work(monkeypatch):
    def unreached(*args):
        raise AssertionError("numeric work before the ladder's check")

    monkeypatch.setattr(certify, "_critical_sup", unreached)
    with pytest.raises(ValueError, match=r"2/\(pi eps\) overflows"):
        run_certificate("lemma5_rate", 1e-2, 1e-309)


class _Gumbel:
    """g(x) = exp(x - e^x), maximal at 0 with g(0) = 1/e, its g'' scaled by factor."""

    def __init__(self, factor):
        self.factor = factor

    def __call__(self, x):
        return self.jet(x, 0)[0]

    def jet(self, x, order):
        x = np.asarray(x, dtype=float)
        g, d = np.exp(x - np.exp(x)), 1.0 - np.exp(x)
        return [g, d * g, self.factor * (d * d - np.exp(x)) * g / 2][:order + 1]


def test_critical_sup_takes_the_maximum_between_grid_points():
    # the grid's three values put the vertex O(h^2) from 0; one Newton step ends at rounding
    assert certify._critical_sup(_Gumbel(1.0), 2.0) == pytest.approx(math.exp(-1.0), abs=1e-16)


@pytest.mark.parametrize("factor, match", [(1e-5, "bracket"), (1e5, "residual")])
def test_critical_sup_raises_when_newton_leaves_its_cells_or_stalls(factor, match):
    # a g'' far too small throws the step out of its two grid cells; far too large stalls it
    with pytest.raises(ArithmeticError, match=match):
        certify._critical_sup(_Gumbel(factor), 2.0)


def test_lemma4_sup_is_the_same_fraction_of_the_bound_for_every_n():
    S, every_n = _kink_sups()
    ns = np.arange(1, 1001)
    sups = S / ns
    assert np.all(np.round(sups * ns / (2.0 / math.pi), 5) == 0.67410)
    assert abs(sups[-1] - 4.291457e-4) <= 1e-9  # a 2M-point grid on [0, 5] reads 4.291456e-4
    assert np.round(every_n["roots"], 5).tolist() == [1.92645, 4.89384]  # Si = pi/2 on (0, 5]
    details = run_certificate("lemma4", 1000).details
    assert details["critical_points"] == 2 and details["for_every_n"] == every_n
    assert details["samples"][-1] == {"n": 901, "sup_error": sups[900],
                                      "bound": 2.0 / (901 * math.pi) + 1e-9}


def _per_n_sweep(n_max):
    """lemma4's worst margin and samples from the sups S/n and bounds of every n <= n_max."""
    S, _ = _kink_sups()
    ns = np.arange(1, n_max + 1)
    sups, bounds = S / ns, 2.0 / (ns * math.pi) + 1e-9
    step = max(1, n_max // 10)
    return float(np.max(sups - bounds)), [
        {"n": int(n), "sup_error": float(s), "bound": float(b)}
        for n, s, b in zip(ns[::step], sups[::step], bounds[::step])]


@pytest.mark.parametrize("n_max", [1, 2, 3, 10, 200, 999, 1000, 100_000])
def test_lemma4_report_is_the_per_n_sweep(n_max):
    # the margin (S - 2/pi)/n - slack is monotone in n: its ends hold the sweep's max
    worst, samples = _per_n_sweep(n_max)
    details = run_certificate("lemma4", n_max).details
    assert details["worst_margin"] == worst and details["samples"] == samples
    assert [type(row["n"]) for row in details["samples"]] == [int] * len(samples)


@pytest.mark.parametrize("n_max", [1e15, 1e19, 1e300])
def test_lemma4_at_a_huge_n_max_evaluates_only_its_ends_and_samples(n_max):
    S, _ = _kink_sups()
    tracemalloc.start()
    try:
        cert = run_certificate("lemma4", n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and peak < 1_000_000, peak
    n = int(n_max)
    ends = [S / m - (2.0 / (m * math.pi) + 1e-9) for m in (1, n)]
    assert cert.details["worst_margin"] == max(ends)
    assert [row["n"] for row in cert.details["samples"]] == list(range(1, n + 1, n // 10))


@pytest.mark.parametrize("roots", [lambda r: r[1:], lambda r: r + 5.0],
                         ids=["u1_missed", "roots_past_the_reach"])
def test_lemma4_fails_when_the_argument_for_every_n_does_not_stand(monkeypatch, roots):
    # without u_1 the largest |E| at the roots, 0.2609 at u_2, lies below the tail bound
    # 0.4074, and so does |E| at every u past the reach: the argument has no S
    real = certify.si_half_pi_roots
    monkeypatch.setattr(certify, "si_half_pi_roots", lambda upper: roots(real(upper)))
    cert = run_certificate("lemma4")
    assert not cert.passed and not cert.details["for_every_n"]["premise"]
    assert "for every n: no argument" in cert.summary


def test_lemma6_theta_wraps_the_off_origin_check():
    cert = run_certificate("lemma6_theta", 300, 0.7)
    report = check_zero_off_origin(sinc_step_seq(), 0.7, n_max=300)
    ns = np.arange(1, 301)
    assert cert.passed == report.verdict
    assert cert.details["worst_margin"] == np.max(np.asarray(report.sup_errors)
                                                  - 2.0 / (math.pi * ns * 0.7))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.7371, 1.0])
def test_lorentz_sup_is_the_kernel_at_a_bit_for_bit(a):
    sups = check_zero_off_origin(lorentz_delta_seq(), a, n_max=5200).sup_errors
    assert sups == tuple(lorentz_delta_n(n, a) for n in range(1, 5201))
    # and the same as the grid's sup, which contains |x| = a
    ns = np.arange(1, 301)
    assert sups[:300] == tuple(float(s) for s in grid_sup(lorentz_delta_n)(ns, a, a + 5.0))


@pytest.mark.parametrize("a", [0.25, 0.5, 0.7371, 1.0, 2.0])
def test_lorentz_off_origin_bound_is_the_closed_majorant(a):
    # the kernel's peak (n/pi)/(1 + n^2 a^2) lies strictly below 1/(pi n a^2)
    off = lorentz_delta_seq().off_origin
    ns = np.arange(1, 5201)
    bounds = np.asarray(off.bound(ns, a))
    assert bounds.tobytes() == (1.0 / (math.pi * ns * a * a)).tobytes()
    report = check_zero_off_origin(lorentz_delta_seq(), a, n_max=5200)
    assert np.asarray(report.bounds).tobytes() == bounds.tobytes()
    assert np.all(np.asarray(report.sup_errors) < bounds)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
def test_step_report_carries_the_dirichlet_tail_bound_bit_for_bit(a):
    ns = np.arange(1, 1901)
    report = check_zero_off_origin(sinc_step_seq(), a, n_max=1900)
    assert np.asarray(report.bounds).tobytes() == sinc_step_seq().off_origin.bound(ns, a).tobytes()


@pytest.mark.parametrize("name, factory", [("lemma6_lorentz", "lorentz_delta_seq"),
                                           ("lemma6_theta", "sinc_step_seq")])
def test_lemma6_evaluates_its_majorant_once(monkeypatch, name, factory):
    # the certificate reads the bounds off check_zero_off_origin's report
    calls = []
    real = getattr(certify, factory)

    def counted():
        seq = real()
        bound = seq.off_origin.bound
        seq.off_origin = dataclasses.replace(
            seq.off_origin, bound=lambda ns, a: calls.append(a) or bound(ns, a))
        return seq

    monkeypatch.setattr(certify, factory, counted)
    cert = run_certificate(name, 300, 0.7)
    assert cert.passed and calls == [0.7]


def test_lemma6_lorentz_reports_the_majorant_at_n_max():
    cert = run_certificate("lemma6_lorentz", 1000, 0.5)
    assert cert.passed
    assert cert.details["last_bound"] == 4.0 / (math.pi * 1000) == 0.0012732395447351628
    assert cert.details["last_sup"] == lorentz_delta_n(1000, 0.5) < cert.details["last_bound"]
