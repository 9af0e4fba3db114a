"""Fundamental sequences: towers, convergence checks, equivalence, derivative."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import fd_derivative
from deltakit import (FundamentalSeq, QuadratureError, bump, check_equivalent,
                      check_fundamental, check_zero_off_origin, damped_cos_seq, derivative,
                      lorentz_delta_seq, pair_by_parts, scaled_cos_seq,
                      seq_derivative, sinc_delta, sinc_delta_seq, sinc_step_seq,
                      zero_seq)
from deltakit import seqdist
from deltakit.testfn import MAX_DERIVATIVE_ORDER


def test_tower_consistency():
    xs = np.concatenate([np.linspace(-5, -0.02, 30), np.linspace(0.02, 5, 30)])
    for seq in (sinc_delta_seq(), lorentz_delta_seq()):
        for n in (1, 5, 20):
            d1 = fd_derivative(lambda x: seq.primitive(1, n, x), xs, 1)
            assert np.max(np.abs(d1 - seq.primitive(0, n, xs))) <= 1e-6
            d2 = fd_derivative(lambda x: seq.primitive(2, n, x), xs, 1)
            assert np.max(np.abs(d2 - seq.primitive(1, n, xs))) <= 1e-6


def test_numeric_lifting_matches_closed_form():
    # hide the closed level-2 primitive and let the anchored quadrature lift it
    full = sinc_delta_seq()
    truncated = FundamentalSeq(term=full.term, primitive_order=2,
                               primitives=full.primitives[:1],
                               panel_hint=full.panel_hint, label="lift-check")
    xs = np.linspace(-3.0, 3.0, 41)
    lifted = truncated.primitive(2, 7, xs)
    assert_allclose(lifted, full.primitive(2, 7, xs), atol=1e-8, rtol=0)


def test_check_fundamental_kink_level():
    report = check_fundamental(sinc_delta_seq(), (-5.0, 5.0), n_max=50, tol=0.02)
    assert report.verdict
    ns = np.asarray(report.n_values, dtype=float)
    bounds = 2.0 / (ns * math.pi) + 1e-9
    assert np.all(np.asarray(report.sup_errors) <= bounds)


def test_check_fundamental_damped_cos():
    report = check_fundamental(damped_cos_seq(), (-5.0, 5.0), n_max=100, tol=0.05)
    assert report.verdict
    # sup error at n is 1/n on a grid that nearly hits the extrema
    assert_allclose(report.sup_errors[-1], 1.0 / 100.0, rtol=1e-3)


def test_grid_reports_hold_python_floats():
    reports = (check_fundamental(damped_cos_seq(), (-1.0, 1.0), n_max=5),
               check_equivalent(sinc_delta_seq(), lorentz_delta_seq(), (-1.0, 1.0), n_max=5),
               check_zero_off_origin(zero_seq(), 0.5, n_max=5),
               check_zero_off_origin(lorentz_delta_seq(), 0.5, n_max=5))
    for report in reports:
        assert all(type(x) is float for x in report.sup_errors), report.bound_used
        assert report.n_values == (1, 2, 3, 4, 5), report.bound_used
        assert all(type(n) is int for n in report.n_values), report.bound_used
    assert all(type(c) is float for c in reports[0].cauchy_tail)
    # only a check held to a declared majorant carries one, per n
    assert [report.bounds is None for report in reports] == [True, True, True, False]
    assert len(reports[3].bounds) == 5 and all(type(b) is float for b in reports[3].bounds)


def test_check_fundamental_fails_at_step_level():
    # the smoothed steps have no continuous uniform limit through 0
    report = check_fundamental(sinc_delta_seq(), (-1.0, 1.0), n_max=60,
                               tol=0.02, order=1)
    assert not report.verdict


def test_a_sup_that_rises_from_n_1_but_ends_within_tol_passes():
    # terms x n^2 2^-n on [-1, 1]: the sup rises to n = 3, then falls to 1.5e-9 by
    # n = 40; a verdict reads the end of the sequence, not its start
    seq = FundamentalSeq(term=lambda n, x: np.asarray(x, dtype=float) * (n * n * 2.0 ** -n),
                         primitive_order=0, limit_of_primitives=lambda x: 0.0 * x)
    for report in (check_fundamental(seq, (-1.0, 1.0), n_max=40, tol=1e-3),
                   check_equivalent(seq, zero_seq(), (-1.0, 1.0), n_max=40, tol=1e-3)):
        assert report.sup_errors[0] < report.sup_errors[1] < report.sup_errors[2]
        assert report.sup_errors[0] > report.tol >= report.sup_errors[-1]
        assert report.verdict


def test_check_fundamental_validation():
    with pytest.raises(ValueError):
        check_fundamental(sinc_delta_seq(), (-1.0, 1.0), n_max=1)


@pytest.mark.parametrize("n_max", [1, 0, 1.5])
@pytest.mark.parametrize("check", [
    lambda n_max: check_fundamental(sinc_delta_seq(), (-1.0, 1.0), n_max=n_max),
    lambda n_max: check_equivalent(sinc_delta_seq(), lorentz_delta_seq(), (-1.0, 1.0),
                                   n_max=n_max),
], ids=["check_fundamental", "check_equivalent"])
def test_grid_checks_take_an_integer_n_max_of_at_least_2(check, n_max):
    with pytest.raises(ValueError, match=r"^n_max must be an integer >= 2, got "):
        check(n_max)


@pytest.mark.parametrize("call, name", [
    (lambda k: derivative(bump(-2.0, -1.0, 1.0, 2.0), 0.5, k), "derivative order"),
    (lambda k: FundamentalSeq(term=sinc_delta, primitive_order=k).primitive_order,
     "primitive_order"),
    (lambda k: sinc_delta_seq().primitive(k, 5, 0.3), "primitive level"),
    (lambda k: check_fundamental(sinc_delta_seq(), n_max=5, order=k), "order"),
], ids=["derivative", "FundamentalSeq", "primitive", "check_fundamental"])
def test_orders_and_levels_are_integers(call, name):
    # 1.5 is not truncated to 1; an integral float such as 2.0 counts as 2
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(1.5)
    assert call(2.0) == call(2)


def test_equivalence_of_the_two_kernels():
    report = check_equivalent(sinc_delta_seq(), lorentz_delta_seq(),
                              (-5.0, 5.0), n_max=60, tol=0.05)
    assert report.verdict
    ns = np.asarray(report.n_values, dtype=float)
    bound = 2.0 / (ns * math.pi) + 1.0 / (math.pi * ns) \
        + np.log1p(25.0 * ns * ns) / (2 * math.pi * ns)
    assert np.all(np.asarray(report.sup_errors) <= bound + 1e-12)


def test_equivalence_scaled_cos_with_zero():
    report = check_equivalent(scaled_cos_seq(), zero_seq(), (-5.0, 5.0),
                              n_max=50, tol=0.05)
    assert report.verdict


def test_not_equivalent_kernel_and_zero():
    report = check_equivalent(sinc_delta_seq(), zero_seq(), (-5.0, 5.0),
                              n_max=30, tol=0.05)
    assert not report.verdict
    # the kinks approach |x|/2, which is 2.5 at the interval ends
    assert report.sup_errors[-1] > 2.0


def test_equivalence_reflexive_symmetric():
    a, b = sinc_delta_seq(), lorentz_delta_seq()
    assert check_equivalent(a, a, (-5, 5), n_max=10, tol=1e-12).verdict
    r_ab = check_equivalent(a, b, (-5, 5), n_max=40, tol=0.06)
    r_ba = check_equivalent(b, a, (-5, 5), n_max=40, tol=0.06)
    assert r_ab.verdict == r_ba.verdict
    assert_allclose(r_ab.sup_errors, r_ba.sup_errors, rtol=0, atol=0)


def test_derivative_shifts_tower():
    d = seq_derivative(sinc_step_seq())
    assert d.primitive_order == 2
    xs = np.linspace(-3.0, 3.0, 11)
    # the derived terms are the kernel itself (closed form)
    assert_allclose(d.term(7, xs), sinc_delta(7, xs), rtol=0, atol=0)
    # level-1 primitive of the derivative is the original term
    assert_allclose(d.primitive(1, 7, xs), sinc_step_seq().term(7, xs), rtol=0, atol=0)


def test_derivative_of_zero():
    d = seq_derivative(zero_seq())
    xs = np.linspace(-2, 2, 9)
    assert np.all(d.term(4, xs) == 0.0)
    assert d.primitive_order == 1


def test_double_derivative_of_kink_sequence():
    # the smoothed-kink sequence differentiated twice carries the kernel's tower
    from deltakit import half_abs, sinc_kink, sinc_step
    kinks = FundamentalSeq(term=sinc_kink, primitive_order=0,
                           limit_of_primitives=half_abs,
                           term_derivative=sinc_step, label="kinks")
    second = seq_derivative(seq_derivative(kinks))
    assert second.primitive_order == 2
    xs = np.linspace(-3.0, 3.0, 21)
    # tower levels are exact shifts of the closed forms
    assert_allclose(second.primitive(2, 5, xs), sinc_kink(5, xs), rtol=0, atol=0)
    assert_allclose(second.primitive(1, 5, xs), sinc_step(5, xs), rtol=0, atol=0)
    # the first derivative declares no term derivative, so the second has no term
    with pytest.raises(ValueError, match="d/dx kinks declares no term_derivative"):
        second.term(5, xs)


def test_derivative_respects_equivalence():
    # equivalent pair stays equivalent after differentiation, one level up
    a, b = damped_cos_seq(), zero_seq()
    base = check_equivalent(a, b, (-5, 5), n_max=80, tol=0.05)
    assert base.verdict
    da, db = seq_derivative(a), seq_derivative(b)
    lifted = check_equivalent(da, db, (-5, 5), n_max=80, tol=0.05)
    assert lifted.verdict
    assert max(da.primitive_order, db.primitive_order) == a.primitive_order + 1


def test_pair_by_parts_delta_property():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    value = pair_by_parts(sinc_delta_seq(), f)
    assert abs(value - 1.0) <= 1e-6


def test_pair_by_parts_exact_to_rounding():
    # exact jet derivatives let each by-parts quadrature meet its tolerance
    f = bump(-2.0, -1.0, 1.0, 2.0)
    for seq in (sinc_delta_seq(), lorentz_delta_seq()):
        assert abs(pair_by_parts(seq, f) - 1.0) <= 1e-12


def test_pair_by_parts_zero_and_far_support():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    assert pair_by_parts(zero_seq(), f) == 0.0
    far = bump(1.0, 1.25, 1.75, 2.0)
    assert abs(pair_by_parts(sinc_delta_seq(), far)) <= 1e-6


def test_pair_by_parts_order_guard():
    f = bump(-2.0, -1.0, 1.0, 2.0)
    seq = sinc_delta_seq()
    for _ in range(3):
        seq = seq_derivative(seq)  # k = 5 exceeds the default derivative order
    with pytest.raises(ValueError):
        pair_by_parts(seq, f)


def test_pair_by_parts_extrapolated_without_limit():
    blind = FundamentalSeq(term=sinc_delta, primitive_order=2,
                           primitives=sinc_delta_seq().primitives,
                           limit_of_primitives=None,
                           panel_hint=lambda n: min(0.5, math.pi / n))
    f = bump(-2.0, -1.0, 1.0, 2.0)
    value = pair_by_parts(blind, f)
    assert abs(value - 1.0) <= 1e-4


@pytest.mark.parametrize("shift", [0.0, 0.4])
def test_pair_by_parts_extrapolates_a_lorentz_tower_without_limit(shift):
    # the by-parts integrals tend to the limit like L + c/n (1/n = eps), so the fit
    # lands near 2e-8 from f(0), where the n = 800 rung alone is about 5e-4 off
    blind = lorentz_delta_seq()
    blind.limit_of_primitives = None
    f = bump(-2.0, -1.0, 1.0, 2.0).shifted(shift)
    assert abs(pair_by_parts(blind, f) - float(f(0.0))) <= 1e-7


@pytest.mark.parametrize("base, x0, c", [
    (bump(-2.0, -1.0, 1.0, 2.0), 0.4, 2.5),
    (bump(-2.1, -1.2, 1.1, 1.9), 1.5, 1.0),  # the origin lies in a transition
    (bump(-2.1, -1.2, 1.1, 1.9), -1.0, -0.75),
])
def test_pair_by_parts_reads_exact_jets_of_shifted_scaled_bumps(base, x0, c):
    f = base.shifted(x0).scaled(c)
    for seq in (sinc_delta_seq(), lorentz_delta_seq()):
        assert abs(pair_by_parts(seq, f) - c * base(-x0)) <= 1e-13


def test_pair_by_parts_raises_when_an_integral_does_not_converge(monkeypatch):
    real = seqdist.adaptive_quad
    monkeypatch.setattr(seqdist, "adaptive_quad", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), converged=False))
    f = bump(-2.0, -1.0, 1.0, 2.0)
    with pytest.raises(QuadratureError, match="declared limit"):
        pair_by_parts(sinc_delta_seq(), f)
    blind = FundamentalSeq(term=sinc_delta, primitive_order=2,
                           primitives=sinc_delta_seq().primitives)
    with pytest.raises(QuadratureError, match="n = 100"):
        pair_by_parts(blind, f)


def test_zero_off_origin_lorentz():
    report = check_zero_off_origin(lorentz_delta_seq(), 0.5, n_max=200)
    assert report.verdict
    ns = np.asarray(report.n_values, dtype=float)
    assert np.all(np.asarray(report.sup_errors) <= 4.0 / (math.pi * ns) + 1e-12)


def test_zero_off_origin_step_side():
    report = check_zero_off_origin(sinc_delta_seq(), 1.0, n_max=200)
    assert report.verdict
    ns = np.asarray(report.n_values, dtype=float)
    assert np.all(np.asarray(report.sup_errors) <= 2.0 / (math.pi * ns) + 1e-12)


def test_zero_off_origin_at_a_large_a_is_quiet():
    # 1/(pi n a^2) overflows its denominator: the bound is 0, met by sups of 0,
    # with no RuntimeWarning (an error in this suite)
    report = check_zero_off_origin(lorentz_delta_seq(), 1e200)
    assert report.verdict and set(report.sup_errors) == {0.0}


def test_zero_off_origin_ignores_label():
    # the label is only displayed; the declared bound picks the verdict
    renamed = lorentz_delta_seq()
    renamed.label = "renamed"
    assert check_zero_off_origin(renamed, 0.5, n_max=50) == \
        check_zero_off_origin(lorentz_delta_seq(), 0.5, n_max=50)


def test_zero_off_origin_trivial_and_validation():
    assert check_zero_off_origin(zero_seq(), 0.5, n_max=5).verdict
    for a in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_zero_off_origin(zero_seq(), a)
    # an a whose bound at n = 1, 1/(pi a^2) or 2/(pi a), is not finite
    for seq, a in ((lorentz_delta_seq(), 1e-200), (lorentz_delta_seq(), 1e-160),
                   (sinc_step_seq(), 1e-320)):
        with pytest.raises(ValueError, match="bound at n = 1 finite"):
            check_zero_off_origin(seq, a)
    # a count below 1 has no last sup to judge, and a fractional n_max is not
    # rounded to some ladder the caller did not ask for
    for n_max in (0, -3, 2.5):
        with pytest.raises(ValueError):
            check_zero_off_origin(zero_seq(), 0.5, n_max=n_max)
        with pytest.raises(ValueError):
            check_fundamental(zero_seq(), (-1.0, 1.0), n_max=n_max)
        with pytest.raises(ValueError):
            check_equivalent(zero_seq(), zero_seq(), (-1.0, 1.0), n_max=n_max)


def _two_accumulate_tail_diameters(values):
    rev_max = np.maximum.accumulate(values[::-1], axis=0)[::-1]
    rev_min = np.minimum.accumulate(values[::-1], axis=0)[::-1]
    return np.max(rev_max - rev_min, axis=1)


@pytest.mark.parametrize("shape", [(1, 7), (2, 1), (50, 2001), (100, 33)])
def test_tail_diameters_match_the_two_accumulate_formula(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    values[rng.random(shape) < 0.05] = np.inf
    values[rng.random(shape) < 0.05] = -np.inf
    values[-1, 0] = np.inf  # a column whose last member alone is +inf
    target = rng.standard_normal(shape[1])
    with np.errstate(invalid="ignore"):  # inf - inf in a column that stays at +inf
        want = _two_accumulate_tail_diameters(values)
        got, errors = seqdist._tail_diameters(iter(values[::-1]), len(values), target)
    assert got.tobytes() == want.tobytes()
    assert errors.tobytes() == np.max(np.abs(values - target), axis=1).tobytes()


def test_zero_seq_lifts_nothing(monkeypatch):
    zero = lambda n, x: np.zeros_like(np.asarray(x, dtype=float))
    bare = FundamentalSeq(term=zero, primitive_order=0, limit_of_primitives=lambda x: zero(0, x),
                          term_derivative=zero, label="zero")
    want = [check_equivalent(scaled_cos_seq(), bare, iv, n_max=50, tol=0.05)
            for iv in ((-5.0, 5.0), (-3.3, 4.1))]

    def lifted(*args, **kwargs):
        raise AssertionError("zero_seq lifted a primitive numerically")

    monkeypatch.setattr(seqdist, "anchored_primitive_values", lifted)
    got = [check_equivalent(scaled_cos_seq(), zero_seq(), iv, n_max=50, tol=0.05)
           for iv in ((-5.0, 5.0), (-3.3, 4.1))]
    assert got == want
    assert all(zero_seq().primitive(k, 3, np.ones(4)).tolist() == [0.0] * 4
               for k in range(MAX_DERIVATIVE_ORDER + 1))


def test_off_origin_grid_sup_keeps_the_per_n_loop():
    # sequences without a closed sup are sampled exactly as before
    term = lambda n, x: np.exp(-n * np.abs(x)) / n
    seq = FundamentalSeq(term=term, primitive_order=0)
    xs = np.linspace(0.37, 5.37, 1000)
    xs = np.concatenate([-xs[::-1], xs])
    want = tuple(float(np.max(np.abs(term(n, xs)))) for n in range(1, 41))
    assert check_zero_off_origin(seq, 0.37, n_max=40).sup_errors == want
