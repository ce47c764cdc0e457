"""Norms truncated at many cutoffs by one row cut at all of them
(``quadrature.truncated_pows``) against one ``norm_pow`` row per cutoff.

The cutoffs split the panels of the one row, so a value moves from its own
row's by the quadrature error of the split, about 1e-15 relative; the
divergence flags, each read against its own cutoff's sum, stay the same.
Several weights share one pass, each to the bits of its own.
"""

import math

import numpy as np
import pytest

import kinterp.quadrature
from kinterp import (BrokenLog, Constant, KProfile, LogGrid, PhiParam,
                     WeightedSeq, classical_rhs, equivalence_report,
                     norm_trunc_profile)
from kinterp.conditions import check_C2, check_C3, rho_table
from kinterp.estimates import _terms
from kinterp.params import _forms, _join, _profile_pow, norm_trunc_profiles
from kinterp.quadrature import norm_pow, truncated_pows
from kinterp.runner import bundled_scenario

PROFILE = KProfile.from_element(
    WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 1.0, 1.0)))


def _per_cutoff(p, profile, side, xs):
    """``_profile_pow`` as one norm_pow row per cutoff and form."""
    slope, value, kinks = _forms(p, profile)
    kw = dict(ppd=p.ppd, kinks=kinks)
    if side == "tail":
        return norm_pow(xs, math.inf, value, -p.theta, p.q, **kw)
    mid = np.minimum(xs, 0.0)
    return _join(p, norm_pow(-math.inf, mid, slope, 1.0 - p.theta, p.q, **kw),
                 norm_pow(mid, xs, value, -p.theta, p.q, **kw))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", ["head", "tail"])
def test_cut_row_matches_per_cutoff_rows(q, side):
    # the 257 cutoffs of the default grid; the worst relative difference
    # measured is 1.0e-14 (q = 2, head)
    p = PhiParam(0.4, q, BrokenLog(1.0, -0.5))
    xs = LogGrid(1e-8, 1e8, 16).log_points()
    assert xs.size == 257
    got = _profile_pow(p, PROFILE, side, xs)
    want = _per_cutoff(p, PROFILE, side, xs)
    assert not want.diverged.any()
    assert np.array_equal(got.diverged, want.diverged)
    np.testing.assert_allclose(got.value, want.value, rtol=3e-14, atol=0.0)


def test_cut_row_flags_match_per_cutoff_rows():
    # log-power weights on both sides of the convergence edge a q = -1, at
    # the rate-0 ends (theta = 0 for the tail, 1 for the head's slope
    # form): tail fits and last-doubling increments, each increment read
    # against its own cutoff's sum
    xs = LogGrid(1e-30, 1e30, 4).log_points()
    flagged = 0
    for theta in (0.0, 1.0):
        for a in (-0.9, -1.0, -1.02, -1.05, -1.1, -1.2, -1.5, -2.0):
            for q in (0.5, 1.0, 2.0):
                for side in ("head", "tail"):
                    p = PhiParam(theta, q, BrokenLog(a, a))
                    got = _profile_pow(p, PROFILE, side, xs).diverged
                    want = _per_cutoff(p, PROFILE, side, xs).diverged
                    assert np.array_equal(got, want), (theta, a, q, side)
                    flagged += int(got.sum())
    assert flagged == 6454


@pytest.mark.parametrize("end", [-math.inf, 0.0, math.inf])
def test_core_is_called_once_on_sorted_distinct_points(end):
    seen = []

    def core(x, rows):
        seen.append((x.copy(), rows))
        return np.exp(-np.abs(x)) * (1.0 + x * x)

    xs = LogGrid(1e-4, 1e4, 8).log_points()
    kw = dict(ppds=(64, 128), kinks=(0.0, 0.7))
    out = truncated_pows(end, xs[::-1], core, -0.3, 1.5, **kw)
    [(x, rows)] = seen
    assert rows is None and x.shape[0] == 1 and x.size > xs.size
    assert np.all(np.diff(x[0]) > 0.0)
    # the cutoffs in reverse order read the same values
    for rev, fwd in zip(out, truncated_pows(end, xs, core, -0.3, 1.5, **kw)):
        assert rev.value.tobytes() == fwd.value[::-1].tobytes()
        assert 0.0 < fwd.value[-1] and not fwd.diverged.any()
    assert len(seen) == 2 and np.array_equal(seen[1][0], x)


@pytest.mark.parametrize("check", [check_C2, check_C3])
def test_classical_nested_checks_exact_on_a_wide_grid(check):
    # constant weights: lhs / rhs is 0.375 at every t
    sc = bundled_scenario("classical-1")
    rep = check(sc.phi0, sc.phi1, None, LogGrid(1e-30, 1e30, 16),
                budget=sc.budget)
    np.testing.assert_allclose(rep.ratio, 0.375, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("side", ["head", "tail"])
def test_trunc_profile_ignores_cutoff_order_and_repeats(side):
    p = PhiParam(0.4, 1.0, BrokenLog(1.0, -0.5))
    ts = LogGrid(1e-3, 1e3, 4).points()
    want = norm_trunc_profile(p, PROFILE, side, ts)
    order = np.random.default_rng(5).permutation(ts.size)
    mixed = np.concatenate([ts[order], ts[:7], ts[-3:]])
    got = norm_trunc_profile(p, PROFILE, side, mixed)
    assert got.tobytes() == np.concatenate(
        [want[order], want[:7], want[-3:]]).tobytes()


def test_trunc_profile_takes_one_row():
    p = PhiParam(0.4, 1.0, BrokenLog(1.0, -0.5))
    rows = KProfile([1.0, 2.0], [[1.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="a truncated norm takes a profile "
                                         "of one row, not 2"):
        norm_trunc_profile(p, rows, "head", [1.0, 2.0])


def test_classical_column_is_the_standalone_call():
    sc = bundled_scenario("classical-1")
    p0, p1 = sc.phi0, sc.phi1
    got = equivalence_report(sc).rhs["classical"]
    want = classical_rhs(p0.theta, p0.q, p1.theta, p1.q, sc.profile,
                         sc.grid.points())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [0.5, math.inf])
def test_shared_pass_reads_each_weights_own_bits(q):
    p0 = PhiParam(0.3, q, BrokenLog(1.0, -0.5))
    p1 = PhiParam(0.7, q, BrokenLog(-1.0, 0.5))
    grid = LogGrid(1e-6, 1e6, 8)
    rho = rho_table(p0, p1, grid)
    *terms, classical = _terms(p0, p1, rho, PROFILE, grid, classical=True)
    want = classical_rhs(0.3, q, 0.7, q, PROFILE, grid.points())
    assert classical.tobytes() == want.tobytes()
    for got, own in zip(terms, _terms(p0, p1, rho, PROFILE, grid)):
        assert got.tobytes() == own.tobytes()
    # weights past the convergence edge at the rate-0 ends, flags included
    bs = (BrokenLog(-0.9, -0.9), BrokenLog(0.5, 0.5), Constant(1.0),
          BrokenLog(-2.0, -2.0))
    xs = LogGrid(1e-30, 1e30, 2).log_points()
    flagged = 0
    for theta in (0.0, 0.3, 1.0):
        for side in ("head", "tail"):
            got = _profile_pow(PhiParam(theta, q, bs[0]), PROFILE, side, xs,
                               bs)
            assert got.value.shape == (len(bs),) + xs.shape
            for i, b in enumerate(bs):
                own = _profile_pow(PhiParam(theta, q, b), PROFILE, side, xs)
                assert got.value[i].tobytes() == own.value.tobytes()
                assert np.array_equal(got.diverged[i], own.diverged)
            flagged += int(got.diverged.sum())
    assert flagged > 0


def test_terms_and_classical_column_lay_out_three_plans(monkeypatch):
    # 2 for the head (slope and value forms), 1 for the tail; the same
    # norms in their own calls lay out 6
    sc = bundled_scenario("classical-1")
    p0, p1, grid, rho = sc.phi0, sc.phi1, sc.grid, sc.rho
    made = []

    class Counted(kinterp.quadrature.QuadPlan):
        def __init__(self, *a, **kw):
            made.append(a)
            super().__init__(*a, **kw)

    monkeypatch.setattr(kinterp.quadrature, "QuadPlan", Counted)
    _terms(p0, p1, rho, sc.profile, grid, classical=True)
    assert len(made) == 3
    made.clear()
    _terms(p0, p1, rho, sc.profile, grid)
    classical_rhs(p0.theta, p0.q, p1.theta, p1.q, sc.profile, grid.points())
    assert len(made) == 6


@pytest.mark.parametrize("k,head,tail", [
    # K^2 underflows: the head was 0, the tail 0 (not +inf)
    (2.5e-201, None, math.inf),
    # K^2 overflows: the head was +inf
    (1e200, None, math.inf),
    # K^2 in range: the plain rule, to its bits
    (2.5e-100, [3.535533905932738e-100, 8.370461595685816e-100], math.inf),
])
def test_trunc_norm_takes_the_scale_apart(k, head, tail):
    # K = k min(1, t), b = 2, theta = 0, q = 2: the head at t >= 1 is
    # 2 k (1/2 + ln t)^(1/2), and the tail diverges
    p = PhiParam(0.0, 2.0, Constant(2.0))
    profile = KProfile([1.0], [[k]])
    ts = [1.0, 10.0]
    got = norm_trunc_profile(p, profile, "head", ts)
    exact = 2.0 * k * np.sqrt(0.5 + np.log(ts))
    if head is None:
        np.testing.assert_allclose(got, exact, rtol=1e-14)
    else:
        assert got.tolist() == head
        np.testing.assert_allclose(got, exact, rtol=1e-14)
    assert norm_trunc_profile(p, profile, "tail", ts).tolist() == [tail] * 2
    # several weights from one pass, each to the bits of its own call
    bs = (Constant(2.0), BrokenLog(1.0, -1.0))
    both = norm_trunc_profiles(p, profile, "head", ts, bs)
    for row, b in zip(both, bs):
        own = norm_trunc_profile(PhiParam(0.0, 2.0, b), profile, "head", ts)
        assert row.tobytes() == own.tobytes()


def test_trunc_norm_scales_each_form():
    # a slope scale K(k_1)/k_1 = 1e-190 and a value scale K(k_m) = 1e-180,
    # both squared below double range, against the same profile at 1e200
    # times the size, rescaled
    p = PhiParam(0.3, 2.0, BrokenLog(0.5, -1.0))
    knots, values = [1e-3, 1e4], [[1e-193, 1e-180]]
    small = KProfile(knots, values)
    large = KProfile(knots, np.multiply(values, 1e200))
    ts = np.exp(np.linspace(-12.0, 12.0, 9))
    for side in ("head", "tail"):
        np.testing.assert_allclose(
            norm_trunc_profile(p, small, side, ts),
            norm_trunc_profile(p, large, side, ts) * 1e-200, rtol=1e-13)
