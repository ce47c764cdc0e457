"""q = inf norms against one ``QuadPlan.sup`` row per norm
(``reference_quadrature.sup_rows``).

* The factors of a log-power weight (Constant, BrokenLog, Product, Power)
  at every rate are the closed form of ``sv._log_power_sup``, and lay out
  no plan.
* Norms truncated at many cutoffs are one cut row reduced by a running
  maximum (``quadrature._cut_sups``).
* The full norms of many profiles split each half-line at the knot hull
  (``quadrature._hull_sups``).

Each matches the per-row rule to 1e-14 relative, with the same divergence
flags.
"""

import math

import numpy as np
import pytest

import reference_quadrature as ref
from kinterp import (BrokenLog, Constant, ExpLogPow, KProfile, LogGrid,
                     PhiParam, Power, Product, StepFn, WeightedSeq,
                     membership_min1, norm_trunc_profile)
from kinterp import params, quadrature
from kinterp.params import (_forms, _join, _profile_pow, full_norm_profiles,
                            head_factors, min_factors, tail_factors)
from kinterp.sv import eval_sv_log, rate0_integral, shift_integral

from test_batched import HULL_ELEMENTS, HULL_WEIGHTS, _hull_candidates

REL = 1e-14
XS = np.array([-1e6, -1e3, -40.0, -7.0, -2.0, -1.0, -0.3, 0.0, 0.4, 1.0,
               3.0, 7.0, 40.0, 1e3, 1e6])
THETAS = [0.1, 0.25, 0.5, 0.9]
TREES = [Product(BrokenLog(-1.0, 2.0), Constant(3.0)),
         Power(BrokenLog(2.0, -1.0), 1.5),
         Product(Power(BrokenLog(1.0, 1.0), 0.5), BrokenLog(-2.0, 0.5)),
         Constant(0.4)]


def _assert_same(got, want, msg=""):
    got_v = np.where(got.diverged, math.inf, got.value)
    want_v = np.where(want.diverged, math.inf, want.value)
    assert np.array_equal(got.diverged, want.diverged), msg
    fin = ~want.diverged
    np.testing.assert_allclose(got_v[fin], want_v[fin], rtol=REL, atol=0.0,
                               err_msg=str(msg))


def _rule_factor(b, xs, c, side):
    """``shift_integral`` at q = inf by the rule: one supremum row per
    point, in relative coordinates with the weight's kink at v = -x."""
    inf, zero = np.full(xs.shape, math.inf), np.zeros(xs.shape)
    lo, hi = (-inf, zero) if side == "head" else (zero, inf)
    return ref.sup_rows(lo, hi, lambda v, rows: eval_sv_log(b, xs[rows, None]
                                                             + v), c,
                        row_kinks=-xs)


@pytest.mark.parametrize("theta", THETAS)
def test_closed_form_matches_the_rule(theta):
    weights = [BrokenLog(float(a0), float(a_inf)) for a0 in range(-2, 4)
               for a_inf in range(-2, 4)] + TREES
    for b in weights:
        for side in ("head", "tail"):
            c = 1.0 - theta if side == "head" else -theta
            got = shift_integral(b, math.inf, XS, c, side)
            assert rate0_integral(b, math.inf, XS, side, c) is not None
            _assert_same(got, _rule_factor(b, XS, c, side), (b, side))


def test_closed_form_hand_pins():
    # sup_{w > x} e^{-(w - x)/2} (1 + |w|)^{0 or 2}: the interior maximum
    # 1 + w = 2 / (1/2) = 4 at x = 0 and x = -2, the bound itself at x = 5
    p = PhiParam(0.5, math.inf, BrokenLog(0.0, 2.0))
    got = tail_factors(p, np.array([0.0, 5.0, -2.0]))
    want = [16.0 * math.exp(-1.5), 36.0, 16.0 * math.exp(-2.5)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_closed_form_growing_side_diverges():
    # e^{c v} grows along the side: +inf, flagged, whatever the weight
    r = shift_integral(BrokenLog(-2.0, -2.0), math.inf, XS, -0.5, "head")
    assert r.diverged.all() and np.isinf(r.value).all()
    # at rate 0 a weight that grows toward the far end diverges too
    r = shift_integral(BrokenLog(-2.0, 0.5), math.inf, XS, 0.0, "tail")
    assert r.diverged.all()


def test_family_factors_lay_out_no_plan(monkeypatch):
    def refuse(self, *a, **kw):
        raise AssertionError("a QuadPlan was laid out")
    monkeypatch.setattr(quadrature.QuadPlan, "__init__", refuse)
    grid = LogGrid(1e-3, 1e3, 4)
    for b in [BrokenLog(1.0, -0.5), BrokenLog(0.0, 2.0)] + TREES:
        for theta in (0.0, 0.3, 1.0):
            p = PhiParam(theta, math.inf, b)
            membership_min1(p)
            for factors in (head_factors, tail_factors, min_factors):
                factors(p, grid)
                factors(p, XS)
    # the spy sees a weight outside the family
    p = PhiParam(0.3, math.inf, ExpLogPow(0.5, -1))
    with pytest.raises(AssertionError, match="QuadPlan"):
        head_factors(p, XS)


PROFILES = {
    "weighted": KProfile.from_element(
        WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 1.0, 1.0))),
    "step": KProfile.from_element(
        StepFn((0.0, 0.5, 2.0, 3.0), (3.0, 1.0, 2.0))),
    "synthetic": KProfile.from_samples([(0.1, 0.1), (1.0, 0.8), (10.0, 2.0)]),
}
SUP_WEIGHTS = [BrokenLog(1.0, -0.5), BrokenLog(-1.0, 2.0), Constant(2.0),
               ExpLogPow(0.5, -1), ExpLogPow(0.9, 1),
               Product(BrokenLog(0.5, -1.0), ExpLogPow(0.3, -1))]


def _per_cutoff(p, profile, side, xs):
    """``_profile_pow`` at q = inf as one supremum row per cutoff and
    form."""
    slope, value, kinks = _forms(p, profile)
    if side == "tail":
        return ref.sup_rows(xs, math.inf, value, -p.theta, kinks=kinks)
    mid = np.minimum(xs, 0.0)
    return _join(p, ref.sup_rows(-math.inf, mid, slope, 1.0 - p.theta,
                                 kinks=kinks),
                 ref.sup_rows(mid, xs, value, -p.theta, kinks=kinks))


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("side", ["head", "tail"])
def test_cut_row_matches_per_cutoff_rows(profile, side):
    xs = np.log(np.array([1e-9, 1e-3, 0.05, 0.3, 1.0, 7.0, 1e3, 1e8]))
    xs = np.concatenate([xs, LogGrid(1e-2, 1e2, 4).log_points()])
    for b in SUP_WEIGHTS:
        for theta in (0.0, 0.4, 1.0):
            p = PhiParam(theta, math.inf, b)
            _assert_same(_profile_pow(p, PROFILES[profile], side, xs),
                         _per_cutoff(p, PROFILES[profile], side, xs),
                         (b, theta))


@pytest.mark.parametrize("end", [-math.inf, 0.0, math.inf])
def test_cut_row_core_with_interior_peaks(end):
    # a bump between every two cutoffs, and a cusp at 0.7: each cutoff's
    # supremum is a polished interior maximum or a cutoff's own value
    def core(x, rows):
        return (1.0 + np.sin(3.0 * x) ** 2) * np.exp(-0.1 * np.abs(x)) \
            / (1.0 + np.abs(x - 0.7))

    xs = LogGrid(1e-4, 1e4, 2).log_points()
    got = quadrature.truncated_pows(end, xs, core, -0.05, math.inf,
                                    ppds=(64, 128), kinks=(0.0, 0.7))
    lo, hi = (xs, math.inf) if end == math.inf else (end, xs)
    for r, ppd in zip(got, (64, 128)):
        _assert_same(r, ref.sup_rows(lo, hi, core, -0.05, ppd=ppd,
                                     kinks=(0.0, 0.7)), ppd)


@pytest.mark.parametrize("side", ["head", "tail"])
def test_cut_row_ignores_cutoff_order_and_repeats(side):
    p = PhiParam(0.4, math.inf, Product(BrokenLog(1.0, -0.5),
                                        ExpLogPow(0.5, -1)))
    profile = PROFILES["weighted"]
    ts = LogGrid(1e-3, 1e3, 4).points()
    want = norm_trunc_profile(p, profile, side, ts)
    order = np.random.default_rng(7).permutation(ts.size)
    mixed = np.concatenate([ts[order], ts[:7], ts[-3:]])
    got = norm_trunc_profile(p, profile, side, mixed)
    assert got.tobytes() == np.concatenate(
        [want[order], want[:7], want[-3:]]).tobytes()


def _per_row_full_norms(p, profile):
    """The full norms at q = inf by the per-row rule: the two forms of
    every row as supremum rows over each half-line."""
    slope, value, kinks = _forms(p, profile)
    zero = np.zeros(len(profile.values))
    return params.qth_root(p, _join(
        p, ref.sup_rows(-math.inf, zero, slope, 1.0 - p.theta, kinks=kinks),
        ref.sup_rows(zero, math.inf, value, -p.theta, kinks=kinks)))


@pytest.mark.parametrize("name", sorted(HULL_ELEMENTS))
def test_hull_split_matches_the_per_row_rule(name):
    profile = _hull_candidates(HULL_ELEMENTS[name])
    # the split takes K/t = K(k_1)/k_1 below the first knot and K(k_m)
    # past the last up to the hull's ends; the per-row rule reads them at
    # x = ln k rounded, off by up to |ln k| eps (1.6e-13 on the clipped
    # element, whose knots are 2.2e-308 and 1.8e308)
    rtol = max(REL, np.finfo(float).eps * np.abs(profile.log_kinks()).max())
    # at q = inf no exponent edge matters: one weight that grows at either
    # end, one that decays at both, and every other kind
    for b in [BrokenLog(0.5, 0.5), BrokenLog(-2.0, -0.9)] + HULL_WEIGHTS[-5:]:
        for theta in (0.0, 0.3, 1.0):
            p = PhiParam(theta, math.inf, b)
            got = full_norm_profiles(p, profile)
            want = _per_row_full_norms(p, profile)
            assert np.array_equal(np.isinf(got), np.isinf(want)), (b, theta)
            fin = np.isfinite(want)
            np.testing.assert_allclose(got[fin], want[fin], rtol=rtol,
                                       atol=0.0, err_msg=str((b, theta)))
