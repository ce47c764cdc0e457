"""Batched factor tables and the row-batched quadrature rule.

The batched paths must reproduce the scalar rule of ``reference_quadrature``
(the rule as it stood when every integral was one Python call) up to the
order of summation, with identical divergence flags.
"""

import json
import math

import numpy as np
import pytest

import reference_quadrature as ref
from kinterp import (BrokenLog, Constant, DecompositionSearch, ExpLogPow,
                     KProfile, LogGrid, PhiParam, Power, PrimitiveB, Product,
                     RangeError, StepFn, WeightedSeq, norm_head_u,
                     norm_tail_char, norm_trunc_profile, params, phi_norm)
from kinterp.couples import atoms
from kinterp.conditions import check_C2, check_C3
from kinterp.params import (full_norm_profile, full_norm_profiles,
                            head_factor, head_factors, min_factor,
                            tail_factor, tail_factors)
from kinterp.quadrature import (GL_ORDER, LN10, QuadPlan, decay_product,
                                integral_log, sup_log)
from kinterp.runner import bundled_scenario, run_scenario, run_suite
from kinterp.scenario import scenario_from_json
from kinterp.sv import eval_sv_log

REL = 1e-14
WIDTH = LN10 / round(64 / GL_ORDER)

# deep, moderate and lattice-edge points (a kink 1e-10 from a lattice edge
# is merged into it)
XS = np.array([-1e12, 1e12, -1e6, 1e6, -50.0, -1.0, -0.3, 0.0, 7.0,
               WIDTH + 1e-10, WIDTH - 1e-10, -WIDTH + 1e-10, -WIDTH - 1e-10])

WEIGHTS = {
    "constant": lambda q: Constant(2.0),
    "brokenlog": lambda q: BrokenLog(1.0, 2.0),
    # aInf * q = -1 and -0.99: the tail integral diverges at theta = 0
    "brokenlog-edge": lambda q: BrokenLog(-1.0, -1.0 / q),
    "brokenlog-near": lambda q: BrokenLog(0.5, -0.99 / q),
    "explogpow+": lambda q: ExpLogPow(0.3, 1),
    "explogpow-": lambda q: ExpLogPow(0.5, -1),
    "product": lambda q: Product(BrokenLog(-1.0, 0.5), ExpLogPow(0.2, -1)),
    "power": lambda q: Power(BrokenLog(1.0, -1.0), 0.5),
}


def _reference_factor(p, side, x):
    """H or T at x by the scalar rule, as the factors were computed before
    batching (no panel skipped).  For q = inf that is one supremum search,
    told the decay rate (``test_sup_log_rate_keeps_short_searches`` pins it
    to the search without it where |x| <= 50)."""
    c = 1.0 - p.theta if side == "head" else -p.theta
    lo, hi = (-math.inf, 0.0) if side == "head" else (0.0, math.inf)
    if p.sup_norm:
        def fn(v):
            return decay_product(c * v, p.b.eval_log(x + v))
        return sup_log(fn, lo, hi, ppd=p.ppd, anchors=(-x, 0.0),
                       rate=c).or_inf()
    cq = c * p.q
    if cq == 0.0:
        def fn(w):
            with np.errstate(over="ignore", under="ignore"):
                return p.b.eval_log(w) ** p.q
        bounds = (-math.inf, x) if side == "head" else (x, math.inf)
        r = ref.integral_log(fn, *bounds, ppd=p.ppd, kinks=(0.0,))
    else:
        def fn(v):
            with np.errstate(over="ignore", under="ignore"):
                return decay_product(cq * v, p.b.eval_log(x + v) ** p.q)
        r = ref.integral_log(fn, lo, hi, ppd=p.ppd, kinks=(-x,))
    if r.diverged:
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.float64(r.value) ** (1.0 / p.q))


def _assert_matches_reference(p, xs):
    for side, batched in (("head", head_factors), ("tail", tail_factors)):
        want = np.array([_reference_factor(p, side, float(x)) for x in xs])
        finite_root = np.isfinite(want)
        try:
            got = batched(p, xs)
        except RangeError:
            # a finite q-th power whose root leaves double range
            assert p.q < 1.0 and not finite_root.all()
            continue
        assert np.array_equal(np.isinf(got), np.isinf(want)), (side, got, want)
        np.testing.assert_allclose(got[finite_root], want[finite_root],
                                   rtol=REL, atol=0.0, err_msg=side)


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.25, 0.75, 1.0])
def test_factors_match_scalar_rule(theta, q, weight):
    # q = inf: the search stops where e^{c v} is exactly 0 and samples long
    # anchor gaps at log spacing, so its cost no longer grows with |x|
    _assert_matches_reference(PhiParam(theta, q, WEIGHTS[weight](q)), XS)


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.25, 1.0])
def test_sup_log_rate_keeps_short_searches(theta, weight):
    # where every anchor lies within the search window, telling sup_log
    # the decay rate changes no sample
    p = PhiParam(theta, math.inf, WEIGHTS[weight](math.inf))
    for side, c, lo, hi in (("head", 1.0 - theta, -math.inf, 0.0),
                            ("tail", -theta, 0.0, math.inf)):
        for x in XS[np.abs(XS) <= 50.0]:
            def fn(v, x=x):
                return decay_product(c * v, p.b.eval_log(x + v))
            assert sup_log(fn, lo, hi, ppd=p.ppd, anchors=(-x, 0.0)) == \
                sup_log(fn, lo, hi, ppd=p.ppd, anchors=(-x, 0.0), rate=c)


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
def test_sup_factors_of_constant_weight_far_out(theta):
    # H = sup_{v<0} e^{(1-theta) v} c0 = c0 and T = sup_{v>0} e^{-theta v}
    # c0 = c0; at |x| = 1e12 the old search asked for about 1e14 samples
    p = PhiParam(theta, math.inf, Constant(2.5))
    xs = np.array([-1e12, -1e6, 1e6, 1e12])
    assert np.array_equal(head_factors(p, xs), np.full(4, 2.5))
    assert np.array_equal(tail_factors(p, xs), np.full(4, 2.5))


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
def test_primitive_weight_factors_match_scalar_rule(theta):
    p = PhiParam(theta, 1.0, PrimitiveB(BrokenLog(-2.0, 0.0)))
    _assert_matches_reference(p, XS[[2, 4, 6, 7, 8, 9]])


def test_plan_rows_match_scalar_rule():
    fn = lambda x: np.exp(-np.abs(x)) * (1.0 + np.abs(x)) ** 0.5
    lo = np.array([-math.inf, -3.0, 0.0, -2e12, -5.0, 0.0, 2.0, -1e9])
    hi = np.array([math.inf, 2.0, math.inf, 5.0, 3e12, 1e-16, 2.0, 0.3])
    got = QuadPlan(lo, hi, kinks=(0.5, -7.0)).apply(lambda x, rows: fn(x))
    for i in range(lo.size):
        want = ref.integral_log(fn, lo[i], hi[i], kinks=(0.5, -7.0))
        assert bool(got.diverged[i]) == want.diverged
        assert got.value[i] == pytest.approx(want.value, rel=REL, abs=0.0)
        assert integral_log(fn, lo[i], hi[i], kinks=(0.5, -7.0)).value \
            == pytest.approx(want.value, rel=REL, abs=0.0)


@pytest.mark.parametrize("rate", [3.0, -0.5, 1e-9])
def test_plan_exp_rate_cut_matches_scalar_rule(rate):
    # e^{rate x} underflows to exactly 0.0 far out; the plan skips those
    # panels, the scalar rule integrates them
    fn = lambda x: decay_product(rate * x, (1.0 + np.abs(x)) ** 3.0)
    lo = np.array([-math.inf, -math.inf, -40.0, 0.5])
    hi = np.array([0.0, math.inf, 9.0, math.inf])
    got = QuadPlan(lo, hi, kinks=(0.0,), exp_rate=rate).apply(
        lambda x, rows: fn(x))
    for i in range(lo.size):
        want = ref.integral_log(fn, lo[i], hi[i], kinks=(0.0,))
        assert bool(got.diverged[i]) == want.diverged
        assert got.value[i] == pytest.approx(want.value, rel=REL, abs=0.0)


@pytest.mark.parametrize("theta,q", [(0.25, 1.0), (0.75, 2.0), (0.5, 0.5)])
def test_trunc_norms_match_scalar_rule(theta, q):
    p = PhiParam(theta, q, BrokenLog(1.0, -0.5))
    profile = KProfile.from_element(
        WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 1.0, 1.0)))
    def form(k):
        return lambda x, rows: eval_sv_log(p.b, x) * k(x, rows)

    slope = params._powered(p, form(profile.slope_log), 1.0 - theta)
    value = params._powered(p, form(profile.value_log), -theta)
    kinks = tuple(profile.log_kinks()) + (0.0,)
    ts = np.logspace(-6.0, 6.0, 13)
    heads = norm_trunc_profile(p, profile, "head", ts)
    tails = norm_trunc_profile(p, profile, "tail", ts)
    for t, head, tail in zip(ts, heads, tails):
        x_t = math.log(t)
        mid = min(x_t, 0.0)
        want_head = (ref.integral_log(slope, -math.inf, mid, kinks=kinks).value
                     + ref.integral_log(value, mid, x_t, kinks=kinks).value)
        want_tail = ref.integral_log(value, x_t, math.inf, kinks=kinks).value
        assert head == pytest.approx(want_head ** (1.0 / q), rel=REL)
        assert tail == pytest.approx(want_tail ** (1.0 / q), rel=REL)


def test_plan_points_are_the_evaluated_points():
    plan = QuadPlan(np.array([-math.inf, -math.inf]), np.array([-2.0, 0.5]),
                    ppd=32, kinks=(0.0,))
    seen = []
    plan.apply(lambda x, rows: seen.append(np.array(x)) or np.ones(x.shape))
    assert np.array_equal(plan.points(), np.unique(np.concatenate(
        [s.ravel() for s in seen])))


def test_row_value_does_not_depend_on_its_batch():
    # the rows of one pass are padded to the widest of them, so a row's
    # terms sit in other columns when other rows share its pass
    fn = lambda x: np.exp(-np.abs(x)) * (1.0 + np.abs(x)) ** 0.5
    lo = np.array([-math.inf, -3.0, 0.0, -2e12, -5.0, -0.7, 2.0, -1e9])
    hi = np.array([math.inf, 2.0, math.inf, 5.0, 3e12, 0.2, 40.0, 0.3])
    batch = QuadPlan(lo, hi, kinks=(0.5,), row_kinks=lo / 3.0).apply(
        lambda x, rows: fn(x))
    for i in range(lo.size):
        alone = QuadPlan(lo[i], hi[i], kinks=(0.5,),
                         row_kinks=lo[i:i + 1] / 3.0).apply(
                             lambda x, rows: fn(x))
        assert alone.value == batch.value[i]
        assert alone.diverged == batch.diverged[i]


@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
def test_factor_does_not_depend_on_its_batch(theta):
    p = PhiParam(theta, 2.0, BrokenLog(1.0, 2.0))
    xs = np.array([-1e6, -50.0, -0.3, 0.0, 7.0, 1e6])
    heads, tails = head_factors(p, xs), tail_factors(p, xs)
    for i, x in enumerate(xs):
        assert head_factors(p, xs[i:i + 1])[0] == heads[i] \
            == head_factor(p, float(x))
        assert tail_factors(p, xs[i:i + 1])[0] == tails[i] \
            == tail_factor(p, float(x))


def test_primitive_value_does_not_depend_on_the_missing_set():
    # a primitive computes the values it does not hold yet in one batch of
    # whatever points are missing; a kept value must not depend on that batch
    base = BrokenLog(-2.0, 0.5)
    xs = np.array([-30.0, -2.5, 0.0, 0.4, 12.0, 300.0])
    together = PrimitiveB(base).eval_log(xs)
    for i, x in enumerate(xs):
        assert PrimitiveB(base).eval_log(np.array([x]))[0] == together[i]
    b = PrimitiveB(base)
    b.eval_log(xs[::2])
    assert np.array_equal(b.eval_log(xs), together)


def test_log_space_product_keeps_phi_norm_finite():
    # at x near -374, e^{theta q x'} with x' = -x overflows while
    # (lam u)^q is subnormal; the product is about e^{-38}, so the norm is
    # finite and homogeneous (this example once returned +inf)
    theta, q, lam = 0.94921875, 2.0, 11.0
    p = PhiParam(theta, q, Constant(1.0))
    base = phi_norm(p, lambda u: np.minimum(u, 2.0))
    scaled = phi_norm(p, lambda u: lam * np.minimum(u, 2.0))
    assert math.isfinite(scaled)
    assert scaled == pytest.approx(lam * base, rel=1e-12)
    assert decay_product(np.array([720.0]), np.array([1e-320]))[0] \
        == pytest.approx(math.exp(720.0 + math.log(1e-320)), rel=1e-12)
    assert decay_product(np.array([720.0]), np.array([1e-3]))[0] == math.inf


def test_candidate_norms_match_one_by_one():
    e = WeightedSeq((1.0, 2.0, 0.5), (1.0, 10.0, 0.01), (3.0, 0.2, 5.0))
    p0 = PhiParam(0.3, 1.0, Constant(2.0))
    p1 = PhiParam(0.6, 0.5, BrokenLog(1.0, -0.5))
    search = DecompositionSearch(p0, p1, e, LogGrid(1e-2, 1e2, 4))
    rows = [WeightedSeq(tuple(a * c for a, c in zip(alphas, e.coeffs)),
                        e.w0, e.w1)
            for alphas in ((0.0, 0.0, 0.0), (0.5, 1.0, 0.25), (1.0, 1.0, 1.0))]
    _, knots, basis = atoms(e)
    for p in (p0, p1):
        got = full_norm_profiles(p, KProfile(
            knots, np.abs(np.array([f.coeffs for f in rows])) @ basis))
        want = [full_norm_profile(p, KProfile.from_element(f)) for f in rows]
        np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)
    f0, f1 = (WeightedSeq(c, e.w0, e.w1) for c in ((1.0, 2.0, 0.0),
                                                    (0.0, 0.0, 0.5)))
    want = (full_norm_profile(p0, KProfile.from_element(f0))
            + 3.0 * full_norm_profile(p1, KProfile.from_element(f1)))
    assert search.lhs(3.0) <= want * (1.0 + REL)


def _old_level_splits(element):
    # the candidates as StepFn pairs, each normed on its own rearrangement
    pairs = [(StepFn(element.breakpoints,
                     tuple(max(v - c, 0.0) for v in element.values)),
              StepFn(element.breakpoints,
                     tuple(min(v, c) for v in element.values)))
             for c in sorted(set(element.values)) + [0.0]]
    return pairs + [(StepFn(element.breakpoints, (0.0,) * len(element.values)),
                     element)]


def test_step_candidates_still_searched():
    e = StepFn((0.0, 1.0, 2.5), (3.0, 1.0))
    p0, p1 = PhiParam(0.25, 1.0), PhiParam(0.75, 2.0)
    search = DecompositionSearch(p0, p1, e, LogGrid(1e-2, 1e2, 4))
    assert search.a0.shape == search.a1.shape == (4,)
    assert np.isfinite(search.lhs(1.0))
    # the batched rows against each candidate normed on its own
    # rearrangement; with ties and zeros, (f - c)+ and min(f, c) tie values
    # that f does not, and their rearrangements order the pieces otherwise
    breaks = (0.0, 0.3, 1.3, 1.8, 3.8, 4.5)
    for values in ((2.0, 1.0, 2.0, 0.0, 1.0), (0.0, 3.0, 0.5, 3.0),
                   (1.0, 1.0, 4.0)):
        e = StepFn(breaks[:len(values) + 1], values)
        f0s, f1s = zip(*_old_level_splits(e))
        for q in (0.5, 1.0, 2.0, math.inf):
            p0 = PhiParam(0.3, q, BrokenLog(1.0, -0.5))
            p1 = PhiParam(0.7, q, Constant(2.0))
            search = DecompositionSearch(p0, p1, e, LogGrid(1e-2, 1e2, 4))
            for got, p, fs in ((search.a0, p0, f0s), (search.a1, p1, f1s)):
                want = [full_norm_profile(p, KProfile.from_element(f))
                        for f in fs]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_head_and_tail_norms_take_arrays():
    p = PhiParam(0.25, 2.0, BrokenLog(1.0, -0.5))
    ts = np.array([1e-6, 0.5, 1.0, 3.0, 1e5])
    heads, tails = norm_head_u(p, ts), norm_tail_char(p, ts)
    for t, h, tl in zip(ts, heads, tails):
        assert norm_head_u(p, float(t)) == pytest.approx(h, rel=1e-15)
        assert norm_tail_char(p, float(t)) == pytest.approx(tl, rel=1e-15)
    with pytest.raises(ValueError):
        norm_head_u(p, np.array([1.0, 0.0]))


@pytest.mark.parametrize("theta,q", [(0.25, 1.0), (0.75, 2.0), (0.4, 0.5)])
def test_constant_weight_closed_forms(theta, q):
    c = 3.0
    p = PhiParam(theta, q, Constant(c))
    xs = np.array([-1e6, -20.0, -0.5, 0.0, 0.7, 30.0, 1e6])
    h = c * ((1.0 - theta) * q) ** (-1.0 / q)
    t = c * (theta * q) ** (-1.0 / q)
    m = c * (1.0 / ((1.0 - theta) * q) + 1.0 / (theta * q)) ** (1.0 / q)
    np.testing.assert_allclose(head_factors(p, xs), h, rtol=1e-12)
    np.testing.assert_allclose(tail_factors(p, xs), t, rtol=1e-12)
    # M = (H^q + T^q)^{1/q} from the quadrature H and T
    np.testing.assert_allclose(
        (head_factors(p, xs) ** q + tail_factors(p, xs) ** q) ** (1.0 / q),
        m, rtol=1e-12)
    assert min_factor(p, 0.3) == pytest.approx(m, rel=1e-15)


@pytest.mark.parametrize("name,cid,want", [
    ("broken-log-1", "C2", 0.5133788200708415),
    ("broken-log-1", "C3", 0.8623643238905204),
    ("endpoint-01", "C2", 1.3223460051703941),
    ("endpoint-01", "C3", 1.3223460051703944),
])
def test_nested_sup_ratios_pinned(name, cid, want):
    sc = bundled_scenario(name)
    check = check_C2 if cid == "C2" else check_C3
    rep = check(sc.phi0, sc.phi1, None, sc.grid, budget=sc.budget)
    assert rep.sup_ratio == pytest.approx(want, rel=1e-12)
    assert rep.meta["refine_ok"]


_OVERFLOW = {
    "name": "overflow",
    # T(x)^q of this weight is finite but its 1/q-th power is not
    "phi0": {"theta": 0.2, "q": 0.25,
             "b": {"kind": "ExpLogPow", "alpha": 0.3, "sign": 1}},
    "phi1": {"theta": 0.7, "q": 2, "b": {"kind": "BrokenLog", "a0": 1, "aInf": 1}},
    "element": {"kind": "WeightedSeq", "coeffs": [1], "w0": [1], "w1": [1]},
    "grid": {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 1},
    "checks": ["C3"],
    "variants": ["classical"],
}


def test_overflow_is_a_named_error(tmp_path):
    res = run_scenario(scenario_from_json(_OVERFLOW), tmp_path)
    assert res.exit_code == 4
    assert res.error == "phi0: ‖·‖^(1/q) left double range (q=0.25)"


def test_overflow_leaves_the_suite_running(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "overflow.json").write_text(json.dumps(_OVERFLOW))
    (src / "classical.json").write_text(json.dumps(
        {**_OVERFLOW, "name": "classical",
         "phi0": {"theta": 0.25, "q": 1, "b": {"kind": "Constant", "c": 1}},
         "phi1": {"theta": 0.75, "q": 1, "b": {"kind": "Constant", "c": 1}}}))
    summary, code = run_suite(src, tmp_path / "out", workers=2)
    status = {s["name"]: s["exit_code"] for s in summary["scenarios"]}
    assert status == {"classical": 0, "overflow": 4}
    assert code == 4
