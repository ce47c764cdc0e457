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
                     norm_tail_char, norm_trunc_profile, phi_norm)
from kinterp import conditions, estimates, params, quadrature
from kinterp.couples import atoms
from kinterp.conditions import check_C2, check_C3
from kinterp.params import (full_norm_profile, full_norm_profiles,
                            head_factor, head_factors, min_factor,
                            swept_min_factors, tail_factor, tail_factors)
from kinterp.quadrature import (GL_ORDER, LN10, QuadPlan, decay_product,
                                integral_log, norm_pow, powered, sup_log)
from kinterp.runner import bundled_scenario, run_scenario, run_suite
from kinterp.scenario import scenario_from_json
from kinterp.sv import eval_sv_log, shift_integral, side_rows

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
    to the search without it where |x| <= 50); at c = 0, as for finite q,
    over the absolute bounds (-inf, x) or (x, inf), anchored at w = 0."""
    c = 1.0 - p.theta if side == "head" else -p.theta
    lo, hi = (-math.inf, 0.0) if side == "head" else (0.0, math.inf)
    if p.sup_norm and c == 0.0:
        bounds = (-math.inf, x) if side == "head" else (x, math.inf)
        return sup_log(p.b.eval_log, *bounds, ppd=p.ppd,
                       anchors=(0.0,)).or_inf()
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
        # the reference's own sum overflows on a growing weight
        with np.errstate(over="ignore"):
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


def _assert_matches_reference(p, xs, exact=None):
    """``exact`` maps (side, x) to a closed form that replaces the rule's
    value at a point where the rule is wrong."""
    exact = exact or {}
    for side, batched in (("head", head_factors), ("tail", tail_factors)):
        want = np.array([exact[side, x] if (side, x) in exact
                         else _reference_factor(p, side, x)
                         for x in xs.tolist()])
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


# H of BrokenLog(-1, -0.5) at theta = 1, q = 2 is exact (sv.rate0_integral);
# at |x| = 1e12 the rule reads +inf and 7.07e-7.  H^2 is ∫_{w<x} b^2 =
# 1/(1 - x) for x <= 0, and 1 + ln(1 + x) for x > 0.
_RULE_WRONG = {(1.0, 2.0, "brokenlog-edge"): {
    ("head", 1e12): math.sqrt(1.0 + math.log1p(1e12)),
    ("head", -1e12): 1.0 / math.sqrt(1.0 + 1e12)}}


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.25, 0.75, 1.0])
def test_factors_match_scalar_rule(theta, q, weight):
    # q = inf: the reference is sup_log, the one-row case of QuadPlan.sup;
    # the far nodes are spaced in ln|x|, so its cost does not grow with |x|
    _assert_matches_reference(PhiParam(theta, q, WEIGHTS[weight](q)), XS,
                              _RULE_WRONG.get((theta, q, weight)))


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
        # the reference integrates the growing side and its sum overflows
        with np.errstate(over="ignore"):
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

    slope = powered(form(profile.slope_log), 1.0 - theta, q)
    value = powered(form(profile.value_log), -theta, q)
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


# rows for QuadPlan.sup: per row a smooth bump at M and a cusp at its row
# kink K, of height C against the bump's 1; the bumps lie inside, at and
# outside the rows' finite and infinite bounds
SUP_LO = np.array([-math.inf, -math.inf, -3.0, 0.5, -40.0, -2e12, 2.0, -7.0])
SUP_HI = np.array([math.inf, 1.5, 30.0, math.inf, 9.0, 5.0, 2.5, -6.5])
SUP_M = np.array([0.3, -12.7, 17.3, 25.1, -33.3, 3.7, 2.31, -6.0])
SUP_K = np.array([-20.0, 1.2, -2.0, 0.9, 8.5, -30.0, 2.2, -6.8])
SUP_C = np.array([0.5, 2.0, 0.7, 1.5, 0.3, 0.9, 1.2, 0.4])


def _sup_rows(rate):
    def fn(x, rows):
        m, k, c = (a[rows, None] for a in (SUP_M, SUP_K, SUP_C))
        with np.errstate(under="ignore"):
            g = np.exp(-((x - m) / 4.0) ** 2) + c * np.exp(-np.abs(x - k))
        return decay_product(rate * x, g)
    return fn


def _dense_sup(f, lo, hi, kink):
    """The largest of 1e6 even samples over the row's part of [-100, 100]
    (outside it every row is below 1e-8 of its maximum), its finite bounds
    and its kink, refined by 1001 samples within one step of the best."""
    a, b = max(lo, -100.0), min(hi, 100.0)
    x = np.concatenate([np.linspace(a, b, 10 ** 6), [lo, hi, kink]])
    x = x[np.isfinite(x) & (x >= lo) & (x <= hi)]
    v = f(x)
    step = (b - a) / 1e6
    best = x[np.argmax(v)]
    fine = np.linspace(max(a, best - step), min(b, best + step), 1001)
    return max(v.max(), f(fine).max())


@pytest.mark.parametrize("rate", [0.0, -0.5, 0.5])
def test_plan_sup_matches_dense_search(rate):
    # rate != 0: e^{rate x} is exactly 0.0 past |x| = 1492 on one side,
    # and the plan skips the far panels there
    fn = _sup_rows(rate)
    got = QuadPlan(SUP_LO, SUP_HI, row_kinks=SUP_K, exp_rate=rate).sup(fn)
    assert not got.diverged.any()
    for i in range(SUP_LO.size):
        want = _dense_sup(lambda x: fn(x[None], np.array([i]))[0],
                          SUP_LO[i], SUP_HI[i], SUP_K[i])
        assert got.value[i] == pytest.approx(want, rel=1e-12, abs=0.0), i


@pytest.mark.parametrize("rate", [0.0, -0.5, 2.0])
def test_plan_sup_row_does_not_depend_on_its_batch(rate):
    # rate 2.0 makes the rows with an infinite upper bound grow: e^{2x}
    # over the cusp's e^{-x} overflows far out
    fn = _sup_rows(rate)
    plan = QuadPlan(SUP_LO, SUP_HI, kinks=(0.5,), row_kinks=SUP_K,
                    exp_rate=rate)
    calls = []
    batch = plan.sup(lambda x, rows: calls.append(x.shape) or fn(x, rows))
    assert batch.diverged.any() == (rate == 2.0)
    # one call per pass, then every row's polish at once
    passes = len(list(plan._passes()))
    assert 1 < passes and len(calls) <= passes + quadrature._POLISH_ITERS + 1
    for i in range(SUP_LO.size):
        alone = QuadPlan(SUP_LO[i], SUP_HI[i], kinks=(0.5,),
                         row_kinks=SUP_K[i:i + 1], exp_rate=rate).sup(
                             lambda x, rows, i=i: fn(x, rows + i))
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


# the hull split of the candidates' full norms against the per-row rule:
# elements with knots on both sides of t = 1, all above, all below, one
# atom, a step function, and ratios of 1e-400 and 1e400, which atoms()
# clips to double range; weights near and past the edges of convergence
HULL_ELEMENTS = {
    "both": WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 1.0, 1.0)),
    "above": WeightedSeq((1.0, 0.5, 2.0), (3.0, 40.0, 900.0),
                         (1.0, 1.0, 1.0)),
    "below": WeightedSeq((1.0, 0.5, 2.0), (0.3, 0.02, 0.001),
                         (1.0, 1.0, 1.0)),
    "n1": WeightedSeq((2.0,), (5.0,), (1.0,)),
    "step": StepFn((0.0, 0.01, 0.05, 0.3), (3.0, 1.0, 0.2)),
    "clipped": WeightedSeq((1.0, 2.0), (1e-200, 1e200), (1e200, 1e-200)),
}
HULL_WEIGHTS = [BrokenLog(a0, a_inf) for a0 in (-2.0, 0.5)
                for a_inf in (-0.9, -1.0, -1.02, -1.05, -1.1, -1.2, -1.5,
                              -2.0, 0.5)] + [
    ExpLogPow(0.9, 1), ExpLogPow(0.3, -1),
    Product(BrokenLog(-1.0, 0.5), ExpLogPow(0.2, -1)), Constant(2.0),
    PrimitiveB(BrokenLog(-2.0, 0.5))]


def _hull_candidates(element):
    """f0 on a grid of fractions per atom, 5 for up to two atoms and 3 for
    more (a step function's level rows), then the f1 = f - f0 of each: one
    profile."""
    coeffs, knots, basis = atoms(element)
    if isinstance(element, WeightedSeq):
        n = element.n
        steps = 5 if n <= 2 else 3
        f0 = np.linspace(0.0, 1.0, steps)[np.indices((steps,) * n).reshape(
            n, -1).T] * coeffs
    else:
        f0 = estimates._level_rows(coeffs)
    return KProfile(knots, np.vstack([f0, coeffs - f0]) @ basis)


def _per_row_full_norms(p, profile):
    """The full norms by the per-row rule: the two forms of every row
    integrated over each half-line as rows of one plan."""
    slope, value, kinks = params._forms(p, profile)
    zero = np.zeros(len(profile.values))
    kw = dict(ppd=p.ppd, kinks=kinks)
    return params.qth_root(p, params._join(
        p, norm_pow(-math.inf, zero, slope, 1.0 - p.theta, p.q, **kw),
        norm_pow(zero, math.inf, value, -p.theta, p.q, **kw)))


@pytest.mark.parametrize("name", sorted(HULL_ELEMENTS))
def test_hull_split_matches_the_per_row_rule(name):
    profile = _hull_candidates(HULL_ELEMENTS[name])
    zero = (profile.values == 0.0).all(axis=1)
    # (weight, theta, q): rows made +inf, rows made finite, rows made
    # nonzero
    moved = {}
    for b in HULL_WEIGHTS:
        for theta in (0.0, 0.3, 1.0):
            for q in (0.5, 1.0, 2.0):
                p = PhiParam(theta, q, b)
                got = full_norm_profiles(p, profile)
                want = _per_row_full_norms(p, profile)
                assert np.all(got[zero] == 0.0), (b, theta, q)
                to_inf = np.isinf(got) & ~np.isinf(want)
                to_finite = np.isinf(want) & ~np.isinf(got)
                to_nonzero = (want == 0.0) & (got > 0.0) & ~to_inf
                if to_inf.any() or to_finite.any() or to_nonzero.any():
                    moved[b, theta, q] = (int(to_inf.sum()),
                                          int(to_finite.sum()),
                                          int(to_nonzero.sum()))
                if to_nonzero.any():
                    # the tail past t = 1, K(k_m) times T at rate 0, alone
                    tail = profile.values[to_nonzero, -1] * math.sqrt(
                        shift_integral(b, q, 0.0, 0.0, "tail").value)
                    np.testing.assert_allclose(got[to_nonzero], tail,
                                               rtol=REL, atol=0.0)
                ok = ~to_inf & ~to_finite & ~to_nonzero & ~np.isinf(want)
                np.testing.assert_allclose(got[ok], want[ok], rtol=REL,
                                           atol=0.0, err_msg=str((b, theta,
                                                                  q)))
    # only on the clipped element, where a row's K/t below the first knot
    # reaches 4.5e107 and its K past the last 2.5e-201 to 3.6e108, does
    # the per-row (b K)^q leave double range where b^q does not; the
    # split raises the row's scale to the q-th power apart from
    # e^{rate q x} b^q:
    # * at theta = 0, q = 2, K^2 of the rows with K = 2.5e-201 to 1e-200
    #   past the last knot underflows, so the per-row rule reads 0, but b^2
    #   is not integrable toward +inf: the exact norm is +inf;
    # * ExpLogPow(0.9, 1) at theta = 0.3, q = 2, on the same rows: the
    #   integrand peaks near e^{3000} at x = 59049, where e^{-0.6 x}
    #   underflows and the per-row rule reads 0, so it reads a finite
    #   norm; the split's b^2 overflows from x = 681 on, where e^{-0.6 x}
    #   does not underflow, and reads +inf: the exact norm is beyond
    #   double range;
    # * ExpLogPow(0.9, 1) at theta = 1, q = 0.5, rows with K up to 3.6e108
    #   past the last knot: (b K)^0.5 overflows where e^{-0.5 x} is still
    #   above 0, so the per-row rule flags them, and the exact norm is
    #   finite;
    # * at theta = 0, q = 2, on the rows with K = 2.5e-201 to 1e-200 past
    #   the last knot, for the weights whose b^2 is integrable toward +inf:
    #   the per-row rule reads 0, and the split takes K(k_m) outside the
    #   root, so the tail reads its exact K(k_m) T(0).  (b K)^2 of the head
    #   still underflows between the knots, so these rows read the tail
    #   alone and lack the head's share (the larger one where a0 = 0.5).
    want = {}
    if name == "clipped":
        want = {(b, 0.0, 2.0): (8, 0, 0) for b in (
            BrokenLog(-2.0, 0.5), BrokenLog(0.5, 0.5), Constant(2.0),
            HULL_WEIGHTS[-1])}
        want.update({(b, 0.0, 2.0): (0, 0, 8) for b in HULL_WEIGHTS
                     if isinstance(b, BrokenLog) and b.a_inf < -0.5})
        want[ExpLogPow(0.3, -1), 0.0, 2.0] = (0, 0, 8)
        want[HULL_WEIGHTS[-3], 0.0, 2.0] = (0, 0, 8)
        want[ExpLogPow(0.9, 1), 0.3, 2.0] = (8, 0, 0)
        want[ExpLogPow(0.9, 1), 1.0, 0.5] = (0, 8, 0)
    assert moved == want


def test_candidate_norms_stay_inside_the_hull(monkeypatch):
    # the 729 candidates' K is read only at the nodes inside the knot
    # hull [min(ln k_1, 0), max(ln k_m, 0)], in blocks of rows of at most
    # HULL_BLOCK values; outside it b is evaluated once for all rows
    sc = bundled_scenario("broken-log-1")
    coeffs, knots, basis = atoms(sc.element)
    f0 = estimates._fractions(sc.element, sc.grid) * coeffs
    assert f0.shape[0] == 729
    hull = (min(math.log(knots[0]), 0.0), max(math.log(knots[-1]), 0.0))
    calls = []
    for name in ("value_log", "slope_log"):
        def record(self, x, rows=None, read=getattr(KProfile, name)):
            calls.append((np.asarray(x), np.size(rows)))
            return read(self, x, rows)
        monkeypatch.setattr(KProfile, name, record)
    for p in (sc.phi0, sc.phi1):
        full_norm_profiles(p, KProfile(knots, f0 @ basis))
    assert calls
    for x, rows in calls:
        assert hull[0] <= x.min() and x.max() <= hull[1]
        assert rows * x.size <= quadrature.HULL_BLOCK


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


def test_nested_checks_skip_the_nodes_of_zero_outer_weight(monkeypatch):
    """C2 and C3 of broken-log-1 evaluate the inner M at no outer node
    past the far panels on which the outer weight e^{c q x} is exactly
    0.0, apart from the tail-fit probes."""
    sc = bundled_scenario("broken-log-1")
    seen = []

    def record(p, xs):
        seen.append(xs)
        return swept_min_factors(p, xs)
    monkeypatch.setattr(conditions, "swept_min_factors", record)
    p0, p1 = sc.phi0, sc.phi1
    for check, p_out, c_exp in ((check_C2, p0, p1.theta - p0.theta),
                                (check_C3, p1, p0.theta - p1.theta)):
        seen.clear()
        check(p0, p1, None, sc.grid, budget=sc.budget)
        [nodes] = seen
        rate = c_exp * p_out.q
        y_cut = max(QuadPlan(0.0, 1.0, ppd=ppd,
                             exp_rate=rate).y_cut[rate < 0.0]
                    for ppd in (p_out.ppd, 2 * p_out.ppd))
        # the distance of each node toward the side where the weight decays
        far = nodes if rate < 0.0 else -nodes
        assert set(far[far > math.exp(y_cut)].tolist()) <= {5e11, 1e12}


_FAR_OVERFLOW = {
    "name": "far-overflow",
    # T(x)^q of this weight is finite but its 1/q-th power is not; far out
    # that leaves M0 out of double range only where C3's outer weight
    # e^{(theta0 - theta1) q1 x} is exactly 0.0, so the run completes
    "phi0": {"theta": 0.2, "q": 0.25,
             "b": {"kind": "ExpLogPow", "alpha": 0.3, "sign": 1}},
    "phi1": {"theta": 0.7, "q": 2, "b": {"kind": "BrokenLog", "a0": 1, "aInf": 1}},
    "element": {"kind": "WeightedSeq", "coeffs": [1], "w0": [1], "w1": [1]},
    "grid": {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 1},
    "checks": ["C3"],
    "variants": ["classical"],
}
# at theta1 = theta0 that weight is 1, and M0 overflows where it counts
_OVERFLOW = {**_FAR_OVERFLOW, "name": "overflow",
             "phi1": {**_FAR_OVERFLOW["phi1"], "theta": 0.2}}


def test_far_overflow_completes():
    """The far-overflow input's M0 leaves double range only at nodes of
    zero outer weight, so its C3 completes.  The pinned sup was checked at
    PhiParam.ppd = 128 (0.85327245) and by a direct nested quadrature at
    t = 0.01, 0.1, 1, 10, 100 (0.85327142 at t = 10), both within 4e-6."""
    sc = scenario_from_json(_FAR_OVERFLOW)
    rep = check_C3(sc.phi0, sc.phi1, None, sc.grid, budget=sc.budget)
    assert rep.sup_ratio == pytest.approx(0.8532749644414221, rel=1e-12)
    assert rep.verdict == "pass"
    assert rep.meta["refine_ok"]


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


# identical rows: per row a cusp of height C at M, decaying as |x - M|^E
# (E = 0.2 grows, so on a half line without decay that row diverges, at
# every q); every nonempty row has the same bounds, and the empty ones
# (hi <= lo) are mixed in
_SAME_C = np.array([1.0, 2.5, 0.7, 1.3, 0.4])
_SAME_M = np.array([0.3, -1.7, 2.2, 0.0, -0.4])
_SAME_E = np.array([-4.0, -3.5, -5.0, 0.2, -4.5])


def _same_core(x, rows):
    c, m, e = (a[rows, None] for a in (_SAME_C, _SAME_M, _SAME_E))
    return c * (1.0 + np.abs(x - m)) ** e


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("bounds,rate,diverges", [
    ((-math.inf, math.inf), 0.0, True),   # both far regions fitted
    ((-3.0, math.inf), -0.25, False),     # one, with the far panels cut
    ((-2.0, 5.0), 0.0, False),            # none
])
def test_identical_rows_match_one_row_plans(q, bounds, rate, diverges):
    empty = (4.0, 4.0)
    lo, hi = np.array([bounds, bounds, empty, bounds, bounds, bounds,
                       (6.0, 1.0)]).T
    # the batch's row i is parameter row of[i]
    of = np.array([0, 1, 0, 2, 3, 4, 0])
    seen = []

    def core(x, rows):
        seen.append((x.shape[0], rows.size))
        return _same_core(x, of[rows])

    kw = dict(ppd=64, kinks=(0.0, 1.1))
    batch = norm_pow(lo, hi, core, rate, q, **kw)
    # one row of points per row, in the passes and in a supremum's polish
    assert seen and all(r == n for r, n in seen)
    assert np.array_equal(np.flatnonzero(batch.diverged), [4] * diverges)
    assert batch.value[2] == batch.value[6] == 0.0
    for i in (0, 1, 3, 4, 5):
        alone = norm_pow(lo[i], hi[i], lambda x, rows, i=i: _same_core(
            x, of[rows + i]), rate, q, **kw)
        assert alone.value == batch.value[i], i
        assert alone.diverged == batch.diverged[i], i


def test_identical_rows_polish_at_once():
    # 729 identical rows take many passes: their polish is one ternary
    # search for all of them, to the bits of each row's own plan
    amp = np.linspace(0.5, 2.0, 729)
    mid = np.linspace(-30.0, -0.5, 729)

    def fn(x, rows):
        with np.errstate(under="ignore"):
            return decay_product(0.7 * x, amp[rows, None] * np.exp(
                -np.abs(x - mid[rows, None]) ** 1.5))

    calls = []
    plan = QuadPlan(np.full(729, -math.inf), np.zeros(729), kinks=(-1.0,),
                    exp_rate=0.7)
    batch = plan.sup(lambda x, rows: calls.append(x.shape) or fn(x, rows))
    passes = len(list(plan._passes()))
    assert passes > 10
    assert len(calls) <= passes + quadrature._POLISH_ITERS + 1
    for i in (0, 1, 5, 6, 364, 727, 728):
        alone = QuadPlan(-math.inf, 0.0, kinks=(-1.0,), exp_rate=0.7).sup(
            lambda x, rows, i=i: fn(x, rows + i))
        assert alone.value == batch.value[i], i
        assert alone.diverged == batch.diverged[i], i


def test_candidate_norms_evaluate_one_row_of_points(monkeypatch):
    # the 729 split-grid candidates of broken-log-1 share their bounds, so
    # each pass hands the core a single row of points: b(e^x) and the knot
    # search are computed once per node, only K once per candidate
    sc = bundled_scenario("broken-log-1")
    coeffs, knots, basis = atoms(sc.element)
    f0 = estimates._fractions(sc.element, sc.grid) * coeffs
    assert f0.shape[0] == 729
    shapes = []

    def record(b, x):
        shapes.append(np.shape(x))
        return eval_sv_log(b, x)
    monkeypatch.setattr(params, "eval_sv_log", record)
    for p in (sc.phi0, sc.phi1):
        full_norm_profiles(p, KProfile(knots, f0 @ basis))
    assert shapes and {s[0] for s in shapes} == {1}


# one call mixing rows that the rule covers by one direct panel with other
# rows: a table panel, tiny spans, the bounds ±SWITCH, kinks inside and at
# a bound, rows that overflow, multi-panel, far, half-line and empty rows;
# then rows that end at 0, as the inner sweeps hand them to norm_pow: one
# direct panel, none, more, a kink inside or at the bound 0, and more
# one-panel rows than one dense pass holds
_ONE_KINK = 0.05
_ANCHORED = 719  # the first row that ends at 0 of the second kind


def _one_panel_rows():
    rng = np.random.default_rng(7)
    lo = rng.uniform(-1.0, 0.97, 700)
    rows = [(1.0 * WIDTH, 2.0 * WIDTH, math.nan),      # a table panel
            (-3.0 * WIDTH, -2.0 * WIDTH, math.nan),
            (0.0, 1e-16, math.nan),                 # spans that are
            (0.0, 1e-9 * WIDTH, math.nan),          # exact: 0 is a lattice
            (0.0, 2e-9 * WIDTH, math.nan),          # point
            (-1.0, -0.95, math.nan), (0.9, 1.0, math.nan),  # ±SWITCH
            (-1.0, -0.95, -0.97), (0.9, 1.0, 1.0),  # row kink inside, at hi
            (0.1, 0.2, 0.15), (0.1, 0.2, 0.1),
            (0.03, 0.07, math.nan),                 # the shared kink inside
            (-0.9, 0.9, math.nan), (-5.0, 3.0, 0.5), (1.5, 2.0, math.nan),
            (-math.inf, 0.5, 0.0), (0.2, math.inf, math.nan),
            (0.4, 0.4, math.nan), (0.6, 0.1, math.nan)]
    rows += zip(lo, lo + rng.uniform(0.0, 0.03, lo.size),
                np.where(rng.random(lo.size) < 0.2, lo + 0.01, math.nan))
    near = WIDTH * (1.0 + 5e-10)  # within 1e-9 width past a lattice point
    past = WIDTH * (1.0 + 2e-9)
    rows += [(0.0, WIDTH, math.nan), (-WIDTH, 0.0, math.nan),
             (0.0, near, math.nan), (-near, 0.0, math.nan),
             (0.0, past, math.nan), (-past, 0.0, math.nan),
             (-1e-16, 0.0, math.nan), (-1e-9 * WIDTH, 0.0, math.nan),
             (-2e-9 * WIDTH, 0.0, math.nan),
             (-1.0, 0.0, math.nan), (0.0, 1.0, math.nan),
             (0.0, 0.03, 0.0), (-0.03, 0.0, 0.0),   # the kink at 0
             (0.0, 0.04, 0.02), (-0.04, 0.0, -0.02),
             (0.0, 0.07, math.nan),                 # the shared kink inside
             (-3.0, 0.0, math.nan), (0.0, 5.0, math.nan),
             (-math.inf, 0.0, math.nan), (0.0, math.inf, math.nan)]
    more = np.random.default_rng(8)
    head = more.random(1600) < 0.5
    # a tail row of more than 0.05 holds the shared kink
    span = more.uniform(0.0, 0.25, head.size) * np.where(head, 1.0, 0.2)
    rows += zip(np.where(head, -span, 0.0), np.where(head, 0.0, span),
                np.where(more.random(span.size) < 0.2,
                         np.where(head, -0.5, 0.5) * span, math.nan))
    return np.array(rows).T


def _one_panel_core(x, rows):
    # rows 6 and 8, on [0.9, 1], overflow to +inf
    c = np.where(np.isin(rows, (6, 8)), 1e306, 1.0 + 0.1 * rows)[:, None]
    with np.errstate(over="ignore"):
        return c * np.exp(12.0 * x) / (1.0 + x * x)


def _one_panel_row_free(x, rows):
    # ignores its rows; overflows to +inf past x = 0.97
    with np.errstate(over="ignore"):
        return (np.where(x > 0.97, 1e306, 1.0) * np.exp(12.0 * x)
                / (1.0 + x * x))


def _dense_rows(monkeypatch):
    """A list that each dense pass (rows of one direct panel, GL_ORDER
    columns and no last-doubling increment) appends its flat rows to."""
    blocks, passes = [], QuadPlan._passes

    def spy(self):
        for idx, built in passes(self):
            if built[2] == () and built[0].shape[1] == GL_ORDER:
                blocks.append(self.rows[idx].tolist())
            yield idx, built
    monkeypatch.setattr(QuadPlan, "_passes", spy)
    return blocks


def _kink_partials(monkeypatch):
    """A list that each many-row gather appends the count of its row
    segments to that take a panel ending at one of their kinks inside."""
    seen, pieces = [], quadrature._pieces

    def spy(lo, hi, kinks, width):
        out = pieces(lo, hi, kinks, width)
        r, _, a, b = out[2]
        k = np.where((kinks > lo[:, None]) & (kinks < hi[:, None]), kinks,
                     np.nan)[r]
        at = (k == a[:, None]) | (k == b[:, None])
        seen.append(len(set(r[at.any(axis=1)].tolist())))
        return out
    monkeypatch.setattr(quadrature, "_pieces", spy)
    return seen


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("rate", [0.0, -0.7])
@pytest.mark.parametrize("row_free", [False, True])
def test_one_panel_rows_match_the_plan(monkeypatch, q, rate, row_free):
    lo, hi, row_kinks = _one_panel_rows()
    core = _one_panel_row_free if row_free else _one_panel_core
    kw = dict(ppd=64, kinks=(_ONE_KINK,))
    want = QuadPlan(lo, hi, row_kinks=row_kinks, exp_rate=rate * q,
                    **kw).apply(powered(core, rate, q))
    kinked = _kink_partials(monkeypatch)
    blocks = _dense_rows(monkeypatch)
    got = norm_pow(lo, hi, core, rate, q, row_kinks=row_kinks, **kw)
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.diverged, want.diverged)
    # a row is one dense panel [lo, hi] when its span is above 1e-9 width,
    # no lattice point's index lies inside it (as _row_edges counts them),
    # and it holds no kink (the shared kink 0.05 is inside some tail rows);
    # row 722, [-WIDTH, 0], is one panel too, but its lattice point -WIDTH
    # counts as inside and falls to the 1e-9 width rule
    dense = {i for block in blocks for i in block}
    one = [i in dense for i in range(lo.size)]
    assert [i for i in np.flatnonzero(one)
            if i < 19 or _ANCHORED <= i < _ANCHORED + 20] == [
        0, 1, 4, 5, 6, 8, 10, 720, 727, 730, 731]
    # dense passes of at most CHUNK_ELEMS values, more than two; one
    # gather, in which the rows holding a kink inside take a panel that
    # ends there
    assert len(blocks) > 2
    assert max(len(b) for b in blocks) <= quadrature.CHUNK_ELEMS // GL_ORDER
    assert (sum(one), kinked) == (1897, [389])
    assert got.diverged[[6, 8]].all()
    assert not got.diverged[[5, 7, 9]].any()


def test_sweep_lays_out_only_the_longer_increments(monkeypatch):
    """broken-log-1's C2: 4,176 increments, 3,664 along the nodes of the
    two outer rows where the outer weight is not 0.0 and 512 along the grid
    (H and T of both parameters, for rho), each of the grid's one panel.
    The 2 increments that hold the weight's kink w = 0 inside take a panel
    that ends there; every other row is gathered from whole and partial
    panels alone, or is one dense panel."""
    sc = bundled_scenario("broken-log-1")
    increments = []

    def counted_side_rows(b, q, x, c, side, span, ppd):
        increments.append(int(np.count_nonzero(np.isfinite(span))))
        return side_rows(b, q, x, c, side, span, ppd)
    kinked = _kink_partials(monkeypatch)
    monkeypatch.setattr(params, "side_rows", counted_side_rows)
    check_C2(sc.phi0, sc.phi1, None, sc.grid, budget=sc.budget)
    assert (sum(kinked), sum(increments)) == (2, 4176)


@pytest.mark.parametrize("cid,want", [
    ("C2", 0.5484760261367859),
    ("C3", 0.8623643238905242),
])
def test_nested_sup_ratios_pinned_on_a_wide_grid(cid, want):
    # about 12,450 increment rows per sweep, 12,241 of them one panel: the
    # dense rows run in many blocks
    sc = bundled_scenario("broken-log-1")
    check = check_C2 if cid == "C2" else check_C3
    rep = check(sc.phi0, sc.phi1, None, LogGrid(1e-30, 1e30, 16),
                budget=sc.budget)
    assert rep.sup_ratio == pytest.approx(want, rel=1e-12)
    assert rep.meta["refine_ok"]
