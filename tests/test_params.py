import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import (BrokenLog, Constant, ExpLogPow, KProfile, LogGrid,
                     MembershipError, PhiParam, Product, RangeError,
                     WeightedSeq, membership_min1, norm_head_u,
                     norm_tail_char, norm_trunc_profile, phi_norm)
from kinterp.params import (full_norm_profile, full_norm_profiles,
                            head_factor, min_factors, phi_from_json,
                            require_membership, tail_factor)

from helpers import simpson_log

P14 = PhiParam(0.25, 1.0, Constant(1.0))
P34 = PhiParam(0.75, 1.0, Constant(1.0))
P12 = PhiParam(0.5, 1.0, Constant(1.0))
BL22 = BrokenLog(-2.0, -2.0)
K_UNIT = KProfile.from_element(WeightedSeq((1.0,), (1.0,), (1.0,)))


class TestPhiNorm:
    def test_min_u_one_is_four(self):
        # ∫_0^1 u^{1/2} du/u + ∫_1^∞ u^{-1/2} du/u = 2 + 2
        oracle = (simpson_log(lambda x: np.exp(0.5 * x), -80.0, 0.0)
                  + simpson_log(lambda x: np.exp(-0.5 * x), 0.0, 80.0))
        assert oracle == pytest.approx(4.0, rel=1e-8)
        got = phi_norm(P12, lambda u: np.minimum(u, 1.0))
        assert got == pytest.approx(4.0, rel=1e-9)

    def test_sup_norm_example(self):
        p = PhiParam(0.5, math.inf, Constant(1.0))
        got = phi_norm(p, lambda u: np.minimum(u, 4.0))
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_divergent_is_inf(self):
        p = PhiParam(0.0, 1.0, Constant(1.0))
        assert phi_norm(p, lambda u: np.minimum(u, 1.0)) == math.inf

    def test_support_restriction(self):
        got = phi_norm(P12, lambda u: np.minimum(u, 1.0), support=(0.0, 1.0))
        assert got == pytest.approx(2.0, rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.sampled_from([0.5, 1.0, 2.0]),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_positive_homogeneity(self, theta, q, lam):
        p = PhiParam(theta, q, Constant(1.0))
        base = phi_norm(p, lambda u: np.minimum(u, 2.0))
        scaled = phi_norm(p, lambda u: lam * np.minimum(u, 2.0))
        assert scaled == pytest.approx(lam * base, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_g(self, theta, a, b):
        p = PhiParam(theta, 1.0, Constant(1.0))
        lo, hi = min(a, b), max(a, b)
        n_lo = phi_norm(p, lambda u: np.minimum(u, lo))
        n_hi = phi_norm(p, lambda u: np.minimum(u, hi))
        assert n_lo <= n_hi * (1.0 + 1e-12)


    def test_root_overflow_is_a_range_error(self):
        # ||min(1, t)||^q is finite, its 4th power leaves double range
        p = PhiParam(0.5, 0.25, Constant(1e306))
        with pytest.raises(RangeError, match=r"phi: ‖·‖\^\(1/q\) left double"):
            phi_norm(p, lambda t: np.minimum(1.0, t))


class TestNormMin:
    # ||min(u, t)|| = t^{1-theta} M(ln t), min(1, u) a member
    def test_closed_half(self):
        assert min_factors(P12, 0.0) == pytest.approx(4.0)

    def test_closed_quarter_scaling(self):
        # (16/3) t^{3/4}
        ts = np.array([1e-3, 1.0, 7.0, 1e3])
        assert ts ** 0.75 * min_factors(P14, np.log(ts)) == pytest.approx(
            (16.0 / 3.0) * ts ** 0.75, rel=1e-12)

    def test_endpoint_representative(self):
        p = PhiParam(0.0, 1.0, BL22)
        require_membership(p)
        assert min_factors(p, 0.0) == pytest.approx(1.0, rel=1e-9)
        p1 = PhiParam(1.0, 1.0, BL22)
        require_membership(p1)
        assert min_factors(p1, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_membership_gate(self):
        p = PhiParam(0.0, 1.0, Constant(1.0))
        with pytest.raises(MembershipError):
            require_membership(p)

    @pytest.mark.parametrize("name", ["phi0", "phi1"])
    def test_membership_error_names_the_parameter(self, name):
        p = phi_from_json({"theta": 1, "q": 1, "b": {"kind": "Constant",
                                                     "c": 1}}, name)
        with pytest.raises(MembershipError,
                           match=rf"^{name}: min\(1, t\) has infinite norm"):
            require_membership(p)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_closed_vs_quadrature(self, theta, q):
        p = PhiParam(theta, q, Constant(1.0))
        ts = np.array([1e-4, 1e-1, 1.0, 1e2, 1e4])
        closed = ts ** (1.0 - theta) * min_factors(p, np.log(ts))
        # ||min(u,t)||^q = ||u χ_(0,t)||^q + t^q ||χ_(t,∞)||^q
        quad = (norm_head_u(p, ts) ** q
                + ts ** q * norm_tail_char(p, ts) ** q) ** (1.0 / q)
        assert np.all(np.abs(quad / closed - 1.0) <= 1e-6)

    def test_sup_norm_closed(self):
        p = PhiParam(0.5, math.inf, Constant(1.0))
        assert 4.0 ** 0.5 * min_factors(p, math.log(4.0)) == pytest.approx(
            2.0, rel=1e-9)

    @pytest.mark.parametrize("b", [BrokenLog(1.0, 2.0), BrokenLog(-1.0, 0.5)])
    def test_asymptotic_form_bracket(self, b):
        # ||min(u,t)|| stays within a fixed bracket of t^{1-theta} b(t)
        p = PhiParam(0.25, 1.0, b)
        grid = LogGrid(1e-6, 1e6, 4)
        ts, xs = grid.points(), grid.log_points()
        ratios = (ts ** 0.75 * min_factors(p, grid)
                  / (ts ** 0.75 * b.eval_log(xs)))
        assert 0.0 < min(ratios) and max(ratios) < math.inf
        assert max(ratios) / min(ratios) < 50.0


class TestHeadTail:
    def test_tail_char_closed(self):
        # ∫_t^∞ u^{-1/4} du/u = 4 t^{-1/4}
        for t in (0.1, 1.0, 10.0):
            assert norm_tail_char(P14, t) == pytest.approx(4.0 * t ** -0.25,
                                                           rel=1e-10)

    def test_head_u_closed(self):
        # ∫_0^t u^{3/4} du/u = (4/3) t^{3/4}
        for t in (0.1, 1.0, 10.0):
            assert norm_head_u(P14, t) == pytest.approx((4.0 / 3.0) * t ** 0.75,
                                                        rel=1e-10)

    def test_three_term_splitting_bracket(self):
        # head + t*tail against the min-norm: equality at q=1, fixed bracket at q=2
        ts = np.array([0.01, 1.0, 100.0])
        s = norm_head_u(P14, ts) + ts * norm_tail_char(P14, ts)
        assert s == pytest.approx(ts ** 0.75 * min_factors(P14, np.log(ts)),
                                  rel=1e-9)
        p2 = PhiParam(0.5, 2.0, Constant(1.0))
        s = norm_head_u(p2, ts) + ts * norm_tail_char(p2, ts)
        ratio = s / (ts ** 0.5 * min_factors(p2, np.log(ts)))
        assert np.all((1.0 - 1e-9 <= ratio) & (ratio <= math.sqrt(2.0) + 1e-9))


def _sup_brokenlog(b, lo, hi):
    """sup of (1 + |w|)^{a0 or aInf} over (lo, hi): +inf where a side with
    an infinite bound grows, else the largest of its values at the finite
    bounds and at the kink w = 0 (it is monotone on each side of 0)."""
    if (lo == -math.inf and b.a0 > 0.0) or (hi == math.inf and b.a_inf > 0.0):
        return math.inf
    at = [w for w in (lo, hi) if math.isfinite(w)] + ([0.0] if lo < 0.0 < hi
                                                       else [])
    return max(float(b.eval_log(w)) for w in at)


class TestSupFactorsFarOut:
    """H and T at q = inf and rate 0 (theta = 1 and theta = 0), at
    |x| = 1e12, against their closed forms."""

    @pytest.mark.parametrize("factor, theta, b, x", [
        ("tail", 0.0, BrokenLog(1.0, 2.0), -1e12),
        ("tail", 0.0, BrokenLog(-1.0, 0.0), -1e12),
        ("head", 1.0, BrokenLog(-0.5, -1.0), 1e12),
        ("tail", 0.0, BrokenLog(-1.0, -0.5), 1e12),
        ("head", 1.0, BrokenLog(2.0, -0.5), -1e12),
    ])
    def test_brokenlog(self, factor, theta, b, x):
        p = PhiParam(theta, math.inf, b)
        if factor == "head":
            got, want = head_factor(p, x), _sup_brokenlog(b, -math.inf, x)
        else:
            got, want = tail_factor(p, x), _sup_brokenlog(b, x, math.inf)
        assert got == pytest.approx(want, rel=1e-14)

    def test_product(self):
        # (1 + |w|)^-1 e^{-|w|^0.2} for w <= 0 and (1 + w)^0.5 e^{-w^0.2}
        # for w > 0 are at most 1, the value at w = 0
        b = Product(BrokenLog(-1.0, 0.5), ExpLogPow(0.2, -1))
        assert head_factor(PhiParam(1.0, math.inf, b), 1e12) == 1.0


class TestMembership:
    def test_examples(self):
        assert membership_min1(PhiParam(0.5, 2.0, Constant(1.0)))
        assert not membership_min1(PhiParam(0.0, 1.0, Constant(1.0)))
        assert membership_min1(PhiParam(0.0, 1.0, BL22))
        assert not membership_min1(PhiParam(1.0, 1.0, Constant(1.0)))

    @pytest.mark.parametrize("b, member", [
        (BrokenLog(3.0, 0.0), True),
        (Constant(2.0), True),
        (BrokenLog(3.0, 0.01), False),
        (ExpLogPow(0.3, 1), False),
    ])
    def test_sup_norm_at_theta_zero(self, b, member):
        # at theta = 0, q = inf, min(1, t) is a member iff b is bounded at
        # infinity; b grows like (ln t)^0.01 or exp((ln t)^0.3) in the last two
        assert membership_min1(PhiParam(0.0, math.inf, b)) is member


class TestTruncProfile:
    def test_head_example(self):
        got = norm_trunc_profile(P14, K_UNIT, "head", 1.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_tail_example(self):
        got = norm_trunc_profile(P34, K_UNIT, "tail", 1.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_zero_profile(self):
        z = KProfile.from_element(WeightedSeq((0.0,), (1.0,), (1.0,)))
        assert norm_trunc_profile(P14, z, "head", 1.0) == 0.0
        assert norm_trunc_profile(P14, z, "tail", 1.0) == 0.0
        assert full_norm_profile(P14, z) == 0.0

    def test_zero_row_under_an_infinite_weight_is_zero(self):
        # b(u) = exp(|ln u|^0.9) overflows to +inf far out, where the zero
        # row's K is 0: the integrand is 0 there, not 0 * inf = NaN
        p = PhiParam(0.3, 1.0, ExpLogPow(0.9, 1))
        rows = KProfile([1.0, 2.0], [[0.0, 0.0], [1.0, 1.0]])
        assert full_norm_profiles(p, rows)[0] == 0.0

    def test_lattice_monotonicity(self):
        ts = LogGrid(1e-3, 1e3, 4).points()
        heads = [norm_trunc_profile(P14, K_UNIT, "head", float(t)) for t in ts]
        tails = [norm_trunc_profile(P34, K_UNIT, "tail", float(t)) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(heads, heads[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_step_element_profile(self):
        from kinterp import StepFn
        prof = KProfile.from_element(StepFn((0.0, 1.0, 2.0), (3.0, 1.0)))
        # ∫_0^1 u^{-1/4} (3u) du/u = 3 * 4/3 = 4
        assert norm_trunc_profile(P14, prof, "head", 1.0) == pytest.approx(4.0, rel=1e-9)

    def test_synthetic_close_to_exact(self):
        ts = LogGrid(1e-6, 1e6, 32).points()
        prof = KProfile.from_samples([(float(t), min(1.0, float(t))) for t in ts])
        exact = norm_trunc_profile(P14, K_UNIT, "head", 1.0)
        approx = norm_trunc_profile(P14, prof, "head", 1.0)
        assert approx == pytest.approx(exact, rel=5e-3)

    def test_sup_norm_side(self):
        p = PhiParam(0.5, math.inf, Constant(1.0))
        # sup_{u<=1} u^{-1/2} min(1,u) = 1 at u = 1
        assert norm_trunc_profile(p, K_UNIT, "head", 1.0) == pytest.approx(1.0, rel=1e-9)


class TestJson:
    def test_roundtrip(self):
        p = phi_from_json({"theta": 0.25, "q": 2,
                           "b": {"kind": "BrokenLog", "a0": 1, "aInf": -1}})
        assert p == PhiParam(0.25, 2.0, BrokenLog(1.0, -1.0))

    def test_inf_encoding(self):
        p = phi_from_json({"theta": 0.5, "q": "inf",
                           "b": {"kind": "Constant", "c": 1}})
        assert p.sup_norm

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiParam(1.5, 1.0, Constant(1.0))
        with pytest.raises(ValueError):
            PhiParam(0.5, 0.0, Constant(1.0))
        with pytest.raises(ValueError):
            phi_from_json({"theta": 0.5})
