import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import (GuardError, KProfile, LogGrid, StepFn, WeightedSeq,
                     k_oracle_bruteforce, k_step_l1_linf, k_weighted_l1,
                     optimal_split, validate_kprofile)
from kinterp.couples import element_from_json, element_to_json

GRID = LogGrid(1e-6, 1e6, 8)


def seqs(max_n=6):
    n = st.integers(min_value=1, max_value=max_n)
    return n.flatmap(lambda k: st.tuples(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=k, max_size=k),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=k, max_size=k),
    )).map(lambda cww: WeightedSeq(*cww))


class TestWeightedK:
    def test_two_coordinate_example(self):
        e = WeightedSeq((1.0, 1.0), (1.0, 4.0), (1.0, 1.0))
        assert k_weighted_l1(e, 2.0) == pytest.approx(3.0)

    def test_positive_homogeneity_example(self):
        e = WeightedSeq((2.0, 2.0), (1.0, 4.0), (1.0, 1.0))
        assert k_weighted_l1(e, 2.0) == pytest.approx(6.0)

    def test_single_term_is_min(self):
        e = WeightedSeq((1.0,), (1.0,), (1.0,))
        for t in GRID.points():
            assert k_weighted_l1(e, float(t)) == pytest.approx(min(1.0, t))

    @given(seqs(), st.floats(min_value=1e-4, max_value=1e4),
           st.floats(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_exact(self, e, t, lam):
        scaled = WeightedSeq(tuple(lam * c for c in e.coeffs), e.w0, e.w1)
        assert k_weighted_l1(scaled, t) == pytest.approx(
            abs(lam) * k_weighted_l1(e, t), rel=1e-12, abs=1e-300)

    @given(seqs(4),
           st.lists(st.floats(min_value=-5, max_value=5), min_size=4,
                    max_size=4),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_quasi_subadditivity(self, e, other, t):
        # same couple (same weights), summed coefficients
        f = WeightedSeq(tuple(other[:e.n]), e.w0, e.w1)
        g = WeightedSeq(tuple(a + b for a, b in zip(e.coeffs, f.coeffs)),
                        e.w0, e.w1)
        bound = k_weighted_l1(e, t) + k_weighted_l1(f, t)
        assert k_weighted_l1(g, t) <= bound * (1.0 + 1e-12) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSeq((), (), ())
        with pytest.raises(ValueError):
            WeightedSeq((1.0,), (0.0,), (1.0,))
        with pytest.raises(ValueError):
            WeightedSeq((1.0, 2.0), (1.0,), (1.0, 1.0))


class TestStepK:
    def test_rearrangement_example(self):
        # f = 3 on [0,1], 1 on [1,2]: f* keeps 3 first, K(1.5) = 3 + 0.5
        f = StepFn((0.0, 1.0, 2.0), (3.0, 1.0))
        assert k_step_l1_linf(f, 1.5) == pytest.approx(3.5)

    def test_saturates_at_l1_norm(self):
        f = StepFn((0.0, 1.0, 2.0), (3.0, 1.0))
        assert k_step_l1_linf(f, 2.0) == pytest.approx(4.0)
        assert k_step_l1_linf(f, 100.0) == pytest.approx(4.0)

    def test_single_piece(self):
        f = StepFn((0.0, 2.5), (4.0,))
        for t in (0.1, 1.0, 2.5, 7.0):
            assert k_step_l1_linf(f, t) == pytest.approx(4.0 * min(t, 2.5))

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0),
                    min_size=1, max_size=6),
           st.floats(min_value=1e-2, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_reorder_invariance(self, values, t):
        # measure-preserving reshuffle of unit-length pieces
        n = len(values)
        breaks = tuple(float(i) for i in range(n + 1))
        f = StepFn(breaks, tuple(values))
        for perm in itertools.islice(itertools.permutations(values), 8):
            g = StepFn(breaks, tuple(perm))
            assert k_step_l1_linf(g, t) == pytest.approx(
                k_step_l1_linf(f, t), rel=1e-12, abs=1e-12)


class TestOracle:
    def test_matches_closed_form_example(self):
        e = WeightedSeq((1.0, 1.0), (1.0, 4.0), (1.0, 1.0))
        assert k_oracle_bruteforce(e, 2.0, 101) == pytest.approx(3.0, rel=1e-14)

    def test_zero_element(self):
        e = WeightedSeq((0.0, 0.0), (1.0, 4.0), (1.0, 1.0))
        assert k_oracle_bruteforce(e, 2.0, 11) == 0.0

    def test_guard(self):
        e = WeightedSeq((1.0,) * 9, (1.0,) * 9, (1.0,) * 9)
        with pytest.raises(GuardError):
            k_oracle_bruteforce(e, 1.0, 11)
        good = WeightedSeq((1.0,) * 8, (1.0,) * 8, (1.0,) * 8)
        assert k_oracle_bruteforce(good, 1.0, 3) == pytest.approx(8.0)

    @given(seqs(), st.floats(min_value=1e-5, max_value=1e5),
           st.integers(min_value=2, max_value=31))
    @settings(max_examples=60, deadline=None)
    def test_oracle_never_below_closed_form(self, e, t, steps):
        brute = k_oracle_bruteforce(e, t, steps)
        exact = k_weighted_l1(e, t)
        assert brute >= exact - 1e-12 * max(exact, 1.0)
        # extreme split points are on every grid, so equality holds
        assert brute == pytest.approx(exact, rel=1e-12, abs=1e-300)


class TestOptimalSplit:
    def test_example(self):
        e = WeightedSeq((1.0, 1.0), (1.0, 4.0), (1.0, 1.0))
        f0, f1 = optimal_split(e, 2.0)
        assert f0.coeffs == (1.0, 0.0)
        assert f1.coeffs == (0.0, 1.0)
        cost = (sum(abs(c) * w for c, w in zip(f0.coeffs, f0.w0))
                + 2.0 * sum(abs(c) * w for c, w in zip(f1.coeffs, f1.w1)))
        assert cost == pytest.approx(k_weighted_l1(e, 2.0))

    def test_limits(self):
        e = WeightedSeq((1.0, -2.0), (1.0, 4.0), (1.0, 1.0))
        f0, f1 = optimal_split(e, 1e12)
        assert f0.coeffs == e.coeffs and f1.coeffs == (0.0, 0.0)
        f0, f1 = optimal_split(e, 1e-12)
        assert f0.coeffs == (0.0, 0.0) and f1.coeffs == e.coeffs

    @given(seqs(), st.sampled_from(range(0, 97, 7)))
    @settings(max_examples=50, deadline=None)
    def test_cost_attains_k(self, e, idx):
        s = float(GRID.points()[idx])
        f0, f1 = optimal_split(e, s)
        cost = (sum(abs(c) * w for c, w in zip(f0.coeffs, f0.w0))
                + s * sum(abs(c) * w for c, w in zip(f1.coeffs, f1.w1)))
        assert cost == pytest.approx(k_weighted_l1(e, s), rel=1e-12, abs=1e-300)


class TestKProfile:
    def test_canonical_min_passes(self):
        p = KProfile.from_samples([(t, min(1.0, t)) for t in GRID.points()])
        assert validate_kprofile(p, GRID).ok

    def test_square_fails_quasi_concavity(self):
        p = KProfile.from_samples([(t, t * t) for t in LogGrid(0.1, 10, 8).points()])
        rep = validate_kprofile(p, LogGrid(0.1, 10, 8))
        assert not rep.ok
        assert any(check == "K/t nonincreasing" for _, check in rep.failures)

    @given(seqs())
    @settings(max_examples=40, deadline=None)
    def test_weighted_closed_form_passes(self, e):
        assert validate_kprofile(KProfile.from_element(e), GRID).ok

    def test_synthetic_extension(self):
        p = KProfile.from_samples([(1.0, 1.0), (10.0, 2.0)])
        # below range: linear in t; above: constant
        assert float(p.value_log(np.array([math.log(0.1)]))[0]) == pytest.approx(0.1)
        assert float(p.value_log(np.array([math.log(100.0)]))[0]) == pytest.approx(2.0)
        assert float(p.slope_log(np.array([-800.0]))[0]) == pytest.approx(1.0)

    def test_step_profile_value(self):
        f = StepFn((0.0, 1.0, 2.0), (3.0, 1.0))
        p = KProfile.from_element(f)
        assert float(p.value_log(np.array([math.log(1.5)]))[0]) == pytest.approx(3.5)
        assert float(p.slope_log(np.array([-900.0]))[0]) == pytest.approx(3.0)

    @pytest.mark.filterwarnings("error")
    def test_every_kind_matches_its_closed_form(self):
        # K and K/t of each kind on both sides of every knot, and their
        # limits at deep x: K -> 0 and K/t -> K'(0+) below, K -> K(inf) and
        # K/t -> 0 above
        rng = np.random.default_rng(20261018)
        deep = np.array([-1e12, -800.0, 800.0, 1e12])
        for i in range(40):
            n = int(rng.integers(1, 13))
            seq = WeightedSeq(rng.uniform(-5.0, 5.0, n),
                              np.exp(rng.uniform(-7.0, 7.0, n)),
                              np.exp(rng.uniform(-7.0, 7.0, n)))
            c = np.abs(np.asarray(seq.coeffs))
            # every other step function has tied and zero values
            values = (rng.choice([0.0, 0.5, 2.0], n) if i % 2
                      else rng.uniform(0.0, 4.0, n))
            step = StepFn(np.cumsum(np.r_[rng.uniform(0.0, 2.0),
                                          np.exp(rng.uniform(-3.0, 3.0, n))]),
                          values)
            lengths, v = step.rearrangement()
            for e, k, slope0, total in (
                    (seq, k_weighted_l1, np.sum(c * seq.w1),
                     np.sum(c * seq.w0)),
                    (step, k_step_l1_linf, v[0], np.sum(v * lengths))):
                p = KProfile.from_element(e)
                xs = (np.array(p.log_kinks())[:, None]
                      + np.array([-1e-9, 0.0, 1e-9])).ravel()
                ts = np.exp(xs)
                want = np.array([k(e, float(t)) for t in ts])
                np.testing.assert_allclose(p.value_log(xs), want,
                                           rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(p.slope_log(xs), want / ts,
                                           rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(p.value_log(deep),
                                           [0.0, 0.0, total, total],
                                           rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(p.slope_log(deep),
                                           [slope0, slope0, 0.0, 0.0],
                                           rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w0, w1", [((1e300, 1.0), (1e-300, 1.0)),
                                        ((1e-300, 1.0), (1e300, 1.0))])
    def test_weight_ratio_beyond_double_range(self, w0, w1):
        # w0/w1 overflows (the first coordinate never saturates at a
        # double t) or underflows (it saturates below every normal t)
        e = WeightedSeq((1.0, 2.0), w0, w1)
        p = KProfile.from_element(e)
        xs = np.log([1e-300, 1e-3, 2.0, 1e100, 1e300])
        ts = np.exp(xs)
        with np.errstate(over="ignore"):
            want = np.array([k_weighted_l1(e, float(t)) for t in ts])
        np.testing.assert_allclose(p.value_log(xs), want, rtol=1e-15)
        np.testing.assert_allclose(p.slope_log(xs), want / ts, rtol=1e-15)

    def test_json_roundtrip(self):
        for e in (WeightedSeq((1.0, -2.0), (1.0, 4.0), (2.0, 1.0)),
                  StepFn((0.0, 1.0, 2.0), (3.0, 1.0)),
                  KProfile.from_samples([(0.5, 0.5), (2.0, 1.0)])):
            back = element_from_json(element_to_json(e))
            assert element_to_json(back) == element_to_json(e)
