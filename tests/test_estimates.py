import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import (BrokenLog, Constant, DecompositionSearch, KProfile,
                     LogGrid, PhiParam, Scenario, StepFn, WeightedSeq,
                     classical_rhs, equivalence_report, norm_head_u,
                     norm_tail_char, norm_trunc_profile)
from kinterp.errors import EmptyCandidateError
from kinterp.estimates import (_fractions, _terms, _variant_sums,
                               full_norm_profile)
from kinterp.runner import bundled_scenario

from helpers import optimal_split

P14 = PhiParam(0.25, 1.0, Constant(1.0))
P34 = PhiParam(0.75, 1.0, Constant(1.0))
E_UNIT = WeightedSeq((1.0,), (1.0,), (1.0,))
K_UNIT = KProfile.from_element(E_UNIT)
GRID = LogGrid(1e-4, 1e4, 8)
#: 0.1, 1 and 10, with t = 1 exact (ln 1 = 0 is a grid point)
GRID_1 = LogGrid(0.1, 10.0, 1)


def rhs(p0, p1, rho_t, profile, grid):
    """Each variant's right-hand side on the grid, as a report builds it."""
    return _variant_sums(*_terms(p0, p1, rho_t, profile, grid))


class TestRhsValues:
    # rhs(...)[variant][1] is the value at t = 1 of GRID_1
    def test_two_term_at_one(self):
        # 4/3 + 1 * 4/3
        got = rhs(P14, P34, 1.0, K_UNIT, GRID_1)["thm_ii"][1]
        assert got == pytest.approx(8.0 / 3.0, rel=1e-9)

    def test_three_term_at_one(self):
        # + ||χ_(1,∞)||_0 K(1) = + 4
        got = rhs(P14, P34, 1.0, K_UNIT, GRID_1)["thm_i"][1]
        assert got == pytest.approx(20.0 / 3.0, rel=1e-9)

    def test_four_term_at_one(self):
        # + rho ||u χ_(0,1)||_1 K(1)/1 with ||u χ_(0,1)||_{theta=3/4,q=1} =
        # ∫_0^1 u^{1/4} du/u = 4, so the full sum is 4/3 + 4/3 + 4 + 4
        got = rhs(P14, P34, 1.0, K_UNIT, GRID_1)["lemma"][1]
        assert got == pytest.approx(32.0 / 3.0, rel=1e-9)

    def test_zero_profile(self):
        z = KProfile.from_element(WeightedSeq((0.0,), (1.0,), (1.0,)))
        vals = rhs(P14, P34, 1.0, z, GRID_1)
        assert vals["lemma"][1] == 0.0
        assert vals["thm_ii"][1] == 0.0

    def test_three_term_limit_is_head_norm(self):
        # as t grows the tail terms die and the head term fills to ||K||_0
        grid = LogGrid(1e4, 1e8, 1)
        vals = rhs(P14, P34, np.sqrt(grid.points()), K_UNIT, grid)["thm_i"]
        assert abs(vals[-1] - 16.0 / 3.0) < 0.06
        assert abs(vals[-1] - 16.0 / 3.0) < abs(vals[0] - 16.0 / 3.0)

    def test_scaling_in_profile(self):
        e2 = WeightedSeq((2.5,), (1.0,), (1.0,))
        k2 = KProfile.from_element(e2)
        grid = LogGrid(2.0, 20.0, 1)
        base = rhs(P14, P34, 0.4, K_UNIT, grid)["thm_ii"]
        assert rhs(P14, P34, 0.4, k2, grid)["thm_ii"] == pytest.approx(
            2.5 * base, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=30, deadline=None)
    def test_pointwise_ordering(self, t, rho_t):
        vals = rhs(P14, P34, rho_t, K_UNIT, LogGrid(t, 10.0 * t, 1))
        four, three, two = vals["lemma"], vals["thm_i"], vals["thm_ii"]
        assert np.all((four >= three) & (three >= two))


class TestMonotoneReductions:
    def test_head_profile_dominates_slope_bound(self):
        # ||χ_(0,t) K||_0 >= (K(t)/t) ||u χ_(0,t)||_0 since K(u)/u decreases
        for t in LogGrid(1e-2, 1e2, 4).points():
            t = float(t)
            k_t = min(1.0, t)
            lhs = norm_trunc_profile(P14, K_UNIT, "head", t)
            rhs = (k_t / t) * norm_head_u(P14, t)
            assert lhs >= rhs * (1.0 - 1e-9)

    def test_tail_profile_dominates_value_bound(self):
        # ||χ_(t,∞) K||_1 >= K(t) ||χ_(t,∞)||_1 since K is nondecreasing
        for t in LogGrid(1e-2, 1e2, 4).points():
            t = float(t)
            k_t = min(1.0, t)
            lhs = norm_trunc_profile(P34, K_UNIT, "tail", t)
            rhs = k_t * norm_tail_char(P34, t)
            assert lhs >= rhs * (1.0 - 1e-9)


class TestClassical:
    def test_value_at_one(self):
        got = classical_rhs(0.25, 1.0, 0.75, 1.0, K_UNIT, 1.0)
        assert got == pytest.approx(8.0 / 3.0, rel=1e-9)

    def test_matches_two_term_for_constant_weight(self):
        # same q on both sides: the canonical rho is exactly t^{theta1-theta0}
        for q in (1.0, 2.0):
            pa = PhiParam(0.25, q, Constant(1.0))
            pb = PhiParam(0.75, q, Constant(1.0))
            grid = LogGrid(1e-3, 1e3, 4)
            ts = grid.points()
            a = rhs(pa, pb, np.sqrt(ts), K_UNIT, grid)["thm_ii"]
            b = classical_rhs(0.25, q, 0.75, q, K_UNIT, ts)
            assert a == pytest.approx(b, rel=1e-9)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            classical_rhs(0.0, 1.0, 0.75, 1.0, K_UNIT, 1.0)
        with pytest.raises(ValueError):
            classical_rhs(0.75, 1.0, 0.25, 1.0, K_UNIT, 1.0)


class TestLhs:
    def test_single_coordinate_closed_form(self):
        search = DecompositionSearch(P14, P34, E_UNIT, GRID)
        for sigma in (0.1, 0.9, 1.0, 1.7, 50.0):
            got = search.lhs(sigma)
            assert got == pytest.approx((16.0 / 3.0) * min(1.0, sigma),
                                        rel=1e-6)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
    def test_one_term_is_min_of_trivial_splits(self, q):
        # at n = 1 the cost a N0 + sigma (1 - a) N1 is affine in a
        p0 = PhiParam(0.25, q, BrokenLog(1.0, 2.0))
        p1 = PhiParam(0.75, q, BrokenLog(-1.0, 0.5))
        e = WeightedSeq((2.0,), (1.0,), (3.0,))
        k = KProfile.from_element(e)
        n0, n1 = full_norm_profile(p0, k), full_norm_profile(p1, k)
        cross = n0 / n1
        search = DecompositionSearch(p0, p1, e)
        for sigma in (cross / 3.0, cross * 0.99, cross * 1.01, 3.0 * cross):
            got = search.lhs(sigma)
            assert got == pytest.approx(min(n0, sigma * n1), rel=1e-14)

    def test_one_term_search_is_small(self):
        search = DecompositionSearch(P14, P34, E_UNIT, LogGrid())
        assert len(search.a0) <= 13

    def test_sigma_to_zero(self):
        got = DecompositionSearch(P14, P34, E_UNIT, GRID).lhs(1e-9)
        assert got == pytest.approx((16.0 / 3.0) * 1e-9, rel=1e-9)

    def test_zero_element(self):
        z = WeightedSeq((0.0,), (1.0,), (1.0,))
        assert DecompositionSearch(P14, P34, z, GRID).lhs(1.0) == 0.0

    def test_search_set_monotonicity(self):
        # the search holds every truncation split, so each one's cost
        # bounds its minimum
        e = WeightedSeq((1.0, 1.0), (1.0, 4.0), (1.0, 1.0))
        sigma = 1.3
        got = DecompositionSearch(P14, P34, e, GRID).lhs(sigma)
        for s in (*GRID.points(), 4.0):
            f0, f1 = optimal_split(e, float(s))
            single = (full_norm_profile(P14, KProfile.from_element(f0))
                      + sigma * full_norm_profile(P34,
                                                  KProfile.from_element(f1)))
            assert got <= single * (1.0 + 1e-12)

    def test_trivial_decompositions_bound(self):
        e = WeightedSeq((1.0, 2.0), (1.0, 4.0), (1.0, 1.0))
        k = KProfile.from_element(e)
        n0 = full_norm_profile(P14, k)
        n1 = full_norm_profile(P34, k)
        search = DecompositionSearch(P14, P34, e, GRID)
        for sigma in (0.2, 1.0, 5.0):
            got = search.lhs(sigma)
            assert got <= min(n0, sigma * n1) * (1.0 + 1e-12)

    def test_step_element_supported(self):
        f = StepFn((0.0, 1.0, 2.0), (3.0, 1.0))
        got = DecompositionSearch(P14, P34, f, GRID).lhs(1.0)
        assert 0.0 < got < math.inf

    def test_empty_candidates_error(self):
        search = DecompositionSearch(P14, P34, E_UNIT, GRID)
        search.a0 = np.array([math.inf])
        search.a1 = np.array([math.inf])
        with pytest.raises(EmptyCandidateError):
            search.lhs(1.0)

    def test_lhs_at_every_sigma_is_the_scalar_minimum(self):
        sc = bundled_scenario("broken-log-1")
        search = DecompositionSearch(sc.phi0, sc.phi1, sc.element, sc.grid)
        got = search.lhs(sc.rho)
        want = np.array([search.lhs(float(r)) for r in sc.rho])
        assert got.shape == sc.rho.shape
        assert got.tobytes() == want.tobytes()

    def test_lhs_array_with_an_all_infinite_sigma(self):
        search = DecompositionSearch(P14, P34, E_UNIT, GRID)
        search.a0 = np.array([1.0])
        search.a1 = np.array([1.0])
        assert search.lhs(1.0) == 2.0
        with pytest.raises(EmptyCandidateError):
            search.lhs(np.array([1.0, math.inf]))

    def test_lhs_needs_positive_sigma(self):
        search = DecompositionSearch(P14, P34, E_UNIT, GRID)
        for sigma in (0.0, -1.0, math.nan, np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="sigma must be positive"):
                search.lhs(sigma)

    def test_unknown_element_rejected(self):
        with pytest.raises(TypeError):
            DecompositionSearch(P14, P34, K_UNIT, GRID)


def _random_seq(rng, n):
    return WeightedSeq(tuple(rng.uniform(-3.0, 3.0, n)),
                       tuple(10.0 ** rng.uniform(-3.0, 3.0, n)),
                       tuple(10.0 ** rng.uniform(-3.0, 3.0, n)))


def _split_rows(e, frac):
    """The candidates (|f0|, |f1|) of the rows of ``frac``, as tuples."""
    c = np.abs(np.asarray(e.coeffs))
    return {(tuple(f0), tuple(f1)) for f0, f1 in zip(frac * c,
                                                      (1.0 - frac) * c)}


def _abs_split(f0, f1):
    return (tuple(abs(v) for v in f0.coeffs), tuple(abs(v) for v in f1.coeffs))


class TestFractionMatrix:
    @pytest.mark.parametrize("n, seed", [(1, 1), (2, 2), (3, 3), (3, 4),
                                         (4, 5), (5, 6), (6, 7), (6, 8)])
    def test_split_grid_holds_every_truncation_split(self, n, seed):
        e = _random_seq(np.random.default_rng(seed), n)
        frac = _fractions(e, GRID)
        assert frac.shape == ((9 if n <= 3 else 3) ** n, n)
        assert len(DecompositionSearch(P14, P34, e, GRID).a0) == len(frac)
        rows = _split_rows(e, frac)
        zero = WeightedSeq((0.0,) * n, e.w0, e.w1)
        splits = [optimal_split(e, float(s)) for s in GRID.points()]
        for f0, f1 in splits + [(e, zero), (zero, e)]:
            assert _abs_split(f0, f1) in rows

    def test_large_n_rows_are_the_distinct_masks(self):
        n, sigmas = 7, (1e-3, 0.2, 1.0, 3.0, 1e3)
        e = _random_seq(np.random.default_rng(17), n)
        p0 = PhiParam(0.3, 2.0, BrokenLog(1.0, -0.5))
        p1 = PhiParam(0.7, 0.5, Constant(2.0))
        splits = [optimal_split(e, float(s)) for s in GRID.points()]
        masks = {tuple(c != 0.0 for c in f0.coeffs) for f0, _ in splits}
        frac = _fractions(e, GRID)
        assert frac.shape == (len(masks) + 2, n)
        assert {tuple(r) for r in frac[:-2].astype(bool)} == masks
        assert frac[-2].all() and not frac[-1].any()
        zero = WeightedSeq((0.0,) * n, e.w0, e.w1)
        pairs = {_abs_split(*fs): fs for fs in splits + [(e, zero), (zero, e)]}
        assert set(pairs) == _split_rows(e, frac)
        norms = [(full_norm_profile(p0, KProfile.from_element(f0)),
                  full_norm_profile(p1, KProfile.from_element(f1)))
                 for f0, f1 in pairs.values()]
        search = DecompositionSearch(p0, p1, e, GRID)
        for sigma in sigmas:
            want = min(n0 + sigma * n1 for n0, n1 in norms)
            assert search.lhs(sigma) == pytest.approx(want, rel=1e-14)


def gates_only(name, p0, p1, element, grid, variants):
    """A scenario that names no checks: its report runs only the gates."""
    return Scenario(name, p0, p1, element, grid, checks=(),
                    variants=variants)


class TestEquivalenceReport:
    def test_single_coordinate_ratio_two_at_one(self):
        rep = equivalence_report(gates_only("unit", P14, P34, E_UNIT, GRID,
                                            ("thm_ii",)))
        i = int(np.argmin(np.abs(rep.t - 1.0)))
        assert rep.lhs_upper[i] == pytest.approx(16.0 / 3.0, rel=1e-6)
        assert rep.rhs["thm_ii"][i] == pytest.approx(8.0 / 3.0, rel=1e-6)
        assert rep.ratios["thm_ii"][i] == pytest.approx(2.0, rel=1e-6)
        assert rep.variant_result("thm_ii").verdict == "pass"
        assert rep.ordering_ok

    def test_conditions_gate_marks_not_applicable(self):
        p = PhiParam(0.5, 1.0, Constant(1.0))
        rep = equivalence_report(gates_only(
            "gate", p, p, E_UNIT, LogGrid(1e-2, 1e2, 4), ("thm_ii",)))
        v = rep.variant_result("thm_ii")
        assert v.verdict == "not_applicable"
        assert "C2" in v.reason
        assert rep.conditions["C2"] == "fail"

    def test_synthetic_profile_rhs_only(self):
        prof = KProfile.from_samples(
            [(float(t), min(1.0, float(t))) for t in GRID.points()])
        rep = equivalence_report(gates_only("synthetic", P14, P34, prof,
                                            GRID, ("thm_ii",)))
        assert np.all(np.isnan(rep.lhs_upper))
        assert rep.variant_result("thm_ii").verdict == "not_applicable"
        assert rep.ordering_ok

    def test_csv_columns_pinned(self):
        rep = equivalence_report(gates_only(
            "csv", P14, P34, E_UNIT, LogGrid(0.1, 10.0, 2),
            ("thm_ii", "classical")))
        header = rep.to_csv_text().splitlines()[0]
        assert header == ("t,rho,lhs_upper,rhs_lemma,rhs_i,rhs_ii,"
                          "r_lemma,r_i,r_ii,rhs_classical,r_classical")

    def test_summary_shape(self):
        rep = equivalence_report(gates_only(
            "sum", P14, P34, E_UNIT, LogGrid(0.1, 10.0, 2), ("thm_i",)))
        rows = rep.summary()
        assert rows[0]["variant"] == "thm_i"
        assert set(rows[0]) == {"variant", "sup_ratio", "inf_ratio",
                                "conditions", "verdict"}

    @pytest.mark.parametrize("variants", [("thm_ii", "fancy"), ()])
    def test_unknown_or_no_variant_is_rejected(self, variants):
        with pytest.raises(ValueError, match="variant"):
            equivalence_report(gates_only(
                "bad", P14, P34, E_UNIT, LogGrid(0.1, 10.0, 2), variants))
