import math
import warnings

import numpy as np
import pytest

from kinterp import (BrokenLog, Constant, DivergentIntegralError, LogGrid,
                     MembershipError, PhiParam, PrimitiveB, PrimitiveBTilde,
                     Scenario, WeightedSeq, check_C1, check_C2, check_C3,
                     check_C4, check_sv_sufficient)
from kinterp.conditions import rho_table
from kinterp.runner import bundled_scenario

P14 = PhiParam(0.25, 1.0, Constant(1.0))
P34 = PhiParam(0.75, 1.0, Constant(1.0))
BL22 = BrokenLog(-2.0, -2.0)
BL44 = BrokenLog(-4.0, -4.0)
GRID = LogGrid(1e-4, 1e4, 8)
GRID_W = LogGrid(1e-8, 1e8, 8)


class TestRho:
    def test_classical_pair_is_sqrt(self):
        assert rho_table(P14, P34, GRID) == pytest.approx(
            np.sqrt(GRID.points()), rel=1e-12)

    def test_equal_params_give_one(self):
        p = PhiParam(0.4, 2.0, BrokenLog(1.0, -0.5))
        assert rho_table(p, p, LogGrid(1e-3, 1e3, 1)) == pytest.approx(
            1.0, rel=1e-12)

    def test_endpoint_pair_matches_primitives(self):
        p0 = PhiParam(0.0, 1.0, BL22)
        p1 = PhiParam(1.0, 1.0, BL22)
        grid = LogGrid(0.1, 10.0, 1)
        xs = grid.log_points()
        expected = (grid.points() * PrimitiveBTilde(BL22).eval_log(xs)
                    / PrimitiveB(BL22).eval_log(xs))
        assert rho_table(p0, p1, grid) == pytest.approx(expected, rel=1e-9)

    def test_membership_gate(self):
        sc = Scenario("gate", PhiParam(0.0, 1.0, Constant(1.0)), P34,
                      WeightedSeq((1.0,), (1.0,), (1.0,)), GRID)
        with pytest.raises(MembershipError):
            sc.rho


class TestC1:
    def test_canonical_passes_with_constant_ratio(self):
        lo, up = check_C1(P14, P34, None, GRID)
        assert lo.passed and up.passed
        assert np.allclose(lo.ratio, 0.75, rtol=1e-9)
        assert np.allclose(up.ratio, 0.75, rtol=1e-9)

    def test_inflated_weight_fails_upper_at_large_t(self):
        # the weight sqrt(t) t^0.5 = t as a table
        lo, up = check_C1(P14, P34, GRID_W.points(), GRID_W)
        assert not up.passed
        assert up.sup_ratio > up.budget

    def test_identical_parameters(self):
        p = PhiParam(0.5, 1.0, Constant(1.0))
        lo, up = check_C1(p, p, np.ones(GRID.points().size), GRID)
        assert lo.passed and up.passed
        assert lo.sup_ratio <= 1.0 + 1e-9
        assert up.sup_ratio <= 1.0 + 1e-9

    def test_rho_as_table(self):
        table = np.sqrt(GRID.points())
        lo, up = check_C1(P14, P34, table, GRID)
        assert lo.passed and up.passed

    @pytest.mark.parametrize("p0,p1", [
        (PhiParam(0.1, 0.5, BrokenLog(2.0, -1.0)),
         PhiParam(0.9, 2.0, BrokenLog(-0.5, 1.5))),
        (PhiParam(0.0, 1.0, BL22), PhiParam(1.0, 1.0, BL22)),
        (PhiParam(0.0, 1.0, BL22), PhiParam(0.0, 1.0, BL44)),
        (PhiParam(0.5, math.inf, Constant(2.0)),
         PhiParam(0.5, 1.0, BrokenLog(1.0, 1.0))),
    ])
    def test_canonical_weight_always_satisfies_C1(self, p0, p1):
        # the canonical weight makes C1 hold automatically whenever both
        # memberships do, with constants controlled by the three-term split
        lo, up = check_C1(p0, p1, None, LogGrid(1e-3, 1e3, 4))
        assert lo.passed and up.passed


class TestC2:
    def test_classical_constant_three_eighths(self):
        rep = check_C2(P14, P34, None, GRID)
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(3.0 / 8.0, abs=1e-4)
        assert np.allclose(rep.ratio, 3.0 / 8.0, rtol=1e-6)
        assert rep.meta["refine_ok"]

    def test_equal_parameters_diverge(self):
        p = PhiParam(0.5, 1.0, Constant(1.0))
        rep = check_C2(p, p, None, GRID)
        assert not rep.passed
        assert rep.sup_ratio == math.inf

    def test_endpoint_middle_case_passes(self):
        p0 = PhiParam(0.0, 1.0, BL22)
        p1 = PhiParam(1.0, 1.0, BL22)
        rep = check_C2(p0, p1, None, LogGrid(1e-3, 1e3, 8))
        assert rep.passed
        assert math.isfinite(rep.sup_ratio)


class TestC3:
    def test_classical_mirror_constant(self):
        rep = check_C3(P14, P34, None, GRID)
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(3.0 / 8.0, abs=1e-4)

    def test_swapped_parameters_fail(self):
        rep = check_C3(P34, P14, None, GRID)
        assert not rep.passed

    def test_mirror_symmetry_with_C2(self):
        # reflecting t -> 1/t swaps the roles: C3 for (p0, p1) matches C2 for
        # the reflected pair (theta -> 1-theta, weight log-exponents swapped)
        # evaluated at 1/t
        b0, b1 = BrokenLog(1.0, -1.0), BrokenLog(0.5, 0.0)
        p0 = PhiParam(0.25, 1.0, b0)
        p1 = PhiParam(0.75, 2.0, b1)
        r0 = PhiParam(0.75, 1.0, BrokenLog(-1.0, 1.0))
        r1 = PhiParam(0.25, 2.0, BrokenLog(0.0, 0.5))
        c3 = check_C3(p0, p1, None, GRID)
        c2 = check_C2(r1, r0, None, GRID)
        assert np.allclose(c3.ratio, c2.ratio[::-1], rtol=1e-6)


class TestSupNormOuter:
    def test_C2_with_sup_outer(self):
        # sup_{u<t} u^{1/2}/(16/3) = (3/16) t^{1/2} equals the canonical
        # weight exactly, so the ratio is identically one
        p0 = PhiParam(0.25, math.inf, Constant(1.0))
        rep = check_C2(p0, P34, None, LogGrid(1e-2, 1e2, 4))
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(1.0, rel=1e-9)

    def test_C2_interior_maximum_is_finite(self):
        # the outer supremum lies between samples; a search whose samples
        # moved with its window read it as growth, +inf at t = 2
        rep = check_C2(PhiParam(0.3, math.inf, BrokenLog(1.0, -0.5)),
                       PhiParam(0.7, 2.0, BrokenLog(-0.5, 0.5)),
                       grid=LogGrid(0.5, 2.0, 1))
        assert np.all(np.isfinite(rep.lhs))
        assert rep.meta["refine_ok"]

    def test_C2_sup_outer_is_nondecreasing(self):
        # a supremum over (0, t) grows with t; a windowed search read +inf
        # at four points of this grid, where the maximum is interior
        rep = check_C2(PhiParam(0.25, math.inf, BrokenLog(1.0, -0.5)),
                       PhiParam(0.75, 2.0, Constant(1.0)),
                       grid=LogGrid(1e-2, 1e2, 4))
        assert np.all(np.isfinite(rep.lhs))
        assert np.all(np.diff(rep.lhs) >= 0.0)

    def test_C3_with_sup_outer(self):
        p1 = PhiParam(0.75, math.inf, Constant(1.0))
        rep = check_C3(P14, p1, None, LogGrid(1e-2, 1e2, 4))
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(1.0, rel=1e-9)


class TestC4:
    def test_classical_three_halves(self):
        rep = check_C4(P14, P34, None, GRID)
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(1.5, abs=1e-4)

    def test_flat_pair_passes(self):
        p0 = PhiParam(0.0, 1.0, BL22)
        p1 = PhiParam(0.0, 1.0, BL44)
        rep = check_C4(p0, p1, None, LogGrid(1e-3, 1e3, 8))
        assert rep.passed
        assert rep.sup_ratio <= 1.0 + 1e-9

    def test_membership_gate(self):
        with pytest.raises(MembershipError):
            check_C4(PhiParam(0.0, 1.0, Constant(1.0)), P34, None, GRID)

    def test_classical_on_the_widest_grid(self):
        # t rho(t) ||χ_(t,∞)||_1 is formed without t^{1 + theta1 - theta0},
        # which leaves double range on this grid
        sc = bundled_scenario("classical-1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_C4(sc.phi0, sc.phi1, None, LogGrid(1e-300, 1e300, 1))
        assert rep.ratio.size == 601
        np.testing.assert_allclose(rep.ratio, 1.5, rtol=1e-12)


class TestSvSufficient:
    def test_slow_over_fast_decay_passes(self):
        rep = check_sv_sufficient(BL22, 1.0, BL44, 1.0, 0.1, GRID_W)
        assert rep.passed
        assert rep.sup_ratio < 2.0

    def test_transposed_orientation_degrades_with_grid(self):
        # with the faster-decaying weight first the ratio function decreases
        # like a negative log power, so the envelope deviation grows with the
        # grid and crosses any fixed budget
        narrow = check_sv_sufficient(BL44, 1.0, BL22, 1.0, 0.1,
                                     LogGrid(1e-3, 1e3, 8))
        wide = check_sv_sufficient(BL44, 1.0, BL22, 1.0, 0.1, GRID_W)
        assert wide.sup_ratio > 2.0 * narrow.sup_ratio
        assert not wide.passed

    def test_identical_ratio_constant(self):
        # b0^q0 == b1^q1 and q0(1+eps) == q1 make the scanned function
        # constant, so the envelope ratio is identically one
        from kinterp import Power
        rep = check_sv_sufficient(Power(BL22, 1.1), 1.0, BL22, 1.1, 0.1, GRID)
        assert np.allclose(rep.ratio, 1.0, rtol=1e-9)

    def test_divergent_btilde_raises(self):
        with pytest.raises(DivergentIntegralError):
            check_sv_sufficient(Constant(1.0), 1.0, BL22, 1.0, 0.1, GRID)

    def test_requires_finite_q(self):
        with pytest.raises(ValueError):
            check_sv_sufficient(BL22, math.inf, BL22, 1.0, 0.1, GRID)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        # at eps = inf the exponent 1/(q0(1+eps)) is 0, so B~0^0 = 1 made
        # every ratio 1 and the check pass
        with pytest.raises(ValueError, match="eps"):
            check_sv_sufficient(BL22, 1.0, BL44, 1.0, eps, GRID_W)


class TestReportSurface:
    def test_csv_columns(self):
        rep = check_C4(P14, P34, None, LogGrid(0.1, 10.0, 2))
        text = rep.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,lhs,rhs,ratio"
        assert len(lines) == len(rep.t) + 1
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(float(first[1]) / float(first[2]))

    def test_summary_shape(self):
        rep = check_C4(P14, P34, None, LogGrid(0.1, 10.0, 2))
        s = rep.summary()
        assert s["condition"] == "C4"
        assert s["verdict"] == "pass"
        assert set(s["grid"]) == {"t_min", "t_max", "points_per_decade"}
