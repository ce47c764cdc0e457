import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import (BrokenLog, Constant, DivergentIntegralError, ExpLogPow,
                     LogGrid, Power, PrimitiveB, PrimitiveBTilde, Product,
                     RangeError, check_sv_envelope, eval_sv, integral_B,
                     integral_BTilde, power_integral_lower,
                     power_integral_upper, sv_from_json, sv_to_json)
from kinterp.sv import eval_sv_log

from helpers import simpson_log

BL22 = BrokenLog(-2.0, -2.0)
GRID = LogGrid(1e-6, 1e6, 8)


class TestEval:
    def test_broken_log_at_one(self):
        assert eval_sv(BrokenLog(1.0, 2.0), 1.0) == 1.0

    def test_broken_log_above_one(self):
        # (1 + ln e)^2 = 4
        assert eval_sv(BrokenLog(1.0, 2.0), math.e) == pytest.approx(4.0)

    def test_broken_log_below_one(self):
        # (1 - ln e^{-1})^1 = 2
        assert eval_sv(BrokenLog(1.0, 2.0), 1.0 / math.e) == pytest.approx(2.0)

    def test_broken_log_continuity_at_one(self):
        b = BrokenLog(3.0, -5.0)
        for delta in (1e-3, 1e-6, 1e-9):
            assert eval_sv(b, 1.0 + delta) == pytest.approx(1.0, abs=1e-2)
            assert eval_sv(b, 1.0 - delta) == pytest.approx(1.0, abs=1e-2)
        assert abs(eval_sv(b, 1.0 + 1e-9) - 1.0) < abs(eval_sv(b, 1.1) - 1.0)

    def test_exp_log_pow_at_one(self):
        assert eval_sv(ExpLogPow(0.5, 1), 1.0) == 1.0

    def test_exp_log_pow_values(self):
        assert eval_sv(ExpLogPow(0.5, 1), math.exp(4.0)) == pytest.approx(math.exp(2.0))
        assert eval_sv(ExpLogPow(0.5, -1), math.exp(4.0)) == pytest.approx(math.exp(-2.0))

    def test_range_error_on_overflow(self):
        b = Power(BrokenLog(400.0, 400.0), 4.0)
        with pytest.raises(RangeError):
            eval_sv(b, 1e300)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            eval_sv(BL22, 0.0)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_product_is_pointwise_product(self, a0, a1, t):
        b1 = BrokenLog(a0, a1)
        b2 = ExpLogPow(0.5, -1)
        assert eval_sv(Product(b1, b2), t) == eval_sv(b1, t) * eval_sv(b2, t)

    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_power_is_pointwise_power(self, r, a, t):
        b = BrokenLog(a, -a)
        assert eval_sv(Power(b, r), t) == eval_sv(b, t) ** r

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            ExpLogPow(1.0, 1)
        with pytest.raises(ValueError):
            ExpLogPow(0.5, 2)


class TestPrimitives:
    def test_integral_B_closed_form(self):
        # substitute w = 1 - ln s: ∫_0^t (1-ln s)^{-2} ds/s = 1/(1 - ln t), t <= 1
        oracle = simpson_log(lambda x: (1.0 - x) ** -2.0, -60.0, 0.0)
        assert oracle == pytest.approx(1.0, abs=2e-2)  # window-truncated
        assert integral_B(BL22, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert integral_B(BL22, math.exp(-1.0)) == pytest.approx(0.5, rel=1e-9)

    def test_integral_B_vanishes_at_zero(self):
        vals = [integral_B(BL22, t) for t in (1e-2, 1e-6, 1e-12, 1e-24)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_integral_BTilde_closed_form(self):
        # mirror under s -> 1/s: ∫_t^∞ (1+ln s)^{-2} ds/s = 1/(1 + ln t), t >= 1
        assert integral_BTilde(BL22, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert integral_BTilde(BL22, math.e) == pytest.approx(0.5, rel=1e-9)

    def test_b_below_BTilde(self):
        ts = GRID.points()
        ratios = [integral_BTilde(BL22, t) / eval_sv(BL22, t) for t in ts]
        assert min(ratios) >= 1.0 - 1e-9

    def test_b_below_B(self):
        ts = GRID.points()
        ratios = [integral_B(BL22, t) / eval_sv(BL22, t) for t in ts]
        assert min(ratios) >= 1.0 - 1e-9

    def test_divergent_construction_rejected(self):
        with pytest.raises(DivergentIntegralError):
            PrimitiveB(Constant(1.0))
        with pytest.raises(DivergentIntegralError):
            PrimitiveBTilde(BrokenLog(-2.0, 0.0))

    def test_primitive_descriptors_evaluate(self):
        pb = PrimitiveB(BL22)
        pbt = PrimitiveBTilde(BL22)
        assert eval_sv(pb, math.exp(-1.0)) == pytest.approx(0.5, rel=1e-9)
        assert eval_sv(pbt, math.e) == pytest.approx(0.5, rel=1e-9)
        # primitives compose: B is itself slowly varying
        prod = Product(pb, BL22)
        assert eval_sv(prod, 1.0) == pytest.approx(eval_sv(pb, 1.0), rel=1e-12)


class TestPowerIntegrals:
    def test_lower_constant_exact(self):
        # ∫_0^5 ds = 5, ratio to t^alpha b(t) exactly 1
        assert power_integral_lower(Constant(1.0), 1.0, 5.0) == pytest.approx(5.0, rel=1e-12)

    def test_lower_log_weight(self):
        # ∫_0^1 (1 - ln s) ds = [2s - s ln s] = 2
        oracle = simpson_log(lambda x: np.exp(x) * (1.0 - x), -40.0, 0.0)
        assert oracle == pytest.approx(2.0, rel=1e-8)
        assert power_integral_lower(BrokenLog(1.0, 1.0), 1.0, 1.0) == pytest.approx(2.0, rel=1e-10)

    def test_upper_constant_exact(self):
        # ∫_2^∞ s^{-2} ds = 1/2
        assert power_integral_upper(Constant(1.0), 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_upper_log_weight(self):
        # ∫_1^∞ s^{-2}(1 + ln s) ds = 2
        oracle = simpson_log(lambda x: np.exp(-x) * (1.0 + x), 0.0, 60.0)
        assert oracle == pytest.approx(2.0, rel=1e-8)
        assert power_integral_upper(BrokenLog(1.0, 1.0), 1.0, 1.0) == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("b,alpha", [
        (BrokenLog(3.0, 3.0), 0.5),
        (BrokenLog(2.0, 2.0), 0.25),
        (ExpLogPow(0.5, 1), 1.0),
    ])
    def test_bounded_brackets(self, b, alpha):
        ts = GRID.points()
        lower = np.array([power_integral_lower(b, alpha, t) for t in ts])
        upper = np.array([power_integral_upper(b, alpha, t) for t in ts])
        ref = np.array([t ** alpha * eval_sv(b, t) for t in ts])
        ref_u = np.array([t ** -alpha * eval_sv(b, t) for t in ts])
        for vals, r in ((lower, ref), (upper, ref_u)):
            ratio = vals / r
            assert np.all(np.isfinite(ratio))
            assert ratio.min() > 0.0


class TestEnvelope:
    def test_constant_identity(self):
        rep = check_sv_envelope(Constant(1.0), 1.0, GRID)
        assert np.allclose(rep.up_ratio, 1.0)
        assert np.allclose(rep.down_ratio, 1.0)
        assert rep.passed

    def test_broken_log_bracket_finite(self):
        rep = check_sv_envelope(BrokenLog(5.0, -5.0), 0.1, LogGrid(1e-8, 1e8, 8))
        assert 0.0 < rep.inf_up <= 1.0
        assert 1.0 <= rep.sup_down < math.inf

    def test_positive_power_fails_down_side(self):
        # t^{0.2} is not slowly varying: t^{-0.1} t^{0.2} grows across the
        # whole grid, so the nonincreasing envelope deviates without bound
        grid = LogGrid(1e-12, 1e12, 8)
        samples = grid.points() ** 0.2
        rep = check_sv_envelope(samples, 0.1, grid)
        assert not rep.pass_down
        assert rep.sup_down == pytest.approx((1e24) ** 0.1, rel=1e-6)
        # direct monotonicity scan confirms: raw values strictly increase
        down = grid.points() ** -0.1 * samples
        assert np.all(np.diff(down) > 0)

    def test_callable_input(self):
        rep = check_sv_envelope(lambda t: np.log(math.e + t), 0.5,
                                LogGrid(1e-4, 1e4, 8))
        assert rep.passed
        assert rep.inf_up == pytest.approx(1.0)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            check_sv_envelope(Constant(1.0), 0.0, GRID)


class TestJson:
    @pytest.mark.parametrize("sign", [-1.7, 1.9, -0.5, 2, True])
    def test_explogpow_sign_must_be_unit(self, sign):
        obj = {"kind": "ExpLogPow", "alpha": 0.3, "sign": sign}
        with pytest.raises(ValueError, match=r"phi0\.b\.sign"):
            sv_from_json(obj, "phi0.b")

    def test_explogpow_sign_loads(self):
        for sign in (-1, -1.0, 1, 1.0):
            b = sv_from_json({"kind": "ExpLogPow", "alpha": 0.3,
                              "sign": sign})
            assert b == ExpLogPow(0.3, int(sign))
        assert sv_from_json({"kind": "ExpLogPow", "alpha": 0.3}).sign == 1

    def test_roundtrip(self):
        b = Product(Power(BrokenLog(1.0, 2.0), 0.5),
                    PrimitiveBTilde(BrokenLog(-2.0, -2.0)))
        blob = json.dumps(sv_to_json(b))
        back = sv_from_json(json.loads(blob))
        xs = np.array([-4.0, -0.3, 0.0, 1.7, 9.0])
        assert np.allclose(eval_sv_log(back, xs), eval_sv_log(b, xs))

    def test_spec_shapes(self):
        assert sv_to_json(BrokenLog(1.0, 2.0)) == {"kind": "BrokenLog",
                                                   "a0": 1.0, "aInf": 2.0}
        b = sv_from_json({"kind": "Product",
                          "left": {"kind": "Constant", "c": 2},
                          "right": {"kind": "BrokenLog", "a0": 0, "aInf": 1}})
        assert eval_sv(b, math.e) == pytest.approx(4.0)

    def test_error_paths(self):
        with pytest.raises(ValueError, match="kind"):
            sv_from_json({"c": 1})
        with pytest.raises(ValueError, match="b.left"):
            sv_from_json({"kind": "Product", "left": {"kind": "Nope"},
                          "right": {"kind": "Constant", "c": 1}})
