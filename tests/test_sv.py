import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import (BrokenLog, Constant, DivergentIntegralError, ExpLogPow,
                     LogGrid, Power, PrimitiveB, PrimitiveBTilde, Product,
                     RangeError, check_sv_envelope, sv_from_json)
from kinterp.sv import eval_sv_log, shift_integral

from helpers import simpson_log

BL22 = BrokenLog(-2.0, -2.0)
GRID = LogGrid(1e-6, 1e6, 8)


def power_integrals(b, alpha, ts):
    """∫_0^t s^alpha b(s) ds/s and ∫_t^∞ s^{-alpha} b(s) ds/s at every t of
    ts, by one batched shift_integral per side; both must converge."""
    xs = np.log(ts)
    lower = shift_integral(b, 1.0, xs, alpha, "head")
    upper = shift_integral(b, 1.0, xs, -alpha, "tail")
    assert not (lower.diverged.any() or upper.diverged.any())
    return ts ** alpha * lower.value, ts ** -alpha * upper.value


class TestEval:
    # b(t) is eval_sv_log(b, ln t)
    def test_broken_log_at_one(self):
        assert eval_sv_log(BrokenLog(1.0, 2.0), 0.0) == 1.0

    def test_broken_log_above_one(self):
        # (1 + ln e)^2 = 4
        assert eval_sv_log(BrokenLog(1.0, 2.0), 1.0) == pytest.approx(4.0)

    def test_broken_log_below_one(self):
        # (1 - ln e^{-1})^1 = 2
        assert eval_sv_log(BrokenLog(1.0, 2.0), -1.0) == pytest.approx(2.0)

    def test_broken_log_continuity_at_one(self):
        b = BrokenLog(3.0, -5.0)
        deltas = np.array([1e-3, 1e-6, 1e-9])
        assert eval_sv_log(b, np.log(1.0 + deltas)) == pytest.approx(
            1.0, abs=1e-2)
        assert eval_sv_log(b, np.log(1.0 - deltas)) == pytest.approx(
            1.0, abs=1e-2)
        near, far = eval_sv_log(b, np.log([1.0 + 1e-9, 1.1]))
        assert abs(near - 1.0) < abs(far - 1.0)

    def test_exp_log_pow_at_one(self):
        assert eval_sv_log(ExpLogPow(0.5, 1), 0.0) == 1.0

    def test_exp_log_pow_values(self):
        assert eval_sv_log(ExpLogPow(0.5, 1), 4.0) == pytest.approx(math.exp(2.0))
        assert eval_sv_log(ExpLogPow(0.5, -1), 4.0) == pytest.approx(math.exp(-2.0))

    def test_range_error_on_overflow(self):
        # b is 1 at t = 1 and overflows to +inf before t = 1e300
        b = Power(BrokenLog(400.0, 400.0), 4.0)
        with pytest.raises(RangeError):
            check_sv_envelope(b, 0.1, LogGrid(1.0, 1e300, 1))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            LogGrid(0.0, 1.0)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_product_is_pointwise_product(self, a0, a1, t):
        b1 = BrokenLog(a0, a1)
        b2 = ExpLogPow(0.5, -1)
        x = math.log(t)
        assert (float(eval_sv_log(Product(b1, b2), x))
                == float(eval_sv_log(b1, x)) * float(eval_sv_log(b2, x)))

    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_power_is_pointwise_power(self, r, a, t):
        b = BrokenLog(a, -a)
        x = math.log(t)
        assert (float(eval_sv_log(Power(b, r), x))
                == float(eval_sv_log(b, x)) ** r)

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
        big_b = PrimitiveB(BL22)
        assert big_b.eval_log(0.0) == pytest.approx(1.0, rel=1e-9)
        assert big_b.eval_log(-1.0) == pytest.approx(0.5, rel=1e-9)

    def test_integral_B_vanishes_at_zero(self):
        vals = PrimitiveB(BL22).eval_log(np.log([1e-2, 1e-6, 1e-12, 1e-24]))
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 0.05

    def test_integral_BTilde_closed_form(self):
        # mirror under s -> 1/s: ∫_t^∞ (1+ln s)^{-2} ds/s = 1/(1 + ln t), t >= 1
        big_bt = PrimitiveBTilde(BL22)
        assert big_bt.eval_log(0.0) == pytest.approx(1.0, rel=1e-9)
        assert big_bt.eval_log(1.0) == pytest.approx(0.5, rel=1e-9)

    def test_b_below_BTilde(self):
        xs = GRID.log_points()
        ratios = PrimitiveBTilde(BL22).eval_log(xs) / eval_sv_log(BL22, xs)
        assert np.all(np.isfinite(ratios))
        assert min(ratios) >= 1.0 - 1e-9

    def test_b_below_B(self):
        xs = GRID.log_points()
        ratios = PrimitiveB(BL22).eval_log(xs) / eval_sv_log(BL22, xs)
        assert np.all(np.isfinite(ratios))
        assert min(ratios) >= 1.0 - 1e-9

    def test_divergent_construction_rejected(self):
        with pytest.raises(DivergentIntegralError):
            PrimitiveB(Constant(1.0))
        with pytest.raises(DivergentIntegralError):
            PrimitiveBTilde(BrokenLog(-2.0, 0.0))

    def test_primitive_descriptors_evaluate(self):
        pb = PrimitiveB(BL22)
        pbt = PrimitiveBTilde(BL22)
        assert eval_sv_log(pb, -1.0) == pytest.approx(0.5, rel=1e-9)
        assert eval_sv_log(pbt, 1.0) == pytest.approx(0.5, rel=1e-9)
        # primitives compose: B is itself slowly varying
        prod = Product(pb, BL22)
        assert eval_sv_log(prod, 0.0) == pytest.approx(eval_sv_log(pb, 0.0),
                                                      rel=1e-12)


class TestPowerIntegrals:
    def test_lower_constant_exact(self):
        # ∫_0^5 ds = 5, ratio to t^alpha b(t) exactly 1
        lower, _ = power_integrals(Constant(1.0), 1.0, np.array([5.0]))
        assert lower[0] == pytest.approx(5.0, rel=1e-12)

    def test_lower_log_weight(self):
        # ∫_0^1 (1 - ln s) ds = [2s - s ln s] = 2
        oracle = simpson_log(lambda x: np.exp(x) * (1.0 - x), -40.0, 0.0)
        assert oracle == pytest.approx(2.0, rel=1e-8)
        lower, _ = power_integrals(BrokenLog(1.0, 1.0), 1.0, np.array([1.0]))
        assert lower[0] == pytest.approx(2.0, rel=1e-10)

    def test_upper_constant_exact(self):
        # ∫_2^∞ s^{-2} ds = 1/2
        _, upper = power_integrals(Constant(1.0), 1.0, np.array([2.0]))
        assert upper[0] == pytest.approx(0.5, rel=1e-12)

    def test_upper_log_weight(self):
        # ∫_1^∞ s^{-2}(1 + ln s) ds = 2
        oracle = simpson_log(lambda x: np.exp(-x) * (1.0 + x), 0.0, 60.0)
        assert oracle == pytest.approx(2.0, rel=1e-8)
        _, upper = power_integrals(BrokenLog(1.0, 1.0), 1.0, np.array([1.0]))
        assert upper[0] == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("b,alpha", [
        (BrokenLog(3.0, 3.0), 0.5),
        (BrokenLog(2.0, 2.0), 0.25),
        (ExpLogPow(0.5, 1), 1.0),
    ])
    def test_bounded_brackets(self, b, alpha):
        ts = GRID.points()
        lower, upper = power_integrals(b, alpha, ts)
        bv = eval_sv_log(b, np.log(ts))
        ref = ts ** alpha * bv
        ref_u = ts ** -alpha * bv
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
        back = sv_from_json(json.loads("""
            {"kind": "Product",
             "left": {"kind": "Power", "r": 0.5,
                      "base": {"kind": "BrokenLog", "a0": 1, "aInf": 2}},
             "right": {"kind": "PrimitiveBTilde",
                       "base": {"kind": "BrokenLog", "a0": -2, "aInf": -2}}}
            """))
        xs = np.array([-4.0, -0.3, 0.0, 1.7, 9.0])
        assert back == b
        assert np.allclose(eval_sv_log(back, xs), eval_sv_log(b, xs))

    def test_spec_shapes(self):
        b = sv_from_json({"kind": "Product",
                          "left": {"kind": "Constant", "c": 2},
                          "right": {"kind": "BrokenLog", "a0": 0, "aInf": 1}})
        assert eval_sv_log(b, 1.0) == pytest.approx(4.0)

    def test_error_paths(self):
        with pytest.raises(ValueError, match="kind"):
            sv_from_json({"c": 1})
        with pytest.raises(ValueError, match="b.left"):
            sv_from_json({"kind": "Product", "left": {"kind": "Nope"},
                          "right": {"kind": "Constant", "c": 1}})
