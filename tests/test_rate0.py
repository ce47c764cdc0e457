"""Rate-0 integrals of log-power weights, pinned to their closed forms.

A tree of Constant, BrokenLog, Product and Power nodes is
b(e^w) = C (1 + |w|)^{a0 for w <= 0, aInf for w > 0}, so ∫ b^q over a
half line is elementary.  These values and divergence flags are exact where
the quadrature rule is not: exponents near -1, deep finite bounds, and
bounds at |x| = 1e12.
"""

import math

import numpy as np
import pytest

from kinterp import (BrokenLog, Constant, ExpLogPow, PhiParam, Power,
                     PrimitiveB, PrimitiveBTilde, Product, membership_min1)
from kinterp.params import head_factor, tail_factor
from kinterp.quadrature import integral_log
from kinterp.sv import (eval_sv_log, log_power_form, rate0_integral,
                        shift_integral)

from test_params import _sup_brokenlog


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("aq", [-1.001, -1.01, -1.15])
def test_exponent_near_minus_one_converges(aq, q):
    # ∫_0^∞ (1 + w)^A dw = 1 / (-A - 1), and mirrored for the head
    a = aq / q
    want = 1.0 / (-(a * q) - 1.0)
    for b, side in ((BrokenLog(0.0, a), "tail"), (BrokenLog(a, 0.0), "head")):
        r = shift_integral(b, q, 0.0, 0.0, side)
        assert not r.diverged
        assert r.value == pytest.approx(want, rel=1e-13)
    # from x = -5 the tail adds ∫_{-5}^0 1 dw
    r = shift_integral(BrokenLog(0.0, a), q, -5.0, 0.0, "tail")
    assert not r.diverged and r.value == pytest.approx(5.0 + want, rel=1e-13)
    assert membership_min1(PhiParam(0.0, q, BrokenLog(-1.1, a)))


@pytest.mark.parametrize("aq", [-1.0, -0.99])
def test_exponent_at_or_above_minus_one_diverges(aq):
    for q in (0.5, 1.0, 2.0):
        r = shift_integral(BrokenLog(0.0, aq / q), q, np.array([-3.0, 1e12]),
                           0.0, "tail")
        assert r.diverged.all() and np.isinf(r.value).all()


def test_deep_finite_bounds():
    # ∫_x^∞ (1 + w)^-2 dw = 1 / (1 + x), with no flag out to x = 1e12
    xs = np.array([2e9, 1e10, 1e11, 1e12])
    r = shift_integral(BrokenLog(-2.0, -2.0), 1.0, xs, 0.0, "tail")
    assert not r.diverged.any()
    np.testing.assert_allclose(r.value, 1.0 / (1.0 + xs), rtol=1e-15)
    assert r.value[-1] == pytest.approx(1e-12, rel=1e-12)


def test_primitive_btilde_member_at_theta_zero():
    # B~ of (1 + w)^-3 is (1 + w)^-2 / 2 for w >= 0, whose tail from 0 is 1/2
    p = PhiParam(0.0, 1.0, PrimitiveBTilde(BrokenLog(0.0, -3.0)))
    assert membership_min1(p)
    assert tail_factor(p, 0.0) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("a0", np.linspace(-1.2, -1.001, 9).tolist())
def test_primitive_b_near_minus_one(a0):
    # B(e^x) = (1 - x)^{a0+1} / (-a0-1) for x <= 0
    pb = PrimitiveB(BrokenLog(a0, 0.0))
    assert float(pb.eval_log(0.0)) == pytest.approx(1.0 / (-a0 - 1.0),
                                                    rel=1e-12)
    assert float(pb.eval_log(-1e12)) == pytest.approx(
        (1.0 + 1e12) ** (a0 + 1.0) / (-a0 - 1.0), rel=1e-12)


def test_primitive_b_far_out_is_finite():
    # B(e^x) = 1 + [(1 + x)^1.5 - 1] / 1.5 for x > 0
    v = float(PrimitiveB(BrokenLog(-2.0, 0.5)).eval_log(1e12))
    assert v == pytest.approx(1.0 + ((1.0 + 1e12) ** 1.5 - 1.0) / 1.5,
                              rel=1e-14)
    assert v == pytest.approx(6.67e17, rel=1e-3)


# C = 2, a0 = -1.5 - 3 = -4.5, aInf = -1 - 3.3 = -4.3
TREE = Product(Power(BrokenLog(-3.0, -2.0), 0.5),
               Product(Constant(2.0), BrokenLog(-3.0, -3.3)))


def test_tree_reduces():
    assert log_power_form(TREE) == pytest.approx((2.0, -4.5, -4.3))
    assert log_power_form(Product(TREE, ExpLogPow(0.5))) is None
    assert log_power_form(PrimitiveB(BrokenLog(-2.0, 0.5))) is None
    assert rate0_integral(ExpLogPow(0.5, -1), 1.0, 0.0, "tail") is None


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("side", ["head", "tail"])
def test_tree_agrees_with_the_rule(side, q):
    # where the bound is moderate, the rule is right to about 1e-14
    for x in (-40.0, -3.0, -0.2, 0.0, 0.7, 5.0, 60.0):
        bounds = (-math.inf, x) if side == "head" else (x, math.inf)
        rule = integral_log(lambda w: eval_sv_log(TREE, w) ** q, *bounds,
                            kinks=(0.0,))
        exact = shift_integral(TREE, q, x, 0.0, side)
        assert rule.diverged == exact.diverged is False
        assert exact.value == pytest.approx(rule.value, rel=1e-13)


@pytest.mark.parametrize("factor, b, x", [
    ("tail", BrokenLog(1.0, 2.0), -1e12),
    ("tail", BrokenLog(-1.0, 0.0), -1e12),
    ("head", BrokenLog(-0.5, -1.0), 1e12),
    ("tail", BrokenLog(-1.0, -0.5), 1e12),
    ("head", BrokenLog(2.0, -0.5), -1e12),
])
def test_sup_form_far_out(factor, b, x):
    # the closed form at q = inf, and the factors of TestSupFactorsFarOut
    bounds = (-math.inf, x) if factor == "head" else (x, math.inf)
    want = _sup_brokenlog(b, *bounds)
    r = rate0_integral(b, math.inf, x, factor)
    assert r.diverged is math.isinf(want)
    assert r.value == pytest.approx(want, rel=1e-15)
    theta, get = (1.0, head_factor) if factor == "head" else (0.0, tail_factor)
    assert get(PhiParam(theta, math.inf, b), x) == r.value


@pytest.mark.parametrize("theta, b, member", [
    # B rises to its limit 1/(2 - 1) + 1/(1.5 - 1) = 3, and B~ from it
    (0.0, PrimitiveB(BrokenLog(-2.0, -1.5)), True),
    (1.0, PrimitiveBTilde(BrokenLog(-1.5, -2.0)), True),
    # ∫_0^∞ (1 + w)^-0.5 dw diverges, so B is unbounded
    (0.0, PrimitiveB(BrokenLog(-2.0, -0.5)), False),
])
def test_primitive_sup_is_the_far_end_limit(theta, b, member):
    p = PhiParam(theta, math.inf, b)
    get = tail_factor if theta == 0.0 else head_factor
    want = 3.0 if member else math.inf
    for x in (-1e12, -3.0, 0.0, 5.0, 1e12):
        assert get(p, x) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert membership_min1(p) is member


def test_primitive_sup_at_x():
    # B~ falls, so its supremum over w > x is B~ at x: 1 + 2(1 - 4^-0.5)
    # at x = -3, and 1/(1 + x) for x >= 0
    p = PhiParam(0.0, math.inf, PrimitiveBTilde(BrokenLog(-1.5, -2.0)))
    np.testing.assert_allclose([tail_factor(p, x) for x in (-3.0, 0.0, 5.0)],
                               [2.0, 1.0, 1.0 / 6.0], rtol=1e-15)
    # B rises, so its supremum over w < x is B at x: 1 + 2(1 - 6^-0.5) at 5
    p = PhiParam(1.0, math.inf, PrimitiveB(BrokenLog(-2.0, -1.5)))
    np.testing.assert_allclose(head_factor(p, 5.0),
                               1.0 + 2.0 * (1.0 - 6.0 ** -0.5), rtol=1e-15)
