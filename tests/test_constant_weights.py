"""Constant weights: the classical (theta, q) parameter of the K-method.

With b = C the factors are textbook closed forms, H = C ((1-theta) q)^{-1/q}
and T = C (theta q)^{-1/q} (C at q = inf), and ``sv.rate0_integral`` gives
them at every rate, with no quadrature.  They are pinned here to the exact
formulas and to the rule of ``tests/reference_quadrature.py``, which the
factors used before.
"""

import math

import numpy as np
import pytest

import kinterp.params
import kinterp.quadrature
import kinterp.sv
from kinterp import (BrokenLog, Constant, LogGrid, PhiParam, Power, Product,
                     RangeError)
from kinterp.conditions import check_C1, check_C4, rho_table
from kinterp.params import (head_factors, membership_min1, min_factors,
                            swept_min_factors, tail_factors)
from kinterp.sv import rate0_integral, shift_integral

import reference_quadrature as ref

THETAS = (0.0, 0.25, 0.75, 1.0)
QS = (0.25, 0.5, 1.0, 2.0, math.inf)
XS = np.array([-1e12, -1e6, -40.0, -1.0, -0.5, 0.0, 0.3, 1.0, 40.0, 1e6,
               1e12])


def _exact(c, theta, q):
    """(H, T, M, membership) of PhiParam(theta, q, Constant(c))."""
    if math.isinf(q):
        return c, c, c, True
    h = c * ((1.0 - theta) * q) ** (-1.0 / q) if theta < 1.0 else math.inf
    t = c * (theta * q) ** (-1.0 / q) if theta > 0.0 else math.inf
    if theta == 0.0:
        m = t
    elif theta == 1.0:
        m = h
    else:
        m = c * (1.0 / ((1.0 - theta) * q)
                 + 1.0 / (theta * q)) ** (1.0 / q)
    return h, t, m, 0.0 < theta < 1.0


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("c", [1e-3, 1.0, 2.5])
def test_factors_are_the_closed_forms(c, theta, q):
    p = PhiParam(theta, q, Constant(c))
    h, t, m, member = _exact(c, theta, q)
    for got, want in ((head_factors(p, XS), h), (tail_factors(p, XS), t),
                      (min_factors(p, XS), m)):
        assert got.shape == XS.shape
        if math.isinf(want):
            assert np.all(np.isinf(got))
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert membership_min1(p) is member


@pytest.mark.parametrize("q", QS[:-1])
@pytest.mark.parametrize("c", [1e-3, 1.0, 2.5])
def test_closed_forms_match_the_reference_rule(c, q):
    # the integral before the root, against the rule the factors used to
    # take: e^{r q v} C^q over the side, the weight's kink at v = -x
    for rate, side in ((1.0, "head"), (0.75, "head"), (0.25, "head"),
                       (-0.25, "tail"), (-0.75, "tail"), (-1.0, "tail")):
        bounds = (-math.inf, 0.0) if side == "head" else (0.0, math.inf)
        for x in (-1e12, -3.0, 0.0, 0.5, 1e12):
            rule = ref.integral_log(lambda v: np.exp(rate * q * v) * c ** q,
                                    *bounds, kinks=(-x,))
            got = shift_integral(Constant(c), q, x, rate, side)
            assert got.diverged is rule.diverged is False
            assert got.value == pytest.approx(rule.value, rel=1e-14)


@pytest.mark.parametrize("b, c", [(BrokenLog(0.0, 0.0), 1.0),
                                  (Power(Constant(2.0), 3.0), 8.0),
                                  (Product(Constant(2.5),
                                           BrokenLog(0.0, 0.0)), 2.5)])
@pytest.mark.parametrize("q", [0.5, 2.0, math.inf])
def test_other_constant_trees(b, c, q):
    # a tree whose log_power_form is (C, 0, 0) takes the constant's values
    for rate, side in ((0.3, "head"), (-0.7, "tail"), (0.0, "tail")):
        got = shift_integral(b, q, XS, rate, side)
        want = shift_integral(Constant(c), q, XS, rate, side)
        assert got.value.tobytes() == want.value.tobytes()
        assert np.array_equal(got.diverged, want.diverged)
    # and M, swept or not, with no sweep
    p, pc = PhiParam(0.3, q, b), PhiParam(0.3, q, Constant(c))
    assert min_factors(p, XS).tobytes() == min_factors(pc, XS).tobytes()
    assert swept_min_factors(p, XS)[0].tobytes() == swept_min_factors(
        pc, XS)[0].tobytes()


@pytest.mark.parametrize("q", [0.5, 1.0, math.inf])
def test_growing_exponential_diverges(q):
    # the head at c < 0 and the tail at c > 0: +inf, flagged
    for rate, side in ((-0.3, "head"), (0.4, "tail")):
        r = shift_integral(Constant(2.5), q, XS, rate, side)
        assert np.all(np.isinf(r.value)) and np.all(r.diverged)
        one = shift_integral(Constant(2.5), q, 0.7, rate, side)
        assert one.value == math.inf and one.diverged is True


def test_out_of_range_power_keeps_the_rule():
    # C^q = 1e600 leaves double range: no closed form
    assert rate0_integral(Constant(1e300), 2.0, 0.0, "head", 0.5) is None
    assert rate0_integral(BrokenLog(0.5, 0.0), 1.0, 0.0, "head", 0.5) is None


def test_root_overflow_is_a_range_error():
    # H^q = 1e76.5 / 0.125 is finite, its 4th power leaves double range
    p = PhiParam(0.5, 0.25, Constant(1e306))
    with pytest.raises(RangeError, match=r"phi: ‖·‖\^\(1/q\) left double"):
        head_factors(p, XS)


def test_constant_weights_run_no_quadrature(monkeypatch):
    def fail(*a, **kw):
        raise AssertionError("quadrature ran for a constant weight")

    for name in ("norm_pow", "integral_log"):
        monkeypatch.setattr(kinterp.sv, name, fail)
    monkeypatch.setattr(kinterp.params, "norm_pow", fail)
    monkeypatch.setattr(kinterp.quadrature.QuadPlan, "__init__", fail)
    p0 = PhiParam(0.3, 0.5, Constant(2.5))
    p1 = PhiParam(0.7, math.inf, Constant(0.4))
    grid = LogGrid(1e-4, 1e4, 4)
    assert membership_min1(p0) and membership_min1(p1)
    rho = rho_table(p0, p1, grid)
    for rep in (*check_C1(p0, p1, rho, grid), check_C4(p0, p1, rho, grid)):
        assert np.all(np.isfinite(rep.ratio))
    # the inner M of C2/C3 at their nodes, for a tree that is a constant
    swept_min_factors(PhiParam(0.7, 2.0, BrokenLog(0.0, 0.0)), XS)
