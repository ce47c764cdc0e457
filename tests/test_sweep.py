"""The prefix sweep of H^q and T^q along sorted points (``params``'s
``_swept_powers``) against the direct rule of ``shift_integral``.

The sweep integrates short gaps, so where the integrand is smooth it is
closer to the converged value than the direct rule at the same density;
where the weight has the cusp |ln t|^alpha of ExpLogPow at t = 1, neither
has converged at ppd 64, and the sweep must be no farther from the rule at
ppd 1024 than the rule at ppd 64 is.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from kinterp import (BrokenLog, Constant, ExpLogPow, PhiParam, Power,
                     Product)
from kinterp import conditions
from kinterp.conditions import check_C2
from kinterp.params import _swept_powers, min_factors, swept_min_factors
from kinterp.runner import bundled_scenario
from kinterp.sv import SVDescriptor, shift_integral

THETA = 0.2

SMOOTH = {
    # T at x = -42 is where the rule at ppd 64 is off by about 1e-8
    "brokenlog": BrokenLog(0.5, 0.5),
    "power": Power(BrokenLog(1.0, -1.0), 0.5),
}
CUSP = {
    "explogpow+": ExpLogPow(0.3, 1),
    "explogpow-": ExpLogPow(0.5, -1),
    "product": Product(BrokenLog(-1.0, 0.5), ExpLogPow(0.2, -1)),
}


@pytest.fixture(scope="module")
def nodes():
    """The points at which broken-log-1's C2 sweeps the inner M: the
    distinct nodes of its two outer rows, whose outer weight decays at the
    rate (theta1 - theta0) q0, so they skip the far panels where it is
    exactly 0.0."""
    sc = bundled_scenario("broken-log-1")
    seen = []

    def record(p, xs):
        seen.append(xs)
        return swept_min_factors(p, xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "swept_min_factors", record)
        check_C2(sc.phi0, sc.phi1, None, sc.grid, budget=sc.budget)
    [xs] = seen
    return xs


def _rule(p, xs, side, ppd):
    c = 1.0 - p.theta if side == "head" else -p.theta
    return shift_integral(p.b, p.q, xs, c, side, ppd)


def _infinite(r):
    return r.diverged | ~np.isfinite(r.value)


def _rel(a, b):
    with np.errstate(invalid="ignore"):
        return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("weight", sorted({**SMOOTH, **CUSP}))
def test_sweep_agrees_with_the_rule(nodes, weight, q):
    p = PhiParam(THETA, q, {**SMOOTH, **CUSP}[weight])
    every = slice(None, None, 16)
    for side in ("head", "tail"):
        swept = _swept_powers(p, nodes, side)
        rule = _rule(p, nodes, side, 64)
        assert np.array_equal(_infinite(swept), _infinite(rule))
        fine = _rule(p, nodes[every], side, 1024)
        ok = ~_infinite(rule)
        near = ok[every] & ~_infinite(fine)
        sw, coarse, fine = (swept.value[every][near], rule.value[every][near],
                            fine.value[near])
        if weight in SMOOTH:
            assert _rel(swept.value[ok], rule.value[ok]).max() <= 1e-7
            assert _rel(sw, fine).max() <= 1e-12
        else:
            assert np.all(np.abs(sw - fine)
                          <= np.abs(coarse - fine) + 1e-12 * np.abs(fine))


def test_rule_at_ppd_64_is_off_where_the_sweep_is_not(nodes):
    # T of BrokenLog(0.5, 0.5) at theta = 0.2, q = 0.5 near x = -42: the
    # kink w = 0 lies in the far region of the relative coordinates
    p = PhiParam(THETA, 0.5, SMOOTH["brokenlog"])
    near = (nodes > -43.0) & (nodes < -41.0)
    fine = _rule(p, nodes[near], "tail", 1024).value
    assert _rel(_rule(p, nodes[near], "tail", 64).value, fine).max() > 1e-9
    swept = _swept_powers(p, nodes, "tail").value[near]
    assert _rel(swept, fine).max() <= 1e-13


@dataclass(frozen=True)
class _InfBelow(SVDescriptor):
    """1 for ln t >= cut, +inf below it."""

    cut: float

    def eval_log(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.cut, 1.0, math.inf)


def test_restarts_where_the_decay_underflows():
    # head rate (1 - 0.5) * 1 = 0.5: e^{-0.5 d} is 0.0 for a gap d above
    # about 1490, so -3000 and 1e4 restart.  b is +inf below -5999.5: the
    # first point's flag and the first increment's carry to -5990, whose
    # own increment is finite, and stop at the restart at -3000
    p = PhiParam(0.5, 1.0, _InfBelow(-5999.5))
    xs = np.array([-6000.0, -5999.0, -5990.0, -3000.0, -2999.0, -2000.0,
                   -1000.0, 0.0, 1e4])
    restart = [0, 3, 8]
    assert np.all(np.exp(-0.5 * np.diff(xs))[np.array(restart[1:]) - 1] == 0.0)
    swept = _swept_powers(p, xs, "head")
    direct = _rule(p, xs, "head", p.ppd)
    assert swept.diverged.tolist() == [True] * 3 + [False] * 6
    assert np.array_equal(swept.diverged, direct.diverged)
    assert np.array_equal(swept.value[restart], direct.value[restart])
    assert np.array_equal(swept.value[restart],
                          _rule(p, xs[restart], "head", p.ppd).value)
    ok = ~direct.diverged
    assert _rel(swept.value[ok], direct.value[ok]).max() <= 1e-12


@pytest.mark.parametrize("p", [
    PhiParam(0.3, math.inf, BrokenLog(1.0, 2.0)),
    PhiParam(0.0, 1.0, BrokenLog(1.0, -2.0)),
    PhiParam(1.0, 2.0, BrokenLog(-2.0, 1.0)),
    PhiParam(0.4, 0.5, Constant(3.0)),
], ids=["q=inf", "theta=0", "theta=1", "constant"])
def test_direct_rule_where_there_is_no_sweep(p):
    xs = np.array([-1e6, -20.0, -0.5, 0.0, 0.7, 30.0, 1e6])
    m, carry = swept_min_factors(p, xs)
    assert np.array_equal(m, min_factors(p, xs))
    # where M is not swept, the carry is the rule at the points it is given
    ys = np.array([[-3e5, -20.0, -7.25], [0.0, 1e-12, 45.5]])
    assert carry(ys).tobytes() == min_factors(p, ys).tobytes()
