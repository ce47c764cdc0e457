"""H and T on a LogGrid by one sweep along the grid's points, against the
rule of ``shift_integral`` at high density.

On a grid, for finite q at a rate c != 0 with no closed form, a
parameter's H and T are ``_swept_powers`` along the grid's points: one
restart at the first point of each side and one short increment per gap.
The direct rule at ppd 64 puts the weight's kink w = 0 in its far region
once |ln t| > 1, where its panels are about 0.036 |ln t| wide; the sweep's
increments hold the kink in a short row.  Also here: the nested checks'
inner sweep sees no point of zero outer weight, the full norms of K-profiles
whose scale has a q-th power out of double range, and the CSV text.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from kinterp import (BrokenLog, ExpLogPow, KProfile, LogGrid, PhiParam,
                     Product, conditions, params)
from kinterp.conditions import ConditionReport, check_C2, check_C3
from kinterp.estimates import equivalence_report
from kinterp.params import (full_norm_profile, full_norm_profiles,
                            head_factors, qth_root, tail_factors)
from kinterp.runner import bundled_scenario
from kinterp.scenario import scenario_from_json
from kinterp.sv import Constant, shift_integral

FAR_KINK = PhiParam(0.786, 2.0, BrokenLog(-0.569, -2.559))
FAMILY = [FAR_KINK,
          PhiParam(0.25, 1.0, BrokenLog(1.0, 2.0)),
          PhiParam(0.75, 2.0, BrokenLog(-1.0, 0.5)),
          PhiParam(0.5, 0.5, BrokenLog(2.0, -3.0)),
          PhiParam(0.3, 1.5, BrokenLog(-2.5, 1.5)),
          PhiParam(0.6, 0.75, BrokenLog(0.5, -0.5))]
CUSPS = [PhiParam(0.2, 2.0, Product(BrokenLog(-1.0, 0.5), ExpLogPow(0.2, -1))),
         PhiParam(0.4, 1.0, ExpLogPow(0.3)),
         PhiParam(0.7, 0.5, ExpLogPow(0.5, -1))]
SIDES = {"head": head_factors, "tail": tail_factors}


def _rule(p, xs, side, ppd):
    c = 1.0 - p.theta if side == "head" else -p.theta
    return qth_root(p, shift_integral(p.b, p.q, xs, c, side, ppd))


def _worst(a, b):
    return float(np.max(np.abs(a / b - 1.0)))


def _grid_errors(grid, ppd, family=FAMILY):
    """Per (parameter, side): the worst relative error of the grid's
    factors, and of the rule at p.ppd, against the rule at ``ppd``."""
    xs = grid.log_points()
    out = {}
    for p in family:
        for side, factors in SIDES.items():
            fine = _rule(p, xs, side, ppd)
            out[p, side] = (_worst(factors(replace(p), grid), fine),
                            _worst(_rule(p, xs, side, p.ppd), fine))
    return out


@pytest.mark.parametrize("ppd", [16, 4])
def test_grid_factors_match_the_fine_rule_across_t_1(ppd):
    errors = _grid_errors(LogGrid(1e-8, 1e8, ppd), 1024)
    assert max(swept for swept, _ in errors.values()) <= 1e-13
    # the direct rule is off by 1.4e-4 (ppd 16) and 9.4e-5 (ppd 4) here
    assert errors[FAR_KINK, "head"][1] > 1e-5


@pytest.mark.parametrize("grid, bound", [
    # about half of it is the ppd-1024 rule's own error near x = 44-48,
    # which ppd 2048 moves by 4.5e-12; the direct rule is off by 3e-3
    (LogGrid(10.0, 1e30, 4), 5e-12),
    (LogGrid(1e-300, 1e300, 1), 5e-12),
    # the first point, x = 11.5, restarts from the rule at ppd 64, whose far
    # region holds the kink (v = -11.5): its 4.6e-8 carries along the sweep,
    # damped by e^{-r d} per gap
    (LogGrid(1e5, 1e20, 16), 5e-8),
], ids=["10..1e30", "1e-300..1e300", "1e5..1e20"])
def test_grid_factors_far_from_t_1(grid, bound):
    errors = _grid_errors(grid, 1024)
    assert max(swept for swept, _ in errors.values()) <= bound
    assert errors[FAR_KINK, "head"][1] > 1e-3


def test_grid_factors_on_a_grid_finer_than_a_panel():
    # 17,373 points on 1..1.000001, 5.8e-11 apart in ln t: every gap is
    # shorter than 1e-9 of a panel (2.9e-10 at ppd 64), where the rule
    # reads a row as 0, so each increment takes d times the integrand at
    # its midpoint.  Read as 0, swept H was off by 1.0e-7 and T by 1.2e-6.
    p = PhiParam(0.5, 2.0, BrokenLog(1.0, -1.0))
    grid = LogGrid(1.0, 1.000001, 40_000_000_000)
    xs = grid.log_points()
    assert xs.size == 17373
    for factors in SIDES.values():
        rule = factors(p, np.array(xs))
        assert _worst(factors(p, grid), rule) <= 1e-11


@pytest.mark.parametrize("aq", [-1.0, -0.99, -1.02])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_grid_divergence_flags_are_the_rules(aq, q):
    for theta in (0.3, 0.9):
        p = PhiParam(theta, q, BrokenLog(aq / q, aq / q))
        for grid in (LogGrid(1e-8, 1e8, 4), LogGrid(1e-300, 1e300, 1)):
            xs = grid.log_points()
            for side, factors in SIDES.items():
                swept = factors(replace(p), grid)
                assert np.array_equal(np.isinf(swept),
                                      np.isinf(_rule(p, xs, side, p.ppd)))


@pytest.mark.parametrize("grid", [LogGrid(1e-4, 1e4, 4),
                                  LogGrid(1e-2, 1e2, 16)],
                         ids=["1e-4..1e4", "1e-2..1e2"])
def test_grid_factors_of_cusp_weights_are_no_worse_than_the_rule(grid):
    # the cusp |ln t|^alpha at t = 1 holds neither at ppd 64; the rule at
    # ppd 2048 is within 1.5e-5 of the one at ppd 8192 here.  Where both
    # are worst at the cusp point x = 0 they agree up to rounding (9.4e-4,
    # 2.6e-5 and 1.7e-5 on 1e-4..1e4), so the bound allows that much.
    for key, (swept, direct) in _grid_errors(grid, 2048, CUSPS).items():
        assert swept <= direct * (1.0 + 1e-9), key


def _restart_rows(monkeypatch):
    """A list that each ``side_rows`` call of ``params`` appends its
    (restart rows, rows) to: a restart's row is the whole side."""
    seen = []
    inner = params.side_rows

    def counted(b, q, x, c, side, span, ppd):
        seen.append((int(np.count_nonzero(np.isinf(span))), np.size(x)))
        return inner(b, q, x, c, side, span, ppd)
    monkeypatch.setattr(params, "side_rows", counted)
    return seen


def test_swept_grid_factors_restart_once_per_side(monkeypatch):
    seen = _restart_rows(monkeypatch)
    rule = []
    monkeypatch.setattr(params, "shift_integral",
                        lambda b, q, x, *a: rule.append(np.size(x))
                        or shift_integral(b, q, x, *a))
    for factors in SIDES.values():
        factors(replace(FAR_KINK), LogGrid(1e-8, 1e8, 16))
    assert seen == [(1, 257), (1, 257)] and not rule
    # an array of points keeps the rule at each
    head_factors(FAR_KINK, LogGrid(1e-8, 1e8, 16).log_points())
    assert rule == [257]


# tests/test_batched.py's far-overflow input: M0 overflows only where C3's
# outer weight is exactly 0.0
_FAR_OVERFLOW = {
    "name": "far-overflow",
    "phi0": {"theta": 0.2, "q": 0.25,
             "b": {"kind": "ExpLogPow", "alpha": 0.3, "sign": 1}},
    "phi1": {"theta": 0.7, "q": 2,
             "b": {"kind": "BrokenLog", "a0": 1, "aInf": 1}},
    "element": {"kind": "WeightedSeq", "coeffs": [1], "w0": [1], "w1": [1]},
    "grid": {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 1},
    "checks": ["C3"],
}


@pytest.mark.parametrize("sc, check", [
    (bundled_scenario("broken-log-1"), check_C2),
    (bundled_scenario("broken-log-1"), check_C3),
    (scenario_from_json(_FAR_OVERFLOW), check_C3),
], ids=["broken-log-1 C2", "broken-log-1 C3", "far-overflow C3"])
def test_outer_core_sweeps_no_point_of_zero_outer_weight(monkeypatch, sc,
                                                          check):
    p_out, c_exp = ((sc.phi0, sc.phi1.theta - sc.phi0.theta)
                    if check is check_C2
                    else (sc.phi1, sc.phi0.theta - sc.phi1.theta))
    nodes, swept = [], []
    restarts = _restart_rows(monkeypatch)
    inner_trunc = conditions.truncated_pows
    inner_sweep = conditions.swept_min_factors

    def trunc(end, cuts, core, *a, **kw):
        def seen(x, rows):
            nodes.append(x.size)
            return core(x, rows)
        return inner_trunc(end, cuts, seen, *a, **kw)

    def sweep(p, xs):
        swept.append(xs)
        return inner_sweep(p, xs)
    monkeypatch.setattr(conditions, "truncated_pows", trunc)
    monkeypatch.setattr(conditions, "swept_min_factors", sweep)
    check(sc.phi0, sc.phi1, None, sc.grid, budget=sc.budget)
    [xs] = swept
    with np.errstate(under="ignore"):
        assert np.all(np.exp(c_exp * p_out.q * xs) > 0.0)
    # the tail-fit probes at 5e11 and 1e12 were among the nodes
    assert xs.size < nodes[0]
    # each side of the inner sweep, and of the grid's, restarts once
    assert len(restarts) == 6 and {n for n, _ in restarts} == {1}


@pytest.mark.parametrize("k, want", [
    (2.5e-201, 7.0710678118654755e-201),
    (1e200, 2.8284271247461903e200),
])
def test_full_norm_takes_the_scale_apart(k, want):
    # K = k min(1, t), b = 2, theta = 1/2, q = 2: the norm is 2 k sqrt(2);
    # k^2 underflows (the norm read 0) or overflows (it read +inf)
    p = PhiParam(0.5, 2.0, Constant(2.0))
    got = full_norm_profile(p, KProfile([1.0], [[k]]))
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_full_norm_in_range_keeps_its_bits():
    p = PhiParam(0.5, 2.0, Constant(2.0))
    assert full_norm_profile(p, KProfile([1.0], [[2.5e-100]])) == \
        7.071067811865478e-100
    # one batch of rows in and out of range: each row to its own call
    rows = KProfile([0.5, 4.0], [[2.5e-201, 3.75e-201], [1.0, 1.5],
                                 [1e200, 1.5e200], [2.5e-100, 4e-100]])
    both = full_norm_profiles(p, rows)
    for got, row in zip(both.tolist(), rows.values):
        own = full_norm_profile(p, KProfile(rows.knots, [row]))
        assert got == own
    np.testing.assert_allclose(both[[0, 2]], both[1] * np.array(
        [2.5e-201, 1e200]), rtol=1e-13)


def _csv_by_cell(header, arrays):
    lines = [header]
    for i in range(len(arrays[0])):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def test_csv_text_is_the_repr_of_each_cell():
    sc = bundled_scenario("classical-1")
    rep = equivalence_report(sc)
    cols = ["t", "rho", "lhs_upper", "rhs_lemma", "rhs_i", "rhs_ii",
            "r_lemma", "r_i", "r_ii", "rhs_classical", "r_classical"]
    arrays = [rep.t, rep.rho, rep.lhs_upper, rep.rhs["lemma"],
              rep.rhs["thm_i"], rep.rhs["thm_ii"], rep.ratios["lemma"],
              rep.ratios["thm_i"], rep.ratios["thm_ii"],
              rep.rhs["classical"], rep.ratios["classical"]]
    assert rep.to_csv_text() == _csv_by_cell(",".join(cols), arrays)
    t = np.array([0.1, 1.0, 10.0])
    cells = [t, np.array([1.5, 0.0, math.inf]), np.array([3.0, 0.0, 2.0]),
             np.array([0.5, 1.0, math.inf])]
    cond = ConditionReport("C4", *cells, sup_ratio=math.inf, budget=64.0,
                           verdict="fail", grid=LogGrid(0.1, 10.0, 1))
    assert cond.to_csv_text() == _csv_by_cell("t,lhs,rhs,ratio", cells)
