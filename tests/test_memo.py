"""Values that are reused are kept by the object they describe."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from kinterp import (BrokenLog, KProfile, LogGrid, PhiParam, PrimitiveB,
                     PrimitiveBTilde, Scenario, WeightedSeq, conditions,
                     couples, params, scenario)
from kinterp.conditions import rho_table
from kinterp.estimates import run_checks
from kinterp.params import (_swept_powers, head_factors, membership_min1,
                            min_factors, qth_root, tail_factors)
from kinterp.runner import bundled_scenario, bundled_scenario_dir, run_scenario

GRID = LogGrid(1e-2, 1e2, 2)
P0 = PhiParam(0.25, 1.0, BrokenLog(1.0, 2.0))
P1 = PhiParam(0.75, 2.0, BrokenLog(-1.0, 0.5))


def test_c1_c4_and_rho_evaluate_each_factor_on_the_grid_once(monkeypatch):
    # on a grid, H and T of these weights are one sweep along its points
    p0, p1 = replace(P0), replace(P1)
    n = GRID.log_points().size
    seen = Counter()
    inner = params._swept_powers

    def counted(p, xs, side):
        if np.size(xs) == n:
            seen[(p.b, side)] += 1
        return inner(p, xs, side)

    monkeypatch.setattr(params, "_swept_powers", counted)
    sc = Scenario("memo", p0, p1, WeightedSeq((1.0,), (1.0,), (1.0,)), GRID)
    run_checks(sc, ["C1", "C4"])
    rho_table(p0, p1, GRID)
    assert set(seen) == {(p.b, side) for p in (p0, p1)
                         for side in ("head", "tail")}
    assert set(seen.values()) == {1}


@pytest.mark.parametrize("name", sorted(
    p.stem for p in bundled_scenario_dir().glob("*.json")))
def test_one_run_builds_the_profile_and_rho_once(tmp_path, monkeypatch, name):
    seen = Counter()

    def counting(key, inner):
        def counted(*a, **kw):
            seen[key] += 1
            return inner(*a, **kw)
        return counted

    monkeypatch.setattr(KProfile, "from_element", classmethod(counting(
        "from_element", KProfile.from_element.__func__)))
    monkeypatch.setattr(couples, "validate_kprofile",
                        counting("validate_kprofile", couples.validate_kprofile))
    rho = counting("rho_table", conditions.rho_table)
    monkeypatch.setattr(conditions, "rho_table", rho)
    monkeypatch.setattr(scenario, "rho_table", rho)
    sc = bundled_scenario(name)
    run_scenario(sc, tmp_path)
    assert seen == {"from_element": 1, "validate_kprofile": 1, "rho_table": 1}
    assert not sc.rho.flags.writeable


def test_kept_factors_are_read_only_and_equal_the_batched_ones():
    p = replace(P0)
    for kept, side, name in ((head_factors(p, GRID), head_factors, "head"),
                             (tail_factors(p, GRID), tail_factors, "tail")):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0
        assert side(p, GRID) is kept
        swept = qth_root(p, _swept_powers(p, GRID.log_points(), name))
        assert kept.tobytes() == swept.tobytes()
    # at theta = 0, M is T itself
    p_end = PhiParam(0.0, 1.0, BrokenLog(2.0, 2.0))
    assert not min_factors(p_end, GRID).flags.writeable


def test_equal_parameters_keep_their_own_values():
    a, b = replace(P0), replace(P0)
    assert a == b and hash(a) == hash(b)
    assert membership_min1(a)
    head_factors(a, GRID)
    assert a._memo and not b._memo
    assert not replace(a)._memo


@pytest.mark.parametrize("kind, base", [
    (PrimitiveB, BrokenLog(-2.0, 0.5)),
    (PrimitiveBTilde, BrokenLog(0.5, -2.0)),
])
def test_equal_primitives_share_no_state_and_agree_bitwise(kind, base):
    a, b = kind(base), kind(base)
    assert a == b and hash(a) == hash(b)
    xs = np.array([-30.0, -2.5, 0.0, 0.4, 12.0])
    va = a.eval_log(xs)
    assert len(a._values) == xs.size and not b._values
    assert b.eval_log(xs).tobytes() == va.tobytes()
    assert a._values is not b._values
