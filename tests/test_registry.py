"""The registry of condition checks: names, report ids and the one runner."""

import json
from collections import Counter

import pytest

from kinterp import (CONDITION_IDS, BrokenLog, LogGrid, PhiParam, Scenario,
                     WeightedSeq, equivalence_report, estimates)
from kinterp.cli import main
from kinterp.conditions import CHECKS
from kinterp.runner import EXIT_VALIDATION, run_scenario
from kinterp.scenario import scenario_from_json

GRID = LogGrid(1e-1, 1e1, 2)
P0 = PhiParam(0.25, 1.0, BrokenLog(-2.0, -2.0))
P1 = PhiParam(0.75, 1.0, BrokenLog(-4.0, -4.0))


def scenario_obj(name, **overrides):
    """A scenario file's JSON object."""
    obj = {
        "name": name,
        "phi0": {"theta": 0.25, "q": 1,
                 "b": {"kind": "BrokenLog", "a0": -2, "aInf": -2}},
        "phi1": {"theta": 0.75, "q": 1,
                 "b": {"kind": "BrokenLog", "a0": -4, "aInf": -4}},
        "element": {"kind": "WeightedSeq", "coeffs": [1, 2],
                    "w0": [1, 3], "w1": [1, 0.5]},
        "grid": GRID.describe(),
        "checks": ["C1", "C2", "C3", "C4"],
        "variants": ["lemma", "thm_i", "thm_ii", "classical"],
    }
    obj.update(overrides)
    return obj


def scenario(name, **overrides):
    return scenario_from_json(scenario_obj(name, **overrides))


def test_every_condition_id_comes_from_exactly_one_check():
    owners = Counter(cid for ids in CHECKS.values() for cid in ids)
    assert set(owners) == set(CONDITION_IDS)
    assert all(n == 1 for n in owners.values())
    for name, ids in CHECKS.items():
        sc = Scenario(name, P0, P1, WeightedSeq((1.0,), (1.0,), (1.0,)),
                      GRID, budget=64.0, sv_epsilon=0.1)
        reports = estimates.run_checks(sc, [name])
        assert tuple(reports) == ids
        assert all(reports[cid].condition_id == cid for cid in ids)


def test_repeated_check_runs_once(tmp_path, monkeypatch):
    calls = []
    inner = estimates.check_C4

    def counted(*a, **kw):
        calls.append(1)
        return inner(*a, **kw)

    monkeypatch.setattr(estimates, "check_C4", counted)
    res = run_scenario(scenario("c4x3", checks=["C4", "C4", "C4"],
                                variants=["thm_ii"]), tmp_path)
    assert len(calls) == 1
    assert set(res.condition_reports) == {"C4"}
    assert set(res.equivalence.conditions) == {"C2", "C3", "C4"}


def test_equivalence_report_runs_missing_gates_itself(tmp_path):
    res = run_scenario(scenario("gates"), tmp_path)
    # a fresh copy, on which no check has run
    alone = equivalence_report(scenario("gates"))
    assert alone.conditions == res.equivalence.conditions
    assert (json.dumps(alone.summary(), sort_keys=True)
            == json.dumps(res.equivalence.summary(), sort_keys=True))


def test_unknown_only_name_is_validation_error(tmp_path, capsys):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(scenario_obj("condx")))
    code = main(["conditions", "--scenario", str(p), "--only", "C9",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "checks" in capsys.readouterr().err


def test_sv_sufficient_alone_needs_no_membership(tmp_path):
    # theta = 1 with b = 1 near 0: min(1, t) has infinite norm, while
    # B~(t) = ∫_t^∞ b ds/s is finite since b decays like (1 + ln s)^-2
    sc = scenario("sv-only", phi0={
        "theta": 1.0, "q": 1, "b": {"kind": "BrokenLog", "a0": 0, "aInf": -2}})
    only = run_scenario(sc, tmp_path, checks_only=("SV_sufficient",))
    assert only.exit_code != EXIT_VALIDATION
    assert set(only.condition_reports) == {"SV_sufficient"}
    with_c4 = run_scenario(sc, tmp_path, checks_only=("SV_sufficient", "C4"))
    assert with_c4.exit_code == EXIT_VALIDATION
    assert "min(1, t)" in with_c4.error
