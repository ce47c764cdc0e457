import json
import math
import re

import pytest

from kinterp import ScenarioError, load_scenario
from kinterp.cli import main
from kinterp.runner import (EXIT_CONDITIONS, EXIT_OK, EXIT_VALIDATION,
                            bundled_scenario, bundled_scenario_dir,
                            run_scenario, run_suite)
from kinterp.scenario import scenario_from_json

SMALL_GRID = {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 4}


def small_scenario(name="small", **overrides):
    obj = {
        "name": name,
        "phi0": {"theta": 0.25, "q": 1, "b": {"kind": "Constant", "c": 1}},
        "phi1": {"theta": 0.75, "q": 1, "b": {"kind": "Constant", "c": 1}},
        "element": {"kind": "WeightedSeq", "coeffs": [1], "w0": [1], "w1": [1]},
        "grid": SMALL_GRID,
        "checks": ["C2", "C3", "C4"],
        "variants": ["thm_ii"],
    }
    obj.update(overrides)
    return obj


class TestScenarioParsing:
    def test_bundled_files_parse(self):
        names = sorted(p.stem for p in bundled_scenario_dir().glob("*.json"))
        assert names == ["broken-log-1", "broken-log-2", "classical-1",
                         "endpoint-01", "zero-zero-sufficient"]
        sc = bundled_scenario("classical-1")
        assert sc.phi0.theta == 0.25
        assert sc.grid.t_min == 1e-4

    def test_defaults(self):
        sc = scenario_from_json(small_scenario(grid=None))
        assert sc.grid.t_min == 1e-8 and sc.grid.points_per_decade == 16
        assert sc.budget == 64.0

    def test_malformed_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x", ')
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(p)

    def test_field_path_in_errors(self):
        with pytest.raises(ScenarioError, match="phi0.b"):
            scenario_from_json(small_scenario(
                phi0={"theta": 0.25, "q": 1, "b": {"kind": "Mystery"}}))
        with pytest.raises(ScenarioError, match="variants"):
            scenario_from_json(small_scenario(variants=["fancy"]))
        with pytest.raises(ScenarioError, match="variants"):
            scenario_from_json(small_scenario(variants=[]))
        with pytest.raises(ScenarioError, match="element"):
            scenario_from_json(small_scenario(element={"kind": "WeightedSeq",
                                                       "coeffs": [1]}))

    @pytest.mark.parametrize("field, value", [
        ("checks", 5), ("checks", None), ("checks", "C1"),
        ("checks", [["C1"]]), ("variants", 5), ("variants", None),
        ("variants", "thm_ii")])
    def test_malformed_name_lists_name_the_field(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            scenario_from_json(small_scenario(**{field: value}))

    def test_fractional_points_per_decade_rejected(self):
        grid = dict(SMALL_GRID, points_per_decade=1.5)
        with pytest.raises(ScenarioError, match="points_per_decade"):
            scenario_from_json(small_scenario(grid=grid))
        grid = dict(SMALL_GRID, points_per_decade=4.0)
        assert scenario_from_json(
            small_scenario(grid=grid)).grid.points_per_decade == 4


    @pytest.mark.parametrize("overrides, named", [
        ({"phi0": {"theta": True, "q": 1, "b": {"kind": "Constant", "c": 1}}},
         "phi0.theta"),
        ({"phi1": {"theta": 0.75, "q": True,
                   "b": {"kind": "Constant", "c": 1}}}, "phi1.q"),
        ({"element": {"kind": "WeightedSeq", "coeffs": [True], "w0": [1],
                      "w1": [1]}}, "element.coeffs[0]"),
        ({"sv_epsilon": True}, "sv_epsilon"),
        ({"grid": dict(SMALL_GRID, points_per_decade=True)},
         "grid.points_per_decade"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, overrides,
                                     named):
        # json booleans would load as 1 through float() and int()
        with pytest.raises(ScenarioError, match=re.escape(named)):
            scenario_from_json(small_scenario(**overrides))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("bools", **overrides)))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out")]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_non_finite_sv_epsilon_is_named(self, tmp_path, capsys, eps):
        # json's Infinity token passes eps > 0; SV_sufficient then passed
        # with every ratio 1
        with pytest.raises(ScenarioError, match="sv_epsilon"):
            scenario_from_json(small_scenario(sv_epsilon=eps))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario(
            "eps", sv_epsilon=eps, checks=["SV_sufficient"])))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "sv_epsilon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sign", [-1.7, 1.9, 0.5])
    def test_fractional_explogpow_sign_is_named(self, tmp_path, capsys,
                                                sign):
        # int() used to truncate -1.7 to a sign of -1
        b = {"kind": "ExpLogPow", "alpha": 0.3, "sign": sign}
        phi0 = {"theta": 0.25, "q": 1, "b": b}
        with pytest.raises(ScenarioError, match=re.escape("phi0.b.sign")):
            scenario_from_json(small_scenario(phi0=phi0))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("sign", phi0=phi0)))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "phi0.b.sign" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\u0000b",
                                      ".", ".."])
    def test_name_must_be_a_file_stem(self, tmp_path, capsys, name):
        # the name is the stem of every report file: '../escaped' wrote
        # them beside --out, and a NUL raised a bare ValueError
        with pytest.raises(ScenarioError, match="name"):
            scenario_from_json(small_scenario(name))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario(name)))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "box" / "out")]) == EXIT_VALIDATION
        assert "name" in capsys.readouterr().err
        assert [q.name for q in tmp_path.rglob("*")] == ["sc.json"]

    @pytest.mark.parametrize("element, field", [
        ({"kind": "WeightedSeq", "coeffs": "123", "w0": [1, 1, 1],
          "w1": [1, 1, 1]}, "element.coeffs"),
        ({"kind": "WeightedSeq", "coeffs": [1], "w0": "1", "w1": [1]},
         "element.w0"),
        ({"kind": "WeightedSeq", "coeffs": [1], "w0": [1], "w1": "1"},
         "element.w1"),
        ({"kind": "StepFn", "breaks": "0123", "values": [1, 1, 1]},
         "element.breaks"),
        ({"kind": "StepFn", "breaks": [0, 1, 2, 3], "values": "111"},
         "element.values"),
        ({"kind": "SyntheticK", "t": "12", "K": [1, 2]}, "element.t"),
        ({"kind": "SyntheticK", "t": [1, 2], "K": "12"}, "element.K"),
    ])
    def test_string_is_not_a_list(self, element, field):
        # tuple() read "0123" as the breakpoints (0, 1, 2, 3)
        with pytest.raises(ScenarioError,
                           match=re.escape(field + ": expected a list")):
            scenario_from_json(small_scenario(element=element))

    def test_step_function_needs_a_piece(self, tmp_path, capsys):
        # K of no pieces ended in an IndexError traceback
        element = {"kind": "StepFn", "breaks": [0], "values": []}
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("empty", element=element)))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "element: need len(breakpoints) == len(values) + 1 >= 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("t, k, field", [
        ([1, 2, 3], [1, 2], "element.K"),
        ([1, math.inf], [1, 2], "element.t"),
        ([1, 2], [1, math.inf], "element.K"),
    ])
    def test_bad_synthetic_samples_are_named(self, tmp_path, capsys, t, k,
                                             field):
        # zip() truncated unequal lists, an infinite t reached np.interp,
        # and an infinite K was reported as a quasi-concavity violation
        element = {"kind": "SyntheticK", "t": t, "K": k}
        with pytest.raises(ScenarioError, match=re.escape(field + ": ")):
            scenario_from_json(small_scenario(element=element))
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("synthetic", element=element)))
        assert main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out")]) == EXIT_VALIDATION
        assert field + ": " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("b, message", [
        ({"kind": "Product", "left": {"kind": "Mystery"},
          "right": {"kind": "Constant", "c": 1}},
         "phi0.b.left: unknown descriptor kind 'Mystery'"),
        ({"kind": "ExpLogPow", "alpha": 0.3, "sign": -1.7},
         "phi0.b.sign: must be +1 or -1, got -1.7"),
        ({"kind": "Power", "base": {"kind": "Constant", "c": -1}, "r": 2},
         "phi0.b.base: Constant requires 0 < c < inf"),
        ({"kind": "BrokenLog", "a0": 1}, "phi0.b: missing field 'aInf'"),
    ])
    def test_descriptor_error_names_its_path_once(self, b, message):
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(small_scenario(
                phi0={"theta": 0.25, "q": 1, "b": b}))
        assert str(err.value) == message


class TestRunScenario:
    def test_passing_scenario(self, tmp_path):
        sc = scenario_from_json(small_scenario())
        res = run_scenario(sc, tmp_path)
        assert res.exit_code == EXIT_OK
        assert (tmp_path / "small.equivalence.csv").exists()
        assert (tmp_path / "small.C2.csv").exists()
        summary = json.loads((tmp_path / "small.summary.json").read_text())
        assert summary["status"] == "pass"
        assert summary["ordering_ok"] is True
        assert summary["equivalence"][0]["verdict"] == "pass"

    def test_conditions_unmet_exit_code(self, tmp_path):
        obj = small_scenario(
            name="flat",
            phi0={"theta": 0.5, "q": 1, "b": {"kind": "Constant", "c": 1}},
            phi1={"theta": 0.5, "q": 1, "b": {"kind": "Constant", "c": 1}},
            checks=["C2"])
        res = run_scenario(scenario_from_json(obj), tmp_path)
        assert res.exit_code == EXIT_CONDITIONS
        assert res.condition_reports["C2"].verdict == "fail"
        assert res.equivalence.variant_result("thm_ii").verdict == "not_applicable"

    def test_equivalence_violation_exit_code(self, tmp_path):
        # a budget tighter than the observed bracket, with gate conditions
        # still comfortably inside it: 3-term ratios reach 0.8 < 1/1.2
        obj = small_scenario(name="tight", checks=["C2", "C3"],
                             variants=["thm_i"], budget=1.2)
        from kinterp.runner import EXIT_EQUIVALENCE
        res = run_scenario(scenario_from_json(obj), tmp_path)
        assert res.exit_code == EXIT_EQUIVALENCE
        assert all(r.verdict == "pass"
                   for r in res.condition_reports.values())
        assert res.equivalence.variant_result("thm_i").verdict == "fail"

    def test_invalid_profile_exit_code(self, tmp_path):
        obj = small_scenario(
            name="badprof",
            element={"kind": "SyntheticK", "t": [0.1, 1.0, 10.0],
                     "K": [0.01, 1.0, 100.0]})
        res = run_scenario(scenario_from_json(obj), tmp_path)
        assert res.exit_code == EXIT_VALIDATION
        summary = json.loads((tmp_path / "badprof.summary.json").read_text())
        assert summary["status"] == "error"

    def test_membership_failure_is_validation_error(self, tmp_path):
        obj = small_scenario(
            name="nomember",
            phi0={"theta": 0.0, "q": 1, "b": {"kind": "Constant", "c": 1}})
        res = run_scenario(scenario_from_json(obj), tmp_path)
        assert res.exit_code == EXIT_VALIDATION

    def test_synthetic_profile_scenario_passes_conditions(self, tmp_path):
        ts = [0.01, 0.1, 1.0, 10.0, 100.0]
        obj = small_scenario(
            name="synth",
            element={"kind": "SyntheticK", "t": ts,
                     "K": [min(1.0, t) for t in ts]})
        res = run_scenario(scenario_from_json(obj), tmp_path)
        assert res.exit_code == EXIT_OK

    def test_determinism_bitwise(self, tmp_path):
        sc = scenario_from_json(small_scenario())
        run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b")
        for name in ("small.equivalence.csv", "small.C2.csv",
                     "small.summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestSuite:
    def test_empty_directory(self, tmp_path):
        summary, code = run_suite(tmp_path, tmp_path / "out")
        assert code == EXIT_OK
        assert summary["count"] == 0

    def test_corrupt_scenario_isolated(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps(small_scenario("good")))
        (tmp_path / "bad.json").write_text("{nope")
        summary, code = run_suite(tmp_path, tmp_path / "out", workers=2)
        assert code == EXIT_VALIDATION
        by_name = {r["name"]: r for r in summary["scenarios"]}
        assert by_name["good"]["status"] == "pass"
        assert by_name["bad"]["status"] == "error"
        assert (tmp_path / "out" / "good.summary.json").exists()

    def test_bad_name_isolated(self, tmp_path):
        scen = tmp_path / "scen"
        scen.mkdir()
        (scen / "good.json").write_text(json.dumps(small_scenario("good")))
        (scen / "nul.json").write_text(json.dumps(small_scenario("a\u0000b")))
        (scen / "up.json").write_text(json.dumps(small_scenario("../up")))
        summary, code = run_suite(scen, tmp_path / "out", workers=1)
        assert code == EXIT_VALIDATION
        by_name = {r["name"]: r for r in summary["scenarios"]}
        assert by_name["good"]["status"] == "pass"
        assert by_name["nul"]["status"] == by_name["up"]["status"] == "error"
        assert "name" in by_name["up"]["error"]
        assert sorted(q.name for q in tmp_path.iterdir()) == ["out", "scen"]

    def test_malformed_checks_isolated(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps(small_scenario("good")))
        (tmp_path / "bad.json").write_text(
            json.dumps(small_scenario("bad", checks=5)))
        summary, code = run_suite(tmp_path, tmp_path / "out", workers=1)
        assert code == EXIT_VALIDATION
        by_name = {r["name"]: r for r in summary["scenarios"]}
        assert by_name["good"]["status"] == "pass"
        assert by_name["bad"]["status"] == "error"
        assert "checks" in by_name["bad"]["error"]
        assert (tmp_path / "out" / "suite-summary.json").exists()

    def test_equivalence_violation_dominates_suite_exit(self, tmp_path):
        from kinterp.runner import EXIT_EQUIVALENCE
        (tmp_path / "ok.json").write_text(json.dumps(small_scenario("ok")))
        (tmp_path / "tight.json").write_text(json.dumps(small_scenario(
            "tight", checks=["C2", "C3"], variants=["thm_i"], budget=1.2)))
        (tmp_path / "bad.json").write_text("{nope")
        summary, code = run_suite(tmp_path, tmp_path / "out", workers=1)
        assert code == EXIT_EQUIVALENCE
        by_name = {r["name"]: r for r in summary["scenarios"]}
        assert by_name["tight"]["status"] == "equivalence_violated"

    def test_worker_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KINTERP_WORKERS", "1")
        from kinterp.runner import default_workers
        assert default_workers() == 1

    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("KINTERP_WORKERS", raising=False)
        from kinterp.runner import default_workers
        assert default_workers() == 1


class TestCli:
    def test_verify_exit_codes(self, tmp_path, capsys):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("cli1")))
        code = main(["verify", "--scenario", str(p),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli1: thm_ii pass" in out

    def test_verify_grid_override(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("cli2")))
        code = main(["verify", "--scenario", str(p), "--out",
                     str(tmp_path / "out"), "--grid-min", "0.1",
                     "--grid-max", "10", "--ppd", "2", "--cmax", "32"])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "cli2.summary.json").read_text())
        assert summary["conditions"]["C2"]["grid"]["t_min"] == 0.1
        assert summary["conditions"]["C2"]["budget"] == 32.0

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        code = main(["verify", "--scenario", str(tmp_path / "nope.json")])
        assert code == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_conditions_only_subset(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("cond")))
        code = main(["conditions", "--scenario", str(p), "--only", "C2,C3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        files = sorted(f.name for f in (tmp_path / "out").glob("cond.*.csv"))
        assert files == ["cond.C2.csv", "cond.C3.csv"]

    def test_conditions_unknown_name_rejected(self, tmp_path, capsys):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("condx")))
        code = main(["conditions", "--scenario", str(p), "--only", "C9",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION

    def test_suite_command(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "one.json").write_text(
            json.dumps(small_scenario("one")))
        code = main(["suite", "--dir", str(tmp_path / "d"), "--out",
                     str(tmp_path / "out"), "--workers", "1"])
        assert code == 0
        assert "one: pass" in capsys.readouterr().out

    def test_sv_check(self, capsys):
        code = main(["sv-check", "--b",
                     '{"kind": "BrokenLog", "a0": -2, "aInf": -2}',
                     "--eps", "0.5", "--ppd", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_sv_check_bad_descriptor(self, capsys):
        code = main(["sv-check", "--b", '{"kind": "Qux"}', "--eps", "0.5"])
        assert code == EXIT_VALIDATION

    def test_sv_check_boolean_is_named(self, capsys):
        code = main(["sv-check", "--b", '{"kind": "Constant", "c": true}',
                     "--eps", "0.5"])
        assert code == EXIT_VALIDATION
        assert "b.c" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "conditions", "sv-check"])
    @pytest.mark.parametrize("flags, named", [
        (["--grid-min", "0"], "--grid-min"),
        (["--grid-min", "-1"], "--grid-min"),
        (["--grid-max", "inf"], "--grid-max"),
        (["--grid-min", "10", "--grid-max", "10"], "--grid-max"),
        (["--grid-min", "1e9"], "--grid-max"),
        (["--ppd", "0"], "--ppd"),
        (["--cmax", "0.5"], "--cmax"),
        (["--cmax", "1"], "--cmax"),
        (["--cmax", "nan"], "--cmax"),
    ])
    def test_bad_grid_or_budget_flag_is_named(self, tmp_path, capsys,
                                              command, flags, named):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(small_scenario("flags")))
        if command == "sv-check":
            argv = ["sv-check", "--b", '{"kind": "Constant", "c": 1}',
                    "--eps", "0.5"]
        else:
            argv = [command, "--scenario", str(p), "--out",
                    str(tmp_path / "out")]
        assert main(argv + flags) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sv_check_bad_eps_is_named(self, capsys):
        code = main(["sv-check", "--b", '{"kind": "Constant", "c": 1}',
                     "--eps", "0"])
        assert code == EXIT_VALIDATION
        assert "--eps" in capsys.readouterr().err


def test_suite_reports_do_not_depend_on_workers(tmp_path):
    # the scenarios share a PrimitiveB weight; each scenario's instance
    # keeps its own values, whichever thread computes them
    base = {"kind": "BrokenLog", "a0": -2.0, "aInf": 0.5}
    for i, (theta, q) in enumerate(((0.3, 1), (0.4, 2), (0.2, 1))):
        scenario = {
            "name": f"shared-{i}",
            "phi0": {"theta": theta, "q": q,
                     "b": {"kind": "PrimitiveB", "base": base}},
            "phi1": {"theta": 0.8, "q": 1,
                     "b": {"kind": "BrokenLog", "a0": 1, "aInf": -0.5}},
            "element": {"kind": "WeightedSeq", "coeffs": [1, 2],
                        "w0": [1, 3], "w1": [1, 0.5]},
            "grid": {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 2},
            "checks": ["C1", "C4"],
            "variants": ["classical"],
        }
        (tmp_path / f"shared-{i}.json").write_text(json.dumps(scenario))
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        run_suite(tmp_path, out, workers=workers)
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                   if p.is_file())
    assert len(files) > 3
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                           if p.is_file())
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f
