"""Tests of the benchmark itself (generators, validity rules, span arithmetic).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gen  # noqa: E402
import rules  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEEDS = range(8)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload):
    a = gen.generate(workload, 3, ROOT)
    assert a == gen.generate(workload, 3, ROOT)
    if workload != "bundled-suite":
        assert a != gen.generate(workload, 4, ROOT)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_generated_input_is_valid(workload):
    for seed in SEEDS:
        for _name, text in gen.generate(workload, seed, ROOT):
            sc = json.loads(text)
            assert rules.scenario_valid(sc), (seed, sc["name"])


def test_bundled_order_is_a_permutation():
    names = {n.split("-", 1)[1] for n, _ in gen.generate("bundled-suite", 0, ROOT)}
    shipped = {p.name for p in (ROOT / "src/kinterp/scenarios").glob("*.json")}
    assert names == shipped


def _phi(theta, q, b):
    return {"theta": theta, "q": q, "b": b}


def _bl(a0, a_inf):
    return {"kind": "BrokenLog", "a0": a0, "aInf": a_inf}


@pytest.mark.parametrize("phi, member", [
    (_phi(0.0, 1, _bl(5, -1.1)), True),      # just past the edge
    (_phi(0.0, 1, _bl(5, -1.0)), False),     # on the edge: log divergence
    (_phi(0.0, 2, _bl(0, -0.6)), True),
    (_phi(0.0, 2, _bl(0, -0.5)), False),
    (_phi(1.0, 1, _bl(-1.5, 9)), True),
    (_phi(1.0, 0.5, _bl(-1.5, 9)), False),
    (_phi(0.0, "inf", _bl(3, 0.0)), True),   # bounded at infinity
    (_phi(0.0, "inf", _bl(3, 0.01)), False),
    (_phi(0.5, 1, {"kind": "ExpLogPow", "alpha": 0.5, "sign": 1}), True),
    (_phi(0.0, 1, {"kind": "Constant", "c": 2}), False),
    (_phi(0.0, "inf", {"kind": "Constant", "c": 2}), True),
    # B~ of (1+x)^-3 is (1+x)^-2 / 2: integrable, and its integral is 0.5
    (_phi(0.0, 1, {"kind": "PrimitiveBTilde", "base": _bl(0, -3)}), True),
    (_phi(0.0, 1, {"kind": "PrimitiveBTilde", "base": _bl(0, -2)}), False),
])
def test_exact_membership_rule(phi, member):
    assert rules.member_min1(phi) is member


def test_primitive_needs_convergent_base():
    assert rules.descriptor_valid({"kind": "PrimitiveB", "base": _bl(-1.001, 4)})
    assert not rules.descriptor_valid({"kind": "PrimitiveB", "base": _bl(-1, 4)})
    assert not rules.descriptor_valid({"kind": "PrimitiveBTilde",
                                       "base": _bl(0, -0.5)})


def test_self_time_on_synthetic_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]     (child of root)
    #   2     g [2, 3]    (child of a)
    #   3   b  [3, 6]     (overlaps a)
    #   4   c  [8, 12]    (runs past root: clipped to 10)
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    got = spans.self_times(parent, start, end)
    # root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1 = 2
    assert got == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert spans.union_length([1.0, 3.0, 8.0], [4.0, 6.0, 10.0]) == 7.0
    assert spans.union_length([], []) == 0.0


def test_tracer_records_nesting_and_restores(tmp_path):
    mod = types.ModuleType("fake.quadrature")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    tr = spans.Tracer()
    tr._wrap(mod, "outer", "outer", spans._plain)
    tr._wrap(mod, "leaf", "leaf", spans._plain)
    assert mod.outer(1) == 4
    tr.close(tmp_path / "s.npz")
    assert mod.leaf is leaf and mod.outer is outer
    s = spans.load_spans(tmp_path / "s.npz")
    assert [s["names"][k] for k in s["name"]] == ["outer", "leaf", "leaf"]
    assert list(s["parent"]) == [-1, 0, 0]
    assert s["counts"]["calls@quadrature.leaf"] == 2
    st = spans.self_times(s["parent"], s["start"], s["end"])
    dur = s["end"] - s["start"]
    assert st[0] == pytest.approx(dur[0] - dur[1] - dur[2])


def test_tracer_on_kinterp(tmp_path):
    kinterp = pytest.importorskip("kinterp")
    from kinterp import conditions, params

    orig = params.integral_log
    tr = spans.Tracer()
    tr.install(kinterp)
    p0 = kinterp.PhiParam(0.25, 1.0, kinterp.BrokenLog(1.0, 2.0))
    p1 = kinterp.PhiParam(0.75, 2.0, kinterp.BrokenLog(-1.0, 0.5))
    conditions.check_C4(p0, p1, None, kinterp.LogGrid(1e-1, 1e1, 1))
    tr.close(tmp_path / "s.npz")
    assert params.integral_log is orig and not tr.missing
    m = spans.layer_metrics(spans.load_spans(tmp_path / "s.npz"))
    assert m["params.tail_factor.calls"] > 0
    assert m["quadrature.integral_log.nodes"] > m["quadrature.integral_log.calls"] > 0


def test_scaled_follows_the_calibrations():
    ref = run.CAL_REF_S
    # one run of the loop at reference speed before, a two-run calibration
    # at half speed inside, one run at half speed after
    marks = [(0.0, ref, 1), (3.0, 3.0 + 4 * ref, 2), (6.0, 6.0 + 2 * ref, 1)]
    t0, t1 = ref + 1.0, 5.0
    # [t0, 3] sits between speeds 1 and 1/2, the rest between 1/2 and 1/2
    want = (3.0 - t0) / 1.5 + (t1 - 3.0 - 4 * ref) / 2.0
    assert run.scaled(t0, t1, marks) == pytest.approx(want)
    # at a constant reference speed the result is the time outside the loop
    flat = [(0.0, ref, 1), (2.0, 2.0 + ref, 1), (9.0, 9.0 + ref, 1)]
    assert run.scaled(1.0, 8.0, flat) == pytest.approx(7.0 - ref)
    with pytest.raises(run.BenchError):
        run.scaled(0.0, 8.0, flat)


def test_sampler_calibrates_during_a_pass(monkeypatch):
    monkeypatch.setattr(child, "SAMPLE_EVERY_S", 0.02)
    monkeypatch.setattr(child, "CAL_ROUNDS", 20)
    before = signal.getsignal(signal.SIGALRM)
    marks = []
    t0 = time.perf_counter()
    with child.Sampler(marks):
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(marks) >= 3
    assert all(m[2] == 1 and m[1] > m[0] for m in marks)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    empty = {"name": np.zeros(0, np.int32), "parent": np.zeros(0, np.int32),
             "start": np.zeros(0), "end": np.zeros(0),
             "n": np.zeros(0, np.int64), "names": [], "counts": {}}
    printed = set(spans.layer_metrics(empty)) | {
        "runner.report_bytes", "runner.suite_default.cpu_per_wall",
        "trace.overhead"}
    assert printed == set(layer)


def test_grid_points_match_loggrid():
    kinterp = pytest.importorskip("kinterp")
    for g in ({}, {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 2},
              {"t_min": 1e-4, "t_max": 1e4, "points_per_decade": 16}):
        full = {**run._DEFAULT_GRID, **g}
        want = kinterp.LogGrid(full["t_min"], full["t_max"],
                               full["points_per_decade"]).points()
        got = run.grid_points(g)
        assert len(got) == len(want)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))
