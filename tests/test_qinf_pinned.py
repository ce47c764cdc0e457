"""The q = ∞ norms, pinned.

No bundled scenario has q = ∞, so these values pin the sup paths of H and T,
of the truncated and full norms of K-profiles, of the decomposition search
and of C2 with a q = ∞ outer parameter.  ``qinf_pinned.json`` holds the
values of the sup rule as written when each norm carried its own search, at
the inputs below; every value must stay within REL of it, and every +inf
must stay +inf.  The condition sup ratios of the ``qinf-elp`` scenario (the
one CI verifies, whose q = inf outer weight lies outside the log-power
family, so its factors are many-row suprema of a plan) must stay exact.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kinterp import (BrokenLog, DecompositionSearch, ExpLogPow, KProfile,
                     LogGrid, PhiParam, Product, StepFn, WeightedSeq)
from kinterp.conditions import check_C2
from kinterp.estimates import run_checks
from kinterp.params import (full_norm_profile, head_factors,
                            norm_trunc_profile, tail_factors)
from kinterp.scenario import scenario_from_json

REL = 1e-14
PINNED = json.loads((Path(__file__).parent / "qinf_pinned.json").read_text(
    encoding="utf-8"))

WEIGHTS = {"brokenlog": BrokenLog(1.0, -0.5),
           "product": Product(BrokenLog(0.5, -1.0), ExpLogPow(0.3, -1))}
XS = [-1e6, -3.0, 0.0, 5.0, 1e6]

PROFILES = {
    "weighted": KProfile.from_element(
        WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 1.0, 1.0))),
    "step": KProfile.from_element(
        StepFn((0.0, 0.5, 2.0, 3.0), (3.0, 1.0, 2.0))),
    "synthetic": KProfile.from_samples([(0.1, 0.1), (1.0, 0.8), (10.0, 2.0)]),
}
TS = [1e-3, 1.0, 7.0, 1e3]

SEQS = {3: WeightedSeq((1.0, 0.5, 2.0), (1.0, 8.0, 0.2), (1.0, 0.5, 3.0)),
        8: WeightedSeq(tuple(1.0 + 0.25 * i for i in range(8)),
                       tuple(2.0 ** (i - 3) for i in range(8)),
                       tuple(3.0 ** (2 - i) for i in range(8)))}


def assert_pinned(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=REL, atol=0.0)


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_factors(weight, theta):
    p = PhiParam(theta, math.inf, WEIGHTS[weight])
    heads, tails = PINNED[f"factors/{weight}/{theta}"]
    assert_pinned(head_factors(p, XS), heads)
    assert_pinned(tail_factors(p, XS), tails)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
def test_profile_norms(profile, theta):
    p = PhiParam(theta, math.inf, BrokenLog(1.0, -0.5))
    prof = PROFILES[profile]
    heads, tails, full = PINNED[f"profiles/{theta}/{profile}"]
    assert_pinned(norm_trunc_profile(p, prof, "head", TS), heads)
    assert_pinned(norm_trunc_profile(p, prof, "tail", TS), tails)
    assert_pinned(full_norm_profile(p, prof), full)


@pytest.mark.parametrize("n", sorted(SEQS))
def test_decomposition_norms(n):
    # at n = 3 the second parameter has finite q, so only a0 is a sup norm
    p0 = PhiParam(0.3, math.inf, BrokenLog(1.0, -0.5))
    p1 = PhiParam(0.7, math.inf if n == 8 else 2.0, BrokenLog(-0.5, 0.5))
    s = DecompositionSearch(p0, p1, SEQS[n], LogGrid(1e-2, 1e2, 2))
    a0, a1 = PINNED[f"decomposition/{n}"]
    assert_pinned(s.a0, a0)
    assert_pinned(s.a1, a1)


def test_C2_with_a_sup_outer_norm():
    r = check_C2(PhiParam(0.2, math.inf, BrokenLog(1.0, -0.5)),
                 PhiParam(0.8, 1.0, BrokenLog(0.5, 0.5)),
                 grid=LogGrid(0.5, 2, 1))
    lhs, rhs, sup_ratio, drift = PINNED["C2"]
    assert_pinned(r.lhs, lhs)
    assert_pinned(r.rhs, rhs)
    assert r.sup_ratio == pytest.approx(sup_ratio, rel=REL)
    assert r.meta["refine_rel_change"] < 1e-14 and drift < 1e-14


# CI's "A q = inf ExpLogPow weight" scenario
QINF_ELP = {
    "name": "qinf-elp",
    "phi0": {"theta": 0.25, "q": 2,
             "b": {"kind": "BrokenLog", "a0": 1, "aInf": -0.5}},
    "phi1": {"theta": 0.75, "q": "inf",
             "b": {"kind": "ExpLogPow", "alpha": 0.5, "sign": -1}},
    "element": {"kind": "WeightedSeq", "coeffs": [1, 0.5, 2],
                "w0": [1, 8, 0.2], "w1": [1, 1, 1]},
    "grid": {"t_min": 0.01, "t_max": 100, "points_per_decade": 4},
    "checks": ["C1", "C2", "C3", "C4"],
    "variants": ["classical", "thm_ii", "lemma"]}


def test_qinf_elp_sup_ratios_are_exact():
    sc = scenario_from_json(QINF_ELP)
    got = {cid: rep.sup_ratio
           for cid, rep in run_checks(sc, sc.checks).items()}
    assert got == PINNED["qinf-elp"]


def test_qinf_elp_sweep_has_one_owner():
    # C3's outer norm at q = inf is the one path that carries the inner M
    # from its sweep to the points that polish a supremum: the sweep's
    # powers stay with that caller, and each parameter keeps only its
    # membership of min(1, t) and its factors per (side, grid)
    sc = scenario_from_json(QINF_ELP)
    got = {cid: rep.sup_ratio
           for cid, rep in run_checks(sc, sc.checks).items()}
    assert got == PINNED["qinf-elp"]
    for p in (sc.phi0, sc.phi1):
        assert p._memo and all(
            key == "min1" or key in {(side, sc.grid)
                                     for side in ("head", "tail")}
            for key in p._memo), list(p._memo)
