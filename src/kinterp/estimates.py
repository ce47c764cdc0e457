"""Two-sided estimate machinery for couples of K-interpolation spaces.

For parameters (Phi0, Phi1) with canonical weight rho, the outer
K-functional K(rho(t), f; A_Phi0, A_Phi1) is compared against three
right-hand sides built from the base profile K(·, f):

    two-term:    ||χ_(0,t) K||_0 + rho(t) ||χ_(t,∞) K||_1
    three-term:  two-term + ||χ_(t,∞)||_0 K(t)
    four-term:   three-term + rho(t) ||u χ_(0,t)||_1 K(t)/t

Each variant is a sub-sum of the next, so the pointwise ordering
four >= three >= two holds exactly (floating-point addition of nonnegative
terms is monotone).  The left-hand side is approximated *from above* by
minimizing over an explicit family of decompositions f = f0 + f1: for a
weighted sequence the rows a of one fraction matrix, f0 = a∘f and
f1 = f - f0 (the coordinate split grid for n <= 6, the truncation splits
along the grid beyond), for a step function its level truncations.  The
report carries both ratio directions so the one-sided bias stays visible.
For a one-term sequence the trivial splits attain the minimum,
min(N0, sigma N1).

``run_checks`` and ``equivalence_report`` take a ``scenario.Scenario``; it
keeps the K-profile, rho on the grid and the condition reports they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import (CHECKS, check_C1, check_C2, check_C3, check_C4,
                         check_names, check_sv_sufficient)
from .couples import KProfile, WeightedSeq, atoms
from .errors import EmptyCandidateError
from .params import (PhiParam, full_norm_profiles, norm_head_u,
                     norm_tail_char, norm_trunc_profile, norm_trunc_profiles)
from .quadrature import LogGrid
from .sv import Constant

# Bound here though rho comes from the scenario and the candidates' norms
# from full_norm_profiles: perfbench/spans.py wraps these names at this
# layer boundary and reports a missing one.  norm_trunc_profile is one too,
# and only classical_rhs calls it.
from .params import full_norm_profile, min_factor  # noqa: E402,F401

VARIANTS = ("lemma", "thm_i", "thm_ii", "classical")
_SPLIT_GRID_MAX_N = 6
#: costs per block of the left-hand side's minimum (256 kB); one matrix of
#: every sigma's costs raised the peak memory of a decomposition run by 4%
_COST_BLOCK = 1 << 15
#: the weight of the classical right-hand side
_ONE = Constant(1.0)


def _terms(p0: PhiParam, p1: PhiParam, rho_t, profile: KProfile,
           grid: LogGrid, classical: bool = False):
    """The four building blocks shared by all right-hand sides, at every
    point of the grid, with ``rho_t`` a float or an array over it.  Each term
    is one batched call per parameter; the c and d terms read the T0 and H1
    that the parameters keep on the grid.

    With ``classical`` a fifth follows, the classical right-hand side
    (``classical_rhs``): its truncated norms under b = 1 are rows of the
    passes that give a and b, to the bits of their own calls.
    """
    xs, ts = grid.log_points(), grid.points()
    k_t = np.asarray(profile.value_log(xs), dtype=float)
    one = (_ONE,) if classical else ()
    heads = norm_trunc_profiles(p0, profile, "head", ts, (p0.b,) + one)
    tails = norm_trunc_profiles(p1, profile, "tail", ts, (p1.b,) + one)
    a = heads[0]
    b = rho_t * tails[0]
    c = norm_tail_char(p0, grid) * k_t
    d = rho_t * norm_head_u(p1, grid) * k_t / ts
    if not classical:
        return a, b, c, d
    return a, b, c, d, _classical_sum(heads[1], tails[1], ts, p0.theta,
                                      p1.theta)


def _variant_sums(a, b, c, d, classical=None) -> dict:
    """Each variant's right-hand side from the terms of ``_terms``; every sum
    extends the previous one, so four >= three >= two holds exactly."""
    two = a + b
    rhs = {"lemma": (two + c) + d, "thm_i": two + c, "thm_ii": two}
    if classical is not None:
        rhs["classical"] = classical
    return rhs


def _classical_sum(head, tail, t, theta0, theta1):
    """The classical right-hand side from its truncated norms under b = 1."""
    return head + np.power(t, theta1 - theta0) * tail


def classical_rhs(theta0: float, q0: float, theta1: float, q1: float,
                  profile: KProfile, t):
    """Two-term estimate with the pure-power weight t^{theta1-theta0}.

    Valid for 0 < theta0 < theta1 < 1; agrees with the canonical two-term
    right-hand side for constant b up to the constant absorbed in rho.
    ``t`` may be a float or an array.  An equivalence report reads the
    same values from the passes of its canonical terms (``_terms``).
    """
    if not (0.0 < theta0 < theta1 < 1.0):
        raise ValueError("classical form needs 0 < theta0 < theta1 < 1")
    head = norm_trunc_profile(PhiParam(theta0, q0, _ONE), profile, "head", t)
    tail = norm_trunc_profile(PhiParam(theta1, q1, _ONE), profile, "tail", t)
    return _classical_sum(head, tail, t, theta0, theta1)


class DecompositionSearch:
    """Upper bound for the outer K-functional by explicit decompositions.

    The norm pair (||K(·,f0)||_0, ||K(·,f1)||_1) of every candidate
    f = f0 + f1 is computed once, so the bound at a new scale costs one
    vectorized minimum.  Every candidate is a row f0 over the element's
    atoms with coefficients c (``couples.atoms``) and f1 = c - f0, so the
    candidates' profiles are the rows of one KProfile, and their norms one
    batched plan per parameter.  For a weighted sequence the rows are
    f0 = a∘c for the rows a of one fraction matrix:

    * n <= 6: the split grid, each a_i on a uniform grid of 9 steps for
      n <= 3 and 3 for n <= 6.  Its 0/1 rows hold both trivial splits and
      every truncation split (the split attaining the base K-functional at
      a scale); at n = 1 the two trivial splits attain the minimum;
    * n > 6: the distinct truncation masks w0 <= s w1 over the grid's
      scales s, plus the all-ones and all-zeros rows.

    A step function's candidates are its level truncations
    f0 = (f - c)+, f1 = f - f0 = min(f, c), plus f0 = 0.
    """

    def __init__(self, p0: PhiParam, p1: PhiParam, element,
                 grid: LogGrid = LogGrid()):
        self.p0, self.p1 = p0, p1
        self.element = element
        coeffs, knots, basis = atoms(element)
        f0 = (_fractions(element, grid) * coeffs
              if isinstance(element, WeightedSeq) else _level_rows(coeffs))
        self.a0 = full_norm_profiles(p0, KProfile(knots, f0 @ basis))
        self.a1 = full_norm_profiles(p1, KProfile(knots,
                                                  (coeffs - f0) @ basis))

    def lhs(self, sigma):
        """min over candidates of ||K(·,f0)||_0 + sigma ||K(·,f1)||_1 (of
        the finite costs), for a float sigma or, in one vectorized minimum,
        at every sigma of an array."""
        s = np.asarray(sigma, dtype=float)
        if not np.all(s > 0.0):
            raise ValueError("sigma must be positive")
        flat = s.ravel()
        best = np.empty(flat.size)
        step = max(1, _COST_BLOCK // self.a1.size)
        for i in range(0, flat.size, step):
            with np.errstate(invalid="ignore"):
                costs = flat[i:i + step, None] * self.a1
                costs += self.a0
            # fmin passes over the NaN of inf * 0; a sigma with no finite
            # cost reads inf or NaN
            best[i:i + step] = np.fmin.reduce(costs, axis=1)
        if not np.all(np.isfinite(best)):
            raise EmptyCandidateError(
                "every candidate decomposition has infinite cost")
        return best.reshape(s.shape) if s.ndim else float(best[0])


def _fractions(e: WeightedSeq, grid: LogGrid) -> np.ndarray:
    """The fraction matrix of ``DecompositionSearch``, one candidate a row."""
    n = e.n
    if n <= _SPLIT_GRID_MAX_N:
        steps = 9 if n <= 3 else 3
        alphas = np.linspace(0.0, 1.0, steps)
        return alphas[np.indices((steps,) * n).reshape(n, -1).T]
    masks = np.asarray(e.w0) <= grid.points()[:, None] * np.asarray(e.w1)
    # a mask only gains coordinates as s grows, so repeats are consecutive
    new = np.any(masks[1:] != masks[:-1], axis=1)
    return np.vstack([masks[np.r_[True, new]], np.ones(n),
                      np.zeros(n)]).astype(float)


def _level_rows(values: np.ndarray) -> np.ndarray:
    """f0 of a step function's candidates, over the atoms of its values: the
    level truncations (f - c)+, which concentrate the tall part, at each of
    its levels c and at 0, and f0 = 0."""
    levels = np.array(sorted(set(values.tolist())) + [0.0])
    return np.vstack([np.maximum(values - levels[:, None], 0.0),
                      np.zeros(values.size)])


@dataclass(frozen=True, eq=False)
class VariantResult:
    variant: str
    reason: str
    sup_ratio: float
    inf_ratio: float
    verdict: str  # "pass" | "fail" | "not_applicable"


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    scenario: str
    grid: LogGrid
    t: np.ndarray
    rho: np.ndarray
    lhs_upper: np.ndarray
    rhs: dict            # variant -> ndarray
    ratios: dict         # variant -> ndarray (lhs_upper / rhs)
    variants: tuple      # VariantResult, requested variants only
    conditions: dict     # condition_id -> "pass"/"fail"
    budget: float
    ordering_ok: bool

    def variant_result(self, name: str) -> VariantResult:
        for v in self.variants:
            if v.variant == name:
                return v
        raise KeyError(name)

    def to_csv_text(self) -> str:
        cols = ["t", "rho", "lhs_upper", "rhs_lemma", "rhs_i", "rhs_ii",
                "r_lemma", "r_i", "r_ii"]
        has_classical = "classical" in self.rhs
        if has_classical:
            cols += ["rhs_classical", "r_classical"]
        arrays = [self.t, self.rho, self.lhs_upper, self.rhs["lemma"],
                  self.rhs["thm_i"], self.rhs["thm_ii"], self.ratios["lemma"],
                  self.ratios["thm_i"], self.ratios["thm_ii"]]
        if has_classical:
            arrays += [self.rhs["classical"], self.ratios["classical"]]
        lines = [",".join(cols)]
        lines.extend(",".join(map(repr, row)) for row in zip(
            *(np.asarray(a, dtype=float).tolist() for a in arrays)))
        return "\n".join(lines) + "\n"

    def summary(self) -> list:
        return [{
            "variant": v.variant,
            "sup_ratio": v.sup_ratio,
            "inf_ratio": v.inf_ratio,
            "conditions": dict(self.conditions),
            "verdict": v.verdict,
        } for v in self.variants]

    @property
    def any_failed(self) -> bool:
        return any(v.verdict == "fail" for v in self.variants)


#: variant -> the checks whose failure makes it not applicable
_GATES = {
    "lemma": ("C1", "C2", "C3"),
    "thm_i": ("C2", "C3"),
    "thm_ii": ("C2", "C3", "C4"),
    "classical": (),
}


def run_checks(sc, names) -> dict:
    """The reports of the named checks (of ``conditions.CHECKS``) on the
    scenario ``sc`` by condition id, in the order first named.  A check runs
    once per scenario: ``sc.reports`` keeps its reports.  C1-C4 read
    ``sc.rho`` and the factors on the grid that the parameters keep.
    """
    p0, p1, grid, budget = sc.phi0, sc.phi1, sc.grid, sc.budget
    # each check's reports, in the order of its ids in CHECKS; the names are
    # looked up at call time, so wrappers set on this module are called
    run = {
        "C1": lambda: check_C1(p0, p1, sc.rho, grid, budget=budget),
        "C2": lambda: (check_C2(p0, p1, sc.rho, grid, budget=budget),),
        "C3": lambda: (check_C3(p0, p1, sc.rho, grid, budget=budget),),
        "C4": lambda: (check_C4(p0, p1, sc.rho, grid, budget=budget),),
        "SV_sufficient": lambda: (check_sv_sufficient(
            p0.b, p0.q, p1.b, p1.q, sc.sv_epsilon, grid, budget=budget),),
    }
    reports = {}
    for name in dict.fromkeys(check_names(names)):
        if CHECKS[name][0] not in sc.reports:
            sc.reports.update(zip(CHECKS[name], run[name]()))
        reports.update((cid, sc.reports[cid]) for cid in CHECKS[name])
    return reports


def equivalence_report(sc) -> EquivalenceReport:
    """Compare the left-hand side upper bound of the scenario ``sc`` against
    the right-hand sides of all variants.

    Its conditions are the reports of the scenario's checks and of its
    variants' gates.  A variant whose gate conditions fail is reported
    "not_applicable" rather than failed.  Synthetic K-profiles have no
    computable left-hand side: their report carries the rhs table (and the
    pointwise ordering check) with NaN ratios.
    """
    variants = tuple(sc.variants)
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    if not variants:
        raise ValueError("at least one variant is required")
    p0, p1, grid, budget = sc.phi0, sc.phi1, sc.grid, sc.budget
    profile, rho, ts = sc.profile, sc.rho, grid.points()
    gates = [name for v in variants for name in _GATES[v]]
    cond_verdicts = {cid: rep.verdict for cid, rep
                     in run_checks(sc, [*sc.checks, *gates]).items()}

    classical_ok = 0.0 < p0.theta < p1.theta < 1.0
    rhs = _variant_sums(*_terms(p0, p1, rho, profile, grid,
                                "classical" in variants and classical_ok))

    # a synthetic profile is its own element and has no decompositions
    synthetic = profile is sc.element
    if synthetic:
        lhs = np.full(len(ts), math.nan)
    else:
        search = DecompositionSearch(p0, p1, sc.element, grid)
        lhs = search.lhs(rho)

    ratios = {}
    for name, vals in rhs.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[name] = np.where((lhs == 0.0) & (vals == 0.0), 1.0,
                                    lhs / vals)

    ordering_ok = bool(np.all(rhs["lemma"] >= rhs["thm_i"])
                       and np.all(rhs["thm_i"] >= rhs["thm_ii"]))

    results = []
    for name in variants:
        failed_gate = [cid for gate in _GATES[name] for cid in CHECKS[gate]
                       if cond_verdicts[cid] == "fail"]
        if name == "classical" and not classical_ok:
            reason = "needs 0 < theta0 < theta1 < 1"
        elif failed_gate:
            reason = "conditions unmet: " + ",".join(failed_gate)
        elif synthetic:
            reason = "synthetic profile has no left-hand side"
        elif not np.isfinite(ratios[name]).all():
            # a divergent norm at some grid point makes the comparison
            # meaningless rather than violated
            reason = "divergent norms at some grid points"
        else:
            reason = ""
        if reason:
            results.append(VariantResult(name, reason, math.nan, math.nan,
                                         "not_applicable"))
            continue
        r = ratios[name]
        sup = float(np.max(r))
        inf = float(np.min(r))
        ok = (sup <= budget) and (inf >= 1.0 / budget)
        results.append(VariantResult(name, "", sup, inf,
                                     "pass" if ok else "fail"))

    return EquivalenceReport(
        scenario=sc.name, grid=grid, t=ts, rho=rho, lhs_upper=lhs, rhs=rhs,
        ratios=ratios, variants=tuple(results), conditions=cond_verdicts,
        budget=float(budget), ordering_ok=ordering_ok)
