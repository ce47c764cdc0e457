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

``run_checks`` runs the checks named in ``conditions.CHECKS``: the runner's
and the gates (``_GATES``) that ``equivalence_report`` is not given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import (CHECKS, DEFAULT_BUDGET, ConditionReport, check_C1,
                         check_C2, check_C3, check_C4, check_names,
                         check_sv_sufficient, rho_table)
from .couples import KProfile, WeightedSeq, atoms, ensure_valid_kprofile
from .errors import EmptyCandidateError
from .params import (PhiParam, full_norm_profiles, norm_head_u,
                     norm_tail_char, norm_trunc_profile, require_membership)
from .quadrature import LogGrid
from .sv import Constant

# Bound here though rho comes from conditions.rho_table and the candidates'
# norms from full_norm_profiles: perfbench/spans.py wraps these names at this
# layer boundary and reports a missing one.
from .params import full_norm_profile, min_factor  # noqa: E402,F401

VARIANTS = ("lemma", "thm_i", "thm_ii", "classical")
_SPLIT_GRID_MAX_N = 6


def _terms(p0: PhiParam, p1: PhiParam, rho_t, profile: KProfile, t):
    """The four building blocks shared by all right-hand sides.

    ``rho_t`` and ``t`` may be floats or arrays of one shape; each term is
    evaluated for all of them in one batched call per parameter.  ``t`` may
    also be a LogGrid: then the c and d terms read the T0 and H1 that the
    parameters keep on it.
    """
    if isinstance(t, LogGrid):
        xs, ts = t.log_points(), t.points()
    else:
        ts = np.asarray(t, dtype=float)
        xs = np.log(ts)
    k_t = np.asarray(profile.value_log(xs), dtype=float)
    a = norm_trunc_profile(p0, profile, "head", ts)
    b = rho_t * norm_trunc_profile(p1, profile, "tail", ts)
    c = norm_tail_char(p0, t) * k_t
    d = rho_t * norm_head_u(p1, t) * k_t / ts
    return a, b, c, d


def _variant_sums(a, b, c, d) -> dict:
    """Each variant's right-hand side from the terms of ``_terms``; every sum
    extends the previous one, so four >= three >= two holds exactly."""
    two = a + b
    return {"lemma": (two + c) + d, "thm_i": two + c, "thm_ii": two}


def rhs_two_term(p0, p1, rho_t, profile, t) -> float:
    return _variant_sums(*_terms(p0, p1, rho_t, profile, t))["thm_ii"]


def rhs_three_term(p0, p1, rho_t, profile, t) -> float:
    return _variant_sums(*_terms(p0, p1, rho_t, profile, t))["thm_i"]


def rhs_four_term(p0, p1, rho_t, profile, t) -> float:
    return _variant_sums(*_terms(p0, p1, rho_t, profile, t))["lemma"]


def classical_rhs(theta0: float, q0: float, theta1: float, q1: float,
                  profile: KProfile, t):
    """Two-term estimate with the pure-power weight t^{theta1-theta0}.

    Valid for 0 < theta0 < theta1 < 1; agrees with the canonical two-term
    right-hand side for constant b up to the constant absorbed in rho.
    ``t`` may be a float or an array.
    """
    if not (0.0 < theta0 < theta1 < 1.0):
        raise ValueError("classical form needs 0 < theta0 < theta1 < 1")
    pa = PhiParam(theta0, q0, Constant(1.0))
    pb = PhiParam(theta1, q1, Constant(1.0))
    head = norm_trunc_profile(pa, profile, "head", t)
    tail = norm_trunc_profile(pb, profile, "tail", t)
    return head + np.power(t, theta1 - theta0) * tail


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

    def lhs(self, sigma: float) -> float:
        """min over candidates of ||K(·,f0)||_0 + sigma ||K(·,f1)||_1."""
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        with np.errstate(invalid="ignore"):
            costs = self.a0 + sigma * self.a1
        costs = costs[np.isfinite(costs)]
        if costs.size == 0:
            raise EmptyCandidateError(
                "every candidate decomposition has infinite cost")
        return float(np.min(costs))


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


def lhs_outer_k(p0: PhiParam, p1: PhiParam, element, sigma: float, *,
                grid: LogGrid = LogGrid()) -> float:
    """One-shot upper bound on K(sigma, f; A_Phi0, A_Phi1)."""
    return DecompositionSearch(p0, p1, element, grid).lhs(sigma)


@dataclass(frozen=True, eq=False)
class VariantResult:
    variant: str
    applicable: bool
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
        lines = [",".join(cols)]
        for i in range(len(self.t)):
            row = [self.t[i], self.rho[i], self.lhs_upper[i],
                   self.rhs["lemma"][i], self.rhs["thm_i"][i],
                   self.rhs["thm_ii"][i], self.ratios["lemma"][i],
                   self.ratios["thm_i"][i], self.ratios["thm_ii"][i]]
            if has_classical:
                row += [self.rhs["classical"][i], self.ratios["classical"][i]]
            lines.append(",".join(repr(float(v)) for v in row))
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


_GATES = {
    "lemma": ("C1_lower", "C1_upper", "C2", "C3"),
    "thm_i": ("C2", "C3"),
    "thm_ii": ("C2", "C3", "C4"),
    "classical": (),
}


def run_checks(p0: PhiParam, p1: PhiParam, names, grid: LogGrid, *,
               budget: float, sv_epsilon: float) -> dict:
    """Run each named condition check once, in the order first named, and
    return its reports by condition id.

    C1-C4 require min(1, t) in both parameters.  They read rho and the
    factors on the grid from the parameters, which compute each once.
    """
    # each check's reports, in the order of its ids in CHECKS; the names are
    # looked up at call time, so wrappers set on this module are called
    run = {
        "C1": lambda: check_C1(p0, p1, None, grid, budget=budget),
        "C2": lambda: (check_C2(p0, p1, None, grid, budget=budget),),
        "C3": lambda: (check_C3(p0, p1, None, grid, budget=budget),),
        "C4": lambda: (check_C4(p0, p1, None, grid, budget=budget),),
        "SV_sufficient": lambda: (check_sv_sufficient(
            p0.b, p0.q, p1.b, p1.q, sv_epsilon, grid, budget=budget),),
    }
    reports = {}
    for name in dict.fromkeys(check_names(names)):
        reports.update(zip(CHECKS[name], run[name]()))
    return reports


def equivalence_report(p0: PhiParam, p1: PhiParam, element,
                       grid: LogGrid = LogGrid(), *,
                       budget: float = DEFAULT_BUDGET,
                       variants=("lemma", "thm_i", "thm_ii"),
                       conditions: dict | None = None,
                       scenario: str = "") -> EquivalenceReport:
    """Run the full comparison of lhs upper bound against all RHS variants.

    ``conditions`` may carry precomputed ConditionReports; missing gates are
    evaluated here on the same grid.  A variant whose gate conditions fail is
    reported "not_applicable" rather than failed.  Synthetic K-profiles have
    no computable left-hand side: their report carries the rhs table (and
    the pointwise ordering check) with NaN ratios.
    """
    variants = tuple(variants)
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    if not variants:
        raise ValueError("at least one variant is required")
    require_membership(p0)
    require_membership(p1)

    if isinstance(element, KProfile):
        profile, couple_element = element, None
    else:
        profile, couple_element = KProfile.from_element(element), element
    ensure_valid_kprofile(profile, grid)

    ts = grid.points()
    rho = rho_table(p0, p1, grid)
    cond_reports = dict(conditions or {})
    missing = {cid for v in variants for cid in _GATES[v]} - set(cond_reports)
    gate_checks = [name for name, ids in CHECKS.items()
                   if missing.intersection(ids)]
    gates = run_checks(p0, p1, gate_checks, grid, budget=budget,
                       sv_epsilon=None)
    for cid, rep in gates.items():
        cond_reports.setdefault(cid, rep)
    cond_verdicts = {cid: rep.verdict for cid, rep in cond_reports.items()}

    n = len(ts)
    rhs = _variant_sums(*_terms(p0, p1, rho, profile, grid))
    classical_ok = 0.0 < p0.theta < p1.theta < 1.0
    if "classical" in variants and classical_ok:
        rhs["classical"] = classical_rhs(p0.theta, p0.q, p1.theta, p1.q,
                                         profile, ts)

    if couple_element is not None:
        search = DecompositionSearch(p0, p1, couple_element, grid)
        lhs = np.array([search.lhs(float(r)) for r in rho])
    else:
        lhs = np.full(n, math.nan)

    ratios = {}
    for name, vals in rhs.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[name] = np.where((lhs == 0.0) & (vals == 0.0), 1.0,
                                    lhs / vals)

    ordering_ok = bool(np.all(rhs["lemma"] >= rhs["thm_i"] - 0.0)
                       and np.all(rhs["thm_i"] >= rhs["thm_ii"] - 0.0))

    results = []
    for name in variants:
        failed_gate = [c for c in _GATES[name]
                       if cond_verdicts.get(c) == "fail"]
        if name == "classical" and not classical_ok:
            reason = "needs 0 < theta0 < theta1 < 1"
        elif failed_gate:
            reason = "conditions unmet: " + ",".join(failed_gate)
        elif couple_element is None:
            reason = "synthetic profile has no left-hand side"
        elif not np.isfinite(ratios[name]).all():
            # a divergent norm at some grid point makes the comparison
            # meaningless rather than violated
            reason = "divergent norms at some grid points"
        else:
            reason = ""
        if reason:
            results.append(VariantResult(name, False, reason, math.nan,
                                         math.nan, "not_applicable"))
            continue
        r = ratios[name]
        sup = float(np.max(r))
        inf = float(np.min(r))
        ok = (sup <= budget) and (inf >= 1.0 / budget)
        results.append(VariantResult(name, True, "", sup, inf,
                                     "pass" if ok else "fail"))

    return EquivalenceReport(
        scenario=scenario, grid=grid, t=ts, rho=rho, lhs_upper=lhs, rhs=rhs,
        ratios=ratios, variants=tuple(results), conditions=cond_verdicts,
        budget=float(budget), ordering_ok=ordering_ok)
