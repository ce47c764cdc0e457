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
minimizing over an explicit family of decompositions f = f0 + f1 (truncation
splits along the grid plus a coordinate split grid); the report carries both
ratio directions so the one-sided bias stays visible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import (DEFAULT_BUDGET, ConditionReport, check_C1, check_C2,
                         check_C3, check_C4, rho_table)
from .couples import (KProfile, StepFn, WeightedProfiles, WeightedSeq,
                      ensure_valid_kprofile, optimal_split)
from .errors import EmptyCandidateError, GuardError
from .params import (PhiParam, full_norm_profile, full_norm_profiles,
                     norm_head_u, norm_tail_char, norm_trunc_profile,
                     require_membership)
from .quadrature import LogGrid
from .sv import Constant

# Bound here though rho comes from conditions.rho_table: perfbench/spans.py
# wraps this name at this layer boundary and reports a missing one.
from .params import min_factor  # noqa: E402,F401

VARIANTS = ("lemma", "thm_i", "thm_ii", "classical")
_SPLIT_GRID_MAX_N = 6


def _terms(p0: PhiParam, p1: PhiParam, rho_t, profile: KProfile, t):
    """The four building blocks shared by all right-hand sides.

    ``rho_t`` and ``t`` may be floats or arrays of one shape; each term is
    evaluated for all of them in one batched call per parameter.
    """
    ts = np.asarray(t, dtype=float)
    xs = np.log(ts)
    k_t = np.asarray(profile.value_log(xs), dtype=float)
    a = norm_trunc_profile(p0, profile, "head", ts)
    b = rho_t * norm_trunc_profile(p1, profile, "tail", ts)
    c = norm_tail_char(p0, ts) * k_t
    d = rho_t * norm_head_u(p1, ts) * k_t / ts
    return a, b, c, d


def rhs_two_term(p0, p1, rho_t, profile, t) -> float:
    a, b, _, _ = _terms(p0, p1, rho_t, profile, t)
    return a + b


def rhs_three_term(p0, p1, rho_t, profile, t) -> float:
    a, b, c, _ = _terms(p0, p1, rho_t, profile, t)
    return (a + b) + c


def rhs_four_term(p0, p1, rho_t, profile, t) -> float:
    a, b, c, d = _terms(p0, p1, rho_t, profile, t)
    return ((a + b) + c) + d


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

    Candidate decompositions f = f0 + f1 are generated once; their norm pair
    (||K(·,f0)||_0, ||K(·,f1)||_1) is cached so evaluating the bound at a new
    scale costs one vectorized minimum.  Strategies:

    * ``truncation_family`` — the splits attaining the base K-functional at
      every grid scale (deduplicated: only coordinate-mask changes matter),
      plus the two trivial decompositions;
    * ``split_grid`` — coordinate-wise fractional splits on a uniform grid
      (weighted sequences with n <= 6 only);
    * ``combined`` — both.
    """

    def __init__(self, p0: PhiParam, p1: PhiParam, element,
                 grid: LogGrid = LogGrid(), strategy: str = "combined",
                 steps: int | None = None):
        if strategy not in ("truncation_family", "split_grid", "combined"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.p0, self.p1 = p0, p1
        self.element = element
        pairs = []
        if strategy in ("truncation_family", "combined"):
            pairs.extend(self._truncation_candidates(element, grid))
        if strategy in ("split_grid", "combined"):
            pairs.extend(self._split_grid_candidates(
                element, steps, required=(strategy == "split_grid")))
        if not pairs:
            raise EmptyCandidateError("no candidate decompositions generated")
        self.a0 = _candidate_norms(p0, [f0 for f0, _ in pairs])
        self.a1 = _candidate_norms(p1, [f1 for _, f1 in pairs])

    @staticmethod
    def _truncation_candidates(element, grid):
        if isinstance(element, WeightedSeq):
            n = element.n
            seen = {}
            for s in grid.points():
                mask = tuple(w0 <= s * w1
                             for w0, w1 in zip(element.w0, element.w1))
                if mask not in seen:
                    seen[mask] = optimal_split(element, float(s))
            zero = WeightedSeq((0.0,) * n, element.w0, element.w1)
            pairs = list(seen.values())
            pairs.append((element, zero))
            pairs.append((zero, element))
            return pairs
        if isinstance(element, StepFn):
            # level truncations: f0 = (f - c)+ concentrates the tall part
            levels = sorted(set(element.values)) + [0.0]
            pairs = []
            for c in levels:
                f0 = StepFn(element.breakpoints,
                            tuple(max(v - c, 0.0) for v in element.values))
                f1 = StepFn(element.breakpoints,
                            tuple(min(v, c) for v in element.values))
                pairs.append((f0, f1))
            pairs.append((StepFn(element.breakpoints,
                                 (0.0,) * len(element.values)),
                          element))
            return pairs
        raise TypeError("decomposition search needs a couple element")

    @staticmethod
    def _split_grid_candidates(element, steps, required):
        if not isinstance(element, WeightedSeq):
            if required:
                raise GuardError("split_grid strategy needs a WeightedSeq")
            return []
        n = element.n
        if n > _SPLIT_GRID_MAX_N:
            if required:
                raise GuardError(
                    f"split_grid strategy limited to n <= {_SPLIT_GRID_MAX_N}")
            return []
        if steps is None:
            steps = 1001 if n == 1 else (9 if n <= 3 else 3)
        if steps < 2:
            raise ValueError("steps must be >= 2")
        alphas = np.linspace(0.0, 1.0, steps)
        pairs = []
        for combo in itertools.product(alphas, repeat=n):
            f0 = tuple(a * c for a, c in zip(combo, element.coeffs))
            f1 = tuple((1.0 - a) * c for a, c in zip(combo, element.coeffs))
            pairs.append((WeightedSeq(f0, element.w0, element.w1),
                          WeightedSeq(f1, element.w0, element.w1)))
        return pairs

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


def _candidate_norms(p: PhiParam, elements) -> np.ndarray:
    """||K(·, f)|| of every candidate f.

    Weighted sequences share their weights, so at finite q all of them are
    integrated in one batched call; step functions and q = inf go one by one.
    """
    if isinstance(elements[0], WeightedSeq) and not p.sup_norm:
        return full_norm_profiles(p, WeightedProfiles.from_elements(elements))
    return np.array([full_norm_profile(p, KProfile.from_element(f))
                     for f in elements])


def lhs_outer_k(p0: PhiParam, p1: PhiParam, element, sigma: float,
                strategy: str = "combined", *, steps: int | None = None,
                grid: LogGrid = LogGrid()) -> float:
    """One-shot upper bound on K(sigma, f; A_Phi0, A_Phi1)."""
    return DecompositionSearch(p0, p1, element, grid, strategy, steps).lhs(sigma)


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

    @property
    def any_not_applicable(self) -> bool:
        return any(v.verdict == "not_applicable" for v in self.variants)


_GATES = {
    "lemma": ("C1_lower", "C1_upper", "C2", "C3"),
    "thm_i": ("C2", "C3"),
    "thm_ii": ("C2", "C3", "C4"),
    "classical": (),
}


def _needed_conditions(variants):
    need = []
    for v in variants:
        for c in _GATES[v]:
            if c not in need:
                need.append(c)
    return need


def equivalence_report(p0: PhiParam, p1: PhiParam, element,
                       grid: LogGrid = LogGrid(), *,
                       budget: float = DEFAULT_BUDGET,
                       variants=("lemma", "thm_i", "thm_ii"),
                       conditions: dict | None = None,
                       scenario: str = "",
                       steps: int | None = None,
                       rho=None) -> EquivalenceReport:
    """Run the full comparison of lhs upper bound against all RHS variants.

    ``conditions`` may carry precomputed ConditionReports; missing gates are
    evaluated here on the same grid.  ``rho`` may carry the canonical weight
    on the grid (``conditions.rho_table``); it is computed when omitted.  A
    variant whose gate conditions fail is reported "not_applicable" rather
    than failed.  Synthetic K-profiles have no computable left-hand side:
    their report carries the rhs table (and the pointwise ordering check)
    with NaN ratios.
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
    rho = (rho_table(p0, p1, grid) if rho is None
           else np.asarray(rho, dtype=float))
    cond_reports = dict(conditions or {})
    for cid in _needed_conditions(variants):
        if cid in cond_reports:
            continue
        if cid in ("C1_lower", "C1_upper"):
            lo, up = check_C1(p0, p1, rho, grid, budget=budget)
            cond_reports.setdefault("C1_lower", lo)
            cond_reports.setdefault("C1_upper", up)
        elif cid == "C2":
            cond_reports[cid] = check_C2(p0, p1, rho, grid, budget=budget)
        elif cid == "C3":
            cond_reports[cid] = check_C3(p0, p1, rho, grid, budget=budget)
        elif cid == "C4":
            cond_reports[cid] = check_C4(p0, p1, rho, grid, budget=budget)
    cond_verdicts = {cid: rep.verdict for cid, rep in cond_reports.items()}

    n = len(ts)
    a, b, c, d = _terms(p0, p1, rho, profile, ts)
    rhs = {"lemma": ((a + b) + c) + d, "thm_i": (a + b) + c, "thm_ii": a + b}
    classical_ok = 0.0 < p0.theta < p1.theta < 1.0
    if "classical" in variants and classical_ok:
        rhs["classical"] = classical_rhs(p0.theta, p0.q, p1.theta, p1.q,
                                         profile, ts)

    if couple_element is not None:
        search = DecompositionSearch(p0, p1, couple_element, grid,
                                     "combined", steps)
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
        gate = _GATES[name]
        failed_gate = [c for c in gate if cond_verdicts.get(c) == "fail"]
        if name == "classical" and not classical_ok:
            results.append(VariantResult(name, False,
                                         "needs 0 < theta0 < theta1 < 1",
                                         math.nan, math.nan, "not_applicable"))
            continue
        if failed_gate:
            results.append(VariantResult(
                name, False, "conditions unmet: " + ",".join(failed_gate),
                math.nan, math.nan, "not_applicable"))
            continue
        if couple_element is None:
            results.append(VariantResult(
                name, False, "synthetic profile has no left-hand side",
                math.nan, math.nan, "not_applicable"))
            continue
        r = ratios[name]
        if not np.isfinite(r).all():
            # a divergent norm at some grid point makes the comparison
            # meaningless rather than violated
            results.append(VariantResult(
                name, False, "divergent norms at some grid points",
                math.nan, math.nan, "not_applicable"))
            continue
        sup = float(np.max(r))
        inf = float(np.min(r))
        ok = (sup <= budget) and (inf >= 1.0 / budget)
        results.append(VariantResult(name, True, "", sup, inf,
                                     "pass" if ok else "fail"))

    return EquivalenceReport(
        scenario=scenario, grid=grid, t=ts, rho=rho, lhs_upper=lhs, rhs=rhs,
        ratios=ratios, variants=tuple(results), conditions=cond_verdicts,
        budget=float(budget), ordering_ok=ordering_ok)
