"""Canonical weight and the separation conditions between two parameters.

The canonical weight is rho(t) = ||min(u,t)||_0 / ||min(u,t)||_1.  The four
conditions checked here compare, on a grid,

    C1 (lower):  t ||χ_(t,∞)||_0 / ||min(u,t)||_1            against rho(t)
    C1 (upper):  rho(t)                against ||min(u,t)||_0 / ||u χ_(0,t)||_1
    C2:          || χ_(0,t)(u) u / ||min(s,u)||_1 ||_0       against rho(t)
    C3:          || χ_(t,∞)(u) u / ||min(s,u)||_0 ||_1       against 1/rho(t)
    C4:  t ||χ_(t,∞)||_0   against   ||u χ_(0,t)||_0 + t rho(t) ||χ_(t,∞)||_1

A report row stores (t, lhs, rhs, lhs/rhs); the verdict is "pass" when every
ratio stays at or below the constant budget.  Budgets guard regressions:
the underlying inequalities hold only up to unspecified constants, so the
sup ratio itself is the interesting output.

Every factor table is evaluated in batched passes over the whole grid.  The
nested norms in C2/C3 are evaluated exactly at the outer quadrature nodes:
the outer integrals of all grid points, at the working and at doubled
density, share a node lattice, and the inner M is evaluated once, in one
batched call, at the union of their nodes.  The doubled-density pass is the
refinement check; its observed drift is recorded in the report metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError
from .params import (PhiParam, head_factors, min_factor, min_factors,
                     qth_root, require_membership, tail_factors)
from .quadrature import LogGrid, QuadPlan, decay_product, distinct, sup_log
from .sv import eval_sv_log, shift_integral

# Bound here though only the batched forms are called: perfbench/spans.py
# wraps these names at this layer boundary and reports a missing one.
from .params import head_factor, tail_factor  # noqa: E402,F401
from .quadrature import integral_log  # noqa: E402,F401

DEFAULT_BUDGET = 64.0
_REFINE_TOL = 1e-2

CONDITION_IDS = ("C1_lower", "C1_upper", "C2", "C3", "C4", "SV_sufficient")


@dataclass(frozen=True, eq=False)
class ConditionReport:
    condition_id: str
    t: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    sup_ratio: float
    budget: float
    verdict: str  # "pass" | "fail"
    grid: LogGrid
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def rows(self):
        for i in range(len(self.t)):
            yield (float(self.t[i]), float(self.lhs[i]),
                   float(self.rhs[i]), float(self.ratio[i]))

    def to_csv_text(self) -> str:
        lines = ["t,lhs,rhs,ratio"]
        for t, lhs, rhs, ratio in self.rows():
            lines.append(f"{t!r},{lhs!r},{rhs!r},{ratio!r}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        out = {
            "condition": self.condition_id,
            "sup_ratio": self.sup_ratio,
            "budget": self.budget,
            "verdict": self.verdict,
            "grid": self.grid.describe(),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


def _finish(condition_id, grid, ts, lhs, rhs, budget, meta=None):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lhs / rhs
    ratio = np.where((lhs == 0.0) & (rhs == 0.0), 1.0, ratio)
    bad = ~np.isfinite(ratio)
    sup = math.inf if bad.any() else float(np.max(ratio))
    verdict = "pass" if (math.isfinite(sup) and sup <= budget) else "fail"
    return ConditionReport(condition_id=condition_id, t=ts, lhs=lhs, rhs=rhs,
                           ratio=ratio, sup_ratio=sup, budget=float(budget),
                           verdict=verdict, grid=grid, meta=meta or {})


def rho_canonical(p0: PhiParam, p1: PhiParam, t: float) -> float:
    """rho(t) = ||min(u,t)||_0 / ||min(u,t)||_1 (both memberships required)."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    require_membership(p0)
    require_membership(p1)
    x = math.log(t)
    return (math.exp((p1.theta - p0.theta) * x)
            * min_factor(p0, x) / min_factor(p1, x))


def rho_table(p0: PhiParam, p1: PhiParam, grid: LogGrid) -> np.ndarray:
    """The canonical rho at every grid point, from one batched M0 and M1."""
    xs = grid.log_points()
    return (np.exp((p1.theta - p0.theta) * xs)
            * min_factors(p0, xs) / min_factors(p1, xs))


def _rho_values(p0, p1, grid, rho):
    """Evaluate the weight on the grid: canonical, callable, or table."""
    ts = grid.points()
    if rho is None:
        return rho_table(p0, p1, grid)
    if callable(rho):
        return np.asarray([float(rho(t)) for t in ts], dtype=float)
    vals = np.asarray(rho, dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("rho table must match the grid length")
    return vals


def check_C1(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """Both inequalities of C1; returns (lower_report, upper_report)."""
    require_membership(p0)
    require_membership(p1)
    xs = grid.log_points()
    ts = grid.points()
    t0 = tail_factors(p0, xs)
    m1 = min_factors(p1, xs)
    m0 = min_factors(p0, xs)
    h1 = head_factors(p1, xs)
    scale = np.exp((p1.theta - p0.theta) * xs)
    rho_v = scale * m0 / m1 if rho is None else _rho_values(p0, p1, grid, rho)
    lower = _finish("C1_lower", grid, ts, scale * t0 / m1, rho_v, budget)
    upper = _finish("C1_upper", grid, ts, rho_v, scale * m0 / h1, budget)
    return lower, upper


def _outer_integrand(p_out, inner, c_exp):
    """e^{c_exp x} b_out(x) / inner(x), raised to q_out unless q_out = inf."""

    def fn(x, rows=None):
        x = np.asarray(x, dtype=float)
        bv = eval_sv_log(p_out.b, x)
        mv = inner(x)
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            core = bv / mv
        core = np.where(np.isinf(mv), 0.0, core)
        if p_out.sup_norm:
            return decay_product(c_exp * x, core)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            cq = core ** p_out.q
        cq = np.where(core == 0.0, 0.0, cq)
        return decay_product(c_exp * p_out.q * x, cq)
    return fn


def _outer_trunc_norms(p_out, p_inner, c_exp, side, xs, ppds):
    """|| χ_side(u) e^{c_exp x} b_out(x) / M_inner(x) ||_out at each cutoff
    of xs, once per outer density in ppds.

    For finite q_out the inner M is evaluated once, in one batched call, at
    the union of every outer node; for q_out = inf each supremum search
    evaluates it at the points it probes.
    """
    if p_out.sup_norm:
        fn = _outer_integrand(p_out, lambda x: min_factors(p_inner, x), c_exp)
        out = []
        for ppd in ppds:
            row = np.empty(xs.shape)
            for i, x_t in enumerate(xs):  # q = inf: one supremum search per t
                lo, hi = (-math.inf, x_t) if side == "head" else (x_t, math.inf)
                row[i] = sup_log(fn, lo, hi, ppd=ppd,
                                 anchors=(0.0, x_t)).or_inf()
            out.append(row)
        return out
    # no far panel is skipped here although e^{c_exp q x} vanishes far out:
    # M is evaluated at every outer node, so its range errors still surface
    bounds = (-math.inf, xs) if side == "head" else (xs, math.inf)
    plans = [QuadPlan(*bounds, ppd=ppd, kinks=(0.0,)) for ppd in ppds]
    nodes = distinct([plan.points() for plan in plans])
    m = min_factors(p_inner, nodes)
    fn = _outer_integrand(p_out, lambda x: m[np.searchsorted(nodes, x)], c_exp)
    return [qth_root(p_out, plan.apply(fn)) for plan in plans]


def _nested_condition(cond_id, p_out, p_inner, c_exp, side, target, grid,
                      budget, refine):
    xs = grid.log_points()
    ts = grid.points()
    ppd = p_out.ppd
    lhs = _outer_trunc_norms(p_out, p_inner, c_exp, side, xs,
                             (ppd, 2 * ppd) if refine else (ppd,))
    meta = {}
    if refine:
        lhs, lhs2 = lhs
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = np.abs(lhs2 - lhs) / np.where(lhs2 == 0.0, 1.0, np.abs(lhs2))
        drift = drift[np.isfinite(drift)]
        worst = float(np.max(drift)) if drift.size else 0.0
        meta["refine_rel_change"] = worst
        meta["refine_ok"] = worst < _REFINE_TOL
        lhs = lhs2
    else:
        lhs = lhs[0]
    return _finish(cond_id, grid, ts, lhs, target, budget, meta)


def check_C2(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET, refine: bool = True):
    """|| χ_(0,t)(u) u ||min(s,u)||_1^{-1} ||_0  ≲  rho(t)."""
    require_membership(p0)
    require_membership(p1)
    rho_v = _rho_values(p0, p1, grid, rho)
    # u / ||min(s,u)||_1 = e^{theta1 x} / M1(x), so the outer integrand carries
    # the exact exponent (theta1 - theta0) q0
    return _nested_condition("C2", p0, p1, p1.theta - p0.theta, "head",
                             rho_v, grid, budget, refine)


def check_C3(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET, refine: bool = True):
    """|| χ_(t,∞)(u) u ||min(s,u)||_0^{-1} ||_1  ≲  1/rho(t)."""
    require_membership(p0)
    require_membership(p1)
    rho_v = _rho_values(p0, p1, grid, rho)
    with np.errstate(divide="ignore"):
        target = 1.0 / rho_v
    return _nested_condition("C3", p1, p0, p0.theta - p1.theta, "tail",
                             target, grid, budget, refine)


def check_C4(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """t ||χ_(t,∞)||_0  ≲  ||u χ_(0,t)||_0 + t rho(t) ||χ_(t,∞)||_1."""
    require_membership(p0)
    require_membership(p1)
    xs = grid.log_points()
    ts = grid.points()
    rho_v = _rho_values(p0, p1, grid, rho)
    t0 = tail_factors(p0, xs)
    h0 = head_factors(p0, xs)
    t1 = tail_factors(p1, xs)
    lhs = np.exp((1.0 - p0.theta) * xs) * t0
    rhs = (np.exp((1.0 - p0.theta) * xs) * h0
           + ts * rho_v * np.exp(-p1.theta * xs) * t1)
    return _finish("C4", grid, ts, lhs, rhs, budget)


def check_sv_sufficient(b0, q0: float, b1, q1: float, eps: float,
                        grid: LogGrid = LogGrid(), *,
                        budget: float = DEFAULT_BUDGET) -> ConditionReport:
    """Monotone-equivalence scan of B~0(t)^{1/(q0(1+eps))} / B~1(t)^{1/q1}.

    B~j(t) = ∫_t^∞ b_j^{q_j} ds/s must be finite on the grid; the scan checks
    that the ratio function is equivalent to a nondecreasing one (its running
    maximum), which is the sufficient condition for C2/C3 in the flat
    exponent regime theta0 = theta1 = 0.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if math.isinf(q0) or math.isinf(q1):
        raise ValueError("the sufficient condition needs finite q0, q1")
    xs = grid.log_points()
    ts = grid.points()

    def btilde(b, q):
        r = shift_integral(b, q, xs, 0.0, "tail")
        if r.diverged.any():
            raise DivergentIntegralError(
                "∫_t^∞ b^q ds/s diverges; sufficient condition undefined")
        return r.value

    bt0 = btilde(b0, q0)
    bt1 = btilde(b1, q1)
    f = bt0 ** (1.0 / (q0 * (1.0 + eps))) / bt1 ** (1.0 / q1)
    envelope = np.maximum.accumulate(f)
    # lhs = envelope, rhs = f: the ratio measures deviation from
    # nondecreasing behaviour and passing means it stays within budget
    return _finish("SV_sufficient", grid, ts, envelope, f, budget,
                   meta={"eps": eps})
