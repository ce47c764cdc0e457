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

Each parameter computes its factors on the grid once and keeps them, so
rho, C1 and C4 read the same ones; for finite q at a rate != 0 with no
closed form, H and T there are one sweep along the grid's points
(``params._shift_factors``).  The outer norms of C2/C3 at all grid points
are, at the working and at doubled density, one quadrature row cut at every
grid point (``quadrature.truncated_pows``), and the outer integrand, inner
M included, is evaluated once at the sorted distinct nodes of both rows.
The rows skip the far panels on which the outer weight e^{c q x} (e^{c x}
at q = inf) is exactly 0.0, so M is not evaluated there, nor can it leave
double range there.  For a finite-q inner parameter with 0 < theta < 1, H^q
and T^q come from one sweep per side along the nodes where the outer weight
is not 0.0 (``params.swept_min_factors``; M is +inf, the core 0, at the
others, such as the tail-fit probes); a swept value depends on the node
set, which the grid fixes, so reports stay deterministic.  At q_out = inf
the row is reduced by a running maximum, and the points that polish it read
M from the sweep's carry: one step of it from the nearest node.  The
doubled-density row is the refinement check; its drift goes in the meta.

``CHECKS`` is the one list of checks that scenarios and ``--only`` may name;
``CONDITION_IDS`` follows from it, and ``estimates.run_checks`` runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError, ScenarioError
from .params import (PhiParam, head_factors, min_factors, qth_root,
                     require_membership, swept_min_factors, tail_factors)
from .quadrature import LogGrid, truncated_pows
from .sv import eval_sv_log, shift_integral

# Bound here though this module calls none of them: perfbench/spans.py
# wraps these names at this layer boundary and reports a missing one.
from .params import head_factor, min_factor, tail_factor  # noqa: E402,F401
from .quadrature import integral_log, sup_log  # noqa: E402,F401

DEFAULT_BUDGET = 64.0
_REFINE_TOL = 1e-2

#: check name -> the ids of the reports it produces
CHECKS = {
    "C1": ("C1_lower", "C1_upper"),
    "C2": ("C2",),
    "C3": ("C3",),
    "C4": ("C4",),
    "SV_sufficient": ("SV_sufficient",),
}
CONDITION_IDS = tuple(cid for ids in CHECKS.values() for cid in ids)


def check_names(names) -> tuple:
    """``names`` as a tuple; ScenarioError unless a list of keys of CHECKS."""
    if not isinstance(names, (list, tuple)):
        raise ScenarioError(f"checks: expected a list of names, got {names!r}")
    unknown = [c for c in names if not (isinstance(c, str) and c in CHECKS)]
    if unknown:
        raise ScenarioError(f"checks: unknown condition(s) {unknown}; "
                            f"expected a subset of {tuple(CHECKS)}")
    return tuple(names)


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
        """(t, lhs, rhs, ratio) per grid point, as Python floats."""
        return zip(*(np.asarray(a, dtype=float).tolist()
                     for a in (self.t, self.lhs, self.rhs, self.ratio)))

    def to_csv_text(self) -> str:
        lines = ["t,lhs,rhs,ratio"]
        lines.extend(",".join(map(repr, row)) for row in self.rows())
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


def rho_table(p0: PhiParam, p1: PhiParam, grid: LogGrid) -> np.ndarray:
    """The canonical rho at every grid point, from the M0 and M1 on the grid
    that the parameters hold."""
    return (np.exp((p1.theta - p0.theta) * grid.log_points())
            * min_factors(p0, grid) / min_factors(p1, grid))


def _rho_values(p0, p1, grid, rho):
    """Require min(1, t) in both parameters, then the weight on the grid:
    the canonical one for None, else ``rho`` as a table."""
    require_membership(p0)
    require_membership(p1)
    if rho is None:
        return rho_table(p0, p1, grid)
    vals = np.asarray(rho, dtype=float)
    if vals.shape != grid.log_points().shape:
        raise ValueError("rho table must match the grid length")
    return vals


def check_C1(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """Both inequalities of C1; returns (lower_report, upper_report)."""
    rho_v = _rho_values(p0, p1, grid, rho)
    ts = grid.points()
    scale = np.exp((p1.theta - p0.theta) * grid.log_points())
    lower = scale * tail_factors(p0, grid) / min_factors(p1, grid)
    upper = scale * min_factors(p0, grid) / head_factors(p1, grid)
    return (_finish("C1_lower", grid, ts, lower, rho_v, budget),
            _finish("C1_upper", grid, ts, rho_v, upper, budget))


def _outer_trunc_norms(p_out, p_inner, c_exp, side, xs, ppds):
    """|| χ_side(u) e^{c_exp x} b_out(x) / M_inner(x) ||_out (0 where
    M_inner is +inf) at each cutoff of xs, once per outer density in ppds:
    M_inner swept along the nodes of ``truncated_pows`` where the outer
    weight (e^{c_exp q_out x}, e^{c_exp x} at q_out = inf) is not 0.0 (+inf
    at the others, where the integrand is 0 whatever M is), and at the
    points that polish a supremum at q_out = inf (``core`` called with
    rows) carried from those nodes by the sweep's carry
    (``params.swept_min_factors``).
    """
    rate = c_exp if p_out.sup_norm else c_exp * p_out.q
    carry = None  # M at the points that polish, from the latest sweep

    def core(x, rows):
        nonlocal carry
        if rows is not None:  # the points that polish a supremum
            m = carry(x)
        else:
            with np.errstate(under="ignore", over="ignore"):
                live = np.exp(rate * x[0]) > 0.0
            m = np.full(x.shape, math.inf)
            m[0, live], carry = swept_min_factors(p_inner, x[0, live])
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            c = eval_sv_log(p_out.b, x) / m
        return np.where(np.isinf(m), 0.0, c)

    end = -math.inf if side == "head" else math.inf
    return [qth_root(p_out, r) for r in truncated_pows(
        end, xs, core, c_exp, p_out.q, ppds=ppds, kinks=(0.0,))]


def _nested_condition(cond_id, p_out, p_inner, c_exp, side, target, grid,
                      budget):
    """The outer norms at the working density and at twice it; the report
    carries the finer ones and the worst relative drift between the two."""
    ppd = p_out.ppd
    lhs, lhs2 = _outer_trunc_norms(p_out, p_inner, c_exp, side,
                                   grid.log_points(), (ppd, 2 * ppd))
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(lhs2 - lhs) / np.where(lhs2 == 0.0, 1.0, np.abs(lhs2))
    drift = drift[np.isfinite(drift)]
    worst = float(np.max(drift)) if drift.size else 0.0
    meta = {"refine_rel_change": worst, "refine_ok": worst < _REFINE_TOL}
    return _finish(cond_id, grid, grid.points(), lhs2, target, budget, meta)


def check_C2(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """|| χ_(0,t)(u) u ||min(s,u)||_1^{-1} ||_0  ≲  rho(t)."""
    rho_v = _rho_values(p0, p1, grid, rho)
    # u / ||min(s,u)||_1 = e^{theta1 x} / M1(x), so the outer integrand carries
    # the exact exponent (theta1 - theta0) q0
    return _nested_condition("C2", p0, p1, p1.theta - p0.theta, "head",
                             rho_v, grid, budget)


def check_C3(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """|| χ_(t,∞)(u) u ||min(s,u)||_0^{-1} ||_1  ≲  1/rho(t)."""
    rho_v = _rho_values(p0, p1, grid, rho)
    with np.errstate(divide="ignore"):
        target = 1.0 / rho_v
    return _nested_condition("C3", p1, p0, p0.theta - p1.theta, "tail",
                             target, grid, budget)


def check_C4(p0: PhiParam, p1: PhiParam, rho=None, grid: LogGrid = LogGrid(),
             *, budget: float = DEFAULT_BUDGET):
    """t ||χ_(t,∞)||_0  ≲  ||u χ_(0,t)||_0 + t rho(t) ||χ_(t,∞)||_1."""
    rho_v = _rho_values(p0, p1, grid, rho)
    xs = grid.log_points()
    ts = grid.points()
    lhs = np.exp((1.0 - p0.theta) * xs) * tail_factors(p0, grid)
    rhs = (np.exp((1.0 - p0.theta) * xs) * head_factors(p0, grid)
           + rho_v * np.exp((1.0 - p1.theta) * xs) * tail_factors(p1, grid))
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
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
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
