"""Scenario files: the JSON surface consumed by the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .conditions import DEFAULT_BUDGET, check_names, rho_table
from .couples import KProfile, element_from_json, ensure_valid_kprofile
from .errors import ScenarioError
from .estimates import VARIANTS
from .params import PhiParam, phi_from_json, require_membership
from .quadrature import LogGrid

_DEFAULT_GRID = LogGrid(1e-8, 1e8, 16)
#: most points a grid may have (a grid of 1e-300 to 1e300 at 166 points per
#: decade has 99,601)
MAX_GRID_POINTS = 100_000
_DEFAULT_CHECKS = ("C1", "C2", "C3", "C4")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A scenario, keeping the K-profile, rho and reports its runs use."""

    name: str
    phi0: PhiParam
    phi1: PhiParam
    element: object                      # WeightedSeq | StepFn | KProfile
    grid: LogGrid = field(default=_DEFAULT_GRID)
    budget: float = DEFAULT_BUDGET
    checks: tuple = _DEFAULT_CHECKS
    variants: tuple = ("thm_ii",)
    sv_epsilon: float = 0.1
    #: condition id -> its report, kept the first time its check runs
    reports: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def profile(self) -> KProfile:
        """The element's K-profile (a synthetic one is its own), validated
        on the grid: InvariantViolation unless quasi-concave there."""
        profile = (self.element if isinstance(self.element, KProfile)
                   else KProfile.from_element(self.element))
        return ensure_valid_kprofile(profile, self.grid)

    @cached_property
    def rho(self):
        """The canonical weight on the grid as a read-only array;
        MembershipError unless min(1, t) lies in both parameters."""
        require_membership(self.phi0)
        require_membership(self.phi1)
        rho = rho_table(self.phi0, self.phi1, self.grid)
        rho.setflags(write=False)
        return rho


def reject_booleans(obj, path: str = ""):
    """ScenarioError naming the first JSON boolean in obj.  No field of a
    scenario or a weight descriptor is boolean, and Python's float() and
    int() would read true as 1."""
    if isinstance(obj, bool):
        raise ScenarioError(f"{path}: expected a number or a string, got "
                            f"{json.dumps(obj)}")
    if isinstance(obj, dict):
        for key, v in obj.items():
            reject_booleans(v, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            reject_booleans(v, f"{path}[{i}]")


def _grid_from_json(obj, path):
    if obj is None:
        return _DEFAULT_GRID
    try:
        ppd = obj.get("points_per_decade", _DEFAULT_GRID.points_per_decade)
        if isinstance(ppd, float) and not ppd.is_integer():
            raise ValueError(
                f"points_per_decade must be an integer, got {ppd!r}")
        grid = LogGrid(t_min=float(obj.get("t_min", _DEFAULT_GRID.t_min)),
                       t_max=float(obj.get("t_max", _DEFAULT_GRID.t_max)),
                       points_per_decade=int(ppd))
    except (TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return bounded_grid(grid, f"{path}.points_per_decade")


def bounded_grid(grid: LogGrid, name: str) -> LogGrid:
    """``grid``, or a ScenarioError naming ``name`` where it has more than
    MAX_GRID_POINTS points; counted before any point exists."""
    n = grid.size()
    if n > MAX_GRID_POINTS:
        raise ScenarioError(
            f"{name}: gives {n:.3g} grid points from {grid.t_min:g} to "
            f"{grid.t_max:g}, more than {MAX_GRID_POINTS}")
    return grid


def scenario_from_json(obj: dict, *, name_hint: str = "") -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: expected a JSON object")
    reject_booleans(obj)
    name = str(obj.get("name") or name_hint or "scenario")
    # the name becomes the stem of every report file in --out
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"name: {name!r} cannot name a report file "
                            "(no '/', '\\' or NUL, and not '.' or '..')")
    try:
        phi0 = phi_from_json(obj["phi0"], "phi0")
        phi1 = phi_from_json(obj["phi1"], "phi1")
        element = element_from_json(obj["element"], "element")
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing field {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    grid = _grid_from_json(obj.get("grid"), "grid")

    budget = obj.get("budget", DEFAULT_BUDGET)
    if not (isinstance(budget, (int, float)) and budget > 1.0
            and math.isfinite(budget)):
        raise ScenarioError("budget: must be a finite real > 1")

    checks = check_names(obj.get("checks", _DEFAULT_CHECKS))

    variants = obj.get("variants", ("thm_ii",))
    if not isinstance(variants, (list, tuple)):
        raise ScenarioError(f"variants: expected a list, got {variants!r}")
    if not variants:
        raise ScenarioError("variants: at least one variant is required")
    for v in variants:
        if v not in VARIANTS:
            raise ScenarioError(f"variants: unknown variant {v!r}; "
                                f"expected one of {VARIANTS}")
    variants = tuple(dict.fromkeys(variants))  # one row per variant

    eps = obj.get("sv_epsilon", 0.1)
    if not (isinstance(eps, (int, float)) and 0.0 < eps < math.inf):
        raise ScenarioError("sv_epsilon: must be a positive finite real")

    return Scenario(name=name, phi0=phi0, phi1=phi1, element=element,
                    grid=grid, budget=float(budget), checks=checks,
                    variants=variants, sv_epsilon=float(eps))


def load_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    return scenario_from_json(obj, name_hint=path.stem)
