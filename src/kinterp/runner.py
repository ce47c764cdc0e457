"""Scenario orchestration and report emission.

Exit codes: 0 all pass, 2 equivalence violated, 3 conditions unmet only,
4 validation error.  Report files (CSV per condition, one equivalence CSV,
one JSON summary per scenario) are written atomically and are bitwise
deterministic for a fixed scenario.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import KinterpError, ScenarioError
from .estimates import equivalence_report, run_checks
from .scenario import Scenario, load_scenario

# Bound here though estimates.run_checks calls them: perfbench/spans.py
# wraps these names at this layer boundary and reports a missing one.
from .conditions import (check_C1, check_C2, check_C3,  # noqa: E402,F401
                         check_C4, check_sv_sufficient)

EXIT_OK = 0
EXIT_EQUIVALENCE = 2
EXIT_CONDITIONS = 3
EXIT_VALIDATION = 4

WORKERS_ENV = "KINTERP_WORKERS"


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    name: str
    exit_code: int
    condition_reports: dict = field(default_factory=dict)
    equivalence: object = None
    error: str = ""
    files: tuple = ()

    @property
    def status(self) -> str:
        return {EXIT_OK: "pass", EXIT_EQUIVALENCE: "equivalence_violated",
                EXIT_CONDITIONS: "conditions_unmet",
                EXIT_VALIDATION: "error"}[self.exit_code]


def run_scenario(sc: Scenario, out_dir: Path | str = "reports", *,
                 checks_only=None) -> ScenarioResult:
    """Run requested condition checks, then the equivalence comparison.

    Writes one CSV per condition, the equivalence CSV, and a JSON summary
    into ``out_dir``.  ``checks_only`` restricts the run to condition checks
    (no equivalence), as used by the ``conditions`` CLI command.  ``sc``
    keeps what the run computes, so a later run on it reuses that.
    """
    out_dir = Path(out_dir)
    files = []
    try:
        sc.profile  # an invalid element fails before any check runs
        cond_reports = run_checks(
            sc, sc.checks if checks_only is None else checks_only)
        equivalence = (equivalence_report(sc) if checks_only is None
                       else None)
    except KinterpError as exc:
        summary = {"scenario": sc.name, "status": "error",
                   "error": str(exc), "exit_code": EXIT_VALIDATION}
        path = out_dir / f"{sc.name}.summary.json"
        _atomic_write(path, _json_text(summary))
        return ScenarioResult(sc.name, EXIT_VALIDATION, {}, None, str(exc),
                              (path,))

    for cid, rep in sorted(cond_reports.items()):
        path = out_dir / f"{sc.name}.{cid}.csv"
        _atomic_write(path, rep.to_csv_text())
        files.append(path)
    conditions_failed = any(rep.verdict == "fail"
                            for rep in cond_reports.values())

    eq_failed = False
    summary = {"scenario": sc.name,
               "conditions": {cid: rep.summary()
                              for cid, rep in cond_reports.items()}}
    if equivalence is not None:
        path = out_dir / f"{sc.name}.equivalence.csv"
        _atomic_write(path, equivalence.to_csv_text())
        files.append(path)
        eq_failed = equivalence.any_failed
        conditions_failed |= any(v == "fail"
                                 for v in equivalence.conditions.values())
        summary["equivalence"] = equivalence.summary()
        summary["ordering_ok"] = equivalence.ordering_ok

    if eq_failed:
        code = EXIT_EQUIVALENCE
    elif conditions_failed:
        code = EXIT_CONDITIONS
    else:
        code = EXIT_OK
    summary["exit_code"] = code
    summary["status"] = ScenarioResult(sc.name, code).status
    path = out_dir / f"{sc.name}.summary.json"
    _atomic_write(path, _json_text(summary))
    files.append(path)
    return ScenarioResult(sc.name, code, cond_reports, equivalence, "",
                          tuple(files))


def default_workers() -> int:
    """KINTERP_WORKERS when set to an integer, else 1: on two threads the
    bundled suite took longer than serially."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_suite(directory: Path | str, out_dir: Path | str = "reports", *,
              workers: int | None = None):
    """Run every scenario file in a directory; errors are isolated per file.

    Returns (summary_dict, exit_code).  Exit code priority: equivalence
    violation (2) over conditions unmet (3) over per-scenario errors (4).
    """
    directory = Path(directory)
    out_dir = Path(out_dir)
    paths = sorted(directory.glob("*.json"))
    workers = workers or default_workers()

    def one(path: Path):
        try:
            sc = load_scenario(path)
        except ScenarioError as exc:
            return ScenarioResult(path.stem, EXIT_VALIDATION, {}, None,
                                  str(exc))
        return run_scenario(sc, out_dir)

    if workers > 1 and len(paths) > 1:
        # imported here: it loads logging and queue, which a serial run,
        # and every CLI start, would pay for
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, paths))
    else:
        results = [one(p) for p in paths]

    codes = [r.exit_code for r in results]
    if EXIT_EQUIVALENCE in codes:
        code = EXIT_EQUIVALENCE
    elif EXIT_CONDITIONS in codes:
        code = EXIT_CONDITIONS
    elif EXIT_VALIDATION in codes:
        code = EXIT_VALIDATION
    else:
        code = EXIT_OK
    summary = {
        "scenarios": [{"name": r.name, "status": r.status,
                       "exit_code": r.exit_code,
                       **({"error": r.error} if r.error else {})}
                      for r in results],
        "count": len(results),
        "exit_code": code,
    }
    _atomic_write(Path(out_dir) / "suite-summary.json", _json_text(summary))
    return summary, code


def bundled_scenario_dir() -> Path:
    """Directory with the scenarios shipped inside the package."""
    return Path(resources.files("kinterp") / "scenarios")


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_dir() / f"{name}.json")
