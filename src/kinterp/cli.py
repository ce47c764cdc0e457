"""Command line interface: verify / suite / conditions / sv-check."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .conditions import DEFAULT_BUDGET
from .errors import KinterpError, ScenarioError
from .quadrature import LogGrid
from .runner import EXIT_VALIDATION, run_scenario, run_suite
from .scenario import bounded_grid, load_scenario, reject_booleans
from .sv import check_sv_envelope, sv_from_json


def _add_grid_args(p):
    p.add_argument("--grid-min", type=float, default=None,
                   help="override grid t_min")
    p.add_argument("--grid-max", type=float, default=None,
                   help="override grid t_max")
    p.add_argument("--ppd", type=int, default=None,
                   help="override grid points per decade")


def _grid(args, base: LogGrid) -> LogGrid:
    """``base`` with the grid flags applied; ScenarioError naming the flag."""
    t_min = base.t_min if args.grid_min is None else args.grid_min
    t_max = base.t_max if args.grid_max is None else args.grid_max
    ppd = base.points_per_decade if args.ppd is None else args.ppd
    for flag, v in (("--grid-min", t_min), ("--grid-max", t_max)):
        if not 0.0 < v < math.inf:
            raise ScenarioError(f"{flag}: must be a positive finite real, "
                                f"got {v!r}")
    if not t_min < t_max:
        raise ScenarioError(f"--grid-min: must lie below --grid-max, got "
                            f"{t_min!r} and {t_max!r}")
    if ppd < 1:
        raise ScenarioError(f"--ppd: must be at least 1, got {ppd}")
    return bounded_grid(LogGrid(t_min, t_max, ppd), "--ppd")


def _budget(cmax: float) -> float:
    """``--cmax`` under the rule scenario files apply to ``budget``."""
    if not 1.0 < cmax < math.inf:
        raise ScenarioError(f"--cmax: must be a finite real > 1, got {cmax!r}")
    return cmax


def _out_dir(path: Path) -> Path:
    """``--out``, created if missing; ScenarioError naming the flag where it
    cannot be a directory (an existing file, say)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out: cannot create the directory {path}: "
                            f"{exc.strerror or exc}") from exc
    return path


def _apply_overrides(sc, args):
    budget = sc.budget if args.cmax is None else _budget(args.cmax)
    return replace(sc, grid=_grid(args, sc.grid), budget=budget)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinterp",
        description="Numerical verification of two-sided K-functional "
                    "estimates between K-interpolation spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one scenario end to end")
    verify.add_argument("--scenario", type=Path, required=True)
    verify.add_argument("--out", type=Path, default=Path("reports"))
    _add_grid_args(verify)
    verify.add_argument("--cmax", type=float, default=None,
                        help="override the ratio budget")

    suite = sub.add_parser("suite", help="run every scenario in a directory")
    suite.add_argument("--dir", type=Path, required=True)
    suite.add_argument("--out", type=Path, default=Path("reports"))
    suite.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: KINTERP_WORKERS or 1)")

    cond = sub.add_parser("conditions",
                          help="run only the condition checks of a scenario")
    cond.add_argument("--scenario", type=Path, required=True)
    cond.add_argument("--only", type=str, default=None,
                      help="comma separated subset, e.g. C2,C3")
    cond.add_argument("--out", type=Path, default=Path("reports"))
    _add_grid_args(cond)
    cond.add_argument("--cmax", type=float, default=None)

    svc = sub.add_parser("sv-check",
                         help="monotone-envelope scan of a slowly varying "
                              "function descriptor")
    svc.add_argument("--b", type=str, required=True,
                     help="descriptor JSON: an inline object or a file path")
    svc.add_argument("--eps", type=float, required=True)
    _add_grid_args(svc)
    svc.add_argument("--cmax", type=float, default=DEFAULT_BUDGET)
    return parser


def _print_result(result):
    for cid, rep in sorted(result.condition_reports.items()):
        print(f"{result.name}: {cid} {rep.verdict} "
              f"(sup ratio {rep.sup_ratio!r})")
    if result.equivalence is not None:
        for v in result.equivalence.variants:
            detail = (f" ({v.reason})" if v.verdict == "not_applicable"
                      else f" (ratio in [{v.inf_ratio!r}, {v.sup_ratio!r}])")
            print(f"{result.name}: {v.variant} {v.verdict}{detail}")
    if result.error:
        print(f"{result.name}: error: {result.error}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            sc = _apply_overrides(load_scenario(args.scenario), args)
            result = run_scenario(sc, _out_dir(args.out))
            _print_result(result)
            return result.exit_code

        if args.command == "suite":
            if not args.dir.is_dir():
                raise ScenarioError(f"--dir: not a directory: {args.dir}")
            summary, code = run_suite(args.dir, _out_dir(args.out),
                                      workers=args.workers)
            for row in summary["scenarios"]:
                print(f"{row['name']}: {row['status']}")
            print(f"suite: {summary['count']} scenario(s), exit {code}")
            return code

        if args.command == "conditions":
            sc = _apply_overrides(load_scenario(args.scenario), args)
            only = None
            if args.only:
                only = tuple(s.strip() for s in args.only.split(",") if s.strip())
            result = run_scenario(sc, _out_dir(args.out),
                                  checks_only=only or sc.checks)
            _print_result(result)
            return result.exit_code

        if args.command == "sv-check":
            raw = args.b
            try:
                # a descriptor is a JSON object; anything else names a file
                if not raw.lstrip().startswith("{"):
                    raw = Path(raw).read_text(encoding="utf-8")
                obj = json.loads(raw)
                reject_booleans(obj, "b")
                desc = sv_from_json(obj)
            except (OSError, ValueError, ScenarioError) as exc:
                raise ScenarioError(f"--b: {exc}") from exc
            if not 0.0 < args.eps < math.inf:
                raise ScenarioError(f"--eps: must be a positive finite real, "
                                    f"got {args.eps!r}")
            rep = check_sv_envelope(desc, args.eps, _grid(args, LogGrid()),
                                    budget=_budget(args.cmax))
            print(json.dumps(rep.summary(), indent=2, sort_keys=True))
            return 0 if rep.passed else 3
    except KinterpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
