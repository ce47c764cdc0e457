"""Benchmark for kinterp: time to a verified report, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kinterp is imported from its ``src``.
Every pass runs in a fresh interpreter (``child.py``), one at a time, so the
package's module caches start empty as they do for a CLI user.

--trace 0 runs set-up-only children, then pairs of passes (one serial, one
with run_suite's default worker count) while the --seconds budget allows,
and reports the end-to-end metrics.  --trace 1 runs one untraced serial
pass, one traced serial pass and one default pass, and reports the
per-layer metrics.  Both modes check every report they produce.  The last
line of standard output is the JSON result; the environment and the raw
samples go to perfbench/.results/.

On a shared virtual machine a vCPU's speed can drift by up to 2x over
seconds, so suite_s and scenario_s.max are reported at a fixed reference
speed: each stretch of measured time is scaled by CAL_REF_S over the time
that child.py's calibration loop took around it, on the same thread (see
``scaled``); only serial passes are calibrated. setup_s and suite_default_s
are reported as measured: the loop did not follow them, and scaling made
them noisier. The unscaled times are kept in the results file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import rules  # noqa: E402
from spans import PER_LAYER_UNITS, layer_metrics, load_spans  # noqa: E402

#: a run must end well inside the 180 s the caller allows
BUDGET_S = 165.0
#: set-up-only children per end-to-end run (after one discarded warm-up
#: that compiles the bytecode)
SETUP_CHILDREN = 8
#: times are reported at a fixed host speed, the one at which one run of
#: child.py's calibration loop takes CAL_REF_S (about its time on an
#: uncontended 2.1 GHz Xeon core)
CAL_REF_S = 0.013
#: relative tolerance against the recorded bundled-suite baseline; the
#: ROADMAP allows refactors to move ratios by 1e-10
BASELINE_RTOL = 1e-9
_DEFAULT_GRID = {"t_min": 1e-8, "t_max": 1e8, "points_per_decade": 16}

END_TO_END_UNITS = {
    "suite_s": "s", "suite_default_s": "s", "scenario_s.max": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
    "completed_share": "fraction", "checks_passed_share": "fraction",
}


class BenchError(RuntimeError):
    pass


# -- children ----------------------------------------------------------------

def spawn(mode, workload, seed, pass_dir: Path, deadline: float) -> dict:
    pass_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--dir", str(pass_dir)]
    log_path = pass_dir / "child.log"
    t0 = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:  # timed out, or this process is stopping
                proc.kill()
                proc.wait()
    if rc is None:
        raise BenchError(f"{mode} pass did not finish within the run budget")
    if rc != 0:
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{mode} child exited with {rc}:\n{tail}")
    res = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
    res["setup_s"] = res["t_first"] - t0
    res["dir"] = str(pass_dir)
    return res


# -- output checks -----------------------------------------------------------

def grid_points(grid: dict) -> list:
    """The t values of a LogGrid, computed independently of kinterp."""
    g = {**_DEFAULT_GRID, **(grid or {})}
    d0, d1 = math.log10(g["t_min"]), math.log10(g["t_max"])
    n = max(1, round((d1 - d0) * g["points_per_decade"]))
    return [math.exp(math.log(10.0) * (d0 + (d1 - d0) * i / n))
            for i in range(n + 1)]


def _csv_rows_match(path: Path, ts: list) -> bool:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(ts) + 1:
        return False
    got = [float(line.split(",", 1)[0]) for line in lines[1:]]
    return all(abs(a - b) <= 1e-12 * b for a, b in zip(got, ts))


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= BASELINE_RTOL * max(abs(a), abs(b))
    return a == b


def outcome_digest(summary: dict) -> dict:
    """Exit code, verdicts and ratios of one summary (the baseline's shape)."""
    return {
        "exit_code": summary["exit_code"],
        "conditions": {cid: {"verdict": c["verdict"], "sup_ratio": c["sup_ratio"]}
                       for cid, c in summary.get("conditions", {}).items()},
        "equivalence": [{k: v[k] for k in ("variant", "verdict", "sup_ratio",
                                            "inf_ratio")}
                        for v in summary.get("equivalence", [])],
    }


def _matches_baseline(got: dict, want: dict) -> bool:
    if got["exit_code"] != want["exit_code"]:
        return False
    if sorted(got["conditions"]) != sorted(want["conditions"]):
        return False
    for cid, c in want["conditions"].items():
        g = got["conditions"][cid]
        if g["verdict"] != c["verdict"] or not _close(g["sup_ratio"], c["sup_ratio"]):
            return False
    if len(got["equivalence"]) != len(want["equivalence"]):
        return False
    return all(g["variant"] == w["variant"] and g["verdict"] == w["verdict"]
               and _close(g["sup_ratio"], w["sup_ratio"])
               and _close(g["inf_ratio"], w["inf_ratio"])
               for g, w in zip(got["equivalence"], want["equivalence"]))


def check_pass(scenarios: list, res: dict, baseline: dict | None):
    """(failures, checks, digests) for one pass.

    A failure is a scenario that raised or exited 4: the generated inputs
    are valid, so exit 4 is never a correct answer.  Each check is
    (scenario, name, passed).
    """
    out = Path(res["dir"]) / "out"
    raised = {s.get("name") or s.get("file"): s["raised"]
              for s in res.get("scenarios", []) if "raised" in s}
    failures, checks, digests = [], [], {}
    for fname, sc in scenarios:
        name = sc["name"]
        summary_path = out / f"{name}.summary.json"
        if res.get("raised") or name in raised or fname in raised \
                or not summary_path.exists():
            failures.append((name, raised.get(name) or raised.get(fname)
                             or res.get("raised") or "no report"))
            continue
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if summary["exit_code"] == 4:
            failures.append((name, summary.get("error", "exit 4")))
            continue
        files = sorted(out.glob(f"{name}.*"))
        h = hashlib.sha256()
        for f in files:
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        digests[name] = h.hexdigest()
        ts = grid_points(sc.get("grid"))
        for f in files:
            if f.suffix == ".csv":
                checks.append((name, f"rows:{f.name}", _csv_rows_match(f, ts)))
        if "equivalence" in summary:
            checks.append((name, "ordering_ok", summary.get("ordering_ok") is True))
        if baseline is not None:
            want = baseline.get(name)
            checks.append((name, "baseline", want is not None and
                           _matches_baseline(outcome_digest(summary), want)))
    return failures, checks, digests


def check_all(scenarios, passes, baseline):
    """Check every pass; marks each pass's failed scenario names in "failed"."""
    attempted, failures, checks, first = 0, [], [], {}
    for res in passes:
        f, c, digests = check_pass(scenarios, res, baseline)
        res["failed"] = {name for name, _ in f}
        attempted += len(scenarios)
        failures += [(res["mode"], *x) for x in f]
        checks += [(res["mode"], *x) for x in c]
        for name, d in digests.items():
            if name in first:
                checks.append((res["mode"], name, "identical_reports",
                               d == first[name]))
            else:
                first[name] = d
    return attempted, failures, checks


# -- environment ----------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, passes: list) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": passes[0]["python"], "numpy": passes[0]["numpy"],
            "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "default_workers": max(p["workers"] for p in passes)}


# -- the two modes ----------------------------------------------------------------

def run_end_to_end(args, work: Path, deadline: float):
    setups = []
    spawn("setup", args.workload, args.seed, work / "warmup", deadline)
    t_start = time.monotonic()
    for i in range(SETUP_CHILDREN):
        setups.append(spawn("setup", args.workload, args.seed,
                            work / f"setup{i}", deadline))
    passes = []
    while True:
        t0 = time.monotonic()
        for mode in ("serial", "default"):
            passes.append(spawn(mode, args.workload, args.seed,
                                work / f"{mode}{len(passes)}", deadline))
        now = time.monotonic()
        pair = now - t0
        if (now - t_start + pair > args.seconds
                or now + pair > deadline - 5.0):
            break
    return setups, passes


def _cal_s(mark) -> float:
    """Seconds per run of the calibration loop in one calibration."""
    start, end, repeats = mark
    return (end - start) / repeats


def scaled(t0: float, t1: float, marks: list) -> float:
    """Seconds from t0 to t1 at the reference speed, leaving out the
    calibrations inside.

    The calibrations cut [t0, t1] into segments; each segment is scaled by
    CAL_REF_S over the mean of the calibration times just before and just
    after it, so a change of host speed during a pass is followed."""
    before = [m for m in marks if m[1] <= t0]
    after = [m for m in marks if m[0] >= t1]
    if not before or not after:
        raise BenchError("a timed interval lacks a calibration on each side")
    inner = [m for m in marks if t0 <= m[0] and m[1] <= t1]
    bounds = [before[-1], *inner, after[0]]
    return sum((min(t1, nxt[0]) - max(t0, prev[1])) * CAL_REF_S
               / ((_cal_s(prev) + _cal_s(nxt)) / 2.0)
               for prev, nxt in zip(bounds, bounds[1:]))


def end_to_end_metrics(setups, passes):
    """Medians over passes; suite_s and scenario_s.max are scaled to the
    reference speed.

    scenario_s.max is the slowest completed scenario of a serial pass: with
    at most seven scenarios a pass there is no percentile with ten samples
    beyond it, and their median jumps between strata of different cost.
    """
    serial = [p for p in passes if p["mode"] == "serial"]
    default = [p for p in passes if p["mode"] == "default"]
    done = [[scaled(t0, t1, p["cal_marks"])
             for name, t0, t1 in p["scenario_times"] if name not in p["failed"]]
            for p in serial]
    samples = {
        "suite_s": [scaled(*p["pass_span"], p["cal_marks"]) for p in serial],
        # as measured: with two threads handing the interpreter lock
        # between two vCPUs, scaling by one thread's calibrations made
        # this noisier, not steadier
        "suite_default_s": [p["wall_s"] for p in default],
        "scenario_s.max": [max(ts) for ts in done if ts],
        # as measured: start-up is mostly exec, imports and page faults,
        # which the calibration loop does not follow
        "setup_s": [p["setup_s"] for p in setups + passes],
        "peak_rss_mb": [p["maxrss_mb"] for p in serial],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    # the measured times before scaling, and the calibration times
    samples["raw"] = {
        "suite_s": [p["wall_s"] for p in serial],
        "cal_s": [[_cal_s(m) for m in p["cal_marks"]] for p in serial],
    }
    samples["scenario_times"] = [p["scenario_times"] for p in serial]
    return metrics, samples


def run_traced(args, work: Path, deadline: float, keep_spans: Path):
    plain = spawn("serial", args.workload, args.seed, work / "serial", deadline)
    traced = spawn("traced", args.workload, args.seed, work / "traced", deadline)
    default = spawn("default", args.workload, args.seed, work / "default",
                    deadline)
    spans_path = work / "traced" / "spans.npz"
    shutil.copyfile(spans_path, keep_spans)
    spans = load_spans(spans_path)
    metrics = layer_metrics(spans)
    metrics["runner.report_bytes"] = sum(
        f.stat().st_size for f in (work / "serial" / "out").iterdir())
    metrics["runner.suite_default.cpu_per_wall"] = (
        default["cpu_s"] / default["wall_s"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    samples = {"spans": int(spans["start"].size),
               "missing_hooks": spans["missing"]}
    return [plain, traced, default], metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through spawn(), which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "kinterp" / "__init__.py").is_file():
        print(f"no kinterp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    scenarios = []
    for fname, text in gen.generate(args.workload, args.seed, ROOT):
        scenarios.append((fname, json.loads(text)))
    invalid = [sc["name"] for _, sc in scenarios if not rules.scenario_valid(sc)]
    if invalid:
        # exit 4 counts as a failure only because every input is valid
        print(f"generated invalid scenarios: {invalid}", file=sys.stderr)
        return 2
    baseline = None
    if args.workload == "bundled-suite":
        baseline = json.loads((HERE / "baseline.json").read_text(
            encoding="utf-8"))["bundled_outcomes"]

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    results_dir = HERE / ".results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    unit_of = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        if args.trace:
            passes, metrics, samples = run_traced(
                args, work, deadline, results_dir / f"{stem}.spans.npz")
        else:
            setups, passes = run_end_to_end(args, work, deadline)
        attempted, failures, checks = check_all(scenarios, passes, baseline)
        if not args.trace:
            metrics, samples = end_to_end_metrics(setups, passes)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [c for c in checks if not c[3]]
    if not args.trace:
        metrics["completed_share"] = 1.0 - len(failures) / attempted
        metrics["checks_passed_share"] = (
            1.0 - len(wrong) / len(checks) if checks else 1.0)
    env = environment(args, passes)
    record = {"env": env, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failures": failures,
              "checks_made": len(checks), "wrong_checks": wrong}
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(json.dumps({"env": env}))
    for name, value in metrics.items():
        n = samples.get(name)
        extra = f"  (n={len(n)})" if isinstance(n, list) else ""
        print(f"{name:40s} {value:.6g} {unit_of.get(name, '')}{extra}")
    for f in failures:
        print(f"failed: {f[0]} {f[1]}: {str(f[2])[:160]}")
    for w in wrong:
        print(f"wrong: {w[0]} {w[1]} {w[2]}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
