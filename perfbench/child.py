"""One benchmark pass in a fresh interpreter, so module caches start empty.

    python3 perfbench/child.py --mode MODE --workload W --seed N --dir DIR

MODE is ``setup`` (import, generate and load, then exit), ``serial`` (one
pass with one worker), ``default`` (one pass with run_suite's default worker
count) or ``traced`` (a serial pass with the span tracer installed).  The
child writes the scenario files to DIR/scenarios, the reports to DIR/out and
its measurements to DIR/result.json.  It drives kinterp only through
run_suite, run_scenario and load_scenario.

On a shared virtual machine a vCPU's speed can drift by up to 2x over
seconds, one vCPU at a time, so a ``serial`` child also times a fixed
calibration loop (``calibrate``) on the thread that runs the pass: five runs
just before the pass, five after, and one every SAMPLE_EVERY_S during it,
from a timer signal. The calibration time is left out of the pass's time;
run.py scales each stretch of time between calibrations by the calibrations
around it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import gen  # noqa: E402

#: rounds of the calibration loop, 13-25 ms on a 2.1 GHz Xeon core
CAL_ROUNDS = 2000
#: interval of the calibration samples during a serial pass
SAMPLE_EVERY_S = 0.2
#: back-to-back calibration runs just before and just after a pass
CAL_REPEATS = 5


def calibrate(marks: list, repeats: int = 1) -> None:
    """Run a fixed loop ``repeats`` times and append (start, end, repeats)
    perf_counter stamps to ``marks``.

    The loop mixes interpreted float arithmetic with ufuncs on small arrays,
    as kinterp's quadrature does.  It creates no objects the garbage
    collector tracks, so the package's heap does not change its cost."""
    import numpy as np
    x = np.linspace(-4.0, 4.0, 96)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ROUNDS * repeats):
        y = np.exp(-x * x * (1.0 + (i % 5) * 0.25))
        acc += float(y.sum())
        for k in range(1, 24):
            acc += math.log1p(k * 0.5) / (k + acc * 1e-9)
    marks.append((t0, time.perf_counter(), repeats))
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop lost its result")


class Sampler:
    """Calibrates every SAMPLE_EVERY_S from SIGALRM while a serial pass runs.

    The handler runs between bytecodes of the thread that runs the pass.
    It skips its sample while another thread is alive, because the loop
    would then measure the interpreter lock, not the processor."""

    def __init__(self, marks: list):
        self.marks = marks

    def _tick(self, _signum, _frame):
        if threading.active_count() == 1:
            calibrate(self.marks)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def _import_kinterp():
    import kinterp
    where = Path(kinterp.__file__).resolve().parent
    if where != ROOT / "src" / "kinterp":
        raise SystemExit(f"kinterp imported from {where}, not from this checkout")
    return kinterp


def _conditions_pass(runner, paths, out, workers, times):
    def one(path):
        try:
            sc = runner.load_scenario(path)
        except Exception as exc:  # a load that raises is a measured failure
            return {"file": path.name, "raised": f"{type(exc).__name__}: {exc}"}
        t0 = time.perf_counter()
        try:
            res = runner.run_scenario(sc, out, checks_only=sc.checks)
        except Exception as exc:
            return {"file": path.name, "name": sc.name,
                    "raised": f"{type(exc).__name__}: {exc}"}
        times.append((sc.name, t0, time.perf_counter()))
        return {"file": path.name, "name": sc.name, "exit_code": res.exit_code}

    if workers > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, paths))
    return [one(p) for p in paths]


def _suite_pass(runner, scen_dir, out, workers, times):
    if times is not None:
        # per-scenario wall time: two clock reads around each run_scenario
        inner = runner.run_scenario

        def timed(sc, *a, **kw):
            t0 = time.perf_counter()
            try:
                return inner(sc, *a, **kw)
            finally:
                times.append((sc.name, t0, time.perf_counter()))

        runner.run_scenario = timed
    try:
        summary, _code = runner.run_suite(scen_dir, out, workers=workers)
    finally:
        if times is not None:
            runner.run_scenario = inner
    return summary["scenarios"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("setup", "serial", "default", "traced"))
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)

    kinterp = _import_kinterp()
    from kinterp import runner

    scen_dir = args.dir / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in gen.generate(args.workload, args.seed, ROOT):
        (scen_dir / name).write_text(text, encoding="utf-8")
        paths.append(scen_dir / name)
    for p in paths:
        try:
            kinterp.load_scenario(p)
        except Exception:  # the pass itself records the failure
            pass
    t_first = time.monotonic()
    marks = []

    result = {"mode": args.mode, "t_first": t_first,
              "python": platform.python_version(),
              "numpy": sys.modules["numpy"].__version__,
              "workers": 1}
    if args.mode != "setup":
        # the traced pass is not sampled: samples would land inside spans
        sample = args.mode == "serial"
        if sample:
            calibrate(marks, CAL_REPEATS)
        serial = args.mode in ("serial", "traced")
        workers = 1 if serial else runner.default_workers()
        times = [] if serial else None
        out = args.dir / "out"
        tracer = None
        if args.mode == "traced":
            from spans import Tracer
            tracer = Tracer()
            tracer.install(kinterp)
        sampler = Sampler(marks) if sample else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with sampler:
                if gen.WORKLOADS[args.workload] == "suite":
                    scenarios = _suite_pass(runner, scen_dir, out, workers,
                                            times)
                else:
                    scenarios = _conditions_pass(
                        runner, paths, out, workers,
                        [] if times is None else times)
            raised = ""
        except Exception:
            scenarios, raised = [], traceback.format_exc()
        w1, cpu = time.perf_counter(), time.process_time() - c0
        # the samples taken inside the pass are not the pass's time
        in_pass = sum(m[1] - m[0] for m in marks if m[0] >= w0)
        if sample:
            calibrate(marks, CAL_REPEATS)
        if tracer is not None:
            tracer.close(args.dir / "spans.npz")
        result.update({
            "workers": workers, "pass_span": (w0, w1),
            "wall_s": w1 - w0 - in_pass, "cpu_s": cpu - in_pass,
            "scenario_times": times or [], "scenarios": scenarios,
            "raised": raised,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    result["cal_marks"] = marks
    tmp = args.dir / "result.json.tmp"
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, args.dir / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
