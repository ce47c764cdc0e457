"""Span tracing from outside the package, and the per-layer metrics built on it.

``Tracer`` replaces the kinterp module attributes through which one layer
calls the next (``kinterp.params.integral_log``, ``kinterp.conditions.
min_factor``, ...) with wrappers that record a span (name, start, end,
parent) per call.  Spans stay in memory in flat arrays and are written once,
when the traced pass ends.  Only the traced run installs the wrappers; the
end-to-end runs never see them.

A span's self time is its duration minus the part of it that its children
cover.  A layer's total time is the union of its spans, so nested calls of
the same layer are not counted twice.
"""

from __future__ import annotations

import importlib
import json
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _plain(tr, orig, a, kw):
    return orig(*a, **kw), 0


def _quad(tr, orig, a, kw):
    # integral_log(fn, ...) / sup_log(fn, ...): count the nodes fn sees
    fn, box = a[0], [0]

    def counted(x):
        box[0] += np.size(x)
        return fn(x)

    out = orig(counted, *a[1:], **kw)
    tr.counts["quadrature.diverged"] += bool(out.diverged)
    return out, box[0]


def _points(tr, orig, a, kw):
    # eval_sv_log(b, x)
    return orig(*a, **kw), np.size(a[1])


def _min_key(tr, orig, a, kw):
    # min_factor(p, x): remember (p, x) to measure how much work repeats
    tr.min_keys.add((a[0], float(a[1])))
    return orig(*a, **kw), 0


def _candidates(tr, orig, a, kw):
    out = orig(*a, **kw)
    return out, len(getattr(out, "a0", ()))


#: (span name, attribute, kinterp modules whose attribute is replaced, measure)
HOOKS = (
    ("quadrature.integral_log", "integral_log", ("params", "sv", "conditions"), _quad),
    ("quadrature.sup_log", "sup_log", ("params", "conditions"), _quad),
    ("sv.eval_sv_log", "eval_sv_log", ("sv", "params", "conditions"), _points),
    ("sv.shift_integral", "shift_integral", ("sv", "params", "conditions"), _plain),
    ("params.head_factor", "head_factor", ("params", "conditions"), _plain),
    ("params.tail_factor", "tail_factor", ("params", "conditions"), _plain),
    ("params.min_factor", "min_factor", ("params", "conditions", "estimates"), _min_key),
    ("params.norm_trunc_profile", "norm_trunc_profile", ("params", "estimates"), _plain),
    ("params.full_norm_profile", "full_norm_profile", ("estimates",), _plain),
    ("conditions.C1", "check_C1", ("runner", "estimates"), _plain),
    ("conditions.C2", "check_C2", ("runner", "estimates"), _plain),
    ("conditions.C3", "check_C3", ("runner", "estimates"), _plain),
    ("conditions.C4", "check_C4", ("runner", "estimates"), _plain),
    ("conditions.SV_sufficient", "check_sv_sufficient", ("runner",), _plain),
    ("estimates.equivalence_report", "equivalence_report", ("runner",), _plain),
    ("estimates.decomposition", "DecompositionSearch", ("estimates",), _candidates),
    ("estimates.rhs", "_terms", ("estimates",), _plain),
    ("estimates.rhs", "classical_rhs", ("estimates",), _plain),
    ("couples.validate_kprofile", "validate_kprofile", ("couples",), _plain),
    ("runner.load", "load_scenario", ("runner",), _plain),
    ("runner.run_scenario", "run_scenario", ("runner",), _plain),
)


class Tracer:
    """Records spans of one thread; install() before the pass, close() after."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.min_keys: set = set()
        self.missing: list = []
        self._undo: list = []
        self._sv = None

    def _wrap(self, module, attr, span, measure):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        if span not in self.names:
            self.names.append(span)
        k = self.names.index(span)
        site = f"calls@{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tr, stack, counts = self, self.stack, self.counts
        names, parents, starts, ends, ns = (self.name, self.parent, self.start,
                                            self.end, self.n)

        def wrapper(*a, **kw):
            sid = len(starts)
            names.append(k)
            parents.append(stack[-1])
            ends.append(0.0)
            ns.append(0)
            counts[site] += 1
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out, cnt = measure(tr, orig, a, kw)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            ns[sid] = cnt
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def _count_points(self, cls, attr, counter):
        orig = getattr(cls, attr, None)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        counts = self.counts

        def wrapper(obj, x, *a, **kw):
            counts[counter] += np.size(x)
            return orig(obj, x, *a, **kw)

        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, orig))

    def install(self, kinterp_pkg):
        """Replace the layer-boundary attributes of an imported kinterp."""
        mods = {m: importlib.import_module(f"{kinterp_pkg.__name__}.{m}")
                for m in ("quadrature", "sv", "params", "conditions",
                          "estimates", "couples", "runner")}
        for span, attr, sites, measure in HOOKS:
            for m in sites:
                self._wrap(mods[m], attr, span, measure)
        for attr in ("value_log", "slope_log"):
            self._count_points(mods["couples"].KProfile, attr,
                               "couples.profile.points")
        self._sv = mods["sv"]

    def close(self, path):
        """Restore the attributes and write the spans to ``path`` (.npz)."""
        self.counts["sv.primitive_cache.entries"] = len(
            getattr(self._sv, "_primitive_cache", ()))
        self.counts["params.min_factor.unique"] = len(self.min_keys)
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
        meta = {"names": self.names, "counts": dict(self.counts),
                "missing": self.missing}
        np.savez_compressed(
            path, name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            n=np.frombuffer(self.n, dtype=np.int64),
            meta=np.array(json.dumps(meta)))


# -- analysis ------------------------------------------------------------------

_COUNT, _S, _RATIO = "count", "s", "ratio"
#: every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {
    "quadrature.integral_log.calls": _COUNT,
    "quadrature.integral_log.nodes": _COUNT,
    "quadrature.integral_log.self_s": _S,
    "quadrature.sup_log.calls": _COUNT,
    "quadrature.sup_log.nodes": _COUNT,
    "quadrature.sup_log.self_s": _S,
    "quadrature.diverged": _COUNT,
    "sv.eval_sv_log.points": _COUNT,
    "sv.eval_sv_log.self_s": _S,
    "sv.shift_integral.calls": _COUNT,
    "sv.primitive_cache.entries": _COUNT,
    "params.head_factor.calls": _COUNT,
    "params.tail_factor.calls": _COUNT,
    "params.min_factor.calls": _COUNT,
    "params.min_factor.unique_ratio": _RATIO,
    "params.factor.total_s": _S,
    "params.trunc_norm.calls": _COUNT,
    "params.trunc_norm.total_s": _S,
    "params.full_norm_profile.calls": _COUNT,
    "params.full_norm_profile.total_s": _S,
    "conditions.C1.s": _S,
    "conditions.C2.s": _S,
    "conditions.C3.s": _S,
    "conditions.C4.s": _S,
    "conditions.SV_sufficient.s": _S,
    "conditions.min_factor.calls": _COUNT,
    "estimates.equivalence_report.self_s": _S,
    "estimates.decomposition.s": _S,
    "estimates.decomposition.candidates": _COUNT,
    "estimates.rhs.s": _S,
    "estimates.min_factor.calls": _COUNT,
    "estimates.gate_checks": _COUNT,
    "couples.validate_kprofile.s": _S,
    "couples.profile.points": _COUNT,
    "runner.load.s": _S,
    "runner.run_scenario.self_s": _S,
    "runner.report_bytes": "bytes",
    "runner.suite_default.cpu_per_wall": _RATIO,
    "trace.overhead": _RATIO,
}

def self_times(parent, start, end) -> list:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and overlapping children count
    once, so the result holds for any span tree, not only for one thread.
    """
    parent, start, end = list(parent), list(start), list(end)
    covered = [0.0] * len(start)
    reach = [-math.inf] * len(start)
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [e - s - c for s, e, c in zip(start, end, covered)]


def union_length(start, end) -> float:
    """Length of the union of the intervals [start_i, end_i]."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    before = np.concatenate(([-math.inf], np.maximum.accumulate(end)[:-1]))
    return float(np.sum(np.clip(end - np.maximum(start, before), 0.0, None)))


def load_spans(path) -> dict:
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "parent", "start", "end", "n")}
        spans.update(json.loads(str(z["meta"])))
    return spans


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics (name -> value) from one traced pass."""
    names = spans["names"]
    idx = spans["name"]
    start, end = spans["start"], spans["end"]
    selft = np.asarray(self_times(spans["parent"], start, end))
    counts = Counter(spans["counts"])

    def sel(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(idx, ids)

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def nsum(name):
        return int(np.sum(spans["n"][sel(name)]))

    def self_s(name):
        return float(np.sum(selft[sel(name)]))

    def total_s(*span_names):
        m = sel(*span_names)
        return union_length(start[m], end[m])

    mf_calls = calls("params.min_factor")
    out = {
        "quadrature.integral_log.calls": calls("quadrature.integral_log"),
        "quadrature.integral_log.nodes": nsum("quadrature.integral_log"),
        "quadrature.integral_log.self_s": self_s("quadrature.integral_log"),
        "quadrature.sup_log.calls": calls("quadrature.sup_log"),
        "quadrature.sup_log.nodes": nsum("quadrature.sup_log"),
        "quadrature.sup_log.self_s": self_s("quadrature.sup_log"),
        "quadrature.diverged": counts["quadrature.diverged"],
        "sv.eval_sv_log.points": nsum("sv.eval_sv_log"),
        "sv.eval_sv_log.self_s": self_s("sv.eval_sv_log"),
        "sv.shift_integral.calls": calls("sv.shift_integral"),
        "sv.primitive_cache.entries": counts["sv.primitive_cache.entries"],
        "params.head_factor.calls": calls("params.head_factor"),
        "params.tail_factor.calls": calls("params.tail_factor"),
        "params.min_factor.calls": mf_calls,
        "params.min_factor.unique_ratio": (
            counts["params.min_factor.unique"] / mf_calls if mf_calls else 0.0),
        "params.factor.total_s": total_s("params.head_factor",
                                         "params.tail_factor",
                                         "params.min_factor"),
        "params.trunc_norm.calls": calls("params.norm_trunc_profile"),
        "params.trunc_norm.total_s": total_s("params.norm_trunc_profile"),
        "params.full_norm_profile.calls": calls("params.full_norm_profile"),
        "params.full_norm_profile.total_s": total_s("params.full_norm_profile"),
    }
    for c in ("C1", "C2", "C3", "C4", "SV_sufficient"):
        out[f"conditions.{c}.s"] = total_s(f"conditions.{c}")
    out.update({
        "conditions.min_factor.calls": counts["calls@conditions.min_factor"],
        "estimates.equivalence_report.self_s":
            self_s("estimates.equivalence_report"),
        "estimates.decomposition.s": total_s("estimates.decomposition"),
        "estimates.decomposition.candidates": nsum("estimates.decomposition"),
        "estimates.rhs.s": total_s("estimates.rhs"),
        "estimates.min_factor.calls": counts["calls@estimates.min_factor"],
        "estimates.gate_checks": sum(
            v for k, v in counts.items()
            if k.startswith("calls@estimates.check_")),
        "couples.validate_kprofile.s": total_s("couples.validate_kprofile"),
        "couples.profile.points": counts["couples.profile.points"],
        "runner.load.s": total_s("runner.load"),
        "runner.run_scenario.self_s": self_s("runner.run_scenario"),
    })
    return out
