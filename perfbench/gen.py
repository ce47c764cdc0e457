"""Scenario generators for the benchmark workloads.

Every workload is a fixed list of strata (weight kinds, q, element size);
the seed draws the values inside each stratum (exponents, theta, elements)
but never the strata, so the work per pass stays comparable across seeds
while the inputs change.  Every generated input is valid by the exact rules in ``rules.py``;
some sit just past a convergence edge on purpose.

Nothing here imports kinterp: the package receives only the JSON text.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: workload -> how a pass drives the package: "suite" calls run_suite (full
#: verification), "conditions" calls run_scenario(checks_only=...) per file,
#: as ``kinterp conditions`` does.
WORKLOADS = {
    "bundled-suite": "suite",
    "nested-conditions": "conditions",
    "decomposition": "suite",
    "cold-weights": "conditions",
}

_ELEMENT_1 = {"kind": "WeightedSeq", "coeffs": [1.0], "w0": [1.0], "w1": [1.0]}


def _r(x: float) -> float:
    return round(x, 4)


def _broken_log(a0, a_inf):
    return {"kind": "BrokenLog", "a0": _r(a0), "aInf": _r(a_inf)}


def _thetas(rng, lo=0.1, hi=0.9, gap=0.1):
    t0 = rng.uniform(lo, (lo + hi - gap) / 2)
    return _r(t0), _r(rng.uniform(t0 + gap, hi))


def _phi(theta, q, b):
    return {"theta": theta, "q": "inf" if q == "inf" else q, "b": b}


def _scenario(name, phi0, phi1, element, checks, variants=("classical",),
              grid=None):
    sc = {"name": name, "phi0": phi0, "phi1": phi1, "element": element,
          "checks": list(checks), "variants": list(variants)}
    if grid is not None:
        sc["grid"] = grid
    return sc


# -- nested-conditions -------------------------------------------------------

#: ExpLogPow with sign +1 and q < 1: the seed raises OverflowError in
#: tail_factor when T(x)^q lands between 1e(308 q) and 1e308 at a node
#: |x| <= 1e12, possible once alpha > ln(708)/ln(1e12) ~ 0.24.  The overflow
#: stratum (q = 1/4, where that band is widest) hits it on every seed; the
#: others stay below the threshold, so the failure share does not depend on
#: the seed.
_SAFE_GROWTH_ALPHA = 0.2


def _exp_log_pow(rng, q):
    sign = rng.choice((-1, 1))
    # sign +1 with alpha <= 0.5 keeps every norm inside double range for
    # theta*q >= 0.05
    hi = 0.95 if sign < 0 else (0.5 if q >= 1 else _SAFE_GROWTH_ALPHA)
    return {"kind": "ExpLogPow", "alpha": _r(rng.uniform(0.05, hi)),
            "sign": sign}


def _weight(rng, kind, q):
    if kind == "BrokenLog":
        return _broken_log(rng.uniform(-3, 3), rng.uniform(-3, 3))
    if kind == "ExpLogPow":
        return _exp_log_pow(rng, q)
    if kind == "Product":
        return {"kind": "Product", "left": _weight(rng, "BrokenLog", q),
                "right": _exp_log_pow(rng, q)}
    if kind == "Power":
        return {"kind": "Power", "base": _weight(rng, "BrokenLog", q),
                "r": _r(rng.uniform(-2, 2))}
    raise ValueError(kind)


def _nested_conditions(rng):
    # default t-range 1e-8..1e8 at 4 points per decade: the nested C2/C3
    # cost is mostly fixed per scenario, the grid only adds cutoffs
    grid = {"t_min": 1e-8, "t_max": 1e8, "points_per_decade": 4}
    checks = ("C1", "C2", "C3", "C4")
    out = []
    for k0, q0, k1, q1 in (("BrokenLog", 2.0, "ExpLogPow", 1.0),
                           ("Power", 1.0, "Product", 0.5)):
        t0, t1 = _thetas(rng)
        out.append(_scenario(f"nested-{k0}-{k1}",
                             _phi(t0, q0, _weight(rng, k0, q0)),
                             _phi(t1, q1, _weight(rng, k1, q1)),
                             _ELEMENT_1, checks, grid=grid))
    t0, t1 = _thetas(rng)
    q1 = 2.0
    growth = {"kind": "ExpLogPow", "alpha": _r(rng.uniform(0.28, 0.34)),
              "sign": 1}
    # C3 first: it meets the overflow at once, so the failure costs little
    # now and the whole set runs once the overflow is fixed
    out.append(_scenario("overflow-ExpLogPow-BrokenLog", _phi(t0, 0.25, growth),
                         _phi(t1, q1, _weight(rng, "BrokenLog", q1)),
                         _ELEMENT_1, ("C3", "C1", "C2", "C4"), grid=grid))
    return out


# -- decomposition -----------------------------------------------------------

def _decomposition(rng):
    grid = {"t_min": 1e-4, "t_max": 1e4, "points_per_decade": 16}
    out = []
    # n <= 6 runs the split grid (1001, 729 or 3^n candidates); n > 6 skips it
    for n, q0, q1 in ((1, 1.0, 2.0), (2, 0.5, 1.0), (3, 2.0, 0.5), (6, 1.0, 1.0),
                      (9, 2.0, 2.0), (12, 0.5, 2.0), ("step", 1.0, 0.5)):
        if n == "step":
            widths = [rng.uniform(0.1, 3.0) for _ in range(4)]
            breaks = [0.0]
            for w in widths:
                breaks.append(_r(breaks[-1] + w))
            element = {"kind": "StepFn", "breaks": breaks,
                       "values": [_r(rng.uniform(0.0, 3.0)) for _ in widths]}
        else:
            element = {"kind": "WeightedSeq",
                       "coeffs": [_r(rng.uniform(0.1, 3.0)) for _ in range(n)],
                       "w0": [_r(10 ** rng.uniform(-3, 3)) for _ in range(n)],
                       "w1": [_r(10 ** rng.uniform(-3, 3)) for _ in range(n)]}
        t0, t1 = _thetas(rng)
        b0 = {"kind": "Constant", "c": _r(rng.uniform(0.2, 5.0))}
        b1 = {"kind": "Constant", "c": _r(rng.uniform(0.2, 5.0))}
        out.append(_scenario(f"decomp-n{n}", _phi(t0, q0, b0), _phi(t1, q1, b1),
                             element, (), grid=grid))
    return out


# -- cold-weights ------------------------------------------------------------

def _cold_weights(rng):
    small = {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 8}
    # primitive weights fill sv's per-x cache; 5 grid points keep one cold
    # scenario near a second
    prim = {"t_min": 1e-2, "t_max": 1e2, "points_per_decade": 1}
    c14 = ("C1", "C4")

    def any_log():
        return _broken_log(rng.uniform(-2, 2), rng.uniform(-2, 2))

    def primitive(kind, a0, a_inf):
        return {"kind": kind, "base": _broken_log(a0, a_inf)}

    out = []
    t0, t1 = _thetas(rng)
    out.append(_scenario(
        "cold-primB",
        _phi(t0, 1.0, primitive("PrimitiveB", rng.uniform(-3, -1.3),
                                rng.uniform(-1, 1))),
        _phi(t1, 2.0, any_log()), _ELEMENT_1, c14, grid=prim))
    t0, t1 = _thetas(rng)
    out.append(_scenario(
        "cold-primBT", _phi(t0, 2.0, any_log()),
        _phi(t1, 1.0, primitive("PrimitiveBTilde", rng.uniform(-1, 1),
                                rng.uniform(-3, -1.3))),
        _ELEMENT_1, c14, grid=prim))
    # q = inf at theta = 0: bounded at infinity needs aInf <= 0 (edge included)
    out.append(_scenario(
        "cold-qinf",
        _phi(0.0, "inf", _broken_log(rng.uniform(-2, 2), rng.uniform(-1, 0))),
        _phi(_r(rng.uniform(0.3, 0.9)), 1.0, any_log()),
        _ELEMENT_1, c14, grid=small))
    # flat pair theta0 = theta1 = 0 guarded by the sufficient condition
    out.append(_scenario(
        "cold-flat",
        _phi(0.0, 1.0, _broken_log(rng.uniform(-2, 2), rng.uniform(-3, -1.3))),
        _phi(0.0, 2.0, _broken_log(rng.uniform(-2, 2),
                                   rng.uniform(-3, -1.3) / 2)),
        _ELEMENT_1, c14 + ("SV_sufficient",), grid=small))
    # just past the convergence edge: aInf * q in [-1.15, -1.001], all of
    # which the seed's divergence test flags (it flips near -1.176, a value
    # no stratum draws, so the failure count does not depend on the seed)
    out.append(_scenario(
        "edge-log",
        _phi(0.0, 1.0, _broken_log(rng.uniform(-2, 2),
                                   rng.uniform(-1.15, -1.001))),
        _phi(_r(rng.uniform(0.3, 0.9)), 2.0, any_log()),
        _ELEMENT_1, c14, grid=small))
    # B~ at theta = 0: the tail of B~^q decays like (1+x)^{(aInf+1) q}
    out.append(_scenario(
        "edge-primBT",
        _phi(0.0, 1.0, primitive("PrimitiveBTilde", rng.uniform(-1, 1),
                                 -1 - rng.uniform(1.3, 3))),
        _phi(_r(rng.uniform(0.3, 0.9)), 1.0, any_log()),
        _ELEMENT_1, c14, grid=prim))
    # B itself just past its own edge: base a0 in [-1.2, -1.001]; the seed
    # rejects the weight or the membership of min(1, t), so all of it fails
    t0, t1 = _thetas(rng)
    out.append(_scenario(
        "edge-primB",
        _phi(t0, 2.0, primitive("PrimitiveB", rng.uniform(-1.2, -1.001),
                                rng.uniform(-1, 1))),
        _phi(t1, 1.0, any_log()), _ELEMENT_1, c14, grid=prim))
    return out


def _bundled(rng, root: Path):
    files = sorted((root / "src" / "kinterp" / "scenarios").glob("*.json"))
    if not files:
        raise FileNotFoundError("no bundled scenarios under src/kinterp/scenarios")
    rng.shuffle(files)
    # run_suite sorts by file name, so the prefix fixes the permuted order
    return [(f"{i:02d}-{p.name}", p.read_text(encoding="utf-8"))
            for i, p in enumerate(files)]


_GENERATORS = {
    "nested-conditions": _nested_conditions,
    "decomposition": _decomposition,
    "cold-weights": _cold_weights,
}


def generate(workload: str, seed: int, root: Path) -> list:
    """[(file name, JSON text)] for one pass; same seed, same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bundled-suite":
        return _bundled(rng, root)
    scenarios = _GENERATORS[workload](rng)
    return [(f"{i:02d}-{sc['name']}.json",
             json.dumps(sc, indent=1, sort_keys=True) + "\n")
            for i, sc in enumerate(scenarios)]
