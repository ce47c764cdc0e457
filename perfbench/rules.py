"""Exact validity rules for generated scenarios, from the weights' closed forms.

For 0 < theta < 1 every slowly varying weight gives min(1, t) a finite norm.
At theta = 0 only the tail t > 1 can diverge, at theta = 1 only the head
t < 1.  On that side the weights used at the endpoints behave like
(1 + |ln t|)^e with an exponent e known in closed form, and

    finite q:  the norm is finite  iff  e * q < -1
    q = inf:   the norm is finite  iff  e <= 0.

B~ of a broken log (1 + x)^aInf equals (1 + x)^(aInf + 1) / |aInf + 1| for
x = ln t > 0, and B of (1 + |x|)^a0 equals (1 + |x|)^(a0 + 1) / |a0 + 1| for
x < 0, which gives their exponents.
"""

from __future__ import annotations

import math


def _q(phi) -> float:
    return math.inf if phi["q"] in ("inf", "Infinity") else float(phi["q"])


def log_exponent(b: dict, side: str) -> float:
    """e with b(e^x) ~ C (1 + |x|)^e as x -> -inf ("zero") or +inf ("inf")."""
    kind = b["kind"]
    if kind == "Constant":
        return 0.0
    if kind == "BrokenLog":
        return float(b["a0"] if side == "zero" else b["aInf"])
    base = b.get("base", {})
    if base.get("kind") == "BrokenLog":
        if kind == "PrimitiveBTilde" and side == "inf":
            return float(base["aInf"]) + 1.0
        if kind == "PrimitiveB" and side == "zero":
            return float(base["a0"]) + 1.0
    raise ValueError(f"no closed-form exponent for {kind} at {side}")


def descriptor_valid(b: dict) -> bool:
    """The descriptor itself exists: primitives need a convergent base."""
    kind = b["kind"]
    if kind == "Constant":
        return float(b["c"]) > 0.0
    if kind == "BrokenLog":
        return True
    if kind == "ExpLogPow":
        return 0.0 < float(b["alpha"]) < 1.0 and b.get("sign", 1) in (-1, 1)
    if kind == "Product":
        return descriptor_valid(b["left"]) and descriptor_valid(b["right"])
    if kind == "Power":
        return descriptor_valid(b["base"])
    if kind == "PrimitiveB":
        return (descriptor_valid(b["base"])
                and log_exponent(b["base"], "zero") < -1.0)
    if kind == "PrimitiveBTilde":
        return (descriptor_valid(b["base"])
                and log_exponent(b["base"], "inf") < -1.0)
    raise ValueError(f"unknown descriptor kind {kind!r}")


def member_min1(phi: dict) -> bool:
    """Exact rule: min(1, t) has a finite norm under phi."""
    theta, q = float(phi["theta"]), _q(phi)
    if 0.0 < theta < 1.0:
        return True
    e = log_exponent(phi["b"], "inf" if theta == 0.0 else "zero")
    return e <= 0.0 if math.isinf(q) else e * q < -1.0


def tail_integrable(phi: dict) -> bool:
    """∫_1^∞ b^q ds/s < ∞ (needed by the flat-regime sufficient condition)."""
    q = _q(phi)
    return math.isfinite(q) and log_exponent(phi["b"], "inf") * q < -1.0


def scenario_valid(sc: dict) -> bool:
    """Every input the benchmark generates must pass this."""
    phis = (sc["phi0"], sc["phi1"])
    if not all(0.0 <= float(p["theta"]) <= 1.0 and _q(p) > 0.0
               and descriptor_valid(p["b"]) and member_min1(p) for p in phis):
        return False
    if "SV_sufficient" in sc.get("checks", ()):
        return all(tail_integrable(p) for p in phis)
    return True
