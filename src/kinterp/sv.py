"""Slowly varying functions and their integral transforms.

A positive function b on (0, ∞) is slowly varying when, for every ε > 0,
t^ε b(t) is equivalent to a nondecreasing function and t^{-ε} b(t) to a
nonincreasing one.  The class implemented here is closed under the
operations we need: broken logarithms, exp|log t|^α, products, real powers,
and the two primitives

    B(t)  = ∫_0^t b(s) ds/s          (requires ∫_0^1 b ds/s < ∞)
    B~(t) = ∫_t^∞ b(s) ds/s          (requires ∫_1^∞ b ds/s < ∞)

which are again slowly varying.  All evaluation happens in x = ln t
coordinates so that descriptors stay finite far outside the representable
range of t itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError, RangeError
from .quadrature import (DEFAULT_PPD, LogGrid, QuadPlan, QuadResult,
                         decay_product, integral_log)

_DEFAULT_ENVELOPE_BUDGET = 64.0


@dataclass(frozen=True)
class SVDescriptor:
    """Base class for slowly varying function descriptors (immutable)."""

    def eval_log(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(SVDescriptor):
    c: float

    def __post_init__(self):
        if not (0.0 < self.c < math.inf):
            raise ValueError("Constant requires 0 < c < inf")

    def eval_log(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)


@dataclass(frozen=True)
class BrokenLog(SVDescriptor):
    """(1 - ln t)^a0 on (0, 1], (1 + ln t)^a_inf on (1, ∞)."""

    a0: float
    a_inf: float

    def __post_init__(self):
        if not (math.isfinite(self.a0) and math.isfinite(self.a_inf)):
            raise ValueError("BrokenLog exponents must be finite")

    def eval_log(self, x):
        x = np.asarray(x, dtype=float)
        base = 1.0 + np.abs(x)
        expo = np.where(x <= 0.0, self.a0, self.a_inf)
        with np.errstate(over="ignore", under="ignore"):
            return base ** expo


@dataclass(frozen=True)
class ExpLogPow(SVDescriptor):
    """exp(sign * |ln t|^alpha) with alpha in (0, 1)."""

    alpha: float
    sign: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("ExpLogPow requires alpha in (0, 1)")
        if self.sign not in (-1, 1):
            raise ValueError("ExpLogPow sign must be +1 or -1")

    def eval_log(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self.sign * np.abs(x) ** self.alpha)


@dataclass(frozen=True)
class Product(SVDescriptor):
    left: SVDescriptor
    right: SVDescriptor

    def eval_log(self, x):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return self.left.eval_log(x) * self.right.eval_log(x)


@dataclass(frozen=True)
class Power(SVDescriptor):
    base: SVDescriptor
    r: float

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError("Power exponent must be finite")

    def eval_log(self, x):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return self.base.eval_log(x) ** self.r


_primitive_cache: dict = {}


def _primitive_eval(desc, base, side, x):
    xs = np.asarray(x, dtype=float)
    keys = [(desc, v) for v in xs.ravel().tolist()]
    missing = sorted({k[1] for k in keys if k not in _primitive_cache})
    if missing:
        r = shift_integral(base, 1.0, np.array(missing), 0.0, side)
        for xi, v, d in zip(missing, r.value.tolist(), r.diverged.tolist()):
            _primitive_cache[(desc, xi)] = math.inf if d else v
    return np.array([_primitive_cache[k] for k in keys]).reshape(xs.shape)


@dataclass(frozen=True)
class PrimitiveB(SVDescriptor):
    """B(t) = ∫_0^t base(s) ds/s; constructible only when convergent at 0."""

    base: SVDescriptor

    def __post_init__(self):
        if shift_integral(self.base, 1.0, 0.0, 0.0, "head").diverged:
            raise DivergentIntegralError(
                "PrimitiveB requires a convergent integral of b near 0")

    def eval_log(self, x):
        return np.asarray(_primitive_eval(self, self.base, "head", x))


@dataclass(frozen=True)
class PrimitiveBTilde(SVDescriptor):
    """B~(t) = ∫_t^∞ base(s) ds/s; constructible only when convergent at ∞."""

    base: SVDescriptor

    def __post_init__(self):
        if shift_integral(self.base, 1.0, 0.0, 0.0, "tail").diverged:
            raise DivergentIntegralError(
                "PrimitiveBTilde requires a convergent integral of b near inf")

    def eval_log(self, x):
        return np.asarray(_primitive_eval(self, self.base, "tail", x))


def eval_sv_log(b: SVDescriptor, x) -> np.ndarray:
    """b(e^x), vectorized; no range checking (internal workhorse)."""
    return np.asarray(b.eval_log(np.asarray(x, dtype=float)), dtype=float)


def shift_integral(b: SVDescriptor, qpow: float, x, c: float,
                   side: str, ppd: int = DEFAULT_PPD) -> QuadResult:
    """``∫ e^{c v} b(e^{x+v})^qpow dv`` over v < 0 (head) or v > 0 (tail).

    This is the shifted form of every weighted integral of a slowly varying
    function used in the package; it stays numerically stable for |x| far
    beyond the representable range of t = e^x.  For c = 0 the exponential
    factor is absent and the integral is evaluated in absolute coordinates
    w = x + v (resolving the weight's own scale around w = 0); for c != 0
    relative coordinates keep the exponential factor centred where it
    matters, and where it decays the far panels on which e^{c v} is exactly
    0.0 are skipped.

    ``x`` may be a float (returns floats) or an array (returns a QuadResult
    of arrays of that shape, evaluated in batched passes).
    """
    if side not in ("head", "tail"):
        raise ValueError("side must be 'head' or 'tail'")
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    inf = np.full(flat.shape, math.inf)

    if c == 0.0:

        def fn(w, rows):
            with np.errstate(over="ignore", under="ignore"):
                return eval_sv_log(b, w) ** qpow

        lo, hi = (-inf, flat) if side == "head" else (flat, inf)
        kinks, row_kinks, exp_rate = (0.0,), None, 0.0
    else:

        def fn(v, rows):
            bq = eval_sv_log(b, flat[rows, None] + v) ** qpow
            return decay_product(c * v, bq)

        zero = np.zeros(flat.shape)
        lo, hi = (-inf, zero) if side == "head" else (zero, inf)
        kinks = ()
        row_kinks = np.where(np.isfinite(flat), -flat, np.nan)
        exp_rate = c

    if xs.ndim == 0:
        # one point: integral_log, the one-row case of the same rule.  It
        # skips no panel, but the skipped panels add exact zeros to a
        # left-to-right sum, so the value equals the batched one bit for
        # bit.  The branch exists because perfbench/spans.py counts
        # integral_log calls at this layer boundary.
        if row_kinks is not None and math.isfinite(row_kinks[0]):
            kinks = (float(row_kinks[0]),)
        row = np.zeros(1, dtype=np.intp)
        return integral_log(lambda v: fn(v[None], row)[0], float(lo[0]),
                            float(hi[0]), ppd=ppd, kinks=kinks)
    return QuadPlan(lo.reshape(xs.shape), hi.reshape(xs.shape), ppd=ppd,
                    kinks=kinks, row_kinks=row_kinks,
                    exp_rate=exp_rate).apply(fn)


def _check_t(t: float):
    if not (isinstance(t, (int, float)) and 0.0 < t < math.inf):
        raise ValueError(f"t must be a positive finite real, got {t!r}")


def eval_sv(b: SVDescriptor, t: float) -> float:
    """b(t) for t > 0; raises RangeError on overflow to +inf or underflow to 0."""
    _check_t(t)
    v = float(eval_sv_log(b, math.log(t)))
    if not (0.0 < v < math.inf) or math.isnan(v):
        raise RangeError(f"b(t) left the representable positive range at t={t!r}")
    return v


def integral_B(b: SVDescriptor, t: float, *, ppd: int = DEFAULT_PPD) -> float:
    """B(t) = ∫_0^t b(s) ds/s."""
    _check_t(t)
    r = shift_integral(b, 1.0, math.log(t), 0.0, "head", ppd)
    if r.diverged:
        raise DivergentIntegralError("∫_0^t b(s) ds/s diverges")
    return r.value


def integral_BTilde(b: SVDescriptor, t: float, *, ppd: int = DEFAULT_PPD) -> float:
    """B~(t) = ∫_t^∞ b(s) ds/s."""
    _check_t(t)
    r = shift_integral(b, 1.0, math.log(t), 0.0, "tail", ppd)
    if r.diverged:
        raise DivergentIntegralError("∫_t^∞ b(s) ds/s diverges")
    return r.value


def power_integral_lower(b: SVDescriptor, alpha: float, t: float, *,
                         ppd: int = DEFAULT_PPD) -> float:
    """∫_0^t s^alpha b(s) ds/s, alpha > 0 (compares against t^alpha b(t))."""
    _check_t(t)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    r = shift_integral(b, 1.0, math.log(t), alpha, "head", ppd)
    v = t ** alpha * r.value
    if r.diverged or not (0.0 <= v < math.inf):
        raise RangeError("power integral left the representable range")
    return v


def power_integral_upper(b: SVDescriptor, alpha: float, t: float, *,
                         ppd: int = DEFAULT_PPD) -> float:
    """∫_t^∞ s^{-alpha} b(s) ds/s, alpha > 0 (compares against t^{-alpha} b(t))."""
    _check_t(t)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    r = shift_integral(b, 1.0, math.log(t), -alpha, "tail", ppd)
    v = t ** (-alpha) * r.value
    if r.diverged or not (0.0 <= v < math.inf):
        raise RangeError("power integral left the representable range")
    return v


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Monotone-envelope equivalence scan of t^{±eps} b(t) over a grid.

    ``up_ratio`` compares t^{+eps} b against its running maximum (should be
    bounded away from 0), ``down_ratio`` compares t^{-eps} b against its
    running minimum (should be bounded above).  Slow variation guarantees
    both brackets are finite, but the constants may be large for strongly
    oscillating log powers; the verdict only guards against regressions.
    """

    eps: float
    t: np.ndarray
    up_ratio: np.ndarray
    down_ratio: np.ndarray
    inf_up: float
    sup_down: float
    budget: float
    pass_up: bool
    pass_down: bool

    @property
    def passed(self) -> bool:
        return self.pass_up and self.pass_down

    def summary(self) -> dict:
        return {
            "eps": self.eps,
            "inf_up_ratio": self.inf_up,
            "sup_down_ratio": self.sup_down,
            "budget": self.budget,
            "pass_up": self.pass_up,
            "pass_down": self.pass_down,
            "passed": self.passed,
        }


def check_sv_envelope(b, eps: float, grid: LogGrid, *,
                      budget: float = _DEFAULT_ENVELOPE_BUDGET) -> EnvelopeReport:
    """Scan the defining slow-variation property of b over a grid.

    ``b`` may be an SVDescriptor, a vectorized callable of t, or an array of
    samples aligned with ``grid.points()`` (for testing raw data that has no
    descriptor, e.g. deliberately non-slowly-varying functions).
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    xs = grid.log_points()
    if isinstance(b, SVDescriptor):
        bv = eval_sv_log(b, xs)
    elif callable(b):
        bv = np.asarray(b(grid.points()), dtype=float)
    else:
        bv = np.asarray(b, dtype=float)
        if bv.shape != xs.shape:
            raise ValueError("sample array must match the grid length")
    if not np.all((bv > 0.0) & np.isfinite(bv)):
        raise RangeError("b must be strictly positive and finite on the grid")

    up = np.exp(eps * xs) * bv
    down = np.exp(-eps * xs) * bv
    run_max = np.maximum.accumulate(up)
    run_min = np.minimum.accumulate(down)
    up_ratio = up / run_max
    down_ratio = down / run_min
    inf_up = float(np.min(up_ratio))
    sup_down = float(np.max(down_ratio))
    return EnvelopeReport(
        eps=float(eps),
        t=grid.points(),
        up_ratio=up_ratio,
        down_ratio=down_ratio,
        inf_up=inf_up,
        sup_down=sup_down,
        budget=float(budget),
        pass_up=inf_up >= 1.0 / budget,
        pass_down=sup_down <= budget,
    )


def sv_to_json(b: SVDescriptor) -> dict:
    """Serialize a descriptor as a JSON expression tree."""
    if isinstance(b, Constant):
        return {"kind": "Constant", "c": b.c}
    if isinstance(b, BrokenLog):
        return {"kind": "BrokenLog", "a0": b.a0, "aInf": b.a_inf}
    if isinstance(b, ExpLogPow):
        return {"kind": "ExpLogPow", "alpha": b.alpha, "sign": b.sign}
    if isinstance(b, Product):
        return {"kind": "Product", "left": sv_to_json(b.left),
                "right": sv_to_json(b.right)}
    if isinstance(b, Power):
        return {"kind": "Power", "base": sv_to_json(b.base), "r": b.r}
    if isinstance(b, PrimitiveB):
        return {"kind": "PrimitiveB", "base": sv_to_json(b.base)}
    if isinstance(b, PrimitiveBTilde):
        return {"kind": "PrimitiveBTilde", "base": sv_to_json(b.base)}
    raise TypeError(f"unknown descriptor type {type(b).__name__}")


def sv_from_json(obj: dict, path: str = "b") -> SVDescriptor:
    """Parse a descriptor from its JSON expression tree."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{path}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "Constant":
            return Constant(float(obj["c"]))
        if kind == "BrokenLog":
            return BrokenLog(float(obj["a0"]), float(obj["aInf"]))
        if kind == "ExpLogPow":
            return ExpLogPow(float(obj["alpha"]), int(obj.get("sign", 1)))
        if kind == "Product":
            return Product(sv_from_json(obj["left"], path + ".left"),
                           sv_from_json(obj["right"], path + ".right"))
        if kind == "Power":
            return Power(sv_from_json(obj["base"], path + ".base"),
                         float(obj["r"]))
        if kind == "PrimitiveB":
            return PrimitiveB(sv_from_json(obj["base"], path + ".base"))
        if kind == "PrimitiveBTilde":
            return PrimitiveBTilde(sv_from_json(obj["base"], path + ".base"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    raise ValueError(f"{path}: unknown descriptor kind {kind!r}")
