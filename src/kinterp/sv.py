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
range of t itself.  A primitive is itself an integral; each instance keeps
the values it has computed, so equal instances share no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError, RangeError
from .quadrature import (DEFAULT_PPD, LogGrid, QuadResult, decay_product,
                         integral_log, norm_pow, powered)

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


@dataclass(frozen=True)
class _Primitive(SVDescriptor):
    """The primitive of ``base`` on the ``side`` a subclass names.  Each
    instance keeps its values per x; a value does not depend on its batch."""

    base: SVDescriptor
    _values: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        if shift_integral(self.base, 1.0, 0.0, 0.0, self.side).diverged:
            near = "0" if self.side == "head" else "inf"
            raise DivergentIntegralError(
                f"{type(self).__name__} requires a convergent integral of b "
                f"near {near}")

    def eval_log(self, x):
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        missing = sorted(set(flat).difference(self._values))
        if missing:
            r = shift_integral(self.base, 1.0, np.array(missing), 0.0,
                               self.side)
            self._values.update(zip(missing, np.where(
                r.diverged, math.inf, r.value).tolist()))
        return np.array([self._values[v] for v in flat]).reshape(xs.shape)


class PrimitiveB(_Primitive):
    """B(t) = ∫_0^t base(s) ds/s; constructible only when convergent at 0."""

    side = "head"


class PrimitiveBTilde(_Primitive):
    """B~(t) = ∫_t^∞ base(s) ds/s; constructible only when convergent at ∞."""

    side = "tail"


def eval_sv_log(b: SVDescriptor, x) -> np.ndarray:
    """b(e^x), vectorized; no range checking (internal workhorse)."""
    return np.asarray(b.eval_log(np.asarray(x, dtype=float)), dtype=float)


def log_power_form(b: SVDescriptor):
    """(C, a0, aInf) with b(e^w) = C (1 + |w|)^{a0 for w <= 0, aInf for
    w > 0} for a tree of Constant, BrokenLog, Product and Power nodes
    (products add the exponents, powers scale them); None for any other
    descriptor, or where C or an exponent leaves double range."""
    if isinstance(b, Constant):
        form = (b.c, 0.0, 0.0)
    elif isinstance(b, BrokenLog):
        form = (1.0, b.a0, b.a_inf)
    elif isinstance(b, Product):
        left, right = log_power_form(b.left), log_power_form(b.right)
        if left is None or right is None:
            return None
        form = (left[0] * right[0], left[1] + right[1], left[2] + right[2])
    elif isinstance(b, Power):
        base = log_power_form(b.base)
        if base is None:
            return None
        with np.errstate(over="ignore", under="ignore"):
            form = (float(np.power(base[0], b.r)), base[1] * b.r,
                    base[2] * b.r)
    else:
        return None
    c, a0, a_inf = form
    ok = 0.0 < c < math.inf and math.isfinite(a0) and math.isfinite(a_inf)
    return form if ok else None


def rate0_integral(b: SVDescriptor, q: float, x, side: str, c: float = 0.0):
    """``shift_integral`` in closed form for a weight with a
    ``log_power_form``: at c = 0 for every q in (0, ∞], at every rate c at
    q = inf, and at every rate and q for a constant weight, whose form is
    (C, 0, 0).  None for any other weight or finite-q rate, or where C^q
    leaves double range.

    With A = a q, b^q = C^q (1 + |w|)^A, and its tail from x is
    C^q (1 + x)^{A∞+1} / (-A∞-1) for x >= 0 and
    C^q ([(1 - x)^{A0+1} - 1] / (A0+1) + 1 / (-A∞-1)) for x < 0, with
    ln(1 - x) as the first term at A0 = -1; it is +inf, flagged divergent,
    exactly when A∞ >= -1.  At c != 0 the constant's ∫ e^{c q v} C^q dv is
    C^q / (|c| q), where e^{c v} decays away from v = 0 (the head at c > 0,
    the tail at c < 0), whatever x; +inf, flagged, where it grows.  At
    q = inf see ``_log_power_sup``.  The head mirrors the tail (w -> -w
    swaps a0 and aInf, and c -> -c).  A finite value beyond double range
    reads +inf, unflagged.
    """
    form = log_power_form(b)
    sup = math.isinf(q)
    if form is None or (c != 0.0 and not sup and form[1:] != (0.0, 0.0)):
        return None
    k, a0, a_inf = form
    xs = np.asarray(x, dtype=float)
    # contiguous and 1-d, so that numpy takes one path for every batch
    w = xs.ravel()
    if side == "head":
        w, a0, a_inf, c = -w, a_inf, a0, -c
    right, base = w >= 0.0, 1.0 + np.abs(w)
    with np.errstate(over="ignore", under="ignore"):
        scale = k if sup else float(np.power(k, q))
        if not 0.0 < scale < math.inf:
            return None
        # e^{c v} grows along the side; at rate 0, the weight's tail
        diverged = c > 0.0 or c == 0.0 and (a_inf > 0.0 if sup
                                             else a_inf * q + 1.0 >= 0.0)
        if diverged:
            value = np.full(w.shape, math.inf)
        elif sup:
            value = k * _log_power_sup(a0, a_inf, c, w)
        elif c != 0.0:
            value = np.full(w.shape, scale / (abs(c) * q))
        else:
            s0, s_inf = a0 * q + 1.0, a_inf * q + 1.0
            # [(1 - x)^s0 - 1] / s0 for x < 0, and its limit ln(1 - x) at
            # s0 = 0; expm1 where the power is near 1, the power itself
            # (rounded once) where it is large
            ln1 = np.log1p(np.abs(w))
            near = (np.where(s0 * ln1 > 1.0, base ** s0 - 1.0,
                             np.expm1(s0 * ln1)) / s0 if s0 != 0.0 else ln1)
            value = scale * np.where(right, base ** s_inf / -s_inf,
                                     near + 1.0 / -s_inf)
    value = value.reshape(xs.shape)
    if xs.ndim == 0:
        return QuadResult(float(value), bool(diverged))
    return QuadResult(value, np.full(xs.shape, diverged))


def _log_power_sup(a0, a_inf, c, w):
    """The supremum of e^{c (v - w)} (1 + |v|)^{a0 for v <= 0, aInf for
    v > 0} over v >= w, for c < 0, or c = 0 with aInf <= 0: the largest of
    its values at the bound v = w, at the kink v = 0 where w < 0, and at its
    one interior maximum 1 + v = aInf / |c| where aInf > 0 and that lies
    beyond both.  (Its logarithm is concave on v > 0 when aInf > 0, and
    monotone or convex on v < 0, so no other point can hold the maximum.)
    The value at the peak is formed by ``decay_product``."""
    right, base = w >= 0.0, 1.0 + np.abs(w)
    with np.errstate(over="ignore", under="ignore"):
        value = np.where(right, base ** a_inf,
                         np.maximum(base ** a0, np.exp(c * -w)))
        if a_inf > 0.0 and c < 0.0:
            top = a_inf / -c
            peak = decay_product(c * (top - 1.0 - w), top ** a_inf)
            value = np.where(top > np.where(right, base, 1.0),
                             np.maximum(value, peak), value)
    return value


def primitive_sup(b: _Primitive, x, side: str) -> QuadResult:
    """``shift_integral`` at c = 0 and q = inf for a primitive.  B rises and
    B~ falls, so over the side it integrates the supremum is its value at
    x, and over the other its limit at the far end: the integral of the
    base over the whole line, +inf and flagged exactly where either half
    of it diverges.  Arrays of x's shape, as the rule gives."""
    xs = np.asarray(x, dtype=float)
    if side == b.side:
        return QuadResult(b.eval_log(xs), np.zeros(xs.shape, dtype=bool))
    head, tail = (shift_integral(b.base, 1.0, 0.0, 0.0, s)
                  for s in ("head", "tail"))
    flag = head.diverged or tail.diverged
    return QuadResult(np.full(xs.shape, math.inf if flag
                              else head.value + tail.value),
                      np.full(xs.shape, flag))


def shift_integral(b: SVDescriptor, q: float, x, c: float,
                   side: str, ppd: int = DEFAULT_PPD) -> QuadResult:
    """``||χ_side(v) e^{c v} b(e^{x+v})||_q`` over v < 0 (head) or v > 0
    (tail), before the q-th root, for every q in (0, ∞]: ``∫ e^{c q v}
    b(e^{x+v})^q dv`` for finite q, the supremum of e^{c v} b(e^{x+v}) at
    q = inf.

    This is the shifted form of every weighted integral of a slowly varying
    function used in the package.  At c = 0 (H at theta = 1, T at
    theta = 0, their endpoint M, and B and B~) a weight made of Constant,
    BrokenLog, Product and Power nodes takes the exact value and divergence
    flag of ``rate0_integral``, and so does a constant weight (a form
    (C, 0, 0)) at every rate; at q = inf and c = 0 a primitive takes those
    of ``primitive_sup``.  Every other norm is taken by
    ``quadrature.norm_pow``, which stays numerically stable for |x| far
    beyond the representable range of t = e^x.  For c = 0 the exponential
    factor is absent and the norm is taken in absolute coordinates
    w = x + v (resolving the weight's own scale around w = 0); for c != 0
    relative coordinates keep the exponential factor centred where it
    matters (``side_rows`` at span inf), and where it decays the far panels
    on which e^{c v} is exactly 0.0 are skipped.

    ``x`` may be a float or an array; the QuadResult holds arrays of its
    shape, evaluated in batched passes (floats for one point at finite q,
    and for one point in closed form).
    """
    if side not in ("head", "tail"):
        raise ValueError("side must be 'head' or 'tail'")
    exact = (primitive_sup(b, x, side)
             if c == 0.0 and isinstance(b, _Primitive) and math.isinf(q)
             else rate0_integral(b, q, x, side, c))
    if exact is not None:
        return exact
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0 and not math.isinf(q):
        # one point: integral_log, the one-row case of the same rule.  It
        # skips no panel, but the skipped panels add exact zeros to a
        # left-to-right sum, so the value equals the batched one bit for
        # bit.  The branch exists because perfbench/spans.py counts
        # integral_log calls at this layer boundary.
        at = float(xs)
        # the row's end and the weight's kink w = 0: in absolute
        # coordinates w at c = 0, else in relative ones v = w - x
        end, kink = (at, 0.0) if c == 0.0 else (0.0, -at)
        fn = powered(lambda v, rows: eval_sv_log(b, at + v if c else v), c, q)
        lo, hi = (-math.inf, end) if side == "head" else (end, math.inf)
        return integral_log(fn, lo, hi, ppd=ppd,
                            kinks=(kink,) if math.isfinite(kink) else ())
    if c != 0.0:
        return side_rows(b, q, xs, c, side, math.inf, ppd)
    inf = np.full(xs.shape, math.inf)
    lo, hi = (-inf, xs) if side == "head" else (xs, inf)
    return norm_pow(lo, hi, lambda w, rows: eval_sv_log(b, w), c, q, ppd=ppd,
                    kinks=(0.0,))


def side_rows(b: SVDescriptor, q: float, x, c: float, side: str, span,
              ppd: int = DEFAULT_PPD) -> QuadResult:
    """``norm_pow`` at rate c of the rows that end at the points x (any
    shape) on their side, in relative coordinates v = w - x with the
    weight's kink w = 0 at v = -x: v in [-span, 0] (head) or [0, span]
    (tail), span one value or one per point; at span inf the whole side,
    as ``shift_integral`` lays it out.  Every row ends at v = 0, so all but
    those that hold the kink take partial panels only at their ends
    (``quadrature._pieces``).  A QuadResult of x's shape."""
    flat = np.ravel(x)
    zero = np.zeros(np.shape(x))
    lo, hi = (-span, zero) if side == "head" else (zero, span)

    def core(v, rows):
        return eval_sv_log(b, flat[rows, None] + v)

    return norm_pow(lo, hi, core, c, q, ppd=ppd, row_kinks=-flat)


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


def sv_from_json(obj: dict, path: str = "b") -> SVDescriptor:
    """Parse a descriptor from its JSON expression tree; a ValueError names
    the field at fault by its full path, ``path`` and below, also for a
    primitive whose base does not converge."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{path}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "Constant":
            return Constant(float(obj["c"]))
        if kind == "BrokenLog":
            return BrokenLog(float(obj["a0"]), float(obj["aInf"]))
        if kind == "ExpLogPow":
            sign = obj.get("sign", 1)
            # int() would truncate a fractional sign such as -1.7 to -1
            if isinstance(sign, bool) or sign not in (-1, 1):
                raise ValueError(f"{path}.sign: must be +1 or -1, "
                                 f"got {sign!r}")
            return ExpLogPow(float(obj["alpha"]), int(sign))
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
    except (TypeError, ValueError, DivergentIntegralError) as exc:
        # a nested descriptor's message already names its own path
        msg = str(exc)
        if not msg.startswith(path + "."):
            msg = f"{path}: {msg}"
        raise ValueError(msg) from exc
    raise ValueError(f"{path}: unknown descriptor kind {kind!r}")
