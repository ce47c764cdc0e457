"""Weighted-Lq(dt/t) interpolation parameters and their norms.

A parameter is the monotone quasi-norm

    ||g|| = ( ∫_0^∞ [t^{-theta} b(t) |g(t)|]^q dt/t )^{1/q},

with the usual sup modification at q = ∞, for theta in [0, 1], q in (0, ∞]
and b slowly varying.  Throughout, norms of the canonical test functions are
factored as an exact power of t times a slowly varying factor,

    ||u χ_(0,t)||        = t^{1-theta} * H(ln t)
    ||χ_(t,∞)||          = t^{-theta}  * T(ln t)
    ||min(u, t)||        = t^{1-theta} * M(ln t)

with H, T, M computed by shifted quadrature that stays finite for |ln t| far
beyond the representable range of t — the nested condition checks probe that
deep.  At the endpoints the min-norm uses its dominated representative form
(M = T at theta = 0, M = H at theta = 1), which matches the full norm up to
a constant controlled by slow variation and makes the canonical weight take
its endpoint-ratio shape exactly.  The full two-sided quadrature remains
available through ``norm_head_u``/``norm_tail_char``.

Every norm of a known core g (H and T at q = inf, the truncated and full
norms of K(·, f), the outer norms of C2/C3) is ||χ_[lo,hi] e^{c x} g||,
and ``_norm_pow`` computes it for a batch of rows before the q-th root: by
one quadrature plan of e^{c q x} g^q for finite q (``_powered``), by one
supremum search per row at q = inf.  ``_join`` adds two pieces, or takes
their max at q = inf, and ``qth_root`` finishes.  ``phi_norm`` keeps its
own integrand, because its g is an opaque callable of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .couples import KProfile
from .errors import MembershipError, RangeError
from .quadrature import (DEFAULT_PPD, LogGrid, QuadPlan, QuadResult,
                         decay_product, integral_log, sup_log)
from .sv import (Constant, SVDescriptor, eval_sv_log, relative_integral,
                 shift_integral, sv_from_json, sv_to_json)


@dataclass(frozen=True)
class PhiParam:
    """One K-interpolation parameter: exponent, integrability, SV weight.

    Every quadrature of its norms runs at ``ppd`` points per decade.
    """

    theta: float
    q: float
    b: SVDescriptor = Constant(1.0)
    #: how error messages refer to the parameter (its scenario field)
    name: str = field(default="phi", compare=False, repr=False)
    #: kept values: membership of min(1, t), and H and T per (side, grid)
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)
    ppd: ClassVar[int] = DEFAULT_PPD

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (self.q > 0.0):
            raise ValueError("q must lie in (0, inf]")

    @property
    def sup_norm(self) -> bool:
        return math.isinf(self.q)


def qth_root(p: PhiParam, r: QuadResult):
    """r.value ** (1/q) elementwise (r.value itself at q = inf), +inf where
    r diverged.

    Raises RangeError naming the parameter when a finite q-th power has no
    finite root in double precision.
    """
    vals = np.where(r.diverged, math.inf, r.value)
    if p.sup_norm:
        return vals
    with np.errstate(over="ignore"):
        out = vals ** (1.0 / p.q)
    if np.any(np.isinf(out) & np.isfinite(vals)):
        raise RangeError(
            f"{p.name}: ‖·‖^(1/q) left double range (q={p.q:g})")
    return out


def _shift_factors(p: PhiParam, xs, side: str) -> np.ndarray:
    """H (head) or T (tail) at every x of xs; +inf on divergence.  On a
    LogGrid, p computes them once per grid and side, and keeps them read-only.
    """
    if isinstance(xs, LogGrid):
        key = (side, xs)
        if key not in p._memo:
            vals = _shift_factors(p, xs.log_points(), side)
            vals.setflags(write=False)
            p._memo[key] = vals
        return p._memo[key]
    xs = np.asarray(xs, dtype=float)
    c = 1.0 - p.theta if side == "head" else -p.theta
    if not p.sup_norm:
        return qth_root(p, shift_integral(p.b, p.q, xs, c * p.q, side, p.ppd))
    # q = inf: the supremum of e^{cv} b(x + v) over the side; v = -x is a kink
    lo, hi = (-math.inf, 0.0) if side == "head" else (0.0, math.inf)
    at = xs.ravel()
    return qth_root(p, _norm_pow(p, lo, hi,
                                 lambda v, i: eval_sv_log(p.b, at[i] + v), c,
                                 row_kinks=-xs))


def head_factors(p: PhiParam, xs) -> np.ndarray:
    """H at every x of xs (any shape, or a LogGrid); +inf on divergence."""
    return _shift_factors(p, xs, "head")


def tail_factors(p: PhiParam, xs) -> np.ndarray:
    """T at every x of xs (any shape, or a LogGrid); +inf on divergence."""
    return _shift_factors(p, xs, "tail")


def min_factors(p: PhiParam, xs) -> np.ndarray:
    """M at every x of xs (any shape, or a LogGrid); see ``min_factor``."""
    if p.theta == 0.0:
        return tail_factors(p, xs)
    if p.theta == 1.0:
        return head_factors(p, xs)
    closed = _closed_min_factor(p)
    if closed is not None:
        pts = xs.log_points() if isinstance(xs, LogGrid) else xs
        return np.full(np.shape(pts), closed)
    return _combine(p, head_factors(p, xs), tail_factors(p, xs))


def _combine(p: PhiParam, h, t) -> np.ndarray:
    """M from H and T: (H^q + T^q)^{1/q}, max(H, T) at q = inf; +inf where
    either is."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = (np.maximum(h, t) if p.sup_norm
             else (h ** p.q + t ** p.q) ** (1.0 / p.q))
    return np.where(np.isinf(h) | np.isinf(t), math.inf, m)


def swept_min_factors(p: PhiParam, xs: np.ndarray) -> np.ndarray:
    """M at the sorted distinct points xs, from H^q and T^q by one sweep per
    side (``_swept_powers``) for finite q and 0 < theta < 1 with no closed
    form; otherwise ``min_factors``.  A swept value depends on the other
    points of xs, so callers pass a node set that their input fixes.
    """
    if (p.sup_norm or not 0.0 < p.theta < 1.0
            or _closed_min_factor(p) is not None):
        return min_factors(p, xs)
    return _combine(p, qth_root(p, _swept_powers(p, xs, "head")),
                    qth_root(p, _swept_powers(p, xs, "tail")))


#: increment rows per plan in a sweep, which bounds the layout temporaries
_SWEEP_BLOCK = 512


def _swept_powers(p: PhiParam, xs: np.ndarray, side: str) -> QuadResult:
    """H^q (head) or T^q (tail) at the sorted distinct points xs.

    The head G(x) = ∫_{w<x} e^{r(w-x)} b^q dw at rate r = (1-theta) q is
    swept left to right, the tail (w > x, rate theta q) right to left: from
    one point to the next, at distance d,

        G_next = G e^{-r d} + ∫ e^{-r |w - x_next|} b^q dw  over the gap,

    the increment by the rule of ``shift_integral`` on a bounded row in
    relative coordinates (``relative_integral``).  The first point, and
    every point where e^{-r d} is exactly 0.0, restarts from
    ``shift_integral``.  A divergence flag, a restart's or an increment's,
    carries along the sweep up to the next restart.
    """
    rate = (1.0 - p.theta) * p.q if side == "head" else p.theta * p.q
    c, x = (rate, xs) if side == "head" else (-rate, xs[::-1])
    gap = np.abs(np.diff(x))
    with np.errstate(under="ignore"):
        decay = np.exp(-rate * gap)
    restart = np.concatenate(([True], decay == 0.0))[:x.size]
    start = shift_integral(p.b, p.q, x[restart], c, side, p.ppd)
    value, bad = np.empty(x.size), np.empty(x.size, dtype=bool)
    value[restart], bad[restart] = start.value, start.diverged
    # the increment of point k covers the gap before it, as v = w - x_k
    at = np.flatnonzero(~restart)
    span, zero = gap[at - 1], np.zeros(at.size)
    lo, hi = (-span, zero) if side == "head" else (zero, span)
    for s in range(0, at.size, _SWEEP_BLOCK):
        block = slice(s, s + _SWEEP_BLOCK)
        r = relative_integral(p.b, p.q, x[at[block]], c, lo[block],
                              hi[block], p.ppd)
        value[at[block]], bad[at[block]] = r.value, r.diverged
    g, flag = 0.0, False
    vals, flags = value.tolist(), bad.tolist()
    for k, (fresh, e) in enumerate(zip(restart.tolist(),
                                       [1.0] + decay.tolist())):
        if fresh:
            g, flag = vals[k], flags[k]
        else:
            g, flag = g * e + vals[k], flag or flags[k]
        vals[k], flags[k] = g, flag
    order = slice(None) if side == "head" else slice(None, None, -1)
    return QuadResult(np.array(vals)[order], np.array(flags)[order])


def head_factor(p: PhiParam, x: float) -> float:
    """H(x) with ||u χ_(0,t)|| = t^{1-theta} H(ln t); +inf on divergence."""
    return float(head_factors(p, x))


def tail_factor(p: PhiParam, x: float) -> float:
    """T(x) with ||χ_(t,∞)|| = t^{-theta} T(ln t); +inf on divergence."""
    return float(tail_factors(p, x))


def _closed_min_factor(p: PhiParam):
    """Exact M for constant b, finite q, 0 < theta < 1."""
    if (isinstance(p.b, Constant) and not p.sup_norm
            and 0.0 < p.theta < 1.0):
        return p.b.c * (1.0 / ((1.0 - p.theta) * p.q)
                        + 1.0 / (p.theta * p.q)) ** (1.0 / p.q)
    return None


def min_factor(p: PhiParam, x: float) -> float:
    """M(x) with ||min(u, t)|| = t^{1-theta} M(ln t).

    At theta = 0 this is the tail-dominated representative T, at theta = 1
    the head-dominated H; for 0 < theta < 1 it is (H^q + T^q)^{1/q}
    (max(H, T) at q = inf), in closed form when b is constant and q finite.
    """
    return float(min_factors(p, x))


def membership_min1(p: PhiParam) -> bool:
    """True iff t ↦ min(1, t) has a finite norm under p; decided once per p."""
    if "min1" not in p._memo:
        p._memo["min1"] = (math.isfinite(head_factor(p, 0.0))
                           and math.isfinite(tail_factor(p, 0.0)))
    return p._memo["min1"]


def require_membership(p: PhiParam):
    if not membership_min1(p):
        raise MembershipError(
            f"min(1, t) has infinite norm for theta={p.theta}, q={p.q}")


def norm_head_u(p: PhiParam, t):
    """||u χ_(0,t)(u)||; +inf on divergence.

    ``t`` may be a float (returns a float), an array or a LogGrid (returns
    an array; on a grid, from the H that p keeps there).
    """
    x, at = _log_args(t)
    out = np.exp((1.0 - p.theta) * x) * head_factors(p, at)
    return out if x.ndim else float(out)


def norm_tail_char(p: PhiParam, t):
    """||χ_(t,∞)||; +inf on divergence (float, array or LogGrid, as in
    ``norm_head_u``)."""
    x, at = _log_args(t)
    out = np.exp(-p.theta * x) * tail_factors(p, at)
    return out if x.ndim else float(out)


def _log_args(t):
    """(ln t, where to read the factors): a LogGrid's log points and the
    grid itself, else ln t twice."""
    if isinstance(t, LogGrid):
        return t.log_points(), t
    x = np.log(_positive(t))
    return x, x


def _positive(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError("t must be positive")
    return ts


def norm_min(p: PhiParam, t: float) -> float:
    """||min(u, t)||; requires min(1, u) to be a member of the space."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    require_membership(p)
    x = math.log(t)
    return math.exp((1.0 - p.theta) * x) * min_factor(p, x)


def phi_norm(p: PhiParam, g, support=(0.0, math.inf)) -> float:
    """Quasi-norm of a nonnegative function given as a vectorized callable of t.

    ``g`` is evaluated on quadrature nodes and must tolerate the limit
    arguments t == 0.0 and t == inf, which appear when nodes probe far
    outside double range.  Returns +inf when divergence is detected;
    divergence is a value here, not an exception.
    """
    lo, hi = support
    if not (0.0 <= lo < hi):
        raise ValueError("support must be a nonempty subinterval of (0, inf)")
    x_lo = math.log(lo) if lo > 0.0 else -math.inf
    x_hi = math.log(hi) if math.isfinite(hi) else math.inf
    theta, q = p.theta, p.q

    def raw(x):
        with np.errstate(over="ignore", under="ignore"):
            u = np.exp(np.asarray(x, dtype=float))
        gv = np.asarray(g(u), dtype=float)
        bv = eval_sv_log(p.b, x)
        return gv, bv

    if p.sup_norm:
        def fn(x):
            gv, bv = raw(x)
            return decay_product(-theta * np.asarray(x, dtype=float), bv * gv)
        return sup_log(fn, x_lo, x_hi, ppd=p.ppd, anchors=(0.0,)).or_inf()

    def fn(x):
        gv, bv = raw(x)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            core = (bv * gv) ** q
        core = np.where(gv == 0.0, 0.0, core)
        return decay_product(-theta * q * np.asarray(x, dtype=float), core)

    r = integral_log(fn, x_lo, x_hi, ppd=p.ppd, kinks=(0.0,))
    return r.or_inf() ** (1.0 / q)


def _powered(p: PhiParam, core, rate: float):
    """The finite-q integrand e^{rate q x} core(x, rows)^q, 0 where the core
    is; ``core`` returns the nonnegative core at the points x of the rows
    ``rows`` (as ``QuadPlan.apply`` passes them)."""

    def fn(x, rows=None):
        x = np.asarray(x, dtype=float)
        c = core(x, rows)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            cq = c ** p.q
        cq = np.where(c == 0.0, 0.0, cq)
        return decay_product(rate * p.q * x, cq)
    return fn


def _norm_pow(p: PhiParam, lo, hi, core, rate: float, *, kinks=(),
              row_kinks=None, ppd=None) -> QuadResult:
    """||χ_[lo_i, hi_i](x) e^{rate x} core(x)|| of every row i of the
    broadcast bounds, before the q-th root; rows with hi <= lo are 0.

    Finite q: one ``QuadPlan`` of ``_powered``.  q = inf: one ``sup_log``
    per row, on the points x (1-d) with ``core(x, i)`` for the row's flat
    index i, anchored at the kinks, the row's kink and its finite bounds.
    ``row_kinks`` holds one kink per row (NaN for none); ``ppd`` defaults to
    p's.
    """
    ppd = p.ppd if ppd is None else ppd
    if not p.sup_norm:
        return QuadPlan(lo, hi, ppd=ppd, kinks=kinks, row_kinks=row_kinks,
                        exp_rate=rate * p.q).apply(_powered(p, core, rate))
    lo, hi, row = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
        np.asarray(math.nan if row_kinks is None else row_kinks, dtype=float))
    value, diverged = np.zeros(lo.shape), np.zeros(lo.shape, dtype=bool)
    for i in np.flatnonzero(hi > lo):
        a, b = lo.flat[i], hi.flat[i]
        anchors = tuple(kinks) + tuple(
            v for v in (row.flat[i], a, b) if math.isfinite(v))
        r = sup_log(lambda x: decay_product(rate * x, core(x, i)), a, b,
                    ppd=ppd, anchors=anchors, rate=rate)
        value.flat[i], diverged.flat[i] = r.value, r.diverged
    return QuadResult(value, diverged)


def _join(p: PhiParam, a: QuadResult, b: QuadResult) -> QuadResult:
    """The norm before the root over the union of two pieces: the sum of
    theirs, their max at q = inf."""
    value = (np.maximum(a.value, b.value) if p.sup_norm
             else a.value + b.value)
    return QuadResult(value, a.diverged | b.diverged)


def _profile_pow(p: PhiParam, profile, side: str, x_t) -> QuadResult:
    """||χ_(0,t) K|| (head) or ||χ_(t,∞) K|| (tail) before the root, at every
    x_t = ln t.  ``profile`` is a KProfile: with one row it serves every
    x_t, with several its row i is truncated at the i-th entry of x_t.

    [u^{-theta} b K]^q du/u is integrated in two forms: below
    min(x_t, 0) the slope form e^{(1-theta) q x} (b K/u)^q, stable toward
    u -> 0 where K/u tends to a constant; above it the value form
    e^{-theta q x} (b K)^q, stable toward u -> inf where K saturates.
    """
    kinks = tuple(profile.log_kinks()) + (0.0,)

    def form(k):
        return lambda x, rows: (eval_sv_log(p.b, x)
                                * np.asarray(k(x, rows), dtype=float))

    value = form(profile.value_log)
    if side == "tail":
        return _norm_pow(p, x_t, math.inf, value, -p.theta, kinks=kinks)
    if side != "head":
        raise ValueError("side must be 'head' or 'tail'")
    mid = np.minimum(x_t, 0.0)
    return _join(p, _norm_pow(p, -math.inf, mid, form(profile.slope_log),
                              1.0 - p.theta, kinks=kinks),
                 _norm_pow(p, mid, x_t, value, -p.theta, kinks=kinks))


def norm_trunc_profile(p: PhiParam, profile: KProfile, side: str, t):
    """Truncated norm of a K-profile: ||χ_(0,t) K||  or  ||χ_(t,∞) K||.

    ``t`` may be a float (returns a float) or an array (returns an array).
    """
    ts = _positive(t)
    out = qth_root(p, _profile_pow(p, profile, side, np.log(ts)))
    return out if ts.ndim else float(out)


def full_norm_profile(p: PhiParam, profile: KProfile) -> float:
    """||K(·, f)|| over all of (0, ∞); +inf on divergence."""
    return float(_full_norm(p, profile, 0.0))


def full_norm_profiles(p: PhiParam, profiles: KProfile) -> np.ndarray:
    """``full_norm_profile`` of every row of ``profiles``: batched passes at
    finite q, one search per row at q = inf."""
    return _full_norm(p, profiles, np.zeros(len(profiles.values)))


def _full_norm(p, profile, x_t):
    return qth_root(p, _join(p, _profile_pow(p, profile, "head", x_t),
                             _profile_pow(p, profile, "tail", x_t)))


def phi_to_json(p: PhiParam) -> dict:
    return {"theta": p.theta,
            "q": "inf" if p.sup_norm else p.q,
            "b": sv_to_json(p.b)}


def phi_from_json(obj: dict, path: str = "phi") -> PhiParam:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    try:
        qraw, theta, b = obj["q"], obj["theta"], obj["b"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    # its messages name their full path, path.b and below
    b = sv_from_json(b, path + ".b")
    try:
        q = math.inf if qraw in ("inf", "Infinity") else float(qraw)
        return PhiParam(theta=float(theta), q=q, b=b, name=path)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
