"""Weighted-Lq(dt/t) interpolation parameters and their norms.

A parameter is the monotone quasi-norm

    ||g|| = ( ∫_0^∞ [t^{-theta} b(t) |g(t)|]^q dt/t )^{1/q},

with the usual sup modification at q = ∞, for theta in [0, 1], q in (0, ∞]
and b slowly varying.  Throughout, norms of the canonical test functions are
factored as an exact power of t times a slowly varying factor,

    ||u χ_(0,t)||        = t^{1-theta} * H(ln t)
    ||χ_(t,∞)||          = t^{-theta}  * T(ln t)
    ||min(u, t)||        = t^{1-theta} * M(ln t)

with H, T, M computed by ``sv.shift_integral``, which stays finite for |ln t|
far beyond the representable range of t — the nested condition checks probe
that deep.  At rate 0 (H at theta = 1, T at theta = 0) a weight made of
Constant, BrokenLog, Product and Power nodes takes the exact closed form of
``sv.rate0_integral``, divergence included, and so does such a weight at
every rate at q = inf (the supremum of e^{cv} C (1 + |x + v|)^a, at the
bound, the kink or its one interior maximum), and a constant weight at
every rate and q (H = C ((1-theta) q)^{-1/q}, T = C (theta q)^{-1/q}); a
primitive at q = inf and rate 0 takes that of ``sv.primitive_sup``; every
other factor is shifted quadrature.  On a LogGrid that quadrature is one
sweep along the grid's points (``_swept_powers``): a restart at the first
point of each side and one short increment per gap, whose row holds the
weight's kink w = 0 that the half-line rule puts in its far region once
|ln t| > 1; at an array of points it is the rule at each.
``swept_min_factors`` sweeps M along a node set and carries it to other
points, one ``_steps`` each.  At the endpoints the min-norm uses its
dominated representative form (M = T at theta = 0, M = H at theta = 1),
which matches the full norm up to a constant controlled by slow variation
and makes the canonical weight take its endpoint-ratio shape exactly.  The
full two-sided quadrature remains available through
``norm_head_u``/``norm_tail_char``.

Every norm here is ||χ_[lo,hi] e^{c x} g|| of some core g, and
``quadrature.norm_pow`` computes it for a batch of rows before the q-th
root, for every q in (0, ∞]: H and T, a sweep's restarts and increments
in one call, and ``phi_norm``; the truncated norms of K(·, f) at many
cutoffs are one row cut at each (``truncated_pows``), under one weight
or, one row each from the same pass, under several.  The full norms of
many profiles, the decomposition candidates, split each half-line at the
knot hull (``hull_pows``): outside it every row's core is b times a
constant of the row, so b is evaluated once there and each row scales it
(at q = inf, scales its supremum), and only the nodes inside are evaluated
per row.  Both the truncated and the full norms
take a form's scale outside the root where its q-th power alone leaves
double range (``_root_scales``, ``_scaled_root``).
``_join`` adds two pieces, or takes their max at q = inf, and
``qth_root`` finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .couples import KProfile
from .errors import MembershipError, RangeError
from .quadrature import (DEFAULT_PPD, LogGrid, QuadResult, _lattice_width,
                         hull_pows, norm_pow, powered, truncated_pows)
from .sv import (Constant, SVDescriptor, eval_sv_log, log_power_form,
                 rate0_integral, shift_integral, side_rows, sv_from_json)

# Bound here though this module calls neither: perfbench/spans.py wraps
# these names at this layer boundary and reports a missing one.
from .quadrature import integral_log, sup_log  # noqa: E402,F401


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
    """H (head) or T (tail) at every x of xs; +inf on divergence.

    On a LogGrid, p computes them once per grid and side, and keeps them
    read-only.  There, for finite q at a rate c != 0 with no closed form
    (``rate0_integral`` gives None), they come from one sweep along the
    grid's points (``_swept_powers``), so a grid's factors depend on its
    own points, as a swept M does on its node set; an array of points, and
    every other case, takes the rule of ``shift_integral`` at each point.
    """
    c = 1.0 - p.theta if side == "head" else -p.theta
    if isinstance(xs, LogGrid):
        key = (side, xs)
        if key not in p._memo:
            pts = xs.log_points()
            swept = not (p.sup_norm or c == 0.0 or rate0_integral(
                p.b, p.q, 0.0, side, c) is not None)
            vals = (qth_root(p, _swept_powers(p, pts, side)) if swept
                    else _shift_factors(p, pts, side))
            vals.setflags(write=False)
            p._memo[key] = vals
        return p._memo[key]
    return qth_root(p, shift_integral(p.b, p.q, np.asarray(xs, dtype=float),
                                      c, side, p.ppd))


def head_factors(p: PhiParam, xs) -> np.ndarray:
    """H at every x of xs (any shape, or a LogGrid); +inf on divergence.
    On a grid p keeps them, swept along its points where
    ``_shift_factors`` says, so they depend on the grid's own points."""
    return _shift_factors(p, xs, "head")


def tail_factors(p: PhiParam, xs) -> np.ndarray:
    """T at every x of xs (any shape, or a LogGrid), as ``head_factors``."""
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


def swept_min_factors(p: PhiParam, xs: np.ndarray):
    """(M, carry): M at the sorted distinct points xs, from H^q and T^q by
    one sweep per side (``_swept_powers``) for finite q and 0 < theta < 1
    with no closed form, and carry(ys), M at the points ys (any shape),
    each carried from xs by one step of that sweep per side
    (``_carried_powers``); otherwise ``min_factors`` at xs and at ys.  A
    swept value depends on the other points of xs, so callers pass a node
    set that their input fixes.
    """
    if (p.sup_norm or not 0.0 < p.theta < 1.0
            or _closed_min_factor(p) is not None):
        return min_factors(p, xs), lambda ys: min_factors(p, ys)
    powers = {side: _swept_powers(p, xs, side) for side in ("head", "tail")}

    def carry(ys):
        return _combine(p, *(qth_root(p, _carried_powers(p, xs, g, side, ys))
                             for side, g in powers.items()))
    return _combine(p, *(qth_root(p, r) for r in powers.values())), carry


def _steps(p: PhiParam, side: str, y: np.ndarray, d: np.ndarray):
    """(e^{-r d}, increments) of one step of the sweep (``_swept_powers``)
    to each of the points y (flat), each a distance d past the point it
    steps from (inf where there is none).  The increments are the rows of
    one ``sv.side_rows`` call, one plan: the whole side where e^{-r d} is
    exactly 0.0 (a restart), the gap otherwise.  A gap too short for a
    panel, which the rule reads as 0 (``quadrature._row_edges``), takes
    d times the integrand at its midpoint: the gaps of a grid finer than a
    panel, and points that polish a supremum next to a node."""
    c = 1.0 - p.theta if side == "head" else -p.theta
    with np.errstate(under="ignore"):
        decay = np.exp(-abs(c) * p.q * d)
    short = d <= 1e-9 * _lattice_width(p.ppd)
    r = side_rows(p.b, p.q, y, c, side, np.where(
        decay == 0.0, math.inf, np.where(short, 0.0, d)), p.ppd)
    if short.any():
        mid = 0.5 * d[short] * (-1.0 if side == "head" else 1.0)
        r.value[short] = d[short] * powered(
            lambda v, rows: eval_sv_log(p.b, y[short] + v), c, p.q)(mid)
    return decay, r


def _swept_powers(p: PhiParam, xs: np.ndarray, side: str) -> QuadResult:
    """H^q (head) or T^q (tail) at the sorted distinct points xs.

    The head G(x) = ∫_{w<x} e^{r(w-x)} b^q dw at rate r = (1-theta) q is
    swept left to right, the tail (w > x, rate theta q) right to left: from
    one point to the next, at distance d,

        G_next = G e^{-r d} + ∫ e^{-r |w - x_next|} b^q dw  over the gap,

    the increment by the rule of ``shift_integral`` on a bounded row in
    relative coordinates v = w - x_next, with the weight's kink w = 0 at
    v = -x_next, all in one ``_steps``; the gaps of one direct panel (most
    of them) take their own nodes.  The first point (at d = inf), and every
    point where e^{-r d} is exactly 0.0, restarts with the whole side.  A
    divergence flag, a restart's or an increment's, carries along the
    sweep up to the next restart.
    """
    x = xs if side == "head" else xs[::-1]
    decay, r = _steps(p, side, x,
                      np.concatenate(([math.inf], np.abs(np.diff(x)))))
    vals, g = [], 0.0
    for e, v in zip(decay.tolist(), r.value.tolist()):
        g = v if e == 0.0 else g * e + v  # a restart where e is 0.0
        vals.append(g)
    restart = decay == 0.0
    # a flag carries to the next restart: the last flag at or before each
    # point is at or after its restart
    last = np.maximum.accumulate(np.where(r.diverged, np.arange(x.size), -1))
    flags = last >= np.flatnonzero(restart)[np.cumsum(restart) - 1]
    order = slice(None) if side == "head" else slice(None, None, -1)
    return QuadResult(np.array(vals)[order], flags[order])


def _carried_powers(p: PhiParam, xs: np.ndarray, g: QuadResult, side: str,
                    ys) -> QuadResult:
    """H^q (head) or T^q (tail) at the points ys (any shape), from their
    values g at the sorted distinct xs (``_swept_powers``): each y takes one
    step of the sweep (``_steps``) from the nearest point x of xs before it
    along the sweep (at or below y for the head, at or above it for the
    tail), g(x) e^{-r d} plus the increment, and x's flag; where there is
    no such point (d = inf), or e^{-r d} is 0.0, the whole side, as a
    restart."""
    y = np.ravel(np.asarray(ys, dtype=float))
    k = (np.searchsorted(xs, y, "right") - 1 if side == "head"
         else np.searchsorted(xs, y, "left"))
    has = (k >= 0) & (k < xs.size)
    k = np.clip(k, 0, xs.size - 1)
    with np.errstate(invalid="ignore"):
        d = np.where(has, np.abs(y - xs[k]), math.inf)
    decay, r = _steps(p, side, y, d)
    fresh = decay == 0.0
    value = np.where(fresh, r.value, g.value[k] * decay + r.value)
    flag = np.where(fresh, r.diverged, g.diverged[k] | r.diverged)
    shape = np.shape(ys)
    return QuadResult(value.reshape(shape), flag.reshape(shape))


def head_factor(p: PhiParam, x: float) -> float:
    """H(x) with ||u χ_(0,t)|| = t^{1-theta} H(ln t); +inf on divergence."""
    return float(head_factors(p, x))


def tail_factor(p: PhiParam, x: float) -> float:
    """T(x) with ||χ_(t,∞)|| = t^{-theta} T(ln t); +inf on divergence."""
    return float(tail_factors(p, x))


def _closed_min_factor(p: PhiParam):
    """Exact M for constant b (a ``log_power_form`` (C, 0, 0)), finite q,
    0 < theta < 1."""
    form = log_power_form(p.b)
    if (form is not None and form[1:] == (0.0, 0.0) and not p.sup_norm
            and 0.0 < p.theta < 1.0):
        return form[0] * (1.0 / ((1.0 - p.theta) * p.q)
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
            f"{p.name}: min(1, t) has infinite norm for theta={p.theta}, "
            f"q={p.q}")


def norm_head_u(p: PhiParam, t):
    """||u χ_(0,t)(u)||; +inf on divergence.

    ``t`` may be a float (returns a float), an array or a LogGrid (returns
    an array; on a grid, from the H that p keeps there, which may be swept
    along the grid's points and so depend on them: ``_shift_factors``).
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


def phi_norm(p: PhiParam, g, support=(0.0, math.inf)) -> float:
    """Quasi-norm of a nonnegative function given as a vectorized callable of t.

    ``g`` is evaluated on quadrature nodes and must tolerate the limit
    arguments t == 0.0 and t == inf, which appear when nodes probe far
    outside double range.  The norm is one ``norm_pow`` of the core
    b(e^x) g(e^x) (0 where g is) at rate -theta, and its q-th root.
    Returns +inf when divergence is detected; divergence is a value here,
    not an exception.  Raises RangeError when a finite q-th power has no
    finite root in double precision.
    """
    lo, hi = support
    if not (0.0 <= lo < hi):
        raise ValueError("support must be a nonempty subinterval of (0, inf)")
    x_lo = math.log(lo) if lo > 0.0 else -math.inf
    x_hi = math.log(hi) if math.isfinite(hi) else math.inf

    def core(x, rows):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            gv = np.asarray(g(np.exp(x).ravel()),
                            dtype=float).reshape(x.shape)
            return np.where(gv == 0.0, 0.0, eval_sv_log(p.b, x) * gv)

    return float(qth_root(p, norm_pow(x_lo, x_hi, core, -p.theta, p.q,
                                      ppd=p.ppd, kinks=(0.0,))))


def _join(p: PhiParam, a: QuadResult, b: QuadResult) -> QuadResult:
    """The norm before the root over the union of two pieces: the sum of
    theirs, their max at q = inf."""
    value = (np.maximum(a.value, b.value) if p.sup_norm
             else a.value + b.value)
    return QuadResult(value, a.diverged | b.diverged)


def _forms(p: PhiParam, profile, bs=None, scales=(1.0, 1.0)):
    """The cores of [u^{-theta} b K]^q du/u for p's weight b, or, one block
    of rows each, for the weights ``bs``, and their kinks: below x = 0 the
    slope form e^{(1-theta) q x} (b K/u)^q, stable toward u -> 0 where K/u
    tends to a constant; above it the value form e^{-theta q x} (b K)^q,
    stable toward u -> inf where K saturates.  K is evaluated once for all
    weights, and divided by ``scales`` = (slope form's, value form's)."""
    bs = (p.b,) if bs is None else bs

    def form(k, scale):
        def core(x, rows):
            # 0 where K is, also where b overflows to +inf; +inf where the
            # product leaves double range
            kv = np.asarray(k(x, rows), dtype=float)
            if scale != 1.0:
                kv = kv / scale
            nonzero, out = kv != 0.0, np.zeros((len(bs),) + kv.shape)
            with np.errstate(over="ignore"):
                for o, b in zip(out, bs):
                    np.multiply(eval_sv_log(b, x), kv, out=o, where=nonzero)
            return out.reshape((-1,) + kv.shape[1:])
        return core

    return (form(profile.slope_log, scales[0]),
            form(profile.value_log, scales[1]),
            tuple(profile.log_kinks()) + (0.0,))


def _profile_parts(p: PhiParam, profile, side: str, x_t, bs=None,
                   scales=(1.0, 1.0)) -> list:
    """[(integral, scale)] of each form (``_forms``) of ||χ_(0,t) K|| (head:
    the slope form below x = 0, the value form above) or ||χ_(t,∞) K||
    (tail: the value form) of a one-row KProfile before the root, at every
    x_t = ln t, each one ``truncated_pows`` over all of x_t, with the form's
    K divided by its scale of ``scales`` = (slope form's, value form's).
    With the weights ``bs`` in place of p's (at p's theta and q), one row
    each, from the same pass: shaped (len(bs),) + x_t.shape."""
    slope, value, kinks = _forms(p, profile, bs, scales)
    kw = dict(ppds=(p.ppd,), kinks=kinks,
              weights=None if bs is None else len(bs))

    def pows(end, cuts, core, rate):
        return truncated_pows(end, cuts, core, rate, p.q, **kw)[0]

    if side == "tail":
        return [(pows(math.inf, x_t, value, -p.theta), scales[1])]
    if side != "head":
        raise ValueError("side must be 'head' or 'tail'")
    return [(pows(-math.inf, np.minimum(x_t, 0.0), slope, 1.0 - p.theta),
             scales[0]), (pows(0.0, x_t, value, -p.theta), scales[1])]


def _profile_pow(p: PhiParam, profile, side: str, x_t, bs=None) -> QuadResult:
    """||χ_(0,t) K|| (head) or ||χ_(t,∞) K|| (tail) of a one-row KProfile
    before the root: the ``_join`` of its ``_profile_parts``."""
    parts = [r for r, _ in _profile_parts(p, profile, side, x_t, bs)]
    return parts[0] if len(parts) == 1 else _join(p, *parts)


def _profile_norm(p: PhiParam, profile, side: str, x_t, bs=None):
    """The root of ``_profile_pow``, with K's scale taken outside it where
    its q-th power alone leaves double range.

    The scales are those of ``_form_scales``.  Where s^q is 0 or inf for
    some 0 < s < inf of the side's forms, (b K)^q would underflow to 0,
    hiding a divergence, or overflow: each such form then integrates
    (b K/s)^q, and ``_scaled_root`` joins them.  Otherwise the scales are 1,
    and the values the root of ``_profile_pow``'s, to its bits.
    """
    s = _form_scales(profile)[:, 0]
    if side == "tail":  # the value form alone
        s[0] = s[1]
    scales = tuple(_root_scales(p, s).tolist())
    return _scaled_root(p, _profile_parts(p, profile, side, x_t, bs, scales))


def _form_scales(profile) -> np.ndarray:
    """(2, rows): per row, the scale of the slope form, K(k_1)/k_1, which
    K/u tends to below the first knot, and of the value form, K(k_m), which
    K tends to past the last."""
    return np.stack([profile.values[:, 0] / profile.knots[0],
                     profile.values[:, -1]])


def _root_scales(p: PhiParam, s: np.ndarray) -> np.ndarray:
    """The scales s of ``_form_scales`` to take outside the root: each
    0 < s < inf whose q-th power is 0 or inf, at finite q; 1 elsewhere."""
    with np.errstate(over="ignore", under="ignore"):
        c = s ** p.q
    out = (s > 0.0) & np.isfinite(s) & ((c == 0.0) | np.isinf(c))
    return np.where(out & (not p.sup_norm), s, 1.0)


def _scaled_root(p: PhiParam, parts) -> np.ndarray:
    """The norm from its forms' integrals before the root, [(I, s)], where
    I integrates (b K/s)^q: (sum of s^q I)^{1/q}.

    Where every s is 1 that is the root of their ``_join``, to its bits.
    Otherwise, per entry, top is the s whose s^q I is the largest (compared
    in log space) and the norm is top times the root of the sum of
    I (s/top)^q, a form of s = top adding I itself; a factor (s/top)^q that
    leaves double range is taken in log space, against its I.  Flags carry.
    """
    if all(np.all(np.equal(s, 1.0)) for _, s in parts):
        rs = [r for r, _ in parts]
        return qth_root(p, rs[0] if len(rs) == 1 else _join(p, *rs))
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        logs = np.broadcast_arrays(*(np.log(r.value) + p.q * np.log(s)
                                     for r, s in parts))
        top = np.choose(np.argmax(logs, axis=0),
                        [np.broadcast_to(s, logs[0].shape) for _, s in parts])
        total, flag = 0.0, False
        for r, s in parts:
            ratio = (s / top) ** p.q
            far = np.exp(np.log(r.value) + p.q * np.log(s / top))
            total = total + np.where(
                (r.value == 0.0) | (s == top), r.value,
                np.where((ratio > 0.0) & np.isfinite(ratio),
                         ratio * r.value, far))
            flag = flag | r.diverged
    return top * qth_root(p, QuadResult(total, flag))


def norm_trunc_profile(p: PhiParam, profile: KProfile, side: str, t):
    """Truncated norm of a one-row K-profile: ||χ_(0,t) K||  or
    ||χ_(t,∞) K||.

    ``t`` may be a float (returns a float) or an array (returns an array),
    finite.  All of t cut one quadrature row, so a value depends on the
    other cutoffs of the call, as a swept M does on its points: by about
    1e-15 on the bundled grids.  Order and repeats of t do not matter.
    """
    return norm_trunc_profiles(p, profile, side, t)


def norm_trunc_profiles(p: PhiParam, profile: KProfile, side: str, t,
                        bs=None):
    """``norm_trunc_profile``; with the weights ``bs``, the truncated norm
    under (p.theta, p.q, b) for each b of bs, one row each, all from one
    quadrature pass and each to the bits of its own call."""
    if len(profile.values) != 1:
        raise ValueError("a truncated norm takes a profile of one row, "
                         f"not {len(profile.values)}")
    ts = _positive(t)
    if not np.all(np.isfinite(ts)):
        raise ValueError("t must be finite")
    out = _profile_norm(p, profile, side, np.log(ts), bs)
    return out if np.ndim(out) else float(out)


def full_norm_profile(p: PhiParam, profile: KProfile) -> float:
    """||K(·, f)|| over all of (0, ∞); +inf on divergence."""
    return float(_full_norm(p, profile, 0.0))


def full_norm_profiles(p: PhiParam, profiles: KProfile) -> np.ndarray:
    """``full_norm_profile`` of every row of ``profiles``, in batched
    passes."""
    return _full_norm(p, profiles, np.zeros(len(profiles.values)))


def _full_norm(p, profile, zero):
    """The norm of each row of ``profile``; ``zero`` holds a 0.0 per row.

    Each half-line is one ``hull_pows``: outside the knot hull
    [min(ln k_1, 0), max(ln k_m, 0)] row i's form is b times K_i/t = s_i
    (the head, below the first knot) or K_i(k_m) (the tail, past the
    last).  For finite q, in a row where one of these scales has a q-th
    power out of double range (``_root_scales``), each form integrates
    (b K_i/scale)^q and ``_scaled_root`` joins them, as in
    ``_profile_norm``; every other row keeps its bits.  At q = inf the
    scales are 1.
    """
    slope, value, kinks = _forms(p, profile)
    kw = dict(ppd=p.ppd, kinks=kinks)
    log_knots = profile.log_kinks()
    kw.update(hull=(min(log_knots[0], 0.0), max(log_knots[-1], 0.0)))
    s = _form_scales(profile)
    scales = _root_scales(p, s)
    if (scales != 1.0).any():
        slope, value = (_forms(p, KProfile(profile.knots, profile.values
                                           / scales[f][:, None]))[f]
                        for f in (0, 1))

    def weight(x):
        return eval_sv_log(p.b, x)

    head = hull_pows(-math.inf, 0.0, slope, weight, s[0] / scales[0],
                     1.0 - p.theta, p.q, **kw)
    tail = hull_pows(0.0, math.inf, value, weight, s[1] / scales[1],
                     -p.theta, p.q, **kw)
    return _scaled_root(p, [(head, scales[0]), (tail, scales[1])]).reshape(
        np.shape(zero))


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
