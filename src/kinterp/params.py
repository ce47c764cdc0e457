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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .couples import KProfile, WeightedProfiles
from .errors import MembershipError, RangeError
from .quadrature import (LogGrid, QuadPlan, QuadResult, decay_product,
                         integral_log, sup_log)
from .sv import (Constant, SVDescriptor, eval_sv_log, shift_integral,
                 sv_from_json, sv_to_json)

_NORM_GRID = LogGrid(1e-8, 1e8, 64)


@dataclass(frozen=True)
class PhiParam:
    """One K-interpolation parameter: exponent, integrability, SV weight."""

    theta: float
    q: float
    b: SVDescriptor = Constant(1.0)
    grid_policy: LogGrid = field(default=_NORM_GRID)
    #: how error messages refer to the parameter (its scenario field)
    name: str = field(default="phi", compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (self.q > 0.0):
            raise ValueError("q must lie in (0, inf]")

    @property
    def sup_norm(self) -> bool:
        return math.isinf(self.q)

    @property
    def ppd(self) -> int:
        return self.grid_policy.points_per_decade


def qth_root(p: PhiParam, r: QuadResult):
    """r.value ** (1/q) elementwise, +inf where r diverged.

    Raises RangeError naming the parameter when a finite q-th power has no
    finite root in double precision.
    """
    vals = np.where(r.diverged, math.inf, r.value)
    with np.errstate(over="ignore"):
        out = vals ** (1.0 / p.q)
    if np.any(np.isinf(out) & np.isfinite(vals)):
        raise RangeError(
            f"{p.name}: ‖·‖^(1/q) left double range (q={p.q:g})")
    return out


def _shift_factors(p: PhiParam, xs, side: str) -> np.ndarray:
    """H (head) or T (tail) at every x of xs; +inf on divergence."""
    xs = np.asarray(xs, dtype=float)
    c = 1.0 - p.theta if side == "head" else -p.theta
    if not p.sup_norm:
        return qth_root(p, shift_integral(p.b, p.q, xs, c * p.q, side, p.ppd))
    lo, hi = (-math.inf, 0.0) if side == "head" else (0.0, math.inf)
    out = np.empty(xs.shape)
    for i, x in enumerate(xs.flat):  # q = inf: one supremum search per point

        def fn(v, x=x):
            return decay_product(c * v, eval_sv_log(p.b, x + v))

        out.flat[i] = sup_log(fn, lo, hi, ppd=p.ppd, anchors=(-x, 0.0)).or_inf()
    return out


def head_factors(p: PhiParam, xs) -> np.ndarray:
    """H at every x of xs (any shape); +inf on divergence."""
    return _shift_factors(p, xs, "head")


def tail_factors(p: PhiParam, xs) -> np.ndarray:
    """T at every x of xs (any shape); +inf on divergence."""
    return _shift_factors(p, xs, "tail")


def min_factors(p: PhiParam, xs, *, method: str = "auto") -> np.ndarray:
    """M at every x of xs (any shape); see ``min_factor``."""
    if p.theta == 0.0:
        return tail_factors(p, xs)
    if p.theta == 1.0:
        return head_factors(p, xs)
    if method == "auto":
        closed = _closed_min_factor(p)
        if closed is not None:
            return np.full(np.shape(xs), closed)
    h = head_factors(p, xs)
    t = tail_factors(p, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        m = (np.maximum(h, t) if p.sup_norm
             else (h ** p.q + t ** p.q) ** (1.0 / p.q))
    return np.where(np.isinf(h) | np.isinf(t), math.inf, m)


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


def min_factor(p: PhiParam, x: float, *, method: str = "auto") -> float:
    """M(x) with ||min(u, t)|| = t^{1-theta} M(ln t).

    At theta = 0 this is the tail-dominated representative T, at theta = 1
    the head-dominated H; for 0 < theta < 1 it combines both sides, using
    the closed form when b is constant and q finite (method="quadrature"
    forces the quadrature path for cross-checks).
    """
    return float(min_factors(p, x, method=method))


_membership_cache: dict = {}


def membership_min1(p: PhiParam) -> bool:
    """True iff t ↦ min(1, t) has a finite norm under p."""
    v = _membership_cache.get(p)
    if v is None:
        v = math.isfinite(head_factor(p, 0.0)) and math.isfinite(tail_factor(p, 0.0))
        _membership_cache[p] = v
    return v


def require_membership(p: PhiParam):
    if not membership_min1(p):
        raise MembershipError(
            f"min(1, t) has infinite norm for theta={p.theta}, q={p.q}")


def norm_head_u(p: PhiParam, t):
    """||u χ_(0,t)(u)||; +inf on divergence.

    ``t`` may be a float (returns a float) or an array (returns an array).
    """
    ts = _positive(t)
    x = np.log(ts)
    out = np.exp((1.0 - p.theta) * x) * head_factors(p, x)
    return out if ts.ndim else float(out)


def norm_tail_char(p: PhiParam, t):
    """||χ_(t,∞)||; +inf on divergence (float or array, as ``t``)."""
    ts = _positive(t)
    x = np.log(ts)
    out = np.exp(-p.theta * x) * tail_factors(p, x)
    return out if ts.ndim else float(out)


def _positive(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError("t must be positive")
    return ts


def norm_min(p: PhiParam, t: float, *, method: str = "auto") -> float:
    """||min(u, t)||; requires min(1, u) to be a member of the space."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    require_membership(p)
    x = math.log(t)
    return math.exp((1.0 - p.theta) * x) * min_factor(p, x, method=method)


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


def _integrand_slope_form(p, profile):
    # [u^{-theta} b K]^q du/u as e^{(1-theta)q x} (b * K/u)^q dx: the slope
    # form, stable toward u -> 0 where K/u tends to a constant
    theta, q = p.theta, p.q

    def fn(x, rows=None):
        x = np.asarray(x, dtype=float)
        core = (eval_sv_log(p.b, x)
                * np.asarray(profile.slope_log(x, rows), float))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            cq = core ** q
        cq = np.where(core == 0.0, 0.0, cq)
        return decay_product((1.0 - theta) * q * x, cq)
    return fn


def _integrand_value_form(p, profile):
    # e^{-theta q x} (b * K)^q dx: stable toward u -> inf where K saturates
    theta, q = p.theta, p.q

    def fn(x, rows=None):
        x = np.asarray(x, dtype=float)
        core = (eval_sv_log(p.b, x)
                * np.asarray(profile.value_log(x, rows), float))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            cq = core ** q
        cq = np.where(core == 0.0, 0.0, cq)
        return decay_product(-theta * q * x, cq)
    return fn


def trunc_profile_pow(p: PhiParam, profile: KProfile, side: str, t):
    """Raw q-th power of the truncated norm; finite q only.

    ``t`` may be a float or an array; the QuadResult holds values of its
    shape.  ``profile`` is a KProfile, or a WeightedProfiles whose row i is
    truncated at the i-th entry of t.
    """
    x_t = np.log(np.asarray(t, dtype=float))
    kinks = tuple(profile.log_kinks()) + (0.0,)
    # the forms carry e^{(1-theta) q x} and e^{-theta q x}
    slope_rate, value_rate = (1.0 - p.theta) * p.q, -p.theta * p.q
    if side == "head":
        mid = np.minimum(x_t, 0.0)
        r1 = QuadPlan(-math.inf, mid, ppd=p.ppd, kinks=kinks,
                       exp_rate=slope_rate).apply(
                           _integrand_slope_form(p, profile))
        r2 = QuadPlan(mid, x_t, ppd=p.ppd, kinks=kinks,
                       exp_rate=value_rate).apply(
                           _integrand_value_form(p, profile))
        return QuadResult(r1.value + r2.value, r1.diverged | r2.diverged)
    if side == "tail":
        return QuadPlan(x_t, math.inf, ppd=p.ppd, kinks=kinks,
                         exp_rate=value_rate).apply(
                             _integrand_value_form(p, profile))
    raise ValueError("side must be 'head' or 'tail'")


def norm_trunc_profile(p: PhiParam, profile: KProfile, side: str, t):
    """Truncated norm of a K-profile: ||χ_(0,t) K||  or  ||χ_(t,∞) K||.

    ``t`` may be a float (returns a float) or an array (returns an array).
    """
    ts = _positive(t)
    if side not in ("head", "tail"):
        raise ValueError("side must be 'head' or 'tail'")
    if p.sup_norm:
        out = np.empty(ts.shape)
        for i, x_t in enumerate(np.log(ts).flat):  # q = inf: one search per t
            out.flat[i] = _sup_trunc_profile(p, profile, side, float(x_t))
    else:
        out = qth_root(p, trunc_profile_pow(p, profile, side, ts))
    return out if ts.ndim else float(out)


def _sup_trunc_profile(p, profile, side, x_t):
    anchors = tuple(profile.log_kinks()) + (0.0, x_t)
    if side == "head":
        def fn(x):
            x = np.asarray(x, dtype=float)
            core = eval_sv_log(p.b, x) * np.asarray(profile.slope_log(x), float)
            return decay_product((1.0 - p.theta) * x, core)
        return sup_log(fn, -math.inf, x_t, ppd=p.ppd, anchors=anchors).or_inf()

    def fn(x):
        x = np.asarray(x, dtype=float)
        core = eval_sv_log(p.b, x) * np.asarray(profile.value_log(x), float)
        return decay_product(-p.theta * x, core)
    return sup_log(fn, x_t, math.inf, ppd=p.ppd, anchors=anchors).or_inf()


def full_norm_profile(p: PhiParam, profile: KProfile) -> float:
    """||K(·, f)|| over all of (0, ∞); +inf on divergence."""
    if p.sup_norm:
        h = norm_trunc_profile(p, profile, "head", 1.0)
        t = norm_trunc_profile(p, profile, "tail", 1.0)
        return max(h, t)
    return float(_full_norm_pow_root(p, profile, 1.0))


def full_norm_profiles(p: PhiParam, profiles: WeightedProfiles) -> np.ndarray:
    """``full_norm_profile`` of every row of ``profiles`` in batched passes;
    finite q only."""
    return _full_norm_pow_root(p, profiles, np.ones(len(profiles.coeffs)))


def _full_norm_pow_root(p, profile, ones):
    rh = trunc_profile_pow(p, profile, "head", ones)
    rt = trunc_profile_pow(p, profile, "tail", ones)
    return qth_root(p, QuadResult(rh.value + rt.value,
                                  rh.diverged | rt.diverged))


def phi_to_json(p: PhiParam) -> dict:
    return {"theta": p.theta,
            "q": "inf" if p.sup_norm else p.q,
            "b": sv_to_json(p.b)}


def phi_from_json(obj: dict, path: str = "phi") -> PhiParam:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    try:
        qraw = obj["q"]
        q = math.inf if qraw in ("inf", "Infinity") else float(qraw)
        return PhiParam(theta=float(obj["theta"]), q=q,
                        b=sv_from_json(obj["b"], path + ".b"), name=path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
