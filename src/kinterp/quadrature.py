"""Log-axis quadrature engine.

Every integral in this package has the shape ``∫ f(s) ds/s`` over a
subinterval of (0, ∞).  Substituting s = e^x turns it into ``∫ f(e^x) dx`` on
the real line, so all routines here work with *log-space integrands*:
vectorized callables that take an ndarray of x = ln s values and return the
integrand evaluated at s = e^x.  Working in x avoids the under/overflow that
raw s values would hit long before the mathematically relevant range ends.

Three mechanisms together cover a half line:

* composite Gauss-Legendre panels snapped to an absolute lattice, so node
  sets are shared between overlapping integrals (this also makes repeated
  runs bitwise deterministic);
* a log-log substitution x = ±e^y for the infinite ends, compressing
  |x| up to ``DEEP_LOG_RANGE`` into a short y interval, which resolves both
  exponentially and logarithmically decaying integrands;
* an asymptotic log-power tail estimate beyond that, fitted from two
  boundary samples.  The fit doubles as the divergence detector: a boundary
  slope ≥ -1, or a last-doubling increment above ``DIVERGENCE_REL`` of the
  accumulated value, flags the integral as divergent.

Integrands are assumed nonnegative.  Divergence is reported through a flag
rather than an exception because +∞ is a legal quasi-norm value.

``QuadPlan`` applies this rule to many intervals at once: it lays out the
nodes of a batch of rows as one matrix (pass by pass, ``CHUNK_ELEMS`` nodes
at most), evaluates the integrand once per pass and reduces row by row.
``integral_log`` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN10 = math.log(10.0)

GL_ORDER = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)

#: |x| reach of the log-log substituted region (x = ln t, so this covers
#: t down to exp(-1e12)).
DEEP_LOG_RANGE = 1.0e12
#: |x| at which integration switches from direct panels to the substitution.
SWITCH = 1.0
#: relative size of the last domain-doubling increment that flags divergence
DIVERGENCE_REL = 1.0e-3
_SLOPE_MARGIN = 1.0e-6
_TINY_POS = 1.0e-300
_ABS_FLOOR = 1.0e-280
#: exp(-x) is exactly 0.0 in double precision for x above about 745.13
EXP_ZERO = 746.0
#: cap on the floats in one batched pass of the rule (node matrix size)
CHUNK_ELEMS = 4096

DEFAULT_PPD = 64


@dataclass(frozen=True)
class LogGrid:
    """Geometric evaluation grid on (0, ∞)."""

    t_min: float = 1.0e-8
    t_max: float = 1.0e8
    points_per_decade: int = 16

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise ValueError("LogGrid requires 0 < t_min < t_max < inf")
        if self.points_per_decade < 1:
            raise ValueError("LogGrid requires points_per_decade >= 1")

    def log_points(self) -> np.ndarray:
        d0 = math.log10(self.t_min)
        d1 = math.log10(self.t_max)
        n = max(1, round((d1 - d0) * self.points_per_decade))
        return LN10 * np.linspace(d0, d1, n + 1)

    def points(self) -> np.ndarray:
        return np.exp(self.log_points())

    def describe(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "points_per_decade": self.points_per_decade,
        }


@dataclass(frozen=True)
class QuadResult:
    """An integral and its divergence flag (arrays of both for a batch)."""

    value: float
    diverged: bool

    def or_inf(self) -> float:
        return math.inf if self.diverged else self.value


def decay_product(exponent, factor):
    """``exp(exponent) * factor`` with joint-decay handling.

    Where the exponential underflows to zero the product is zero no matter
    how large ``factor`` is (the exponential always wins against slowly
    varying growth); where ``factor`` is exactly zero the product is zero no
    matter the weight.  Where the exponential overflows against a factor
    small enough to bring the product back into range, the product is formed
    in log space.  Everything else, including honest overflow to +inf, is
    passed through.
    """
    exponent = np.asarray(exponent, dtype=float)
    factor = np.asarray(factor, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        e = np.exp(exponent)
        out = e * factor
        if np.isposinf(e).any():
            joint = np.isposinf(e) & (factor > 0.0) & np.isfinite(factor)
            out = np.where(joint, np.exp(exponent + np.log(factor)), out)
    out = np.where(e == 0.0, 0.0, out)
    return np.where(factor == 0.0, 0.0, out)


def _segment(lo, hi, width, kinks):
    """Gauss-Legendre nodes and weights on each row's lattice-snapped panels.

    Row i covers [lo[i], hi[i]] (no panels where hi <= lo).  Its panel edges
    are the lattice points k*width inside, its ``kinks`` (a row of the
    (r, K) array, NaN for none) inside, and the two bounds; a point closer
    than 1e-9*width to its predecessor is dropped, and the outer edges are
    reset to lo and hi.  Returns (nodes, weights), each (r, GL_ORDER * P)
    for the largest panel count P of any row; a row's columns past its own
    panels belong to zero-width panels at hi (zero weight).
    """
    r = lo.size
    k0 = np.floor(lo / width) + 1.0
    inner = np.ceil(hi / width) - k0
    j = np.arange(max(int(inner.max(initial=0.0)), 0))
    lattice = (k0[:, None] + j) * width
    lattice[j >= inner[:, None]] = np.nan
    parts = [lo[:, None], lattice, hi[:, None]]
    if kinks.shape[1]:
        inside = (kinks > lo[:, None]) & (kinks < hi[:, None])
        parts.insert(2, np.where(inside, kinks, np.nan))
    pts = np.concatenate(parts, axis=1)
    pts.sort(axis=1)
    keep = np.ones(pts.shape, dtype=bool)
    keep[:, 1:] = pts[:, 1:] - pts[:, :-1] > width * 1e-9
    pts[~keep] = np.nan
    pts.sort(axis=1)
    count = keep.sum(axis=1)
    edges = pts[:, :int(count.max(initial=1))]
    edges[:, 0] = lo
    edges[np.arange(r), count - 1] = hi
    edges = np.where(np.isnan(edges), hi[:, None], edges)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    nodes = np.multiply(half[:, None, :], _GL_X[:, None])
    nodes += mid[:, None, :]
    weights = np.multiply(half[:, None, :], _GL_W[:, None])
    return nodes.reshape(r, -1), weights.reshape(r, -1)


def distinct(arrays) -> np.ndarray:
    """Sorted distinct values of a list of arrays.

    (np.unique would do, but its first call imports numpy.ma, about 1 MB.)
    """
    v = np.sort(np.concatenate([np.ravel(a) for a in arrays]))
    return v[np.concatenate(([True], v[1:] != v[:-1]))] if v.size else v


def _row_sums(a):
    """Sum of each row of a, left to right.

    A row's terms keep their order in every pass, but where a pass pads
    them with zero columns depends on the other rows; a sequential sum is
    unchanged by the zeros (a pairwise sum is not), so a row's value does
    not depend on the batch it was evaluated in.
    """
    return np.cumsum(a, axis=1)[:, -1]


def _tail_fit(g1, g2, u_ref):
    """Log-power tail beyond u_ref from samples g(u_ref), g(u_ref/2).

    Returns (tail, flag); the fit doubles as the divergence detector: a
    non-finite sample, a vanishing second sample under a positive first one,
    or a boundary slope >= -1 flags the integral as divergent.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        finite = np.isfinite(g1) & np.isfinite(g2)
        pos = finite & (g1 > _TINY_POS)
        slope = np.log(g1 / g2) / math.log(2.0)
        conv = pos & (g2 > _TINY_POS) & (slope < -1.0 - _SLOPE_MARGIN)
        tail = np.where(conv, g1 * u_ref / (-1.0 - slope), 0.0)
    return tail, ~finite | (pos & ~conv)


class QuadPlan:
    """The rule of ``integral_log`` for a batch of intervals [lo_i, hi_i].

    Every row gets exactly the panels, kinks, far-region substitution, tail
    fit and divergence rules that ``integral_log`` applies to it alone; only
    the summation order differs.  ``kinks`` are shared by all rows,
    ``row_kinks`` adds one kink per row (NaN for none).  ``exp_rate`` = a
    declares that the integrand carries the factor e^{a x} through
    ``decay_product``, so it is exactly 0.0 wherever a x <= -EXP_ZERO: the
    far panels past the first lattice edge beyond that point are skipped,
    which changes no node value and no divergence rule.

    Nodes are generated pass by pass, at most about ``CHUNK_ELEMS`` of them
    per pass, each time ``points`` or ``apply`` runs.
    """

    def __init__(self, lo, hi, *, ppd=DEFAULT_PPD, kinks=(), row_kinks=None,
                 exp_rate=0.0):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        self.shape = lo.shape
        self.rows = np.flatnonzero(hi > lo)
        self.lo, self.hi = lo.ravel()[self.rows], hi.ravel()[self.rows]
        self.kinks = np.broadcast_to(np.asarray(kinks, dtype=float),
                                     (self.rows.size, len(kinks)))
        if row_kinks is not None:
            self.kinks = np.column_stack([self.kinks, np.asarray(
                row_kinks, dtype=float).ravel()[self.rows]])
        self.width = LN10 / max(1, round(ppd / GL_ORDER))
        # y = ln|x| beyond which each far region's integrand is exactly 0
        self.y_cut = [math.inf, math.inf]
        if exp_rate and EXP_ZERO / abs(exp_rate) < DEEP_LOG_RANGE:
            self.y_cut[exp_rate < 0.0] = self.width * math.ceil(
                math.log(EXP_ZERO / abs(exp_rate)) / self.width)
        # a bound on each row's node count, from the lengths of its three
        # segments (built in blocks to keep the temporaries small)
        span = np.empty(self.rows.size)
        for start in range(0, self.rows.size, 1024):
            block = np.arange(start, min(start + 1024, self.rows.size))
            span[block] = sum(np.maximum(s_hi - s_lo, 0.0)
                              for s_lo, s_hi, _ in self._segments(block))
        self.cols = GL_ORDER * (span / self.width
                                + 3 * (self.kinks.shape[1] + 1)) + 4

    def _segments(self, idx):
        """(lo, hi, kinks) of rows idx for the direct part in x and the
        negative and positive far regions in y = ln|x|."""
        lo, hi, kk = self.lo[idx], self.hi[idx], self.kinks[idx]
        a = np.maximum(lo, -SWITCH)
        b = np.minimum(hi, SWITCH)
        out = [(a, np.where(b - a >= 1e-15, b, a), kk)]
        with np.errstate(divide="ignore", invalid="ignore"):
            for present, u_min, u_top, ksign, y_cut in (
                    (lo < -SWITCH, np.maximum(SWITCH, -hi), -lo, -kk,
                     self.y_cut[0]),
                    (hi > SWITCH, np.maximum(SWITCH, lo), hi, kk,
                     self.y_cut[1])):
                u_top = np.minimum(u_top, DEEP_LOG_RANGE)
                y_lo = np.log(u_min)
                y_hi = np.minimum(np.log(u_top), y_cut)
                out.append((y_lo,
                            np.where(present & (u_top > u_min), y_hi, y_lo),
                            np.log(ksign)))
        return out

    def _passes(self):
        """(row indices, built points) per pass over the plan's rows."""
        n = self.rows.size
        # rows of similar width share a pass, so little of it is padding
        order = np.argsort(self.cols, kind="stable")
        cols = self.cols[order]
        start = 0
        while start < n:
            fits = np.arange(1, n - start + 1) * cols[start:] <= CHUNK_ELEMS
            stop = start + max(1, int(np.count_nonzero(fits)))
            idx = order[start:stop]
            yield idx, self._build(idx)
            start = stop

    def _build(self, idx):
        """Points of rows idx: (points, weights, valid, inc, unbounded).

        Columns are the direct nodes, the negative and the positive far
        nodes, then, when some row has an unbounded far region, the
        tail-fit probes u_ref, u_ref/2 of the negative and of the positive
        region.  ``inc`` lists, per far region, (first column, mask) where
        the mask marks the nodes that count toward that region's
        last-doubling increment.  Columns a row does not use repeat one of
        its own points, so the integrand sees no point outside the rule.
        """
        r = idx.size
        lo, hi = self.lo[idx], self.hi[idx]
        xs, ws, inc = [], [], []
        unbounded = np.stack([-lo >= DEEP_LOG_RANGE, hi >= DEEP_LOG_RANGE])
        u_min = np.stack([np.maximum(SWITCH, -hi), np.maximum(SWITCH, lo)])
        for k, (s_lo, s_hi, kk) in enumerate(self._segments(idx)):
            if not (s_hi > s_lo).any():
                continue
            x, w = _segment(s_lo, s_hi, self.width, kk)
            if k:
                far = k - 1
                u = np.exp(x, out=x)
                w *= u
                u_top = np.minimum(-lo if far == 0 else hi, DEEP_LOG_RANGE)
                last = (unbounded[far] & (u_min[far] < u_top / 4.0))[:, None]
                inc.append((sum(a.shape[1] for a in xs),
                            last & (u > u_top[:, None] / 2.0)))
                if far == 0:
                    np.negative(u, out=u)
            xs.append(x)
            ws.append(w)
        if not xs:  # only a direct part shorter than 1e-15: no nodes
            xs, ws = [lo[:, None]], [np.zeros((r, 1))]
        if unbounded.any():
            u_ref = np.maximum(DEEP_LOG_RANGE, 2.0 * u_min)
            xs.append(np.stack([-u_ref[0], -u_ref[0] / 2.0,
                                u_ref[1], u_ref[1] / 2.0], axis=1))
            ws.append(np.zeros((r, 4)))
        points = np.concatenate(xs, axis=1)
        weights = np.concatenate(ws, axis=1)
        valid = weights > 0.0
        if unbounded.any():
            valid[:, -4:] = np.repeat(unbounded.T, 2, axis=1)
        first = points[np.arange(r), np.argmax(valid, axis=1)]
        points = np.where(valid, points, first[:, None])
        points.flags.writeable = False
        return points, weights, valid, inc, unbounded.T

    def points(self) -> np.ndarray:
        """Sorted distinct points at which ``apply`` evaluates the integrand."""
        # merged pass by pass: rows share most nodes, so the union stays small
        found = np.zeros(0)
        for _, built in self._passes():
            found = distinct([found, built[0]])
        return found

    def apply(self, fn) -> "QuadResult":
        """Integrate ``fn(points, rows)`` over every row.

        ``points`` is an (r, n) array of x values and ``rows`` the indices
        (into the flattened bounds) of its r rows; ``fn`` returns the
        nonnegative integrand at the points.  Returns a QuadResult of arrays
        shaped like the broadcast bounds.
        """
        value = np.zeros(self.shape).ravel()
        diverged = np.zeros(value.shape, dtype=bool)
        for idx, (points, weights, valid, inc, unbounded) in self._passes():
            rows = self.rows[idx]
            vals = np.asarray(fn(points, rows), dtype=float)
            finite = np.isfinite(vals)
            bad = (valid & ~finite).any(axis=1)
            contrib = np.where(finite, vals, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                contrib *= weights
                total = _row_sums(contrib)
                floor = DIVERGENCE_REL * np.abs(total) + _ABS_FLOOR
                for start, mask in inc:
                    if mask.any():
                        block = contrib[:, start:start + mask.shape[1]]
                        bad |= _row_sums(np.where(mask, block, 0.0)) > floor
            if unbounded.any():
                tail, flag = _tail_fit(vals[:, -4::2], vals[:, -3::2],
                                       np.abs(points[:, -4::2]))
                tail = np.where(unbounded, tail, 0.0)
                total = total + (tail[:, 0] + tail[:, 1])
                bad |= (unbounded & flag).any(axis=1)
            value[rows] = total
            diverged[rows] = bad
        return QuadResult(value.reshape(self.shape), diverged.reshape(self.shape))


def integral_log(fn, x_lo=-math.inf, x_hi=math.inf, *, ppd=DEFAULT_PPD, kinks=()):
    """``∫ fn(x) dx`` over [x_lo, x_hi]; either bound may be infinite.

    ``fn`` must be vectorized over x and nonnegative; ``kinks`` lists known
    non-smooth points (they become panel boundaries).  The direct panels
    cover [-SWITCH, SWITCH]; everything farther out goes through the y = ln|x|
    substitution, so bounds of arbitrary magnitude stay cheap.  Bounds at or
    beyond DEEP_LOG_RANGE are treated as infinite (tail-estimated).  This is
    the one-row case of ``QuadPlan``.
    """
    r = QuadPlan(x_lo, x_hi, ppd=ppd, kinks=kinks).apply(
        lambda x, rows: np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape))
    return QuadResult(float(r.value), bool(r.diverged))


def _refine_max(fn, lo, hi, iters=80):
    """Ternary search for the max of fn on [lo, hi] (locally unimodal)."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v = np.asarray(fn(np.array([m1, m2])), dtype=float)
        if v[0] < v[1]:
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return float(np.asarray(fn(np.array([mid])), dtype=float)[0])


def sup_log(fn, x_lo=-math.inf, x_hi=math.inf, *, ppd=DEFAULT_PPD, anchors=(),
            max_rounds=3):
    """Supremum of fn over [x_lo, x_hi] in x = ln t coordinates.

    Infinite bounds are probed over successively wider windows; a supremum
    that keeps growing after ``max_rounds`` extensions is flagged divergent.
    Exact anchor points (kinks, truncation points) are always sampled, and
    the discrete argmax is polished by a local ternary search.
    """
    step = LN10 / max(1, ppd)
    lo_inf = not math.isfinite(x_lo)
    hi_inf = not math.isfinite(x_hi)
    finite_refs = [a for a in anchors if math.isfinite(a)]
    if not lo_inf:
        finite_refs.append(x_lo)
    if not hi_inf:
        finite_refs.append(x_hi)
    center = 0.0 if not finite_refs else min(finite_refs + [0.0])
    center_hi = 0.0 if not finite_refs else max(finite_refs + [0.0])
    window = 46.0  # 20 decades

    best = -math.inf
    diverged = False
    rounds = max_rounds if (lo_inf or hi_inf) else 0
    grew_last = False
    xs = None
    for r in range(rounds + 1):
        lo = (center - window * (r + 1)) if lo_inf else x_lo
        hi = (center_hi + window * (r + 1)) if hi_inf else x_hi
        xs = np.arange(lo, hi, step)
        xs = np.append(xs, hi)
        extra = [a for a in anchors if lo <= a <= hi]
        if extra:
            xs = np.sort(np.concatenate([xs, np.asarray(extra, dtype=float)]))
        vals = np.asarray(fn(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            diverged = True
            vals = np.nan_to_num(vals, nan=-math.inf, posinf=-math.inf)
        m = float(np.max(vals)) if vals.size else -math.inf
        grew_last = m > best * (1.0 + 1e-12) + _TINY_POS if best > 0 else m > best
        if not grew_last and r > 0:
            break
        if m > best:
            best = m
            best_xs, best_vals = xs, vals
    if (lo_inf or hi_inf) and grew_last:
        diverged = True
    if best > 0 and math.isfinite(best):
        i = int(np.argmax(best_vals))
        lo_b = best_xs[max(i - 1, 0)]
        hi_b = best_xs[min(i + 1, len(best_xs) - 1)]
        if hi_b > lo_b:
            best = max(best, _refine_max(fn, lo_b, hi_b))
    return QuadResult(best if best > -math.inf else 0.0, diverged)
