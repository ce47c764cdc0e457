"""Earlier forms of the quadrature rule, kept for the tests to compare to.

``integral_log`` is the scalar rule as it stood before rows were batched:
one interval per call, panel edges built in Python.  ``kinterp.quadrature.
QuadPlan`` must reproduce it row by row up to summation order.

``ReferenceLayout`` is ``QuadPlan``'s node layout as it stood before the
lattice table: every pass computed its rows' panels from scratch.  The
plan must lay out the same nonzero-weight (node, weight) sequence per row,
bit for bit.

``sup_rows`` is the supremum at q = inf as it stood before closed forms,
cut rows and hull splits: every norm its own row of ``QuadPlan.sup``.
"""

import math

import numpy as np

from kinterp.quadrature import (DEEP_LOG_RANGE, DEFAULT_PPD, DIVERGENCE_REL,
                                EXP_ZERO, GL_ORDER, LN10, SWITCH, QuadPlan,
                                QuadResult, _ABS_FLOOR, _GL_W, _GL_X,
                                _SLOPE_MARGIN, _TINY_POS, decay_product)


def _panel_edges(lo: float, hi: float, width: float, kinks=()):
    """Panel edges on [lo, hi], snapped to the absolute lattice k*width."""
    pts = [lo, hi]
    k0 = math.floor(lo / width) + 1
    k1 = math.ceil(hi / width) - 1
    if k1 >= k0:
        pts.extend(k * width for k in range(k0, k1 + 1))
    pts.extend(k for k in kinks if lo < k < hi)
    pts.sort()
    tol = width * 1e-9
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > tol:
            out.append(p)
    out[0], out[-1] = lo, hi
    return out


def _gl_nodes(edges):
    e = np.asarray(edges, dtype=float)
    half = 0.5 * (e[1:] - e[:-1])
    mid = 0.5 * (e[1:] + e[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X).ravel()
    weights = (half[:, None] * _GL_W).ravel()
    return nodes, weights


def _direct_part(fn, lo, hi, width, kinks):
    if hi - lo < 1e-15:
        return 0.0, False
    nodes, weights = _gl_nodes(_panel_edges(lo, hi, width, kinks))
    vals = np.asarray(fn(nodes), dtype=float)
    bad = not bool(np.all(np.isfinite(vals)))
    if bad:
        vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    return float(np.dot(weights, vals)), bad


def _far_region(fn, u_min, u_max, sign, width, ukinks=(), unbounded=False):
    """Integrate fn over x = sign*u, u in [u_min, min(u_max, DEEP)], y = ln u.

    Returns (value, last_doubling_increment, tail_estimate, diverged_flag);
    the increment, tail estimate and divergence checks apply only when the
    region is ``unbounded`` (the true bound lies at or beyond DEEP).
    """
    u_top = min(u_max, DEEP_LOG_RANGE)
    part = 0.0
    inc = 0.0
    flag = False
    if u_top > u_min:
        ykinks = [math.log(u) for u in ukinks if u_min < u < u_top]
        edges = _panel_edges(math.log(u_min), math.log(u_top), width, ykinks)
        ynodes, yweights = _gl_nodes(edges)
        u = np.exp(ynodes)
        vals = np.asarray(fn(sign * u), dtype=float)
        flag = not bool(np.all(np.isfinite(vals)))
        if flag:
            vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
        contrib = yweights * u * vals
        part = float(np.sum(contrib))
        if unbounded and u_min < u_top / 4.0:
            inc = float(np.sum(contrib[u > u_top / 2.0]))
    if not unbounded:
        return part, 0.0, 0.0, flag

    # log-power fit of the boundary decay; also the divergence detector
    u_ref = max(DEEP_LOG_RANGE, 2.0 * u_min)
    probe = np.array([u_ref, u_ref / 2.0])
    g = np.asarray(fn(sign * probe), dtype=float)
    g1, g2 = float(g[0]), float(g[1])
    tail = 0.0
    if not (math.isfinite(g1) and math.isfinite(g2)):
        flag = True
    elif g1 > _TINY_POS:
        if g2 <= _TINY_POS:
            flag = True
        else:
            p = math.log(g1 / g2) / math.log(2.0)
            if p < -1.0 - _SLOPE_MARGIN:
                tail = g1 * u_ref / (-1.0 - p)
            else:
                flag = True
    return part, inc, tail, flag


def integral_log(fn, x_lo=-math.inf, x_hi=math.inf, *, ppd=DEFAULT_PPD, kinks=()):
    """``∫ fn(x) dx`` over [x_lo, x_hi]; either bound may be infinite.

    ``fn`` must be vectorized over x and nonnegative; ``kinks`` lists known
    non-smooth points (they become panel boundaries).  The direct panels
    cover [-SWITCH, SWITCH]; everything farther out goes through the y = ln|x|
    substitution, so bounds of arbitrary magnitude stay cheap.  Bounds at or
    beyond DEEP_LOG_RANGE are treated as infinite (tail-estimated).
    """
    if not x_hi > x_lo:
        return QuadResult(0.0, False)
    width = LN10 / max(1, round(ppd / GL_ORDER))

    total = 0.0
    diverged = False
    a = max(x_lo, -SWITCH)
    b = min(x_hi, SWITCH)
    if b > a:
        part, bad = _direct_part(fn, a, b, width, kinks)
        total += part
        diverged |= bad

    regions = []
    if x_lo < -SWITCH:
        u_min = max(SWITCH, -x_hi)
        regions.append(_far_region(
            fn, u_min, -x_lo, -1.0, width,
            [-k for k in kinks if x_lo < k < -u_min],
            unbounded=-x_lo >= DEEP_LOG_RANGE))
    if x_hi > SWITCH:
        u_min = max(SWITCH, x_lo)
        regions.append(_far_region(
            fn, u_min, x_hi, 1.0, width,
            [k for k in kinks if u_min < k < x_hi],
            unbounded=x_hi >= DEEP_LOG_RANGE))

    for part, _inc, _tail, flag in regions:
        total += part
        diverged |= flag
    tails = 0.0
    for _part, inc, tail, _flag in regions:
        if inc > DIVERGENCE_REL * abs(total) + _ABS_FLOOR:
            diverged = True
        tails += tail
    return QuadResult(total + tails, diverged)


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


class ReferenceLayout:
    """The node layout of ``QuadPlan`` as it stood when every pass computed
    its rows' panels from scratch (``_segment``).

    ``row(i)`` gives row i's (nodes, weights) in column order, with the
    tail-fit probes last; the columns of zero weight (padding, probes) are
    the ones a plan may lay out differently.
    """

    def __init__(self, lo, hi, *, ppd=DEFAULT_PPD, kinks=(), row_kinks=None,
                 exp_rate=0.0):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        self.rows = np.flatnonzero(hi > lo)
        self.lo, self.hi = lo.ravel()[self.rows], hi.ravel()[self.rows]
        self.kinks = np.broadcast_to(np.asarray(kinks, dtype=float),
                                     (self.rows.size, len(kinks)))
        if row_kinks is not None:
            self.kinks = np.column_stack([self.kinks, np.asarray(
                row_kinks, dtype=float).ravel()[self.rows]])
        self.width = LN10 / max(1, round(ppd / GL_ORDER))
        self.y_cut = [math.inf, math.inf]
        if exp_rate and EXP_ZERO / abs(exp_rate) < DEEP_LOG_RANGE:
            self.y_cut[exp_rate < 0.0] = self.width * math.ceil(
                math.log(EXP_ZERO / abs(exp_rate)) / self.width)

    def _segments(self, idx):
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

    def build(self, idx):
        """(points, weights, valid, inc, unbounded) of rows idx, as
        ``QuadPlan._build`` laid them out."""
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
        if not sum(a.shape[1] for a in xs):
            # no node (the layout stopped here with "argmax of an empty
            # sequence" when a segment was present but had no panel)
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
        return points, weights, valid, inc, unbounded.T


def sup_rows(lo, hi, core, rate, *, ppd=DEFAULT_PPD, kinks=(),
             row_kinks=None):
    """The supremum of e^{rate x} core(x, rows) over each row [lo_i, hi_i]
    of the broadcast bounds, each its own row of ``QuadPlan.sup`` (its
    samples, its polish and its flags), told the decay rate."""
    return QuadPlan(lo, hi, ppd=ppd, kinks=kinks, row_kinks=row_kinks,
                    exp_rate=rate).sup(
        lambda x, rows: decay_product(rate * x, core(x, rows)))
