"""The scalar quadrature rule as it stood before rows were batched.

One interval per call, panel edges built in Python.  ``kinterp.quadrature.
QuadPlan`` must reproduce this rule row by row up to summation order, so
the tests compare against it.
"""

import math

import numpy as np

from kinterp.quadrature import (DEEP_LOG_RANGE, DEFAULT_PPD, DIVERGENCE_REL,
                                GL_ORDER, LN10, SWITCH, QuadResult, _ABS_FLOOR,
                                _GL_W, _GL_X, _SLOPE_MARGIN, _TINY_POS)


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
