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
nodes of a batch of rows as one matrix (pass by pass, about ``CHUNK_ELEMS``
nodes at most), evaluates the integrand once per pass and reduces row by
row.  ``integral_log`` is its one-row case.  A pass of one row is built
from its panel edges (``QuadPlan.row_pass``); many rows are gathered from
one table of the call's whole lattice panels and each row's other panels
(``_pieces``).  Every row keeps the nodes, weights and column order it
would get on its own.

A supremum takes the same layout: ``QuadPlan.sup`` reduces each row to the
largest of its samples (the points ``apply`` evaluates, its finite bounds
and its kinks), polished by a ternary search, and ``sup_log`` is its one-row
case.  It diverges where a sample is not finite, or where the function
still grows between the tail-fit probes of an infinite bound.

Every norm in the package, ||χ_[lo,hi](x) e^{c x} g(x)||_q for q in (0, ∞],
is ``norm_pow``: one plan whose ``apply`` integrates e^{c q x} g^q
(``powered``) for finite q, and whose ``sup`` takes the supremum of
e^{c x} g at q = ∞.

A norm truncated at many cutoffs is ``truncated_pows``: one plan row from
a fixed end to the farthest cutoff, with every cutoff a kink, evaluated
once at its distinct nodes and read at each cutoff as a partial sum in
order of x, which ``_reduce`` flags as ``apply`` flags a row; at q = inf as
a running maximum of the pieces between cutoffs, of which only those that
hold it are polished (``_cut_sups``).

Many rows over one half-line whose cores are one shared function times a
constant of the row outside a known interval are ``hull_pows``: the plan's
nodes outside it are evaluated once and scaled per row by ``_reduce``
(at q = inf, the shared row's supremum by the row's constant:
``_hull_sups``), and only the nodes inside are evaluated per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN10 = math.log(10.0)

GL_ORDER = 8
# the Gauss-Legendre nodes and weights of order GL_ORDER on [-1, 1], as
# numpy.polynomial.legendre.leggauss(8) gives them, written out so that
# importing this module loads neither numpy.polynomial nor LAPACK
_GL_X = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])

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
#: cap on the values of one block of rows that ``hull_pows`` evaluates
#: inside its hull
HULL_BLOCK = 16384

DEFAULT_PPD = 64
#: ternary-search steps that polish the largest sample of a supremum
_POLISH_ITERS = 80


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

    def size(self) -> int:
        """The number of points of ``log_points()``, counted without them."""
        span = math.log10(self.t_max) - math.log10(self.t_min)
        # a density past double range counts as 1e300, still too many points
        return max(1, round(span * min(self.points_per_decade, 1e300))) + 1

    def log_points(self) -> np.ndarray:
        return LN10 * np.linspace(math.log10(self.t_min),
                                  math.log10(self.t_max), self.size())

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


def _lattice_width(ppd):
    """The panel width of the x lattice (and of the y lattice) at ``ppd``
    points per decade."""
    return LN10 / max(1, round(ppd / GL_ORDER))


def _row_edges(lo, hi, kinks, width):
    """The panel edges of one row [lo, hi]: lo, hi, its ``kinks`` strictly
    inside and the lattice points k*width strictly inside, sorted; a point
    closer than 1e-9*width to its predecessor is dropped, and the last
    remaining point is reset to hi."""
    k = np.arange(math.floor(lo / width) + 1, math.ceil(hi / width))
    pts = np.concatenate([[lo, hi], kinks[(kinks > lo) & (kinks < hi)],
                          k * width])
    pts.sort()
    edges = pts[np.concatenate(([True], pts[1:] - pts[:-1] > width * 1e-9))]
    edges[-1] = hi
    return edges


def _pieces(lo, hi, kinks, width):
    """The panels of the rows [lo[i], hi[i]] (hi >= lo) by ``_row_edges``'
    rule, with ``kinks`` an (m, K) array (NaN for none), without listing
    the lattice points: each row's panel count; its runs of whole lattice
    panels [k w, (k + 1) w] as (row, first panel, first k, panels); and
    its other panels as (row, panel, a, b).

    The rule merges a row's points (lo, hi and the kinks inside, in order)
    with the lattice points k w, k0 <= k < k1.  So a run of lattice points
    lies before each point: before lo at most k0 w, where it rounds below
    lo; before any other, those strictly between it and the point before.
    Only two kinds of point can fall within 1e-9 w of their predecessor
    and be dropped: a run's first (after the point before it) and a point
    (after the run before it, or the point before that where the run is
    empty).  Where hi is dropped, the last kept point is reset to hi,
    which drops that point and keeps hi."""
    tol, kinks = width * 1e-9, kinks.T
    # (point, row) arrays, a row of m values per point: lo, the kinks
    # inside in order (lo in place of the others: dropped), hi
    inside = (kinks > lo) & (kinks < hi)
    held = inside.any(axis=1)  # kink columns inside some row
    mid = np.where(inside[held], kinks[held], lo)
    if mid.shape[0] > 1:
        mid.sort(axis=0)
    pts = np.vstack([lo, mid, hi])
    k0 = np.floor(lo / width) + 1.0
    # the least k with k w >= each point (the quotient may round past it)
    g = np.ceil(pts / width)
    g -= (g - 1.0) * width >= pts
    g += g * width < pts
    # run j ends before point j: [ka, kb) of the lattice points below it
    ka, before = np.empty(pts.shape), np.empty(pts.shape)
    ka[0], before[0] = k0, -math.inf
    ka[1:] = np.maximum(g[:-1] + (g[:-1] * width == pts[:-1]), k0)
    before[1:] = pts[:-1]
    kb = np.minimum(g, np.ceil(hi / width))
    some = kb > ka
    keep = pts - np.where(some, (kb - 1.0) * width, before) > tol
    start = ka + (ka * width - before <= tol)
    # kept points per run and point, in order of x
    n = np.empty((2 * pts.shape[0], lo.size))
    n[0::2] = np.where(some, np.maximum(kb - start, 0.0), 0.0)
    n[1::2] = keep
    reset = np.flatnonzero(~keep[-1])
    if reset.size:
        last = n.shape[0] - 2 - np.argmax(n[-2::-1, reset] > 0.0, axis=0)
        n[last, reset] -= 1.0
        n[-1, reset] = 1.0
    at = np.zeros(n.shape)  # kept points before each
    for j in range(1, n.shape[0]):
        np.add(at[j - 1], n[j - 1], out=at[j])
    # each one's first and last kept point, and the first of the next one
    # that keeps a point (hi keeps its own)
    first, final = np.empty(n.shape), np.empty(n.shape)
    first[0::2] = start * width
    final[0::2] = (start + n[0::2] - 1.0) * width
    first[1::2] = final[1::2] = pts
    ahead = first[1:].copy()
    for j in range(ahead.shape[0] - 2, -1, -1):
        ahead[j] = np.where(n[j + 1] > 0.0, ahead[j], ahead[j + 1])
    # a run of two or more points spans whole panels; a panel joins each
    # run or point to the next one that keeps a point
    m, at, n, final = lo.size, at.ravel(), n.ravel(), final.ravel()
    i = np.flatnonzero(n >= 2.0)
    runs = i % m, at[i], start.ravel()[i // (2 * m) * m + i % m], n[i] - 1.0
    i = np.flatnonzero(n[:-m] > 0.0)
    part = i % m, at[i] + n[i] - 1.0, final[i], ahead.ravel()[i]
    # hi keeps its point, so the points before it count the panels
    return at[-m:], runs, part


def _y_cut(exp_rate, width):
    """y = ln|x| per far region (-, +) past which e^{exp_rate x} is 0.0."""
    y_cut = [math.inf, math.inf]
    if exp_rate and EXP_ZERO / abs(exp_rate) < DEEP_LOG_RANGE:
        y_cut[exp_rate < 0.0] = width * math.ceil(
            math.log(EXP_ZERO / abs(exp_rate)) / width)
    return y_cut


def _segments(lo, hi, kinks, y_cut):
    """(lo, hi, kinks) of the rows [lo, hi] for the direct part in x and
    the negative and positive far regions in y = ln|x|, cut at ``y_cut``."""
    a = np.maximum(lo, -SWITCH)
    b = np.minimum(hi, SWITCH)
    out = [(a, np.where(b - a >= 1e-15, b, a), kinks)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for present, u_min, u_top, ksign, cut in (
                (lo < -SWITCH, np.maximum(SWITCH, -hi), -lo, -kinks,
                 y_cut[0]),
                (hi > SWITCH, np.maximum(SWITCH, lo), hi, kinks, y_cut[1])):
            u_top = np.minimum(u_top, DEEP_LOG_RANGE)
            y_lo = np.log(u_min)
            y_hi = np.minimum(np.log(u_top), cut)
            out.append((y_lo, np.where(present & (u_top > u_min), y_hi, y_lo),
                        np.log(ksign)))
    return out


def _gl_nodes(a, b, region):
    """Gauss-Legendre nodes and weights, (m, GL_ORDER), of the panels
    [a[j], b[j]]: in x for region 0 (the direct part); in y = ln|x|,
    returned as x = -e^y (region 1) or e^y (region 2) with the weights
    scaled by e^y, for the far regions.  ``region`` holds one region per
    panel, or 0 for all."""
    half = 0.5 * (b - a)[:, None]
    mid = 0.5 * (b + a)[:, None]
    x = half * _GL_X
    x += mid
    w = half * _GL_W
    far = np.asarray(region) != 0
    if far.any():
        far = far[:, None]
        u = np.exp(x)
        w = np.where(far, w * u, w)
        x = np.where(far, np.where((region == 1)[:, None], -u, u), x)
    return x, w


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


def _reduce(vals, built, sums, shared=None):
    """Values and divergence flags by the rule, from the integrand's values
    ``vals`` at the points of a pass ``built`` of ``QuadPlan._passes``.
    ``sums`` maps an array shaped like the pass to the sums read from it:
    each row's for ``apply`` (``_row_sums``), each cutoff's partial sum for
    ``truncated_pows``.  A sum is flagged by a non-finite node of positive
    weight in it and by a last-doubling increment above DIVERGENCE_REL of
    it; the unbounded regions' tail fits are added to every sum and flag it
    where they flag.

    With ``shared`` = (s, q, sums, flags) of r rows, ``vals`` is one row
    shared by all r (``hull_pows``): row i takes s[i]^q times its sum,
    increments and tail fit, adds the given sum and flags of its other
    nodes, and is flagged against that total.  A row with s = 0 takes
    nothing from the shared row, not even a flag; one whose s^q leaves
    double range takes its products in log space."""
    points, weights, inc, unbounded = built
    live = True
    if shared is not None:
        s, q, inner, inner_bad = shared
        live = s > 0.0
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            c, log_c = s ** q, q * np.log(s)
        far = (c == 0.0) | np.isinf(c)

    def share(a):
        # each row's part of the shared row's sums; not 0 * inf where s is 0
        if shared is None:
            return a
        with np.errstate(all="ignore"):
            out = np.where(far, np.exp(log_c + np.log(a)), c * a)
        return np.where(live & (a != 0.0), out, 0.0)

    finite = np.isfinite(vals)
    contrib = np.where(finite, vals, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        contrib *= weights
        total = share(sums(contrib))
        bad = (np.zeros(total.shape, dtype=bool) if finite.all()
               else live & (sums((weights > 0.0) & ~finite) > 0))
        if shared is not None:
            total, bad = total + inner, bad | inner_bad
        floor = DIVERGENCE_REL * np.abs(total) + _ABS_FLOOR
        for start, mask in inc:
            if mask.any():
                cols = slice(start, start + mask.shape[1])
                part = np.zeros(contrib.shape)
                part[:, cols] = np.where(mask, contrib[:, cols], 0.0)
                bad |= share(sums(part)) > floor
    if unbounded.any():
        tail, flag = _tail_fit(vals[:, -4::2], vals[:, -3::2],
                               np.abs(points[:, -4::2]))
        tail = np.where(unbounded, tail, 0.0)
        total = total + share(tail[:, 0] + tail[:, 1])
        bad |= live & (unbounded & flag).any(axis=1)
    return total, bad


def _probes(lo, hi, unbounded, has, node):
    """Per row [lo, hi]: its four tail-fit probes, u_ref and u_ref/2 of the
    negative far region as x = -u and of the positive one as x = u where
    that region is unbounded, else the row's first point; that first point,
    the first node ``node`` of its first panel where it ``has`` one, else
    its first probe, else lo (its unused columns hold it); and per far
    region the |x| beyond which its nodes make up the last-doubling
    increment (inf: none)."""
    u = np.column_stack([-hi, lo, -lo, hi])
    u_min = np.maximum(SWITCH, u[:, :2])
    u_top = np.minimum(u[:, 2:], DEEP_LOG_RANGE)
    # -u_ref, u_ref of the negative and the positive region, as x
    x_ref = np.maximum(DEEP_LOG_RANGE, 2.0 * u_min) * [-1.0, 1.0]
    limit = np.where(unbounded & (u_min < u_top / 4.0), u_top / 2.0,
                     math.inf)
    first = np.where(has, node, np.where(unbounded[:, 0], x_ref[:, 0],
                                         np.where(unbounded[:, 1],
                                                  x_ref[:, 1], lo)))
    probes = np.where(np.repeat(unbounded, 2, axis=1),
                      np.repeat(x_ref, 2, axis=1) / [1.0, 2.0, 1.0, 2.0],
                      first[:, None])
    return probes, first, limit


def _increments(points, counts, limit):
    """``inc`` of a pass whose segments take GL_ORDER * counts[s] columns:
    per far region with nodes and some row's limit finite, (first column,
    mask of the nodes beyond the row's limit |x|: x < 0 in the negative
    region, x > 0 in the positive one)."""
    inc = []
    for far in (1, 2):
        start = GL_ORDER * sum(counts[:far])
        stop = start + GL_ORDER * counts[far]
        at_least = limit[:, far - 1]
        if stop > start and at_least.min() < math.inf:
            nodes = points[:, start:stop]
            inc.append((start, nodes < -at_least[:, None] if far == 1
                        else nodes > at_least[:, None]))
    return inc


class QuadPlan:
    """The rule of ``integral_log`` for a batch of intervals [lo_i, hi_i].

    Every row gets exactly the panels, kinks, far-region substitution, tail
    fit and divergence rules that ``integral_log`` applies to it alone; only
    the summation order differs.  ``kinks`` are shared by all rows,
    ``row_kinks`` adds one kink per row (NaN for none).  ``exp_rate`` = a
    declares that the integrand carries the factor e^{a x} through
    ``decay_product``, so it is exactly 0.0 wherever a x <= -EXP_ZERO: the
    far panels past the first lattice edge beyond that point are skipped,
    which changes no node value and no divergence rule.  Every row with
    hi > lo is laid out (``lo``, ``hi``), and ``rows`` holds its index into
    the flattened bounds.

    Layout.  Each of a row's three segments (the direct part in x, the
    negative and the positive far region in y = ln|x|) is a run of whole
    lattice panels, cut only at its two bounds and at its kinks
    (``_row_edges``).  A plan that lays out one row builds its pass from
    the row's edges (``row_pass``); one of two or more rows gathers every
    pass from one table of panels (``_passes``), the same panels in the
    same columns.  ``sup`` reduces the same passes.
    """

    def __init__(self, lo, hi, *, ppd=DEFAULT_PPD, kinks=(), row_kinks=None,
                 exp_rate=0.0):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        self.shape = lo.shape
        self.rows = np.flatnonzero(hi > lo)
        lo, hi = lo.ravel()[self.rows], hi.ravel()[self.rows]
        self.lo, self.hi = lo, hi
        kinks = np.broadcast_to(np.asarray(kinks, dtype=float),
                                (lo.size, len(kinks)))
        if row_kinks is not None:
            kinks = np.column_stack([kinks, np.asarray(
                row_kinks, dtype=float).ravel()[self.rows]])
        self.kinks = kinks
        self.width = _lattice_width(ppd)
        self.y_cut = _y_cut(exp_rate, self.width)
        # far regions (columns) reaching DEEP_LOG_RANGE get the tail fit
        self.unbounded = np.column_stack([-lo >= DEEP_LOG_RANGE,
                                          hi >= DEEP_LOG_RANGE])

    def _passes(self):
        """(row indices, (points, weights, inc, unbounded)) per pass over
        the plan's laid-out rows; one laid-out row has one pass,
        ``row_pass``.

        Columns are the direct nodes, the negative and the positive far
        nodes, then, when some row has an unbounded far region, the
        tail-fit probes u_ref, u_ref/2 of the negative and of the positive
        region; segment s takes GL_ORDER * N_s columns for the most panels
        N_s of any row of the pass, node by node (column g * N_s + j holds
        node g of panel j).  ``inc`` lists, per far region, (first column,
        mask) where the mask marks the nodes that count toward that region's
        last-doubling increment.  Columns a row does not use repeat its
        first point with weight 0, so the integrand sees no point outside
        the rule; a pass without nodes has one such column.  Rows of one
        direct panel and nothing else take passes of their GL_ORDER columns
        alone, with no ``inc``.  The others are gathered from one table:
        every whole lattice panel a segment can hold, and each row's other
        panels (``_pieces``); a pass holds at most CHUNK_ELEMS values of rows
        with the same far regions.
        """
        n = self.lo.size
        if n < 2:
            if n:
                yield np.zeros(1, dtype=np.intp), self.row_pass()
            return
        w = self.width
        (d_lo, d_hi, d_kinks), *far = _segments(self.lo, self.hi, self.kinks,
                                                self.y_cut)
        # rows of one direct panel and nothing else: no lattice point (by
        # _row_edges' indices) or kink inside, wider than 1e-9 w, and no far
        # panel or probe
        alone = ((np.ceil(d_hi / w) <= np.floor(d_lo / w) + 1.0)
                 & (d_hi - d_lo > w * 1e-9)
                 & ~((d_kinks > d_lo[:, None])
                     & (d_kinks < d_hi[:, None])).any(axis=1)
                 & ~self.unbounded.any(axis=1))
        for s_lo, s_hi, _ in far:
            alone &= s_hi <= s_lo
        one = np.flatnonzero(alone)
        for s in range(0, one.size, CHUNK_ELEMS // GL_ORDER):
            i = one[s:s + CHUNK_ELEMS // GL_ORDER]
            yield i, (*_gl_nodes(d_lo[i], d_hi[i], 0), (), self.unbounded[i])
        rest = np.flatnonzero(~alone)
        n = rest.size
        if not n:
            return
        s_lo, s_hi, kinks = (np.concatenate([seg[j][rest] for seg in (
            (d_lo, d_hi, d_kinks), *far)]) for j in range(3))
        live = np.flatnonzero(s_hi > s_lo)  # the others have no panel
        count, runs, part = _pieces(s_lo[live], s_hi[live], kinks[live], w)
        cols = np.zeros(3 * n, dtype=np.intp)
        cols[live] = count
        cols = cols.reshape(3, n).T
        # the table: the whole panels k of each segment, then the others,
        # then a pad per row (its first point, weight 0)
        k_lo = np.array([math.floor(-SWITCH / w), 0, 0])
        k_hi = np.array([math.ceil(SWITCH / w)] + 2 * [
            math.ceil(math.log(DEEP_LOG_RANGE) / w) + 1])
        k = np.concatenate([np.arange(*e) for e in zip(k_lo, k_hi)])
        base = np.cumsum(k_hi - k_lo) - (k_hi - k_lo) - k_lo
        # a panel between two lattice points by value is a whole one
        p_seg, p_row = np.divmod(live[part[0]], n)
        p_at = part[1].astype(np.intp)
        p_k = np.rint(part[2] / w)
        own = (p_k * w != part[2]) | ((p_k + 1.0) * w != part[3])
        p_ix = base[p_seg] + p_k.astype(np.intp)
        p_ix[own] = k.size + np.arange(np.count_nonzero(own))
        x, wt = _gl_nodes(np.concatenate([k * w, part[2][own]]),
                          np.concatenate([(k + 1) * w, part[3][own]]),
                          np.concatenate([np.repeat(np.arange(3), k_hi - k_lo),
                                          p_seg[own]]))
        # per row, its panels' places in the table, segment after segment;
        # where it has fewer, its pad
        most = cols.max(axis=0)
        off = np.cumsum(most) - most
        ix = np.empty((n, most.sum()), dtype=np.intp)
        ix[:] = x.shape[0] + np.arange(n)[:, None]
        r, r_at, k_first, size = (v.astype(np.intp) for v in runs)
        r_seg, r_row = np.divmod(live[r], n)
        each = np.repeat(np.arange(r.size), size)
        step = np.arange(each.size) - np.repeat(np.cumsum(size) - size, size)
        ix[r_row[each], (off[r_seg] + r_at)[each] + step] = (
            base[r_seg] + k_first)[each] + step
        ix[p_row, off[p_seg] + p_at] = p_ix
        has = cols.any(axis=1)
        lo, unbounded = self.lo[rest], self.unbounded[rest]
        node = lo
        if has.any():  # each row's first node, where it has one
            node = x[ix[np.arange(n), off[np.argmax(cols > 0, axis=1)]]
                     % x.shape[0], 0]
        probes, fill, limit = _probes(lo, self.hi[rest], unbounded, has, node)
        probed = unbounded.any(axis=1)
        xw = np.empty((2, x.shape[0] + n, GL_ORDER))
        xw[0, :x.shape[0]], xw[1, :x.shape[0]] = x, wt
        xw[0, x.shape[0]:], xw[1, x.shape[0]:] = fill[:, None], 0.0
        probes = np.stack([probes, np.zeros(probes.shape)])
        far = cols[:, 1:] > 0
        order = np.lexsort((cols[:, 0], probed, cols[:, 1] + cols[:, 2],
                            far[:, 1], far[:, 0]))
        c, ends, far = cols[order], probed[order], far[order]
        # each set of rows with the same far regions, and per row the width
        # of a pass from the set's first row to it, which bounds the width
        # of any pass that ends there
        sets = np.concatenate([[0], np.flatnonzero(
            (far[1:] != far[:-1]).any(axis=1)) + 1, [order.size]])
        wide, stop = [], np.repeat(sets[1:], np.diff(sets)).tolist()
        for a, b in zip(sets[:-1], sets[1:]):
            m = np.maximum.accumulate(c[a:b], axis=0).sum(axis=1)
            wide += (GL_ORDER * m + np.where(np.logical_or.accumulate(
                ends[a:b]), 4, m == 0)).tolist()
        q = 0
        while q < order.size:
            p, q = q, min(stop[q], q + max(1, CHUNK_ELEMS // wide[q]))
            while q > p + 1 and (q - p) * wide[q - 1] > CHUNK_ELEMS:
                q -= 1
            i = order[p:q]
            m = cols[i].max(axis=0)
            parts = [xw[:, ix[i, o:o + k]].transpose(0, 1, 3, 2).reshape(
                2, i.size, -1) for o, k in zip(off, m) if k]
            if probed[i].any():
                parts.append(probes[:, i])
            elif not m.any():
                parts.append(xw[:, x.shape[0] + i, :1])
            points, weights = np.concatenate(parts, axis=2)
            yield rest[i], (points, weights, _increments(
                points, m.tolist(), limit[i]), unbounded[i])

    def row_pass(self):
        """The one pass of ``_passes`` of a plan that lays out one row,
        built straight from the row's panel edges (``_row_edges``) per
        segment: the panels the many-row gather takes for the row, so every
        column is the same, bit for bit."""
        a, b, counts = [np.zeros(0)], [np.zeros(0)], [0, 0, 0]
        for seg, (lo, hi, kinks) in enumerate(
                _segments(self.lo, self.hi, self.kinks, self.y_cut)):
            if hi[0] > lo[0]:
                edges = _row_edges(lo[0], hi[0], kinks[0], self.width)
                a.append(edges[:-1])
                b.append(edges[1:])
                counts[seg] = edges.size - 1
        x, w = _gl_nodes(np.concatenate(a), np.concatenate(b),
                         np.repeat(np.arange(3), counts))
        has = x.shape[0] > 0
        probes, first, limit = _probes(self.lo, self.hi, self.unbounded,
                                       np.array([has]), x[:1, 0] if has
                                       else self.lo)
        # after the nodes: the probes, or a row without nodes its first point
        extra = (probes[0] if self.unbounded.any() else first[:0] if has
                 else first)
        # node by node within each segment: column g * N_s + j holds node g
        # of panel j
        end = np.cumsum(counts)
        points, weights = (np.concatenate(
            [v[e - c:e].T.ravel() for c, e in zip(counts, end)] + [more])[None]
            for v, more in ((x, extra), (w, np.zeros(extra.size))))
        points.flags.writeable = False
        return (points, weights, _increments(points, counts, limit),
                self.unbounded)

    def apply(self, fn) -> "QuadResult":
        """Integrate ``fn(points, rows)`` over every row.

        ``points`` is an (r, n) array of x values and ``rows`` the indices
        (into the flattened bounds) of its r rows; ``fn`` returns the
        nonnegative integrand, one row per entry of ``rows``.  Returns a
        QuadResult of arrays shaped like the broadcast bounds.
        """
        value = np.zeros(self.shape).ravel()
        diverged = np.zeros(value.shape, dtype=bool)
        for idx, built in self._passes():
            rows = self.rows[idx]
            vals = np.asarray(fn(built[0], rows), dtype=float)
            value[rows], diverged[rows] = _reduce(vals, built, _row_sums)
        return QuadResult(value.reshape(self.shape), diverged.reshape(self.shape))

    def sup(self, fn) -> "QuadResult":
        """Supremum of ``fn(points, rows)`` over every row; ``fn`` is called
        as by ``apply``, and rows with hi <= lo are 0.

        A row is sampled at the points ``apply`` evaluates for it (its
        nodes, its tail-fit probes and the unused columns, which repeat its
        first point) and at its finite bounds and kinks.  Its largest sample
        is polished by a ternary search between the nearest samples strictly
        below and above it, after the passes, for every row of the call at
        once: ``fn`` sees each step's two points of all those rows, and a
        row's steps do not depend on the others.  A row diverges where a
        sample is not finite, and where, in a far region with an infinite
        bound, fn at the probe u_ref exceeds fn at u_ref/2 by more than
        1e-12 relative: it still grows out there.
        """
        value = np.zeros(self.shape).ravel()
        diverged = np.zeros(value.shape, dtype=bool)
        brackets = []  # (rows, a, b) of the rows to polish, per pass
        for idx, (points, _, _, unbounded) in self._passes():
            rows = self.rows[idx]
            lo, hi = self.lo[idx, None], self.hi[idx, None]
            x = np.concatenate([points, lo, hi, self.kinks[idx]], axis=1)
            # a bound beyond DEEP_LOG_RANGE can leave probes outside the row
            inside = np.isfinite(x) & (x >= lo) & (x <= hi)
            x = np.where(inside, x, points[:, :1])
            vals = np.asarray(fn(x, rows), dtype=float)
            bad = (inside & ~np.isfinite(vals)).any(axis=1)
            if unbounded.any():
                open_end = np.column_stack([np.isneginf(lo), np.isposinf(hi)])
                n = points.shape[1]
                bad |= (open_end & _grows(vals[:, n - 4:n:2],
                                          vals[:, n - 3:n:2])).any(axis=1)
            best, a, b = _peaks(x, vals, inside)
            polish = best > 0.0
            brackets.append((rows[polish], a[polish], b[polish]))
            value[rows] = np.where(best > -math.inf, best, 0.0)
            diverged[rows] = bad
        if brackets:
            rows, a, b = (np.concatenate(c) for c in zip(*brackets))
            if rows.size:
                value[rows] = _polish(lambda x: fn(x, rows), a, b,
                                      value[rows])
        return QuadResult(value.reshape(self.shape), diverged.reshape(self.shape))


def _grows(at_ref, at_half):
    """Whether a function, at a far region's tail-fit probe u_ref, exceeds
    its value at u_ref/2 by more than 1e-12 relative, so still grows out
    there: the divergence test of a supremum toward an infinite bound."""
    return at_ref > at_half * (1.0 + 1e-12)


def _peaks(x, vals, inside):
    """Per row of samples x (an array that broadcasts against vals) and
    their values: the largest finite value at the samples ``inside`` (-inf
    where there is none), and the bracket that polishes it, the nearest
    samples inside strictly below and above its argmax (the least x among
    equal maxima), or the argmax itself where there is none."""
    vals = np.where(inside & np.isfinite(vals), vals, -math.inf)
    best = vals.max(axis=1)
    at = np.where(vals == best[:, None], x, math.inf).min(axis=1,
                                                        keepdims=True)
    a = np.where(inside & (x < at), x, -math.inf).max(axis=1)
    b = np.where(inside & (x > at), x, math.inf).min(axis=1)
    return (best, np.where(a > -math.inf, a, at[:, 0]),
            np.where(b < math.inf, b, at[:, 0]))


def _polish(fn, a, b, best):
    """The largest sample ``best`` of each row of a supremum, polished: a
    ternary search of ``_POLISH_ITERS`` steps in the bracket [a, b] (each
    step calls ``fn`` once on the (rows, 2) array of every row's two
    points, and a row's steps do not depend on the others), then fn at the
    final bracket's midpoint where it is larger than ``best``."""
    for _ in range(_POLISH_ITERS):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        v = np.asarray(fn(np.column_stack([m1, m2])), dtype=float)
        left = v[:, 0] < v[:, 1]
        a, b = np.where(left, m1, a), np.where(left, b, m2)
    v = np.asarray(fn(0.5 * (a + b)[:, None]), dtype=float)[:, 0]
    return np.where(v > best, v, best)


def powered(core, rate: float, q: float):
    """The finite-q integrand e^{rate q x} core(x, rows)^q; ``core``
    returns the nonnegative core at the points x of the rows ``rows`` (as
    ``QuadPlan.apply`` passes them), +0.0 where it is zero.  At rate 0 the
    factor e^0 = 1 is left out, which changes no value."""

    def fn(x, rows=None):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            cq = core(x, rows) ** q
        return decay_product(rate * q * x, cq) if rate else cq
    return fn


def norm_pow(lo, hi, core, rate: float, q: float, *, ppd: int, kinks=(),
             row_kinks=None) -> QuadResult:
    """||χ_[lo_i, hi_i](x) e^{rate x} core(x)||_q of every row i of the
    broadcast bounds, before the q-th root; rows with hi <= lo are 0.

    For finite q that is the integral of e^{rate q x} core^q (``powered``),
    at q = inf the supremum of e^{rate x} core; either is one ``QuadPlan``
    told the decay rate, which calls ``core(x, rows)`` at the points x of
    the rows ``rows``.  ``row_kinks`` holds one kink per row (NaN for none).
    """
    plan = QuadPlan(lo, hi, ppd=ppd, kinks=kinks, row_kinks=row_kinks,
                    exp_rate=rate if math.isinf(q) else rate * q)
    if math.isinf(q):
        return plan.sup(lambda x, rows: decay_product(rate * x,
                                                      core(x, rows)))
    return plan.apply(powered(core, rate, q))


def truncated_pows(end, cuts, core, rate: float, q: float, *, ppds,
                   kinks=(), weights=None) -> list:
    """``norm_pow`` of the rows between the fixed ``end`` and each finite
    cutoff of ``cuts``, once per density of ``ppds``: a list of QuadResults
    shaped like cuts.  The rows are [end, cut] (0 where cut <= end) for
    end = -inf or finite, [cut, inf] for end = +inf.

    With ``weights`` = W, ``core`` returns W blocks of rows, one per weight,
    stacked: at x of shape (R, M) an array of shape (W R, M).  Each
    QuadResult then has a leading axis of W, and each weight's row is
    reduced as if it were the core's only one, to the same bits.

    Each density lays out one plan row from the end to the farthest cutoff,
    with every cutoff a kink, and ``core(x, None)`` is called once, at the
    (1, N) sorted distinct points of all these rows.  For finite q a
    cutoff's value is the partial sum, in order of x from the end, of the
    contributions up to it, flagged by ``_reduce``.  So its panels are those
    of its own row split at the other cutoffs, and for |cut| <
    DEEP_LOG_RANGE / 4 (every logarithm of a double) an infinite end's tail
    fit and last-doubling increment are its own row's.  At q = inf the row
    is reduced by a maximum (``_cut_sups``).
    """
    cuts = np.asarray(cuts, dtype=float)
    n = weights or 1
    shape = cuts.shape if weights is None else (n,) + cuts.shape
    upper = end == math.inf
    at = distinct([cuts])
    lo, hi = (at[:1], end) if upper else (end, at[-1:])
    if np.all(hi <= lo):  # no cutoff beyond the end
        zero = np.zeros(shape)
        return [QuadResult(zero, zero != 0.0)] * len(ppds)
    kinks = np.concatenate([np.asarray(kinks, dtype=float), at])
    sup = math.isinf(q)
    passes = [QuadPlan(lo, hi, ppd=ppd, kinks=kinks,
                       exp_rate=rate if sup else rate * q).row_pass()
              for ppd in ppds]
    if sup:
        return _cut_sups(passes, float(np.min(lo)), float(np.max(hi)),
                         kinks, cuts, core, rate, n, shape)
    x = distinct([built[0] for built in passes])
    vals = powered(core, rate, q)(x[None])
    out = []
    for built in passes:
        points = built[0][0]
        # x in order from the end, and the count of points up to each cutoff
        key, stop = (-points, -cuts) if upper else (points, cuts)
        order = np.argsort(key, kind="stable")
        count = np.searchsorted(key[order], stop.ravel(), "right")

        def sums(a):
            # each weight's partial sums, a column per weight
            a = np.cumsum(a[:, order], axis=1)
            return np.hstack([np.zeros((a.shape[0], 1)), a])[:, count].T

        value, bad = _reduce(vals[:, np.searchsorted(x, points)], built, sums)
        out.append(QuadResult(value.T.reshape(shape), bad.T.reshape(shape)))
    return out


def _samples(built, kinks, lo, hi):
    """The sorted distinct points at which ``QuadPlan.sup`` samples the row
    [lo, hi] of the one-row pass ``built``: its nodes and tail-fit probes,
    its finite bounds and its kinks inside."""
    pts = distinct([built[0][0], kinks, [lo, hi]])
    return pts[np.isfinite(pts) & (pts >= lo) & (pts <= hi)]


def _cut_sups(passes, lo, hi, kinks, cuts, core, rate, n, shape) -> list:
    """``truncated_pows`` at q = inf, from the one-row passes of its cut row
    [lo, hi], one per density, whose kinks hold every cutoff.

    Each pass samples the row as ``QuadPlan.sup`` samples a row (its nodes,
    its tail-fit probes, its finite bounds and its kinks), and the
    supremum's integrand e^{rate x} core is evaluated once, at the sorted
    distinct samples of all passes.  The cutoffs in order from the end cut
    the samples into pieces: piece i holds those beyond cutoff i - 1 up to
    and including cutoff i.  Each piece takes the largest of its finite
    values and a flag, set where a value is not finite and, on the piece at
    an infinite end, where the function still grows between that end's
    probes (``_grows``); a cutoff's value is the running maximum of the
    pieces from the end, and its flag their OR.  A piece whose largest
    value is positive and above every earlier piece's holds a running
    maximum: those alone are polished, each between the samples next to
    its argmax (the least x among equal maxima) within the piece and the
    cutoff before it, by one ``_polish`` of every weight's and every
    density's such pieces.  There the core is called as ``core(x, rows)``,
    with x of shape (R, 2) and rows the (R,) indices of the searches.  As
    for a row of ``QuadPlan.sup``, a cutoff whose samples all fail reads 0.
    """
    upper = hi == math.inf
    sign = -1.0 if upper else 1.0
    # the cutoffs beyond the end, as keys that grow away from it
    edge = np.sort(sign * distinct([cuts[(cuts < hi) if upper
                                         else (cuts > lo)]]))
    samples = [_samples(built, kinks, lo, hi) for built in passes]
    x = distinct(samples)
    vals = decay_product(rate * x, np.asarray(
        core(x[None], None), dtype=float).reshape(n, x.size))
    tops, bads, polish = [], [], []
    for k, (built, pts) in enumerate(zip(passes, samples)):
        # the samples in order from the end, and where each piece starts
        pts = pts[::-1] if upper else pts
        v = vals[:, np.searchsorted(x, pts)]
        piece = np.searchsorted(edge, sign * pts, "left")
        start = np.searchsorted(piece, np.arange(edge.size), "left")
        finite = np.isfinite(v)
        v = np.where(finite, v, -math.inf)
        top = np.maximum.reduceat(v, start, axis=1)
        bad = np.logical_or.reduceat(~finite, start, axis=1)
        if lo == -math.inf or upper:
            # that end's probes, u_ref and u_ref/2
            probes = built[0][0, -4:][2 * upper:2 * upper + 2]
            at_ref, at_half = vals[:, np.searchsorted(x, probes)].T
            bad[:, 0] |= _grows(at_ref, at_half)
        before = np.maximum.accumulate(top, axis=1)[:, :-1]
        record = top > np.concatenate([np.full((n, 1), -math.inf), before],
                                      axis=1)
        w, i = np.nonzero(record & (top > 0.0))
        # each one's argmax, the least x among equal maxima: the first of
        # its piece from a lower end, the last from an upper one
        hit = (v[w] == top[w, i][:, None]) & (piece[None] == i[:, None])
        j = (np.where(hit, np.arange(pts.size), -1).max(axis=1) if upper
             else np.where(hit, np.arange(pts.size), pts.size).min(axis=1))
        # its neighbours: toward the end, possibly the cutoff before the
        # piece; away from it, only inside the piece
        back = pts[np.maximum(j - 1, 0)]
        stop = np.append(start[1:], pts.size)[i]
        ahead = pts[np.where(j + 1 < stop, j + 1, j)]
        polish.append((np.full(w.size, k), w, i, np.minimum(back, ahead),
                       np.maximum(back, ahead), top[w, i]))
        tops.append(top)
        bads.append(bad)
    which, w, i, a, b, best = (np.concatenate(c) for c in zip(*polish))
    if which.size:
        take = np.arange(which.size)

        def fn(pts):
            got = np.asarray(core(pts, take), dtype=float).reshape(
                (n,) + pts.shape)[w, take]
            return decay_product(rate * pts, got)

        polished = _polish(fn, a, b, best)
        for k, top in enumerate(tops):
            mine = which == k
            top[w[mine], i[mine]] = polished[mine]
    # each cutoff's piece; a cutoff at or before the end reads 0, unflagged
    flat = cuts.ravel()
    live = (flat < hi) if upper else (flat > lo)
    piece = np.searchsorted(edge, sign * flat[live], "left")
    out = []
    for top, bad in zip(tops, bads):
        value = np.zeros((n, flat.size))
        flag = np.zeros((n, flat.size), dtype=bool)
        top = np.maximum.accumulate(top, axis=1)[:, piece]
        value[:, live] = np.where(top > -math.inf, top, 0.0)
        flag[:, live] = np.logical_or.accumulate(bad, axis=1)[:, piece]
        out.append(QuadResult(value.reshape(shape), flag.reshape(shape)))
    return out


def hull_pows(lo, hi, core, outer, scale, rate: float, q: float, *,
              ppd: int, kinks, hull) -> QuadResult:
    """``norm_pow`` of r = len(scale) rows over the same [lo, hi], whose
    core is scale[i] * outer(x) outside the interval ``hull`` = (a, b): a
    QuadResult of (r,) arrays, for every q in (0, ∞] (at q = inf see
    ``_hull_sups``).

    The rows share one plan and its one pass.  Its nodes outside [a, b]
    are evaluated once, as the shared row e^{rate q x} outer(x)^q, and row
    i takes scale[i]^q times its sum, its last-doubling increments and its
    tail fit (``_reduce``), in log space where scale[i]^q alone leaves
    double range.  Inside [a, b], ``core(x, rows)`` is called only at the
    nodes of positive weight, for blocks of rows of at most HULL_BLOCK
    values (one row if it has more nodes), and each row adds its own sum
    and flags.  A row is flagged against its whole total, as a plan row
    is; a row whose scale is 0 takes nothing from outside the hull, not
    even a flag.
    """
    a, b = hull
    sup = math.isinf(q)
    built = QuadPlan(lo, hi, ppd=ppd, kinks=kinks,
                     exp_rate=rate if sup else rate * q).row_pass()
    if sup:
        return _hull_sups(built, lo, hi, kinks, core, outer, scale, rate,
                          hull)
    points, weights = built[0], built[1]
    inside = (points >= a) & (points <= b)
    at = np.flatnonzero(inside[0] & (weights[0] > 0.0))
    x, w = points[:, at], weights[:, at]
    r = scale.size
    total, bad = np.zeros(r), np.zeros(r, dtype=bool)
    if at.size:
        fn, step = powered(core, rate, q), max(1, HULL_BLOCK // at.size)
        for s in range(0, r, step):
            rows = np.arange(s, min(s + step, r))
            total[rows], bad[rows] = _reduce(
                fn(x, rows), (x, w, (), np.zeros(0, dtype=bool)), _row_sums)
    shared = np.where(inside, 0.0, powered(lambda x, rows: outer(x), rate,
                                           q)(points))
    return QuadResult(*_reduce(shared, built, _row_sums,
                               (scale, q, total, bad)))


def _hull_sups(built, lo, hi, kinks, core, outer, scale, rate,
               hull) -> QuadResult:
    """``hull_pows`` at q = inf, from its one-row pass ``built``.

    The row is sampled as ``QuadPlan.sup`` samples a row: its nodes, its
    tail-fit probes, its finite bounds and its kinks.  The shared row
    e^{rate x} outer(x) is evaluated once, at the samples outside (a, b);
    ``core(x, rows)`` at those in [a, b], for blocks of rows of at most
    HULL_BLOCK values.  (An end of the hull past which the row goes, where
    both agree, is in both.)
    Row i's value is the larger of scale[i] times the shared row's
    supremum and its own supremum inside the hull; its flag is its own
    (a value inside that is not finite), or'd, where scale[i] > 0, with the
    shared row's (a value outside that is not finite, or growth between the
    probes of an infinite bound, ``_grows``).  The shared row's largest
    sample, and each row's inside that is larger than scale[i] times it,
    are polished by one ``_polish``, where the core is called as
    ``core(x, rows)`` with x of shape (R, 2) for the R rows ``rows``.
    """
    a, b = hull
    pts = _samples(built, kinks, lo, hi)
    # an end of the hull joins the shared row where the row goes past it
    out_x = pts[(pts <= a) & (lo < a) | (pts >= b) & (hi > b)]
    in_x = pts[(pts >= a) & (pts <= b)]
    shared = decay_product(rate * out_x, outer(out_x))
    shared_bad = not np.isfinite(shared).all()
    if built[3].any():
        v = decay_product(rate * built[0][0, -4:], outer(built[0][0, -4:]))
        shared_bad |= bool((_grows(v[0::2], v[1::2])
                            & [lo == -math.inf, hi == math.inf]).any())
    top, top_a, top_b = (_peaks(out_x[None], shared[None], True)
                         if out_x.size else ([-math.inf], [0.0], [0.0]))
    r = scale.size
    best, in_a, in_b = np.full(r, -math.inf), np.zeros(r), np.zeros(r)
    bad = np.zeros(r, dtype=bool)
    if in_x.size:
        step = max(1, HULL_BLOCK // in_x.size)
        for s in range(0, r, step):
            rows = np.arange(s, min(s + step, r))
            v = decay_product(rate * in_x, core(in_x[None], rows))
            bad[rows] = ~np.isfinite(v).all(axis=1)
            best[rows], in_a[rows], in_b[rows] = _peaks(in_x[None], v, True)
    live = scale > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        own = (best > 0.0) & ~(live & (best <= scale * top[0]))
    rows = np.flatnonzero(own)
    first = int(top[0] > 0.0 and (live & ~own).any())
    if first or rows.size:
        def fn(x):
            v = np.empty(x.shape)
            v[:first] = decay_product(rate * x[:first], outer(x[:first]))
            v[first:] = decay_product(rate * x[first:],
                                      core(x[first:], rows))
            return v

        polished = _polish(fn, np.concatenate([top_a[:first], in_a[rows]]),
                           np.concatenate([top_b[:first], in_b[rows]]),
                           np.concatenate([top[:first], best[rows]]))
        top = polished[:first] if first else top
        best[rows] = polished[first:]
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.maximum(np.where(live, scale * top[0], -math.inf), best)
    return QuadResult(np.where(value > -math.inf, value, 0.0),
                      bad | live & shared_bad)


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


def sup_log(fn, x_lo=-math.inf, x_hi=math.inf, *, ppd=DEFAULT_PPD, anchors=(),
            rate=0.0):
    """Supremum of fn over [x_lo, x_hi] in x = ln t coordinates; either
    bound may be infinite.

    ``fn`` must be vectorized over x.  The ``anchors`` (kinks, truncation
    points) become kinks of the plan, so each is sampled; ``rate`` = a
    declares that fn carries the factor e^{a x} through ``decay_product``,
    so the far panels on which it is exactly 0.0 are skipped.  This is the
    one-row case of ``QuadPlan.sup``, whose rule flags a function that is
    not finite or still grows far out.
    """
    r = QuadPlan(x_lo, x_hi, ppd=ppd, kinks=anchors, exp_rate=rate).sup(
        lambda x, rows: np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape))
    return QuadResult(float(r.value), bool(r.diverged))
