"""QuadPlan's layouts against the layout they replaced.

``reference_quadrature.ReferenceLayout`` computes every pass's panels from
scratch, padded to its widest row.  A plan of two or more laid-out rows
gathers its passes from one table of panels: the whole lattice panels
every segment can hold, and each row's other panels in closed form
(``quadrature._pieces``); a plan that lays out one row (one interval, or
identical rows laid out as one) builds its one pass straight from the
row's panel edges (``QuadPlan.row_pass``).  Row by row, the nonzero-weight
(node, weight) sequence, the nodes of each far region's last-doubling
increment and the tail-fit probes must be the same, bit for bit; and a
one-row pass must be the many-row gather's pass of that row, column for
column.  Values and flags of many-row plans must be those of the
reference's passes, and suprema those of each row alone, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_quadrature as ref
from kinterp import quadrature
from kinterp.quadrature import (CHUNK_ELEMS, DEEP_LOG_RANGE, GL_ORDER, LN10,
                                QuadPlan, hull_pows, integral_log, norm_pow,
                                truncated_pows)


def _width(ppd):
    return LN10 / max(1, round(ppd / GL_ORDER))


def _per_row(passes, n):
    """Row i's nonzero-weight nodes and weights, increment nodes per far
    region and valid probes, in column order."""
    out = [None] * n
    for idx, built in passes:
        points, weights, inc, unbounded = (built[0], built[1], built[-2],
                                           built[-1])
        for j, i in enumerate(idx):
            used = weights[j] > 0.0
            incs = []
            for start, mask in inc:
                cols = np.zeros(points.shape[1], dtype=bool)
                cols[start:start + mask.shape[1]] = mask[j]
                if (cols & used).any():
                    incs.append(points[j][cols & used].tobytes())
            probes = (points[j][-4:][np.repeat(unbounded[j], 2)].tobytes()
                      if unbounded.any() else b"")
            out[i] = (points[j][used].tobytes(), weights[j][used].tobytes(),
                      incs, probes, tuple(unbounded[j]))
    return out


def _assert_same_layout(lo, hi, **kw):
    plan = QuadPlan(lo, hi, **kw)
    old = ref.ReferenceLayout(lo, hi, **kw)
    assert np.array_equal(plan.rows, old.rows)
    passes = list(plan._passes())
    got = _per_row(passes, plan.rows.size)
    want = _per_row(((idx, old.build(idx)) for idx, _ in passes),
                    plan.rows.size)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, plan.lo[i], plan.hi[i])


def _assert_rows_alone_match(lo, hi, *, kinks=(), row_kinks=None, **kw):
    """Each row [lo[i], hi[i]] (with its row kink) as a plan of its own,
    which ``row_pass`` builds, against the reference."""
    old = ref.ReferenceLayout(lo, hi, kinks=kinks, row_kinks=row_kinks, **kw)
    assert old.rows.size == lo.size
    for i in range(lo.size):
        plan = QuadPlan(lo[i], hi[i], kinks=kinks, row_kinks=None
                        if row_kinks is None else row_kinks[i:i + 1], **kw)
        assert plan.lo.size == 1
        passes = list(plan._passes())
        assert len(passes) == 1
        got, = _per_row(passes, 1)
        want, = _per_row([(passes[0][0], old.build(np.array([i])))], 1)
        assert got == want, (i, lo[i], hi[i])


def _bounds(ppd):
    w = _width(ppd)
    eps = 1e-10 * w
    far = [math.exp(k * w) for k in (1, 7, 40)]
    return sorted({-math.inf, math.inf, -DEEP_LOG_RANGE, DEEP_LOG_RANGE,
                   -2.0 * DEEP_LOG_RANGE, 0.0, -1.0, 1.0, -1e6, 3e6,
                   -w - eps, -w + eps, 2 * w - eps, 3 * w + eps, 1.0 + 1e-12,
                   *(s * u * math.exp(d) for u in far for s in (-1.0, 1.0)
                     for d in (-eps, 0.0, eps))})


def _pairs(ppd, kinks):
    """Every pair of ``_bounds`` as a row, and the kinks of the mode
    ``kinks``: (lo, hi, shared kinks, row kinks or None)."""
    b = np.array(_bounds(ppd))
    i, j = np.triu_indices(b.size, k=1)
    lo, hi = b[i], b[j]
    w = _width(ppd)
    shared, row_kinks = (), None
    if kinks == "shared":
        # on a lattice point, within 1e-9 * width of one, and far out on
        # the lattice in y = ln|x|
        shared = (0.0, w, 2 * w + 0.5e-9 * w, -0.3, -math.exp(5 * w),
                  math.exp(9 * w) * (1.0 + 1e-11), 40.0)
    elif kinks == "row":
        choice = np.array([np.nan, 0.0, -w, 3 * w - 0.5e-9 * w, 0.45,
                           -math.exp(4 * w), math.exp(6 * w + 1e-10), -25.0])
        row_kinks = np.where(np.isfinite(lo), lo, -7.0) / 3.0
        row_kinks[::3] = choice[np.arange(row_kinks[::3].size) % choice.size]
    return lo, hi, shared, row_kinks


@pytest.mark.parametrize("ppd", [16, 64, 128])
@pytest.mark.parametrize("exp_rate", [0.0, 0.7, -2.0, 2000.0])
@pytest.mark.parametrize("kinks", ["none", "shared", "row"])
def test_layout_matches_reference(ppd, exp_rate, kinks):
    # every pair of bounds is a row, so passes mix rows of many widths
    lo, hi, shared, row_kinks = _pairs(ppd, kinks)
    _assert_same_layout(lo, hi, ppd=ppd, kinks=shared, row_kinks=row_kinks,
                        exp_rate=exp_rate)


@pytest.mark.parametrize("ppd", [16, 64, 128])
@pytest.mark.parametrize("exp_rate", [0.0, 0.7, -2.0, 2000.0])
@pytest.mark.parametrize("kinks", ["none", "shared", "row"])
def test_one_row_plans_match_reference(ppd, exp_rate, kinks):
    lo, hi, shared, row_kinks = _pairs(ppd, kinks)
    _assert_rows_alone_match(lo, hi, ppd=ppd, kinks=shared,
                             row_kinks=row_kinks, exp_rate=exp_rate)


@pytest.mark.parametrize("kinks", ["none", "shared", "row"])
def test_one_row_pass_is_the_tables(kinks):
    # the row twice, with a row kink (NaN for none) so that the two are not
    # laid out as one: the many-row builder, and no padding in the row's pass
    lo, hi, shared, row_kinks = _pairs(64, kinks)
    own = np.full(lo.size, np.nan) if row_kinks is None else row_kinks
    kw = dict(ppd=64, kinks=shared, exp_rate=0.7)
    for i in range(lo.size):
        points, weights, inc, unbounded = QuadPlan(
            lo[i], hi[i], row_kinks=None if row_kinks is None
            else own[i:i + 1], **kw).row_pass()
        many = QuadPlan(np.full(2, lo[i]), np.full(2, hi[i]),
                        row_kinks=np.full(2, own[i]), **kw)
        assert many.lo.size == 2
        (idx, want), *_ = many._passes()
        assert idx[0] == 0
        assert points[0].tobytes() == want[0][0].tobytes(), i
        assert weights[0].tobytes() == want[1][0].tobytes(), i
        assert [(s, m[0].tobytes()) for s, m in inc] == [
            (s, m[0].tobytes()) for s, m in want[2]], i
        assert np.array_equal(unbounded[0], want[3][0])


def test_relative_factor_rows_match_reference():
    # the rows of shift_integral's relative branch: (-inf, 0) with one
    # kink at -x, and their mirror (0, inf)
    x = np.concatenate([np.linspace(-60.0, 60.0, 241),
                        [-1e12, -1e6, 1e6, 1e12],
                        np.exp(np.arange(0.0, 28.0, _width(64)))])
    for lo, hi, rate in ((-math.inf, 0.0, 0.75), (0.0, math.inf, -0.25),
                         (-math.inf, 0.0, 1e-3)):
        _assert_same_layout(np.full(x.shape, lo), np.full(x.shape, hi),
                            ppd=64, row_kinks=-x, exp_rate=rate)


_VALUE = st.one_of(
    st.sampled_from([-math.inf, math.inf, -DEEP_LOG_RANGE, DEEP_LOG_RANGE,
                     0.0, -1.0, 1.0]),
    st.floats(-60.0, 60.0),
    st.builds(lambda k, d, s: s * math.exp(k * _width(64) + d),
              st.integers(0, 30), st.sampled_from([0.0, 1e-10, -1e-10]),
              st.sampled_from([-1.0, 1.0])),
    st.builds(lambda k, d: k * _width(64) + d * _width(64),
              st.integers(-8, 8), st.sampled_from([0.0, 1e-10, -1e-10,
                                                    5e-10, -2e-9])))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=12),
       st.lists(_VALUE.filter(math.isfinite), max_size=3),
       st.sampled_from([0.0, 3.0, -0.5, 1e-9]),
       st.booleans())
def test_random_plans_match_reference(bounds, kinks, exp_rate, row_kink):
    lo = np.array([min(a, b) for a, b in bounds])
    hi = np.array([max(a, b) for a, b in bounds])
    row_kinks = np.where(np.isfinite(lo), -lo, np.nan) if row_kink else None
    _assert_same_layout(lo, hi, ppd=64, kinks=tuple(kinks),
                        row_kinks=row_kinks, exp_rate=exp_rate)


def test_empty_far_segment_is_no_node():
    # [1, 1 + 1e-12]: a far region narrower than 1e-9 panel widths, with
    # no node; the layout it replaced failed here (argmax of an empty
    # sequence)
    plan = QuadPlan(1.0, 1.0 + 1e-12)
    (idx, (points, weights, inc, unbounded)), = plan._passes()
    assert not (weights > 0.0).any() and np.array_equal(points, [[1.0]])
    r = plan.apply(lambda x, rows: np.ones(x.shape))
    assert float(r.value) == 0.0 and not r.diverged


@pytest.mark.parametrize("lo,hi", [
    (-math.inf, math.inf), (-3.0, math.inf), (-2.0 * DEEP_LOG_RANGE, -0.3),
    (0.1, 0.2), (-1.0, 1.0), (2.0, 2.0 + 1e-9),
    (1.0, 1.0 + 1e-12),  # test_empty_far_segment_is_no_node's row
])
def test_identical_rows_build_their_row_alone(lo, hi):
    # identical rows are laid out one by one, each as the reference lays
    # it out alone
    kw = dict(kinks=(0.0, -0.3, 2.5, -40.0), exp_rate=0.7)
    lo, hi = np.full(4, lo), np.full(4, hi)
    plan = QuadPlan(lo, hi, **kw)
    assert plan.lo.size == 4 and plan.rows.size == 4
    _assert_same_layout(lo, hi, **kw)


def test_one_row_paths_use_no_table(monkeypatch):
    # the one-row paths never reach the many-row gather
    def fail(*a, **kw):
        raise AssertionError("a one-row plan used the many-row gather")

    monkeypatch.setattr(quadrature, "_pieces", fail)
    r = integral_log(lambda x: np.exp(-x * x), kinks=(0.5,))
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def core(x, rows):
        return np.exp(-np.abs(x)) * (1.0 if rows is None else
                                     np.arange(1.0, 4.0)[rows, None])

    cuts = np.array([-5.0, 0.3, 2.0])
    for end in (-math.inf, 0.0, math.inf):
        truncated_pows(end, cuts, core, 0.0, 1.5, ppds=(16, 64))
    hull_pows(-math.inf, 0.0, core, lambda x: np.exp(-np.abs(x)),
              np.arange(1.0, 4.0), 0.5, 2.0, ppd=64, kinks=(-1.0,),
              hull=(-1.0, 0.0))
    r = norm_pow(-math.inf, 0.0, core, 0.5, math.inf, ppd=64, kinks=(-1.0,))
    # e^{1.5 x} times row 0 + 1 peaks at the bound x = 0
    assert r.value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("q", [1.5, math.inf])
@pytest.mark.parametrize("bounds", [(-math.inf, 0.0), (-3.0, math.inf),
                                    (-math.inf, math.inf)])
def test_one_row_values_are_the_tables(q, bounds):
    # identical rows, and the first laid out alone, against the same rows
    # beside a second, different row
    def core(x, rows):
        with np.errstate(under="ignore"):
            return (np.arange(1.0, 7.0)[rows, None]
                    * np.exp(-np.abs(x + 2.0) ** 1.5) + 1e-3 / (1.0 + x * x))

    lo, hi = np.full(5, bounds[0]), np.full(5, bounds[1])
    kw = dict(ppd=64, kinks=(-1.0, 0.5))
    one = norm_pow(lo, hi, core, 0.25, q, **kw)
    table = norm_pow(np.append(lo, -3.0), np.append(hi, 5.0), core, 0.25, q,
                     **kw)
    alone = norm_pow(*bounds, core, 0.25, q, **kw)
    assert one.value.tobytes() == table.value[:5].tobytes()
    assert np.array_equal(one.diverged, table.diverged[:5])
    assert alone.value.tobytes() == table.value[:1].tobytes()
    assert alone.diverged == table.diverged[0]


def _spy_gathers(monkeypatch):
    """The row segments of every many-row gather (``_pieces``)."""
    pieces, sizes = quadrature._pieces, []

    def spy(lo, *a):
        sizes.append(lo.size)
        return pieces(lo, *a)

    monkeypatch.setattr(quadrature, "_pieces", spy)
    return sizes


def test_gather_budget_counts_probe_and_fill_panels(monkeypatch):
    # one- and two-panel rows: every pass of two or more rows holds at most
    # CHUNK_ELEMS values, the one-panel rows take passes of their own
    # GL_ORDER columns, and one gather builds the 120 others
    lo = np.linspace(0.0, 0.5, 6000)
    plan = QuadPlan(lo, lo + 0.01)
    sizes = _spy_gathers(monkeypatch)
    passes = list(plan._passes())
    assert sizes == [120]
    assert len(passes) == 13
    assert sum(idx.size for idx, (points, *_) in passes
               if points.shape[1] == GL_ORDER) == 5880
    for idx, (points, *_) in passes:
        assert idx.size < 2 or points.size <= CHUNK_ELEMS
    r = plan.apply(lambda x, rows: np.ones(x.shape))
    np.testing.assert_allclose(r.value, 0.01, rtol=1e-12)


def test_plan_of_many_blocks_matches_reference(monkeypatch):
    # sweep-like rows: the head or tail increment of a gap, short or far
    # out, or a restart to the infinite end, each with its own point's kink,
    # in one gather of the live segments of every row but those of one
    # direct panel
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-60.0, 60.0, 3000))
    gap = rng.choice([0.05, 0.3, 2.5, 40.0, 1e5, math.inf], x.size)
    head = rng.random(x.size) < 0.5
    lo, hi = np.where(head, -gap, 0.0), np.where(head, 0.0, gap)
    sizes = _spy_gathers(monkeypatch)
    _assert_same_layout(lo, hi, ppd=64, row_kinks=-x, exp_rate=0.7)
    assert sizes == [4429]
    # a pass's width is the sum over the segments of the most panels any of
    # its rows has there
    for idx, (points, *_) in QuadPlan(lo, hi, ppd=64, row_kinks=-x,
                                      exp_rate=0.7)._passes():
        assert idx.size < 2 or points.size <= CHUNK_ELEMS


def _ladder_spans(exp_rate):
    """Spans of rows that end at 0: at, within 1e-9 width of and just past
    1e-9 width from the direct and far lattice points on either side, below
    1e-9 width, just past SWITCH, at and past e^{y_cut}, and infinite."""
    w = _width(64)
    cut = QuadPlan(0.0, 1.0, exp_rate=exp_rate).y_cut
    y_cut = min(c for c in cut + [w * 40] if c < math.inf)
    near = (0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9)
    spans = [k * w * (1.0 + d) for k in range(1, 5) for d in near]
    spans += [math.exp(k * w) * math.exp(d * w) for k in (1, 2, 7, 24)
              for d in near]
    spans += [1e-16, 1e-10 * w, 1e-9 * w, 1.5e-9 * w, 0.3, 1.0, 1.0 + 1e-12,
              1.0 + 1e-9, 1.0 + 1e-3, 1.3]
    spans += [math.exp(y_cut) * f for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12,
                                             math.exp(w), 1e3)]
    spans += [1e11, DEEP_LOG_RANGE, 2.0 * DEEP_LOG_RANGE, math.inf]
    return np.array(spans)


def _ladder_core(kind, q):
    """A core whose powered integrand converges (a bump), converges so
    slowly toward an infinite end that the last doubling flags it
    ((1 + |x|)^-1.01), grows there (the tail fit flags it), or is not
    finite at some nodes."""
    def core(x, rows):
        ax = np.abs(x)
        with np.errstate(over="ignore", under="ignore"):
            if kind == "bump":
                return (1.0 + 0.01 * rows[:, None]) * np.exp(
                    -0.5 * (x - 0.1) ** 2) + 1e-3 / (1.0 + ax)
            if kind == "slow":
                return (1.0 + ax) ** (-1.01 / q)
            if kind == "grows":
                return np.sqrt(1.0 + ax)
            return np.where((ax > 0.5) & (ax < 0.6), np.inf, 1.0 / (1.0 + ax))
    return core


@pytest.mark.parametrize("kind", ["bump", "slow", "grows", "inf"])
@pytest.mark.parametrize("rate", [0.0, 0.7, -0.7, 1000.0, -1000.0])
def test_ladder_rows_match_reference(monkeypatch, kind, rate):
    # rows that end at 0 with no kink inside, as the inner sweeps hand them
    # to norm_pow: row by row the bits and flags of the reference layout's
    # passes and of QuadPlan, in one call and in a call of restarts only
    # (and one row a call, which row_pass lays out); at |rate q| > EXP_ZERO
    # e^width the far cut y_cut falls below ln SWITCH = 0, so a far segment
    # is cut away whole
    q = 1.5
    spans = _ladder_spans(rate * q)
    core = _ladder_core(kind, q)
    fn = quadrature.powered(core, rate, q)
    for head in (True, False):
        lo = -spans if head else np.zeros(spans.size)
        hi = np.zeros(spans.size) if head else spans
        # the row's own kink at 0, at a bound: not inside
        kw = dict(ppd=64, row_kinks=np.zeros(spans.size))
        old = ref.ReferenceLayout(lo, hi, exp_rate=rate * q, **kw)
        assert old.rows.size == spans.size
        points, weights, _, inc, unbounded = old.build(old.rows)
        want = quadrature._reduce(fn(points, old.rows),
                                  (points, weights, inc, unbounded),
                                  quadrature._row_sums)
        plan = QuadPlan(lo, hi, exp_rate=rate * q, **kw).apply(fn)

        def inside(x, rows):
            # the integrand sees no point outside its row
            assert ((x >= lo[rows, None]) & (x <= hi[rows, None])).all()
            return core(x, rows)
        shapes, reduce = [], quadrature._reduce
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_reduce", lambda vals, built, *a: (
                shapes.append(built[0].shape) or reduce(vals, built, *a)))
            got = norm_pow(lo, hi, inside, rate, q, **kw)
            restarts = norm_pow(lo[-1:].repeat(2), hi[-1:].repeat(2),
                                lambda x, rows: core(x, 0 * rows + lo.size - 1),
                                rate, q, ppd=64)
        # a row alone is laid out (row_pass); the core sees its index i
        alone = [norm_pow(lo[i], hi[i], lambda x, rows, i=i: core(
            x, rows + i), rate, q, ppd=64)
            for i in np.flatnonzero(spans >= 1.0)]
        assert all(r < 2 or r * c <= CHUNK_ELEMS for r, c in shapes)
        for value, flag in (want, (plan.value, plan.diverged)):
            assert got.value.tobytes() == value.tobytes(), head
            assert np.array_equal(got.diverged, flag)
        for r, i in zip(alone, np.flatnonzero(spans >= 1.0)):
            assert (r.value, r.diverged) == (plan.value[i], plan.diverged[i])
        assert (restarts.value == plan.value[-1]).all()
        assert (restarts.diverged == plan.diverged[-1]).all()
        # spans below 1e-9 width have no panel; the bump converges unless
        # e^{rate x} grows along the side, the others flag an infinite span
        # unless it decays
        assert (got.value[spans <= 1e-9 * _width(64)] == 0.0).all()
        grows = rate != 0.0 and (rate < 0.0) == head
        if kind == "bump":
            assert grows or not got.diverged.any()
        elif rate == 0.0 or grows:
            assert got.diverged[np.isinf(spans)].all()


def _gathered_rows():
    """(lo, hi, row kinks) of rows whose two ends and kink share one lattice
    cell (direct, and far on either side), whose ends and kinks lie within
    1e-9 width before and after a direct or far lattice point or just below
    hi, and head, tail and two-sided rows, with infinite ends."""
    w = _width(64)
    rows = [((k + 0.1) * w, (k + 0.7) * w, (k + 0.4) * w) for k in (-3, 0, 2)]
    for k in (5, 30):
        a, b, c = (math.exp((k + f) * w) for f in (0.1, 0.8, 0.5))
        rows += [(a, b, c), (-b, -a, -c)]
    for d in (0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9):
        for k in (1, 3):
            rows += [((k + d) * w, 5.5 * w, (k + 1 + d) * w),
                     (-5.5 * w, -(k + d) * w, -(k + 1 + d) * w),
                     ((k - 0.5) * w, (k + d) * w, math.nan)]
            y = [math.exp((k + j + d) * w) for j in (10, 12, 20)]
            rows += [(y[0], y[2], y[1]), (-y[2], -y[0], -y[1]),
                     (-y[0] * 0.9, y[1], -y[0])]
        if d > 0.0:
            for hi in (3.3 * w, math.exp(17.3 * w)):
                rows.append((0.2 * w, hi, hi - d * w))
    rows += [(-math.inf, math.inf, 0.3), (-5.0, 7.0, math.nan),
             (-1e6, 2.0, -0.5 * w), (-math.inf, 3.0, math.nan),
             (-2.0, math.inf, w * (1.0 + 0.5e-9)), (-3.0, 0.0, 0.0),
             (0.0, 40.0, 0.0), (-math.inf, 0.0, -1.5), (0.0, math.inf, 2.5),
             (-0.3, 0.2, 0.0), (0.1, 0.15, math.nan)]
    return np.array(rows).T


@pytest.mark.parametrize("rate", [0.0, 0.7, 1000.0, -1000.0])
def test_gathered_rows_match_reference(rate):
    # one plan of every row: its passes, values and flags bit for bit those
    # of the reference layout, and each supremum that of the row alone; at
    # |rate q| = 1500 > EXP_ZERO e^width a far segment is cut away whole
    lo, hi, row_kinks = _gathered_rows()
    q, kw = 1.5, dict(ppd=64, kinks=(0.0, -0.3))
    _assert_same_layout(lo, hi, row_kinks=row_kinks, exp_rate=rate * q, **kw)
    core = _ladder_core("bump", q)
    fn = quadrature.powered(core, rate, q)
    plan = QuadPlan(lo, hi, row_kinks=row_kinks, exp_rate=rate * q, **kw)
    assert plan.lo.size == lo.size
    old = ref.ReferenceLayout(lo, hi, row_kinks=row_kinks,
                              exp_rate=rate * q, **kw)
    points, weights, _, inc, unbounded = old.build(old.rows)
    # the reference lays a far segment that y_cut cuts away whole out as a
    # panel of negative width, whose nodes the plan does not have
    weights = np.maximum(weights, 0.0)
    want = quadrature._reduce(fn(points, old.rows),
                              (points, weights, inc, unbounded),
                              quadrature._row_sums)
    got = plan.apply(fn)
    assert got.value.tobytes() == want[0].tobytes()
    assert np.array_equal(got.diverged, want[1])

    def sup_fn(x, rows):
        return quadrature.decay_product(rate * x, core(x, rows))
    got = QuadPlan(lo, hi, row_kinks=row_kinks, exp_rate=rate, **kw).sup(
        sup_fn)
    for i in range(lo.size):
        alone = QuadPlan(lo[i], hi[i], row_kinks=row_kinks[i:i + 1],
                         exp_rate=rate, **kw).sup(
            lambda x, rows, i=i: sup_fn(x, rows + i))
        assert (got.value[i], got.diverged[i]) == (alone.value,
                                                    alone.diverged), i
