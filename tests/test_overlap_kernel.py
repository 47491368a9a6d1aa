"""Differential test of the row-interval overlap kernel.

`oracle.dense_row_counts` is the estimator that tests every cell center of
the overlap grid against both quadratic forms.  The row kernel
(`geometry._grid_constants` and `geometry._row_counts`, called on one pair)
must give the same per-row counts, and `geometry.overlap_error` the same
value, bit for bit, on every pair below.  No tolerance is applied; a
boundary cell settled differently fails the test.  The grid's pitch and
row count, the default pitch included, are compared with the oracle's on
drawn pairs.  On rows of extreme magnitudes, overlap_errors alone decides
which pairs are scored: never one that region_checks rejects, and never
with a warning.
"""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repbench import geometry
from repbench.errors import DegenerateRegion
from repbench.geometry import SecondMomentEllipse, overlap_error, overlap_errors, region_checks

from oracle import (
    default_grid_step,
    dense_row_counts,
    grid,
    half_extents,
    joint_box,
    normalize_pair,
)

RAW_STEPS = (0.05, 0.25, 0.5, 1.0, 1.5)


def error_bounds(centers1, abc1, centers2, abc2, grid_step=None):
    """geometry._error_bounds of K pairs, on the grids overlap_errors lays
    out for them."""
    centers, abc = np.stack([centers1, centers2]), np.stack([abc1, abc2])
    per_pair, ny, _ = geometry._grid_constants(centers, abc, grid_step)
    return geometry._error_bounds(centers, abc, per_pair, ny)


def row_counts(e1, e2, grid_step):
    """(n, both) of the row kernel over every row of the pair's grid: n[0]
    and n[1] count the cell centers inside e1 and e2 per row, both those
    inside the two."""
    per_pair, ny, _ = geometry._grid_constants(
        np.stack([e1.center, e2.center])[:, None], np.stack([e1.abc, e2.abc])[:, None], grid_step
    )
    return geometry._row_counts(np.repeat(per_pair, ny, axis=1), np.arange(ny[0]))


def ellipse(center, radius, ratio, theta):
    """Ellipse with the area of a circle of `radius`, axis ratio `ratio` and
    major axis at angle `theta`."""
    major = radius * math.sqrt(ratio)
    minor = radius / math.sqrt(ratio)
    d1 = 1.0 / (major * major)
    d2 = 1.0 / (minor * minor)
    co, si = math.cos(theta), math.sin(theta)
    off = co * si * (d1 - d2)
    return SecondMomentEllipse(
        center, [[co * co * d1 + si * si * d2, off], [off, si * si * d1 + co * co * d2]]
    )


def random_pair(rng, radius, max_ratio, offset=1.5):
    """A reference region and a perturbed copy with its center moved by at
    most `offset` px, like a candidate of the centre search."""
    center = rng.uniform(-50.0, 50.0, 2)
    e1 = ellipse(center, radius, rng.uniform(1.0, max_ratio), rng.uniform(0.0, math.pi))
    e2 = ellipse(
        center + rng.uniform(-offset, offset, 2) / math.sqrt(2.0),
        radius * rng.uniform(0.7, 1.4),
        rng.uniform(1.0, max_ratio),
        rng.uniform(0.0, math.pi),
    )
    return e1, e2


def normalized_pairs(rng, count, steps):
    for _ in range(count):
        e1, e2 = normalize_pair(*random_pair(rng, rng.uniform(2.0, 6.0), 3.0), 30.0)
        yield e1, e2, default_grid_step(e1, e2) if steps is None else float(rng.choice(steps))


def raw_pairs(rng, count, step):
    for _ in range(count):
        yield (*random_pair(rng, rng.uniform(2.0, 6.0), 3.0), step)


def clamped_pairs(rng, count):
    """Pairs of very different sizes and offsets, some disjoint, for a cap
    small enough that the coarsening loop runs on most of them."""
    for _ in range(count):
        e1, _ = random_pair(rng, rng.uniform(0.2, 3.0), 5.0)
        _, e2 = random_pair(rng, rng.uniform(2.0, 40.0), 5.0, offset=0.0)
        e2 = SecondMomentEllipse(e1.center + rng.uniform(-30.0, 30.0, 2), e2.shape)
        yield e1, e2, float(rng.choice(RAW_STEPS))


def degenerate_pairs(rng, count):
    """Tiny regions, and regions with axis ratio 40 to 100 (the pitch then
    clamps to the minor semiaxis)."""
    for i in range(count):
        if i % 2:
            step = float(rng.choice(RAW_STEPS))
            yield (*random_pair(rng, rng.uniform(1e-3, 1e-2), 3.0, offset=0.01), step)
        else:
            step = float(rng.choice((0.5, 1.0, 1.5)))
            yield (*random_pair(rng, rng.uniform(2.0, 6.0), rng.uniform(40.0, 100.0)), step)


def tangent_pairs(rng, count):
    """Pairs whose grid puts a cell center on, or a few ulps from, an ellipse
    boundary, inside a circle that fixes the grid: a row through the top or
    bottom of a small ellipse, a circle centred on a cell center with a
    radius of a whole number of cells, or a small ellipse placed so that
    its boundary passes through a cell center."""
    for i in range(count):
        step = float(rng.choice((0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.5)))
        outer = SecondMomentEllipse.circle(*rng.uniform(-20.0, 20.0, 2), rng.uniform(8.0, 15.0))
        radius = half_extents(outer)[0]
        cells = radius / step
        j, k = rng.integers(int(0.6 * cells), int(1.4 * cells), 2)
        cell = outer.center - radius + (np.array([k, j]) + 0.5) * step
        if i % 3 == 0:
            inner = SecondMomentEllipse.circle(*cell, step * int(rng.integers(1, 3)))
            yield inner, outer, step
            continue
        shape = ellipse((0.0, 0.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0),
                        rng.uniform(0.0, math.pi)).shape
        if i % 3 == 1:
            h = half_extents(SecondMomentEllipse((0.0, 0.0), shape))[1]
            offset = np.array([0.0, h if rng.uniform() < 0.5 else -h])
        else:
            vals, vecs = np.linalg.eigh(shape)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            offset = vecs @ (np.array([math.cos(phi), math.sin(phi)]) / np.sqrt(vals))
        center = cell - offset
        ulps = int(rng.integers(-3, 4))
        for _ in range(abs(ulps)):
            center[1] = np.nextafter(center[1], math.copysign(math.inf, ulps))
        yield SecondMomentEllipse(center, shape), outer, step


def mismatches(pairs):
    bad = []
    count = 0
    for e1, e2, step in pairs:
        count += 1
        (r1, r2, rb), err = dense_row_counts(e1, e2, step)
        n, both = row_counts(e1, e2, step)
        same_rows = (
            np.array_equal(n[0], r1) and np.array_equal(n[1], r2) and np.array_equal(both, rb)
        )
        got = overlap_error(e1, e2, step)
        if not same_rows or got != err:
            bad.append((e1, e2, step, got, err))
    return count, bad


# name -> (pairs, generator); with the sample-cap tests below, 10_021 pairs.
FAMILIES = {
    "normalized-default-step": (20, lambda rng, n: normalized_pairs(rng, n, None)),
    "normalized-coarse-step": (900, lambda rng, n: normalized_pairs(rng, n, (0.5, 1.0, 1.5))),
    "raw-step-0.05": (100, lambda rng, n: raw_pairs(rng, n, 0.05)),
    "raw-step-0.25": (1500, lambda rng, n: raw_pairs(rng, n, 0.25)),
    "raw-step-0.5": (1500, lambda rng, n: raw_pairs(rng, n, 0.5)),
    "raw-step-1.0": (1500, lambda rng, n: raw_pairs(rng, n, 1.0)),
    "raw-step-1.5": (1500, lambda rng, n: raw_pairs(rng, n, 1.5)),
    "near-degenerate": (800, degenerate_pairs),
    "near-tangent": (1200, tangent_pairs),
}
CAPPED_PAIRS = 1000


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_row_counts_match_dense_sampling(family):
    pairs, make = FAMILIES[family]
    count, bad = mismatches(make(np.random.default_rng(sorted(FAMILIES).index(family) + 1), pairs))
    assert count == pairs
    assert not bad, f"{len(bad)} of {count} pairs differ, first: {bad[0]!r}"


def test_row_counts_match_dense_sampling_under_the_sample_cap(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_OVERLAP_SAMPLES", 400)
    count, bad = mismatches(clamped_pairs(np.random.default_rng(99), CAPPED_PAIRS))
    assert not bad, f"{len(bad)} of {count} pairs differ, first: {bad[0]!r}"


def test_row_counts_match_dense_sampling_at_the_real_cap():
    # about 2e4 x 2e4 cells at pitch 0.005, coarsened to MAX_OVERLAP_SAMPLES
    e1, e2 = normalize_pair(
        ellipse((3.0, 4.0), 4.0, 2.5, 0.4), ellipse((3.5, 3.2), 4.4, 1.5, 1.9), 30.0
    )
    count, bad = mismatches([(e1, e2, 0.005)])
    assert not bad, bad


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def drawn_pairs(draw):
    """Two regions up to 5 px apart: ellipses of radius 1e-2 to 3e2 px and
    axis ratio up to 1e3, so that the default pitch puts many grids over
    the sample cap, and now and then a needle, whose smaller eigenvalue
    rounds to zero."""
    def region(center):
        if draw(st.integers(0, 9)) == 0:
            return SecondMomentEllipse.from_abc(*center, 1e9, 0.5, 1e-9)
        return ellipse(center, 10.0 ** draw(st.floats(-2.0, 2.5)),
                       10.0 ** draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, math.pi)))

    center = np.array([draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))])
    offset = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    return region(center), region(center + offset)


def stacked(pairs):
    """(centers1, abc1, centers2, abc2) of a list of region pairs."""
    return tuple(np.array([getattr(e, field) for e in side])
                 for side in zip(*pairs) for field in ("center", "abc"))


@PROPERTY
@given(st.lists(drawn_pairs(), min_size=1, max_size=6))
def test_default_pitch_is_the_oracle_pitch(pairs):
    """grid_step None is oracle.default_grid_step, bit for bit; a pair with
    a needle scores NaN."""
    got = overlap_errors(*stacked(pairs))
    for k, (e1, e2) in enumerate(pairs):
        try:
            step = default_grid_step(e1, e2)
        except DegenerateRegion:
            assert np.isnan(got[k])
            continue
        assert got[k].hex() == overlap_errors(*stacked([(e1, e2)]), step)[0].hex()


@PROPERTY
@given(drawn_pairs(), st.one_of(st.sampled_from([1e-12, 1e-200, 1e-300, 1e-320]),
                                st.floats(-1.0, 323.0).map(lambda e: 10.0 ** -e)))
def test_grid_is_the_oracle_grid(pair, grid_step):
    """Where oracle.grid lays a grid out, _grid_constants has its pitch and
    row count bit for bit.  Where the cell count of the requested pitch
    overflows a float, and oracle.grid raises OverflowError, the grid is
    still coarsened to at most MAX_OVERLAP_SAMPLES cells."""
    e1, e2 = pair
    per_pair, ny, gridded = geometry._grid_constants(
        np.stack([e1.center, e2.center])[:, None], np.stack([e1.abc, e2.abc])[:, None], grid_step
    )
    step, rows = float(per_pair[22, 0]), int(ny[0])
    try:
        _, _, want_step, _, want_rows = grid(e1, e2, grid_step)
    except DegenerateRegion:
        assert not gridded[0] and rows == 0
        return
    except OverflowError:
        _, _, width, height = joint_box(e1, e2)
        assert gridded[0] and rows == math.ceil(height / step)
        assert math.ceil(width / step) * rows <= geometry.MAX_OVERLAP_SAMPLES
        assert 0.0 <= overlap_error(e1, e2, grid_step) <= 1.0
        return
    assert gridded[0] and (step.hex(), rows) == (want_step.hex(), want_rows)


@pytest.mark.parametrize("grid_step", [0.5, None])
def test_grid_too_wide_for_the_kernel_scores_nan(grid_step):
    """Two radius-3 circles 1e200 px apart: their grid, coarsened to the
    sample cap, has one row about 2.5e193 px tall, so the row kernel's
    dy * dy would overflow.  The pair has no grid and scores NaN, with no
    warning; 1e160 px apart every product fits, and the pair scores 1."""
    circle = np.array([[1.0 / 9.0, 0.0, 1.0 / 9.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        far, near = (overlap_errors(np.array([[x, 0.0]]), circle, np.zeros((1, 2)), circle,
                                    grid_step) for x in (-1e200, -1e160))
    assert np.isnan(far[0]) and near[0] == 1.0


def test_grid_narrower_than_an_ulp_is_capped():
    """Two copies of an ellipse 0.8 px wide and 8e6 px tall at x = 2**53,
    where its x extent rounds away: the joint box has width 0, yet its 2e9 rows
    at the default pitch are coarsened to the sample cap."""
    center, abc = np.array([[2.0**53, 0.0]] * 2), np.array([[1.0 / 0.16, 0.0, 1.0 / 1.6e13]] * 2)
    _, ny, gridded = geometry._grid_constants(center[:, None], abc[:, None], None)
    assert gridded[0] and 0 < ny[0] <= geometry.MAX_OVERLAP_SAMPLES
    assert overlap_errors(center[:1], abc[:1], center[1:], abc[1:])[0] == 0.0


EXTREME = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def extreme_value(draw, top):
    """0, inf, -inf, NaN or a signed power of ten from 1e-320 to 10**top."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from([0.0, math.inf, -math.inf, math.nan]))
    return draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-320.0, top))


@st.composite
def extreme_rows(draw):
    """A row (u, v, a, b, c) of extreme values, centers up to 1e300; half of
    the rows are ellipses with semiaxes from 1e-154 to 1e154 px and axis
    ratios up to 1e6, valid unless a product of their coefficients leaves
    the floats."""
    center = [extreme_value(draw, 300.0), extreme_value(draw, 300.0)]
    if draw(st.booleans()):
        return center + [extreme_value(draw, 308.0) for _ in range(3)]
    a = 10.0 ** draw(st.floats(-308.0, 308.0))
    c = min(a * 10.0 ** draw(st.floats(-12.0, 12.0)), 1e308)
    return center + [a, draw(st.floats(-0.999, 0.999)) * math.sqrt(a) * math.sqrt(c), c]


@st.composite
def extreme_pairs(draw):
    """Two rows; in half of the pairs the second center is the first moved
    by an extreme offset."""
    first, second = draw(extreme_rows()), draw(extreme_rows())
    if draw(st.booleans()):
        second[:2] = [u + extreme_value(draw, 300.0) for u in first[:2]]
    return first, second


@EXTREME
@given(st.lists(extreme_pairs(), min_size=1, max_size=4),
       st.one_of(st.none(), st.floats(-308.0, 320.0).map(lambda e: 10.0 ** -e)))
def test_extreme_rows_score_only_regions(pairs, grid_step):
    """Every error is in [0, 1] or NaN, NaN wherever region_checks rejects
    either region, the same bits in a batch as alone, and inside its bound
    interval wherever _error_bounds gives one; no RuntimeWarning is
    raised."""
    rows = np.array(pairs).reshape(len(pairs), 2, 5)
    centers1, abc1, centers2, abc2 = rows[:, 0, :2], rows[:, 0, 2:], rows[:, 1, :2], rows[:, 1, 2:]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = overlap_errors(centers1, abc1, centers2, abc2, grid_step)
        alone = [overlap_errors(centers1[k : k + 1], abc1[k : k + 1], centers2[k : k + 1],
                                abc2[k : k + 1], grid_step)[0] for k in range(len(pairs))]
        regions = [np.logical_and.reduce(region_checks(centers, abc))
                   for centers, abc in ((centers1, abc1), (centers2, abc2))]
        lo, hi = error_bounds(centers1, abc1, centers2, abc2, grid_step)
    bounded = ~np.isnan(lo)
    assert (~np.isnan(got[bounded])).all()
    assert ((lo <= got) & (got <= hi))[bounded].all()
    assert [e.hex() for e in got.tolist()] == [e.hex() for e in alone]
    assert np.isnan(got[~(regions[0] & regions[1])]).all()
    assert ((got >= 0.0) & (got <= 1.0) | np.isnan(got)).all()


BOUNDS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def bound_pairs(draw):
    """Two ellipses with axis ratios up to 1e3, the second 0.3 to 3 times
    the size of the first.  Either its center is 0 to 4 radii away, with a
    shape of its own, or it is the first scaled about its center, so that
    one holds the other.  Half the axes lie along the grid, where the
    lattice count of a thin ellipse is biased in every row."""
    radius = 10.0 ** draw(st.floats(-1.0, 2.0))
    center = np.array([draw(st.floats(-500.0, 500.0)) for _ in range(2)])
    size = radius * 10.0 ** draw(st.floats(-0.5, 0.5))

    def shape():
        theta = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi]), st.floats(0.0, math.pi)))
        return 10.0 ** draw(st.one_of(st.sampled_from([0.0, 3.0]), st.floats(0.0, 3.0))), theta

    e1 = ellipse(center, radius, *shape())
    if draw(st.booleans()):
        return e1, SecondMomentEllipse(center, e1.shape * (radius / size) ** 2)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    offset = radius * draw(st.floats(0.0, 4.0)) * np.array([math.cos(angle), math.sin(angle)])
    return e1, ellipse(center + offset, size, *shape())


@BOUNDS
@given(bound_pairs(), st.one_of(st.none(), st.floats(-2.0, 0.7).map(lambda e: 10.0**e)),
       st.sampled_from([geometry.MAX_OVERLAP_SAMPLES, 20_000, 2_000, 200]))
def test_bounds_hold_the_grid_estimate(pair, grid_step, cap):
    """lo <= overlap_errors' estimate <= hi on every drawn pair, at the
    default and explicit pitches and on grids that a small sample cap
    coarsens; every pair is inside the proof's scope.  With a threshold, a
    lone pair scores below it exactly when its estimate does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "MAX_OVERLAP_SAMPLES", cap)
        regions = stacked([pair])
        (err,) = overlap_errors(*regions, grid_step)
        (lo,), (hi,) = error_bounds(*regions, grid_step)
        decided = [overlap_errors(*regions, grid_step, t, np.array([True]))[0] < t
                   for t in (0.1, 0.4, 0.9)]
    assert lo <= err <= hi
    assert decided == [err < t for t in (0.1, 0.4, 0.9)]


PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def exact_area(abc):
    """pi / sqrt(a c - b^2) of the row abc as real numbers, to 60 digits."""
    a, b, c = (Fraction(v) for v in abc)
    det = a * c - b * b
    with localcontext() as ctx:
        ctx.prec = 60
        return PI / (Decimal(det.numerator) / Decimal(det.denominator)).sqrt()


@BOUNDS
@given(bound_pairs(), st.integers(0, 3))
def test_area_bounds_hold_the_exact_areas(pair, doubling):
    """_area_bounds encloses each region's exact area, and its intersection
    bound is at most the exact area of the first region when the second
    holds it; a second region 2^doubling times the first's size about the
    same center does, and with doubling 0 the two are equal, where the
    bound is tight up to rounding."""
    e1, e2 = pair
    nested = SecondMomentEllipse(e1.center, e1.shape * 4.0**-doubling)
    for second in (e2, nested):
        centers = np.array([e1.center, second.center])[:, None]
        abc = np.array([e1.abc, second.abc])[:, None]
        area_lo, area_hi, inter_lo, _, _ = geometry._area_bounds(centers, abc)
        for k, region in enumerate((e1, second)):
            assert Decimal(area_lo[k, 0]) <= exact_area(region.abc) <= Decimal(area_hi[k, 0])
    assert Decimal(inter_lo[0]) <= exact_area(e1.abc)
