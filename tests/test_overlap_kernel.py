"""Differential test of the row-interval overlap kernel.

`dense_row_counts` is the estimator that tests every cell center of the
overlap grid against both quadratic forms.  It is kept here as the reference:
`geometry.overlap_row_counts` must give the same per-row counts, and
`geometry.overlap_error` the same value, bit for bit, on every pair below.
No tolerance is applied; a boundary cell settled differently fails the test.
"""

import math

import numpy as np
import pytest

from repbench import geometry
from repbench.geometry import (
    SecondMomentEllipse,
    default_grid_step,
    normalize_pair,
    overlap_error,
    overlap_row_counts,
)

RAW_STEPS = (0.05, 0.25, 0.5, 1.0, 1.5)


def dense_row_counts(e1, e2, grid_step):
    """Per-row (in e1, in e2, in both) counts and the overlap error, by
    testing every cell center of the grid."""
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    w1, h1 = e1.half_extents()
    w2, h2 = e2.half_extents()
    xmin = min(e1.center[0] - w1, e2.center[0] - w2)
    xmax = max(e1.center[0] + w1, e2.center[0] + w2)
    ymin = min(e1.center[1] - h1, e2.center[1] - h2)
    ymax = max(e1.center[1] + h1, e2.center[1] + h2)

    minor = min(e1.semiaxes()[1], e2.semiaxes()[1])
    step = min(grid_step, minor)
    nx = math.ceil((xmax - xmin) / step)
    ny = math.ceil((ymax - ymin) / step)
    while nx * ny > geometry.MAX_OVERLAP_SAMPLES:
        step *= math.sqrt(nx * ny / geometry.MAX_OVERLAP_SAMPLES) * 1.0001
        nx = math.ceil((xmax - xmin) / step)
        ny = math.ceil((ymax - ymin) / step)

    xs = xmin + (np.arange(nx) + 0.5) * step
    ys = ymin + (np.arange(ny) + 0.5) * step

    def inside(e):
        a, b, c = e.shape[0, 0], e.shape[0, 1], e.shape[1, 1]
        dx = xs - e.center[0]
        dy = ys - e.center[1]
        q = (a * dx * dx)[None, :] + (c * dy * dy)[:, None] + 2.0 * b * np.outer(dy, dx)
        return q <= 1.0

    in1 = inside(e1)
    in2 = inside(e2)
    rows = (in1.sum(axis=1), in2.sum(axis=1), (in1 & in2).sum(axis=1))
    inter = int(np.count_nonzero(in1 & in2))
    union = int(np.count_nonzero(in1)) + int(np.count_nonzero(in2)) - inter
    if union == 0:
        err = 0.0 if np.array_equal(e1.center, e2.center) else 1.0
    else:
        err = min(1.0, max(0.0, 1.0 - inter / union))
    return rows, err


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
        radius = outer.half_extents()[0]
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
            h = SecondMomentEllipse((0.0, 0.0), shape).half_extents()[1]
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
        n, both = overlap_row_counts(e1, e2, step)
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
