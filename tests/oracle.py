"""Frozen scalar references for the array kernels of repbench.geometry,
repbench.metrics and repbench.synth: the per-region and per-pair code as it
was written before the pipeline moved to arrays of rows, the one-draw
SplitMix64 generator that synth's block kernels must reproduce, and the
blocked N x M distances whose bits the matchers' and the centre search's
sparse distances must have.  Nothing
here calls SecondMomentEllipse's semiaxes() or half_extents(), which are
K = 1 calls of the kernels under test."""

import math
from collections import Counter

import numpy as np

from repbench import geometry
from repbench.errors import DegenerateRegion, PointAtInfinity
from repbench.geometry import SecondMomentEllipse
from repbench.metrics import common_part_filter

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The 64-bit SplitMix generator, one draw per call; its recurrence is
    in repbench.synth's module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform in the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def normal(self):
        """Standard normal via Box-Muller; always consumes two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def pairwise_distances(a, b):
    """(N, M) Euclidean distances between the rows of a (N, D) and b (M, D).

    Entry (i, j) is sqrt(((a[i] - b[j]) * (a[i] - b[j])).sum()), summed over
    the same contiguous D values as the broadcast a[:, None] - b[None], so
    every distance has the same bits as that expression.  The differences
    are held a block of rows at a time, about
    geometry.PAIRWISE_BLOCK_ELEMENTS values (at least one row), never all
    N*M*D at once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, dim = a.shape
    m = len(b)
    out = np.empty((n, m))
    rows = max(1, geometry.PAIRWISE_BLOCK_ELEMENTS // max(1, m * dim))
    buf = np.empty((min(rows, n), m, dim))
    for i0 in range(0, n, rows):
        block = buf[: min(rows, n - i0)]
        np.subtract(a[i0 : i0 + rows, None, :], b[None], out=block)
        # far-apart points overflow to an infinite distance, as intended
        with np.errstate(over="ignore"):
            np.multiply(block, block, out=block)
        block.sum(axis=2, out=out[i0 : i0 + rows])
    return np.sqrt(out, out=out)


def semiaxes(e):
    """(major, minor) semiaxis lengths of region e, in Python floats.

    Raises DegenerateRegion for a needle, whose smaller eigenvalue rounds
    to zero or below.
    """
    (a, b), (_, c) = e.shape.tolist()
    half_spread = math.hypot(0.5 * (a - c), b)
    lo = 0.5 * (a + c) - half_spread
    hi = 0.5 * (a + c) + half_spread
    if lo <= 0.0:
        raise DegenerateRegion(
            f"smaller eigenvalue rounds to {lo:g} (a={a:g}, b={b:g}, c={c:g})"
        )
    return 1.0 / math.sqrt(lo), 1.0 / math.sqrt(hi)


def half_extents(e):
    """Half-widths of the axis-aligned bounding box of region e."""
    (a, b), (_, c) = e.shape.tolist()
    det = a * c - b * b
    return math.sqrt(c / det), math.sqrt(a / det)


def normalize_pair(ref, test, target_radius):
    """Both shape matrices rescaled by the one factor that gives the
    reference region the area of a circle of radius `target_radius`."""
    if target_radius <= 0:
        raise ValueError("target_radius must be positive")
    (a, b), (_, c) = ref.shape.tolist()
    # area(s^2 * mu_ref) = pi * target_radius^2  =>  s^2 = 1 / (r^2 sqrt(det))
    s2 = 1.0 / (target_radius * target_radius * math.sqrt(a * c - b * b))
    return (SecondMomentEllipse(ref.center, ref.shape * s2),
            SecondMomentEllipse(test.center, test.shape * s2))


def default_grid_step(e1, e2):
    """Default overlap sampling pitch: min(0.1 px, smallest minor semiaxis / 100)."""
    minor = min(semiaxes(e1)[1], semiaxes(e2)[1])
    return min(0.1, minor / 100.0)


def joint_box(e1, e2):
    """(xmin, ymin, width, height) of the joint bounding box of regions e1
    and e2."""
    w1, h1 = half_extents(e1)
    w2, h2 = half_extents(e2)
    (x1, y1), (x2, y2) = e1.center.tolist(), e2.center.tolist()
    xmin = min(x1 - w1, x2 - w2)
    ymin = min(y1 - h1, y2 - h2)
    return xmin, ymin, max(x1 + w1, x2 + w2) - xmin, max(y1 + h1, y2 + h2) - ymin


def grid(e1, e2, grid_step):
    """The overlap grid of a pair: (xmin, ymin, step, nx, ny).

    It covers the joint bounding box; the pitch is clamped to the smaller
    minor semiaxis, then coarsened until nx * ny is at most
    geometry.MAX_OVERLAP_SAMPLES.  A grid with more cells than a float
    holds raises OverflowError.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    xmin, ymin, width, height = joint_box(e1, e2)
    step = min(grid_step, semiaxes(e1)[1], semiaxes(e2)[1])
    nx = math.ceil(width / step)
    ny = math.ceil(height / step)
    while nx * ny > geometry.MAX_OVERLAP_SAMPLES:
        step *= math.sqrt(nx * ny / geometry.MAX_OVERLAP_SAMPLES) * 1.0001
        nx = math.ceil(width / step)
        ny = math.ceil(height / step)
    return xmin, ymin, step, nx, ny


def _error(inter, union, e1, e2):
    if union == 0:
        return 0.0 if np.array_equal(e1.center, e2.center) else 1.0
    return min(1.0, max(0.0, 1.0 - inter / union))


def dense_row_counts(e1, e2, grid_step):
    """Per-row (in e1, in e2, in both) counts and the overlap error, by
    testing every cell center of the grid."""
    xmin, ymin, step, nx, ny = grid(e1, e2, grid_step)
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
    return rows, _error(inter, union, e1, e2)


def oracle_overlap_error(e1, e2, grid_step):
    """overlap_error with the per-pair row kernel it had before batching."""
    xmin, ymin, step, _, ny = grid(e1, e2, grid_step)
    per_ellipse = []
    for e in (e1, e2):
        (cx, cy), ((a, b), (_, c)) = e.center.tolist(), e.shape.tolist()
        a_step = a * step
        per_ellipse.append(
            [cx, -cy, a, c, 2.0 * b, b / a_step, 1.0 / (a_step * step),
             (a * c - b * b) / (a_step * a_step), (cx - xmin) / step]
        )
    slots = np.array(
        [
            p[:-1] + [p[-1] - half_cell, s, half_cell]
            for s, half_cell in ((-1.0, 0.5), (1.0, -0.5))
            for p in per_ellipse
        ]
    )
    cx, _, a, c, b2, b_col, a0, d0, x0, s, half_cell = (
        slots.T.repeat(ny, axis=1).reshape(-1, 4, ny)
    )
    dy = np.add.outer(slots[:, 1], ymin + np.arange(0.5, ny) * step)
    disc = np.maximum(a0 - d0 * (dy * dy), 0.0)
    m = np.rint(x0 - b_col * dy + s * np.sqrt(disc))
    dx = (xmin + (m + half_cell) * step) - cx
    q = (a * dx * dx) + (c * dy * dy) + b2 * (dy * dx)
    lo, end = (m - s * (q > 1.0)).reshape(2, 2, ny)
    n = np.maximum(end - lo, 0)
    both = np.maximum(np.minimum(end[0], end[1]) - np.maximum(lo[0], lo[1]), 0)
    inter = int(both.sum())
    return _error(inter, int(n.sum()) - inter, e1, e2)


def oracle_project_point(h, p):
    """The one-point projection as it was written before project_points
    took its place: one point, numpy scalars; its infinity test is scaled
    by max|m|, as geometry._homogeneous's is."""
    x, y = float(p[0]), float(p[1])
    m = h.m
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) < geometry.PROJECTIVE_EPS * np.abs(m).max():
        raise PointAtInfinity(f"point ({x:g}, {y:g}) maps to infinity")
    u = m[0, 0] * x + m[0, 1] * y + m[0, 2]
    v = m[1, 0] * x + m[1, 1] * y + m[1, 2]
    return np.array([u / w, v / w])


def oracle_homography_jacobian(h, p):
    """The one-point Jacobian as it was written before homography_jacobians
    took its place, with the infinity test scaled by max|m|."""
    x, y = float(p[0]), float(p[1])
    m = h.m
    u = m[0, 0] * x + m[0, 1] * y + m[0, 2]
    v = m[1, 0] * x + m[1, 1] * y + m[1, 2]
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) < geometry.PROJECTIVE_EPS * np.abs(m).max():
        raise PointAtInfinity(f"point ({x:g}, {y:g}) maps to infinity")
    with np.errstate(all="ignore"):
        w2 = w * w
        return np.array(
            [
                [(m[0, 0] * w - u * m[2, 0]) / w2, (m[0, 1] * w - u * m[2, 1]) / w2],
                [(m[1, 0] * w - v * m[2, 0]) / w2, (m[1, 1] * w - v * m[2, 1]) / w2],
            ]
        )


def oracle_map_region_to_reference(h, ref_center, test_region):
    a = oracle_homography_jacobian(h, ref_center)
    # an overflow leaves a non-finite shape, which SecondMomentEllipse rejects
    with np.errstate(over="ignore", invalid="ignore"):
        shape = a.T @ test_region.shape @ a
    center = oracle_project_point(h.inverse(), test_region.center)
    return SecondMomentEllipse(center, 0.5 * (shape + shape.T))


def oracle_region_overlap_error(ref_region, test_region, h, cfg):
    mapped = oracle_map_region_to_reference(h, ref_region.center, test_region)
    a, b = ref_region, mapped
    if cfg.normalize_radius is not None:
        a, b = normalize_pair(a, b, cfg.normalize_radius)
    step = cfg.grid_step if cfg.grid_step is not None else default_grid_step(a, b)
    return oracle_overlap_error(a, b, step)


# SecondMomentEllipse's reason for a center or shape that is not finite
NOT_FINITE = "ellipse center and shape must be finite"


def oracle_close_pairs(ref, test, h, cfg):
    """(ref_idx, test_idx, pairs): the common part, and the (ref index,
    test index, center distance) of every common-part pair closer than
    cfg.epsilon_px, in row-major order, from the dense distance matrix."""
    ref_idx, test_idx = common_part_filter(ref, test, h)[:2]
    proj = np.array([oracle_project_point(h, p) for p in ref.centers[ref_idx]]).reshape(-1, 2)
    d = pairwise_distances(proj, test.centers[test_idx])
    cand_i, cand_j = np.nonzero(d < cfg.epsilon_px)
    pairs = [(int(ref_idx[i]), int(test_idx[j]), float(d[i, j]))
             for i, j in zip(cand_i.tolist(), cand_j.tolist())]
    return ref_idx, test_idx, pairs


def oracle_lone(ref, test, h, cfg):
    """The (ref index, test index) of the pairs closer than cfg.epsilon_px
    that share neither their reference nor their test keypoint with
    another such pair."""
    pairs = oracle_close_pairs(ref, test, h, cfg)[2]
    rows = Counter(ri for ri, _, _ in pairs)
    cols = Counter(tj for _, tj, _ in pairs)
    return {(ri, tj) for ri, tj, _ in pairs if rows[ri] == cols[tj] == 1}


def oracle_candidate_table(ref, test, h, cfg):
    """(ref_idx, test_idx, table, dropped): the candidate table that
    metrics.candidate_tables gives the one pair (test, h), with the grid
    estimate of every entry's overlap error, and the number of candidates
    left out as DegenerateRegion or PointAtInfinity, or because their
    transported or rescaled region is not finite."""
    ref_idx, test_idx, pairs = oracle_close_pairs(ref, test, h, cfg)
    table = {}
    dropped = 0
    for ri, tj, dist in pairs:
        try:
            ref_region = SecondMomentEllipse.from_abc(*ref.centers[ri], *ref.abc[ri])
            test_region = SecondMomentEllipse.from_abc(*test.centers[tj], *test.abc[tj])
            err = oracle_region_overlap_error(ref_region, test_region, h, cfg)
        except (DegenerateRegion, PointAtInfinity):
            dropped += 1
            continue
        except ValueError as exc:
            if str(exc) != NOT_FINITE:
                raise
            dropped += 1
            continue
        if err < cfg.max_overlap_error:
            table[ri, tj] = (err, dist)
    return ref_idx, test_idx, table, dropped


def oracle_resolve(table):
    """The set-based greedy that metrics._resolve was before it ran on
    matching._greedy.  table maps (ref_index, test_index) to (overlap_err,
    center_distance); the entries are taken in ascending (err, dist, ref
    index, test index) order while both indices are free.  Returns the
    (ref_index, test_index, center_distance, overlap_err) taken, sorted by
    index pair."""
    used_ref = set()
    used_test = set()
    matched = []
    for err, dist, ri, tj in sorted((e, d, ri, tj) for (ri, tj), (e, d) in table.items()):
        if ri in used_ref or tj in used_test:
            continue
        used_ref.add(ri)
        used_test.add(tj)
        matched.append((ri, tj, dist, err))
    matched.sort()
    return matched
