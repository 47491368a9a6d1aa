"""Differential test of the batched candidate scorer and the spatial hash.

`oracle_candidate_table` is candidate_table as it was written before the
centre search was hashed and the candidates were scored in one pass: the
dense N x M centre-distance matrix, then one `oracle_region_overlap_error`
call per pair within epsilon, built from frozen copies of the scalar
projection and Jacobian (`oracle_project_point`,
`oracle_homography_jacobian`), the per-pair transport
(`oracle_map_region_to_reference`) and row kernel (`oracle_overlap_error`)
and from geometry's per-region helpers.  It is
kept here as the reference: `metrics.candidate_table` must give the same
keys in the same order and the same bits of every overlap error and
centre distance, and raise the same error where the reference raises.
An overlap error moves only when a grid cell changes sides, so the
transported regions and the minor semiaxes, which set the grid, are
compared bit for bit on their own.  No tolerance is applied.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repbench import geometry, harness, metrics, synth
from repbench.errors import DegenerateRegion, PointAtInfinity
from repbench.formats import KeypointSet
from repbench.geometry import (
    Homography,
    SecondMomentEllipse,
    close_pairs,
    default_grid_step,
    homography_jacobians,
    map_regions_to_reference,
    minor_semiaxes,
    normalize_pair,
    pairwise_distances,
    project_points,
)
from repbench.metrics import EvalConfig, candidate_table, common_part_filter, region_overlap_error


def oracle_overlap_error(e1, e2, grid_step):
    """overlap_error with the per-pair row kernel it had before batching."""
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    w1, h1 = e1.half_extents()
    w2, h2 = e2.half_extents()
    (x1, y1), (x2, y2) = e1.center.tolist(), e2.center.tolist()
    xmin = min(x1 - w1, x2 - w2)
    xmax = max(x1 + w1, x2 + w2)
    ymin = min(y1 - h1, y2 - h2)
    ymax = max(y1 + h1, y2 + h2)
    minor = min(e1.semiaxes()[1], e2.semiaxes()[1])
    step = min(grid_step, minor)
    nx = math.ceil((xmax - xmin) / step)
    ny = math.ceil((ymax - ymin) / step)
    while nx * ny > geometry.MAX_OVERLAP_SAMPLES:
        step *= math.sqrt(nx * ny / geometry.MAX_OVERLAP_SAMPLES) * 1.0001
        nx = math.ceil((xmax - xmin) / step)
        ny = math.ceil((ymax - ymin) / step)
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
    union = int(n.sum()) - inter
    if union == 0:
        return 0.0 if np.array_equal(e1.center, e2.center) else 1.0
    return min(1.0, max(0.0, 1.0 - inter / union))


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


def oracle_candidate_table(ref, test, h, cfg):
    """(ref_idx, test_idx, table, dropped): candidate_table's result and the
    number of candidates left out as DegenerateRegion or PointAtInfinity."""
    ref_idx, test_idx = common_part_filter(ref, test, h)
    proj = np.array([oracle_project_point(h, p) for p in ref.centers[ref_idx]]).reshape(-1, 2)
    d = pairwise_distances(proj, test.centers[test_idx])
    table = {}
    dropped = 0
    cand_i, cand_j = np.nonzero(d < cfg.epsilon_px)
    for i, j in zip(cand_i.tolist(), cand_j.tolist()):
        ri = int(ref_idx[i])
        tj = int(test_idx[j])
        try:
            err = oracle_region_overlap_error(ref.region(ri), test.region(tj), h, cfg)
        except (DegenerateRegion, PointAtInfinity):
            dropped += 1
            continue
        if err < cfg.max_overlap_error:
            table[ri, tj] = (err, float(d[i, j]))
    return ref_idx, test_idx, table, dropped


def hexed(table):
    return [(key, err.hex(), dist.hex()) for key, (err, dist) in table.items()]


def assert_same_table(ref, test, h, cfg):
    """The table and the reference's agree bit for bit, or both raise the
    same error.  Returns the reference's drop count (None if it raised)."""
    try:
        want_ref, want_test, want, dropped = oracle_candidate_table(ref, test, h, cfg)
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)):
            candidate_table(ref, test, h, cfg)
        return None
    got_ref, got_test, got = candidate_table(ref, test, h, cfg)
    assert np.array_equal(got_ref, want_ref) and np.array_equal(got_test, want_test)
    assert hexed(got) == hexed(want)
    assert all(type(k) is int for key in got for k in key)
    return dropped


def ramp_homography(k, width=800, height=640):
    """A similarity followed by a projective tilt that grows with k."""
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-4 * k, 0.5e-4 * k, 1.0]])
    return Homography(tilt) @ harness.default_sequence_homography(k, width, height)


# the generator settings of the benchmark's two workloads
WORKLOADS = {
    "descriptor-m400": dict(n_points=400, jitter=(6.0,) * 5, dim=128, homography=lambda k:
                            harness.default_sequence_homography(k, 800, 640)),
    "ramp-projective": dict(n_points=80, jitter=(0.25, 0.9375, 1.625, 2.3125, 3.0), dim=16,
                            homography=ramp_homography),
}


def workload_pairs(name, seed):
    w = WORKLOADS[name]
    cfg = synth.SynthConfig(seed=seed, n_points=w["n_points"], dropout_rate=0.1,
                            descriptor_dim=w["dim"], descriptor_noise_sigma=0.05)
    ref = synth.generate_reference(cfg)
    for k in range(1, 6):
        h = w["homography"](k)
        step_cfg = replace(cfg, seed=seed + k, jitter_sigma=w["jitter"][k - 1])
        yield ref, synth.derive_test(ref, h, step_cfg), h


CONFIGS = {
    "default": EvalConfig(),
    "raw-grid-0.5": EvalConfig(normalize_radius=None, grid_step=0.5),
    "eps-4-err-0.9": EvalConfig(epsilon_px=4.0, max_overlap_error=0.9),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_tables(workload, config):
    entries = 0
    for seed in (7, 1009, 31):
        for ref, test, h in workload_pairs(workload, seed):
            assert assert_same_table(ref, test, h, CONFIGS[config]) == 0
            entries += len(candidate_table(ref, test, h, CONFIGS[config])[2])
    assert entries > 0


def keypoint_set(centers, abc, width=800, height=640):
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    abc = np.asarray(abc, dtype=float).reshape(-1, 3)
    return KeypointSet("img", width, height, centers, abc, np.empty((len(centers), 0)))


def circles(n, radius):
    return np.tile((1.0 / radius**2, 0.0, 1.0 / radius**2), (n, 1))


def vast(rng, n):
    """Circles of radius about 1e80 px, whose a * c is a subnormal number:
    positive definite as given, but the transport or the rescaling can
    round a * c - b * b to zero."""
    a = 10.0 ** rng.uniform(-161.5, -160.5, n)
    return np.c_[a, np.zeros(n), a][a * a > 0.0]


def strong_projective(rng):
    m = np.array([[1.0 + rng.normal(0, 0.2), rng.normal(0, 0.2), rng.normal(0, 20)],
                  [rng.normal(0, 0.2), 1.0 + rng.normal(0, 0.2), rng.normal(0, 20)],
                  [rng.normal(0, 1e-3), rng.normal(0, 1e-3), 1.0]])
    return Homography(m)


def test_projective_maps_drop_degenerate_regions():
    """Vast regions among ordinary ones under strongly projective maps: some
    candidates are left out as DegenerateRegion, in the table and in the
    reference alike."""
    rng = np.random.default_rng(4101)
    dropped = 0
    for k in range(30):
        h = strong_projective(rng)
        cfg = [EvalConfig(), EvalConfig(normalize_radius=None, grid_step=0.5)][k % 2]
        ref_centers = rng.uniform(50, 750, (40, 2))
        proj, ok = project_points(h, ref_centers)
        test_centers = proj[ok] + rng.normal(0, 0.5, (int(ok.sum()), 2))
        abc = circles(len(test_centers), 3.0)
        huge = vast(rng, len(test_centers) // 2)
        abc[: len(huge)] = huge
        ref = keypoint_set(ref_centers, circles(len(ref_centers), 3.0))
        test = keypoint_set(test_centers, abc)
        dropped += assert_same_table(ref, test, h, cfg)
    assert dropped > 0


def test_elongated_regions_dropped_as_the_reference(monkeypatch):
    """Regions with axis ratios near 1e8, whose smaller eigenvalue rounds to
    zero or below in semiaxes: the reference drops them as DegenerateRegion,
    and so must the table.  A low sample cap keeps the grids of the needles
    that do get scored small."""
    monkeypatch.setattr(geometry, "MAX_OVERLAP_SAMPLES", 20_000)
    rng = np.random.default_rng(4102)
    dropped = 0
    for k in range(20):
        n = 12
        centers = rng.uniform(100, 700, (n, 2))
        a = 10.0 ** rng.uniform(6, 9, n)
        c = 1.0 / a
        b = rng.choice([0.0, 0.5, -0.5, 0.9], n)
        abc = np.c_[a, b, c]
        abc = abc[a * c - b * b > 0.0]
        ref = keypoint_set(centers[: len(abc)], circles(len(abc), 3.0))
        test = keypoint_set(centers[: len(abc)], abc)
        cfg = [EvalConfig(), EvalConfig(normalize_radius=None, grid_step=0.5)][k % 2]
        dropped += assert_same_table(ref, test, Homography.identity(), cfg)
    assert dropped > 0


def test_needle_is_degenerate_in_the_one_pair_functions():
    needle = SecondMomentEllipse.from_abc(100.0, 100.0, 1e9, 0.5, 1e-9)
    circle = SecondMomentEllipse.circle(100.0, 100.0, 3.0)
    assert np.isnan(minor_semiaxes(needle.abc[None])[0])
    for call in (needle.semiaxes, lambda: default_grid_step(circle, needle),
                 lambda: geometry.overlap_error(circle, needle, 0.5),
                 lambda: region_overlap_error(circle, needle, Homography.identity(), EvalConfig())):
        with pytest.raises(DegenerateRegion):
            call()


def test_non_finite_transported_region_raises():
    # the transport scales the shape by 4: 4e308 overflows
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    ref = keypoint_set([(50.0, 50.0)], circles(1, 3.0))
    test = keypoint_set([(100.0, 100.0)], [(1e308, 0.0, 1e308)])
    for cfg in (EvalConfig(), EvalConfig(normalize_radius=None, grid_step=0.5)):
        with pytest.raises(ValueError, match="finite"):
            oracle_candidate_table(ref, test, h, cfg)
        with pytest.raises(ValueError, match="finite"):
            candidate_table(ref, test, h, cfg)


def test_scored_candidates_match_one_by_one():
    """The scorer on hand-made candidate lists that the common part would
    never produce: reference centers on the horizon of h (PointAtInfinity
    in the Jacobian), test centers on the horizon of h^-1 (PointAtInfinity
    in the inverse projection), vast regions (DegenerateRegion once
    rescaled or transported) and plain ones, in one batch.  Each pair must
    score as region_overlap_error and the reference score it one at a
    time."""
    rng = np.random.default_rng(4103)
    kinds = {PointAtInfinity: 0, DegenerateRegion: 0, float: 0}
    for _ in range(40):
        h = strong_projective(rng)
        m, mi = h.m, h.inverse().m
        k = 24
        ref_centers = rng.uniform(0, 800, (k, 2))
        test_centers, _ = project_points(h, ref_centers)
        test_centers += rng.normal(0, 0.5, (k, 2))
        # on the lines w = 0 of h and of h^-1
        y = rng.uniform(0, 640, 4)
        ref_centers[:4] = np.c_[-(m[2, 1] * y + m[2, 2]) / m[2, 0], y]
        test_centers[4:8] = np.c_[-(mi[2, 1] * y + mi[2, 2]) / mi[2, 0], y]
        test_abc = circles(k, float(rng.uniform(2, 6)))
        huge = vast(rng, 8)
        test_abc[8 : 8 + len(huge)] = huge
        ref_abc = circles(k, float(rng.uniform(2, 6)))
        for cfg in CONFIGS.values():
            err, at_infinity = metrics._overlap_errors(
                ref_centers, ref_abc, test_centers, test_abc, h, cfg
            )
            for i in range(k):
                ref_region = SecondMomentEllipse.from_abc(*ref_centers[i], *ref_abc[i])
                test_region = SecondMomentEllipse.from_abc(*test_centers[i], *test_abc[i])
                try:
                    want = oracle_region_overlap_error(ref_region, test_region, h, cfg)
                except (DegenerateRegion, PointAtInfinity) as exc:
                    kinds[type(exc)] += 1
                    assert np.isnan(err[i])
                    assert at_infinity[i] == isinstance(exc, PointAtInfinity)
                    with pytest.raises(type(exc)):
                        region_overlap_error(ref_region, test_region, h, cfg)
                    continue
                kinds[float] += 1
                assert err[i].hex() == want.hex() and not at_infinity[i]
                assert region_overlap_error(ref_region, test_region, h, cfg).hex() == want.hex()
    assert all(kinds.values()), kinds


def test_transport_bits():
    """map_regions_to_reference gives the per-pair transport's centers and
    shapes bit for bit, and flags exactly the pairs it raises
    PointAtInfinity for."""
    rng = np.random.default_rng(4109)
    flagged = 0
    for _ in range(100):
        h = strong_projective(rng)
        k = 50
        ref_centers = rng.uniform(-100, 900, (k, 2))
        test_centers = rng.uniform(-100, 900, (k, 2))
        y = rng.uniform(0, 640, 2)
        ref_centers[:2] = np.c_[-(h.m[2, 1] * y + h.m[2, 2]) / h.m[2, 0], y]
        theta = rng.uniform(0, math.pi, k)
        major, minor = rng.uniform(1, 20, k), rng.uniform(0.5, 5, k)
        co, si = np.cos(theta), np.sin(theta)
        test_abc = np.c_[co**2 / major**2 + si**2 / minor**2,
                         co * si * (1 / major**2 - 1 / minor**2),
                         si**2 / major**2 + co**2 / minor**2]
        centers, abc, at_infinity = map_regions_to_reference(h, ref_centers, test_centers,
                                                             test_abc)
        for i in range(k):
            test_region = SecondMomentEllipse.from_abc(*test_centers[i], *test_abc[i])
            try:
                want = oracle_map_region_to_reference(h, ref_centers[i], test_region)
            except PointAtInfinity:
                flagged += 1
                assert at_infinity[i]
                continue
            assert not at_infinity[i]
            assert centers[i].tobytes() == want.center.tobytes()
            assert abc[i].tobytes() == want.abc.tobytes()
    assert flagged > 0


def test_projection_bits():
    """project_points, and homography_jacobians' projection and Jacobian,
    give the frozen scalar functions' bits on every row, and mask exactly
    the rows those raise PointAtInfinity for: strongly projective maps, and
    points on, within ulps of and near their horizon w = 0."""
    rng = np.random.default_rng(4111)
    flagged = near = 0
    for k in range(200):
        m = strong_projective(rng).m
        m[2, :2] *= 10.0 ** (k % 3)  # perspective terms of about 1e-3 to 1e-1
        h = Homography(m)
        pts = rng.uniform(-500, 1500, (60, 2))
        # |w| = |m[2, 0] dx| for an x offset dx from the horizon
        y = rng.uniform(-500, 1500, 30)
        dx = rng.choice([0.0, 1e-11, 1e-10, 1e-9, 1e-8, 1e-3, 1.0], 30) * rng.choice([-1, 1], 30)
        pts[:30] = np.c_[-(m[2, 1] * y + m[2, 2]) / m[2, 0] + dx, y]
        out, ok = project_points(h, pts)
        jac, projected, at_infinity = homography_jacobians(h, pts)
        for i, p in enumerate(pts):
            try:
                want = oracle_project_point(h, p)
            except PointAtInfinity:
                flagged += 1
                assert not ok[i] and at_infinity[i] and np.isnan(out[i]).all()
                continue
            near += i < 30
            assert ok[i] and not at_infinity[i]
            assert out[i].tobytes() == projected[i].tobytes() == want.tobytes()
            assert jac[i].tobytes() == oracle_homography_jacobian(h, p).tobytes()
    assert flagged > 0 and near > 0


def test_minor_semiaxes_bits():
    rng = np.random.default_rng(4110)
    theta = rng.uniform(0, math.pi, 50_000)
    major = 10.0 ** rng.uniform(-2, 3, len(theta))
    minor = major / 10.0 ** rng.uniform(0, 4, len(theta))
    co, si = np.cos(theta), np.sin(theta)
    abc = np.c_[co**2 / major**2 + si**2 / minor**2, co * si * (1 / major**2 - 1 / minor**2),
                si**2 / major**2 + co**2 / minor**2]
    abc = abc[abc[:, 0] * abc[:, 2] - abc[:, 1] ** 2 > 0.0]
    want = [SecondMomentEllipse.from_abc(0.0, 0.0, *row).semiaxes()[1] for row in abc.tolist()]
    assert minor_semiaxes(abc).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("rows", [1, 7])
def test_row_blocks(monkeypatch, rows):
    monkeypatch.setattr(geometry, "OVERLAP_BLOCK_ROWS", rows)
    for seed in (7, 1009):
        for ref, test, h in workload_pairs("ramp-projective", seed):
            assert_same_table(ref, test, h, EvalConfig(normalize_radius=None, grid_step=0.5))


def test_capped_grids(monkeypatch):
    """With the sample cap at 400 nearly every grid is coarsened."""
    monkeypatch.setattr(geometry, "MAX_OVERLAP_SAMPLES", 400)
    for config in CONFIGS.values():
        for ref, test, h in workload_pairs("ramp-projective", 7):
            assert_same_table(ref, test, h, config)


def test_empty_sets_and_no_candidates():
    rng = np.random.default_rng(4104)
    some = keypoint_set(rng.uniform(100, 700, (20, 2)), circles(20, 3.0))
    empty = keypoint_set(np.empty((0, 2)), np.empty((0, 3)))
    far = keypoint_set(rng.uniform(100, 700, (20, 2)) + [0.0, 1000.0], circles(20, 3.0),
                       height=2000)
    for ref, test in ((empty, some), (some, empty), (empty, empty), (some, far)):
        assert assert_same_table(ref, test, Homography.identity(), EvalConfig()) == 0
        assert candidate_table(ref, test, Homography.identity())[2] == {}


def assert_same_pairs(a, b, radius):
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    i, j, d = close_pairs(a, b, radius)
    dense = pairwise_distances(a, b)
    want_i, want_j = np.nonzero(dense < radius)
    assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
    assert d.tobytes() == dense[want_i, want_j].tobytes()
    return len(i)


def hash_cell(a, radius):
    """close_pairs' cell width for the points a."""
    return max(radius * (1.0 + 2.0**-20) + float(np.abs(a).max()) * 2.0**-40,
               float(np.ptp(a, axis=0).max()) * 2.0**-26)


def test_hash_at_epsilon_across_cell_edges():
    """Pairs at distance radius - 1 ulp, radius and radius + 1 ulp, along each
    axis and diagonally, with the reference point just either side of a cell
    edge; only pairs below radius are found, exactly as the dense matrix
    finds them."""
    rng = np.random.default_rng(4105)
    found = 0
    for radius in (1.5, 4.0, 0.3, 1e-3):
        anchors = rng.uniform(-50, 850, (40, 2))
        cell = hash_cell(anchors, radius)
        edges = np.floor(anchors / cell) * cell
        for side in (-1.0, 1.0):
            a = edges + side * rng.uniform(0, 4, (40, 2)) * np.spacing(edges + cell)
            b = []
            for p in a:
                for direction in ((1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8), (-0.8, 0.6)):
                    q = p + radius * np.array(direction)
                    for ulps in (-1, 0, 1):
                        x = q.copy()
                        for _ in range(abs(ulps)):
                            x = np.nextafter(x, x + np.sign(np.array(direction)) * ulps)
                        b.append(x)
            found += assert_same_pairs(a, b, radius)
    assert found > 0


def test_hash_negative_and_out_of_image_centres():
    rng = np.random.default_rng(4106)
    for k in range(50):
        a = rng.uniform(-2000, 3000, (int(rng.integers(0, 60)), 2))
        b = np.r_[a[: len(a) // 2] + rng.normal(0, 1.0, (len(a) // 2, 2)),
                  rng.uniform(-2000, 3000, (int(rng.integers(0, 60)), 2)),
                  [[1e12, -1e12], [-1e300, 5.0]]]
        assert_same_pairs(a, b, float(rng.choice([0.5, 1.5, 4.0, 100.0])))


def test_hash_all_in_one_cell():
    rng = np.random.default_rng(4107)
    a = 400 + rng.uniform(0, 0.5, (50, 2))
    b = 400 + rng.uniform(0, 0.5, (60, 2))
    assert assert_same_pairs(a, b, 1.5) == 50 * 60
    # one wide cell covers every point, close or not
    a, b = rng.uniform(0, 800, (50, 2)), rng.uniform(0, 800, (60, 2))
    assert_same_pairs(a, b, 1e6)
    assert_same_pairs(a, b, 300.0)


def test_hash_empty_sides():
    some = np.random.default_rng(4108).uniform(0, 10, (5, 2))
    for a, b in ((np.empty((0, 2)), some), (some, np.empty((0, 2))), (np.empty((0, 2)),) * 2):
        assert assert_same_pairs(a, b, 1.5) == 0
    assert assert_same_pairs(some, some + 100.0, 1.5) == 0
