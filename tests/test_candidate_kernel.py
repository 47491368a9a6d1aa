"""Differential test of the batched candidate scorer and the spatial hash.

`oracle.oracle_candidate_table` is the candidate table as it was written before
the centre search was hashed and the candidates were scored in one pass:
the dense N x M centre-distance matrix, then one
`oracle_region_overlap_error` call per pair within epsilon, built from the
frozen scalar projection, Jacobian, transport, rescaling, pitch, grid and
row kernel of tests/oracle.py.  `metrics.candidate_tables` must give the
same keys in the same order and the same bits of every centre distance, and
raise the same error where the reference raises.  Every overlap error has
the reference's bits, but that of a lone entry (alone in its row and its
column among the pairs within epsilon) that the bound interval settled: it
is an upper bound of the reference's, below max_overlap_error.  With no
entry settled, every overlap error has the reference's bits too, and
`metrics._resolve` takes the reference greedy's entries.  An overlap error
moves only when a grid cell changes sides, so the projected points, the
transported regions, and the semiaxes and bounding boxes that set the grid
are compared bit for bit on their own.  No tolerance is applied.
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
    half_extents,
    homography_jacobians,
    project_points,
    semiaxes,
    transport_shapes,
)
from repbench.metrics import EvalConfig, candidate_tables, region_overlap_error

import oracle
from oracle import (
    oracle_candidate_table,
    oracle_homography_jacobian,
    oracle_lone,
    oracle_map_region_to_reference,
    oracle_project_point,
    oracle_region_overlap_error,
    oracle_resolve,
    pairwise_distances,
)


def one_table(ref, test, h, cfg=EvalConfig()):
    """The candidate table of the one pair (test, h)."""
    return candidate_tables(ref, [(test, h)], cfg)[0]


def hexed(table):
    """The entries of a candidate table's arrays (ri, tj, err, dist), in
    order, as ((ri, tj), err hex, dist hex)."""
    ri, tj, err, dist = (a.tolist() for a in table)
    return [((i, j), e.hex(), d.hex()) for i, j, e, d in zip(ri, tj, err, dist, strict=True)]


def gridded_table(ref, test, h, cfg):
    """one_table with no entry settled by its bound interval, so
    that every candidate is gridded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_error_bounds", lambda centers, abc, per_pair, ny:
                   (np.full(len(ny), np.nan),) * 2)
        return one_table(ref, test, h, cfg)


def settled_count(ref, test, h, cfg):
    """How many entries of one_table's table the interval settled."""
    return int(np.count_nonzero(one_table(ref, test, h, cfg)[2][2]
                                != gridded_table(ref, test, h, cfg)[2][2]))


def assert_same_table(ref, test, h, cfg):
    """The table and the reference's agree as the module docstring says, or
    both raise the same error.  Returns the reference's drop count (None
    if it raised)."""
    try:
        want_ref, want_test, want, dropped = oracle_candidate_table(ref, test, h, cfg)
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)):
            one_table(ref, test, h, cfg)
        return None
    got_ref, got_test, got = one_table(ref, test, h, cfg)
    assert np.array_equal(got_ref, want_ref) and np.array_equal(got_test, want_test)
    want_hexed = [(key, err.hex(), dist.hex()) for key, (err, dist) in want.items()]
    assert hexed(gridded_table(ref, test, h, cfg)[2]) == want_hexed
    lone = oracle_lone(ref, test, h, cfg)
    for (key, err, dist), (want_key, want_err, want_dist) in zip(hexed(got), want_hexed,
                                                                  strict=True):
        assert key == want_key and dist == want_dist
        if err != want_err:
            assert key in lone
            assert float.fromhex(want_err) <= float.fromhex(err) < cfg.max_overlap_error
    taken = metrics._resolve(got, len(ref), len(test))
    assert sorted(zip(got[0][taken].tolist(), got[1][taken].tolist())) == [
        (ri, tj) for ri, tj, _, _ in oracle_resolve(want)]
    assert got[0].dtype == got[1].dtype == np.intp
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
    entries = settled = 0
    for seed in (7, 1009, 31):
        for ref, test, h in workload_pairs(workload, seed):
            assert assert_same_table(ref, test, h, CONFIGS[config]) == 0
            entries += len(one_table(ref, test, h, CONFIGS[config])[2][0])
            settled += settled_count(ref, test, h, CONFIGS[config])
    assert entries > 0
    # at radius 30 and the default pitch most entries are settled; the
    # coarse grids of unscaled regions at pitch 0.5 leave the bound too wide
    assert (settled > entries // 2) == (config != "raw-grid-0.5")


def crowded_pairs(seed):
    """ramp-projective's pairs at 200 points and jitter 2, with every third
    test keypoint and every fifth reference keypoint repeated exactly, so
    that many entries within 4 px share a row or a column and tie on
    (error, distance)."""
    cfg = synth.SynthConfig(seed=seed, n_points=200, jitter_sigma=2.0, dropout_rate=0.1,
                            descriptor_dim=0)
    ref = synth.generate_reference(cfg)
    ref = keypoint_set(np.r_[ref.centers, ref.centers[::5]], np.r_[ref.abc, ref.abc[::5]])
    for k in range(1, 6):
        h = ramp_homography(k)
        test = synth.derive_test(ref, h, replace(cfg, seed=seed + k))
        yield ref, keypoint_set(np.r_[test.centers, test.centers[::3]],
                                np.r_[test.abc, test.abc[::3]]), h


@pytest.mark.parametrize("config", ["eps-4-err-0.4", "eps-4-err-0.9"])
def test_crowded_tables(config):
    """Contested entries are still decided exactly: on crowded, tie-rich
    pairs the table and the greedy agree with the reference as
    assert_same_table checks, and both lone and contested entries occur."""
    cfg = EvalConfig(epsilon_px=4.0, max_overlap_error=float(config.rsplit("-", 1)[1]))
    lone = contested = settled = 0
    for seed in (7, 1009):
        for ref, test, h in crowded_pairs(seed):
            assert assert_same_table(ref, test, h, cfg) == 0
            keys = set(zip(*(a.tolist() for a in one_table(ref, test, h, cfg)[2][:2])))
            alone = oracle_lone(ref, test, h, cfg)
            lone += len(keys & alone)
            contested += len(keys - alone)
            settled += settled_count(ref, test, h, cfg)
    assert lone > 0 and contested > 100 and settled > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_default_pitch_on_the_seed_7_tables(workload):
    """overlap_errors at the default pitch (grid_step None) gives the bits
    of an explicit call at oracle.default_grid_step on every pair within
    epsilon of the seed-7 workload, transported and rescaled to radius 30
    by the oracle."""
    pairs = []
    for ref, test, h in workload_pairs(workload, 7):
        ref_idx, test_idx = metrics.common_part_filter(ref, test, h)[:2]
        proj, _ = project_points(h, ref.centers[ref_idx])
        i, j, _ = close_pairs(proj, test.centers[test_idx], EvalConfig().epsilon_px)
        for ri, tj in zip(ref_idx[i].tolist(), test_idx[j].tolist()):
            ref_region = SecondMomentEllipse.from_abc(*ref.centers[ri], *ref.abc[ri])
            test_region = SecondMomentEllipse.from_abc(*test.centers[tj], *test.abc[tj])
            mapped = oracle_map_region_to_reference(h, ref_region.center, test_region)
            pairs.append(oracle.normalize_pair(ref_region, mapped, 30.0))
    regions = [np.array([getattr(e, field) for e in side])
               for side in zip(*pairs) for field in ("center", "abc")]
    steps = np.array([oracle.default_grid_step(e1, e2) for e1, e2 in pairs])
    got = geometry.overlap_errors(*regions)
    assert len(got) > 0 and got.tobytes() == geometry.overlap_errors(*regions, steps).tobytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_centre_is_mapped_once(monkeypatch, workload):
    """candidate_tables sends each centre of a pair through the projection
    formula once: len(ref) + len(test) rows reach geometry._homogeneous."""
    rows = []
    homogeneous = geometry._homogeneous

    def counted(m, points):
        rows.append(len(points))
        return homogeneous(m, points)

    monkeypatch.setattr(geometry, "_homogeneous", counted)
    for ref, test, h in workload_pairs(workload, 7):
        rows.clear()
        one_table(ref, test, h)
        points = len(ref) + len(test)
        assert sum(rows) == points


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
    assert np.isnan(semiaxes(needle.abc[None])).all()
    for call in (needle.semiaxes, lambda: oracle.semiaxes(needle),
                 lambda: geometry.overlap_error(circle, needle, 0.5),
                 lambda: region_overlap_error(circle, needle, Homography.identity(), EvalConfig())):
        with pytest.raises(DegenerateRegion):
            call()


def test_overflowing_transport_is_not_scored():
    """A valid test region whose transport overflows (the map scales its
    shape by 4, and 4e308 is not finite) is not scored: the candidate is
    left out of the table, as the reference drops it, and is not repeated."""
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    ref = keypoint_set([(50.0, 50.0)], circles(1, 3.0))
    test = keypoint_set([(100.0, 100.0)], [(1e308, 0.0, 1e308)])
    ref_region = SecondMomentEllipse.from_abc(*ref.centers[0], *ref.abc[0])
    test_region = SecondMomentEllipse.from_abc(*test.centers[0], *test.abc[0])
    for cfg in (EvalConfig(), EvalConfig(normalize_radius=None, grid_step=0.5)):
        assert assert_same_table(ref, test, h, cfg) == 1
        assert all(len(a) == 0 for a in one_table(ref, test, h, cfg)[2])
        assert metrics.evaluate_pair(ref, test, h, cfg).n_rep == 0
        with pytest.raises(DegenerateRegion):
            region_overlap_error(ref_region, test_region, h, cfg)


def test_scored_candidates_match_one_by_one():
    """The scorer on hand-made candidate lists that the common part would
    never produce: reference centers on the horizon of h (PointAtInfinity
    in the Jacobian), test centers on the horizon of h^-1 (PointAtInfinity
    in the inverse projection), vast regions (DegenerateRegion once
    rescaled or transported), regions of 1e-154 px a pixel off the horizon
    of h, where the Jacobian's scale overflows their transport (the
    reference's SecondMomentEllipse raises ValueError, the batch scores NaN
    and region_overlap_error raises DegenerateRegion), and plain ones, in
    one batch.  The rows whose centers map to finite points are scored
    together, and each must score as region_overlap_error and the
    reference score it one at a time; for the others both raise
    PointAtInfinity."""
    rng = np.random.default_rng(4103)
    kinds = {PointAtInfinity: 0, DegenerateRegion: 0, ValueError: 0, float: 0}
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
        # a pixel off the horizon the Jacobian scales by about 1e6 or more
        ref_centers[16:20] = np.c_[-(m[2, 1] * y + m[2, 2]) / m[2, 0] + 1.0, y]
        test_centers[16:20], _ = project_points(h, ref_centers[16:20])
        test_abc[16:20] = (1e308, 0.0, 1e308)
        ref_abc = circles(k, float(rng.uniform(2, 6)))
        jac, _, at_infinity = homography_jacobians(h, ref_centers)
        back, in_view = project_points(h.inverse(), test_centers)
        mapped = np.flatnonzero(~at_infinity & in_view)
        for cfg in CONFIGS.values():
            scores = metrics._overlap_errors(ref_centers[mapped], ref_abc[mapped], back[mapped],
                                             transport_shapes(jac[mapped], test_abc[mapped]), cfg)
            err = dict(zip(mapped.tolist(), scores.tolist()))
            for i in range(k):
                ref_region = SecondMomentEllipse.from_abc(*ref_centers[i], *ref_abc[i])
                test_region = SecondMomentEllipse.from_abc(*test_centers[i], *test_abc[i])
                try:
                    want = oracle_region_overlap_error(ref_region, test_region, h, cfg)
                except (DegenerateRegion, PointAtInfinity, ValueError) as exc:
                    if isinstance(exc, ValueError) and str(exc) != oracle.NOT_FINITE:
                        raise
                    kinds[type(exc)] += 1
                    assert (i in err) != isinstance(exc, PointAtInfinity)
                    assert i not in err or math.isnan(err[i])
                    with pytest.raises(DegenerateRegion if i in err else PointAtInfinity):
                        region_overlap_error(ref_region, test_region, h, cfg)
                    continue
                kinds[float] += 1
                assert err[i].hex() == want.hex()
                assert region_overlap_error(ref_region, test_region, h, cfg).hex() == want.hex()
    assert all(kinds.values()), kinds


def test_transport_bits():
    """The test regions carried into the reference frame as candidate_tables
    carries them (the centers through h^-1 by project_points, the shapes by
    transport_shapes with the Jacobians of homography_jacobians) have the
    per-pair transport's centers and shapes bit for bit, and exactly the
    pairs it raises PointAtInfinity for are masked."""
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
        jac, _, at_infinity = homography_jacobians(h, ref_centers)
        centers, in_view = project_points(h.inverse(), test_centers)
        abc = transport_shapes(jac, test_abc)
        for i in range(k):
            test_region = SecondMomentEllipse.from_abc(*test_centers[i], *test_abc[i])
            try:
                want = oracle_map_region_to_reference(h, ref_centers[i], test_region)
            except PointAtInfinity:
                flagged += 1
                assert at_infinity[i] or not in_view[i]
                continue
            assert not at_infinity[i] and in_view[i]
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


def test_semiaxes_and_half_extents_bits():
    """semiaxes and half_extents, and the methods that are K = 1 calls of
    them, give the frozen scalar formulas' bits on every row; needles, with
    axis ratios near 1e8, are NaN where the scalar semiaxes raises."""
    rng = np.random.default_rng(4110)
    theta = rng.uniform(0, math.pi, 50_000)
    major = 10.0 ** rng.uniform(-2, 3, len(theta))
    minor = major / 10.0 ** rng.uniform(0, 4, len(theta))
    co, si = np.cos(theta), np.sin(theta)
    abc = np.c_[co**2 / major**2 + si**2 / minor**2, co * si * (1 / major**2 - 1 / minor**2),
                si**2 / major**2 + co**2 / minor**2]
    a = 10.0 ** rng.uniform(6, 9, 2_000)
    abc = np.r_[abc, np.c_[a, rng.choice([0.0, 0.5, -0.5, 0.9], len(a)), 1.0 / a]]
    abc = abc[abc[:, 0] * abc[:, 2] - abc[:, 1] ** 2 > 0.0]
    got_axes = np.transpose(semiaxes(abc))
    got_box = np.transpose(half_extents(abc))
    needles = 0
    for row, axes, box in zip(abc.tolist(), got_axes.tolist(), got_box.tolist()):
        e = SecondMomentEllipse.from_abc(0.0, 0.0, *row)
        assert box == [*oracle.half_extents(e)] == [*e.half_extents()]
        try:
            want = oracle.semiaxes(e)
        except DegenerateRegion:
            needles += 1
            assert np.isnan(axes).all()
            with pytest.raises(DegenerateRegion):
                e.semiaxes()
            continue
        assert axes == [*want] == [*e.semiaxes()]
    assert 0 < needles < 2_000


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
        assert all(len(a) == 0 for a in one_table(ref, test, Homography.identity())[2])


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


def assert_same_grouped_pairs(a, b, radius, a_groups, b_groups):
    """close_pairs with group labels finds the dense matrix's pairs within
    each group and none across groups."""
    i, j, d = close_pairs(a, b, radius, a_groups, b_groups)
    dense = pairwise_distances(a, b)
    want_i, want_j = np.nonzero((dense < radius) & (a_groups[:, None] == b_groups[None]))
    assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
    assert d.tobytes() == dense[want_i, want_j].tobytes()
    return len(i)


@pytest.mark.parametrize("top", [1, 255, 2**8, 2**40, 2**56 - 1])
def test_hash_groups_at_the_key_limit(top):
    """Group labels up to 2**56 - 1, with a's points spread over 1e9 px, so
    that a's cells span 2**bits per axis for the largest label and the
    packed keys come near 2**62: every point of b sits close to a point of
    a, some in the same group and some in another, and only the pairs
    within a group are found."""
    rng = np.random.default_rng(4112)
    a = np.r_[rng.uniform(0, 1e9, (40, 2)), [[0.0, 0.0], [1e9, 1e9]]]
    b = a[rng.integers(0, len(a), 120)] + rng.normal(0, 1.0, (120, 2))
    labels = np.array([0, 1, top - 1, top]) if top > 1 else np.array([0, 1])
    a_groups, b_groups = rng.choice(labels, len(a)), rng.choice(labels, len(b))
    assert assert_same_grouped_pairs(a, b, 1.5, a_groups, b_groups) > 0
    assert_same_grouped_pairs(a, b, 1e6, a_groups, b_groups)


def test_tables_of_many_pairs_on_a_wide_image():
    """300 pairs, enough for close_pairs to narrow its cell keys, of a
    reference spread over an image 2**30 px wide; every test set lies near
    the same reference points, so an entry that crossed pairs would show.
    Each table is the one built for its pair alone."""
    rng = np.random.default_rng(4113)
    width = 2**30
    centers = np.r_[rng.uniform(0, width, (30, 2)), [[0.0, 0.0], [width, width]]]
    ref = keypoint_set(centers, circles(len(centers), 3.0), width, width)
    pairs = []
    for k in range(300):
        pick = rng.choice(len(centers), 3, replace=False)
        test = keypoint_set(centers[pick] + rng.normal(0, 1.0, (3, 2)), circles(3, 3.0),
                            width, width)
        pairs.append((test, Homography.identity()))
    tables = metrics.candidate_tables(ref, pairs)
    assert sum(len(t[2][0]) for t in tables) > 300
    for table, pair in zip(tables, pairs):
        assert hexed(table[2]) == hexed(one_table(ref, *pair)[2])

