import numpy as np
import pytest

from repbench.formats import KeypointSet
from repbench.geometry import Homography, SecondMomentEllipse, project_points
from repbench.metrics import (
    EvalConfig,
    PairEvaluation,
    _resolve,
    common_part_filter,
    criterion1,
    criterion2,
    eq1_repeatability,
    evaluate_pair,
    region_overlap_error,
)
from repbench.synth import SynthConfig, derive_test, generate_reference

from oracle import oracle_resolve
from test_candidate_kernel import one_table

FAST = EvalConfig(normalize_radius=None, grid_step=0.5)


def make_set(points, width=400, height=400, radius=4.0, descriptors=None):
    """Circles of radius `radius` (a scalar or one per point) at `points`."""
    centers = np.asarray(points, dtype=float).reshape(-1, 2)
    k = 1.0 / np.square(np.broadcast_to(radius, len(centers)))
    abc = np.stack([k, np.zeros_like(k), k], axis=1)
    descs = np.zeros((len(centers), 0)) if descriptors is None else descriptors
    return KeypointSet("img", width, height, centers, abc, descs)


def translation(dx, dy):
    return Homography(np.array([[1, 0, dx], [0, 1, dy], [0, 0, 1]], dtype=float))


class TestCommonPartFilter:
    def test_identity_keeps_all(self):
        s = make_set([(10, 10), (200, 200), (390, 390)])
        ref_idx, test_idx = common_part_filter(s, s, Homography.identity())[:2]
        assert list(ref_idx) == [0, 1, 2]
        assert list(test_idx) == [0, 1, 2]

    def test_boundary_points_kept(self):
        s = make_set([(0.0, 0.0), (400.0, 400.0), (0.0, 400.0)])
        ref_idx, test_idx = common_part_filter(s, s, Homography.identity())[:2]
        assert len(ref_idx) == 3 and len(test_idx) == 3

    def test_translation_splits_view(self):
        # shift +200px in x: only ref points with x <= 200 stay visible, and
        # only test points with x >= 200 map back into the reference
        ref = make_set([(50, 50), (150, 150), (250, 250), (350, 350)])
        test = make_set([(50, 50), (150, 150), (250, 250), (350, 350)])
        ref_idx, test_idx = common_part_filter(ref, test, translation(200, 0))[:2]
        assert list(ref_idx) == [0, 1]
        assert list(test_idx) == [2, 3]

    def test_maps_cover_the_common_part(self):
        # the Jacobians, projections and back-projections of the common-part
        # points only, in index order
        ref = make_set([(50, 50), (150, 150), (250, 250), (350, 350)])
        test = make_set([(60, 50), (170, 150), (250, 250), (350, 340)])
        ref_idx, test_idx, jac, proj, back = common_part_filter(ref, test, translation(200, 0))
        assert (ref_idx.tolist(), test_idx.tolist()) == ([0, 1], [2, 3])
        assert jac.tolist() == [[[1.0, 0.0], [0.0, 1.0]]] * 2
        assert proj.tolist() == [[250.0, 50.0], [350.0, 150.0]]
        assert back.tolist() == [[50.0, 250.0], [150.0, 340.0]]

    def test_fully_disjoint(self):
        s = make_set([(50, 50), (100, 100)])
        ref_idx, test_idx = common_part_filter(s, s, translation(1000, 0))[:2]
        assert len(ref_idx) == 0 and len(test_idx) == 0

    def test_point_at_infinity_excluded_not_fatal(self):
        h = Homography(np.array([[1, 0, 0], [0, 1, 0], [1, 0, -100]], dtype=float))
        # w = x - 100 vanishes on the x = 100 line
        ref = make_set([(100.0, 100.0), (150.0, 100.0)])
        test = make_set([(3.0, 2.0)])
        ref_idx, _ = common_part_filter(ref, test, h)[:2]
        assert list(ref_idx) == [1]

    def test_empty_sets(self):
        empty = make_set([])
        full = make_set([(50, 50)])
        ref_idx, test_idx = common_part_filter(empty, full, Homography.identity())[:2]
        assert len(ref_idx) == 0 and len(test_idx) == 1


class TestRegionOverlapError:
    def test_identical_region_identity_h(self):
        r = SecondMomentEllipse.circle(100, 100, 5)
        assert region_overlap_error(r, r, Homography.identity(), FAST) == 0.0

    def test_normalization_changes_scale_sensitivity(self):
        big = SecondMomentEllipse.circle(100, 100, 20)
        small = SecondMomentEllipse.circle(100, 100, 10)
        raw = region_overlap_error(big, small, Homography.identity(), FAST)
        norm_cfg = EvalConfig(normalize_radius=30.0, grid_step=0.5)
        normalized = region_overlap_error(big, small, Homography.identity(), norm_cfg)
        # same concentric 2:1 pair either way, just rescaled; both reject a
        # disk of half the radius (error 0.75 = 1 - 1/4)
        assert abs(raw - 0.75) < 2e-2
        assert abs(normalized - 0.75) < 2e-2

    def test_transport_compensates_scaling_homography(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        ref_region = SecondMomentEllipse.circle(50, 50, 6)
        test_region = SecondMomentEllipse.circle(100, 100, 12)
        err = region_overlap_error(ref_region, test_region, h, FAST)
        assert err < 0.01

    @pytest.mark.parametrize("cfg", [EvalConfig(), FAST], ids=["default", "raw-grid-0.5"])
    def test_overflowing_region_scored_without_warning(self, cfg):
        # a c = 1e400 overflows to inf: the test region is still positive
        # definite, and it is scored without a RuntimeWarning, which the
        # pytest configuration turns into an error; at a radius of 1e-100
        # px it repeats nothing
        ref = make_set([(50.0, 50.0)], radius=10.0)
        test = KeypointSet("img", 400, 400, [[50.0, 50.0]], [[1e200, 0.0, 1e200]],
                           np.zeros((1, 0)))
        ref_idx, test_idx, table = one_table(ref, test, Homography.identity(), cfg)
        assert ref_idx.tolist() == test_idx.tolist() == [0]
        assert all(len(a) == 0 for a in table)


def table_dict(table):
    """A candidate table's arrays as the dict oracle_resolve reads."""
    ri, tj, err, dist = (a.tolist() for a in table)
    return dict(zip(zip(ri, tj), zip(err, dist)))


def resolved(table, n_ref, n_test):
    """The (ref_index, test_index, center_distance, overlap_err) that
    metrics._resolve takes from a candidate table, sorted by index pair;
    they must be the set-based oracle's on the same table."""
    taken = _resolve(table, n_ref, n_test)
    ri, tj, err, dist = (a[taken].tolist() for a in table)
    got = sorted(zip(ri, tj, dist, err))
    assert got == oracle_resolve(table_dict(table))
    return got


def correspondences(ref, test, h, cfg=FAST):
    return resolved(one_table(ref, test, h, cfg)[2], len(ref), len(test))


class TestFindCorrespondences:
    def test_identity_pairs_everything(self):
        s = make_set([(50, 50), (150, 150), (250, 250)])
        corrs = correspondences(s, s, Homography.identity())
        assert corrs == [(0, 0, 0.0, 0.0), (1, 1, 0.0, 0.0), (2, 2, 0.0, 0.0)]

    def test_results_sorted_by_index_pair(self):
        # the table's arrays come in row-major (ref, test) order
        s = make_set([(250, 250), (50, 50), (150, 150)])
        ri, tj, _, _ = one_table(s, s, Homography.identity(), FAST)[2]
        pairs = list(zip(ri.tolist(), tj.tolist()))
        assert pairs == sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_tie_breaks_to_lowest_test_index(self):
        ref = make_set([(100.0, 100.0)])
        test = make_set([(100.4, 100.0), (100.4, 100.0)])
        corrs = correspondences(ref, test, Homography.identity())
        assert [c[:2] for c in corrs] == [(0, 0)]

    def test_tie_breaks_to_lowest_ref_index(self):
        ref = make_set([(100.4, 100.0), (100.4, 100.0)])
        test = make_set([(100.0, 100.0)])
        corrs = correspondences(ref, test, Homography.identity())
        assert [c[:2] for c in corrs] == [(0, 0)]

    def test_closer_overlap_wins_contested_point(self):
        # both test points sit within epsilon of the reference point; the one
        # with matching scale has lower overlap error and must win even
        # though the other is listed first
        ref = make_set([(100.0, 100.0)], radius=4.0)
        test = make_set([(100.5, 100.0), (100.5, 100.0)], radius=[7.0, 4.0])
        corrs = correspondences(ref, test, Homography.identity())
        assert [c[:2] for c in corrs] == [(0, 1)]

    def test_epsilon_strictness(self):
        ref = make_set([(100.0, 100.0)])
        test = make_set([(101.5, 100.0)])  # distance exactly epsilon
        assert correspondences(ref, test, Homography.identity()) == []
        near = make_set([(101.49, 100.0)])
        assert len(correspondences(ref, near, Homography.identity())) == 1

    def test_greedy_matches_quadratic_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n_ref = int(rng.integers(1, 26))
            n_test = int(rng.integers(1, 26))
            h = Homography(
                np.array(
                    [
                        [1.0 + rng.normal(0, 0.01), rng.normal(0, 0.01), rng.normal(0, 2)],
                        [rng.normal(0, 0.01), 1.0 + rng.normal(0, 0.01), rng.normal(0, 2)],
                        [0.0, 0.0, 1.0],
                    ]
                )
            )
            ref = make_set(rng.uniform(30, 370, (n_ref, 2)).tolist(), radius=3.0)
            test_pts = rng.uniform(30, 370, (n_test, 2))
            # plant some near-correspondences
            k = min(n_ref, n_test) // 2
            planted = ref.centers[:k] @ h.m[:2, :2].T + h.m[:2, 2]
            test_pts[:k] = planted + rng.normal(0, 0.4, (k, 2))
            test = make_set(test_pts.tolist(), radius=3.0)

            got = correspondences(ref, test, h)

            ref_idx, test_idx = common_part_filter(ref, test, h)[:2]
            cands = {}
            for ri in ref_idx.tolist():
                p = project_points(h, ref.centers[ri])[0][0]
                for tj in test_idx.tolist():
                    q = test.keypoints[tj].region.center
                    dist = float(np.hypot(p[0] - q[0], p[1] - q[1]))
                    if not dist < FAST.epsilon_px:
                        continue
                    err = region_overlap_error(
                        ref.keypoints[ri].region, test.keypoints[tj].region, h, FAST
                    )
                    if err < FAST.max_overlap_error:
                        cands[ri, tj] = (err, dist)
            want = oracle_resolve(cands)
            assert [g[:2] for g in got] == [w[:2] for w in want]
            for g, w in zip(got, want):
                # hypot rounds slightly differently than the vectorized norm
                assert abs(g[2] - w[2]) < 1e-9
                assert g[3] == w[3]

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_ties_match_set_based_oracle(self, seed):
        # entries drawn from a few (err, dist) values, so most orders are
        # decided by the index tie-breaks; seeds 0-2 set n_ref = 0,
        # n_test = 0 or both, which leave the table empty
        rng = np.random.default_rng(4700 + seed)
        n_ref, n_test = (int(n) for n in rng.integers(1, 30, 2))
        if seed < 3:
            n_ref, n_test = [(0, n_test), (n_ref, 0), (0, 0)][seed]
        flat = np.flatnonzero(rng.random(n_ref * n_test) < 0.3)
        ri, tj = np.divmod(flat, max(n_test, 1))
        err = rng.choice([0.0, 0.125, 0.25], len(flat))
        dist = rng.choice([0.0, 0.5, 1.0], len(flat))
        assert len(resolved((ri, tj, err, dist), n_ref, n_test)) <= min(n_ref, n_test)


class TestRateFormulas:
    def test_examples(self):
        assert eq1_repeatability(2, 3, 5) == 2 / 3
        assert criterion1(2, 5) == 0.4
        assert criterion2(2, 5, 3) == 0.5
        assert eq1_repeatability(4, 4, 9) == 1.0
        assert criterion2(0, 7, 3) == 0.0

    def test_undefined(self):
        assert eq1_repeatability(0, 0, 5) is None
        assert eq1_repeatability(0, 5, 0) is None
        assert criterion1(0, 0) is None
        assert criterion2(0, 0, 0) is None

    def test_c2_between_c1_orders(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n_ref = int(rng.integers(1, 500))
            n_test = int(rng.integers(1, 500))
            n_rep = int(rng.integers(0, min(n_ref, n_test) + 1))
            c1 = criterion1(n_rep, n_ref)
            c1_sym = criterion1(n_rep, n_test)
            c2 = criterion2(n_rep, n_ref, n_test)
            assert min(c1, c1_sym) - 1e-15 <= c2 <= max(c1, c1_sym) + 1e-15


class TestEvaluatePair:
    def test_self_pair_is_perfect(self):
        rng = np.random.default_rng(53)
        descs = rng.normal(size=(6, 4)).tolist()
        s = make_set(rng.uniform(30, 370, (6, 2)).tolist(), descriptors=descs)
        ev = evaluate_pair(s, s, Homography.identity(), FAST)
        assert ev.n_ref == ev.n_test == ev.n_rep == 6
        assert ev.eq1 == ev.c1 == ev.c2 == 1.0
        assert ev.descriptors_available
        assert ev.true_matches == 6

    def test_forced_counts(self):
        ref = make_set([(50, 50), (100, 100), (150, 150), (200, 200), (250, 250)])
        test = make_set([(50, 50), (100.5, 100), (330, 330)])
        ev = evaluate_pair(ref, test, Homography.identity(), FAST)
        assert (ev.n_ref, ev.n_test, ev.n_rep) == (5, 3, 2)
        assert ev.eq1 == 2 / 3
        assert ev.c1 == 0.4
        assert ev.c2 == 0.5
        assert not ev.descriptors_available
        assert ev.true_matches == 0

    def test_keypoint_order_invariance(self):
        rng = np.random.default_rng(54)
        pts = rng.uniform(30, 370, (12, 2))
        descs = rng.normal(size=(12, 5))
        h = translation(15, -10)
        moved = pts + np.array([15.0, -10.0]) + rng.normal(0, 0.3, pts.shape)
        ref = make_set(pts.tolist(), descriptors=descs.tolist())
        test = make_set(moved.tolist(), descriptors=descs.tolist())
        base = evaluate_pair(ref, test, h, FAST)

        perm = rng.permutation(12)
        ref_p = make_set(pts[perm].tolist(), descriptors=descs[perm].tolist())
        test_perm = rng.permutation(12)
        test_p = make_set(
            moved[test_perm].tolist(), descriptors=descs[test_perm].tolist()
        )
        shuffled = evaluate_pair(ref_p, test_p, h, FAST)
        for field in ("n_ref", "n_test", "n_rep", "true_matches", "eq1", "c1", "c2"):
            assert getattr(base, field) == getattr(shuffled, field)

    def test_swap_symmetry_under_isometry(self):
        rng = np.random.default_rng(55)
        pts = rng.uniform(60, 340, (10, 2))
        moved = pts + np.array([37.0, -21.0]) + rng.normal(0, 0.2, pts.shape)
        extra = rng.uniform(60, 340, (4, 2))
        ref = make_set(pts.tolist())
        test = make_set(np.vstack([moved, extra]).tolist())
        h = translation(37, -21)

        fwd = evaluate_pair(ref, test, h, FAST)
        rev = evaluate_pair(test, ref, h.inverse(), FAST)
        assert (fwd.n_ref, fwd.n_test) == (rev.n_test, rev.n_ref)
        assert fwd.n_rep == rev.n_rep
        assert fwd.eq1 == rev.eq1
        assert fwd.c2 == rev.c2
        assert fwd.c1 != rev.c1  # 14 test points vs 10 reference points

    def test_eq1_population_whole_vs_common(self):
        base = [(50.0, 50.0), (100.0, 100.0), (150.0, 150.0),
                (120.0, 60.0), (60.0, 120.0), (170.0, 90.0)]
        far_ref = [(250.0, 250.0), (300.0, 300.0), (350.0, 350.0), (260.0, 320.0)]
        shifted = [(x + 200.0, y) for x, y in base]
        stranded = [(20.0, 250.0), (40.0, 300.0), (60.0, 350.0), (80.0, 330.0)]
        ref = make_set(base + far_ref)
        test = make_set(shifted + stranded)
        h = translation(200, 0)

        common = evaluate_pair(ref, test, h, FAST)
        assert (common.n_ref, common.n_test, common.n_rep) == (6, 6, 6)
        assert common.eq1 == 1.0

        whole_cfg = EvalConfig(
            normalize_radius=None, grid_step=0.5, eq1_population="whole"
        )
        whole = evaluate_pair(ref, test, h, whole_cfg)
        assert whole.n_rep == 6
        assert whole.eq1 == 0.6  # 6 repeated out of min(10, 10) detections
        assert whole.c1 == common.c1
        assert whole.c2 == common.c2

    def test_empty_common_part_yields_nulls(self):
        s = make_set([(50, 50), (100, 100)])
        ev = evaluate_pair(s, s, translation(1000, 0), FAST)
        assert (ev.n_ref, ev.n_test, ev.n_rep) == (0, 0, 0)
        assert ev.eq1 is None and ev.c1 is None and ev.c2 is None

    def test_empty_sets_yield_nulls(self):
        empty = make_set([])
        ev = evaluate_pair(empty, empty, Homography.identity(), FAST)
        assert ev.eq1 is None and ev.c1 is None and ev.c2 is None
        assert isinstance(ev, PairEvaluation)

    def test_ratio_matcher_config(self):
        rng = np.random.default_rng(56)
        descs = rng.normal(size=(8, 6)).tolist()
        s = make_set(rng.uniform(30, 370, (8, 2)).tolist(), descriptors=descs)
        cfg = EvalConfig(
            normalize_radius=None, grid_step=0.5, matcher="ratio", ratio_threshold=0.8
        )
        ev = evaluate_pair(s, s, Homography.identity(), cfg)
        assert ev.true_matches == 8  # random descriptors are unambiguous

    def test_mismatched_descriptor_dims_disable_matching(self):
        rng = np.random.default_rng(57)
        pts = rng.uniform(30, 370, (4, 2)).tolist()
        a = make_set(pts, descriptors=rng.normal(size=(4, 4)).tolist())
        b = make_set(pts, descriptors=rng.normal(size=(4, 6)).tolist())
        ev = evaluate_pair(a, b, Homography.identity(), FAST)
        assert not ev.descriptors_available
        assert ev.true_matches == 0
        assert ev.n_rep == 4


class TestReferenceFrame:
    """The predicate is framed in the reference image, as in the Oxford
    protocol: swapping the images (and inverting H) can change n_rep when H
    scales, through epsilon_px (compared in test-frame pixels) and through
    normalize_radius (the factor that makes the reference region a circle
    of that radius; the center offset is not rescaled)."""

    SCALE_2 = Homography(np.diag([2.0, 2.0, 1.0]))

    def both_directions(self, ref, test, h, cfg):
        return evaluate_pair(ref, test, h, cfg), evaluate_pair(test, ref, h.inverse(), cfg)

    def test_epsilon_depends_on_direction(self):
        # the test center is 2 px from the projected reference center in the
        # test frame, 1 px from it in the reference frame
        ref = make_set([(10, 10)], width=100, height=100, radius=5.0)
        test = make_set([(22, 20)], width=200, height=200, radius=10.0)
        forward, backward = self.both_directions(ref, test, self.SCALE_2, EvalConfig())
        assert (forward.n_rep, backward.n_rep) == (0, 1)

    def test_normalization_depends_on_direction(self):
        # the regions map onto each other; the 16 px offset in the test frame
        # is 8 px in the reference frame, next to circles rescaled to radius 30
        ref = make_set([(10, 10)], width=100, height=100, radius=2.0)
        test = make_set([(36, 20)], width=200, height=200, radius=4.0)
        forward, backward = self.both_directions(ref, test, self.SCALE_2,
                                                 EvalConfig(epsilon_px=50.0))
        assert (forward.n_rep, backward.n_rep) == (1, 0)

    @pytest.mark.parametrize("normalize_radius", [30.0, None])
    def test_identity_is_direction_free(self, normalize_radius):
        # under the identity a survivor keeps its reference shape, so both
        # directions normalise a planted pair by the same factor
        cfg = SynthConfig(seed=11, n_points=300, jitter_sigma=1.0, dropout_rate=0.2,
                          n_distractors=50, descriptor_dim=16, descriptor_noise_sigma=0.05)
        ref = generate_reference(cfg)
        test = derive_test(ref, Homography.identity(), cfg)
        forward, backward = self.both_directions(
            ref, test, Homography.identity(), EvalConfig(normalize_radius=normalize_radius)
        )
        assert forward.n_rep > 100
        assert (forward.n_ref, forward.n_test) == (backward.n_test, backward.n_ref)
        assert (forward.n_rep, forward.true_matches, forward.eq1, forward.c2) == (
            backward.n_rep, backward.true_matches, backward.eq1, backward.c2)

    @pytest.mark.parametrize("normalize_radius", [30.0, None])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_integer_translation_on_a_lattice_is_direction_free(self, seed, normalize_radius):
        # centers and jitter on a 1/8 px lattice and an integer shift: every
        # center plus the shift is exact, so neither the epsilon gate nor the
        # common part can flip with the direction; a survivor keeps its
        # reference shape, so matched regions have equal areas and both
        # directions normalise them by the same factor
        rng = np.random.default_rng(seed)
        ref = generate_reference(SynthConfig(seed=seed, n_points=300, descriptor_dim=16))
        ref = KeypointSet("ref", ref.width, ref.height, np.round(ref.centers * 8.0) / 8.0,
                          ref.abc, ref.descriptors)
        keep = np.flatnonzero(rng.uniform(size=len(ref)) >= 0.1)
        shift = rng.integers(-40, 41, 2).astype(float)
        jitter = np.round(rng.normal(0.0, 1.0, (len(keep), 2)) * 8.0) / 8.0
        descriptors = ref.descriptors[keep] + rng.normal(0.0, 0.05, (len(keep), 16))
        descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
        test = KeypointSet("test", ref.width, ref.height, ref.centers[keep] + shift + jitter,
                           ref.abc[keep], descriptors)
        forward, backward = self.both_directions(
            ref, test, translation(*shift), EvalConfig(normalize_radius=normalize_radius)
        )
        assert forward.n_rep > 50 and forward.true_matches > 50
        assert (forward.n_ref, forward.n_test) == (backward.n_test, backward.n_ref)
        assert (forward.n_rep, forward.true_matches, forward.c2) == (
            backward.n_rep, backward.true_matches, backward.c2)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.epsilon_px == 1.5
        assert cfg.max_overlap_error == 0.40
        assert cfg.normalize_radius == 30.0
        assert cfg.eq1_population == "common"
        assert cfg.matcher == "nn"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon_px": 0.0},
            {"epsilon_px": -1.0},
            {"max_overlap_error": 0.0},
            {"max_overlap_error": 1.0},
            {"normalize_radius": 0.0},
            {"grid_step": 0.0},
            {"eq1_population": "both"},
            {"matcher": "bf"},
            {"ratio_threshold": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["epsilon_px", "normalize_radius", "grid_step"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EvalConfig(**{field: value})

    def test_frozen(self):
        cfg = EvalConfig()
        with pytest.raises(AttributeError):
            cfg.epsilon_px = 2.0
