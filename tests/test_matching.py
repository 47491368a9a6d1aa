import numpy as np
import pytest

from repbench.errors import DescriptorUnavailable
from repbench.formats import KeypointSet
from repbench.geometry import Homography, project_points
from repbench.matching import (
    match_descriptors,
    nn_match,
    ratio_match,
    verify_matches,
)
from repbench.metrics import EvalConfig, evaluate_pair, region_overlap_error
from oracle import pairwise_distances
from test_candidate_kernel import one_table


def make_set(points, descriptors, width=400, height=400, radius=2.0):
    """Circles of this radius at `points`, with these descriptors (None: D = 0)."""
    centers = np.asarray(points, dtype=float).reshape(-1, 2)
    k = 1.0 / (radius * radius)
    abc = np.tile([k, 0.0, k], (len(centers), 1))
    descs = np.zeros((len(centers), 0)) if descriptors is None else descriptors
    return KeypointSet("img", width, height, centers, abc, descs)


def random_set(rng, n, dim, width=400, height=400):
    points = rng.uniform(20, 380, (n, 2))
    descs = rng.normal(size=(n, dim))
    return make_set(points.tolist(), descs.tolist(), width, height)


def greedy_oracle(a, b):
    """Quadratic reference: repeatedly take the smallest remaining distance,
    breaking exact ties by (ref index, test index).  Returns the [ref index,
    test index] pairs taken, in row-major order."""
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    picks = []
    used_i = set()
    used_j = set()
    entries = sorted(
        ((float(d[i, j]), i, j) for i in range(d.shape[0]) for j in range(d.shape[1]))
    )
    for dist, i, j in entries:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        picks.append([i, j])
    return sorted(picks)


class TestNNMatch:
    def test_identity_descriptors(self):
        descs = np.eye(4).tolist()
        ref = make_set([(10, 10), (20, 20), (30, 30), (40, 40)], descs)
        test = make_set([(11, 10), (21, 20), (31, 30), (41, 40)], descs)
        assert nn_match(ref, test).tolist() == [[i, i] for i in range(4)]

    def test_exact_tie_takes_lower_test_index(self):
        ref = make_set([(10, 10)], [[1.0, 0.0]])
        test = make_set([(10, 10), (20, 20)], [[0.0, 1.0], [0.0, 1.0]])
        assert nn_match(ref, test).tolist() == [[0, 0]]

    def test_exact_tie_takes_lower_ref_index(self):
        ref = make_set([(10, 10), (20, 20)], [[1.0, 0.0], [1.0, 0.0]])
        test = make_set([(10, 10)], [[0.0, 1.0]])
        assert nn_match(ref, test).tolist() == [[0, 0]]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n_ref = int(rng.integers(1, 21))
            n_test = int(rng.integers(1, 21))
            ref = random_set(rng, n_ref, 8)
            test = random_set(rng, n_test, 8)
            got = nn_match(ref, test).tolist()
            assert got == greedy_oracle(ref.descriptors, test.descriptors)

    def test_produces_min_count(self):
        rng = np.random.default_rng(42)
        ref = random_set(rng, 12, 5)
        test = random_set(rng, 7, 5)
        matches = nn_match(ref, test)
        assert len(matches) == 7
        assert len(set(matches[:, 0].tolist())) == 7
        assert len(set(matches[:, 1].tolist())) == 7

    def test_orthogonal_invariance_of_pairing(self):
        rng = np.random.default_rng(43)
        ref = random_set(rng, 15, 6)
        test = random_set(rng, 15, 6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rot = lambda s: make_set(s.centers, s.descriptors @ q.T)
        assert nn_match(ref, test).tolist() == nn_match(rot(ref), rot(test)).tolist()

    def test_missing_descriptors(self):
        plain = make_set([(10, 10)], None)
        with_desc = make_set([(10, 10)], [[1.0, 0.0]])
        with pytest.raises(DescriptorUnavailable):
            nn_match(plain, with_desc)
        with pytest.raises(DescriptorUnavailable):
            nn_match(with_desc, plain)

    def test_dimension_mismatch(self):
        a = make_set([(10, 10)], [[1.0, 0.0]])
        b = make_set([(10, 10)], [[1.0, 0.0, 0.0]])
        with pytest.raises(DescriptorUnavailable):
            nn_match(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("matcher", [nn_match, ratio_match])
    def test_non_finite_descriptor_rejected(self, bad, matcher):
        # the matchers' error bound holds for finite values only, so a set
        # that holds a non-finite descriptor cannot be built
        good = make_set([(10, 10), (20, 20)], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            matcher(good, make_set([(10, 10), (20, 20)], [[1.0, 0.0], [bad, 1.0]]))


class TestRatioMatch:
    def test_unambiguous_accepted(self):
        ref = make_set([(10, 10)], [[1.0, 0.0]])
        test = make_set([(10, 10), (20, 20)], [[1.0, 0.1], [0.0, 1.0]])
        assert len(ratio_match(ref, test, 0.8)) == 1

    def test_ambiguous_rejected(self):
        # two test descriptors equally close: d1 == d2 fails d1 < r*d2
        ref = make_set([(10, 10)], [[1.0, 0.0]])
        test = make_set([(10, 10), (20, 20)], [[0.0, 1.0], [0.0, 1.0]])
        assert ratio_match(ref, test, 0.8).shape == (0, 2)

    def test_single_test_descriptor_waives_test(self):
        ref = make_set([(10, 10)], [[1.0, 0.0]])
        test = make_set([(50, 50)], [[0.0, 1.0]])
        assert ratio_match(ref, test, 0.8).tolist() == [[0, 0]]

    def test_one_to_one(self):
        # both refs prefer test 0; only the closer one gets it and the other
        # is dropped entirely rather than reassigned
        ref = make_set([(10, 10), (20, 20)], [[1.0, 0.0], [0.9, 0.0]])
        test = make_set(
            [(10, 10), (20, 20), (30, 30)],
            [[0.9, 0.0], [5.0, 5.0], [-6.0, 0.0]],
        )
        assert ratio_match(ref, test, 0.8).tolist() == [[1, 0]]

    def test_tighter_ratio_never_adds_matches(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            ref = random_set(rng, 15, 6)
            test = random_set(rng, 15, 6)
            sizes = [len(ratio_match(ref, test, r)) for r in (0.95, 0.8, 0.6, 0.4)]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_subset_of_candidates_under_tighter_ratio(self):
        rng = np.random.default_rng(45)
        ref = random_set(rng, 20, 6)
        test = random_set(rng, 20, 6)
        loose = set(map(tuple, ratio_match(ref, test, 0.9).tolist()))
        tight = set(map(tuple, ratio_match(ref, test, 0.5).tolist()))
        assert tight <= loose

    def test_ratio_validation(self):
        ref = make_set([(10, 10)], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            ratio_match(ref, ref, 0.0)
        with pytest.raises(ValueError):
            ratio_match(ref, ref, 1.0)


class TestDispatcher:
    def test_methods(self):
        rng = np.random.default_rng(46)
        ref = random_set(rng, 8, 4)
        test = random_set(rng, 8, 4)
        assert np.array_equal(match_descriptors(ref, test, "nn"), nn_match(ref, test))
        assert np.array_equal(
            match_descriptors(ref, test, "ratio", 0.7), ratio_match(ref, test, 0.7)
        )
        with pytest.raises(ValueError):
            match_descriptors(ref, test, "flann")


class TestVerifyMatches:
    def test_planted_inliers_counted(self):
        h = Homography(np.eye(3))
        cfg = EvalConfig(normalize_radius=None, grid_step=0.5)
        points = [(50.0, 50.0), (100.0, 100.0), (150.0, 150.0), (200.0, 200.0)]
        descs = np.eye(4).tolist()
        ref = make_set(points, descs, radius=4.0)
        # first three test points coincide; the last lands 10px away, which
        # fails the center predicate while staying inside the image
        moved = points[:3] + [(210.0, 200.0)]
        test = make_set(moved, descs, radius=4.0)
        matches = nn_match(ref, test)
        assert len(matches) == 4
        assert verify_matches(matches, one_table(ref, test, h, cfg)[2]) == 3

    def test_overlap_gate(self):
        h = Homography(np.eye(3))
        cfg = EvalConfig(normalize_radius=None, grid_step=0.25)
        ref = make_set([(50.0, 50.0)], [[1.0, 0.0]], radius=2.0)
        # same center, very different scale: distance passes, overlap fails
        test = make_set([(50.0, 50.0)], [[1.0, 0.0]], radius=12.0)
        matches = nn_match(ref, test)
        assert verify_matches(matches, one_table(ref, test, h, cfg)[2]) == 0

    def test_outside_common_part_excluded(self):
        h = Homography(np.array([[1, 0, 500], [0, 1, 0], [0, 0, 1]], dtype=float))
        cfg = EvalConfig(normalize_radius=None, grid_step=0.5)
        ref = make_set([(50.0, 50.0)], [[1.0, 0.0]])
        test = make_set([(50.0, 50.0)], [[1.0, 0.0]])
        # the reference point projects to x=550, off the 400px test image
        matches = nn_match(ref, test)
        assert verify_matches(matches, one_table(ref, test, h, cfg)[2]) == 0

    def test_brute_force_predicate_oracle(self):
        rng = np.random.default_rng(47)
        h = Homography(np.array([[1.01, 0.02, 3.0], [-0.015, 0.99, -2.0], [0, 0, 1]]))
        cfg = EvalConfig(normalize_radius=None, grid_step=0.5)
        n = 30
        points = rng.uniform(40, 360, (n, 2))
        descs = rng.normal(size=(n, 6))
        ref = make_set(points.tolist(), descs.tolist(), radius=3.0)
        jitter = rng.normal(0, 1.0, (n, 2))
        moved = points @ h.m[:2, :2].T + h.m[:2, 2] + jitter
        test = make_set(moved.tolist(), (descs + rng.normal(0, 0.05, descs.shape)).tolist(), radius=3.0)
        matches = nn_match(ref, test)

        from repbench.metrics import common_part_filter, region_overlap_error

        ref_ok, test_ok = common_part_filter(ref, test, h)[:2]
        expected = 0
        for i, j in matches.tolist():
            if i not in ref_ok or j not in test_ok:
                continue
            p = project_points(h, ref.centers[i])[0][0]
            q = test.keypoints[j].region.center
            if not np.hypot(p[0] - q[0], p[1] - q[1]) < cfg.epsilon_px:
                continue
            err = region_overlap_error(
                ref.keypoints[i].region,
                test.keypoints[j].region,
                h,
                cfg,
            )
            if err < cfg.max_overlap_error:
                expected += 1
        assert verify_matches(matches, one_table(ref, test, h, cfg)[2]) == expected
        assert 0 < expected <= len(matches)

    def test_empty_matches(self):
        ref = make_set([(10.0, 10.0)], [[1.0, 0.0]])
        cfg = EvalConfig()
        table = one_table(ref, ref, Homography(np.eye(3)), cfg)[2]
        assert verify_matches(np.empty((0, 2), np.intp), table) == 0

    def test_count_bounded_by_match_count(self):
        rng = np.random.default_rng(48)
        h = Homography(np.eye(3))
        cfg = EvalConfig(normalize_radius=None, grid_step=0.5)
        ref = random_set(rng, 25, 4)
        test = random_set(rng, 18, 4)
        matches = nn_match(ref, test)
        tm = verify_matches(matches, one_table(ref, test, h, cfg)[2])
        assert 0 <= tm <= len(matches) <= 18


class TestMatchArray:
    """Both matchers return one (ref index, test index) row per match, an
    intp (K, 2) array in row-major order, also when a side is empty or holds
    a single descriptor: bench/tracing.py counts the matches with len()."""

    @pytest.mark.parametrize("matcher", [nn_match, ratio_match])
    @pytest.mark.parametrize("n, m", [(0, 0), (0, 4), (4, 0), (1, 1), (1, 9), (9, 1), (12, 9)])
    def test_intp_rows_in_row_major_order(self, matcher, n, m):
        rng = np.random.default_rng(49 + 10 * n + m)
        ref = make_set(rng.uniform(20, 380, (n, 2)), rng.normal(size=(n, 4)))
        test = make_set(rng.uniform(20, 380, (m, 2)), rng.normal(size=(m, 4)))
        matches = matcher(ref, test)
        assert matches.dtype == np.intp
        assert matches.ndim == 2 and matches.shape[1] == 2
        if matcher is nn_match:
            assert len(matches) == min(n, m)
        rows = matches.tolist()
        assert rows == sorted(rows)
        assert len(set(matches[:, 0].tolist())) == len(set(matches[:, 1].tolist())) == len(rows)


class TestEpsilonBoundary:
    """A match whose centre distance is within ulps of epsilon_px.  There is
    one projection (project_points), so there is one centre distance: as the
    test centre steps an ulp at a time across projection + epsilon_px, the
    pair is a true match exactly when it is in the candidate table, exactly
    when that distance is below epsilon_px."""

    H = Homography(np.array([[1.1, 0.05, 3.3], [-0.04, 0.95, 7.1], [2e-4, 1e-4, 1.0]]))

    @pytest.mark.parametrize("p", [(132.43, 247.11), (125.8, 163.37)])
    def test_true_match_only_if_candidate(self, p):
        cfg = EvalConfig()
        proj = project_points(self.H, p)[0][0]
        ref = make_set([p], [[1.0, 0.0]], radius=8.0)
        below = set()
        for s in range(-4, 5):
            x = proj[0] + cfg.epsilon_px
            for _ in range(abs(s)):
                x = np.nextafter(x, np.copysign(np.inf, s))
            centre = np.array([x, proj[1]])
            d = float(pairwise_distances(proj[None], centre[None])[0, 0])
            test = make_set([centre], [[1.0, 0.0]], radius=8.0)
            # the overlap passes, so the centre distance alone decides
            regions = [s.keypoints[0].region for s in (ref, test)]
            err = region_overlap_error(*regions, self.H, cfg)
            assert err < cfg.max_overlap_error
            ev = evaluate_pair(ref, test, self.H, cfg)
            _, _, table = one_table(ref, test, self.H, cfg)
            assert ev.true_matches == len(table[0]) == int(d < cfg.epsilon_px)
            below.add(d < cfg.epsilon_px)
        assert below == {True, False}
