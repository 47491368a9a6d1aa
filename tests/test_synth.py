import math

import numpy as np
import pytest

from repbench.errors import DegenerateRegion, PointAtInfinity
from repbench.formats import Keypoint, KeypointSet, write_keypoints
from repbench.geometry import (
    Homography,
    SecondMomentEllipse,
    homography_jacobian,
    project_point,
)
from repbench.metrics import EvalConfig, evaluate_pair
from repbench.synth import (
    MAX_AXIS_RATIO,
    DISTRACTOR_MAX_COSINE,
    DISTRACTOR_TRIES,
    TEST_STREAM_SALT,
    SplitMix64,
    SynthConfig,
    derive_test,
    generate_reference,
)

FAST = EvalConfig(normalize_radius=None, grid_step=0.5)


def reference_stream(seed, n):
    """Independent re-implementation of the documented recurrence."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_known_seed_zero_vectors(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_matches_reference_recurrence(self):
        for seed in (1, 42, 1234567, 2**64 - 1, 0xDEADBEEF):
            g = SplitMix64(seed)
            assert [g.next_u64() for _ in range(20)] == reference_stream(seed, 20)

    def test_uniform_derivation_and_bounds(self):
        g = SplitMix64(42)
        bits = reference_stream(42, 1000)
        for b in bits:
            u = g.uniform()
            assert u == ((b >> 11) + 0.5) * 2.0**-53
            assert 0.0 < u < 1.0

    def test_uniform_mean(self):
        g = SplitMix64(7)
        mean = sum(g.uniform() for _ in range(20000)) / 20000
        assert abs(mean - 0.5) < 0.01

    def test_normal_consumes_exactly_two_uniforms(self):
        bits = reference_stream(42, 3)
        u1 = ((bits[0] >> 11) + 0.5) * 2.0**-53
        u2 = ((bits[1] >> 11) + 0.5) * 2.0**-53
        expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        g = SplitMix64(42)
        assert g.normal() == expected
        # the stream must now sit exactly after two draws
        assert g.uniform() == ((bits[2] >> 11) + 0.5) * 2.0**-53

    def test_normal_moments(self):
        g = SplitMix64(9)
        vals = [g.normal() for _ in range(20000)]
        assert abs(np.mean(vals)) < 0.03
        assert abs(np.std(vals) - 1.0) < 0.03


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_points": -1},
            {"image_width": 0},
            {"image_height": -5},
            {"scale_range": (0.0, 2.0)},
            {"scale_range": (3.0, 2.0)},
            {"jitter_sigma": -0.1},
            {"dropout_rate": -0.1},
            {"dropout_rate": 1.0},
            {"n_distractors": -1},
            {"descriptor_dim": -1},
            {"descriptor_noise_sigma": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, **kwargs)


class TestGenerateReference:
    def test_deterministic(self):
        cfg = SynthConfig(seed=11, n_points=40)
        a = write_keypoints(generate_reference(cfg))
        b = write_keypoints(generate_reference(cfg))
        assert a == b

    def test_seed_changes_output(self):
        a = write_keypoints(generate_reference(SynthConfig(seed=1, n_points=10)))
        b = write_keypoints(generate_reference(SynthConfig(seed=2, n_points=10)))
        assert a != b

    def test_zero_points(self):
        s = generate_reference(SynthConfig(seed=1, n_points=0))
        assert len(s) == 0

    def test_bounds_and_shape_parameters(self):
        rng = np.random.default_rng(61)
        for _ in range(120):
            cfg = SynthConfig(
                seed=int(rng.integers(0, 2**63)),
                n_points=12,
                image_width=int(rng.integers(100, 1000)),
                image_height=int(rng.integers(100, 1000)),
                scale_range=tuple(np.sort(rng.uniform(1.0, 8.0, 2))),
                descriptor_dim=int(rng.integers(0, 9)),
            )
            s = generate_reference(cfg)
            assert len(s) == 12
            lo, hi = cfg.scale_range
            for kp in s.keypoints:
                x, y = kp.region.center
                assert 0.0 <= x <= cfg.image_width
                assert 0.0 <= y <= cfg.image_height
                major, minor = kp.region.semiaxes()
                r = math.sqrt(major * minor)
                q = major / minor
                assert lo - 1e-9 <= r <= hi + 1e-9
                assert 1.0 - 1e-9 <= q <= MAX_AXIS_RATIO + 1e-9
                assert abs(kp.region.equivalent_radius - r) < 1e-9

    def test_unit_descriptors(self):
        s = generate_reference(SynthConfig(seed=3, n_points=30, descriptor_dim=16))
        for kp in s.keypoints:
            assert abs(float(np.linalg.norm(kp.descriptor)) - 1.0) < 1e-12


class TestDeriveTest:
    def test_deterministic(self):
        cfg = SynthConfig(seed=13, n_points=30, jitter_sigma=0.5, dropout_rate=0.2)
        ref = generate_reference(cfg)
        h = Homography(np.array([[1, 0, 5], [0, 1, -3], [0, 0, 1]], dtype=float))
        assert write_keypoints(derive_test(ref, h, cfg)) == write_keypoints(
            derive_test(ref, h, cfg)
        )

    def test_test_stream_independent_of_reference_stream(self):
        # same raw stream position would make point 0's survival correlate
        # with the reference draw; the salt keeps the streams apart
        assert reference_stream(5, 3) != reference_stream(5 ^ TEST_STREAM_SALT, 3)

    def test_lossless_settings_reproduce_reference(self):
        cfg = SynthConfig(seed=17, n_points=50, descriptor_dim=8)
        ref = generate_reference(cfg)
        h = Homography(np.array([[1, 0, 2], [0, 1, 1], [0, 0, 1]], dtype=float))
        test = derive_test(ref, h, cfg)
        # small shift, generous margins: expect nearly every point to stay
        assert len(test) >= 45
        kept = 0
        for kp_ref in ref.keypoints:
            target = np.array(
                [kp_ref.region.center[0] + 2.0, kp_ref.region.center[1] + 1.0]
            )
            hits = [
                kp
                for kp in test.keypoints
                if np.allclose(kp.region.center, target, atol=1e-9)
            ]
            if not hits:
                continue
            kept += 1
            assert np.array_equal(hits[0].region.shape, kp_ref.region.shape)
            assert np.allclose(hits[0].descriptor, kp_ref.descriptor, atol=1e-12)
        assert kept == len(test)

    def test_documented_stream_layout_predicts_survivors(self):
        # replay the documented draw order with the independent recurrence
        # and predict exactly which points survive dropout
        cfg = SynthConfig(
            seed=23, n_points=40, descriptor_dim=4, dropout_rate=0.35
        )
        ref = generate_reference(cfg)
        h = Homography.identity()
        test = derive_test(ref, h, cfg)

        gen = SplitMix64(23 ^ TEST_STREAM_SALT)
        survivors = []
        for idx in range(cfg.n_points):
            if gen.uniform() < cfg.dropout_rate:
                continue
            # each survivor consumes two jitter normals plus one normal per
            # descriptor component, two uniforms each
            for _ in range(2 + cfg.descriptor_dim):
                gen.normal()
            survivors.append(idx)

        assert len(test) == len(survivors)
        for kp, idx in zip(test.keypoints, survivors):
            assert np.array_equal(kp.region.center, ref.keypoints[idx].region.center)

    def test_dropout_rate_statistics(self):
        rates = []
        for seed in range(50):
            cfg = SynthConfig(
                seed=seed, n_points=200, descriptor_dim=0, dropout_rate=0.3
            )
            ref = generate_reference(cfg)
            test = derive_test(ref, Homography.identity(), cfg)
            rates.append(len(test) / 200)
        assert abs(np.mean(rates) - 0.7) < 0.02

    def test_jitter_degrades_repeatability_monotonically(self):
        means = []
        for jitter in (0.2, 0.8, 2.0):
            vals = []
            for seed in range(20):
                cfg = SynthConfig(
                    seed=seed, n_points=60, descriptor_dim=0, jitter_sigma=jitter
                )
                ref = generate_reference(cfg)
                test = derive_test(ref, Homography.identity(), cfg)
                ev = evaluate_pair(ref, test, Homography.identity(), FAST)
                vals.append(ev.c1)
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2]

    def test_distractors_appended_with_bounded_cosine(self):
        cfg = SynthConfig(
            seed=29, n_points=40, descriptor_dim=16, n_distractors=15
        )
        ref = generate_reference(cfg)
        test = derive_test(ref, Homography.identity(), cfg)
        assert len(test) == 40 + 15
        planted = np.array([kp.descriptor for kp in test.keypoints[:40]])
        for kp in test.keypoints[40:]:
            assert float(np.max(planted @ kp.descriptor)) <= DISTRACTOR_MAX_COSINE + 1e-12
            assert abs(float(np.linalg.norm(kp.descriptor)) - 1.0) < 1e-12

    def test_out_of_view_points_culled(self):
        cfg = SynthConfig(seed=31, n_points=50, descriptor_dim=0)
        ref = generate_reference(cfg)
        h = Homography(np.array([[1, 0, 700], [0, 1, 0], [0, 0, 1]], dtype=float))
        test = derive_test(ref, h, cfg)
        # only points with x <= 100 survive the +700px shift on an 800px image
        expected = sum(1 for kp in ref.keypoints if kp.region.center[0] <= 100.0)
        assert len(test) == expected
        for kp in test.keypoints:
            assert 0.0 <= kp.region.center[0] <= 800.0

    def test_transport_matches_geometry_under_affine(self):
        cfg = SynthConfig(seed=37, n_points=20, descriptor_dim=0)
        ref = generate_reference(cfg)
        m = np.array([[0.9, 0.2, 30.0], [-0.1, 1.1, 10.0], [0.0, 0.0, 1.0]])
        h = Homography(m)
        test = derive_test(ref, h, cfg)
        a = m[:2, :2]
        survivors = iter(test.keypoints)
        for kp in ref.keypoints:
            target = a @ kp.region.center + m[:2, 2]
            if not (0 <= target[0] <= 800 and 0 <= target[1] <= 640):
                continue
            got = next(survivors)
            assert np.allclose(got.region.center, target, atol=1e-9)
            want_shape = np.linalg.inv(a).T @ kp.region.shape @ np.linalg.inv(a)
            assert np.allclose(got.region.shape, want_shape, atol=1e-9)

    def test_zero_norm_descriptor_falls_back_without_a_draw(self):
        # With no descriptor noise, a zero reference descriptor stays zero; its
        # fallback must not shift the draws of the points and distractors
        # that follow.
        cfg = SynthConfig(seed=41, n_points=12, jitter_sigma=0.5, n_distractors=4, descriptor_dim=8)
        ref = generate_reference(cfg)
        descriptors = ref.descriptors.copy()
        descriptors[0] = 0.0
        zeroed = KeypointSet(ref.image_id, ref.width, ref.height, ref.centers, ref.abc, descriptors)
        h = Homography.identity()
        plain = derive_test(ref, h, cfg)
        fallback = derive_test(zeroed, h, cfg)
        assert np.array_equal(fallback.keypoints[0].descriptor, np.eye(8)[0])
        assert len(fallback) == len(plain)
        for got, want in zip(fallback.keypoints[1:], plain.keypoints[1:]):
            assert np.array_equal(got.region.center, want.region.center)
            assert np.array_equal(got.region.shape, want.region.shape)
        # the first distractor region is drawn before any rejection sampling
        # against the (changed) planted descriptors
        assert np.array_equal(
            fallback.keypoints[-4].region.center, plain.keypoints[-4].region.center
        )

    def test_distractor_regions_independent_of_descriptors(self):
        # Negated reference descriptors give negated planted descriptors, so
        # the rejection sampling accepts other candidates after other numbers
        # of tries; every distractor still takes the same block of the stream.
        cfg = SynthConfig(seed=47, n_points=12, n_distractors=30, descriptor_dim=2)
        ref = generate_reference(cfg)
        negated = KeypointSet(
            ref.image_id, ref.width, ref.height, ref.centers, ref.abc, -ref.descriptors
        )
        h = Homography.identity()
        plain = derive_test(ref, h, cfg)
        flipped = derive_test(negated, h, cfg)
        assert len(plain) == len(flipped) == 12 + 30
        for got, want in zip(flipped.keypoints, plain.keypoints):
            assert got.region.center.tobytes() == want.region.center.tobytes()
            assert got.region.shape.tobytes() == want.region.shape.tobytes()
        # the accepted candidates differ, so the test would see a moved region
        assert any(
            not np.array_equal(g.descriptor, -w.descriptor)
            for g, w in zip(flipped.keypoints[12:], plain.keypoints[12:])
        )


# ---------------------------------------------------------------------------
# Block draws against the scalar generator
# ---------------------------------------------------------------------------

BLOCK_SEEDS = (0, 7, 2**64 - 5)  # 2**64 - 5 wraps the state on the first draw


class TestBlockDraws:
    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 10**5])
    @pytest.mark.parametrize("kind", ["uniform", "normal"])
    def test_block_equals_scalar_calls(self, kind, n, seed):
        # uniforms(n) / normals(n) against n uniform() / normal() calls
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = getattr(block, kind + "s")(n)
        draw = getattr(scalar, kind)
        want = np.array([draw() for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block.state == scalar.state


# ---------------------------------------------------------------------------
# Frozen copy of the scalar synth implementation (one Python call per draw,
# one Keypoint object per keypoint); the block-drawing generator must write
# exactly the same bytes.
# ---------------------------------------------------------------------------


def _old_keypoint_set(image_id, width, height, dim, kps):
    """The KeypointSet of a list of Keypoint objects."""
    n = len(kps)
    return KeypointSet(
        image_id,
        width,
        height,
        np.array([kp.region.center for kp in kps]).reshape(n, 2),
        np.array([kp.region.shape.ravel()[[0, 1, 3]] for kp in kps]).reshape(n, 3),
        np.array([kp.descriptor for kp in kps] if dim else []).reshape(n, dim),
    )


def _old_random_region(rng, cfg):
    cx = rng.uniform() * cfg.image_width
    cy = rng.uniform() * cfg.image_height
    lo, hi = cfg.scale_range
    r = lo + rng.uniform() * (hi - lo)
    q = 1.0 + rng.uniform() * (MAX_AXIS_RATIO - 1.0)
    theta = rng.uniform() * math.pi
    major = r * math.sqrt(q)
    minor = r / math.sqrt(q)
    d1 = 1.0 / (major * major)
    d2 = 1.0 / (minor * minor)
    co, si = math.cos(theta), math.sin(theta)
    shape = np.array(
        [
            [co * co * d1 + si * si * d2, co * si * (d1 - d2)],
            [co * si * (d1 - d2), si * si * d1 + co * co * d2],
        ]
    )
    return SecondMomentEllipse(np.array([cx, cy]), shape)


def _old_normalized(v):
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        e1 = np.zeros_like(v)
        e1[0] = 1.0
        return e1
    return v / norm


def _old_unit_descriptor(rng, dim):
    return _old_normalized(np.array([rng.normal() for _ in range(dim)]))


def old_generate_reference(cfg, image_id="ref"):
    rng = SplitMix64(cfg.seed)
    kps = []
    for _ in range(cfg.n_points):
        region = _old_random_region(rng, cfg)
        desc = _old_unit_descriptor(rng, cfg.descriptor_dim) if cfg.descriptor_dim else None
        kps.append(Keypoint(region, desc))
    return _old_keypoint_set(
        image_id, cfg.image_width, cfg.image_height, cfg.descriptor_dim, kps
    )


def _old_transport_region(region, h):
    a = homography_jacobian(h, region.center)
    a_inv = np.linalg.inv(a)
    shape = a_inv.T @ region.shape @ a_inv
    center = project_point(h, region.center)
    return SecondMomentEllipse(center, 0.5 * (shape + shape.T))


def _old_distractor_descriptor(rng, dim, planted):
    best = None
    best_cos = math.inf
    for tries in range(1, DISTRACTOR_TRIES + 1):
        cand = _old_unit_descriptor(rng, dim)
        worst = float(np.max(planted @ cand)) if len(planted) else -1.0
        if worst <= DISTRACTOR_MAX_COSINE:
            best = cand
            break
        if worst < best_cos:
            best_cos = worst
            best = cand
    # the unused candidates' draws are skipped, one uniform at a time
    for _ in range((DISTRACTOR_TRIES - tries) * 2 * dim):
        rng.uniform()
    return best


def old_derive_test(ref, h, cfg, image_id="test"):
    rng = SplitMix64(cfg.seed ^ TEST_STREAM_SALT)
    kps = []
    planted_descs = []
    for kp in ref.keypoints:
        if rng.uniform() < cfg.dropout_rate:
            continue
        jx = rng.normal()
        jy = rng.normal()
        noise = None
        if cfg.descriptor_dim:
            noise = np.array([rng.normal() for _ in range(cfg.descriptor_dim)])
        try:
            moved = _old_transport_region(kp.region, h)
        except (PointAtInfinity, DegenerateRegion, np.linalg.LinAlgError):
            continue
        center = moved.center + np.array([jx, jy]) * cfg.jitter_sigma
        if not (
            0.0 <= center[0] <= cfg.image_width
            and 0.0 <= center[1] <= cfg.image_height
        ):
            continue
        desc = None
        if cfg.descriptor_dim:
            desc = _old_normalized(kp.descriptor + noise * cfg.descriptor_noise_sigma)
            planted_descs.append(desc)
        kps.append(Keypoint(SecondMomentEllipse(center, moved.shape), desc))

    planted = np.array(planted_descs) if planted_descs else np.zeros((0, cfg.descriptor_dim))
    for _ in range(cfg.n_distractors):
        region = _old_random_region(rng, cfg)
        desc = None
        if cfg.descriptor_dim:
            desc = _old_distractor_descriptor(rng, cfg.descriptor_dim, planted)
        kps.append(Keypoint(region, desc))
    return _old_keypoint_set(
        image_id, cfg.image_width, cfg.image_height, cfg.descriptor_dim, kps
    )


def old_write_keypoints(kset):
    out = ["1.0" if kset.descriptor_dim == 0 else str(kset.descriptor_dim)]
    out.append(str(len(kset.keypoints)))
    for kp in kset.keypoints:
        s = kp.region.shape
        tokens = [
            repr(float(kp.region.center[0])),
            repr(float(kp.region.center[1])),
            repr(float(s[0, 0])),
            repr(float(s[0, 1])),
            repr(float(s[1, 1])),
        ]
        if kp.descriptor is not None:
            tokens.extend(repr(float(d)) for d in kp.descriptor)
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


DIFF_HOMOGRAPHIES = {
    "identity": Homography.identity(),
    "similarity": Homography(
        np.array([[0.95, -0.2, 40.0], [0.2, 0.95, -25.0], [0.0, 0.0, 1.0]])
    ),
    # w = 1 - 0.002 x crosses zero inside the image: points right of x = 500
    # land behind the camera and are culled after their draws
    "projective": Homography(
        np.array([[1.0, 0.1, 5.0], [0.0, 1.2, -3.0], [-0.002, 0.0005, 1.0]])
    ),
    # w = 1e-13 everywhere: every survivor fails transport (PointAtInfinity)
    "at-infinity": Homography(np.diag([1.0, 1.0, 1e-13])),
}


def _assert_same_sets(got, want):
    assert write_keypoints(got) == old_write_keypoints(want)
    assert len(got) == len(want)
    for g, w in zip(got.keypoints, want.keypoints):
        assert g.region.center.tobytes() == w.region.center.tobytes()
        assert g.region.shape.tobytes() == w.region.shape.tobytes()
        if w.descriptor is None:
            assert g.descriptor is None
        else:
            assert g.descriptor.tobytes() == w.descriptor.tobytes()


class TestBlockSynthMatchesScalar:
    @pytest.mark.parametrize("dim", [0, 2, 3, 16, 128])
    def test_reference_and_derived_sets(self, dim):
        n_points = 24 if dim == 128 else 40
        for seed in (1, 7, 2**64 - 3):
            for jitter, dropout, distractors in ((0.0, 0.0, 0), (2.5, 0.3, 6), (40.0, 0.9, 3)):
                cfg = SynthConfig(
                    seed=seed,
                    n_points=n_points,
                    jitter_sigma=jitter,
                    dropout_rate=dropout,
                    n_distractors=distractors,
                    descriptor_dim=dim,
                    descriptor_noise_sigma=0.3,
                )
                ref = generate_reference(cfg)
                _assert_same_sets(ref, old_generate_reference(cfg))
                for name, h in DIFF_HOMOGRAPHIES.items():
                    got = derive_test(ref, h, cfg, image_id=name)
                    _assert_same_sets(got, old_derive_test(ref, h, cfg, image_id=name))

    def test_best_of_64_distractor_fallback(self):
        # 2-D unit descriptors: 150 planted directions leave no gap of
        # 2 * acos(0.9) on the circle, so every candidate is rejected and the
        # best of DISTRACTOR_TRIES is kept.
        cfg = SynthConfig(seed=5, n_points=150, n_distractors=5, descriptor_dim=2)
        ref = generate_reference(cfg)
        h = Homography.identity()
        got = derive_test(ref, h, cfg)
        _assert_same_sets(got, old_derive_test(ref, h, cfg))
        planted = np.array([kp.descriptor for kp in got.keypoints[:150]])
        for kp in got.keypoints[150:]:
            assert float(np.max(planted @ kp.descriptor)) > DISTRACTOR_MAX_COSINE

    @pytest.mark.parametrize("dim", [2, 16])
    def test_zero_norm_e1_fallback(self, dim):
        cfg = SynthConfig(
            seed=43, n_points=20, jitter_sigma=1.0, n_distractors=3, descriptor_dim=dim
        )
        ref = generate_reference(cfg)
        descriptors = ref.descriptors.copy()
        descriptors[::3] = 0.0
        zeroed = KeypointSet(ref.image_id, ref.width, ref.height, ref.centers, ref.abc, descriptors)
        h = Homography.identity()
        got = derive_test(zeroed, h, cfg)
        _assert_same_sets(got, old_derive_test(zeroed, h, cfg))
        assert np.array_equal(got.keypoints[0].descriptor, np.eye(dim)[0])

    def test_writer_matches_scalar_writer(self):
        # descriptors that are not float64 arrays are written as floats too
        kset = KeypointSet(
            "w", 10, 10,
            np.tile([3.0, 4.5], (3, 1)),
            np.tile([0.25, 0.0, 0.25], (3, 1)),  # the circle of radius 2
            [
                np.array([1, -2, 3]),
                np.array([0.1, 1e-300, -0.0], dtype=np.float32),
                np.array([1 / 3, 2.5e17, -7.0]),
            ],
        )
        assert write_keypoints(kset) == old_write_keypoints(kset)
