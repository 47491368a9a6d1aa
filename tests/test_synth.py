import math

import numpy as np
import pytest

from repbench.formats import Keypoint, KeypointSet, write_keypoints
from repbench.geometry import Homography
from repbench.metrics import EvalConfig, evaluate_pair
from repbench.synth import (
    MAX_AXIS_RATIO,
    DISTRACTOR_MAX_COSINE,
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
        zeroed = KeypointSet(
            ref.image_id, ref.width, ref.height, ref.descriptor_dim,
            [Keypoint(ref.keypoints[0].region, np.zeros(8))] + ref.keypoints[1:],
        )
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
