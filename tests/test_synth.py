import contextlib
import functools
import hashlib
import io
import math

import numpy as np
import pytest

from repbench.cli import main as cli_main
from repbench.errors import DegenerateRegion, PointAtInfinity
from repbench.formats import (
    Keypoint,
    KeypointSet,
    parse_keypoints,
    write_homography,
    write_keypoints,
)
from repbench.geometry import Homography, SecondMomentEllipse, homography_jacobians
from repbench.harness import default_sequence_homography, synth_sequence
from repbench.metrics import EvalConfig, evaluate_pair
from repbench.synth import (
    MAX_AXIS_RATIO,
    MAX_SCALE,
    MIN_SCALE,
    DISTRACTOR_MAX_COSINE,
    DISTRACTOR_TRIES,
    TEST_STREAM_SALT,
    SynthConfig,
    _survival_step,
    derive_test,
    generate_reference,
    normal_blocks,
    uniform_blocks,
)
from oracle import SplitMix64, oracle_homography_jacobian, oracle_project_point

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


SEED_ZERO_VECTORS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestSplitMix64:
    """The scalar oracle (tests/oracle.py) that the block kernels are
    compared with, against the published vectors and reference_stream."""

    def test_known_seed_zero_vectors(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == SEED_ZERO_VECTORS

    def test_block_kernel_gives_seed_zero_vectors(self):
        want = [((v >> 11) + 0.5) * 2.0**-53 for v in SEED_ZERO_VECTORS]
        assert uniform_blocks([0], 3).tolist() == [want]

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
            {"descriptor_dim": 1},
            {"image_width": 2**53 + 1},
            {"image_height": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("scale_range", (2.0, math.nan)), ("scale_range", (2.0, math.inf)),
         ("scale_range", (math.nan, 6.0)), ("jitter_sigma", math.nan),
         ("jitter_sigma", math.inf), ("descriptor_noise_sigma", math.nan),
         ("descriptor_noise_sigma", math.inf)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(seed=1, **{field: value})

    @pytest.mark.parametrize(
        "scale_range", [(MIN_SCALE, MIN_SCALE), (MAX_SCALE, MAX_SCALE), (MIN_SCALE, MAX_SCALE)]
    )
    def test_scale_range_bounds_give_valid_regions(self, scale_range):
        # a set holds valid regions only, so building the planted, derived
        # and distractor regions at the bounds checks them, and a numpy
        # warning fails the test
        cfg = SynthConfig(seed=1, n_points=300, n_distractors=20, scale_range=scale_range)
        test = derive_test(generate_reference(cfg), default_sequence_homography(1, 800, 640), cfg)
        assert len(test) > 20

    # unchecked, 1e-78 (a c and b b overflow) and 1e81 (1 / r^4 underflows)
    # draw regions that are not positive definite, and 1e-200 overflows
    # with numpy warnings
    @pytest.mark.parametrize(
        "scale_range",
        [(math.nextafter(MIN_SCALE, 0.0), 1.0), (1.0, math.nextafter(MAX_SCALE, math.inf)),
         (1e-78, 1e-78), (1e81, 1e81), (1e-200, 1e-200)],
    )
    def test_scale_range_outside_bounds_rejected(self, scale_range):
        with pytest.raises(ValueError, match="scale_range"):
            SynthConfig(seed=1, n_points=0, n_distractors=5, scale_range=scale_range)


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
                # a keypoint file cannot hold D = 1
                descriptor_dim=int(rng.choice([0, 2, 3, 4, 5, 6, 7, 8])),
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
                (a, b), (b_low, c) = kp.region.shape.tolist()
                assert abs((a * c - b * b_low) ** -0.25 - r) < 1e-9

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
        h = Homography(np.eye(3))
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
            test = derive_test(ref, Homography(np.eye(3)), cfg)
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
                test = derive_test(ref, Homography(np.eye(3)), cfg)
                ev = evaluate_pair(ref, test, Homography(np.eye(3)), FAST)
                vals.append(ev.c1)
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2]

    def test_distractors_appended_with_bounded_cosine(self):
        cfg = SynthConfig(
            seed=29, n_points=40, descriptor_dim=16, n_distractors=15
        )
        ref = generate_reference(cfg)
        test = derive_test(ref, Homography(np.eye(3)), cfg)
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
        h = Homography(np.eye(3))
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
        h = Homography(np.eye(3))
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
        # one block of n against n uniform() / normal() calls of the oracle,
        # and the block that starts where it ends continues the stream
        blocks = {"uniform": uniform_blocks, "normal": normal_blocks}[kind]
        scalar = SplitMix64(seed)
        draw = getattr(scalar, kind)
        got = blocks([seed], n)
        want = np.array([draw() for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (1, n)
        assert got[0].tobytes() == want.tobytes()
        assert blocks([scalar.state], 1)[0, 0] == draw()

    @pytest.mark.parametrize("seed", BLOCK_SEEDS)
    def test_survival_step_is_one_draw(self, seed):
        scalar, state = SplitMix64(seed), seed
        for _ in range(50):
            state, u = _survival_step(state)
            assert u == scalar.uniform() and state == scalar.state


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
    a = oracle_homography_jacobian(h, region.center)
    a_inv = np.linalg.inv(a)
    # an overflow leaves a non-finite shape, which SecondMomentEllipse rejects
    with np.errstate(over="ignore", invalid="ignore"):
        shape = a_inv.T @ region.shape @ a_inv
    center = oracle_project_point(h, region.center)
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
    "identity": Homography(np.eye(3)),
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
        h = Homography(np.eye(3))
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
        h = Homography(np.eye(3))
        got = derive_test(zeroed, h, cfg)
        _assert_same_sets(got, old_derive_test(zeroed, h, cfg))
        assert np.array_equal(got.keypoints[0].descriptor, np.eye(dim)[0])

    @pytest.mark.parametrize("dropout", [0.0, 0.99])
    @pytest.mark.parametrize("dim", [0, 5])
    def test_dropout_extremes(self, dropout, dim):
        cfg = SynthConfig(seed=53, n_points=300, jitter_sigma=1.0, dropout_rate=dropout,
                          n_distractors=4, descriptor_dim=dim, descriptor_noise_sigma=0.2)
        ref = generate_reference(cfg)
        for name, h in DIFF_HOMOGRAPHIES.items():
            _assert_same_sets(derive_test(ref, h, cfg, name), old_derive_test(ref, h, cfg, name))

    @pytest.mark.parametrize("dim", [0, 3])
    def test_no_points(self, dim):
        cfg = SynthConfig(seed=59, n_points=0, n_distractors=3, descriptor_dim=dim)
        ref = generate_reference(cfg)
        _assert_same_sets(ref, old_generate_reference(cfg))
        got = derive_test(ref, DIFF_HOMOGRAPHIES["similarity"], cfg)
        _assert_same_sets(got, old_derive_test(ref, DIFF_HOMOGRAPHIES["similarity"], cfg))
        assert len(got) == 3

    def test_point_at_infinity_among_others(self):
        # half the points on the horizon w = 0 of the projective map, where
        # the per-point transport raises PointAtInfinity
        cfg = SynthConfig(seed=61, n_points=60, jitter_sigma=0.5, dropout_rate=0.2,
                          n_distractors=2, descriptor_dim=4)
        ref = generate_reference(cfg)
        h = DIFF_HOMOGRAPHIES["projective"]
        y = ref.centers[::2, 1]
        centers = ref.centers.copy()
        centers[::2, 0] = (1.0 + 0.0005 * y) / 0.002
        ref = KeypointSet(ref.image_id, 1600, 640, centers, ref.abc, ref.descriptors)
        assert homography_jacobians(h, centers)[2].sum() > 10
        _assert_same_sets(derive_test(ref, h, cfg), old_derive_test(ref, h, cfg))

    def test_singular_jacobians_among_others(self):
        # w = 1e151 x + 1e154: right of x = 340, w * w overflows, the
        # Jacobian rounds to a singular matrix and np.linalg.inv raises
        # LinAlgError, so the stacked inverse falls back to one at a time
        cfg = SynthConfig(seed=67, n_points=80, jitter_sigma=0.5, dropout_rate=0.1,
                          n_distractors=2, descriptor_dim=4)
        ref = generate_reference(cfg)
        h = Homography(np.array([[1e153, 0.0, 0.0], [0.0, 1e153, 0.0], [1e151, 0.0, 1e154]]))
        singular = 0
        for jac in homography_jacobians(h, ref.centers)[0]:
            try:
                np.linalg.inv(jac)
            except np.linalg.LinAlgError:
                singular += 1
        assert 0 < singular < len(ref)
        got = derive_test(ref, h, cfg)
        _assert_same_sets(got, old_derive_test(ref, h, cfg))
        assert 2 < len(got) < len(ref) - singular // 2

    def test_non_finite_transport_raises(self):
        # the map halves lengths, so the transported shape is 4e308: inf
        cfg = SynthConfig(seed=71, n_points=20, descriptor_dim=0)
        ref = generate_reference(cfg)
        abc = ref.abc.copy()
        abc[7] = (1e308, 0.0, 1e308)
        ref = KeypointSet(ref.image_id, ref.width, ref.height, ref.centers, abc, ref.descriptors)
        h = Homography(np.diag([0.5, 0.5, 1.0]))
        for impl in (derive_test, old_derive_test):
            with pytest.raises(ValueError, match="finite"):
                impl(ref, h, cfg)

    def test_culling_at_the_image_edges(self):
        # without jitter the identity keeps every center: those on the edges
        # stay, those one step outside are culled
        w, hgt = 800.0, 640.0
        below = np.nextafter(0.0, -1.0)
        above_w, above_h = np.nextafter(w, 2 * w), np.nextafter(hgt, 2 * hgt)
        centers = np.array([
            [0.0, 5.0], [w, 5.0], [5.0, 0.0], [5.0, hgt], [0.0, 0.0], [w, hgt],
            [below, 5.0], [above_w, 5.0], [5.0, below], [5.0, above_h], [-0.0, -0.0],
        ])
        cfg = SynthConfig(seed=73, n_points=len(centers), descriptor_dim=3)
        ref = generate_reference(cfg)
        ref = KeypointSet(ref.image_id, w, hgt, centers, ref.abc, ref.descriptors)
        got = derive_test(ref, Homography(np.eye(3)), cfg)
        _assert_same_sets(got, old_derive_test(ref, Homography(np.eye(3)), cfg))
        assert len(got) == 7

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


# ---------------------------------------------------------------------------
# Dataset bytes pinned by digest: every file that harness.synth_sequence and
# `repbench synth --homography ...` write, for the benchmark's workloads and
# for the generator's edge paths.
# ---------------------------------------------------------------------------


def _projective_ramp(k, tilt):
    """The built-in similarity of pair k followed by a projective tilt whose
    bottom row is [tilt[0] k, tilt[1] k, 1]."""
    p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [tilt[0] * k, tilt[1] * k, 1.0]])
    return Homography(p) @ default_sequence_homography(k, 800, 640)


def _synth_with_homographies(out, name, seed, n_points, jitter, jitter_end, dim, tilt):
    """`repbench synth` with one homography file per derived image."""
    h_args = []
    for k in range(1, 6):
        path = out.parent / f"{name}-H_{k}.txt"
        path.write_text(write_homography(_projective_ramp(k, tilt)))
        h_args += ["--homography", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(
            ["synth", "--out-dir", str(out), "--name", name, "--seed", str(seed), "--images", "6",
             "--n-points", str(n_points), "--dims", "800x640", "--jitter", str(jitter),
             "--jitter-end", str(jitter_end), "--dropout", "0.1", "--descriptor-dim", str(dim),
             "--descriptor-noise", "0.05", *h_args]
        )
    assert code == 0


def _synth_sequence(out, name, images=6, **kwargs):
    cfg = SynthConfig(**{"image_width": 800, "image_height": 640, "dropout_rate": 0.1,
                         "descriptor_noise_sigma": 0.05, **kwargs})
    synth_sequence(str(out), name, cfg, images=images)


DATASET_CASES = {
    # the benchmark's descriptor-m400 and ramp-projective settings
    **{
        f"descriptor-m400-seed{seed}": functools.partial(
            _synth_sequence, name="descriptor-m400", seed=seed, n_points=400, jitter_sigma=6.0,
            descriptor_dim=128,
        )
        for seed in (7, 1009)
    },
    **{
        f"ramp-projective-seed{seed}": functools.partial(
            _synth_with_homographies, name="ramp-projective", seed=seed, n_points=80,
            jitter=0.25, jitter_end=3.0, dim=16, tilt=(1e-4, 0.5e-4),
        )
        for seed in (7, 1009)
    },
    "no-descriptors": functools.partial(
        _synth_sequence, name="d0", seed=7, n_points=300, jitter_sigma=0.5, descriptor_dim=0
    ),
    "dropout-0.9": functools.partial(
        _synth_sequence, name="drop", seed=7, n_points=300, jitter_sigma=0.5,
        dropout_rate=0.9, descriptor_dim=16,
    ),
    # 2-D descriptors: the planted directions leave no gap for a distractor,
    # so every distractor falls back to the best of DISTRACTOR_TRIES
    "best-of-64-distractors": functools.partial(
        _synth_sequence, name="distract", images=3, seed=5, n_points=150, jitter_sigma=0.5,
        n_distractors=50, descriptor_dim=2,
    ),
    # the horizon w = 0 lies at x = 2000 / k: inside the image from k = 3 on
    "horizon-in-view": functools.partial(
        _synth_with_homographies, name="horizon", seed=7, n_points=300, jitter=0.5,
        jitter_end=2.0, dim=8, tilt=(-5e-4, 0.0),
    ),
}

DATASET_DIGESTS = {
    "best-of-64-distractors": """
        f83abdb6886d3cebbde0a437da3abc8f83b75cab7a6e97dd2f457085ae5393c4  H_1_2.txt
        f461855eeca0aa634699369bd9e6b5e8a1baad2724856f1aa1d7941bac25144c  H_1_3.txt
        caa2aeeef6539ceddde67502ec9e07cef8c5e33e718e4d97f79e6fc4ed13a220  img1.kpts
        bbba25485b9b03fa4bcc56abcae6ec077e5b4e63d34755e5f7e4b7d9a067306d  img2.kpts
        df33764dd002fedb653d5ad5399699270ba1d9a65e574fd2428542d499e97d7f  img3.kpts
        c4272778decfc70e27c8f433cd59841fe0fa8f46ee4eddc639f4244f83a4d162  manifest.json
    """,
    "descriptor-m400-seed1009": """
        f83abdb6886d3cebbde0a437da3abc8f83b75cab7a6e97dd2f457085ae5393c4  H_1_2.txt
        f461855eeca0aa634699369bd9e6b5e8a1baad2724856f1aa1d7941bac25144c  H_1_3.txt
        a23889cd6085ccaa04d8514ac835c1812cc2988809150298e030a5ba169dc241  H_1_4.txt
        d069e740416e62cf065518922624c5c912ac012d2d19685fb07df4a4ca153881  H_1_5.txt
        ac086bf70eae1ec4c8677380090d6d00978ecdac6dfec79d0abb45a86a480a0f  H_1_6.txt
        f55ab42045dcd56715cd02a977fa6f3eb1423a5a3c93c3bdae0581b503797316  img1.kpts
        416087bb593a4c1a871737f5bdb22cc1896f01229de3adfb911e5bbe885dad1a  img2.kpts
        cc85c1bb24269a57d87c741f7a36bf931e12f23570cfb0f0a11af4fb63208335  img3.kpts
        2eaa499f9339d00c1bccd5de4bcd59c6cb005fd6ffddd4bd0e99dda609e51d79  img4.kpts
        31c250551df149cbcbe68a6294ba14e97dc695e138a26b86c3dde11b8682a866  img5.kpts
        f506c9b1f13fe2bca72ef79a60eada1b63b2600b1e7e755846fd1200e05d212c  img6.kpts
        4edb0262a5097bf2ebcc8b18e77960fb4db66985081ab162b235179dec277357  manifest.json
    """,
    "descriptor-m400-seed7": """
        f83abdb6886d3cebbde0a437da3abc8f83b75cab7a6e97dd2f457085ae5393c4  H_1_2.txt
        f461855eeca0aa634699369bd9e6b5e8a1baad2724856f1aa1d7941bac25144c  H_1_3.txt
        a23889cd6085ccaa04d8514ac835c1812cc2988809150298e030a5ba169dc241  H_1_4.txt
        d069e740416e62cf065518922624c5c912ac012d2d19685fb07df4a4ca153881  H_1_5.txt
        ac086bf70eae1ec4c8677380090d6d00978ecdac6dfec79d0abb45a86a480a0f  H_1_6.txt
        bf716e3de6d1ce89748b099101a902ea64fe2e2302893860faf76cf8d9f06633  img1.kpts
        486d8b66fe4f4f7e52bfffdbedf92f58d23a7ba85d91f870f3d20144393bf7e0  img2.kpts
        581163dba3c318fffebabf8590609e063bd118e21c4a93481758e75fb6284cb5  img3.kpts
        8d1827bb7b66be73c25bbf8af94a9a8248ef84a13437808b9cda338f8905347d  img4.kpts
        b9bc49e7ea2d3dfd90e821374c54501d8354017eea17e831d245f3b3713ee119  img5.kpts
        77ae2716b9a7db5c7c34b155090c4d41f6f6f267bda6d2e32088ee8dc891e80c  img6.kpts
        4edb0262a5097bf2ebcc8b18e77960fb4db66985081ab162b235179dec277357  manifest.json
    """,
    "dropout-0.9": """
        f83abdb6886d3cebbde0a437da3abc8f83b75cab7a6e97dd2f457085ae5393c4  H_1_2.txt
        f461855eeca0aa634699369bd9e6b5e8a1baad2724856f1aa1d7941bac25144c  H_1_3.txt
        a23889cd6085ccaa04d8514ac835c1812cc2988809150298e030a5ba169dc241  H_1_4.txt
        d069e740416e62cf065518922624c5c912ac012d2d19685fb07df4a4ca153881  H_1_5.txt
        ac086bf70eae1ec4c8677380090d6d00978ecdac6dfec79d0abb45a86a480a0f  H_1_6.txt
        88004e0bd74326da5805c9c75b5edf0b8999a4f546a6a03fc251e0e0f8cdd611  img1.kpts
        9ef76c2d674ba69842913ec86b92f5b93ae6017a8031b204752eab3c3778c66e  img2.kpts
        5baacd4907d74317c5c0fae2f37a4f15c8bce7a481f70b18b01a857743f02b31  img3.kpts
        51fc521ed20a7448089b7f1ee71499b511bebd86b7afc2e90f60bba73f8530f9  img4.kpts
        4bca19db69d0d8618fff7cdbbf752f5807aacaa46c17bc2f7b8e11fbf7f56942  img5.kpts
        fafae377e4e8f97a9190add2904c963b6281a547f8713a29d42a47a3535e1db4  img6.kpts
        eb0efb5ff0db69c56ec93da26af880ad3a91a5e0d18889a5a0aa741d842b3d53  manifest.json
    """,
    "horizon-in-view": """
        53b02e11a50ef0c50c6ff75afa7f02656c52e3b11b0e128aa1e50e986f1fd452  H_1_2.txt
        7b1f4a021413b0e6b2514cc5b65babfab13d4062ec064700bd552ea1e0f2d9be  H_1_3.txt
        ffbb209f8f7e1804676e8b24d80b3503971f412bf6fea9b7e737d38cb30a738c  H_1_4.txt
        5836bf67b1479d3bab37cb17855994206c9cac4e48ebd8d0e04a8942478f5620  H_1_5.txt
        19177ec241a1c558e2fd4d5364f9194a833fb1ea640d1352cd5e4a056fa16517  H_1_6.txt
        006b94a4eb60bb2b7b3dbfb9cb82cae04897201dced3694d7d26ff654f81c857  img1.kpts
        616451a55c671824fdd3aec2a391a7b5bd5831fc5582392872297a6d513a96bc  img2.kpts
        e987739d20e72bdc3ddc4600cd1f63f8c7e84b767f6e71d2328dae5da6ab1f01  img3.kpts
        bd8f998e0b3a7932d541fcb0d32da1f8be7d8e65c0d1ce84a2a53146be5c8ca2  img4.kpts
        0ecb8186c190c5eb1e3ad33d99d3eed16231f92df29d8b9ee4ee4038a1020dd3  img5.kpts
        1d73dea26e464fa7015d8fd9c981f12bc637c12926e3aeb555c9b7e72b441df8  img6.kpts
        e894556f1e517f3adf5bcde14a4e973016f25413c99dd2d928f444a94efa2ef2  manifest.json
    """,
    "no-descriptors": """
        f83abdb6886d3cebbde0a437da3abc8f83b75cab7a6e97dd2f457085ae5393c4  H_1_2.txt
        f461855eeca0aa634699369bd9e6b5e8a1baad2724856f1aa1d7941bac25144c  H_1_3.txt
        a23889cd6085ccaa04d8514ac835c1812cc2988809150298e030a5ba169dc241  H_1_4.txt
        d069e740416e62cf065518922624c5c912ac012d2d19685fb07df4a4ca153881  H_1_5.txt
        ac086bf70eae1ec4c8677380090d6d00978ecdac6dfec79d0abb45a86a480a0f  H_1_6.txt
        fefa4f4e763433e1147638690a95a5f785d922ffb009be2d244729be45b3036a  img1.kpts
        ddef50cf03a331ca66c84b87e296986e37edc88ceb1747c53026dee7d89cc3ce  img2.kpts
        97f2fe1c4a3b037f8466083e27913da13bb95189644135cef61d668df946d94e  img3.kpts
        98306327e7e7351769ab8f018d43f427798eb0414e3f54d6af0176572667ffdd  img4.kpts
        07089a7081f7749a3ea86e7553fab65af7185c4d9d38e2b80bd09a46061f1319  img5.kpts
        f65e841b2d445a89d592ed234046ea73c7e42f77a76c9ed8f7f7408130118c24  img6.kpts
        5951af2057b227d39632769f83cb86d2320759a8517b0c585f9314151a66b816  manifest.json
    """,
    "ramp-projective-seed1009": """
        04c6862ef588a91a7e037b1a110bc021a360ecfcdce56a127b8b9a9db6a2c3eb  H_1_2.txt
        44dde6fe3eeed447a2335733fa006c895e40aa1a9e7a5e88443a6f1877bd74a1  H_1_3.txt
        995a83327debf3365e3938ac85eee818bc5d802c3e4eff5b6a6998b5275d3072  H_1_4.txt
        70bf4693d94e7345d360a09006a5b1ca4f646a694817130582e68b57c5262660  H_1_5.txt
        d733174faf419cf59908a59791911b8ea1a8eec70c4c3e1618f67d374866afe2  H_1_6.txt
        227c8034ba1e92b5c53f7542bd712415782eb2d135983675779be634f219141c  img1.kpts
        7be8ab913827c62a3da386de57428f117e44178379d39647269af8f15e090668  img2.kpts
        7b3e30fc5df80790e3790349f7b5c6d13717cf342e8c76f502f6b5823044225a  img3.kpts
        81f2ff42493a7825d7ad8d4dd4991c9a02e6707fbcf5d7bf8641a98c028eb169  img4.kpts
        5444236b57b419f08c0e25d565cd2edfa7d61af9b775944fa48d5194279b4e02  img5.kpts
        6e3b4d238c7c3620a62d0efd7186ed700646a257ecd77b5dbcec785660065e40  img6.kpts
        9b1f070dde7ee33cfbed653468feb2d62e7c7b4d564865188bfffe6130857b07  manifest.json
    """,
    "ramp-projective-seed7": """
        04c6862ef588a91a7e037b1a110bc021a360ecfcdce56a127b8b9a9db6a2c3eb  H_1_2.txt
        44dde6fe3eeed447a2335733fa006c895e40aa1a9e7a5e88443a6f1877bd74a1  H_1_3.txt
        995a83327debf3365e3938ac85eee818bc5d802c3e4eff5b6a6998b5275d3072  H_1_4.txt
        70bf4693d94e7345d360a09006a5b1ca4f646a694817130582e68b57c5262660  H_1_5.txt
        d733174faf419cf59908a59791911b8ea1a8eec70c4c3e1618f67d374866afe2  H_1_6.txt
        f8e8aa639e22a0af31faf5a98c7327337f5e166355415ec83960a8ed4e6a1145  img1.kpts
        cb701e77f83e541365d1ea25dfdc97569b428a370818c4dbde19fa472a8efd69  img2.kpts
        7ad65d4a135f200e4dd0e0a5c69c9f74bd795718c705c31f7f3137ebdaef3cc3  img3.kpts
        9dfe5f28eb7225990e8261db9874463cb934b7141ee15efcc2863775ab8a8439  img4.kpts
        3c453cb5d9d3fa560ac2a60a459506127d4602b0ed80ca19d35132b5f3519965  img5.kpts
        3823613f1e9b8281c17854de63ddbe7648d652a2aa44274dccab1deae176a5be  img6.kpts
        9b1f070dde7ee33cfbed653468feb2d62e7c7b4d564865188bfffe6130857b07  manifest.json
    """,
}


def _tree_digests(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("case", sorted(DATASET_CASES))
def test_dataset_bytes_pinned(case, tmp_path):
    out = tmp_path / "data"
    DATASET_CASES[case](out)
    want = dict(line.split()[::-1] for line in DATASET_DIGESTS[case].strip().splitlines())
    assert _tree_digests(out) == want


def test_pinned_distractors_fall_back_to_best_of_64(tmp_path):
    out = tmp_path / "data"
    DATASET_CASES["best-of-64-distractors"](out)
    test = parse_keypoints((out / "img2.kpts").read_text(), "img2", 800, 640)
    planted, distractors = test.descriptors[:-50], test.descriptors[-50:]
    assert (np.max(distractors @ planted.T, axis=1) > DISTRACTOR_MAX_COSINE).all()


def test_pinned_horizon_enters_the_image():
    for k in range(1, 6):
        h = _projective_ramp(k, (-5e-4, 0.0))
        w = h.m[2, 0] * np.array([0.0, 800.0]) + h.m[2, 2]
        assert (w[0] > 0.0 > w[1]) == (k >= 3)
