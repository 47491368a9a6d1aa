"""Property tests of documented contracts, over drawn synthetic data:
evaluation results do not depend on keypoint order, sequence reports are
byte-identical for any worker count, and a homography whose horizon crosses
the reference image neither raises nor gives a rate outside [0, 1]."""

import math
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repbench.errors import SingularHomography
from repbench.formats import KeypointSet, load_manifest
from repbench.geometry import Homography
from repbench.harness import evaluate_sequence, sequence_report_csv, sequence_report_json, synth_sequence
from repbench.metrics import EvalConfig, evaluate_pair
from repbench.synth import SynthConfig, derive_test, generate_reference

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
WIDTH, HEIGHT = 240, 180


@st.composite
def projective(draw):
    """A similarity about the image centre with a small projective row, so
    the homogeneous weight stays near 1 over the image."""
    angle = draw(st.floats(-0.3, 0.3))
    scale = draw(st.floats(0.8, 1.25))
    tx, ty = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
    g, k = draw(st.floats(-4e-4, 4e-4)), draw(st.floats(-4e-4, 4e-4))
    co, si = scale * math.cos(angle), scale * math.sin(angle)
    return Homography(np.array([[co, -si, tx], [si, co, ty], [g, k, 1.0]]))


@st.composite
def horizon_crossing(draw):
    """A similarity whose projective row puts the horizon w = 0 through a
    drawn point of the reference image, at a drawn angle: w is the signed
    distance from that line times 1e-3 to 5e-2 per pixel, so part of the
    image maps beyond the line at infinity."""
    angle = draw(st.floats(-math.pi, math.pi))
    scale = draw(st.floats(0.5, 2.0))
    tx, ty = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    px, py = draw(st.floats(0, WIDTH)), draw(st.floats(0, HEIGHT))
    tilt = draw(st.floats(-math.pi, math.pi))
    slope = draw(st.floats(1e-3, 5e-2))
    g, k = slope * math.cos(tilt), slope * math.sin(tilt)
    co, si = scale * math.cos(angle), scale * math.sin(angle)
    m = np.array([[co, -si, tx], [si, co, ty], [g, k, -(g * px + k * py)]])
    try:
        return Homography(m)
    except SingularHomography:
        assume(False)


def synth_config(seed, n_points, jitter):
    return SynthConfig(
        seed=seed,
        n_points=n_points,
        image_width=WIDTH,
        image_height=HEIGHT,
        jitter_sigma=jitter,
        dropout_rate=0.1,
        n_distractors=3,
        descriptor_dim=4,
        descriptor_noise_sigma=0.05,
    )


def permuted(kset, order):
    return KeypointSet(
        kset.image_id,
        kset.width,
        kset.height,
        kset.centers[order],
        kset.abc[order],
        kset.descriptors[order],
    )


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(0, 80),
    jitter=st.floats(0.0, 2.0),
    h=projective(),
    matcher=st.sampled_from(["nn", "ratio"]),
    data=st.data(),
)
def test_evaluation_ignores_keypoint_order(seed, n_points, jitter, h, matcher, data):
    cfg = synth_config(seed, n_points, jitter)
    ref = generate_reference(cfg)
    test = derive_test(ref, h, cfg)
    ecfg = EvalConfig(matcher=matcher)
    ref_order = data.draw(st.permutations(range(len(ref))))
    test_order = data.draw(st.permutations(range(len(test))))

    want = evaluate_pair(ref, test, h, ecfg)
    for got in (
        evaluate_pair(permuted(ref, ref_order), test, h, ecfg),
        evaluate_pair(ref, permuted(test, test_order), h, ecfg),
    ):
        assert (got.n_rep, got.c1, got.c2, got.true_matches) == (
            want.n_rep,
            want.c1,
            want.c2,
            want.true_matches,
        )


@settings(PROPERTY, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(0, 40),
    jitter=st.floats(0.0, 2.0),
    hs=st.lists(projective(), min_size=1, max_size=4),
)
def test_sequence_report_same_for_any_worker_count(seed, n_points, jitter, hs):
    with tempfile.TemporaryDirectory() as out:
        path = synth_sequence(out, "prop", synth_config(seed, n_points, jitter), len(hs) + 1, hs)
        manifest = load_manifest(path)
        reports = [
            evaluate_sequence(manifest, out, EvalConfig(), workers=workers)
            for workers in (1, 2, 4)
        ]
    texts = {(sequence_report_json(r), sequence_report_csv(r)) for r in reports}
    assert len(texts) == 1


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(0, 80),
    jitter=st.floats(0.0, 2.0),
    h=horizon_crossing(),
    mild=projective(),
    derive_under_h=st.booleans(),
    matcher=st.sampled_from(["nn", "ratio"]),
    eq1_population=st.sampled_from(["common", "whole"]),
)
def test_horizon_inside_the_image(
    seed, n_points, jitter, h, mild, derive_under_h, matcher, eq1_population
):
    cfg = synth_config(seed, n_points, jitter)
    ref = generate_reference(cfg)
    # under h itself most points fold away; under a mild map most survive
    test = derive_test(ref, h if derive_under_h else mild, cfg)
    ev = evaluate_pair(ref, test, h, EvalConfig(matcher=matcher, eq1_population=eq1_population))
    for rate in (ev.eq1, ev.c1, ev.c2):
        assert rate is None or 0.0 <= rate <= 1.0
    assert 0 <= ev.true_matches <= min(len(ref), len(test))
