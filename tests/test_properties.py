"""Property tests of documented contracts, over drawn synthetic data:
evaluation results do not depend on keypoint order, sequence reports are
byte-identical for any worker count and any order of the manifest's links,
a pair's candidate table does not depend on the other pairs it is built
with,
a homography whose horizon crosses the reference image neither raises nor
gives a rate outside [0, 1], the multi-start draw kernels give the stream
of the scalar oracle generator (tests/oracle.py), the keypoint
parser's C pass reads what the per-line reader reads, and nn_match is the
full-sort greedy even when every row runs out of listed entries."""

import json
import math
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repbench import matching

from repbench.errors import ParseError, SingularHomography
from repbench.formats import KeypointSet, _read_rows, load_manifest, parse_keypoints
from repbench.geometry import Homography
from repbench.harness import evaluate_sequence, sequence_report_csv, sequence_report_json, synth_sequence
from repbench.metrics import EvalConfig, candidate_tables, evaluate_pair
from repbench.synth import SynthConfig, derive_test, generate_reference, normal_blocks, uniform_blocks
from oracle import SplitMix64
from test_matching_kernel import as_set, full_sort_nn

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
    matcher=st.sampled_from(["nn", "ratio"]),
)
def test_sequence_report_same_for_any_worker_count(seed, n_points, jitter, hs, matcher):
    with tempfile.TemporaryDirectory() as out:
        path = synth_sequence(out, "prop", synth_config(seed, n_points, jitter), len(hs) + 1, hs)
        manifest = load_manifest(path)
        reports = [
            evaluate_sequence(manifest, out, EvalConfig(matcher=matcher), workers=workers)
            for workers in (1, 2, 4)
        ]
    texts = {(sequence_report_json(r), sequence_report_csv(r)) for r in reports}
    assert len(texts) == 1


@settings(PROPERTY, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    images=st.integers(2, 5),
    data=st.data(),
)
def test_sequence_report_same_for_any_link_order(seed, images, data):
    """Only the first link from the reference to an image is used: the
    report bytes do not move when the links are shuffled or links between
    other images (to files that do not exist) are added."""
    with tempfile.TemporaryDirectory() as out:
        path = synth_sequence(out, "links", synth_config(seed, 20, 0.5), images)
        with open(path) as fh:
            doc = json.load(fh)
        others = [img["id"] for img in doc["images"][1:]]
        extra = data.draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(others)),
                                   max_size=4))
        links = doc["homographies"] + [
            {"from": a, "to": b, "path": f"missing_{a}_{b}.txt"} for a, b in extra
        ]
        doc["homographies"] = data.draw(st.permutations(links))
        edited = os.path.join(out, "edited.json")
        with open(edited, "w") as fh:
            json.dump(doc, fh)
        reports = [evaluate_sequence(load_manifest(p), out, EvalConfig()) for p in (path, edited)]
    texts = {(sequence_report_json(r), sequence_report_csv(r)) for r in reports}
    assert len(texts) == 1


# a few shapes, so that lattice regions tie on their overlap errors
LATTICE_SHAPES = np.array([[1 / 9, 0.0, 1 / 9], [1 / 16, 0.0, 1 / 16], [0.2, 0.05, 0.1]])


@st.composite
def lattice_set(draw, width, height, centers=None):
    """Centres on the 1/8 px lattice, drawn or the given ones rounded to it
    with some repeated, shapes from LATTICE_SHAPES; no descriptors."""
    if centers is None:
        n = draw(st.integers(0, 40))
        centers = draw(arrays(np.int64, (n, 2), elements=st.integers(0, 8 * min(width, height))))
    else:
        repeats = draw(st.lists(st.integers(0, len(centers) - 1), max_size=5)
                       if len(centers) else st.just([]))
        centers = np.round(np.r_[centers, centers[repeats]] * 8.0)
    shapes = draw(arrays(np.int64, len(centers), elements=st.integers(0, 2)))
    return KeypointSet("img", width, height, centers / 8.0, LATTICE_SHAPES[shapes],
                       np.empty((len(centers), 0)))


@st.composite
def batch_pair(draw, ref):
    """A (test, h) pair for ref under its own projective tilt: a synthetic
    test set derived from ref, a test set on the 1/8 px lattice near ref's
    projected centres, or a test set whose common part with ref is empty,
    each in a test image of its own size."""
    h = draw(projective())
    width, height = draw(st.integers(40, 400)), draw(st.integers(40, 400))
    kind = draw(st.sampled_from(["derived", "lattice", "disjoint"]))
    if kind == "derived":
        cfg = synth_config(draw(st.integers(0, 2**32 - 1)), 0, draw(st.floats(0.0, 2.0)))
        test = derive_test(ref, h, replace(cfg, descriptor_dim=ref.descriptor_dim))
        return KeypointSet("img", width, height, test.centers, test.abc, test.descriptors), h
    if kind == "disjoint":
        h = Homography(np.array([[1.0, 0.0, 1e4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])) @ h
    proj = h.m @ np.c_[ref.centers, np.ones(len(ref))].T
    centers = (proj[:2] / proj[2]).T.reshape(-1, 2)
    return draw(lattice_set(width, height, centers)), h


@settings(PROPERTY, max_examples=40)
@given(
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(0, 60),
    cfg=st.sampled_from([EvalConfig(), EvalConfig(epsilon_px=4.0),
                         EvalConfig(normalize_radius=None, grid_step=0.5),
                         EvalConfig(epsilon_px=4.0, max_overlap_error=0.9)]),
    data=st.data(),
)
def test_candidate_tables_do_not_depend_on_their_batch(lattice, seed, n_points, cfg, data):
    """Each pair's table from a batch of 0 to 6 pairs is the table built
    for it alone: the same common part, the same keys in the same order,
    and the bits of every overlap error and centre distance."""
    if lattice:
        ref = data.draw(lattice_set(WIDTH, HEIGHT))
    else:
        ref = generate_reference(synth_config(seed, n_points, 0.0))
    pairs = data.draw(st.lists(batch_pair(ref), max_size=6))
    tables = candidate_tables(ref, pairs, cfg)
    assert len(tables) == len(pairs)
    for table, pair in zip(tables, pairs):
        (want,) = candidate_tables(ref, [pair], cfg)
        for got_part, want_part in zip(table[:2] + table[2][:2], want[:2] + want[2][:2]):
            assert got_part.dtype == want_part.dtype == np.intp
            assert got_part.tolist() == want_part.tolist()
        assert [e.hex() for e in table[2][2].tolist()] == [e.hex() for e in want[2][2].tolist()]
        assert table[2][3].tobytes() == want[2][3].tobytes()


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


@PROPERTY
@given(
    # the second range starts the streams just below 2**64, so the state
    # wraps on the first draw
    starts=st.lists(st.integers(0, 2**64 - 1) | st.integers(2**64 - 2**12, 2**64 - 1),
                    max_size=4),
    n=st.integers(0, 300),
)
def test_block_draws_equal_scalar_draws(starts, n):
    uniforms, normals = uniform_blocks(starts, n), normal_blocks(starts, n)
    assert uniforms.shape == normals.shape == (len(starts), n)
    for row, start in enumerate(starts):
        for block, draw in ((uniforms, SplitMix64.uniform), (normals, SplitMix64.normal)):
            rng = SplitMix64(start)
            assert block[row].tobytes() == np.array([draw(rng) for _ in range(n)]).tobytes()


# tokens that only float() reads (1_0, full-width digits), that neither
# reads (#, x), and values that are not finite, overflow or underflow
ODD_TOKENS = ["1_0", "１２", "#", "x", "inf", "-inf", "nan", "-nan", "1e500", "1e-400"]
# str.split separates on all of these (numpy 2's np.loadtxt does too)
SEPARATORS = [" ", "  ", "\t", "\xa0", "\x1f"]
BLANK_LINES = ["", " ", "\t", "\xa0", "\x1f"]


@st.composite
def keypoint_file(draw):
    """A keypoint file as (text, declared count, D): rows of a valid region
    and D finite values, each possibly given an odd token, one token too
    many or too few, an odd separator or a blank line after it, under a
    count that may be off by one, with LF or CRLF line ends."""
    dim = draw(st.sampled_from([0, 2, 5]))
    finite = st.floats(-1e3, 1e3)
    lines = [draw(st.sampled_from(BLANK_LINES))] if draw(st.booleans()) else []
    n_rows = draw(st.integers(0, 5))
    for _ in range(n_rows):
        a, c = draw(st.floats(0.01, 10)), draw(st.floats(0.01, 10))
        b = draw(st.floats(-0.99, 0.99)) * math.sqrt(a * c)
        tokens = [repr(v) for v in [draw(finite), draw(finite), a, b, c]]
        tokens += [repr(draw(finite)) for _ in range(dim)]
        edit = draw(st.sampled_from(["none"] * 6 + ["odd", "extra", "short"]))
        if edit == "odd":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "extra":
            tokens.append(draw(st.sampled_from(ODD_TOKENS + ["1.0"])))
        elif edit == "short":
            tokens.pop()
        lines.append(draw(st.sampled_from(SEPARATORS)).join(tokens))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
    count = max(0, n_rows + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    header = ["1.0" if dim == 0 else str(dim), str(count)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(header + lines) + newline, count, dim


def read_outcome(read):
    """The array read() returns as (shape, bytes), or the error it raises as
    (class, line, message)."""
    try:
        data = read()
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return data.shape, data.tobytes()


@settings(PROPERTY, max_examples=400)
@given(case=keypoint_file())
def test_c_pass_reads_what_the_per_line_reader_reads(case):
    text, count, dim = case

    def parsed():
        s = parse_keypoints(text, "img", 100, 100)
        return np.hstack([s.centers, s.abc, s.descriptors])

    per_line = read_outcome(lambda: _read_rows(text.splitlines()[2:], count, 5 + dim))
    assert read_outcome(parsed) == per_line


@st.composite
def tie_heavy_pair(draw):
    """Integer descriptors in {0, 1, 2}, so most distances tie with others."""
    dim = draw(st.integers(2, 4))
    side = st.integers(1, 16)
    values = st.integers(0, 2)
    a = draw(arrays(np.int64, (draw(side), dim), elements=values))
    b = draw(arrays(np.int64, (draw(side), dim), elements=values))
    return a.astype(float), b.astype(float)


@settings(PROPERTY, max_examples=300)
@given(pair=tie_heavy_pair())
def test_nn_match_is_the_full_sort_greedy_with_one_entry_lists(pair):
    """With one entry listed per row, a row whose column is taken is left
    with a placeholder and listed again over the free columns; the matches
    are still those of the greedy over every distance sorted, exact ties by
    (ref index, test index)."""
    a, b = pair
    with mock.patch.object(matching, "NN_LIST_LENGTH", 1):
        got = matching.nn_match(as_set(a), as_set(b)).tolist()
    assert got == full_sort_nn(a, b)
