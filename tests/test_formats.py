import json
import math

import numpy as np
import pytest

from repbench.errors import (
    InvalidRegion,
    ManifestError,
    ParseError,
    SingularHomography,
)
from repbench.formats import (
    MAX_DIMENSION,
    _dump_json,
    _first_bad_row,
    KeypointSet,
    homography_path,
    load_homography,
    load_keypoints,
    load_manifest,
    parse_homography,
    parse_keypoints,
    parse_manifest,
    write_homography,
    write_keypoints,
)
from repbench.geometry import Homography
from repbench.harness import load_report


def random_keypoint_set(rng, with_descriptors=True):
    n = int(rng.integers(0, 40))
    dim = int(rng.integers(2, 12)) if with_descriptors else 0
    rows = np.empty((n, 5))
    descs = np.empty((n, dim))
    for k in range(n):
        u, v = rng.uniform(0, 640, 2)
        a, c = rng.uniform(0.01, 2.0, 2)
        b = rng.uniform(-1, 1) * np.sqrt(a * c) * 0.9
        rows[k] = u, v, a, b, c
        if dim:
            descs[k] = rng.normal(size=dim)
    return KeypointSet("img", 640, 480, rows[:, :2], rows[:, 2:], descs)


class TestKeypointRoundTrip:
    def test_fuzzed_round_trips_exact(self):
        rng = np.random.default_rng(21)
        for i in range(200):
            original = random_keypoint_set(rng, with_descriptors=bool(i % 2))
            text = write_keypoints(original)
            parsed = parse_keypoints(text, "img", 640, 480)
            assert parsed.descriptor_dim == original.descriptor_dim
            assert len(parsed) == len(original)
            for name in ("centers", "abc", "descriptors"):
                want = getattr(original, name)
                got = getattr(parsed, name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for kp_in, kp_out in zip(original.keypoints, parsed.keypoints):
                assert np.array_equal(kp_in.region.center, kp_out.region.center)
                assert np.array_equal(kp_in.region.shape, kp_out.region.shape)
                if original.descriptor_dim:
                    assert np.array_equal(kp_in.descriptor, kp_out.descriptor)

    # a dimension header of 1 would read back as "no descriptors"
    def test_one_dimensional_descriptors_cannot_be_written(self):
        kset = KeypointSet("img", 640, 480, [[1.0, 2.0]], [[1.0, 0.0, 1.0]], [[0.5]])
        with pytest.raises(ValueError, match="1-D descriptors"):
            write_keypoints(kset)

    def test_write_then_write_is_stable(self):
        rng = np.random.default_rng(22)
        s = random_keypoint_set(rng)
        text = write_keypoints(s)
        assert write_keypoints(parse_keypoints(text, "img", 640, 480)) == text


class TestKeypointGrammar:
    def test_descriptorless_header_variants(self):
        for header in ("1.0", "1", "0", "0.5", "-3"):
            text = f"{header}\n1\n10 20 0.5 0.0 0.5\n"
            s = parse_keypoints(text, "img", 100, 100)
            assert s.descriptor_dim == 0
            assert s.keypoints[0].descriptor is None

    def test_descriptor_header_as_real(self):
        text = "3.0\n1\n10 20 0.5 0.0 0.5 1 2 3\n"
        s = parse_keypoints(text, "img", 100, 100)
        assert s.descriptor_dim == 3
        assert np.array_equal(s.keypoints[0].descriptor, [1.0, 2.0, 3.0])

    def test_blank_lines_tolerated(self):
        text = "1.0\n2\n\n10 20 0.5 0.0 0.5\n\n30 40 0.5 0.0 0.5\n\n"
        assert len(parse_keypoints(text, "img", 100, 100)) == 2

    def test_blank_lines_reserve_no_rows(self):
        # a wide header over many blank lines must not size a row per line
        s = parse_keypoints("1000000000\n0\n" + "\n" * 100_000, "img", 10, 10)
        assert len(s) == 0 and s.descriptor_dim == 1_000_000_000

    def test_bytes_input(self):
        s = parse_keypoints(b"1.0\n0\n", "img", 10, 10)
        assert len(s) == 0

    def test_empty_set_round_trip(self):
        s = KeypointSet("img", 10, 10, np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 0)))
        assert len(parse_keypoints(write_keypoints(s), "img", 10, 10)) == 0


MALFORMED_KEYPOINTS = [
    ("", ParseError, "line 1"),
    ("\n", ParseError, "line 1"),
    ("x\n0\n", ParseError, "line 1"),
    ("1.5\n0\n", ParseError, "line 1"),
    ("nan\n0\n", ParseError, "line 1"),
    ("2 2\n0\n", ParseError, "line 1"),
    ("1.0\n", ParseError, "line 2"),
    ("1.0\nx\n", ParseError, "line 2"),
    ("1.0\n-1\n", ParseError, "line 2"),
    ("1.0\n2.5\n", ParseError, "line 2"),
    ("1.0\n1 1\n", ParseError, "line 2"),
    ("1.0\n2\n10 20 0.5 0.0 0.5\n", ParseError, "line 2"),
    ("1.0\n0\n10 20 0.5 0.0 0.5\n", ParseError, "declared 0 keypoints but found 1"),
    # a positive count over a body of blank lines (np.loadtxt would warn)
    ("3\n2\n\n\n", ParseError, "declared 2 keypoints but found 0"),
    # a count far beyond the file's lines is reported, not allocated
    ("1.0\n1000000000000\n10 20 0.5 0.0 0.5\n", ParseError, "line 2"),
    ("1.0\n1\n10 20 0.5 0.0\n", ParseError, "line 3"),
    ("1.0\n1\n10 20 0.5 0.0 0.5 7\n", ParseError, "line 3"),
    # "#" is a value, not a comment
    ("1.0\n1\n10 20 0.5 0.0 0.5 #\n", ParseError, "line 3"),
    ("1.0\n1\n10 twenty 0.5 0.0 0.5\n", ParseError, "line 3"),
    ("1.0\n1\nnan 20 0.5 0.0 0.5\n", InvalidRegion, "line 3"),
    ("1.0\n1\n10 20 inf 0.0 0.5\n", InvalidRegion, "line 3"),
    ("1.0\n1\n10 20 1.0 2.0 1.0\n", InvalidRegion, "line 3"),
    ("1.0\n1\n10 20 -1.0 0.0 0.5\n", InvalidRegion, "line 3"),
    ("1.0\n1\n10 20 0.0 0.0 0.5\n", InvalidRegion, "line 3"),
    ("2\n1\n10 20 0.5 0.0 0.5 1 nan\n", ParseError, "line 3"),
    # a bad region on an earlier line wins over a later non-finite descriptor
    ("2\n2\n10 20 1.0 2.0 1.0 1 2\n10 20 0.5 0.0 0.5 1 nan\n", InvalidRegion, "line 3"),
    # the rows before a malformed row are checked first
    ("2\n2\n10 20 1.0 2.0 1.0 1 nan\n10 x 0.5 0.0 0.5 1 2\n", InvalidRegion, "line 3"),
    # rows past the declared count are checked before the count mismatch
    ("1.0\n1\n10 20 0.5 0 0.5\n10 20 -1 0 0.5\n", InvalidRegion, "line 4"),
    # blank lines keep the numbering
    ("1.0\n3\n10 20 0.5 0 0.5\n\n10 20 0.5 0 nan\n", InvalidRegion, "line 5"),
    (b"\xff\xfe\x00bad", ParseError, "UTF-8"),
]


class TestMalformedKeypoints:
    @pytest.mark.parametrize("text,exc,fragment", MALFORMED_KEYPOINTS)
    def test_structured_errors(self, text, exc, fragment):
        with pytest.raises(exc) as info:
            parse_keypoints(text, "img", 100, 100)
        assert fragment in str(info.value)

    @pytest.mark.parametrize("parse", ["keypoints", "homography", "manifest"])
    def test_invalid_utf8_carries_its_line(self, parse):
        text = b"1.0\n1\n10 20 0.5 \xff 0.5\n"
        with pytest.raises(ParseError) as info:
            if parse == "keypoints":
                parse_keypoints(text, "img", 100, 100)
            elif parse == "homography":
                parse_homography(text)
            else:
                parse_manifest(text)
        assert info.value.line == 3
        assert info.value.reason.startswith("input is not valid UTF-8 text: ")

    def test_bad_descriptor_token_names_token_and_line(self):
        good = "10 20 0.5 0.0 0.5 1 2 3"
        text = f"3\n3\n{good}\n{good}\n10 20 0.5 0.0 0.5 1 2e x3\n"
        with pytest.raises(ParseError) as info:
            parse_keypoints(text, "img", 100, 100)
        assert type(info.value) is ParseError
        assert info.value.line == 5
        assert str(info.value) == "line 5: bad value '2e'"


class TestHomographyFiles:
    def test_parse_whitespace_layouts(self):
        flat = "2 0 1 0 2 -1 0 0 1"
        rows = "2 0 1\n0 2 -1\n0 0 1\n"
        assert np.array_equal(parse_homography(flat).m, parse_homography(rows).m)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(23)
        m = np.eye(3) + rng.normal(0, 0.2, (3, 3))
        m[2, 2] = 1.0
        h = Homography(m)
        again = parse_homography(write_homography(h))
        assert np.array_equal(h.m, again.m)

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_homography("1 2 3 4 5 6 7 8")
        with pytest.raises(ParseError):
            parse_homography("1 2 3 4 5 6 7 8 9 10")

    def test_bad_token_and_nonfinite(self):
        with pytest.raises(ParseError):
            parse_homography("1 2 3 4 x 6 7 8 9")
        with pytest.raises(ParseError):
            parse_homography("1 2 3 4 inf 6 7 8 9")

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("1 2 3\n4 x 6\n7 8 9\n", 2, "bad matrix entry 'x'"),
            ("1 2 3\n4 5 6\n\n7 8 inf\n", 4, "matrix entries must be finite"),
            ("nan 2 3 4 5 6 7 8 9", 1, "matrix entries must be finite"),
        ],
    )
    def test_entry_errors_carry_their_line(self, text, line, reason):
        with pytest.raises(ParseError) as info:
            parse_homography(text)
        assert info.value.line == line
        assert info.value.reason == reason

    def test_singular_matrix(self):
        with pytest.raises(SingularHomography):
            parse_homography("1 0 0 0 1 0 1 1 0")


def valid_manifest_doc():
    return {
        "name": "seq",
        "images": [
            {"id": "a", "width": 640, "height": 480, "keypoints": "a.kpts"},
            {"id": "b", "width": 640, "height": 480, "keypoints": "b.kpts", "label": "blur 2"},
        ],
        "homographies": [{"from": "a", "to": "b", "path": "H_a_b.txt"}],
    }


class TestManifest:
    def test_parse_valid(self):
        m = parse_manifest(json.dumps(valid_manifest_doc()))
        assert m["name"] == "seq"
        assert m["images"][0]["id"] == "a"
        assert m["images"][1]["label"] == "blur 2"
        assert homography_path(m, "b") == "H_a_b.txt"

    def test_round_trip(self):
        m = parse_manifest(json.dumps(valid_manifest_doc()))
        assert m == valid_manifest_doc()
        again = parse_manifest(_dump_json(m))
        assert again == m

    def test_unknown_keys_are_kept(self):
        doc = valid_manifest_doc()
        doc["version"] = 3
        doc["images"][0]["camera"] = {"focal": 2.5}
        doc["homographies"][0]["note"] = "estimated"
        assert parse_manifest(json.dumps(doc)) == doc

    def test_first_link_from_the_reference_wins(self):
        doc = valid_manifest_doc()
        doc["homographies"] = [
            {"from": "b", "to": "b", "path": "H_b_b.txt"},
            {"from": "a", "to": "b", "path": "first.txt"},
            {"from": "a", "to": "b", "path": "second.txt"},
        ]
        assert homography_path(parse_manifest(json.dumps(doc)), "b") == "first.txt"

    def test_missing_keys_named(self):
        doc = valid_manifest_doc()
        del doc["images"][0]["width"]
        with pytest.raises(ManifestError) as info:
            parse_manifest(json.dumps(doc))
        assert "width" in str(info.value)

    def test_integer_fields_rejected_as_bool_or_str(self):
        doc = valid_manifest_doc()
        doc["images"][0]["width"] = True
        with pytest.raises(ManifestError):
            parse_manifest(json.dumps(doc))
        doc["images"][0]["width"] = "640"
        with pytest.raises(ManifestError):
            parse_manifest(json.dumps(doc))

    def test_duplicate_image_id(self):
        doc = valid_manifest_doc()
        doc["images"][1]["id"] = "a"
        with pytest.raises(ManifestError):
            parse_manifest(json.dumps(doc))

    def test_reference_coverage_required(self):
        doc = valid_manifest_doc()
        doc["homographies"] = []
        with pytest.raises(ManifestError) as info:
            parse_manifest(json.dumps(doc))
        assert "b" in str(info.value)

    def test_keypoints_path_must_be_a_string(self):
        doc = valid_manifest_doc()
        doc["images"][1]["keypoints"] = 7
        with pytest.raises(ManifestError, match="images\\[1\\]: key 'keypoints' must be str"):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_dimensions_must_be_positive(self, key):
        doc = valid_manifest_doc()
        doc["images"][0][key] = 0
        with pytest.raises(ManifestError, match="images\\[0\\]: dimensions must be positive"):
            parse_manifest(json.dumps(doc))

    def test_no_images(self):
        with pytest.raises(ManifestError):
            parse_manifest(json.dumps({"name": "x", "images": []}))

    # unchecked, a number or null crashes the loop over the entries with a
    # TypeError, and an object or a string is read item by item
    @pytest.mark.parametrize("value", [5, None, {"from": "a"}, "H_a_b.txt"])
    def test_homographies_must_be_a_list(self, value):
        doc = valid_manifest_doc()
        doc["homographies"] = value
        with pytest.raises(ManifestError, match="manifest: key 'homographies' must be list"):
            parse_manifest(json.dumps(doc))

    # unchecked, a NaN label fails only when the finished report is
    # written, and a list label is copied into the report
    @pytest.mark.parametrize("value", [math.nan, ["blur", 2], 3, True, {"level": 2}])
    def test_label_must_be_a_string(self, value):
        doc = valid_manifest_doc()
        doc["images"][1]["label"] = value
        with pytest.raises(ManifestError, match="images\\[1\\]: key 'label' must be str"):
            parse_manifest(json.dumps(doc))

    def test_null_label_is_no_label(self):
        doc = valid_manifest_doc()
        doc["images"][1]["label"] = None
        m = parse_manifest(json.dumps(doc))
        assert m["images"][1]["label"] is None
        assert parse_manifest(_dump_json(m)) == m

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_manifest("{not json")
        with pytest.raises(ManifestError):
            parse_manifest("[1, 2]")

    def test_malformed_json_carries_its_line(self):
        text = '{\n  "name": "seq",\n  "images": [,]\n}\n'
        with pytest.raises(ParseError) as info:
            parse_manifest(text)
        assert info.value.line == 3
        assert info.value.reason.startswith("malformed JSON: ")

    # only links from the reference count: b -> a is not a link to a
    def test_unknown_homography_lookup(self):
        doc = valid_manifest_doc()
        doc["homographies"].append({"from": "b", "to": "a", "path": "H_b_a.txt"})
        m = parse_manifest(json.dumps(doc))
        assert homography_path(m, "a") is None
        assert homography_path(m, "c") is None

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_dimensions_must_be_exact_as_floats(self, key):
        doc = valid_manifest_doc()
        doc["images"][1][key] = MAX_DIMENSION
        parse_manifest(json.dumps(doc))
        doc["images"][1][key] = 10**400
        with pytest.raises(ManifestError) as info:
            parse_manifest(json.dumps(doc))
        assert str(info.value) == "images[1]: dimensions must be at most 2**53"


class TestLoaders:
    def test_load_keypoints_prefixes_path(self, tmp_path):
        p = tmp_path / "bad.kpts"
        p.write_text("oops\n0\n")
        with pytest.raises(ParseError) as info:
            load_keypoints(str(p), "img", 10, 10)
        assert "bad.kpts" in str(info.value)
        assert "line 1" in str(info.value)

    def test_load_keypoints_keeps_line_number(self, tmp_path):
        p = tmp_path / "bad.kpts"
        p.write_text("1.0\n2\n10 twenty 0.5 0.0 0.5\n")
        with pytest.raises(ParseError) as info:
            load_keypoints(str(p), "img", 100, 100)
        assert info.value.line == 3
        assert info.value.path == str(p)
        assert str(info.value) == f"{p}: line 3: bad value 'twenty'"

    def test_load_keypoints_keeps_error_type(self, tmp_path):
        p = tmp_path / "bad.kpts"
        p.write_text("1.0\n1\n10 20 -1.0 0.0 0.5\n")
        with pytest.raises(InvalidRegion) as info:
            load_keypoints(str(p), "img", 100, 100)
        assert info.value.line == 3
        assert str(info.value).count("line 3") == 1

    # a singular matrix is a ParseError, so it carries its path as a field
    def test_load_singular_homography_keeps_error_type(self, tmp_path):
        p = tmp_path / "H.txt"
        p.write_text("1 0 0\n0 1 0\n1 1 0\n")
        with pytest.raises(SingularHomography) as info:
            load_homography(str(p))
        assert (info.value.path, info.value.reason) == (str(p), "matrix has zero determinant")
        assert str(info.value) == f"{p}: matrix has zero determinant"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_keypoints(str(tmp_path / "nope.kpts"), "img", 10, 10)
        assert "nope.kpts" in str(info.value)

    def test_load_homography_and_manifest(self, tmp_path):
        hp = tmp_path / "H.txt"
        hp.write_text("1 0 0 0 1 0 0 0 1")
        assert np.array_equal(load_homography(str(hp)).m, np.eye(3))
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps(valid_manifest_doc()))
        assert load_manifest(str(mp))["name"] == "seq"
        with pytest.raises(ParseError):
            load_manifest(str(tmp_path / "missing.json"))

    # every loader reads through one path: each input error names the file
    @pytest.mark.parametrize(
        "load, malformed",
        [
            (lambda p: load_keypoints(p, "img", 10, 10), b"oops\n0\n"),
            (load_homography, b"1 0 0\n0 1 0\n"),
            (load_manifest, b"[1, 2]\n"),
            (load_report, b'{"schema": "other/1"}\n'),
        ],
        ids=["keypoints", "homography", "manifest", "report"],
    )
    @pytest.mark.parametrize("case", ["missing", "not-utf8", "malformed"])
    def test_every_loader_names_the_file(self, tmp_path, load, malformed, case):
        path = str(tmp_path / "input")
        if case != "missing":
            with open(path, "wb") as fh:
                fh.write(b"\xff\n" if case == "not-utf8" else malformed)
        with pytest.raises(ParseError) as info:
            load(path)
        assert info.value.path == path
        assert str(info.value).startswith(f"{path}: ")


def arrays(n=3, dim=0):
    """centers, abc and descriptors of n valid unit circles at (k, k)."""
    k = np.arange(n, dtype=float)
    return np.stack([k, k], axis=1), np.tile([1.0, 0.0, 1.0], (n, 1)), np.zeros((n, dim))


class TestKeypointSetValidation:
    def test_descriptor_arity_enforced(self):
        centers, abc, _ = arrays(1)
        with pytest.raises(ValueError, match="descriptors"):
            KeypointSet("img", 10, 10, centers, abc, np.zeros((0, 4)))
        with pytest.raises(ValueError, match="descriptors"):
            KeypointSet("img", 10, 10, centers, abc, np.zeros(4))
        with pytest.raises(ValueError):
            KeypointSet("img", 0, 10, centers, abc, np.zeros((1, 0)))

    # the one image-size rule: positive, and exact as a float
    def test_dimensions_bound(self):
        centers, abc, descriptors = arrays(1)
        KeypointSet("img", MAX_DIMENSION, MAX_DIMENSION, centers, abc, descriptors)
        for width, reason in ((0, "positive"), (math.nan, "positive"),
                              (MAX_DIMENSION + 1, r"at most 2\*\*53"), (math.inf, "at most")):
            with pytest.raises(ValueError, match=f"^dimensions must be {reason}"):
                KeypointSet("img", width, 10, centers, abc, descriptors)

    def test_centers_and_descriptors_arrays(self):
        rng = np.random.default_rng(24)
        s = random_keypoint_set(rng, with_descriptors=True)
        assert s.centers.shape == (len(s), 2)
        assert s.abc.shape == (len(s), 3)
        assert s.descriptors.shape == (len(s), s.descriptor_dim)
        for k, kp in enumerate(s.keypoints):
            assert np.array_equal(kp.region.center, s.centers[k])
            a, b, c = s.abc[k]
            assert np.array_equal(kp.region.shape, [[a, b], [b, c]])
            assert np.array_equal(kp.descriptor, s.descriptors[k])
        empty = KeypointSet("img", 10, 10, *arrays(0))
        assert empty.centers.shape == (0, 2)
        assert empty.descriptors.shape == (0, 0)
        assert empty.descriptor_dim == 0
        assert empty.keypoints == []

    @pytest.mark.parametrize(
        "centers,abc,descriptors,name",
        [
            ((3, 3), (3, 3), (3, 0), "centers"),
            ((3, 2), (2, 3), (3, 0), "abc"),
            ((3, 2), (3, 2), (3, 0), "abc"),
            ((3, 2), (3, 3), (2, 4), "descriptors"),
            ((3, 2), (3, 3), (3,), "descriptors"),
            ((6,), (3, 3), (3, 0), "centers"),
        ],
    )
    def test_mismatched_shapes(self, centers, abc, descriptors, name):
        with pytest.raises(ValueError, match=name):
            KeypointSet("img", 10, 10, np.ones(centers), np.ones(abc), np.ones(descriptors))

    @pytest.mark.parametrize("field,col", [(0, 1), (1, 2), (2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, field, col, bad):
        data = list(arrays(4, dim=4))
        data[field][2, col] = bad
        reason = ("keypoint center must be finite", "region coefficients must be finite",
                  "descriptor values must be finite")[field]
        with pytest.raises(ValueError, match=f"^keypoint 2: {reason}$"):
            KeypointSet("img", 10, 10, *data)

    def test_parser_and_constructor_name_the_same_fault(self):
        # not positive definite and a NaN descriptor: the region comes first
        centers, abc, descriptors = arrays(3, dim=2)
        abc[1] = [1.0, 2.0, 1.0]
        descriptors[1, 0] = np.nan
        reason = "region not positive definite (a=1, b=2, c=1)"
        assert _first_bad_row(centers, abc, descriptors) == (1, InvalidRegion, reason)
        with pytest.raises(ValueError) as info:
            KeypointSet("img", 10, 10, centers, abc, descriptors)
        assert str(info.value) == f"keypoint 1: {reason}"
        text = "2\n3\n0 0 1 0 1 0 0\n1 1 1 2 1 nan 0\n2 2 1 0 1 0 0\n"
        with pytest.raises(InvalidRegion) as info:
            parse_keypoints(text, "img", 10, 10)
        assert str(info.value) == f"line 4: {reason}"

    @pytest.mark.parametrize("row", [[-1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
    def test_non_positive_definite_row_named_by_index(self, row):
        centers, abc, descriptors = arrays(4)
        abc[1] = row
        abc[3, 0] = np.nan  # a later bad row does not hide the first one
        with pytest.raises(ValueError, match="^keypoint 1: region not positive definite"):
            KeypointSet("img", 10, 10, centers, abc, descriptors)

    def test_descriptorless_set_is_an_n_by_0_array(self):
        s = KeypointSet("img", 10, 10, *arrays(3))
        assert len(s) == 3
        assert s.descriptors.shape == (3, 0)
        assert s.descriptor_dim == 0
        assert all(kp.descriptor is None for kp in s.keypoints)
        assert write_keypoints(s).startswith("1.0\n3\n")
        with pytest.raises(AttributeError):
            s.descriptor_dim = 4

    def test_arrays_are_read_only_copies(self):
        centers, abc, descriptors = arrays(2, dim=3)
        s = KeypointSet("img", 10, 10, centers, abc, descriptors)
        descriptors[0, 0] = np.nan
        assert np.isfinite(s.descriptors).all()
        for name in ("centers", "abc", "descriptors"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(s, name)[0, 0] = np.nan
