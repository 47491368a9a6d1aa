"""Parsers and writers for keypoint and homography files, and the parsers
of manifests and sequence reports.

Keypoint files follow the plain-text affine-region convention emitted by the
usual detector tools:

    line 1: descriptor dimension D as a real; values <= 1.0 mean "no
            descriptors", values >= 2 are the descriptor length
    line 2: keypoint count N
    then N lines of "u v a b c" followed by D descriptor values, where the
    region is a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 = 1

Homography files hold 9 whitespace-separated reals, row-major.  Manifests
and sequence reports are JSON; see parse_manifest and parse_report.  All
parsers operate on in-memory text and either return a valid value or raise
a structured error carrying a line number.  One rule (_first_bad_row) names
a bad keypoint row for the parser and KeypointSet alike, and one loader
(_load) reads every file and puts its path on the error.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegion, ManifestError, ParseError
from .geometry import Homography, SecondMomentEllipse, region_checks

SEQUENCE_SCHEMA = "repbench.sequence/1"
CRITERIA = ("eq1", "c1", "c2")
# the per-pair values a sequence report lists as series and as CSV columns
SERIES = CRITERIA + ("true_matches",)
# the largest image side: a side must stay exact as a float, as a count does
MAX_DIMENSION = 2**53


def check_dimensions(width, height):
    """The one image-size rule: ValueError unless width and height are
    positive and at most MAX_DIMENSION."""
    if not (width > 0 and height > 0):
        raise ValueError("dimensions must be positive")
    if not (width <= MAX_DIMENSION and height <= MAX_DIMENSION):
        raise ValueError("dimensions must be at most 2**53")


@dataclass(eq=False)
class Keypoint:
    region: SecondMomentEllipse
    descriptor: np.ndarray | None = None


@dataclass(eq=False)
class KeypointSet:
    """All regions detected in one image, with optional descriptors, as
    three float64 arrays: `centers` (N, 2), `abc` (N, 3), the coefficients
    of a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 <= 1, and `descriptors` (N, D),
    with D = 0 when the set has no descriptors.  The arrays are read-only
    copies, so the checks made on construction keep holding."""

    image_id: str
    width: int
    height: int
    centers: np.ndarray
    abc: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self):
        check_dimensions(self.width, self.height)
        n = len(self.centers)
        for name, cols in (("centers", 2), ("abc", 3), ("descriptors", None)):
            array = np.array(getattr(self, name), dtype=float)
            cols = array.shape[-1] if cols is None else cols
            if array.shape != (n, cols):
                raise ValueError(f"{name} must have shape ({n}, {cols}), got {array.shape}")
            array.flags.writeable = False
            setattr(self, name, array)
        bad = _first_bad_row(self.centers, self.abc, self.descriptors)
        if bad is not None:
            k, _, reason = bad
            raise ValueError(f"keypoint {k}: {reason}")

    def __len__(self):
        return len(self.centers)

    @property
    def descriptor_dim(self):
        return self.descriptors.shape[1]

    @property
    def keypoints(self):
        """A Keypoint per row, built on each access; descriptor None when D = 0."""
        rows = zip(self.centers.tolist(), self.abc.tolist(), self.descriptors)
        return [Keypoint(SecondMomentEllipse.from_abc(*center, *abc),
                         descriptor if self.descriptor_dim else None)
                for center, abc, descriptor in rows]


def _as_text(text):
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"input is not valid UTF-8 text: {exc}",
                line=text.count(b"\n", 0, exc.start) + 1,
            ) from None
    return text


def _parse_real(token, lineno, what="value"):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=lineno) from None
    return value


def _first_bad_row(centers, abc, descriptors):
    """The first row of centers (N, 2), abc (N, 3) and descriptors (N, D)
    that is not a valid keypoint, as (index, error class, reason), or None.

    Within a row the center is checked first, then the coefficients, then
    positive definiteness (geometry.region_checks), then the descriptors.
    """
    center_ok, abc_ok, definite = region_checks(centers, abc)
    descriptors_ok = np.isfinite(descriptors).all(axis=1)
    bad = np.flatnonzero(~(center_ok & abc_ok & definite & descriptors_ok))
    if not len(bad):
        return None
    k = int(bad[0])
    if not center_ok[k]:
        return k, InvalidRegion, "keypoint center must be finite"
    if not abc_ok[k]:
        return k, InvalidRegion, "region coefficients must be finite"
    if not definite[k]:
        a, b, c = abc[k].tolist()
        return k, InvalidRegion, f"region not positive definite (a={a:g}, b={b:g}, c={c:g})"
    return k, ParseError, "descriptor values must be finite"


def _parse_json(text):
    try:
        return json.loads(_as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", line=exc.lineno) from None


def _dump_json(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def parse_keypoints(text, image_id, width, height):
    """Parse detector output in the standard affine-region format.

    The body is read in one C pass (np.loadtxt, whose float conversion is
    the correctly rounded one float() uses), and its result is taken when
    it holds the declared count of 5 + D reals per row and KeypointSet
    accepts it, the one check of the rows.  Any other body goes to the
    per-line reader (_read_rows), which names the faulty line and accepts
    whatever float() accepts.
    """
    lines = _as_text(text).splitlines()
    dim_value = _header_real(lines, 1, "descriptor-dimension header", "dimension",
                             "descriptor dimension")
    if not math.isfinite(dim_value):
        raise ParseError("descriptor dimension must be finite", line=1)
    if dim_value <= 1.0:
        descriptor_dim = 0
    elif dim_value >= 2.0 and abs(dim_value - round(dim_value)) < 1e-9:
        descriptor_dim = int(round(dim_value))
    else:
        raise ParseError(
            f"descriptor dimension must be <= 1.0 or an integer >= 2, got {dim_value!r}",
            line=1,
        )

    count_value = _header_real(lines, 2, "keypoint count", "count", "keypoint count")
    if not math.isfinite(count_value) or count_value != int(count_value) or count_value < 0:
        raise ParseError(f"keypoint count must be a non-negative integer", line=2)
    count = int(count_value)

    body, expected_tokens = lines[2:], 5 + descriptor_dim
    data = None
    # loadtxt warns on a body with no data; "#" is a value here, not a comment
    if count and any(map(str.split, body)):
        try:
            data = np.loadtxt(body, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    if data is not None and data.shape == (count, expected_tokens):
        try:
            return KeypointSet(image_id, width, height, data[:, :2], data[:, 2:5], data[:, 5:])
        except ValueError:
            pass  # the per-line reader names the bad line
    data = _read_rows(body, count, expected_tokens)
    return KeypointSet(image_id, width, height, data[:, :2], data[:, 2:5], data[:, 5:])


def _header_real(lines, lineno, missing, name, what):
    """The one real on header line lineno (1-based) of lines: "missing
    {missing}" when the line is absent or blank, and an error naming the
    line when it holds more than one token or the token is not a real."""
    tokens = lines[lineno - 1].split() if len(lines) >= lineno else []
    if not tokens:
        raise ParseError(f"missing {missing}", line=lineno)
    if len(tokens) != 1:
        raise ParseError(f"expected 1 token on the {name} line, got {len(tokens)}", line=lineno)
    return _parse_real(tokens[0], lineno, what)


def _read_rows(body, count, expected_tokens):
    """The keypoint rows of body (the lines after the count line) as one
    (count, expected_tokens) array, read line by line with float().

    The rows are read up to the first that is not expected_tokens reals and
    then checked together (_first_bad_row).  An error names the line of the
    first bad row; a row that is not expected_tokens reals, and a count that
    does not match, are reported only once the rows before them pass.
    """
    rows, linenos, token_error = [], [], None
    try:
        for lineno, line in enumerate(body, start=3):
            tokens = line.split()
            if not tokens:
                continue  # tolerate blank lines
            if len(tokens) != expected_tokens:
                raise ParseError(
                    f"expected {expected_tokens} tokens, got {len(tokens)}", line=lineno
                )
            try:
                rows.append(list(map(float, tokens)))
            except ValueError:
                # re-parse token by token to name the bad one
                rows.append([_parse_real(t, lineno) for t in tokens])
            linenos.append(lineno)
    except ParseError as exc:
        token_error = exc  # raised once the rows before it pass their checks

    data = np.array(rows, dtype=float).reshape(len(rows), expected_tokens)
    centers, abc, descriptors = data[:, :2], data[:, 2:5], data[:, 5:]
    bad = _first_bad_row(centers, abc, descriptors)
    if bad is not None:
        k, error, reason = bad
        raise error(reason, line=linenos[k])
    if token_error is not None:
        raise token_error
    if len(data) != count:
        raise ParseError(f"declared {count} keypoints but found {len(data)}", line=2)
    return data


def write_keypoints(kset):
    """Emit the standard format; parse(write(s)) reproduces s bit-for-bit
    (values are printed with full round-trip precision).  A set with D = 1
    cannot be written: a dimension header of 1 means "no descriptors"."""
    if kset.descriptor_dim == 1:
        raise ValueError("a keypoint file cannot hold 1-D descriptors")
    out = ["1.0" if kset.descriptor_dim == 0 else str(kset.descriptor_dim), str(len(kset))]
    rows = np.hstack([kset.centers, kset.abc, kset.descriptors])
    out.extend(" ".join(map(repr, row)) for row in rows.tolist())
    return "\n".join(out) + "\n"


def parse_homography(text):
    """Read 9 whitespace-separated reals, row-major; any layout tolerated."""
    tokens = [
        (token, lineno)
        for lineno, line in enumerate(_as_text(text).splitlines(), 1)
        for token in line.split()
    ]
    if len(tokens) != 9:
        raise ParseError(f"expected 9 values, got {len(tokens)}")
    values = []
    for token, lineno in tokens:
        value = _parse_real(token, lineno, "matrix entry")
        if not math.isfinite(value):
            raise ParseError("matrix entries must be finite", line=lineno)
        values.append(value)
    return Homography(np.array(values).reshape(3, 3))


def write_homography(h):
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in h.m) + "\n"


def _is_a(value, kind):
    """isinstance for a JSON value: true and false (bool) are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ManifestError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not _is_a(value, kind):
        what = "an integer" if kind is int else kind.__name__
        raise ManifestError(f"{where}: key {key!r} must be {what}")
    return value


def parse_manifest(text):
    """Parse a dataset manifest and return its JSON document, checked.

    JSON schema: {"name": str,
                  "images": [{"id", "width", "height", "keypoints",
                              optional "label"}, ...],
                  "homographies": [{"from", "to", "path"}, ...]}
    The first image is the sequence reference; a homography must map it to
    every other image (homography_path).  A label is a string, or null or
    absent for none; "homographies" is a list, and may be left out for a
    single image.  Keys outside the schema are kept and ignored.
    """
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")

    _require(doc, "name", str, "manifest")
    images = _require(doc, "images", list, "manifest")
    if not images:
        raise ManifestError("manifest must declare at least one image")
    seen = set()
    for i, img in enumerate(images):
        where = f"images[{i}]"
        for key, kind in (("id", str), ("width", int), ("height", int), ("keypoints", str)):
            _require(img, key, kind, where)
        if img.get("label") is not None and not _is_a(img["label"], str):
            raise ManifestError(f"{where}: key 'label' must be str")
        try:
            check_dimensions(img["width"], img["height"])
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from None
        if img["id"] in seen:
            raise ManifestError(f"{where}: duplicate image id {img['id']!r}")
        seen.add(img["id"])

    links = doc.get("homographies", [])
    if not isinstance(links, list):
        raise ManifestError("manifest: key 'homographies' must be list")
    for i, link in enumerate(links):
        for key in ("from", "to", "path"):
            _require(link, key, str, f"homographies[{i}]")

    ref_id = images[0]["id"]
    for img in images[1:]:
        if homography_path(doc, img["id"]) is None:
            raise ManifestError(
                f"no homography from reference {ref_id!r} to image {img['id']!r}"
            )
    return doc


def homography_path(manifest, image_id):
    """The path of the first homography of a manifest document from its
    reference (the first image) to image_id, or None when it has none."""
    ref_id = manifest["images"][0]["id"]
    for link in manifest.get("homographies", []):
        if link["from"] == ref_id and link["to"] == image_id:
            return link["path"]
    return None


def parse_report(text):
    """The JSON document of a sequence report written by
    harness.sequence_report_json, with the series and pairs checked: each
    series value is null, a rate in [0, 1], or for true_matches an integer
    count in [0, 2**53), and a pair's descriptors_available, when given, is
    true or false."""
    doc = _parse_json(text)
    if not isinstance(doc, dict) or doc.get("schema") != SEQUENCE_SCHEMA:
        raise ParseError(f"not a {SEQUENCE_SCHEMA} report")
    for key, kind, what in (("dataset", str, "a string"), ("detector", str, "a string"),
                            ("series", dict, "an object")):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
        if not _is_a(doc[key], kind):
            raise ParseError(f"{key} must be {what}")
    series = doc["series"]
    lengths = set()
    for key in SERIES:
        if key not in series or not isinstance(series[key], list):
            raise ParseError(f"series.{key} must be a list")
        for v in series[key]:
            if v is None:
                continue
            if not _is_a(v, (int, float)):
                raise ParseError(f"series.{key} holds a non-number")
            # json.loads reads NaN and Infinity, which reports never hold
            if isinstance(v, float) and not math.isfinite(v):
                raise ParseError(f"series.{key} holds a non-finite number")
            # a count must stay exact as a float, which the statistics use
            if key == "true_matches" and not (_is_a(v, int) and 0 <= v < 2**53):
                raise ParseError("series.true_matches holds a value that is not "
                                 "an integer in [0, 2**53)")
            if key != "true_matches" and not 0.0 <= v <= 1.0:
                raise ParseError(f"series.{key} holds a rate outside [0, 1]")
        lengths.add(len(series[key]))
    if len(lengths) != 1:
        raise ParseError("series lengths differ")
    pairs = doc.get("pairs", [])
    if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
        raise ParseError("pairs must be a list of objects")
    for i, p in enumerate(pairs):
        # the correlations read it: 0 or "no" must not pass for descriptors
        if not isinstance(p.get("descriptors_available", True), bool):
            raise ParseError(f"pairs[{i}].descriptors_available must be true or false")
    return doc


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=path) from None


def _load(path, parse, *args):
    """parse(bytes of file path, *args), with every input error (a
    ParseError) naming the file."""
    text = _read(path)
    try:
        return parse(text, *args)
    except ParseError as exc:
        raise exc.with_path(path) from None


def load_keypoints(path, image_id, width, height):
    return _load(path, parse_keypoints, image_id, width, height)


def load_homography(path):
    return _load(path, parse_homography)


def load_manifest(path):
    return _load(path, parse_manifest)
