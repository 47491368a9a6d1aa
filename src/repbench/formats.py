"""Parsers and writers for keypoint files, homography files, and manifests.

Keypoint files follow the plain-text affine-region convention emitted by the
usual detector tools:

    line 1: descriptor dimension D as a real; values <= 1.0 mean "no
            descriptors", values >= 2 are the descriptor length
    line 2: keypoint count N
    then N lines of "u v a b c" followed by D descriptor values, where the
    region is a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 = 1

Homography files hold 9 whitespace-separated reals, row-major.  Manifests are
JSON; see parse_manifest.  All parsers operate on in-memory text and either
return a valid value or raise a structured error carrying a line number.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRegion, ManifestError, ParseError
from .geometry import Homography, SecondMomentEllipse


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
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        n = len(self.centers)
        for name, cols in (("centers", 2), ("abc", 3), ("descriptors", None)):
            array = np.array(getattr(self, name), dtype=float)
            cols = array.shape[-1] if cols is None else cols
            if array.shape != (n, cols):
                raise ValueError(f"{name} must have shape ({n}, {cols}), got {array.shape}")
            array.flags.writeable = False
            setattr(self, name, array)
        finite = (
            np.isfinite(self.centers).all(axis=1)
            & np.isfinite(self.abc).all(axis=1)
            & np.isfinite(self.descriptors).all(axis=1)
        )
        a, b, c = self.abc.T
        # a * c may overflow to inf, which passes, as a Python float's did
        with np.errstate(invalid="ignore", over="ignore"):
            definite = (a > 0.0) & (c > 0.0) & (a * c - b * b > 0.0)
        bad = np.flatnonzero(~(finite & definite))
        if len(bad):
            k = int(bad[0])
            if not finite[k]:
                raise ValueError(f"keypoint {k}: values must be finite")
            raise ValueError(
                f"keypoint {k}: region not positive definite "
                f"(a={a[k]:g}, b={b[k]:g}, c={c[k]:g})"
            )

    def __len__(self):
        return len(self.centers)

    @property
    def descriptor_dim(self):
        return self.descriptors.shape[1]

    def region(self, k):
        """Region k as a SecondMomentEllipse, built on each call."""
        return SecondMomentEllipse.from_abc(*self.centers[k].tolist(), *self.abc[k].tolist())

    @property
    def keypoints(self):
        """A Keypoint per row, built on each access; descriptor None when D = 0."""
        return [
            Keypoint(self.region(k), self.descriptors[k] if self.descriptor_dim else None)
            for k in range(len(self))
        ]


@dataclass
class ManifestImage:
    id: str
    width: int
    height: int
    keypoints: str  # path to the keypoint file, relative to the manifest
    label: str | None = None


@dataclass
class ManifestHomography:
    from_id: str
    to_id: str
    path: str


@dataclass
class DatasetManifest:
    """An ordered image sequence; the first image is the reference and a
    homography must exist from it to every other image."""

    name: str
    images: list[ManifestImage]
    homographies: list[ManifestHomography] = field(default_factory=list)

    def reference(self):
        return self.images[0]

    def homography_path(self, from_id, to_id):
        for h in self.homographies:
            if h.from_id == from_id and h.to_id == to_id:
                return h.path
        raise ManifestError(f"no homography {from_id} -> {to_id}")


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


def parse_keypoints(text, image_id, width, height):
    """Parse detector output in the standard affine-region format."""
    lines = _as_text(text).splitlines()
    if not lines or not lines[0].split():
        raise ParseError("missing descriptor-dimension header", line=1)

    header = lines[0].split()
    if len(header) != 1:
        raise ParseError(
            f"expected 1 token on the dimension line, got {len(header)}", line=1
        )
    dim_value = _parse_real(header[0], 1, "descriptor dimension")
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

    if len(lines) < 2 or not lines[1].split():
        raise ParseError("missing keypoint count", line=2)
    count_tokens = lines[1].split()
    if len(count_tokens) != 1:
        raise ParseError(
            f"expected 1 token on the count line, got {len(count_tokens)}", line=2
        )
    count_value = _parse_real(count_tokens[0], 2, "keypoint count")
    if not math.isfinite(count_value) or count_value != int(count_value) or count_value < 0:
        raise ParseError(f"keypoint count must be a non-negative integer", line=2)
    count = int(count_value)

    expected_tokens = 5 + descriptor_dim
    # no more rows than lines, so a false count cannot inflate the array
    data = np.empty((min(count, len(lines) - 2), expected_tokens))
    found = 0
    for lineno0, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if not tokens:
            continue  # tolerate blank lines
        if len(tokens) != expected_tokens:
            raise ParseError(
                f"expected {expected_tokens} tokens, got {len(tokens)}", line=lineno0
            )
        try:
            values = list(map(float, tokens))
        except ValueError:
            # re-parse token by token to name the bad one
            values = [_parse_real(t, lineno0) for t in tokens]
        u, v, a, b, c = values[:5]
        if not all(math.isfinite(x) for x in (u, v)):
            raise InvalidRegion("keypoint center must be finite", line=lineno0)
        if not all(math.isfinite(x) for x in (a, b, c)):
            raise InvalidRegion("region coefficients must be finite", line=lineno0)
        if not (a > 0.0 and c > 0.0 and a * c - b * b > 0.0):
            raise InvalidRegion(
                f"region not positive definite (a={a:g}, b={b:g}, c={c:g})",
                line=lineno0,
            )
        if not all(map(math.isfinite, values[5:])):
            raise ParseError("descriptor values must be finite", line=lineno0)
        if found < len(data):
            data[found] = values
        found += 1

    if found != count:
        raise ParseError(f"declared {count} keypoints but found {found}", line=2)
    return KeypointSet(image_id, width, height, data[:, :2], data[:, 2:5], data[:, 5:])


def write_keypoints(kset):
    """Emit the standard format; parse(write(s)) reproduces s bit-for-bit
    (values are printed with full round-trip precision)."""
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


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ManifestError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is int:
        # bool is an int subclass; JSON integers only
        if isinstance(value, bool) or not isinstance(value, int):
            raise ManifestError(f"{where}: key {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise ManifestError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def parse_manifest(text):
    """Parse a dataset manifest.

    JSON schema: {"name": str,
                  "images": [{"id", "width", "height", "keypoints",
                              optional "label"}, ...],
                  "homographies": [{"from", "to", "path"}, ...]}
    The first image is the sequence reference; a homography must map it to
    every other image.
    """
    try:
        doc = json.loads(_as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")

    name = _require(doc, "name", str, "manifest")
    raw_images = _require(doc, "images", list, "manifest")
    if not raw_images:
        raise ManifestError("manifest must declare at least one image")
    images = []
    seen = set()
    for i, entry in enumerate(raw_images):
        where = f"images[{i}]"
        img = ManifestImage(
            id=_require(entry, "id", str, where),
            width=_require(entry, "width", int, where),
            height=_require(entry, "height", int, where),
            keypoints=_require(entry, "keypoints", str, where),
            label=entry.get("label"),
        )
        if img.width <= 0 or img.height <= 0:
            raise ManifestError(f"{where}: dimensions must be positive")
        if img.id in seen:
            raise ManifestError(f"{where}: duplicate image id {img.id!r}")
        seen.add(img.id)
        images.append(img)

    homographies = []
    for i, entry in enumerate(doc.get("homographies", [])):
        where = f"homographies[{i}]"
        homographies.append(
            ManifestHomography(
                from_id=_require(entry, "from", str, where),
                to_id=_require(entry, "to", str, where),
                path=_require(entry, "path", str, where),
            )
        )

    manifest = DatasetManifest(name, images, homographies)
    ref_id = images[0].id
    covered = {h.to_id for h in homographies if h.from_id == ref_id}
    for img in images[1:]:
        if img.id not in covered:
            raise ManifestError(
                f"no homography from reference {ref_id!r} to image {img.id!r}"
            )
    return manifest


def write_manifest(manifest):
    doc = {
        "name": manifest.name,
        "images": [
            {
                "id": img.id,
                "width": img.width,
                "height": img.height,
                "keypoints": img.keypoints,
                **({"label": img.label} if img.label is not None else {}),
            }
            for img in manifest.images
        ],
        "homographies": [
            {"from": h.from_id, "to": h.to_id, "path": h.path}
            for h in manifest.homographies
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path=path) from None


def load_keypoints(path, image_id, width, height):
    """Read and parse a keypoint file, prefixing errors with the path."""
    text = _read(path)
    try:
        return parse_keypoints(text, image_id, width, height)
    except ParseError as exc:
        raise exc.with_path(path) from None


def load_homography(path):
    text = _read(path)
    try:
        return parse_homography(text)
    except ParseError as exc:
        raise exc.with_path(path) from None


def load_manifest(path):
    text = _read(path)
    try:
        return parse_manifest(text)
    except ParseError as exc:
        raise exc.with_path(path) from None
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None
