"""Seeded synthetic detector output: planted keypoints moved by a known
homography, with jitter, dropout, and distractors.

Reproducibility contract
------------------------
All randomness comes from SplitMix64, chosen because its recurrence fits in
four lines and can be re-implemented bit-for-bit in any language:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

Uniforms in (0, 1) are ((output >> 11) + 0.5) * 2^-53.  Normal deviates use
Box-Muller, z = sqrt(-2 ln u1) * cos(2 pi u2), consuming exactly two uniforms
per deviate with no caching of the sine branch.  SplitMix64.uniforms(n) and
normals(n) draw n values as one block, bit-identical to n scalar calls.  The
draw order per keypoint is fixed and documented on each operation, so
identical configs give byte-identical keypoint files.  Derived test images
use the independent stream seeded with seed XOR 0xD1B54A32D192ED03.
"""

import math
from dataclasses import dataclass

import numpy as np

from .formats import KeypointSet
from .geometry import SecondMomentEllipse, homography_jacobian, project_point
from .errors import DegenerateRegion, PointAtInfinity

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Block draws keep every operand uint64: a Python int operand could promote
# the array to float64 under numpy 1.x.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
TEST_STREAM_SALT = 0xD1B54A32D192ED03

MAX_AXIS_RATIO = 3.0
DISTRACTOR_MAX_COSINE = 0.9
DISTRACTOR_TRIES = 64


class SplitMix64:
    """The 64-bit SplitMix generator; recurrence in the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform in the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def normal(self):
        """Standard normal via Box-Muller; always consumes two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def uniforms(self, n):
        """n uniforms as a float64 array, bit-identical to n uniform() calls.

        Draw k of the block mixes state + k * golden (wrapping uint64), so
        the whole block is computed at once and state ends where the n
        scalar calls would leave it.
        """
        with np.errstate(over="ignore"):
            z = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_U64 + np.uint64(self.state)
            z = (z ^ (z >> _U30)) * _MIX1_U64
            z = (z ^ (z >> _U27)) * _MIX2_U64
            z ^= z >> _U31
        self.state = (self.state + int(n) * _GOLDEN) & _MASK64
        return ((z >> _U11).astype(np.float64) + 0.5) * 2.0 ** -53

    def normals(self, n):
        """n normals as a float64 array, bit-identical to n normal() calls.

        log and cos are libm's (math), element by element: numpy's SIMD
        versions differ from them in the last bit on some inputs.  sqrt and
        the products are correctly rounded, so numpy computes those.
        """
        u = self.uniforms(2 * n)
        logs = np.fromiter(map(math.log, u[0::2].tolist()), np.float64, n)
        coss = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), np.float64, n)
        return np.sqrt(-2.0 * logs) * coss


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_points: int = 300
    image_width: int = 800
    image_height: int = 640
    scale_range: tuple = (2.0, 6.0)
    jitter_sigma: float = 0.0
    dropout_rate: float = 0.0
    n_distractors: int = 0
    descriptor_dim: int = 16
    descriptor_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.n_points < 0:
            raise ValueError("n_points must be >= 0")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        lo, hi = self.scale_range
        if not 0.0 < lo <= hi:
            raise ValueError("scale_range must satisfy 0 < min <= max")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        if self.descriptor_dim < 0:
            raise ValueError("descriptor_dim must be >= 0")
        if self.descriptor_noise_sigma < 0:
            raise ValueError("descriptor_noise_sigma must be >= 0")


def _random_region(rng, cfg):
    """One random ellipse as its row (cx, cy, a, b, c); draw order cx, cy,
    r, q, theta.

    r is the equivalent radius (the ellipse has the area of a circle of
    radius r), q in [1, MAX_AXIS_RATIO] the axis ratio, theta the major-axis
    angle in [0, pi).
    """
    ux, uy, ur, uq, ut = rng.uniforms(5).tolist()
    cx = ux * cfg.image_width
    cy = uy * cfg.image_height
    lo, hi = cfg.scale_range
    r = lo + ur * (hi - lo)
    q = 1.0 + uq * (MAX_AXIS_RATIO - 1.0)
    theta = ut * math.pi
    major = r * math.sqrt(q)
    minor = r / math.sqrt(q)
    d1 = 1.0 / (major * major)
    d2 = 1.0 / (minor * minor)
    co, si = math.cos(theta), math.sin(theta)
    return cx, cy, co * co * d1 + si * si * d2, co * si * (d1 - d2), si * si * d1 + co * co * d2


def _unit_descriptor(rng, dim):
    return _normalized(rng.normals(dim))


def _normalized(v):
    """v scaled to unit norm; the zero vector becomes e1, without a draw."""
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        e1 = np.zeros_like(v)
        e1[0] = 1.0
        return e1
    return v / norm


def generate_reference(cfg, image_id="ref"):
    """Plant cfg.n_points keypoints uniformly over the image.

    Per point the stream consumes, in order: center (2 uniforms), equivalent
    radius, axis ratio, orientation (1 uniform each), then descriptor_dim
    normals for the unit-norm descriptor.
    """
    rng = SplitMix64(cfg.seed)
    rows = []
    descs = []
    for _ in range(cfg.n_points):
        rows.append(_random_region(rng, cfg))
        if cfg.descriptor_dim:
            descs.append(_unit_descriptor(rng, cfg.descriptor_dim))
    return _keypoint_set(image_id, cfg, rows, descs)


def _keypoint_set(image_id, cfg, rows, descs):
    """KeypointSet of region rows (u, v, a, b, c) and their descriptors."""
    regions = np.array(rows, dtype=float).reshape(len(rows), 5)
    descriptors = np.array(descs, dtype=float).reshape(len(rows), cfg.descriptor_dim)
    return KeypointSet(
        image_id, cfg.image_width, cfg.image_height, regions[:, :2], regions[:, 2:], descriptors
    )


def _transport_region(center, abc, h):
    """Image under h of the reference region (center, abc), linearized at
    its center."""
    a, b, c = abc.tolist()
    jac_inv = np.linalg.inv(homography_jacobian(h, center))
    shape = jac_inv.T @ np.array([[a, b], [b, c]]) @ jac_inv
    return SecondMomentEllipse(project_point(h, center), 0.5 * (shape + shape.T))


def _distractor_descriptor(rng, dim, planted):
    """Unit descriptor rejection-sampled away from all planted descriptors.

    Keeps the first candidate whose largest cosine against the planted set is
    at most DISTRACTOR_MAX_COSINE; after DISTRACTOR_TRIES candidates the best
    one seen is used.  Either way the stream then stands DISTRACTOR_TRIES *
    dim normals (two uniforms each) past where it started, so where later
    draws sit in the stream never depends on the descriptors.
    """
    start = rng.state
    best = None
    best_cos = math.inf
    for _ in range(DISTRACTOR_TRIES):
        cand = _unit_descriptor(rng, dim)
        worst = float(np.max(planted @ cand)) if len(planted) else -1.0
        if worst <= DISTRACTOR_MAX_COSINE:
            best = cand
            break
        if worst < best_cos:
            best_cos = worst
            best = cand
    rng.state = (start + DISTRACTOR_TRIES * 2 * dim * _GOLDEN) & _MASK64
    return best


def derive_test(ref, h, cfg, image_id="test"):
    """Detector output for the transformed view of a planted reference set.

    Stream: seed XOR TEST_STREAM_SALT.  Per reference point, in index order:
    one uniform decides survival (survive iff u >= dropout_rate; dropped
    points consume nothing further).  Each survivor then draws jitter (2
    normals) and, when descriptors are present, descriptor noise
    (descriptor_dim normals) regardless of the sigma values, so streams stay
    aligned when only the magnitudes change; a noisy descriptor of norm 0
    becomes e1 without a draw.  Survivors jittered out of [0, W] x [0, H]
    are culled after their draws.  Finally n_distractors
    random keypoints are appended (same draw order as generate_reference,
    with rejection-sampled descriptors); each takes a fixed block of the
    stream, 5 uniforms and DISTRACTOR_TRIES * descriptor_dim normals.
    """
    rng = SplitMix64(cfg.seed ^ TEST_STREAM_SALT)
    rows = []
    descs = []
    for k in range(len(ref)):
        if rng.uniform() < cfg.dropout_rate:
            continue
        # jitter x, jitter y, then the descriptor noise, in one block
        draws = rng.normals(2 + cfg.descriptor_dim)
        try:
            moved = _transport_region(ref.centers[k], ref.abc[k], h)
        except (PointAtInfinity, DegenerateRegion, np.linalg.LinAlgError):
            continue
        center = moved.center + draws[:2] * cfg.jitter_sigma
        if not (
            0.0 <= center[0] <= cfg.image_width
            and 0.0 <= center[1] <= cfg.image_height
        ):
            continue
        (a, b), (_, c) = moved.shape.tolist()
        rows.append((*center.tolist(), a, b, c))
        if cfg.descriptor_dim:
            descs.append(
                _normalized(ref.descriptors[k] + draws[2:] * cfg.descriptor_noise_sigma)
            )

    planted = np.array(descs).reshape(len(descs), cfg.descriptor_dim)
    for _ in range(cfg.n_distractors):
        rows.append(_random_region(rng, cfg))
        if cfg.descriptor_dim:
            descs.append(_distractor_descriptor(rng, cfg.descriptor_dim, planted))
    return _keypoint_set(image_id, cfg, rows, descs)
