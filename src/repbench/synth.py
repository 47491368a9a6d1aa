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
per deviate with no caching of the sine branch.  The draw order per
keypoint is fixed and documented on each operation, so identical configs
give byte-identical keypoint files.  Derived test images use the
independent stream seeded with seed XOR 0xD1B54A32D192ED03.

How the stream is drawn
-----------------------
State k of a stream is its seed + k * 0x9E3779B97F4A7C15 mod 2^64, so any
block of draws can be computed at once, from its start state alone.
uniform_blocks and normal_blocks draw K such blocks in one array pass;
SplitMix64.uniforms(n) and normals(n) are their K = 1 calls, bit-identical
to n scalar calls.  A reference set is one block: every point owns the same
number of draws.  A derived set steps through its points only for the
survival uniforms, which decide where each survivor's block starts; then
the blocks of all survivors are drawn at once, and the survivors are
transported, culled and normalised as arrays.  Each distractor's block
starts at a fixed offset after the survival scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .formats import KeypointSet
from .geometry import homography_jacobians, transport_shapes

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
        """n uniforms as a float64 array, bit-identical to n uniform() calls;
        a K = 1 call of uniform_blocks."""
        u = uniform_blocks([self.state], n)[0]
        self.state = (self.state + int(n) * _GOLDEN) & _MASK64
        return u

    def normals(self, n):
        """n normals as a float64 array, bit-identical to n normal() calls."""
        return _box_muller(self.uniforms(2 * n))


def uniform_blocks(starts, n):
    """(K, n) uniforms: row k is what n uniform() calls from state starts[k]
    give, bit for bit.

    Draw j of row k mixes starts[k] + (j + 1) * golden (wrapping uint64), so
    every draw of every row is computed at once.
    """
    with np.errstate(over="ignore"):
        z = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_U64
        z = z + np.asarray(starts, dtype=np.uint64).reshape(-1, 1)
        z = (z ^ (z >> _U30)) * _MIX1_U64
        z = (z ^ (z >> _U27)) * _MIX2_U64
        z ^= z >> _U31
    return ((z >> _U11).astype(np.float64) + 0.5) * 2.0 ** -53


def normal_blocks(starts, n):
    """(K, n) normals: row k is what n normal() calls from state starts[k]
    give, bit for bit."""
    return _box_muller(uniform_blocks(starts, 2 * n))


def _box_muller(u):
    """Normals from the uniform pairs (u1, u2) along the last axis of u.

    log and cos are libm's (math), element by element: numpy's SIMD
    versions differ from them in the last bit on some inputs.  sqrt and the
    products are correctly rounded, so numpy computes those.
    """
    u1 = u[..., 0::2]
    logs = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size)
    coss = np.fromiter(map(math.cos, (2.0 * math.pi * u[..., 1::2]).ravel().tolist()),
                       np.float64, u1.size)
    return (np.sqrt(-2.0 * logs) * coss).reshape(u1.shape)


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


def _regions(u, cfg):
    """Region rows (cx, cy, a, b, c) of (K, 5) uniform rows (ux, uy, ur, uq,
    ut), in that draw order.

    r is the equivalent radius (the ellipse has the area of a circle of
    radius r), q in [1, MAX_AXIS_RATIO] the axis ratio, theta the major-axis
    angle in [0, pi).  cos and sin are libm's (math), element by element,
    like log and cos in _box_muller.
    """
    ux, uy, ur, uq, ut = u.T
    lo, hi = cfg.scale_range
    r = lo + ur * (hi - lo)
    root_q = np.sqrt(1.0 + uq * (MAX_AXIS_RATIO - 1.0))
    major = r * root_q
    minor = r / root_q
    d1 = 1.0 / (major * major)
    d2 = 1.0 / (minor * minor)
    theta = (ut * math.pi).tolist()
    co = np.fromiter(map(math.cos, theta), np.float64, len(theta))
    si = np.fromiter(map(math.sin, theta), np.float64, len(theta))
    return np.stack(
        [ux * cfg.image_width, uy * cfg.image_height, co * co * d1 + si * si * d2,
         co * si * (d1 - d2), si * si * d1 + co * co * d2],
        axis=1,
    )


def _normalized(v):
    """Each row of v scaled to unit norm; a row of norm 0 becomes e1, without
    a draw.  A row's norm is sqrt(row @ row), one BLAS dot per row, which
    keeps the bits of normalising the rows one by one."""
    if v.shape[1] == 0:
        return v
    norm = np.sqrt(np.fromiter((row @ row for row in v), np.float64, len(v)))
    zero = norm == 0.0
    v = v / np.where(zero, 1.0, norm)[:, None]
    v[zero] = np.eye(1, v.shape[1])
    return v


def generate_reference(cfg, image_id="ref"):
    """Plant cfg.n_points keypoints uniformly over the image.

    Per point the stream consumes, in order: center (2 uniforms), equivalent
    radius, axis ratio, orientation (1 uniform each), then descriptor_dim
    normals for the unit-norm descriptor.  Every point owns the same
    5 + 2 * descriptor_dim uniforms, so the set is one draw of the stream.
    """
    per_point = 5 + 2 * cfg.descriptor_dim
    u = SplitMix64(cfg.seed).uniforms(cfg.n_points * per_point).reshape(cfg.n_points, per_point)
    regions = _regions(u[:, :5], cfg)
    return KeypointSet(image_id, cfg.image_width, cfg.image_height, regions[:, :2],
                       regions[:, 2:], _normalized(_box_muller(u[:, 5:])))


def _transport(h, centers, abc):
    """Images under h of the regions (centers, abc), linearised at their
    centers: the projected center and the shape J^-T mu J^-1 for the
    Jacobian J of h there.

    Returns (kept, centers, abc): the indices of the regions that have an
    image, and those images.  A region has none when its center maps to
    infinity (PointAtInfinity), np.linalg.inv rejects its J (LinAlgError)
    or its image is not positive definite (DegenerateRegion).  Raises
    ValueError, as SecondMomentEllipse does, when an image is not finite.
    """
    jac, centers, at_infinity = homography_jacobians(h, centers)
    kept = np.flatnonzero(~at_infinity)
    try:
        inv = np.linalg.inv(jac[kept])
    except np.linalg.LinAlgError:
        # the stacked inverse raises for all when one J is singular
        inv = np.empty((len(kept), 2, 2))
        invertible = np.ones(len(kept), dtype=bool)
        for k in range(len(kept)):
            try:
                inv[k] = np.linalg.inv(jac[kept[k]])
            except np.linalg.LinAlgError:
                invertible[k] = False
        kept, inv = kept[invertible], inv[invertible]
    centers, abc = centers[kept], transport_shapes(inv, abc[kept])
    if not (np.isfinite(centers).all() and np.isfinite(abc).all()):
        raise ValueError("ellipse center and shape must be finite")
    a, b, c = abc.T
    with np.errstate(over="ignore"):
        definite = (a > 0.0) & (c > 0.0) & (a * c - b * b > 0.0)
    return kept[definite], centers[definite], abc[definite]


def _distractor_descriptor(start, dim, planted):
    """Unit descriptor rejection-sampled away from all planted descriptors.

    Candidates are drawn from state `start` on.  Keeps the first whose
    largest cosine against the planted set is at most
    DISTRACTOR_MAX_COSINE; after DISTRACTOR_TRIES candidates the best one
    seen is used.
    """
    rng = SplitMix64(start)
    best = None
    best_cos = math.inf
    for _ in range(DISTRACTOR_TRIES):
        cand = _normalized(rng.normals(dim)[None])[0]
        worst = float(np.max(planted @ cand)) if len(planted) else -1.0
        if worst <= DISTRACTOR_MAX_COSINE:
            return cand
        if worst < best_cos:
            best_cos = worst
            best = cand
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
    stream, 5 uniforms and DISTRACTOR_TRIES * descriptor_dim normals, so
    where later draws sit in the stream never depends on the descriptors.

    Only the survival scan steps through the points; the survivors' draws
    and transport, and the distractors' regions, are one pass over arrays.
    """
    dim = cfg.descriptor_dim
    rng = SplitMix64(cfg.seed ^ TEST_STREAM_SALT)
    survivor_block = 2 * (2 + dim) * _GOLDEN
    survivors, starts = [], []
    for k in range(len(ref)):
        if rng.uniform() >= cfg.dropout_rate:
            survivors.append(k)
            starts.append(rng.state)
            rng.state = (rng.state + survivor_block) & _MASK64
    survivors = np.array(survivors, dtype=np.int64)
    # jitter x, jitter y, then the descriptor noise, one row per survivor
    draws = normal_blocks(starts, 2 + dim)
    kept, centers, abc = _transport(h, ref.centers[survivors], ref.abc[survivors])
    with np.errstate(over="ignore"):
        centers += draws[kept, :2] * cfg.jitter_sigma
    x, y = centers.T
    inside = (0.0 <= x) & (x <= cfg.image_width) & (0.0 <= y) & (y <= cfg.image_height)
    kept, centers, abc = kept[inside], centers[inside], abc[inside]
    planted = _normalized(
        ref.descriptors[survivors[kept]] + draws[kept, 2:] * cfg.descriptor_noise_sigma
    )

    distractor_block = (5 + 2 * DISTRACTOR_TRIES * dim) * _GOLDEN
    starts = [(rng.state + j * distractor_block) & _MASK64 for j in range(cfg.n_distractors)]
    regions = _regions(uniform_blocks(starts, 5), cfg)
    extra = [
        _distractor_descriptor((start + 5 * _GOLDEN) & _MASK64, dim, planted) for start in starts
    ] if dim else []
    return KeypointSet(
        image_id, cfg.image_width, cfg.image_height,
        np.concatenate([centers, regions[:, :2]]), np.concatenate([abc, regions[:, 2:]]),
        np.concatenate([planted, np.reshape(extra, (cfg.n_distractors, dim))]),
    )
