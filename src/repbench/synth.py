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
uniform_blocks and normal_blocks draw K such blocks in one array pass, and
every draw goes through them.  A reference set is one block: every point
owns the same number of draws.  A derived set steps through its points
only for the survival uniforms (_survival_step, the one scalar step), which
decide where each survivor's block starts; then the blocks of all
survivors are drawn at once, and the survivors are transported, culled and
normalised as arrays.  Each distractor's block starts at a fixed offset
after the survival scan, and each of its descriptor tries is a block of
its own.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .formats import KeypointSet, check_dimensions
from .geometry import computed_regions, homography_jacobians, libm, transport_shapes

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# Block draws keep every operand uint64: a Python int operand could promote
# the array to float64 under numpy 1.x.
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(k) for k in (_GOLDEN, _MIX1, _MIX2))
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
TEST_STREAM_SALT = 0xD1B54A32D192ED03

MAX_AXIS_RATIO = 3.0
# _regions gives shape entries a, c in [d1, d2] and |b| <= (d2 - d1) / 2,
# with d1 = 1 / (q r^2), d2 = q / r^2, r in scale_range and q in [1,
# MAX_AXIS_RATIO], so a c - b^2 = 1 / r^4.  These bounds keep a c and b b
# below half the largest float and 1 / r^4 a normal float, so every drawn
# region passes geometry.region_checks.
MIN_SCALE = (2.0 * MAX_AXIS_RATIO**2 / sys.float_info.max) ** 0.25
MAX_SCALE = sys.float_info.min ** -0.25
DISTRACTOR_MAX_COSINE = 0.9
DISTRACTOR_TRIES = 64


def uniform_blocks(starts, n):
    """(K, n) uniforms: row k is the next n draws of the stream at state
    starts[k].

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
    """(K, n) normals: row k is the next n normals (2 n draws) of the
    stream at state starts[k]."""
    return _box_muller(uniform_blocks(starts, 2 * n))


def _box_muller(u):
    """Normals from the uniform pairs (u1, u2) along the last axis of u;
    log and cos are libm's (geometry.libm)."""
    u1, u2 = u[..., 0::2], u[..., 1::2]
    return np.sqrt(-2.0 * libm(math.log, u1)) * libm(math.cos, 2.0 * math.pi * u2)


def _survival_step(state):
    """The next state of the stream at `state` and its uniform, in Python
    integers: uniform_blocks([state], 1) one draw at a time, for the
    survival scan of derive_test."""
    state = (state + _GOLDEN) & _MASK64
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, (((z ^ (z >> 31)) >> 11) + 0.5) * 2.0 ** -53


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
        check_dimensions(self.image_width, self.image_height)
        # NaN fails every range check: a comparison with NaN is false
        lo, hi = self.scale_range
        if not MIN_SCALE <= lo <= hi <= MAX_SCALE:
            raise ValueError(
                f"scale_range must satisfy {MIN_SCALE!r} <= min <= max <= {MAX_SCALE!r}"
            )
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise ValueError("jitter_sigma must be finite and >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be >= 0")
        # a keypoint file reads a dimension header of 1 as "no descriptors"
        if self.descriptor_dim < 0 or self.descriptor_dim == 1:
            raise ValueError("descriptor_dim must be 0 or >= 2")
        if not 0.0 <= self.descriptor_noise_sigma < math.inf:
            raise ValueError("descriptor_noise_sigma must be finite and >= 0")


def _regions(u, cfg):
    """Region rows (cx, cy, a, b, c) of (K, 5) uniform rows (ux, uy, ur, uq,
    ut), in that draw order.

    r is the equivalent radius (the ellipse has the area of a circle of
    radius r), q in [1, MAX_AXIS_RATIO] the axis ratio, theta the major-axis
    angle in [0, pi).  cos and sin are libm's (geometry.libm).
    """
    ux, uy, ur, uq, ut = u.T
    lo, hi = cfg.scale_range
    r = lo + ur * (hi - lo)
    root_q = np.sqrt(1.0 + uq * (MAX_AXIS_RATIO - 1.0))
    major = r * root_q
    minor = r / root_q
    d1 = 1.0 / (major * major)
    d2 = 1.0 / (minor * minor)
    co, si = libm(math.cos, ut * math.pi), libm(math.sin, ut * math.pi)
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
    u = uniform_blocks([cfg.seed & _MASK64], cfg.n_points * per_point)
    u = u.reshape(cfg.n_points, per_point)
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
    ValueError when an image is not finite (geometry.computed_regions).
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
    definite = computed_regions(np.ones(len(kept), dtype=bool), centers, abc)
    return kept[definite], centers[definite], abc[definite]


def _distractor_descriptor(start, dim, planted):
    """Unit descriptor rejection-sampled away from all planted descriptors.

    Candidate t is the block of dim normals at state start + t * 2 dim
    golden.  Keeps the first whose largest cosine against the planted set
    is at most DISTRACTOR_MAX_COSINE; after DISTRACTOR_TRIES candidates the
    best one seen is used.
    """
    best = None
    best_cos = math.inf
    for t in range(DISTRACTOR_TRIES):
        cand = _normalized(normal_blocks([(start + t * 2 * dim * _GOLDEN) & _MASK64], dim))[0]
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
    state = (cfg.seed ^ TEST_STREAM_SALT) & _MASK64
    survivor_block = 2 * (2 + dim) * _GOLDEN
    survivors, starts = [], []
    for k in range(len(ref)):
        state, u = _survival_step(state)
        if u >= cfg.dropout_rate:
            survivors.append(k)
            starts.append(state)
            state = (state + survivor_block) & _MASK64
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
    starts = [(state + j * distractor_block) & _MASK64 for j in range(cfg.n_distractors)]
    regions = _regions(uniform_blocks(starts, 5), cfg)
    extra = [
        _distractor_descriptor((start + 5 * _GOLDEN) & _MASK64, dim, planted) for start in starts
    ] if dim else []
    return KeypointSet(
        image_id, cfg.image_width, cfg.image_height,
        np.concatenate([centers, regions[:, :2]]), np.concatenate([abc, regions[:, 2:]]),
        np.concatenate([planted, np.reshape(extra, (cfg.n_distractors, dim))]),
    )
