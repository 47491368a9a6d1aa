"""Common-part filtering, correspondence search, and the repeatability rates.

Three rates are computed from one correspondence set so that they differ only
in their denominators:

    eq1 = n_rep / min(n_ref, n_test)      (the original definition)
    c1  = n_rep / n_ref                   (fixed-reference criterion)
    c2  = 2 n_rep / (n_ref + n_test)      (symmetric denominator)

where n_ref and n_test count keypoints inside the common part of the two
views and n_rep counts one-to-one correspondences under the predicate
"projected center within epsilon_px AND region overlap error below
max_overlap_error", and a rate whose denominator is zero is None.  The
predicate is framed in the reference image, as in the Oxford protocol:
epsilon_px is compared in test-frame pixels, and normalize_radius rescales
both regions by the factor that makes the reference region a circle of
that radius.  So under a change of scale, n_rep can differ when the two
images swap roles.

The predicate is evaluated in one place, candidate_tables, which scores
every common-part pair of a sequence's image pairs in one pass and keeps
each image pair's candidates as arrays, its candidate table.  The
correspondences are resolved from that table by matching._greedy, the one
greedy one-to-one rule, which also serves both descriptor matchers; the
true matches (matching.verify_matches) are the descriptor matches found in
the table, so a pair is a true match only if it is a candidate.

common_part_filter maps each center once per image pair, with geometry's
one projection formula, so the common part, the center distances and the
transport do not depend on the BLAS build.  candidate_tables finds the
pairs within epsilon_px of every image pair with one spatial hash of the
test centers (geometry.close_pairs), the image pair's index part of each
cell key so that no entry crosses image pairs, never the N x M distance
matrix; it carries their test regions into the reference frame from those
maps, and scores all of them in one pass over arrays (_overlap_errors):
the rescaling, then geometry.overlap_errors, which owns the grid pitch and
the overlap grids and alone decides which pairs are scored.  A pair that
cannot be scored gets a NaN overlap error and is left out of the table.  A
lone entry, alone in its reference row and its test column among the
pairs within epsilon_px, is taken by the greedy exactly when it is in the
table, so only err < max_overlap_error matters for it:
geometry.overlap_errors settles it from an interval that provably holds
its grid estimate, with no grid, when the interval lies on one side of the
threshold, and grids every other pair.  The correspondences, the true
matches and every report byte are those of gridding every pair, one image
pair at a time.  The one-pair region_overlap_error maps its pair with the
same calls and is a K = 1 call of _overlap_errors, with the same bits,
never settled; it stays because the benchmark's tracer (bench/tracing.py)
wraps it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, PointAtInfinity
from .geometry import (
    close_pairs,
    homography_jacobians,
    in_image,
    overlap_errors,
    project_points,
    transport_shapes,
)
from .matching import _greedy, match_descriptors, verify_matches
from .synth import MAX_SCALE, MIN_SCALE

EQ1_POPULATIONS = ("common", "whole")
MATCHERS = ("nn", "ratio")


@dataclass(frozen=True)
class EvalConfig:
    epsilon_px: float = 1.5
    max_overlap_error: float = 0.40
    normalize_radius: float | None = 30.0
    grid_step: float | None = None
    eq1_population: str = "common"
    matcher: str = "nn"
    ratio_threshold: float = 0.8

    def __post_init__(self):
        # NaN fails every range check: a comparison with NaN is false
        if not 0.0 < self.epsilon_px < np.inf:
            raise ValueError("epsilon_px must be positive and finite")
        if not 0.0 < self.max_overlap_error < 1.0:
            raise ValueError("max_overlap_error must lie in (0, 1)")
        if self.normalize_radius is not None and not (
                MIN_SCALE <= self.normalize_radius <= MAX_SCALE):
            raise ValueError(f"normalize_radius must satisfy {MIN_SCALE!r} <= radius <= "
                             f"{MAX_SCALE!r}, or be None")
        if self.grid_step is not None and not 0.0 < self.grid_step < np.inf:
            raise ValueError("grid_step must be positive and finite, or None")
        if self.eq1_population not in EQ1_POPULATIONS:
            raise ValueError(f"eq1_population must be one of {EQ1_POPULATIONS}")
        if self.matcher not in MATCHERS:
            raise ValueError(f"matcher must be one of {MATCHERS}")
        if not 0.0 < self.ratio_threshold < 1.0:
            raise ValueError("ratio_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class PairEvaluation:
    n_ref: int
    n_test: int
    n_rep: int
    true_matches: int
    descriptors_available: bool
    eq1: float | None
    c1: float | None
    c2: float | None


def common_part_filter(ref, test, h):
    """Indices of keypoints whose centers fall in the shared view, and the
    maps of those centers into the other frame.

    A reference keypoint belongs to the common part when h maps its center
    inside [0, test.width] x [0, test.height]; a test keypoint when h^-1 maps
    its center inside the reference bounds.  Boundary-inclusive
    (geometry.in_image).  Points whose projection blows up (homogeneous
    weight ~ 0) are excluded, not fatal.

    Returns (ref_idx, test_idx, jac, proj, back): the common-part indices
    and, for those points in index order, the (n_ref, 2, 2) Jacobians of h
    at the reference centers, the (n_ref, 2) images of those centers in the
    test frame and the (n_test, 2) images of the test centers in the
    reference frame.  Each center is mapped here, once per pair.
    """
    jac, proj, at_infinity = homography_jacobians(h, ref.centers)
    back, in_view = project_points(h.inverse(), test.centers)
    ref_idx = np.flatnonzero(~at_infinity & in_image(proj, test.width, test.height))
    test_idx = np.flatnonzero(in_view & in_image(back, ref.width, ref.height))
    return ref_idx, test_idx, jac[ref_idx], proj[ref_idx], back[test_idx]


def region_overlap_error(ref_region, test_region, h, cfg):
    """_overlap_errors of one candidate pair of SecondMomentEllipse, the
    test region carried into the reference frame as candidate_tables
    carries it.  Raises PointAtInfinity or DegenerateRegion when the pair
    cannot be scored."""
    jac, _, at_infinity = homography_jacobians(h, ref_region.center[None])
    center, in_view = project_points(h.inverse(), test_region.center[None])
    if at_infinity[0] or not in_view[0]:
        raise PointAtInfinity(
            f"reference center ({ref_region.center[0]:g}, {ref_region.center[1]:g}) or test "
            f"center ({test_region.center[0]:g}, {test_region.center[1]:g}) maps to infinity"
        )
    err = _overlap_errors(ref_region.center[None], ref_region.abc[None], center,
                          transport_shapes(jac, test_region.abc[None]), cfg)
    if np.isnan(err[0]):
        raise DegenerateRegion("the transported or rescaled pair has no overlap grid")
    return float(err[0])


def _overlap_errors(ref_centers, ref_abc, centers, abc, cfg, lone=None):
    """Overlap errors of K candidate pairs, both regions already in the
    reference frame, in one pass over arrays.

    Each side is given as (K, 2) centers and (K, 3) coefficients (a, b,
    c).  With cfg.normalize_radius, both regions are rescaled by the one
    factor that gives the reference region the area of a circle of that
    radius; then geometry.overlap_errors scores them at cfg.grid_step, None
    for its default pitch.  Returns the (K,) errors.  Every row goes to
    overlap_errors, whose grid rule alone decides which pairs are scored: a
    region that is not positive definite or has overflowed, a needle and a
    grid too wide for the row kernel all score NaN.  The pairs of the (K,)
    mask lone may be settled against cfg.max_overlap_error without a grid
    (geometry.overlap_errors), and then score an upper bound of their
    estimate that lies on the same side of it.
    """
    if cfg.normalize_radius is not None:
        a, b, c = ref_abc.T
        r = cfg.normalize_radius
        with np.errstate(all="ignore"):
            s2 = 1.0 / (r * r * np.sqrt(a * c - b * b))
            ref_abc = ref_abc * s2[:, None]
            abc = abc * s2[:, None]
    threshold = None if lone is None else cfg.max_overlap_error
    return overlap_errors(ref_centers, ref_abc, centers, abc, cfg.grid_step, threshold, lone)


def candidate_tables(ref, pairs, cfg=EvalConfig()):
    """The repeatability predicate, evaluated once per sequence: the
    candidate table of each (test, h) of pairs against the reference ref.

    Returns one (ref_idx, test_idx, (ri, tj, err, dist)) per pair: the
    common-part indices of common_part_filter, and four arrays with one
    entry for every common-part pair whose test-frame center distance dist
    is below cfg.epsilon_px and whose overlap error is below
    cfg.max_overlap_error, in row-major (ri, tj) order.  Pairs that
    _overlap_errors cannot score (NaN) are left out.  err is the grid
    estimate of the overlap error, except for a lone entry, the only pair
    within epsilon of its reference and of its test keypoint, that the
    bound interval settled: its err is the interval's upper bound, below
    cfg.max_overlap_error and at least the estimate.  The greedy takes a
    lone entry whatever its err, so _resolve's choice is that of the
    estimates.

    Each pair is mapped by its own common_part_filter call.  The pairs
    within epsilon of every image pair come from one spatial hash
    (geometry.close_pairs), with the image pair's index in each cell key,
    so no entry crosses image pairs, and with the distance bits of the
    N x M matrix it replaces.  Each test region is carried into the
    reference frame from common_part_filter's maps, its back-projected
    center and its shape transported by the Jacobian at the reference
    center, and the entries of all the image pairs are scored in one pass
    over arrays (_overlap_errors), a block of grid rows at a time.  A
    table does not depend on the other pairs it was built with.
    """
    if not pairs:
        return []
    maps = [common_part_filter(ref, test, h) for test, h in pairs]
    ref_idx, test_idx, jac, proj, back = (np.concatenate(arrays) for arrays in zip(*maps))
    centers = np.concatenate([test.centers[m[1]] for (test, _), m in zip(pairs, maps)])
    abc = np.concatenate([test.abc[m[1]] for (test, _), m in zip(pairs, maps)])
    ref_group = np.repeat(np.arange(len(pairs)), [len(m[0]) for m in maps])
    test_group = np.repeat(np.arange(len(pairs)), [len(m[1]) for m in maps])
    i, j, dist = close_pairs(proj, centers, cfg.epsilon_px, ref_group, test_group)
    ri = ref_idx[i]
    # alone in its row and its column, an entry is taken iff it is kept
    lone = (np.bincount(i)[i] == 1) & (np.bincount(j)[j] == 1)
    err = _overlap_errors(ref.centers[ri], ref.abc[ri], back[j],
                          transport_shapes(jac[i], abc[j]), cfg, lone)
    keep = np.flatnonzero(err < cfg.max_overlap_error)
    # the entries come in row-major order, so each pair's are one run
    counts = np.bincount(ref_group[i[keep]], minlength=len(pairs))
    ends = np.cumsum(counts)
    table = (ri[keep], test_idx[j[keep]], err[keep], dist[keep])
    return [(m[0], m[1], tuple(a[start:end] for a in table))
            for m, start, end in zip(maps, (ends - counts).tolist(), ends.tolist())]


def _resolve(table, n_ref, n_test):
    """The one-to-one correspondences of a candidate table over sets of
    n_ref and n_test keypoints: matching._greedy in ascending (overlap
    error, center distance, ref index, test index) order.  Returns the
    positions of the entries taken."""
    ri, tj, err, dist = table
    order = np.lexsort((tj, ri, dist, err))
    return order[_greedy(ri[order] * n_test + tj[order], n_ref, n_test)]


def eq1_repeatability(n_rep, n_ref, n_test) -> float | None:
    """Repeated fraction relative to the smaller detection count, or None."""
    denom = min(n_ref, n_test)
    return n_rep / denom if denom > 0 else None


def criterion1(n_rep, n_ref) -> float | None:
    """Repeated fraction relative to the reference-image count, or None."""
    return n_rep / n_ref if n_ref > 0 else None


def criterion2(n_rep, n_ref, n_test) -> float | None:
    """Symmetric repeated fraction, 2 n_rep / (n_ref + n_test), or None."""
    return 2.0 * n_rep / (n_ref + n_test) if n_ref + n_test > 0 else None


def evaluate_pair(ref, test, h, cfg=EvalConfig(), candidates=None):
    """Full evaluation of one image pair against ground truth.

    All three rates are computed from the same correspondence set.  Rates
    whose denominator is zero come back as None.  When both sets carry
    descriptors, true_matches counts the descriptor matches found in the
    pair's candidate table, else it is 0 with the descriptors_available flag
    cleared.  candidates is the pair's entry of candidate_tables at cfg,
    which a sequence builds for all its pairs at once; without it the pair
    builds its own.
    """
    if candidates is None:
        candidates = candidate_tables(ref, [(test, h)], cfg)[0]
    ref_idx, test_idx, table = candidates
    n_ref = len(ref_idx)
    n_test = len(test_idx)
    n_rep = len(_resolve(table, len(ref), len(test)))

    if cfg.eq1_population == "whole":
        eq1 = eq1_repeatability(n_rep, len(ref), len(test))
    else:
        eq1 = eq1_repeatability(n_rep, n_ref, n_test)

    descriptors_available = (
        ref.descriptor_dim > 0 and ref.descriptor_dim == test.descriptor_dim
    )
    true_matches = 0
    if descriptors_available:
        matches = match_descriptors(
            ref, test, method=cfg.matcher, ratio=cfg.ratio_threshold
        )
        true_matches = verify_matches(matches, table)

    return PairEvaluation(
        n_ref=n_ref,
        n_test=n_test,
        n_rep=n_rep,
        true_matches=true_matches,
        descriptors_available=descriptors_available,
        eq1=eq1,
        c1=criterion1(n_rep, n_ref),
        c2=criterion2(n_rep, n_ref, n_test),
    )
