"""Common-part filtering, correspondence search, and the repeatability rates.

Three rates are computed from one correspondence set so that they differ only
in their denominators:

    eq1 = n_rep / min(n_ref, n_test)      (the original definition)
    c1  = n_rep / n_ref                   (fixed-reference criterion)
    c2  = 2 n_rep / (n_ref + n_test)      (symmetric denominator)

where n_ref and n_test count keypoints inside the common part of the two
views and n_rep counts one-to-one correspondences under the predicate
"projected center within epsilon_px AND region overlap error below
max_overlap_error".  The predicate is framed in the reference image, as in
the Oxford protocol: epsilon_px is compared in test-frame pixels, and
normalize_radius rescales both regions by the factor that makes the
reference region a circle of that radius.  So under a change of scale,
n_rep can differ when the two images swap roles.

The predicate is evaluated in one place, candidate_table, which scores every
common-part pair once and keeps the candidates as arrays.  The
correspondences are resolved from that table by matching._greedy, the one
greedy one-to-one rule, which also serves both descriptor matchers; the
true matches (matching.verify_matches) are the descriptor matches found in
the table, so a pair is a true match only if it is a candidate.

candidate_table projects the reference centers with
geometry.project_points, the one projection formula, so the common part
and the center distances do not depend on the BLAS build.  It finds the
pairs within epsilon_px with a spatial hash of the test centers
(geometry.close_pairs), never the N x M distance matrix, and scores all of
them in one pass over arrays (_overlap_errors): the transport into the
reference frame, the rescaling, the grid pitch and the overlap grids.  The
one-pair region_overlap_error is a K = 1 call of it, with the same bits; it
stays because the benchmark's tracer (bench/tracing.py) wraps it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, PointAtInfinity, UndefinedMetric
from .geometry import (
    close_pairs,
    computed_regions,
    map_regions_to_reference,
    overlap_errors,
    project_points,
    semiaxes,
)
from .matching import _greedy, match_descriptors, verify_matches

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
        if self.normalize_radius is not None and not 0.0 < self.normalize_radius < np.inf:
            raise ValueError("normalize_radius must be positive and finite, or None")
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
    """Indices of keypoints whose centers fall in the shared view.

    A reference keypoint belongs to the common part when h maps its center
    inside [0, test.width] x [0, test.height]; a test keypoint when h^-1 maps
    its center inside the reference bounds.  Boundary-inclusive.  Points whose
    projection blows up (homogeneous weight ~ 0) are excluded, not fatal.
    """
    ref_idx = _in_view(ref.centers, h, test.width, test.height)
    test_idx = _in_view(test.centers, h.inverse(), ref.width, ref.height)
    return ref_idx, test_idx


def _in_view(centers, h, width, height):
    proj, ok = project_points(h, centers)
    with np.errstate(invalid="ignore"):
        inside = (
            ok
            & (proj[:, 0] >= 0.0)
            & (proj[:, 0] <= width)
            & (proj[:, 1] >= 0.0)
            & (proj[:, 1] <= height)
        )
    return np.flatnonzero(inside)


def region_overlap_error(ref_region, test_region, h, cfg):
    """_overlap_errors of one candidate pair of SecondMomentEllipse.  Raises
    PointAtInfinity or DegenerateRegion when the pair cannot be scored."""
    err, at_infinity = _overlap_errors(
        ref_region.center[None], ref_region.abc[None],
        test_region.center[None], test_region.abc[None], h, cfg,
    )
    if at_infinity[0]:
        raise PointAtInfinity(
            f"reference center ({ref_region.center[0]:g}, {ref_region.center[1]:g}) or test "
            f"center ({test_region.center[0]:g}, {test_region.center[1]:g}) maps to infinity"
        )
    if np.isnan(err[0]):
        raise DegenerateRegion("transported or rescaled region is not positive definite")
    return float(err[0])


def _overlap_errors(ref_centers, ref_abc, test_centers, test_abc, h, cfg):
    """Overlap errors of K candidate pairs in the reference frame, in one
    pass over arrays.

    The regions are given as (K, 2) centers and (K, 3) coefficients (a, b,
    c).  Returns (err, at_infinity): err[k] is NaN where pair k cannot be
    scored, a point at infinity (at_infinity[k] set) or a region that is
    not positive definite, needles included.  The steps: the transport of
    the test region by the Jacobian quadratic form around the reference
    center (geometry.map_regions_to_reference); with cfg.normalize_radius,
    both regions rescaled by the one factor that gives the reference region
    the area of a circle of that radius; the default pitch min(0.1, smaller
    minor semiaxis / 100) (geometry.semiaxes); and the overlap grid
    (geometry.overlap_errors).  A region that turns non-finite raises
    ValueError (geometry.computed_regions).
    """
    center, test_abc, at_infinity = map_regions_to_reference(h, ref_centers, test_centers,
                                                             test_abc)
    scored = computed_regions(~at_infinity, center, test_abc)
    if cfg.normalize_radius is not None:
        a, b, c = ref_abc.T
        r = cfg.normalize_radius
        with np.errstate(all="ignore"):
            s2 = 1.0 / (r * r * np.sqrt(a * c - b * b))
            ref_abc = ref_abc * s2[:, None]
            test_abc = test_abc * s2[:, None]
        scored = computed_regions(scored, ref_centers, ref_abc)
        scored = computed_regions(scored, center, test_abc)
    # a needle has no minor semiaxis (NaN): DegenerateRegion
    minor = np.minimum(semiaxes(ref_abc)[1], semiaxes(test_abc)[1])
    keep = np.flatnonzero(scored & ~np.isnan(minor))
    step = np.minimum(0.1, minor[keep] / 100.0) if cfg.grid_step is None else cfg.grid_step
    err = np.full(len(scored), np.nan)
    err[keep] = overlap_errors(ref_centers[keep], ref_abc[keep], center[keep], test_abc[keep],
                               step)
    return err, at_infinity


def candidate_table(ref, test, h, cfg=EvalConfig()):
    """The repeatability predicate, evaluated once per pair.

    Returns (ref_idx, test_idx, (ri, tj, err, dist)): the common-part
    indices of common_part_filter, and four arrays with one entry for every
    common-part pair whose test-frame center distance dist is below
    cfg.epsilon_px and whose overlap error err is below
    cfg.max_overlap_error, in row-major (ri, tj) order.  Pairs whose overlap
    error raises DegenerateRegion or PointAtInfinity are left out.

    The pairs within epsilon come from a spatial hash of the test centers
    (geometry.close_pairs), with the distance bits of the N x M matrix it
    replaces, and all of them are scored in one pass over arrays
    (_overlap_errors), a block of grid rows at a time.
    """
    ref_idx, test_idx = common_part_filter(ref, test, h)
    proj, ok = project_points(h, ref.centers[ref_idx])
    # common-part membership already implies a finite projection
    assert bool(np.all(ok))
    i, j, dist = close_pairs(proj, test.centers[test_idx], cfg.epsilon_px)
    ri, tj = ref_idx[i], test_idx[j]
    err, _ = _overlap_errors(ref.centers[ri], ref.abc[ri], test.centers[tj], test.abc[tj], h, cfg)
    keep = np.flatnonzero(err < cfg.max_overlap_error)
    return ref_idx, test_idx, (ri[keep], tj[keep], err[keep], dist[keep])


def _resolve(table, n_ref, n_test):
    """The one-to-one correspondences of a candidate table over sets of
    n_ref and n_test keypoints: matching._greedy in ascending (overlap
    error, center distance, ref index, test index) order.  Returns the
    positions of the entries taken."""
    ri, tj, err, dist = table
    order = np.lexsort((tj, ri, dist, err))
    return order[_greedy(ri[order] * n_test + tj[order], n_ref, n_test)]


def eq1_repeatability(n_rep, n_ref, n_test) -> float:
    """Repeated fraction relative to the smaller detection count."""
    denom = min(n_ref, n_test)
    if denom <= 0:
        raise UndefinedMetric("min(n_ref, n_test) is zero")
    return n_rep / denom


def criterion1(n_rep, n_ref) -> float:
    """Repeated fraction relative to the reference-image count."""
    if n_ref <= 0:
        raise UndefinedMetric("n_ref is zero")
    return n_rep / n_ref


def criterion2(n_rep, n_ref, n_test) -> float:
    """Symmetric repeated fraction, 2 n_rep / (n_ref + n_test)."""
    if n_ref + n_test <= 0:
        raise UndefinedMetric("n_ref + n_test is zero")
    return 2.0 * n_rep / (n_ref + n_test)


def evaluate_pair(ref, test, h, cfg=EvalConfig()):
    """Full evaluation of one image pair against ground truth.

    All three rates are computed from the same correspondence set.  Rates
    whose denominator is zero come back as None.  When both sets carry
    descriptors, true_matches counts the descriptor matches found in the
    pair's candidate table, else it is 0 with the descriptors_available flag
    cleared.
    """
    ref_idx, test_idx, table = candidate_table(ref, test, h, cfg)
    n_ref = len(ref_idx)
    n_test = len(test_idx)
    n_rep = len(_resolve(table, len(ref), len(test)))

    if cfg.eq1_population == "whole":
        eq1_args = (n_rep, len(ref), len(test))
    else:
        eq1_args = (n_rep, n_ref, n_test)

    def attempt(fn, *args):
        try:
            return fn(*args)
        except UndefinedMetric:
            return None

    eq1 = attempt(eq1_repeatability, *eq1_args)
    c1 = attempt(criterion1, n_rep, n_ref)
    c2 = attempt(criterion2, n_rep, n_ref, n_test)

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
        c1=c1,
        c2=c2,
    )
