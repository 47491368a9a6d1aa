"""Common-part filtering, correspondence search, and the repeatability rates.

Three rates are computed from one correspondence set so that they differ only
in their denominators:

    eq1 = n_rep / min(n_ref, n_test)      (the original definition)
    c1  = n_rep / n_ref                   (fixed-reference criterion)
    c2  = 2 n_rep / (n_ref + n_test)      (symmetric criterion)

where n_ref and n_test count keypoints inside the common part of the two
views and n_rep counts one-to-one correspondences under the predicate
"projected center within epsilon_px AND region overlap error below
max_overlap_error".

The predicate is evaluated in one place, candidate_table, which scores every
common-part pair once.  The correspondences are resolved from that table,
and the true matches (matching.verify_matches) are the descriptor matches
found in it, so a pair is a true match only if it is a candidate.

candidate_table projects the reference centers with
geometry.project_points, the one projection formula, so the common part
and the center distances do not depend on the BLAS build.  It finds the
pairs within epsilon_px with a spatial hash of the test centers
(geometry.close_pairs), never the N x M distance matrix, and scores all of
them in one pass over arrays (_overlap_errors): the transport into the
reference frame, the rescaling, the grid pitch and the overlap grids, in
the operation order of the one-pair region_overlap_error, so every table
entry has its bits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, PointAtInfinity, UndefinedMetric
from .geometry import (
    close_pairs,
    computed_regions,
    map_regions_to_reference,
    minor_semiaxes,
    overlap_errors,
    project_points,
)
from .matching import match_descriptors, verify_matches

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
class Correspondence:
    ref_index: int
    test_index: int
    center_distance: float  # pixels, measured in the test frame
    overlap_err: float


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
    """Overlap error of a candidate pair in the reference frame.

    The test region is transported by the Jacobian quadratic form around the
    reference center, then both regions are optionally rescaled so the
    reference one matches cfg.normalize_radius before sampling.  Raises
    PointAtInfinity or DegenerateRegion when the pair cannot be scored.  One
    pair of `_overlap_errors`.
    """
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
    """region_overlap_error of K candidate pairs, in one pass over arrays.

    The regions are given as (K, 2) centers and (K, 3) coefficients (a, b,
    c).  Returns (err, at_infinity): err[k] has the bits of
    region_overlap_error for pair k, or is NaN where that raises
    PointAtInfinity (at_infinity[k] set) or DegenerateRegion, needles
    included.  Each step is the per-pair code's, in its operation order:
    the transport (geometry.map_regions_to_reference), normalize_pair,
    default_grid_step and the overlap grid (geometry.overlap_errors).  A
    region that turns non-finite raises ValueError (geometry.computed_regions).
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
    keep = np.flatnonzero(scored)
    # a needle has no minor semiaxis (NaN): DegenerateRegion
    minor = np.minimum(minor_semiaxes(ref_abc[keep]), minor_semiaxes(test_abc[keep]))
    sized = ~np.isnan(minor)
    keep, minor = keep[sized], minor[sized]
    ref_abc, test_abc = ref_abc[keep], test_abc[keep]
    step = cfg.grid_step
    if step is None:
        step = np.minimum(0.1, minor / 100.0)
    err = np.full(len(scored), np.nan)
    err[keep] = overlap_errors(ref_centers[keep], ref_abc, center[keep], test_abc, step)
    return err, at_infinity


def candidate_table(ref, test, h, cfg=EvalConfig()):
    """The repeatability predicate, evaluated once per pair.

    Returns (ref_idx, test_idx, table): the common-part indices of
    common_part_filter, and a dict mapping (ref_index, test_index) to
    (overlap_err, center_distance) for every common-part pair whose
    test-frame center distance is below cfg.epsilon_px and whose overlap
    error is below cfg.max_overlap_error, in row-major (ref, test) order.
    Pairs whose overlap error raises DegenerateRegion or PointAtInfinity
    are left out.

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
    table = dict(
        zip(
            zip(ri[keep].tolist(), tj[keep].tolist()),
            zip(err[keep].tolist(), dist[keep].tolist()),
        )
    )
    return ref_idx, test_idx, table


def _resolve(table):
    """Greedy one-to-one selection from a candidate table in ascending
    (overlap error, center distance, ref index, test index) order."""
    used_ref = set()
    used_test = set()
    matched = []
    for err, dist, ri, tj in sorted((e, d, ri, tj) for (ri, tj), (e, d) in table.items()):
        if ri in used_ref or tj in used_test:
            continue
        used_ref.add(ri)
        used_test.add(tj)
        matched.append(Correspondence(ri, tj, dist, err))
    matched.sort(key=lambda c: (c.ref_index, c.test_index))
    return matched


def find_correspondences(ref, test, h, cfg=EvalConfig()):
    """One-to-one correspondences under the repeatability predicate: the
    candidate table resolved greedily (see candidate_table and _resolve)."""
    return _resolve(candidate_table(ref, test, h, cfg)[2])


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
    n_rep = len(_resolve(table))

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
