"""repbench: repeatability benchmarking of local feature detectors under
ground-truth homographies.

The package measures how reliably a detector refires on the same scene
structure across views: elliptical regions are carried between images by a
known homography, matched one-to-one under a center-distance and
region-overlap predicate, and summarized by three repeatability rates that
share a numerator and differ in their denominators.  Descriptor matching
verified against the homography provides the companion true-match series,
and the stats layer correlates the two.
"""

from .errors import (
    DegenerateRegion,
    DegenerateSeries,
    DescriptorUnavailable,
    InsufficientData,
    InvalidRegion,
    LengthMismatch,
    ManifestError,
    ParseError,
    PointAtInfinity,
    RepbenchError,
    SingularHomography,
    UndefinedMetric,
)
from .formats import (
    DatasetManifest,
    Keypoint,
    KeypointSet,
    ManifestHomography,
    ManifestImage,
    load_homography,
    load_keypoints,
    load_manifest,
    parse_homography,
    parse_keypoints,
    parse_manifest,
    write_homography,
    write_keypoints,
    write_manifest,
)
from .geometry import (
    Homography,
    SecondMomentEllipse,
    normalize_pair,
    overlap_error,
    project_points,
)
from .harness import (
    SequenceReport,
    correlate_reports,
    evaluate_sequence,
    summary_table,
    synth_sequence,
)
from .matching import DescriptorMatch, match_descriptors, nn_match, ratio_match, verify_matches
from .metrics import (
    Correspondence,
    EvalConfig,
    PairEvaluation,
    common_part_filter,
    criterion1,
    criterion2,
    eq1_repeatability,
    evaluate_pair,
    find_correspondences,
)
from .stats import (
    CorrelationReport,
    betainc_regularized,
    bin_scores,
    correlate,
    p_value_two_tailed,
    pearson_r,
    summarize,
)
from .synth import SplitMix64, SynthConfig, derive_test, generate_reference

__version__ = "0.1.0"

__all__ = [
    "Correspondence",
    "CorrelationReport",
    "DatasetManifest",
    "DegenerateRegion",
    "DegenerateSeries",
    "DescriptorMatch",
    "DescriptorUnavailable",
    "EvalConfig",
    "Homography",
    "InsufficientData",
    "InvalidRegion",
    "Keypoint",
    "KeypointSet",
    "LengthMismatch",
    "ManifestError",
    "ManifestHomography",
    "ManifestImage",
    "PairEvaluation",
    "ParseError",
    "PointAtInfinity",
    "RepbenchError",
    "SecondMomentEllipse",
    "SequenceReport",
    "SingularHomography",
    "SplitMix64",
    "SynthConfig",
    "UndefinedMetric",
    "betainc_regularized",
    "bin_scores",
    "common_part_filter",
    "correlate",
    "correlate_reports",
    "criterion1",
    "criterion2",
    "derive_test",
    "eq1_repeatability",
    "evaluate_pair",
    "evaluate_sequence",
    "find_correspondences",
    "generate_reference",
    "load_homography",
    "load_keypoints",
    "load_manifest",
    "match_descriptors",
    "nn_match",
    "normalize_pair",
    "overlap_error",
    "p_value_two_tailed",
    "parse_homography",
    "parse_keypoints",
    "parse_manifest",
    "pearson_r",
    "project_points",
    "ratio_match",
    "summarize",
    "summary_table",
    "synth_sequence",
    "verify_matches",
    "write_homography",
    "write_keypoints",
    "write_manifest",
]
