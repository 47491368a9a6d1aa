"""Command-line interface.

Subcommands: eval (one pair), sequence (manifest), correlate (reports),
summary (ranking grid), synth (generate fixtures).  Exit codes: 0 success,
2 input or parse error, 3 defined-but-degenerate results (a report is still
written, with empty/null cells).
"""

import argparse
import os
import sys

from . import harness
from .errors import ParseError
from .formats import check_dimensions, load_homography, load_keypoints, load_manifest
from .metrics import EQ1_POPULATIONS, MATCHERS, EvalConfig, evaluate_pair
from .synth import SynthConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _parse_dims(text):
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise ValueError(f"dimensions must look like 800x600, got {text!r}") from None
    check_dimensions(w, h)
    return w, h


def _parse_normalize(text):
    if text.lower() in ("off", "none"):
        return None
    return float(text)


def _parse_scale_range(text):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"scale range must look like 2:6, got {text!r}") from None


def _add_metric_flags(p):
    default = EvalConfig()
    p.add_argument(
        "--eps",
        type=float,
        default=default.epsilon_px,
        help="max center distance in px (default %(default)s)",
    )
    p.add_argument(
        "--max-overlap-error",
        type=float,
        default=default.max_overlap_error,
        help="max region overlap error (default %(default)s)",
    )
    p.add_argument(
        "--normalize-radius",
        default=str(default.normalize_radius),
        help="normalize the reference region to this equivalent radius before "
        "the overlap test, or 'off' (default %(default)s)",
    )
    p.add_argument(
        "--grid-step",
        type=float,
        default=default.grid_step,
        help="overlap sampling pitch in px (default: adaptive)",
    )
    p.add_argument(
        "--eq1-population",
        choices=EQ1_POPULATIONS,
        default=default.eq1_population,
        help="count the original-definition denominator over the common part "
        "or the whole images (default %(default)s)",
    )
    p.add_argument(
        "--matcher",
        choices=MATCHERS,
        default=default.matcher,
        help="descriptor matching strategy for true matches (default %(default)s)",
    )
    p.add_argument(
        "--ratio",
        type=float,
        default=default.ratio_threshold,
        help="Lowe ratio threshold for --matcher ratio (default %(default)s)",
    )


def _config_from_args(args):
    return EvalConfig(
        epsilon_px=args.eps,
        max_overlap_error=args.max_overlap_error,
        normalize_radius=_parse_normalize(args.normalize_radius),
        grid_step=args.grid_step,
        eq1_population=args.eq1_population,
        matcher=args.matcher,
        ratio_threshold=args.ratio,
    )


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_eval(args):
    cfg = _config_from_args(args)
    rw, rh = _parse_dims(args.ref_dims)
    tw, th = _parse_dims(args.test_dims)
    ref = load_keypoints(args.ref, os.path.basename(args.ref), rw, rh)
    test = load_keypoints(args.test, os.path.basename(args.test), tw, th)
    h = load_homography(args.homography)
    evaluation = evaluate_pair(ref, test, h, cfg)
    if args.format == "json":
        text = harness.pair_report_json(evaluation, cfg, args.ref, args.test, args.homography)
    else:
        text = harness.pair_report_csv(evaluation)
    _emit(text, args.out)
    degenerate = any(v is None for v in (evaluation.eq1, evaluation.c1, evaluation.c2))
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_sequence(args):
    cfg = _config_from_args(args)
    manifest = load_manifest(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    doc = harness.evaluate_sequence(
        manifest, base_dir, cfg, detector=args.detector, workers=args.workers
    )
    _emit(harness.sequence_report_json(doc), args.out + ".json")
    _emit(harness.sequence_report_csv(doc), args.out + ".csv")
    degenerate = any(v is None for crit in harness.CRITERIA for v in doc["series"][crit])
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_correlate(args):
    docs = [harness.load_report(path) for path in args.report]
    rows, aggregates = harness.correlate_reports(docs)
    if args.format == "json":
        text = harness.correlation_table_json(rows, aggregates)
    else:
        text = harness.correlation_table_csv(rows, aggregates)
    _emit(text, args.out)
    degenerate = any(row["r"] is None for row in rows)
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_summary(args):
    docs = [harness.load_report(path) for path in args.reports]
    thresholds = args.thresholds
    detectors, datasets, cells, ratings, thresholds_used = harness.summary_table(
        docs, args.criterion, thresholds
    )
    if args.format == "json":
        text = harness.summary_table_json(
            args.criterion, detectors, datasets, cells, ratings, thresholds_used
        )
    else:
        text = harness.summary_table_csv(detectors, datasets, cells, ratings)
    _emit(text, args.out)
    missing = any(
        (det, ds) not in ratings for det in detectors for ds in datasets
    )
    return EXIT_DEGENERATE if missing else EXIT_OK


def cmd_synth(args):
    w, h = _parse_dims(args.dims)
    cfg = SynthConfig(
        seed=args.seed,
        n_points=args.n_points,
        image_width=w,
        image_height=h,
        scale_range=_parse_scale_range(args.scale_range),
        jitter_sigma=args.jitter,
        dropout_rate=args.dropout,
        n_distractors=args.distractors,
        descriptor_dim=args.descriptor_dim,
        descriptor_noise_sigma=args.descriptor_noise,
    )
    homographies = [load_homography(p) for p in args.homography] if args.homography else None
    manifest_path = harness.synth_sequence(
        args.out_dir,
        args.name,
        cfg,
        images=args.images,
        homographies=homographies,
        jitter_end=args.jitter_end,
    )
    sys.stdout.write(manifest_path + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repbench",
        description="Repeatability benchmarking of local feature detectors "
        "under ground-truth homographies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one image pair")
    p.add_argument("--ref", required=True, help="reference keypoint file")
    p.add_argument("--test", required=True, help="test keypoint file")
    p.add_argument("--homography", required=True, help="reference-to-test homography file")
    p.add_argument("--ref-dims", required=True, metavar="WxH", help="reference image size")
    p.add_argument("--test-dims", required=True, metavar="WxH", help="test image size")
    _add_metric_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sequence", help="evaluate a manifest of (reference, i) pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output stem; writes <out>.json and <out>.csv")
    p.add_argument("--detector", default="default", help="detector tag for the report")
    p.add_argument("--workers", type=int, default=1, help="parallel pair evaluations")
    _add_metric_flags(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("correlate", help="correlate repeatability with true matches")
    p.add_argument(
        "--report",
        action="append",
        required=True,
        help="sequence report JSON (repeatable)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("summary", help="rank detectors per dataset")
    p.add_argument("--reports", nargs="+", required=True, help="sequence report JSONs")
    p.add_argument("--criterion", choices=harness.CRITERIA, default="c2")
    p.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=None,
        help="rating thresholds in (0,1), ascending (default: thirds of each "
        "dataset's best score)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--name", default="synth", help="dataset name for the manifest")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--images", type=int, default=6, help="sequence length (default 6)")
    p.add_argument("--n-points", type=int, default=300)
    p.add_argument("--dims", default="800x640", metavar="WxH")
    p.add_argument("--scale-range", default="2:6", metavar="MIN:MAX")
    p.add_argument("--jitter", type=float, default=0.5, help="center jitter sigma in px")
    p.add_argument(
        "--jitter-end",
        type=float,
        default=None,
        help="ramp jitter linearly to this value at the last image",
    )
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--distractors", type=int, default=0)
    p.add_argument("--descriptor-dim", type=int, default=16)
    p.add_argument("--descriptor-noise", type=float, default=0.05)
    p.add_argument(
        "--homography",
        action="append",
        default=None,
        help="homography file for each derived image (repeatable; default: "
        "a mild built-in similarity ramp)",
    )
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"repbench: error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
