"""Sequence evaluation, report serialization, correlation tables, and
ranking summaries.

A sequence report holds the per-pair evaluations of (reference, i) pairs for
i = 2..M, the derived metric series, and (when computable) the correlation of
each repeatability series against the true-match series.  Reports serialize
to JSON (full) and CSV (the plot series, header `pair,eq1,c1,c2,true_matches`).
Correlation tables use the header `dataset,criterion,r,p,n`.  load_report
reads a sequence report back through the loader in formats, which checks it
with formats.parse_report and names the file in every error.

All numeric values are rendered with repr(float) in the CSV and by the json
module (which uses the same repr) in JSON, so the two formats agree byte for
byte on every number.  Undefined values are empty CSV fields and JSON nulls.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DegenerateSeries, InsufficientData
from .formats import (
    CRITERIA,
    SEQUENCE_SCHEMA,
    DatasetManifest,
    ManifestHomography,
    ManifestImage,
    _load,
    load_homography,
    load_keypoints,
    parse_report,
    write_homography,
    write_keypoints,
    write_manifest,
)
from .geometry import Homography
from .metrics import EvalConfig, evaluate_pair
from .stats import bin_scores, check_thresholds, correlate, summarize
from .synth import derive_test, generate_reference

PAIR_SCHEMA = "repbench.pair/1"
CORRELATE_SCHEMA = "repbench.correlate/1"
SUMMARY_SCHEMA = "repbench.summary/1"

SEQUENCE_CSV_HEADER = "pair,eq1,c1,c2,true_matches"
CORRELATION_CSV_HEADER = "dataset,criterion,r,p,n"
MISSING_CELL = "—"


@dataclass(frozen=True)
class PairOutcome:
    pair: int  # position of the test image in the manifest, 2-based
    image_id: str
    label: str | None
    evaluation: object  # metrics.PairEvaluation


@dataclass
class SequenceReport:
    dataset: str
    detector: str
    config: EvalConfig
    pairs: list

    def series(self, key):
        if key == "true_matches":
            return [p.evaluation.true_matches for p in self.pairs]
        if key in CRITERIA:
            return [getattr(p.evaluation, key) for p in self.pairs]
        raise KeyError(key)

    def correlations(self):
        """Per criterion: a CorrelationReport against the true-match series,
        or a string explaining why none is defined."""
        tm = self.series("true_matches")
        descriptors = all(p.evaluation.descriptors_available for p in self.pairs)
        return {crit: correlate_series(self.series(crit), tm, descriptors) for crit in CRITERIA}


def correlate_series(xs, tm, descriptors_available):
    """Correlation of a rate series with the true-match series tm: a
    CorrelationReport, or a note saying why the cell is undefined."""
    if any(v is None for v in xs) or any(v is None for v in tm):
        return "series contains undefined values"
    if not descriptors_available:
        return "true-match series unavailable (no descriptors)"
    try:
        return correlate(xs, [float(v) for v in tm])
    except InsufficientData:
        return f"needs at least 3 pairs, have {len(xs)}"
    except DegenerateSeries:
        return "a series has zero variance"


def evaluate_sequence(manifest, base_dir, cfg=EvalConfig(), detector="default", workers=1):
    """Evaluate every (reference, i) pair of a manifest.

    File paths in the manifest resolve relative to base_dir.  Pair
    evaluations may run on a thread pool; aggregation is in manifest order
    regardless, so the report does not depend on workers (at least 1).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ref_entry = manifest.images[0]
    ref = load_keypoints(
        os.path.join(base_dir, ref_entry.keypoints),
        ref_entry.id,
        ref_entry.width,
        ref_entry.height,
    )
    jobs = []
    for pos, img in enumerate(manifest.images[1:], start=2):
        kset = load_keypoints(
            os.path.join(base_dir, img.keypoints), img.id, img.width, img.height
        )
        h = load_homography(
            os.path.join(base_dir, manifest.homography_path(ref_entry.id, img.id))
        )
        jobs.append((pos, img, kset, h))

    def run(job):
        pos, img, kset, h = job
        return PairOutcome(pos, img.id, img.label, evaluate_pair(ref, kset, h, cfg))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, jobs))
    else:
        outcomes = [run(job) for job in jobs]
    return SequenceReport(manifest.name, detector, cfg, outcomes)


def format_value(x):
    """One CSV cell: text as is, empty for None, repr for floats, str for ints."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _csv(header, rows):
    """CSV text: the header line, then one line per row of cell values."""
    lines = [header] + [",".join(map(format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _dump_json(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _correlation_value(value):
    if isinstance(value, str):
        return {"note": value}
    return {"r": value.r, "p_value": value.p_value, "n": value.n}


def sequence_report_json(report):
    pairs = [
        {"pair": p.pair, "image": p.image_id, "label": p.label, **asdict(p.evaluation)}
        for p in report.pairs
    ]
    doc = {
        "schema": SEQUENCE_SCHEMA,
        "dataset": report.dataset,
        "detector": report.detector,
        "config": asdict(report.config),
        "pairs": pairs,
        "series": {
            "eq1": report.series("eq1"),
            "c1": report.series("c1"),
            "c2": report.series("c2"),
            "true_matches": report.series("true_matches"),
        },
        "correlations": {
            crit: _correlation_value(v) for crit, v in report.correlations().items()
        },
    }
    return _dump_json(doc)


def _series_row(pair, e):
    return (pair, e.eq1, e.c1, e.c2, e.true_matches)


def sequence_report_csv(report):
    return _csv(SEQUENCE_CSV_HEADER, [_series_row(p.pair, p.evaluation) for p in report.pairs])


def pair_report_json(evaluation, cfg, ref_path, test_path, homography_path):
    doc = {
        "schema": PAIR_SCHEMA,
        "ref": ref_path,
        "test": test_path,
        "homography": homography_path,
        "config": asdict(cfg),
        **asdict(evaluation),
    }
    return _dump_json(doc)


def pair_report_csv(evaluation):
    # a lone pair is (image 1, image 2) by convention
    return _csv(SEQUENCE_CSV_HEADER, [_series_row(2, evaluation)])


def load_report(path):
    """Read and validate a sequence report JSON written by this tool."""
    return _load(path, parse_report)


def correlate_reports(reports):
    """Correlation rows (one per report and criterion) plus aggregates.

    Each row is a dict with dataset, criterion, r, p, n and an optional note;
    r and p are None when the cell is undefined, with the note the sequence
    report writes (correlate_series).  A report is without descriptors when
    one of its pairs says descriptors_available false.  Aggregates (mean/std
    of r and p per criterion over the defined cells) are returned when more
    than one report is given, else None.
    """
    rows = []
    for doc in reports:
        series = doc["series"]
        descriptors = all(
            p.get("descriptors_available") is not False for p in doc.get("pairs", [])
        )
        for crit in CRITERIA:
            xs = series[crit]
            row = {"dataset": doc["dataset"], "criterion": crit, "n": len(xs)}
            cell = correlate_series(xs, series["true_matches"], descriptors)
            if isinstance(cell, str):
                row.update(r=None, p=None, note=cell)
            else:
                row.update(r=cell.r, p=cell.p_value)
            rows.append(row)

    aggregates = None
    if len(reports) > 1:
        aggregates = {}
        for crit in CRITERIA:
            rs = [row["r"] for row in rows if row["criterion"] == crit and row["r"] is not None]
            ps = [row["p"] for row in rows if row["criterion"] == crit and row["p"] is not None]
            mean_r, std_r = summarize(rs) if rs else (None, None)
            mean_p, std_p = summarize(ps) if ps else (None, None)
            aggregates[crit] = {
                "mean_r": mean_r,
                "std_r": std_r,
                "mean_p": mean_p,
                "std_p": std_p,
                "count": len(rs),
            }
    return rows, aggregates


def correlation_table_csv(rows, aggregates):
    cells = [(row["dataset"], row["criterion"], row["r"], row["p"], row["n"]) for row in rows]
    if aggregates is not None:
        for stat in ("mean", "std"):
            for crit in CRITERIA:
                agg = aggregates[crit]
                cells.append((stat, crit, agg[f"{stat}_r"], agg[f"{stat}_p"], agg["count"]))
    return _csv(CORRELATION_CSV_HEADER, cells)


def correlation_table_json(rows, aggregates):
    doc = {"schema": CORRELATE_SCHEMA, "rows": rows}
    if aggregates is not None:
        doc["aggregates"] = aggregates
    return _dump_json(doc)


def summary_table(reports, criterion="c2", thresholds=None):
    """Mean criterion score per (detector, dataset), with ratings.

    Detectors and datasets keep first-appearance order.  When thresholds is
    None each dataset is binned at (1/3, 2/3) of its best mean score, or
    not at all when that best is not positive, which rates every cell "+";
    explicit thresholds apply everywhere and are checked before any cell
    is (stats.check_thresholds).  Cells with no defined values stay None.
    Returns (detectors, datasets, cells, ratings, thresholds_used) where
    cells and ratings map (detector, dataset) to score / rating string.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if thresholds is not None:
        thresholds = check_thresholds(thresholds)
    detectors = []
    datasets = []
    values = {}
    for doc in reports:
        det = doc["detector"]
        ds = doc["dataset"]
        if det not in detectors:
            detectors.append(det)
        if ds not in datasets:
            datasets.append(ds)
        values.setdefault((det, ds), []).extend(
            v for v in doc["series"][criterion] if v is not None
        )

    cells = {}
    for key, vals in values.items():
        cells[key] = sum(vals) / len(vals) if vals else None

    ratings = {}
    thresholds_used = {}
    for ds in datasets:
        col = {
            det: cells[(det, ds)]
            for det in detectors
            if (det, ds) in cells and cells[(det, ds)] is not None
        }
        if not col:
            thresholds_used[ds] = None
            continue
        if thresholds is not None:
            bins = list(thresholds)
        else:
            best = max(col.values())
            bins = [best / 3.0, 2.0 * best / 3.0] if best > 0 else []
        thresholds_used[ds] = bins if bins else None
        for det, rating in bin_scores(col, bins).items():
            ratings[(det, ds)] = rating
    return detectors, datasets, cells, ratings, thresholds_used


def summary_table_csv(detectors, datasets, cells, ratings):
    rows = [[det] + [ratings.get((det, ds), MISSING_CELL) for ds in datasets]
            for det in detectors]
    return _csv(",".join(["detector"] + datasets), rows)


def summary_table_json(criterion, detectors, datasets, cells, ratings, thresholds_used):
    doc = {
        "schema": SUMMARY_SCHEMA,
        "criterion": criterion,
        "datasets": datasets,
        "thresholds": thresholds_used,
        "rows": [
            {
                "detector": det,
                "cells": {
                    ds: {
                        "score": cells.get((det, ds)),
                        "rating": ratings.get((det, ds)),
                    }
                    for ds in datasets
                },
            }
            for det in detectors
        ],
    }
    return _dump_json(doc)


def default_sequence_homography(k, width, height):
    """A mild similarity used when no homographies are supplied: rotate and
    shrink about the image center, then drift a few pixels, both growing with
    the pair ordinal k = 1..M-1."""
    angle = 0.03 * k
    scale = 1.0 / (1.0 + 0.05 * k)
    co = scale * np.cos(angle)
    si = scale * np.sin(angle)
    cx, cy = width / 2.0, height / 2.0
    # translation keeps the center fixed, then drifts it
    tx = cx - (co * cx - si * cy) + 2.0 * k
    ty = cy - (si * cx + co * cy) - 1.5 * k
    return Homography(np.array([[co, -si, tx], [si, co, ty], [0.0, 0.0, 1.0]]))


def synth_sequence(
    out_dir,
    name,
    cfg,
    images=6,
    homographies=None,
    jitter_end=None,
):
    """Write a ready-to-run synthetic dataset: keypoint files for one
    reference and images-1 derived views, homography files, and a manifest.

    Image i (2..M) is derived with seed cfg.seed + (i - 1); when jitter_end
    is given the jitter ramps linearly from cfg.jitter_sigma (pair 2) to
    jitter_end (pair M).  Returns the manifest path.
    """
    if images < 2:
        raise ValueError("a sequence needs at least 2 images")
    # NaN fails the range check, as in SynthConfig
    if jitter_end is not None and not 0.0 <= jitter_end < math.inf:
        raise ValueError("jitter_end must be finite and >= 0")
    if homographies is not None and len(homographies) != images - 1:
        raise ValueError(
            f"need {images - 1} homographies for {images} images, got {len(homographies)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    ref = generate_reference(cfg, image_id="img1")
    entries = [
        ManifestImage("img1", cfg.image_width, cfg.image_height, "img1.kpts")
    ]
    with open(os.path.join(out_dir, "img1.kpts"), "w") as fh:
        fh.write(write_keypoints(ref))

    links = []
    for i in range(2, images + 1):
        k = i - 1
        if homographies is not None:
            h = homographies[k - 1]
        else:
            h = default_sequence_homography(k, cfg.image_width, cfg.image_height)
        if jitter_end is not None and images > 2:
            jitter = cfg.jitter_sigma + (jitter_end - cfg.jitter_sigma) * (i - 2) / (
                images - 2
            )
        else:
            jitter = cfg.jitter_sigma
        step_cfg = replace(cfg, seed=cfg.seed + k, jitter_sigma=jitter)
        image_id = f"img{i}"
        kset = derive_test(ref, h, step_cfg, image_id=image_id)
        kpath = f"{image_id}.kpts"
        hpath = f"H_1_{i}.txt"
        with open(os.path.join(out_dir, kpath), "w") as fh:
            fh.write(write_keypoints(kset))
        with open(os.path.join(out_dir, hpath), "w") as fh:
            fh.write(write_homography(h))
        entries.append(
            ManifestImage(image_id, cfg.image_width, cfg.image_height, kpath)
        )
        links.append(ManifestHomography("img1", image_id, hpath))

    manifest = DatasetManifest(name, entries, links)
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        fh.write(write_manifest(manifest))
    return manifest_path
