"""Sequence evaluation, report serialization, correlation tables, and
ranking summaries.

A sequence report is one JSON document (a dict): the per-pair evaluations of
(reference, i) pairs for i = 2..M, the derived metric series, and (when
computable) the correlation of each repeatability series against the
true-match series.  evaluate_sequence returns the document that load_report
reads back from its JSON, and every function here that takes a report takes
that document.  Reports serialize to JSON (full) and CSV (the plot series,
header `pair,eq1,c1,c2,true_matches`).  Correlation tables use the header
`dataset,criterion,r,p,n`.  load_report reads through the loader in formats,
which checks the document with formats.parse_report and names the file in
every error.

All numeric values are rendered with repr(float) in the CSV and by the json
module (which uses the same repr) in JSON, so the two formats agree byte for
byte on every number.  Undefined values are empty CSV fields and JSON nulls.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from .errors import DegenerateSeries, InsufficientData, ManifestError
from .formats import (
    CRITERIA,
    SEQUENCE_SCHEMA,
    SERIES,
    _dump_json,
    _load,
    homography_path,
    load_homography,
    load_keypoints,
    parse_report,
    write_homography,
    write_keypoints,
)
from .geometry import Homography
from .metrics import EvalConfig, candidate_tables, evaluate_pair
from .stats import bin_scores, check_thresholds, correlate, summarize
from .synth import derive_test, generate_reference

PAIR_SCHEMA = "repbench.pair/1"
CORRELATE_SCHEMA = "repbench.correlate/1"
SUMMARY_SCHEMA = "repbench.summary/1"

SEQUENCE_CSV_HEADER = "pair,eq1,c1,c2,true_matches"
CORRELATION_CSV_HEADER = "dataset,criterion,r,p,n"
MISSING_CELL = "—"


def _correlations(doc):
    """The correlations block of a sequence report document: per criterion,
    r, p_value and n of its series against the true-match series, or a note
    saying why the cell is undefined.  A report is without descriptors when
    one of its pairs says descriptors_available false."""
    series = doc["series"]
    tm = series["true_matches"]
    descriptors = all(p.get("descriptors_available", True) for p in doc.get("pairs", []))

    def cell(xs):
        if any(v is None for v in xs + tm):
            return {"note": "series contains undefined values"}
        if not descriptors:
            return {"note": "true-match series unavailable (no descriptors)"}
        try:
            return correlate(xs, [float(v) for v in tm])
        except InsufficientData:
            return {"note": f"needs at least 3 pairs, have {len(xs)}"}
        except DegenerateSeries:
            return {"note": "a series has zero variance"}

    return {crit: cell(series[crit]) for crit in CRITERIA}


def _sequence_doc(dataset, detector, cfg, pairs):
    """The sequence report document of pair rows (pair, image, label and
    the PairEvaluation fields), with its series and correlations."""
    doc = {
        "schema": SEQUENCE_SCHEMA,
        "dataset": dataset,
        "detector": detector,
        "config": asdict(cfg),
        "pairs": pairs,
        "series": {key: [p[key] for p in pairs] for key in SERIES},
    }
    doc["correlations"] = _correlations(doc)
    return doc


def evaluate_sequence(manifest, base_dir, cfg=EvalConfig(), detector="default", workers=1):
    """Evaluate every (reference, i) pair of a manifest and return the
    sequence report document: the dict load_report returns for the JSON
    written from it (sequence_report_json).

    File paths in the manifest resolve relative to base_dir.  The
    candidate tables of all the pairs come from one pass
    (metrics.candidate_tables), one spatial hash with the pair's index in
    each cell key and one overlap-error call, before the pairs are
    evaluated.  Pair evaluations may run on a thread pool; aggregation is
    in manifest order regardless, so the report does not depend on workers
    (at least 1).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    def load(img):
        path = os.path.join(base_dir, img["keypoints"])
        return load_keypoints(path, img["id"], img["width"], img["height"])

    ref_entry, *others = manifest["images"]
    ref = load(ref_entry)
    jobs = []
    for pos, img in enumerate(others, start=2):
        kset = load(img)
        hpath = homography_path(manifest, img["id"])
        if hpath is None:
            raise ManifestError(f"no homography {ref_entry['id']} -> {img['id']}")
        jobs.append((pos, img, kset, load_homography(os.path.join(base_dir, hpath))))

    tables = candidate_tables(ref, [(kset, h) for _, _, kset, h in jobs], cfg)

    def run(job, table):
        pos, img, kset, h = job
        evaluation = evaluate_pair(ref, kset, h, cfg, candidates=table)
        return {"pair": pos, "image": img["id"], "label": img.get("label"),
                **asdict(evaluation)}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(run, jobs, tables))
    else:
        pairs = [run(job, table) for job, table in zip(jobs, tables)]
    return _sequence_doc(manifest["name"], detector, cfg, pairs)


def format_value(x):
    """One CSV cell: empty for None, repr for floats, str for ints, and text
    as is, or in double quotes with its quotes doubled when it holds a comma,
    a quote or a line break.  csv.writer would leave a lone CR unquoted when
    lines end in LF (Python 3.11), and csv.reader splits the row there."""
    if isinstance(x, str):
        if any(ch in x for ch in ',"\r\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _csv(header, rows):
    """CSV text: the header cells, then one line per row of cell values."""
    return "".join(",".join(map(format_value, row)) + "\n" for row in [header, *rows])


def sequence_report_json(doc):
    return _dump_json(doc)


def _series_rows(pairs):
    return [[p["pair"]] + [p[key] for key in SERIES] for p in pairs]


def sequence_report_csv(doc):
    return _csv(SEQUENCE_CSV_HEADER.split(","), _series_rows(doc["pairs"]))


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
    return _csv(SEQUENCE_CSV_HEADER.split(","), _series_rows([{"pair": 2, **asdict(evaluation)}]))


def load_report(path):
    """Read and validate a sequence report JSON written by this tool."""
    return _load(path, parse_report)


def correlate_reports(reports):
    """Correlation rows (one per report and criterion) plus aggregates.

    Each row is a dict with dataset, criterion, r, p, n and an optional note;
    r and p are None when the cell is undefined, with the note of the
    report's correlations block (_correlations).  Aggregates (mean/std of r
    and p per criterion over the defined cells) are returned when more than
    one report is given, else None.
    """
    rows = []
    for doc in reports:
        for crit, cell in _correlations(doc).items():
            row = {"dataset": doc["dataset"], "criterion": crit, "n": len(doc["series"][crit]),
                   "r": cell.get("r"), "p": cell.get("p_value")}
            if "note" in cell:
                row["note"] = cell["note"]
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
    return _csv(CORRELATION_CSV_HEADER.split(","), cells)


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
    return _csv(["detector"] + datasets, rows)


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
    co = scale * math.cos(angle)
    si = scale * math.sin(angle)
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
    jitter_end (pair M, at least 3).  Returns the manifest path.
    """
    if images < 2:
        raise ValueError("a sequence needs at least 2 images")
    # NaN fails the range check, as in SynthConfig
    if jitter_end is not None and not (0.0 <= jitter_end < math.inf and images >= 3):
        raise ValueError("jitter_end must be finite and >= 0, with at least 3 images to ramp")
    if homographies is not None and len(homographies) != images - 1:
        raise ValueError(
            f"need {images - 1} homographies for {images} images, got {len(homographies)}"
        )
    os.makedirs(out_dir, exist_ok=True)

    def entry(image_id):
        return {"id": image_id, "width": cfg.image_width, "height": cfg.image_height,
                "keypoints": f"{image_id}.kpts"}

    ref = generate_reference(cfg, image_id="img1")
    manifest = {"name": name, "images": [entry("img1")], "homographies": []}
    with open(os.path.join(out_dir, "img1.kpts"), "w") as fh:
        fh.write(write_keypoints(ref))

    for i in range(2, images + 1):
        k = i - 1
        if homographies is not None:
            h = homographies[k - 1]
        else:
            h = default_sequence_homography(k, cfg.image_width, cfg.image_height)
        jitter = cfg.jitter_sigma
        if jitter_end is not None:
            jitter += (jitter_end - cfg.jitter_sigma) * (i - 2) / (images - 2)
        step_cfg = replace(cfg, seed=cfg.seed + k, jitter_sigma=jitter)
        image_id = f"img{i}"
        kset = derive_test(ref, h, step_cfg, image_id=image_id)
        hpath = f"H_1_{i}.txt"
        with open(os.path.join(out_dir, f"{image_id}.kpts"), "w") as fh:
            fh.write(write_keypoints(kset))
        with open(os.path.join(out_dir, hpath), "w") as fh:
            fh.write(write_homography(h))
        manifest["images"].append(entry(image_id))
        manifest["homographies"].append({"from": "img1", "to": image_id, "path": hpath})

    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        fh.write(_dump_json(manifest))
    return manifest_path
