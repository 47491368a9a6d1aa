"""The benchmark's two synthetic workloads and the pipeline phases they run.

Every workload is generated with repbench's own synth layer from the seed
given on the command line (no downloads), then run through the whole
pipeline: synth -> sequence -> correlate -> summary, each phase in a
process of its own, as the four `repbench` commands run (phase.py).  The
evaluation protocol is the one of Mikolajczyk et al., "A Comparison of
Affine Region Detectors" (IJCV 2005): centre distance below 1.5 px and
overlap error below 40 %.  Descriptor sizes follow HPatches (Balntas et al.,
CVPR 2017).  Point counts are below the detector output sizes reported
there, so that one pass takes a few seconds and a run's medians are taken
over more than ten passes: a pass of 200 or 1000 points takes 15-20 s, and
a run of two such passes moved by up to 25 % between runs on a shared
2-vCPU machine.  Each workload keeps the layer balance it was chosen for.

There is no workload of well-localised points under the built-in
similarities: it would exercise the same overlap kernel as ramp-projective
(over 90 % of evaluate_pair time on both) and no other layer, and two
workloads leave room for 60 s runs.

Shared settings: 800x640 images, 6 images (5 pairs), descriptor noise 0.05,
dropout 0.1.
"""

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from repbench import cli, formats, harness
from repbench.geometry import Homography
from repbench.metrics import EvalConfig
from repbench.synth import SynthConfig

WIDTH, HEIGHT = 800, 640
IMAGES = 6
PAIRS = IMAGES - 1
DESCRIPTOR_NOISE = 0.05
DROPOUT = 0.1
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_points: int
    jitter: float
    descriptor_dim: int
    matcher: str
    workers: int  # pool size of the traced run; end-to-end passes are serial
    # Set only for ramp-projective, which ramps the jitter, uses projective
    # homographies and drives every phase through repbench.cli.main.
    jitter_end: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "descriptor-m400",
            "400 poorly localised points with 128-D descriptors: few pass the "
            "centre gate, so descriptor distances, parsing, synth and memory dominate",
            n_points=400,
            jitter=6.0,
            descriptor_dim=128,
            matcher="nn",
            workers=1,
        ),
        Workload(
            "ramp-projective",
            "the paper's jitter ramp under projective homographies, all through "
            "the CLI: ratio matcher, mostly rejected candidates late, uneven pairs",
            n_points=80,
            jitter=0.25,
            descriptor_dim=16,
            matcher="ratio",
            workers=2,
            jitter_end=3.0,
        ),
    )
}


def ramp_homography(k):
    """H_k = P_k . S_k: the built-in similarity S_k followed by a projective
    tilt whose bottom row [1e-4 k, 0.5e-4 k, 1] keeps w in [1, 1.56] over the
    image, so the horizon stays out of view."""
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-4 * k, 0.5e-4 * k, 1.0]])
    return Homography(tilt) @ harness.default_sequence_homography(k, WIDTH, HEIGHT)


def _cli(argv):
    """Run one repbench subcommand in-process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    # 3 means "defined but degenerate": a report is still written and the
    # output check judges it.
    if code not in (cli.EXIT_OK, cli.EXIT_DEGENERATE):
        raise RuntimeError(f"repbench {argv[0]} exited with {code}")


def setup(w, seed, out_dir):
    """Write the workload's dataset into out_dir; returns the manifest path."""
    if w.jitter_end is None:
        cfg = SynthConfig(
            seed=seed,
            n_points=w.n_points,
            image_width=WIDTH,
            image_height=HEIGHT,
            jitter_sigma=w.jitter,
            dropout_rate=DROPOUT,
            descriptor_dim=w.descriptor_dim,
            descriptor_noise_sigma=DESCRIPTOR_NOISE,
        )
        return harness.synth_sequence(out_dir, w.name, cfg, images=IMAGES)

    h_dir = os.path.join(out_dir, "homographies")
    os.makedirs(h_dir)
    h_args = []
    for k in range(1, IMAGES):
        path = os.path.join(h_dir, f"H_{k}.txt")
        with open(path, "w") as fh:
            fh.write(formats.write_homography(ramp_homography(k)))
        h_args += ["--homography", path]
    _cli(
        [
            "synth", "--out-dir", out_dir, "--name", w.name, "--seed", str(seed),
            "--images", str(IMAGES), "--n-points", str(w.n_points),
            "--dims", f"{WIDTH}x{HEIGHT}", "--jitter", str(w.jitter),
            "--jitter-end", str(w.jitter_end), "--dropout", str(DROPOUT),
            "--descriptor-dim", str(w.descriptor_dim),
            "--descriptor-noise", str(DESCRIPTOR_NOISE),
        ]
        + h_args
    )
    return os.path.join(out_dir, "manifest.json")


def sequence(w, manifest_path, stem, workers):
    """Evaluate the manifest on `workers` threads and write STEM.json and
    STEM.csv, as `repbench sequence` does."""
    if w.jitter_end is not None:
        _cli(
            ["sequence", "--manifest", manifest_path, "--out", stem,
             "--matcher", w.matcher, "--workers", str(workers)]
        )
        return
    manifest = formats.load_manifest(manifest_path)
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    report = harness.evaluate_sequence(
        manifest, base_dir, EvalConfig(matcher=w.matcher), workers=workers
    )
    # cli._emit is the writer `repbench sequence` uses.
    cli._emit(harness.sequence_report_json(report), stem + ".json")
    cli._emit(harness.sequence_report_csv(report), stem + ".csv")


def correlate(w, stem):
    """Write the correlation table of STEM.json to STEM.correlate.csv."""
    if w.jitter_end is not None:
        _cli(["correlate", "--report", stem + ".json", "--out", stem + ".correlate.csv"])
        return
    docs = [harness.load_report(stem + ".json")]
    with open(stem + ".correlate.csv", "w") as fh:
        fh.write(harness.correlation_table_csv(*harness.correlate_reports(docs)))


def summarise(w, stem):
    """Write the c2 rating grid of STEM.json to STEM.summary.csv."""
    if w.jitter_end is not None:
        _cli(["summary", "--reports", stem + ".json", "--out", stem + ".summary.csv"])
        return
    docs = [harness.load_report(stem + ".json")]
    detectors, datasets, cells, ratings, _ = harness.summary_table(docs)
    with open(stem + ".summary.csv", "w") as fh:
        fh.write(harness.summary_table_csv(detectors, datasets, cells, ratings))


PHASES = ("setup", "sequence", "correlate", "summary")


def run_phase(w, phase, seed, pass_dir, workers):
    """One phase of a pass: the dataset goes to PASS_DIR/data and the
    reports to PASS_DIR/report.*."""
    data = os.path.join(pass_dir, "data")
    stem = os.path.join(pass_dir, "report")
    if phase == "setup":
        setup(w, seed, data)
    elif phase == "sequence":
        sequence(w, os.path.join(data, "manifest.json"), stem, workers)
    elif phase == "correlate":
        correlate(w, stem)
    elif phase == "summary":
        summarise(w, stem)
    else:
        raise ValueError(f"unknown phase {phase!r}")


def dataset_files(out_dir):
    """{relative path: bytes} of every file setup wrote, for determinism checks."""
    files = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = fh.read()
    return files
