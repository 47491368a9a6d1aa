"""
Ranking simulated detectors with a +/++/+++ summary grid
========================================================

Three synthetic "detectors" of different quality (more dropout and jitter
means a worse detector) run over the same two sequences.  Their mean
symmetric repeatability per dataset is then binned into ratings, where the
default thresholds sit at 1/3 and 2/3 of the best score per dataset.
"""

import os
import tempfile

from repbench.formats import load_manifest
from repbench.harness import (
    evaluate_sequence,
    summary_table,
    summary_table_csv,
    synth_sequence,
)
from repbench.metrics import EvalConfig
from repbench.synth import SynthConfig

DETECTORS = {
    "sharp": dict(jitter_sigma=0.2, dropout_rate=0.05),
    "decent": dict(jitter_sigma=0.8, dropout_rate=0.25),
    "sloppy": dict(jitter_sigma=1.4, dropout_rate=0.55),
}

eval_cfg = EvalConfig(grid_step=1.0)
reports = []
# the datasets live only as long as the demo needs them
with tempfile.TemporaryDirectory(prefix="repbench_demo_") as workdir:
    for dataset, base_seed in (("urban", 100), ("forest", 200)):
        for tag, flaws in DETECTORS.items():
            cfg = SynthConfig(
                seed=base_seed,
                n_points=120,
                descriptor_dim=8,
                descriptor_noise_sigma=0.05,
                **flaws,
            )
            out = os.path.join(workdir, f"{dataset}_{tag}")
            manifest_path = synth_sequence(out, dataset, cfg, images=5)
            reports.append(
                evaluate_sequence(load_manifest(manifest_path), out, eval_cfg, detector=tag)
            )

detectors, datasets, cells, ratings, thresholds = summary_table(reports, "c2")
print("mean criterion-2 score per (detector, dataset)")
for det in detectors:
    for ds in datasets:
        print(f"  {det:7s} {ds:7s} {cells[(det, ds)]:.4f}")
print("per-dataset rating thresholds")
for ds, bins in thresholds.items():
    print(f"  {ds}: {[round(b, 4) for b in bins]}")
print()
print(summary_table_csv(detectors, datasets, cells, ratings))
