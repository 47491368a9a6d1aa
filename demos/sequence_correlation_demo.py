"""
Sequence evaluation and the repeatability / true-match correlation
==================================================================

Builds a six-image synthetic sequence whose jitter grows image by image,
evaluates every (reference, i) pair, and correlates each repeatability
series against the true-match series.  The fixed-reference and symmetric
rates track the true matches tightly; correlation r close to 1 with a
small two-tailed p is the expected outcome.
"""

import os
import tempfile

from repbench.formats import load_manifest
from repbench.harness import evaluate_sequence, synth_sequence
from repbench.metrics import EvalConfig
from repbench.synth import SynthConfig

workdir = tempfile.mkdtemp(prefix="repbench_demo_")
cfg = SynthConfig(
    seed=42,
    n_points=150,
    jitter_sigma=0.1,
    n_distractors=20,
    descriptor_dim=8,
    descriptor_noise_sigma=0.05,
)
manifest_path = synth_sequence(
    os.path.join(workdir, "ramp"), "ramp", cfg, images=6, jitter_end=1.2
)
print(f"dataset written to {os.path.dirname(manifest_path)}")

doc = evaluate_sequence(
    load_manifest(manifest_path),
    os.path.dirname(manifest_path),
    EvalConfig(grid_step=1.0),
)

print("pair  eq1     c1      c2      true matches")
for p in doc["pairs"]:
    print(
        f"  {p['pair']}   {p['eq1']:.4f}  {p['c1']:.4f}  {p['c2']:.4f}  {p['true_matches']}"
    )

print("correlation against the true-match series (n = 5 pairs each)")
for crit, cell in doc["correlations"].items():
    if "note" in cell:
        print(f"  {crit}: {cell['note']}")
    else:
        print(f"  {crit}: r={cell['r']:+.4f}  p={cell['p_value']:.4f}")
