"""The benchmark's span tracer (bench/tracing.py) still fits the package.

`bench/run.py --trace 1` replaces the functions named in tracing.TARGETS
by name and reads their arguments and results in its hooks, so removing,
renaming or re-signing one of them breaks the traced benchmark.  This test
installs the tracer, which fails if a target is gone, runs a traced
evaluate_sequence with 2 workers on a small synthetic set, and uninstalls
it.  It only reads bench/.
"""

import importlib.util
import os
import sys

import repbench.cli  # noqa: F401  (the tracer wraps functions of every module)
from repbench import harness
from repbench.formats import load_manifest
from repbench.metrics import EvalConfig
from repbench.synth import SynthConfig

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("repbench_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_sequence_records_the_hooked_spans(tmp_path):
    tracing = load_tracing()
    cfg = SynthConfig(seed=7, n_points=60, jitter_sigma=0.5, dropout_rate=0.1,
                      descriptor_dim=8, descriptor_noise_sigma=0.05)
    manifest = load_manifest(harness.synth_sequence(str(tmp_path), "traced", cfg, images=4))
    untraced = harness.evaluate_sequence(manifest, str(tmp_path), EvalConfig(), workers=2)
    targets = [(sys.modules[mod], name) for mod, funcs in tracing.TARGETS.items()
               for name in funcs]
    originals = [getattr(mod, name) for mod, name in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, name) is not fn for (mod, name), fn in zip(targets, originals))
        report = harness.evaluate_sequence(manifest, str(tmp_path), EvalConfig(), workers=2)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(targets, originals))
    assert harness.sequence_report_json(report) == harness.sequence_report_json(untraced)

    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    assert all("error" not in s.attrs for s in tracer.spans)
    (sequence,) = spans["harness.evaluate_sequence"]
    assert sequence.attrs["workers"] == 2
    assert len(spans[tracing.POOL_JOB]) == 3

    pairs = spans["metrics.evaluate_pair"]
    assert sorted((s.attrs["n_rep"], s.attrs["true_matches"]) for s in pairs) == sorted(
        (p["n_rep"], p["true_matches"]) for p in report["pairs"]
    )
    matches = spans["matching.match_descriptors"]
    assert len(matches) == 3
    for s in matches:
        assert s.attrs["d"] == 8 and s.attrs["n"] > 0 and s.attrs["m"] > 0
        # the nn matcher makes min(n, m) matches, one row of its result each
        assert s.attrs["matches"] == min(s.attrs["n"], s.attrs["m"])
    loads = spans["formats.load_keypoints"]
    assert len(loads) == 4
    assert all(s.attrs["bytes"] > 0 and s.attrs["keypoints"] > 0 for s in loads)
