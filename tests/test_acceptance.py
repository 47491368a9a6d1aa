"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints one PASS line through conftest.record_acceptance; the lines
are echoed again in the terminal summary so the gate is auditable in one
glance.  Tolerances and runtime budgets are asserted, not advisory.
"""

import filecmp
import json
import math
import os
import time
from dataclasses import replace

import numpy as np

import conftest
from repbench.cli import main
from repbench.errors import RepbenchError
from repbench.formats import parse_keypoints, write_keypoints
from repbench.geometry import Homography, SecondMomentEllipse, overlap_error
from repbench.metrics import (
    EvalConfig,
    criterion1,
    criterion2,
    eq1_repeatability,
    evaluate_pair,
)
from repbench.stats import p_value_two_tailed, pearson_r
from repbench.synth import SynthConfig, derive_test, generate_reference
from repbench import harness

from test_formats import MALFORMED_KEYPOINTS, random_keypoint_set

# frozen (r, p) fixtures: three per row, (original, criterion 1, criterion 2),
# all at series length n = 5
P_VALUE_FIXTURES = [
    ("bark", (0.884, 0.0466), (0.997, 0.0002), (0.989, 0.0014)),
    ("bikes", (0.7688, 0.1287), (0.996, 0.0003), (0.985, 0.0022)),
    ("boat", (0.697, 0.1909), (0.996, 0.0003), (0.993, 0.0007)),
    ("graffiti", (0.939, 0.0179), (0.971, 0.0059), (0.960, 0.0095)),
    ("leuven", (0.778, 0.1213), (0.998, 0.0001), (0.991, 0.001)),
    ("trees", (-0.591, 0.2940), (0.991, 0.001), (0.968, 0.0068)),
    ("ubc", (0.990, 0.0012), (0.998, 0.0001), (0.999, 0.000)),
    ("wall", (0.889, 0.0436), (0.950, 0.0133), (0.929, 0.0225)),
]


def test_acceptance_1_p_value_table():
    worst = 0.0
    checked = 0
    for _, *cells in P_VALUE_FIXTURES:
        for r, expected_p in cells:
            p = p_value_two_tailed(r, 5)
            worst = max(worst, abs(p - expected_p))
            assert abs(p - expected_p) <= 0.0005, (r, expected_p, p)
            checked += 1
    assert checked == 24
    conftest.record_acceptance(
        "[ACCEPTANCE 1] two-tailed p-values at n=5 match all 24 frozen (r, p) "
        f"cells: PASS (max deviation {worst:.2e} <= 5e-4)"
    )


def test_acceptance_2_overlap_oracles():
    start = time.monotonic()
    worst = 0.0
    for k in (1.5, 2.0, 3.0):
        a = SecondMomentEllipse.circle(0.0, 0.0, 10.0)
        b = SecondMomentEllipse.circle(0.0, 0.0, 10.0 * k)
        got = overlap_error(a, b, 0.05)
        want = 1.0 - 1.0 / (k * k)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-3, (k, got, want)

    for d in (0.5, 1.0, 1.5):
        a = SecondMomentEllipse.circle(0.0, 0.0, 1.0)
        b = SecondMomentEllipse.circle(d, 0.0, 1.0)
        got = overlap_error(a, b, 0.002)
        lens = 2.0 * math.acos(d / 2.0) - (d / 2.0) * math.sqrt(4.0 - d * d)
        union = 2.0 * math.pi - lens
        want = 1.0 - lens / union
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-3, (d, got, want)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    conftest.record_acceptance(
        "[ACCEPTANCE 2] overlap error matches concentric and offset-circle "
        f"closed forms: PASS (max deviation {worst:.2e} <= 1e-3, {elapsed:.2f}s)"
    )


def test_acceptance_3_formula_identities():
    rng = np.random.default_rng(1009)
    for _ in range(10_000):
        n_ref = int(rng.integers(1, 1001))
        n_test = int(rng.integers(1, 1001))
        n_rep = int(rng.integers(1, min(n_ref, n_test) + 1))

        eq1 = eq1_repeatability(n_rep, n_ref, n_test)
        c1 = criterion1(n_rep, n_ref)
        c2 = criterion2(n_rep, n_ref, n_test)

        assert eq1 == n_rep / min(n_ref, n_test)
        assert c1 == n_rep / n_ref
        assert c2 == 2 * n_rep / (n_ref + n_test)
        assert n_rep / max(n_ref, n_test) <= c2 <= eq1
        assert (c2 >= c1) == (n_ref >= n_test)
        assert 0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0 and 0.0 <= eq1 <= 1.0
    conftest.record_acceptance(
        "[ACCEPTANCE 3] rate identities hold exactly on 10000 random count "
        "triples: PASS (zero tolerance)"
    )


def test_acceptance_4_synthetic_ground_truth(tmp_path):
    start = time.monotonic()
    cfg = EvalConfig(grid_step=1.0)

    # lossless: every derived pair scores exactly 1.0 on all three rates
    synth_cfg = SynthConfig(seed=404, n_points=120, descriptor_dim=0)
    out = tmp_path / "lossless"
    manifest_path = harness.synth_sequence(str(out), "lossless", synth_cfg, images=4)
    from repbench.formats import load_manifest

    report = harness.evaluate_sequence(load_manifest(manifest_path), str(out), cfg)
    for pair in report["pairs"]:
        assert pair["eq1"] == 1.0 and pair["c1"] == 1.0 and pair["c2"] == 1.0, pair

    # dropout 0.4 over 100 seeds: mean c1 within [0.57, 0.63]
    vals = []
    for seed in range(100):
        s_cfg = SynthConfig(
            seed=seed, n_points=500, descriptor_dim=0, dropout_rate=0.4
        )
        ref = generate_reference(s_cfg)
        test = derive_test(ref, Homography(np.eye(3)), s_cfg)
        vals.append(evaluate_pair(ref, test, Homography(np.eye(3)), cfg).c1)
    mean_c1 = float(np.mean(vals))
    assert 0.57 <= mean_c1 <= 0.63, mean_c1

    # distractors lower c2 but not c1
    base_cfg = SynthConfig(seed=77, n_points=150, descriptor_dim=0)
    noisy_cfg = SynthConfig(seed=77, n_points=150, descriptor_dim=0, n_distractors=30)
    ref = generate_reference(base_cfg)
    clean = evaluate_pair(
        ref, derive_test(ref, Homography(np.eye(3)), base_cfg), Homography(np.eye(3)), cfg
    )
    noisy = evaluate_pair(
        ref, derive_test(ref, Homography(np.eye(3)), noisy_cfg), Homography(np.eye(3)), cfg
    )
    assert clean.c1 == noisy.c1 == 1.0
    assert noisy.c2 < clean.c2

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    conftest.record_acceptance(
        "[ACCEPTANCE 4] synthetic ground truth recovered (lossless rates 1.0, "
        f"dropout-0.4 mean c1 {mean_c1:.4f} in [0.57, 0.63], distractors cut "
        f"c2 {clean.c2:.3f}->{noisy.c2:.3f} with c1 fixed): PASS ({elapsed:.1f}s)"
    )


def test_acceptance_5_trend_fidelity(tmp_path):
    start = time.monotonic()
    cfg = EvalConfig(grid_step=1.5)
    from repbench.formats import load_manifest

    rs_c1 = []
    rs_c2 = []
    for seed in range(50):
        synth_cfg = SynthConfig(
            seed=1000 + seed,
            n_points=150,
            jitter_sigma=0.1,
            n_distractors=20,
            descriptor_dim=8,
            descriptor_noise_sigma=0.05,
        )
        out = tmp_path / f"trend{seed}"
        manifest_path = harness.synth_sequence(
            str(out), f"trend{seed}", synth_cfg, images=6, jitter_end=1.2
        )
        report = harness.evaluate_sequence(
            load_manifest(manifest_path), str(out), cfg
        )
        corr = report["correlations"]
        assert "note" not in corr["c1"], corr["c1"]
        assert "note" not in corr["c2"], corr["c2"]
        rs_c1.append(corr["c1"]["r"])
        rs_c2.append(corr["c2"]["r"])

    mean_c1 = float(np.mean(rs_c1))
    mean_c2 = float(np.mean(rs_c2))
    assert mean_c1 > 0.9, mean_c1
    assert mean_c2 > 0.9, mean_c2
    elapsed = time.monotonic() - start
    conftest.record_acceptance(
        "[ACCEPTANCE 5] repeatability series track the true-match series "
        f"under rising jitter: PASS (mean r over 50 seeds: c1 {mean_c1:.3f}, "
        f"c2 {mean_c2:.3f}, both > 0.9; {elapsed:.1f}s)"
    )


def test_acceptance_6_parser_robustness():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(1000):
        original = random_keypoint_set(rng, with_descriptors=bool(i % 2))
        parsed = parse_keypoints(write_keypoints(original), "img", 640, 480)
        assert len(parsed) == len(original)
        for kp_in, kp_out in zip(original.keypoints, parsed.keypoints):
            dc = float(np.max(np.abs(kp_in.region.center - kp_out.region.center)))
            ds = float(np.max(np.abs(kp_in.region.shape - kp_out.region.shape)))
            worst = max(worst, dc, ds)
            if original.descriptor_dim:
                dd = float(np.max(np.abs(kp_in.descriptor - kp_out.descriptor)))
                worst = max(worst, dd)
    assert worst <= 1e-9

    crashes = 0
    for text, _, _ in MALFORMED_KEYPOINTS:
        try:
            parse_keypoints(text, "img", 100, 100)
            crashes += 1  # malformed input must not parse silently
        except RepbenchError:
            pass
    assert crashes == 0

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    conftest.record_acceptance(
        "[ACCEPTANCE 6] 1000 fuzzed round-trips exact (worst field error "
        f"{worst:.1e} <= 1e-9) and {len(MALFORMED_KEYPOINTS)} malformed inputs "
        f"all raise structured errors: PASS ({elapsed:.1f}s)"
    )


def _run_pipeline(tmp_path, tag, workers):
    root = tmp_path / tag
    root.mkdir()
    datasets = []
    for name, seed in (("alpha", 21), ("beta", 22)):
        out = root / name
        code = main(
            [
                "synth",
                "--out-dir",
                str(out),
                "--name",
                name,
                "--seed",
                str(seed),
                "--images",
                "4",
                "--n-points",
                "40",
                "--dims",
                "400x300",
                "--jitter",
                "0.4",
                "--dropout",
                "0.1",
                "--descriptor-dim",
                "4",
                "--descriptor-noise",
                "0.02",
            ]
        )
        assert code == 0
        datasets.append(out)

    reports = []
    for out in datasets:
        stem = root / f"report_{out.name}"
        code = main(
            [
                "sequence",
                "--manifest",
                str(out / "manifest.json"),
                "--out",
                str(stem),
                "--workers",
                str(workers),
                "--grid-step",
                "1.0",
            ]
        )
        assert code == 0
        reports.append(str(stem) + ".json")

    code = main(
        ["correlate", "--report", reports[0], "--report", reports[1],
         "--format", "csv", "--out", str(root / "corr.csv")]
    )
    assert code in (0, 3)
    code = main(
        ["correlate", "--report", reports[0], "--report", reports[1],
         "--format", "json", "--out", str(root / "corr.json")]
    )
    assert code in (0, 3)
    code = main(
        ["summary", "--reports", *reports, "--out", str(root / "summary.csv")]
    )
    assert code == 0
    code = main(
        ["summary", "--reports", *reports, "--format", "json",
         "--out", str(root / "summary.json")]
    )
    assert code == 0
    return root


def test_acceptance_7_determinism(tmp_path, capsys):
    runs = [
        _run_pipeline(tmp_path, "run1", workers=1),
        _run_pipeline(tmp_path, "run2", workers=1),
        _run_pipeline(tmp_path, "run3", workers=4),
    ]
    capsys.readouterr()

    compared = 0
    baseline = runs[0]
    for other in runs[1:]:
        for dirpath, _, filenames in os.walk(baseline):
            rel = os.path.relpath(dirpath, baseline)
            for fname in filenames:
                a = os.path.join(dirpath, fname)
                b = os.path.join(other, rel, fname)
                assert filecmp.cmp(a, b, shallow=False), (a, b)
                compared += 1
    assert compared >= 2 * 17  # 2 datasets x (5 files + 2 report files) + 4 tables

    # the reports really carry data, not just matching emptiness
    doc = json.loads((baseline / "report_alpha.json").read_text())
    assert doc["pairs"][0]["n_ref"] > 0
    conftest.record_acceptance(
        "[ACCEPTANCE 7] synth->sequence->correlate->summary byte-identical "
        f"across reruns and worker counts: PASS ({compared} file comparisons)"
    )


def dropout_ramp(k):
    return {"dropout_rate": 0.1 + 0.75 * (k - 1) / 4}


def jitter_ramp(k):
    return {"dropout_rate": 0.1, "jitter_sigma": 0.25 + 2.35 * (k - 1) / 4}


def ramp_mean_r(seeds, ramp):
    """Mean r of eq1, c1 and c2 against the true matches over one 5-pair
    sequence per seed: a reference of 300 points with 16-D descriptors, and
    pair k = 1..5 derived under harness.default_sequence_homography with the
    SynthConfig fields ramp(k) sets, evaluated at the default EvalConfig."""
    rs = {"eq1": [], "c1": [], "c2": []}
    for seed in seeds:
        cfg = SynthConfig(seed=seed, n_points=300, jitter_sigma=0.5, descriptor_noise_sigma=0.05)
        ref = generate_reference(cfg)
        evals = []
        for k in range(1, 6):
            h = harness.default_sequence_homography(k, cfg.image_width, cfg.image_height)
            test = derive_test(ref, h, replace(cfg, seed=seed + k, **ramp(k)))
            evals.append(evaluate_pair(ref, test, h, EvalConfig()))
        tm = [ev.true_matches for ev in evals]
        for crit, values in rs.items():
            r = pearson_r([getattr(ev, crit) for ev in evals], tm)
            assert r is not None, (seed, crit)
            values.append(r)
    return {crit: float(np.mean(values)) for crit, values in rs.items()}


def test_acceptance_8_eq1_fails_under_unbalanced_counts():
    """The paper's claim: when dropout thins the test image, eq1's
    denominator min(n_ref, n_test) falls with n_rep, so eq1 stops tracking
    the true matches while c1 and c2 keep tracking them.  Under a jitter
    ramp all three track them.  The limit: n_ref is 300 on every pair and
    the true matches equal n_rep, so r(c1) = 1 by construction; this shows
    the flaw in eq1, not that c1 or c2 track matches once they and the
    repeats come apart."""
    start = time.monotonic()
    ramp = ramp_mean_r(range(1, 21), dropout_ramp)
    assert ramp["c1"] > 0.9 and ramp["c2"] > 0.9 and ramp["eq1"] < 0.5, ramp
    control = ramp_mean_r(range(1, 21), jitter_ramp)
    assert min(control.values()) > 0.9, control
    elapsed = time.monotonic() - start
    conftest.record_acceptance(
        "[ACCEPTANCE 8] under a dropout ramp eq1 stops tracking the true "
        "matches and c1, c2 do not: PASS (mean r over 20 seeds, eq1 / c1 / c2: "
        f"dropout {ramp['eq1']:+.3f} / {ramp['c1']:+.3f} / {ramp['c2']:+.3f}, "
        f"jitter {control['eq1']:+.3f} / {control['c1']:+.3f} / {control['c2']:+.3f}; "
        f"{elapsed:.1f}s)"
    )
