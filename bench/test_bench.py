"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import time

import pytest

import common

common.import_repbench()

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repbench import harness  # noqa: E402
from repbench.formats import load_manifest  # noqa: E402
from repbench.metrics import EvalConfig  # noqa: E402
from repbench.synth import SynthConfig  # noqa: E402


def test_self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S(1, None, "root", 0.0, 10.0),
        # two overlapping children (pool workers) and one running past the end
        S(2, 1, "a", 1.0, 4.0),
        S(3, 1, "b", 3.0, 6.0),
        S(4, 1, "c", 8.0, 12.0),
        S(5, 2, "a.child", 2.0, 3.0),
        S(6, 4, "leaf", 9.0, 9.5),
    ]
    assert tracing.self_times(spans) == {
        1: 10.0 - (5.0 + 2.0),  # covered: [1, 6] and [8, 10]
        2: 3.0 - 1.0,
        3: 3.0,
        4: 4.0 - 0.5,
        5: 1.0,
        6: 0.5,
    }


def test_pool_jobs_nest_under_the_submitting_span():
    tracer = tracing.Tracer()
    wrapped = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.begin("outer")
    with tracer.executor_class()(max_workers=2) as pool:
        assert list(pool.map(wrapped, range(4))) == [0, 2, 4, 6]
    tracer.end(outer)
    by_id = {s.id: s for s in tracer.spans}
    jobs = [s for s in tracer.spans if s.name == tracing.POOL_JOB]
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(jobs) == len(inner) == 4
    assert all(j.parent == outer.id and j.attrs["wait_s"] >= 0 for j in jobs)
    assert all(by_id[s.parent].name == tracing.POOL_JOB for s in inner)


def test_hook_attrs_survive_a_raise_and_hook_time_is_not_counted():
    tracer = tracing.Tracer()

    def slow_hook(attrs, a):
        time.sleep(0.05)
        attrs["x"] = a["x"]

    def fails(x):
        raise ValueError(x)

    inner = tracer.wrap("inner", fails, before=slow_hook)
    outer = tracer.begin("outer")
    with pytest.raises(ValueError):
        inner(3)
    tracer.end(outer)
    span = next(s for s in tracer.spans if s.name == "inner")
    assert span.attrs == {"x": 3, "error": "ValueError"}
    assert span.duration < 0.05 <= outer.duration
    assert tracing.self_times(tracer.spans)[outer.id] < 0.01
    assert tracing.net_durations(tracer.spans)[outer.id] < 0.01


def test_load_keeps_span_ids_unique_across_processes(tmp_path):
    paths = []
    for k in range(2):
        tracer = tracing.Tracer()
        outer = tracer.begin("outer")
        tracer.end(tracer.begin("inner"))
        tracer.end(outer)
        paths.append(tmp_path / f"{k}.jsonl")
        tracer.dump(paths[-1])
    spans = tracing.load(paths)
    by_id = {s.id: s for s in spans}
    assert len(by_id) == 4
    assert all(by_id[s.parent].name == "outer" for s in spans if s.name == "inner")
    assert len({s.parent for s in spans if s.name == "inner"}) == 2


def test_pass_seeds_follow_the_run_seed():
    assert run.pass_seed(7, 0) == 7
    assert run.pass_seed(7, 1) == run.pass_seed(7, 1) != run.pass_seed(8, 1)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A real 3-pair report: 20 points keep it under a few seconds."""
    out = tmp_path_factory.mktemp("report")
    cfg = SynthConfig(seed=3, n_points=20, jitter_sigma=0.5, dropout_rate=0.1,
                      descriptor_dim=16, descriptor_noise_sigma=0.05)
    manifest = harness.synth_sequence(str(out), "small", cfg, images=4)
    report = harness.evaluate_sequence(load_manifest(manifest), str(out), EvalConfig())
    return (harness.sequence_report_json(report).encode(),
            harness.sequence_report_csv(report).encode())


def _alter(json_bytes, csv_bytes, pair_pos, key, value, in_csv):
    doc = json.loads(json_bytes)
    doc["pairs"][pair_pos][key] = value
    new_json = (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()
    lines = csv_bytes.decode().splitlines()
    if in_csv:
        cells = lines[pair_pos + 1].split(",")
        cells[["pair", "eq1", "c1", "c2", "true_matches"].index(key)] = repr(float(value))
        lines[pair_pos + 1] = ",".join(cells)
    return new_json, ("\n".join(lines) + "\n").encode()


def test_check_accepts_the_unaltered_report(small_report):
    j, c = small_report
    assert json.loads(j)["pairs"][1]["n_rep"] > 0
    assert check.failed_pairs(j, c) == set()
    assert check.failed_pairs(j, c, check.digests(j, c)) == set()


def test_check_rejects_one_altered_rate(small_report):
    j, c = small_report
    pair = json.loads(j)["pairs"][1]
    bad_j, bad_c = _alter(j, c, 1, "c1", pair["c1"] * 0.9, in_csv=False)
    # JSON and CSV disagree on that pair only
    assert check.failed_pairs(bad_j, bad_c) == {pair["pair"]}
    # against recorded digests every pair fails
    assert check.failed_pairs(bad_j, bad_c, check.digests(j, c)) == {2, 3, 4}
    # consistent in both files but eq1 < c2 breaks an invariant
    bad_j, bad_c = _alter(j, c, 1, "eq1", pair["c2"] - 0.01, in_csv=True)
    assert check.failed_pairs(bad_j, bad_c) == {pair["pair"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_files_follow_the_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    files = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.setup(w, seed, str(tmp_path / label))
        files[label] = workloads.dataset_files(str(tmp_path / label))
    assert files["a"] == files["b"]
    assert files["a"].keys() == files["c"].keys()
    assert files["a"]["img2.kpts"] != files["c"]["img2.kpts"]


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
