import csv
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from repbench.cli import SUBCOMMANDS, _config_from_args, build_parser, main
from repbench.errors import ManifestError, ParseError
from repbench.formats import (
    KeypointSet,
    load_manifest,
    parse_keypoints,
    write_homography,
    write_keypoints,
)
from repbench.geometry import Homography
from repbench.harness import (
    CORRELATION_CSV_HEADER,
    MISSING_CELL,
    SEQUENCE_CSV_HEADER,
    _sequence_doc,
    correlate_reports,
    correlation_table_csv,
    default_sequence_homography,
    evaluate_sequence,
    format_value,
    load_report,
    sequence_report_csv,
    sequence_report_json,
    summary_table,
    summary_table_csv,
    synth_sequence,
)
from repbench.metrics import EvalConfig, PairEvaluation
from repbench.synth import MAX_SCALE, MIN_SCALE, SynthConfig, derive_test, generate_reference

FAST = EvalConfig(normalize_radius=None, grid_step=0.5)


def make_eval(eq1, c1, c2, tm, n=50, descriptors=True):
    return PairEvaluation(
        n_ref=n,
        n_test=n,
        n_rep=int(round((c1 or 0) * n)),
        true_matches=tm,
        descriptors_available=descriptors,
        eq1=eq1,
        c1=c1,
        c2=c2,
    )


def make_report(c1_series, tm_series, descriptors=True, dataset="synthetic"):
    pairs = [
        {"pair": i + 2, "image": f"img{i + 2}", "label": None,
         **asdict(make_eval(v, v, v, tm, descriptors=descriptors))}
        for i, (v, tm) in enumerate(zip(c1_series, tm_series))
    ]
    return _sequence_doc(dataset, "default", FAST, pairs)


def write_dataset(tmp_path, name="tiny", seed=5, images=4, n_points=25):
    cfg = SynthConfig(
        seed=seed,
        n_points=n_points,
        image_width=400,
        image_height=300,
        jitter_sigma=0.3,
        dropout_rate=0.1,
        descriptor_dim=4,
        descriptor_noise_sigma=0.02,
    )
    out = tmp_path / name
    path = synth_sequence(str(out), name, cfg, images=images)
    return out, path, cfg


class TestEvaluateSequence:
    def test_shape_and_ordinals(self, tmp_path):
        base, manifest_path, _ = write_dataset(tmp_path)
        manifest = load_manifest(manifest_path)
        report = evaluate_sequence(manifest, str(base), FAST, detector="det0")
        assert report["dataset"] == "tiny"
        assert report["detector"] == "det0"
        assert [p["pair"] for p in report["pairs"]] == [2, 3, 4]
        assert [p["image"] for p in report["pairs"]] == ["img2", "img3", "img4"]
        assert len(report["series"]["c1"]) == 3
        assert all(v is not None for v in report["series"]["c2"])

    # the document returned is the one load_report reads from its JSON, so
    # the JSON and CSV written from either are the same bytes
    @pytest.mark.parametrize("matcher", ["nn", "ratio"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_document_is_what_load_report_reads(self, tmp_path, matcher, workers):
        base, manifest_path, _ = write_dataset(tmp_path, images=5)
        cfg = EvalConfig(normalize_radius=None, grid_step=0.5, matcher=matcher)
        doc = evaluate_sequence(load_manifest(manifest_path), str(base), cfg, workers=workers)
        path = tmp_path / "report.json"
        path.write_text(sequence_report_json(doc))
        loaded = load_report(str(path))
        assert doc == loaded
        assert list(doc) == ["schema", "dataset", "detector", "config", "pairs", "series",
                             "correlations"]
        assert sequence_report_json(loaded) == path.read_text()
        assert sequence_report_csv(loaded) == sequence_report_csv(doc)
        assert any(p["true_matches"] > 0 for p in doc["pairs"])

    def test_workers_do_not_change_bytes(self, tmp_path):
        base, manifest_path, _ = write_dataset(tmp_path, images=5)
        manifest = load_manifest(manifest_path)
        solo = evaluate_sequence(manifest, str(base), FAST, workers=1)
        pooled = evaluate_sequence(manifest, str(base), FAST, workers=4)
        assert sequence_report_json(solo) == sequence_report_json(pooled)
        assert sequence_report_csv(solo) == sequence_report_csv(pooled)

    # a document that never went through parse_manifest may lack a link;
    # the pair is refused by name, not with a TypeError on a None path
    def test_hand_built_manifest_without_a_link(self, tmp_path):
        base, manifest_path, _ = write_dataset(tmp_path)
        manifest = load_manifest(manifest_path)
        del manifest["homographies"][1]
        with pytest.raises(ManifestError, match="^no homography img1 -> img3$"):
            evaluate_sequence(manifest, str(base), FAST)
        del manifest["homographies"]
        with pytest.raises(ManifestError, match="^no homography img1 -> img2$"):
            evaluate_sequence(manifest, str(base), FAST)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        base, manifest_path, _ = write_dataset(tmp_path)
        manifest = load_manifest(manifest_path)
        with pytest.raises(ValueError, match="workers"):
            evaluate_sequence(manifest, str(base), FAST, workers=workers)


class TestFormatValue:
    def test_cases(self):
        assert format_value(None) == ""
        assert format_value(7) == "7"
        assert format_value(0.25) == "0.25"
        assert format_value(1 / 3) == repr(1 / 3)


class TestReportSerialization:
    def test_csv_header_and_rows(self):
        report = make_report([0.5, 0.25, 1.0], [5, 3, 8])
        text = sequence_report_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == SEQUENCE_CSV_HEADER
        assert lines[1] == "2,0.5,0.5,0.5,5"
        assert lines[2] == "3,0.25,0.25,0.25,3"
        assert lines[3] == "4,1.0,1.0,1.0,8"

    def test_none_is_empty_field_and_null(self):
        report = make_report([None], [0])
        csv_text = sequence_report_csv(report)
        assert csv_text.strip().split("\n")[1] == "2,,,,0"
        doc = json.loads(sequence_report_json(report))
        assert doc["series"]["c1"] == [None]

    def test_json_and_csv_agree_byte_for_byte_on_numbers(self, tmp_path):
        base, manifest_path, _ = write_dataset(tmp_path, seed=9)
        manifest = load_manifest(manifest_path)
        report = evaluate_sequence(manifest, str(base), FAST)
        json_text = sequence_report_json(report)
        csv_lines = sequence_report_csv(report).strip().split("\n")[1:]
        doc = json.loads(json_text)
        for line, (eq1, c1, c2, tm) in zip(
            csv_lines,
            zip(
                doc["series"]["eq1"],
                doc["series"]["c1"],
                doc["series"]["c2"],
                doc["series"]["true_matches"],
            ),
        ):
            cells = line.split(",")
            assert cells[1] == format_value(eq1)
            assert cells[2] == format_value(c1)
            assert cells[3] == format_value(c2)
            assert cells[4] == str(tm)
            # the textual float in the JSON file is the same repr
            if eq1 is not None:
                assert f'"eq1": {cells[1]}' in json_text or cells[1] in json_text

    def test_correlations_in_json(self):
        report = make_report([0.1, 0.2, 0.3, 0.4, 0.5], [2, 1, 4, 3, 5])
        doc = json.loads(sequence_report_json(report))
        assert abs(doc["correlations"]["c1"]["r"] - 0.8) < 1e-12
        assert doc["correlations"]["c1"]["n"] == 5


class TestCorrelations:
    def test_known_point_eight(self):
        corr = make_report([0.1, 0.2, 0.3, 0.4, 0.5], [2, 1, 4, 3, 5])["correlations"]
        assert abs(corr["c1"]["r"] - 0.8) < 1e-12

    def test_exact_affine_series(self):
        corr = make_report([0.1, 0.2, 0.3, 0.4, 0.5], [3, 5, 7, 9, 11])["correlations"]
        assert corr["c1"]["r"] == 1.0
        assert corr["c1"]["p_value"] == 0.0

    def test_undefined_values_noted(self):
        corr = make_report([0.5, None, 0.25], [3, 2, 1])["correlations"]
        assert corr["c1"] == {"note": "series contains undefined values"}

    def test_missing_descriptors_noted(self):
        corr = make_report([0.5, 0.4, 0.25], [0, 0, 0], descriptors=False)["correlations"]
        assert corr["c1"] == {"note": "true-match series unavailable (no descriptors)"}

    def test_short_series_noted(self):
        corr = make_report([0.5, 0.4], [3, 2])["correlations"]
        assert corr["c1"] == {"note": "needs at least 3 pairs, have 2"}

    def test_zero_variance_noted(self):
        corr = make_report([0.5, 0.5, 0.5], [3, 2, 1])["correlations"]
        assert corr["c1"] == {"note": "a series has zero variance"}


class TestLoadReport:
    def write_valid(self, tmp_path):
        report = make_report([0.5, 0.4, 0.3], [5, 4, 3])
        path = tmp_path / "report.json"
        path.write_text(sequence_report_json(report))
        return path

    def test_round_trip(self, tmp_path):
        doc = load_report(str(self.write_valid(tmp_path)))
        assert doc["dataset"] == "synthetic"
        assert doc["series"]["c1"] == [0.5, 0.4, 0.3]

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(ParseError) as info:
            load_report(path)
        assert "nope.json" in str(info.value)
        assert info.value.path == path

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        with pytest.raises(ParseError):
            load_report(str(p))
        p.write_text('{\n  "schema": "repbench.sequence/1",\n}\n')
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.line == 3
        assert info.value.path == str(p)
        assert str(info.value).startswith(f"{p}: line 3: malformed JSON: ")
        p.write_bytes(b'{"schema":\n"\xff"}')
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert (info.value.line, info.value.path) == (2, str(p))

    def test_wrong_schema(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)
        assert info.value.line is None

    def test_missing_dataset(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        del doc["dataset"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert (info.value.reason, info.value.path) == ("missing key 'dataset'", str(p))

    def test_series_must_be_an_object(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"] = [doc["series"]]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert (info.value.reason, info.value.path) == ("series must be an object", str(p))

    def test_missing_series_key(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        del doc["series"]["c2"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)
        assert "c2" in str(info.value)

    def test_non_number_in_series(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"]["c1"][0] = "high"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)

    # json.dumps writes these as NaN, Infinity and -Infinity, which
    # json.loads reads back but reports never hold
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_series(self, tmp_path, value):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"]["c1"][1] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)
        assert "series.c1" in str(info.value)

    # a list or object would fail as a dict key downstream, and JSON true
    # and false are not numbers, though bool is an int subclass
    @pytest.mark.parametrize(
        "key, value, reason",
        [("dataset", [], "dataset must be a string"), ("dataset", 3, "dataset must be a string"),
         ("detector", {"name": "x"}, "detector must be a string"),
         ("detector", True, "detector must be a string"),
         ("true_matches", [True, False, True], "series.true_matches holds a non-number"),
         ("c1", [0.5, False, 0.3], "series.c1 holds a non-number")],
    )
    def test_field_of_the_wrong_type(self, tmp_path, key, value, reason):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        (doc["series"] if key in doc["series"] else doc)[key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert (info.value.reason, info.value.path) == (reason, str(p))

    # a rate outside [0, 1] puts summary's default thresholds out of range,
    # and a huge or negative count overflows the statistics
    @pytest.mark.parametrize(
        "key, value",
        [("c2", 7), ("c2", -1), ("eq1", 1.0000000000000002), ("c1", -1e-300),
         pytest.param("c1", 10**400, id="c1-10**400"), ("true_matches", -2),
         ("true_matches", 0.5), ("true_matches", 3.0), ("true_matches", 1e300),
         pytest.param("true_matches", 2**53, id="true_matches-2**53"),
         pytest.param("true_matches", 10**400, id="true_matches-10**400")],
    )
    def test_value_out_of_range(self, tmp_path, key, value):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"][key][1] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        reason = ("series.true_matches holds a value that is not an integer in [0, 2**53)"
                  if key == "true_matches" else f"series.{key} holds a rate outside [0, 1]")
        assert (info.value.reason, info.value.path) == (reason, str(p))

    def test_range_bounds_accepted(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"].update(eq1=[0.0, 1.0, None], c1=[0, 1, 0.5], c2=[1.0, 0.0, 0.25],
                             true_matches=[0, 2**53 - 1, None])
        p.write_text(json.dumps(doc))
        assert load_report(str(p))["series"]["true_matches"] == [0, 2**53 - 1, None]

    def test_length_mismatch(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["series"]["c1"].append(0.1)
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)

    # correlate_reports reads descriptors_available from the pair objects
    @pytest.mark.parametrize("pairs", [3, [1, 2, 3], {"pair": 2}])
    def test_pairs_not_a_list_of_objects(self, tmp_path, pairs):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["pairs"] = pairs
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert info.value.path == str(p)
        assert "pairs" in str(info.value)

    # read as truthy, 0 or "no" would correlate a report without descriptors
    @pytest.mark.parametrize("value", [0, 1, "no", None, []])
    def test_descriptors_available_must_be_a_boolean(self, tmp_path, value):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        doc["pairs"][1]["descriptors_available"] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_report(str(p))
        assert (info.value.reason, info.value.path) == (
            "pairs[1].descriptors_available must be true or false", str(p))

    def test_descriptors_available_may_be_absent(self, tmp_path):
        p = self.write_valid(tmp_path)
        doc = json.loads(p.read_text())
        del doc["pairs"][1]["descriptors_available"]
        p.write_text(json.dumps(doc))
        assert "descriptors_available" not in load_report(str(p))["pairs"][1]


def report_doc(dataset, c1, tm):
    series = {
        "eq1": c1,
        "c1": c1,
        "c2": c1,
        "true_matches": tm,
    }
    return {"schema": "repbench.sequence/1", "dataset": dataset, "detector": "default", "series": series}


class TestCorrelateReports:
    def test_single_report(self):
        rows, aggregates = correlate_reports(
            [report_doc("a", [0.1, 0.2, 0.3, 0.4, 0.5], [2, 1, 4, 3, 5])]
        )
        assert aggregates is None
        assert len(rows) == 3
        for row in rows:
            assert row["dataset"] == "a"
            assert abs(row["r"] - 0.8) < 1e-12
            assert row["n"] == 5

    def test_aggregates_match_manual_summaries(self):
        docs = [
            report_doc("a", [0.1, 0.2, 0.3, 0.4, 0.5], [2, 1, 4, 3, 5]),
            report_doc("b", [0.1, 0.2, 0.3, 0.4, 0.5], [3, 5, 7, 9, 11]),
        ]
        rows, aggregates = correlate_reports(docs)
        rs = [row["r"] for row in rows if row["criterion"] == "c1"]
        assert aggregates["c1"]["count"] == 2
        assert abs(aggregates["c1"]["mean_r"] - np.mean(rs)) < 1e-12
        assert abs(aggregates["c1"]["std_r"] - np.std(rs, ddof=1)) < 1e-12

    def test_notes_excluded_from_aggregates(self):
        docs = [
            report_doc("a", [0.1, 0.2, 0.3, 0.4, 0.5], [3, 5, 7, 9, 11]),
            report_doc("b", [0.5, 0.5, 0.5], [1, 2, 3]),  # zero variance
            report_doc("c", [0.5, None, 0.2], [1, 2, 3]),  # undefined value
            report_doc("d", [0.5, 0.4], [1, 2]),  # too short
        ]
        rows, aggregates = correlate_reports(docs)
        by_ds = {(row["dataset"], row["criterion"]): row for row in rows}
        assert by_ds[("a", "c1")]["r"] == 1.0
        assert by_ds[("a", "c1")]["p"] == 0.0
        assert by_ds[("b", "c1")]["r"] is None
        assert by_ds[("b", "c1")]["note"] == "a series has zero variance"
        assert by_ds[("c", "c1")]["note"] == "series contains undefined values"
        assert by_ds[("d", "c1")]["note"] == "needs at least 3 pairs, have 2"
        assert aggregates["c1"]["count"] == 1
        assert aggregates["c1"]["mean_r"] == 1.0
        assert aggregates["c1"]["std_r"] is None

    @pytest.mark.parametrize(
        "c1, tm, descriptors, note",
        [
            ([0.5, None, 0.2], [1, 2, 3], True, "series contains undefined values"),
            ([0.1, 0.2, 0.3], [0, 0, 0], False, "true-match series unavailable (no descriptors)"),
            ([0.5, 0.4], [1, 2], True, "needs at least 3 pairs, have 2"),
            ([0.5, 0.5, 0.5], [1, 2, 3], True, "a series has zero variance"),
        ],
    )
    def test_notes_match_sequence_report(self, c1, tm, descriptors, note):
        report = make_report(c1, tm, descriptors=descriptors)
        rows, _ = correlate_reports([report])
        row = next(row for row in rows if row["criterion"] == "c1")
        assert report["correlations"]["c1"]["note"] == row["note"] == note

    def test_table_csv_layout(self):
        docs = [
            report_doc("a", [0.1, 0.2, 0.3, 0.4, 0.5], [2, 1, 4, 3, 5]),
            report_doc("b", [0.1, 0.2, 0.3, 0.4, 0.5], [3, 5, 7, 9, 11]),
        ]
        rows, aggregates = correlate_reports(docs)
        lines = correlation_table_csv(rows, aggregates).strip().split("\n")
        assert lines[0] == CORRELATION_CSV_HEADER
        assert len(lines) == 1 + 6 + 6  # per-report rows, then mean and std rows
        assert lines[1].startswith("a,eq1,")
        assert lines[7].startswith("mean,eq1,")
        assert lines[10].startswith("std,eq1,")
        b_c1 = lines[5].split(",")
        assert b_c1[:2] == ["b", "c1"]
        assert b_c1[2] == "1.0"
        assert b_c1[3] == "0.0"


def summary_doc(detector, dataset, values):
    doc = report_doc(dataset, values, [1] * len(values))
    doc["detector"] = detector
    return doc


class TestSummaryTable:
    def test_default_thresholds_rate_thirds_of_best(self):
        docs = [
            summary_doc("detA", "ds1", [0.9, 0.9, 0.9]),
            summary_doc("detB", "ds1", [0.2, 0.2, 0.2]),
            summary_doc("detC", "ds1", [0.45]),
        ]
        detectors, datasets, cells, ratings, used = summary_table(docs, "c2")
        assert detectors == ["detA", "detB", "detC"]
        assert datasets == ["ds1"]
        assert abs(cells[("detA", "ds1")] - 0.9) < 1e-12
        # best 0.9 puts the thresholds at 0.3 and 0.6
        assert ratings[("detA", "ds1")] == "+++"
        assert ratings[("detB", "ds1")] == "+"
        assert ratings[("detC", "ds1")] == "++"
        assert used["ds1"] == [0.3, 0.6]

    def test_explicit_thresholds(self):
        docs = [
            summary_doc("detA", "ds1", [0.9, 0.9, 0.9]),
            summary_doc("detB", "ds1", [0.55, 0.55, 0.55]),
        ]
        _, _, _, ratings, used = summary_table(docs, "c2", thresholds=(0.5, 0.7, 0.85))
        assert ratings[("detA", "ds1")] == "++++"
        assert ratings[("detB", "ds1")] == "++"
        assert used["ds1"] == [0.5, 0.7, 0.85]

    def test_multiple_reports_same_cell_concatenate(self):
        docs = [
            summary_doc("detA", "ds1", [0.4, 0.4]),
            summary_doc("detA", "ds1", [0.8, 0.8]),
        ]
        _, _, cells, _, _ = summary_table(docs, "c2")
        assert abs(cells[("detA", "ds1")] - 0.6) < 1e-12

    def test_missing_cells_render_as_dash(self):
        docs = [
            summary_doc("detA", "ds1", [0.9]),
            summary_doc("detA", "ds2", [0.5]),
            summary_doc("detB", "ds1", [0.3]),
        ]
        detectors, datasets, cells, ratings, _ = summary_table(docs, "c2")
        text = summary_table_csv(detectors, datasets, cells, ratings)
        lines = text.strip().split("\n")
        assert lines[0] == "detector,ds1,ds2"
        assert lines[2] == f"detB,+,{MISSING_CELL}"

    def test_fields_quoted_only_where_needed(self):
        odd = ['a,b', 'say "hi"', "cr\rlf\n", "plain", "—"]
        docs = [summary_doc(det, ds, [0.5]) for det in odd for ds in odd[::-1]]
        text = summary_table_csv(*summary_table(docs, "c2")[:4])
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["detector"] + odd[::-1]
        assert [row[0] for row in rows[1:]] == odd
        assert {len(row) for row in rows} == {1 + len(odd)}
        # a field without a comma, quote or line break is written as it is
        assert text.split("\n")[-2] == "—,+++,+++,+++,+++,+++"

    def test_none_values_skipped(self):
        docs = [summary_doc("detA", "ds1", [None, 0.6])]
        _, _, cells, ratings, _ = summary_table(docs, "c2")
        assert cells[("detA", "ds1")] == 0.6
        assert ratings[("detA", "ds1")] == "+++"

    @pytest.mark.parametrize("thresholds", [None, ()])
    def test_no_thresholds_rate_every_cell_plus(self, thresholds):
        # a best mean of 0 leaves no default thresholds
        docs = [summary_doc("detA", "ds1", [0.0]), summary_doc("detB", "ds1", [0.0, 0.0])]
        _, _, _, ratings, used = summary_table(docs, "c2", thresholds=thresholds)
        assert ratings == {("detA", "ds1"): "+", ("detB", "ds1"): "+"}
        assert used == {"ds1": None}

    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            summary_table([], "c3")


class TestDefaultSequenceHomography:
    def test_center_drift_and_scale(self):
        w, h = 800, 640
        for k in (1, 2, 5):
            hom = default_sequence_homography(k, w, h)
            cx, cy = w / 2.0, h / 2.0
            moved = hom.m[:2, :2] @ np.array([cx, cy]) + hom.m[:2, 2]
            assert np.allclose(moved, [cx + 2.0 * k, cy - 1.5 * k], atol=1e-9)
            det = float(np.linalg.det(hom.m[:2, :2]))
            assert abs(det - 1.0 / (1.0 + 0.05 * k) ** 2) < 1e-12

    def test_invertible(self):
        hom = default_sequence_homography(3, 800, 640)
        assert np.allclose((hom.inverse() @ hom).m / (hom.inverse() @ hom).m[2, 2], np.eye(3), atol=1e-12)


class TestSynthSequence:
    def test_file_inventory(self, tmp_path):
        base, manifest_path, _ = write_dataset(tmp_path, images=6)
        names = sorted(os.listdir(base))
        assert names == sorted(
            ["manifest.json"]
            + [f"img{i}.kpts" for i in range(1, 7)]
            + [f"H_1_{i}.txt" for i in range(2, 7)]
        )
        manifest = load_manifest(manifest_path)
        assert manifest["images"][0]["id"] == "img1"
        assert len(manifest["images"]) == 6

    # the manifest is read as the JSON document it is written as
    @pytest.mark.parametrize("images", [2, 5])
    def test_manifest_is_read_as_written(self, tmp_path, images):
        _, manifest_path, cfg = write_dataset(tmp_path, images=images)
        with open(manifest_path) as fh:
            written = json.load(fh)
        assert load_manifest(manifest_path) == written
        assert written["images"][-1] == {"id": f"img{images}", "width": cfg.image_width,
                                         "height": cfg.image_height,
                                         "keypoints": f"img{images}.kpts"}
        assert written["homographies"][-1] == {"from": "img1", "to": f"img{images}",
                                               "path": f"H_1_{images}.txt"}

    def test_jitter_ramp_reproduces_manual_configs(self, tmp_path):
        cfg = SynthConfig(
            seed=100,
            n_points=20,
            image_width=300,
            image_height=300,
            jitter_sigma=0.0,
            descriptor_dim=4,
        )
        out = tmp_path / "ramp"
        synth_sequence(str(out), "ramp", cfg, images=4, jitter_end=1.2)
        ref = generate_reference(cfg, image_id="img1")
        for i, jitter in ((2, 0.0), (3, 0.6), (4, 1.2)):
            h = default_sequence_homography(i - 1, 300, 300)
            manual_cfg = SynthConfig(
                seed=100 + (i - 1),
                n_points=20,
                image_width=300,
                image_height=300,
                jitter_sigma=jitter,
                descriptor_dim=4,
            )
            manual = derive_test(ref, h, manual_cfg, image_id=f"img{i}")
            text = (out / f"img{i}.kpts").read_text()
            got = parse_keypoints(text, f"img{i}", 300, 300)
            assert len(got) == len(manual)
            for a, b in zip(got.keypoints, manual.keypoints):
                assert np.allclose(a.region.center, b.region.center, atol=0)

    def test_explicit_homographies_written(self, tmp_path):
        cfg = SynthConfig(seed=3, n_points=10, image_width=200, image_height=200)
        h = Homography(np.array([[1, 0, 7], [0, 1, -4], [0, 0, 1]], dtype=float))
        out = tmp_path / "fixed"
        synth_sequence(str(out), "fixed", cfg, images=2, homographies=[h])
        assert (out / "H_1_2.txt").read_text() == write_homography(h)

    def test_validation(self, tmp_path):
        cfg = SynthConfig(seed=3, n_points=5)
        with pytest.raises(ValueError):
            synth_sequence(str(tmp_path / "x"), "x", cfg, images=1)
        with pytest.raises(ValueError):
            synth_sequence(str(tmp_path / "x"), "x", cfg, images=3, homographies=[Homography.identity()])
        with pytest.raises(ValueError, match="jitter_end"):
            synth_sequence(str(tmp_path / "x"), "x", cfg, images=3, jitter_end=math.nan)
        assert not (tmp_path / "x").exists()


CLI_METRIC_FLAGS = ["--normalize-radius", "off", "--grid-step", "0.5"]


class TestCli:
    def synth(self, tmp_path, capsys, name="cli", seed=11, extra=()):
        out = tmp_path / name
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
                "25",
                "--dims",
                "400x300",
                "--jitter",
                "0.3",
                "--dropout",
                "0.1",
                "--descriptor-dim",
                "4",
                "--descriptor-noise",
                "0.02",
                *extra,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        manifest_path = captured.out.strip()
        assert manifest_path.endswith("manifest.json")
        return out, manifest_path

    def test_full_pipeline(self, tmp_path, capsys):
        out_a, manifest_a = self.synth(tmp_path, capsys, name="dsA", seed=11)
        out_b, manifest_b = self.synth(tmp_path, capsys, name="dsB", seed=33)

        rep_a = tmp_path / "repA"
        rep_b = tmp_path / "repB"
        for manifest, stem in ((manifest_a, rep_a), (manifest_b, rep_b)):
            code = main(
                [
                    "sequence",
                    "--manifest",
                    manifest,
                    "--out",
                    str(stem),
                    *CLI_METRIC_FLAGS,
                ]
            )
            assert code == 0
            assert (stem.parent / (stem.name + ".json")).exists()
            assert (stem.parent / (stem.name + ".csv")).exists()

        code = main(
            [
                "correlate",
                "--report",
                str(rep_a) + ".json",
                "--report",
                str(rep_b) + ".json",
                "--format",
                "csv",
                "--out",
                str(tmp_path / "corr.csv"),
            ]
        )
        assert code == 0
        corr_lines = (tmp_path / "corr.csv").read_text().strip().split("\n")
        assert corr_lines[0] == CORRELATION_CSV_HEADER
        assert len(corr_lines) == 1 + 6 + 6

        code = main(
            [
                "summary",
                "--reports",
                str(rep_a) + ".json",
                str(rep_b) + ".json",
                "--criterion",
                "c2",
                "--out",
                str(tmp_path / "summary.csv"),
            ]
        )
        assert code == 0
        summary_lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary_lines[0] == "detector,dsA,dsB"
        assert summary_lines[1].startswith("default,")

    def test_names_with_commas_and_quotes_read_back(self, tmp_path, capsys):
        # written unquoted, these names give 6-field correlation rows under
        # a 5-field header, and a 3-field summary header
        name, detector = 'graf, "viewpoint"', "hes,aff"
        _, manifest = self.synth(tmp_path, capsys, name=name, extra=["--images", "5"])
        stem = str(tmp_path / "rep")
        assert main(["sequence", "--manifest", manifest, "--out", stem,
                     "--detector", detector]) == 0
        tables = {}
        for command, flag in (("correlate", "--report"), ("summary", "--reports")):
            # exit 3 only says that a cell is undefined
            assert main([command, flag, stem + ".json", "--out", stem + command]) in (0, 3)
            with open(stem + command, newline="") as fh:
                tables[command] = list(csv.reader(fh))
        corr = tables["correlate"]
        assert corr[0] == CORRELATION_CSV_HEADER.split(",")
        assert [row[:2] for row in corr[1:]] == [[name, crit] for crit in ("eq1", "c1", "c2")]
        assert {len(row) for row in corr} == {5}
        assert [row[:1] for row in tables["summary"]] == [["detector"], [detector]]
        assert tables["summary"][0] == ["detector", name]
        assert {len(row) for row in tables["summary"]} == {2}

    def test_eval_stdout(self, tmp_path, capsys):
        out, _ = self.synth(tmp_path, capsys)
        code = main(
            [
                "eval",
                "--ref",
                str(out / "img1.kpts"),
                "--test",
                str(out / "img2.kpts"),
                "--homography",
                str(out / "H_1_2.txt"),
                "--ref-dims",
                "400x300",
                "--test-dims",
                "400x300",
                *CLI_METRIC_FLAGS,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == SEQUENCE_CSV_HEADER
        assert lines[1].startswith("2,")

    def test_eval_json_format(self, tmp_path, capsys):
        out, _ = self.synth(tmp_path, capsys)
        code = main(
            [
                "eval",
                "--ref",
                str(out / "img1.kpts"),
                "--test",
                str(out / "img2.kpts"),
                "--homography",
                str(out / "H_1_2.txt"),
                "--ref-dims",
                "400x300",
                "--test-dims",
                "400x300",
                "--format",
                "json",
                *CLI_METRIC_FLAGS,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["schema"] == "repbench.pair/1"
        assert doc["n_ref"] > 0

    def test_sequence_rerun_is_byte_identical(self, tmp_path, capsys):
        _, manifest = self.synth(tmp_path, capsys)
        stems = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
        for stem, workers in zip(stems, ("1", "1", "4")):
            code = main(
                [
                    "sequence",
                    "--manifest",
                    manifest,
                    "--out",
                    str(stem),
                    "--workers",
                    workers,
                    *CLI_METRIC_FLAGS,
                ]
            )
            assert code == 0
        ref_json = (tmp_path / "r1.json").read_bytes()
        ref_csv = (tmp_path / "r1.csv").read_bytes()
        for stem in stems[1:]:
            assert (stem.parent / (stem.name + ".json")).read_bytes() == ref_json
            assert (stem.parent / (stem.name + ".csv")).read_bytes() == ref_csv

    @pytest.mark.parametrize("flags", [[], CLI_METRIC_FLAGS])
    def test_needle_region_dropped_exit_0(self, tmp_path, capsys, flags):
        # a = 1e9, b = 0.5, c = 1e-9 is positive definite, but its smaller
        # eigenvalue rounds to zero: the candidate it forms is dropped as
        # degenerate instead of failing the pair.  Under the identity the
        # transport leaves the needle as it is.
        hpath = tmp_path / "H.txt"
        hpath.write_text(write_homography(Homography.identity()))
        out, manifest = self.synth(tmp_path, capsys, extra=["--homography", str(hpath)] * 3)
        path = out / "img2.kpts"
        test = parse_keypoints(path.read_text(), "img2", 400, 300)
        abc = test.abc.copy()
        abc[0] = (1e9, 0.5, 1e-9)
        path.write_text(write_keypoints(
            KeypointSet("img2", 400, 300, test.centers, abc, test.descriptors)
        ))
        code = main(["sequence", "--manifest", manifest, "--out", str(tmp_path / "rep"), *flags])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "rep.csv").read_text().count("\n") == 4

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "sequence",
                "--manifest",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error:" in captured.err
        assert "absent.json" in captured.err

    def test_malformed_keypoints_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.kpts"
        bad.write_text("garbage\n0\n")
        good = tmp_path / "ok.kpts"
        good.write_text("1.0\n1\n10 10 0.5 0.0 0.5\n")
        hpath = tmp_path / "H.txt"
        hpath.write_text("1 0 0 0 1 0 0 0 1")
        code = main(
            [
                "eval",
                "--ref",
                str(bad),
                "--test",
                str(good),
                "--homography",
                str(hpath),
                "--ref-dims",
                "100x100",
                "--test-dims",
                "100x100",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "bad.kpts" in captured.err
        assert "line 1" in captured.err

    def test_metric_flag_defaults_are_eval_config_defaults(self):
        args = build_parser().parse_args(
            ["eval", "--ref", "a", "--test", "b", "--homography", "h",
             "--ref-dims", "1x1", "--test-dims", "1x1"]
        )
        assert _config_from_args(args) == EvalConfig()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        _, manifest = self.synth(tmp_path, capsys)
        stem = tmp_path / "rep"
        code = main(["sequence", "--manifest", manifest, "--out", str(stem),
                     "--workers", workers])
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: workers must be at least 1" in captured.err
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("command", ["correlate", "summary"])
    def test_non_finite_report_exit_2_names_file(self, tmp_path, capsys, command):
        doc = make_report([0.5, 0.4, 0.3], [5, 4, 3])
        doc["series"]["c1"][1] = math.nan
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        flag = "--report" if command == "correlate" else "--reports"
        code = main([command, flag, str(path), "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repbench: error: {path}: series.c1 holds a non-finite number" in captured.err
        assert not (tmp_path / "out.csv").exists()

    # unchecked, these make summary blame its thresholds, and correlate
    # print r = 0.0 after an overflow or crash on 10**400
    @pytest.mark.parametrize(
        "command, key, values",
        [("summary", "c2", [7, -1, 3]), ("correlate", "true_matches", [0.5, -2, 1e300]),
         ("correlate", "true_matches", [3, 10**400, 5])],
        ids=["c2-7", "true_matches-negative", "true_matches-10**400"],
    )
    def test_out_of_range_report_exit_2_names_file(self, tmp_path, capsys, command, key,
                                                   values):
        doc = make_report([0.5, 0.4, 0.3], [5, 4, 3])
        doc["series"][key] = values
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        flag = "--report" if command == "correlate" else "--reports"
        code = main([command, flag, str(path), "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repbench: error: {path}: series.{key} holds " in captured.err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "edit, reason",
        [(lambda doc: doc.update(homographies=5), "manifest: key 'homographies' must be list"),
         (lambda doc: doc.update(homographies=None), "manifest: key 'homographies' must be list"),
         (lambda doc: doc["images"][2].update(label=math.nan),
          "images[2]: key 'label' must be str"),
         (lambda doc: doc["images"][1].update(label=["blur", 2]),
          "images[1]: key 'label' must be str"),
         (lambda doc: doc["images"][1].update(width=10**400),
          "images[1]: dimensions must be at most 2**53"),
         (lambda doc: doc.update(homographies=[]),
          "no homography from reference 'img1' to image 'img2'")],
        ids=["homographies-5", "homographies-null", "label-nan", "label-list", "huge-width",
             "no-links"],
    )
    def test_bad_manifest_field_exit_2_names_file(self, tmp_path, capsys, edit, reason):
        _, manifest = self.synth(tmp_path, capsys)
        with open(manifest) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        stem = tmp_path / "rep"
        code = main(["sequence", "--manifest", manifest, "--out", str(stem)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"repbench: error: {manifest}: {reason}\n"
        assert not (tmp_path / "rep.json").exists()

    def test_reference_only_manifest_writes_empty_series_exit_0(self, tmp_path, capsys):
        """A manifest that lists only its reference has no pairs: the report
        has empty series, each correlation cell says why, and the CSV holds
        only its header."""
        _, manifest = self.synth(tmp_path, capsys)
        doc = json.loads(open(manifest).read())
        doc["images"], doc["homographies"] = doc["images"][:1], []
        alone = tmp_path / "cli" / "alone.json"
        alone.write_text(json.dumps(doc))
        stem = tmp_path / "alone"
        assert main(["sequence", "--manifest", str(alone), "--out", str(stem)]) == 0
        note = '{\n      "note": "needs at least 3 pairs, have 0"\n    }'
        assert (tmp_path / "alone.json").read_text() == (
            '{\n  "schema": "repbench.sequence/1",\n  "dataset": "cli",\n'
            '  "detector": "default",\n  "config": {\n    "epsilon_px": 1.5,\n'
            '    "max_overlap_error": 0.4,\n    "normalize_radius": 30.0,\n'
            '    "grid_step": null,\n    "eq1_population": "common",\n'
            '    "matcher": "nn",\n    "ratio_threshold": 0.8\n  },\n  "pairs": [],\n'
            '  "series": {\n    "eq1": [],\n    "c1": [],\n    "c2": [],\n'
            '    "true_matches": []\n  },\n  "correlations": {\n'
            f'    "eq1": {note},\n    "c1": {note},\n    "c2": {note}\n  }}\n}}\n')
        assert (tmp_path / "alone.csv").read_text() == SEQUENCE_CSV_HEADER + "\n"

    @pytest.mark.parametrize("argv", [["--help"], *([cmd, "--help"] for cmd in SUBCOMMANDS)])
    def test_help_is_that_of_the_full_parser(self, capsys, argv):
        """main builds only the running command's arguments; the help it
        prints is that of the parser with every command's arguments."""
        outputs = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            assert info.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["eval"])  # missing required flags
        assert info.value.code == 2

    def test_empty_detections_exit_3_with_partial_report(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code = main(
            [
                "synth",
                "--out-dir",
                str(out),
                "--name",
                "empty",
                "--seed",
                "1",
                "--images",
                "3",
                "--n-points",
                "0",
                "--dims",
                "200x200",
                "--descriptor-dim",
                "0",
            ]
        )
        capsys.readouterr()
        assert code == 0
        code = main(
            [
                "sequence",
                "--manifest",
                str(out / "manifest.json"),
                "--out",
                str(tmp_path / "emptyrep"),
                *CLI_METRIC_FLAGS,
            ]
        )
        assert code == 3
        lines = (tmp_path / "emptyrep.csv").read_text().strip().split("\n")
        assert lines[1] == "2,,,,0"
        assert lines[2] == "3,,,,0"

    def test_bad_dims_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "synth",
                "--out-dir",
                str(tmp_path / "x"),
                "--dims",
                "800by640",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error:" in captured.err

    def test_zero_dims_exit_2(self, tmp_path, capsys):
        kpts = tmp_path / "a.kpts"
        kpts.write_text("1.0\n1\n10 10 0.5 0.0 0.5\n")
        hpath = tmp_path / "H.txt"
        hpath.write_text("1 0 0 0 1 0 0 0 1")
        code = main(["eval", "--ref", str(kpts), "--test", str(kpts), "--homography", str(hpath),
                     "--ref-dims", "0x480", "--test-dims", "640x480"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repbench: error: dimensions must be positive\n"
        assert captured.out == ""

    # a side must be exact as a float; a larger one overflowed in the
    # common-part test instead of being refused as input
    def test_huge_test_dims_exit_2(self, tmp_path, capsys):
        kpts = tmp_path / "a.kpts"
        kpts.write_text("1.0\n1\n10 10 0.5 0.0 0.5\n")
        hpath = tmp_path / "H.txt"
        hpath.write_text("1 0 0 0 1 0 0 0 1")
        code = main(["eval", "--ref", str(kpts), "--test", str(kpts), "--homography", str(hpath),
                     "--ref-dims", "640x480", "--test-dims", f"{10**400}x640"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repbench: error: dimensions must be at most 2**53\n"
        assert captured.out == ""

    def test_huge_synth_dims_exit_2_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "big"
        code = main(["synth", "--out-dir", str(out), "--dims", f"{10**400}x640"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repbench: error: dimensions must be at most 2**53\n"
        assert not out.exists()

    def test_bad_scale_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["synth", "--out-dir", str(out), "--scale-range", "2-6"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: scale range must look like 2:6, got '2-6'" in captured.err
        assert not out.exists()

    # a scale range beyond synth.MIN_SCALE / MAX_SCALE is refused before the
    # output directory is made, distractors-only sets included
    @pytest.mark.parametrize("scale_range", ["1e-200:1e-200", "1e-78:1e-78", "1e81:1e81"])
    @pytest.mark.parametrize("points", [["--n-points", "300"],
                                        ["--n-points", "0", "--distractors", "5"]])
    def test_extreme_scale_range_exit_2_writes_nothing(self, tmp_path, capsys, scale_range,
                                                       points):
        out = tmp_path / "x"
        code = main(["synth", "--out-dir", str(out), *points, "--scale-range", scale_range])
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: scale_range must satisfy" in captured.err
        assert not out.exists()

    # a dimension header of 1 reads back as "no descriptors", so D = 1 is
    # refused before any file is written
    def test_descriptor_dim_1_exit_2_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        out.mkdir()
        code = main(["synth", "--out-dir", str(out), "--n-points", "20",
                     "--descriptor-dim", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: descriptor_dim must be 0 or >= 2" in captured.err
        assert list(out.iterdir()) == []

    # a criterion with no defined value leaves the dataset unrated
    def test_summary_of_all_null_series_exit_3(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(summary_doc("detA", "ds1", [None, None])))
        code = main(["summary", "--reports", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        doc = json.loads(captured.out)
        assert doc["thresholds"] == {"ds1": None}
        assert doc["rows"][0]["cells"] == {"ds1": {"score": None, "rating": None}}
        code = main(["summary", "--reports", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == f"detector,ds1\ndetA,{MISSING_CELL}\n"

    # explicit thresholds are checked before any cell is binned, so an
    # all-null report does not skip the check
    @pytest.mark.parametrize("values", [[None, None], [0.4, 0.5]])
    @pytest.mark.parametrize("thresholds", [["5"], ["0.6", "0.3"]])
    def test_summary_bad_thresholds_exit_2(self, tmp_path, capsys, values, thresholds):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(summary_doc("detA", "ds1", values)))
        code = main(["summary", "--reports", str(path), "--thresholds", *thresholds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "repbench: error: thresholds must" in captured.err

    @pytest.mark.parametrize("command", ["correlate", "summary"])
    def test_report_with_non_string_dataset_exit_2_names_file(self, tmp_path, capsys, command):
        path = tmp_path / "r.json"
        doc = summary_doc("detA", "ds1", [0.4, 0.5, 0.6])
        doc["dataset"] = []
        path.write_text(json.dumps(doc))
        flag = "--report" if command == "correlate" else "--reports"
        code = main([command, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"repbench: error: {path}: dataset must be a string" in captured.err

    # 0 and "no" read as descriptors printed r values and exited 0, while
    # false gives the no-descriptor notes and exit 3
    @pytest.mark.parametrize("value", [0, "no"])
    def test_non_boolean_descriptors_available_exit_2_names_file(self, tmp_path, capsys,
                                                                  value):
        doc = make_report([0.2, 0.4, 0.3, 0.5], [2, 4, 3, 5], descriptors=False)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["correlate", "--report", str(path)]) == 3
        assert capsys.readouterr().out == CORRELATION_CSV_HEADER + "".join(
            f"\nsynthetic,{crit},,,4" for crit in ("eq1", "c1", "c2")) + "\n"
        for p in doc["pairs"]:
            p["descriptors_available"] = value
        path.write_text(json.dumps(doc))
        code = main(["correlate", "--report", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert (f"repbench: error: {path}: pairs[0].descriptors_available must be true "
                "or false") in captured.err

    @pytest.mark.parametrize(
        "argv, field",
        [(["synth", "--jitter", "nan"], "jitter_sigma"),
         (["synth", "--descriptor-noise", "inf"], "descriptor_noise_sigma"),
         (["synth", "--scale-range", "2:inf"], "scale_range"),
         (["sequence", "--manifest", "m.json", "--grid-step", "nan"], "grid_step"),
         (["sequence", "--manifest", "m.json", "--eps", "nan"], "epsilon_px"),
         (["sequence", "--manifest", "m.json", "--normalize-radius", "inf"], "normalize_radius")],
    )
    def test_non_finite_value_exit_2(self, tmp_path, capsys, argv, field):
        code = main([*argv, "--out-dir" if argv[0] == "synth" else "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repbench: error: {field} must" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["eval", "synth"])
    def test_singular_homography_exit_2_names_file(self, tmp_path, capsys, command):
        hpath = tmp_path / "H.txt"
        hpath.write_text("1 0 0\n0 1 0\n0 0 0\n")
        kpts = tmp_path / "a.kpts"
        kpts.write_text("1.0\n1\n10 10 0.5 0.0 0.5\n")
        if command == "eval":
            argv = ["eval", "--ref", str(kpts), "--test", str(kpts), "--ref-dims", "100x100",
                    "--test-dims", "100x100"]
        else:
            argv = ["synth", "--out-dir", str(tmp_path / "x"), "--images", "2"]
        code = main([*argv, "--homography", str(hpath)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repbench: error: {hpath}: " in captured.err
        assert "determinant" in captured.err

    # regular, though det(m) or det(m^-1) underflows to 0, and the point at
    # infinity test is relative to max|m|, so k * I gives the identity's row
    @pytest.mark.parametrize("k", ["1e-120", "1e150"])
    def test_scaled_identity_homography_accepted(self, tmp_path, capsys, k):
        hpath = tmp_path / "H.txt"
        hpath.write_text(f"{k} 0 0\n0 {k} 0\n0 0 {k}\n")
        kpts = tmp_path / "a.kpts"
        kpts.write_text("1.0\n1\n10 10 0.5 0.0 0.5\n")
        code = main(["eval", "--ref", str(kpts), "--test", str(kpts), "--ref-dims", "100x100",
                     "--test-dims", "100x100", "--homography", str(hpath)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == 0
        assert captured.out == "pair,eq1,c1,c2,true_matches\n2,1.0,1.0,1.0,0\n"

    # H scales the valid test shape 1e308 by 4, which overflows: the pair is
    # not repeated, and the valid input is no reason to exit 2
    def test_overflowing_transport_not_repeated(self, tmp_path, capsys):
        circle = "0.1111111111111111 0 0.1111111111111111"
        (tmp_path / "ref.kpts").write_text(f"1.0\n1\n50 50 {circle}\n")
        (tmp_path / "test.kpts").write_text("1.0\n1\n100 100 1e308 0 1e308\n")
        (tmp_path / "H.txt").write_text("2 0 0\n0 2 0\n0 0 1\n")
        manifest = {"name": "overflow",
                    "images": [{"id": i, "width": 800, "height": 640, "keypoints": f"{i}.kpts"}
                               for i in ("ref", "test")],
                    "homographies": [{"from": "ref", "to": "test", "path": "H.txt"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code = main(["eval", "--ref", str(tmp_path / "ref.kpts"), "--test",
                     str(tmp_path / "test.kpts"), "--homography", str(tmp_path / "H.txt"),
                     "--ref-dims", "800x640", "--test-dims", "800x640"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == "pair,eq1,c1,c2,true_matches\n2,0.0,0.0,0.0,0\n"
        stem = tmp_path / "r"
        code = main(["sequence", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(stem)])
        assert (code, capsys.readouterr().err) == (0, "")
        (pair,) = load_report(f"{stem}.json")["pairs"]
        assert (pair["n_ref"], pair["n_test"], pair["n_rep"]) == (1, 1, 0)

    # the ramp's end is checked before the first file is written
    @pytest.mark.parametrize("images, end", [("4", "-1"), ("2", "nan"), ("4", "inf")])
    def test_bad_jitter_end_exit_2_writes_nothing(self, tmp_path, capsys, images, end):
        out = tmp_path / "x"
        out.mkdir()
        code = main(["synth", "--out-dir", str(out), "--images", images, "--n-points", "5",
                     "--jitter-end", end])
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: jitter_end must be finite and >= 0" in captured.err
        assert list(out.iterdir()) == []

    # with one derived image there is no ramp to take jitter_end to
    def test_jitter_end_with_two_images_exit_2_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "j2"
        code = main(["synth", "--out-dir", str(out), "--images", "2", "--jitter-end", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "with at least 3 images to ramp" in captured.err
        assert not out.exists()

    def eval_argv(self, tmp_path, capsys, *flags):
        out, _ = self.synth(tmp_path, capsys)
        return ["eval", "--ref", str(out / "img1.kpts"), "--test", str(out / "img2.kpts"),
                "--homography", str(out / "H_1_2.txt"), "--ref-dims", "400x300",
                "--test-dims", "400x300", *flags]

    # a pitch whose grid has more cells than a float holds is coarsened to
    # the sample cap like any other pitch too fine for it
    def test_tiny_grid_step_coarsened_to_the_cap(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--out-dir", str(out), "--n-points", "30"]) == 0
        for step in ("1e-12", "1e-200", "1e-300", "1e-320"):
            capsys.readouterr()
            code = main(["eval", "--ref", str(out / "img1.kpts"), "--test", str(out / "img2.kpts"),
                         "--homography", str(out / "H_1_2.txt"), "--ref-dims", "800x640",
                         "--test-dims", "800x640", "--grid-step", step])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert captured.out.splitlines()[1] == "2,1.0,0.8333333333333334,0.9090909090909091,25"
        code = main(["sequence", "--manifest", str(out / "manifest.json"),
                     "--out", str(tmp_path / "r"), "--grid-step", "1e-300"])
        assert code == 0, capsys.readouterr().err

    # the radius bound is synth's scale bound: outside it a rescaled region
    # overflows, or every candidate is dropped
    @pytest.mark.parametrize("radius", ["1e150", "1e-150", "1e-170", "1e77", "1e-77"])
    def test_normalize_radius_out_of_bounds_exit_2(self, tmp_path, capsys, radius):
        code = main(self.eval_argv(tmp_path, capsys, "--normalize-radius", radius))
        captured = capsys.readouterr()
        assert code == 2
        assert "repbench: error: normalize_radius must satisfy" in captured.err

    @pytest.mark.parametrize("radius", [repr(MIN_SCALE), repr(MAX_SCALE)])
    def test_normalize_radius_at_the_bounds_exit_0(self, tmp_path, capsys, radius):
        code = main(self.eval_argv(tmp_path, capsys, "--normalize-radius", radius))
        assert code == 0, capsys.readouterr().err

    def test_normalize_radius_not_a_number_exit_2_names_the_flag(self, tmp_path, capsys):
        code = main(self.eval_argv(tmp_path, capsys, "--normalize-radius", "abc"))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "repbench: error: --normalize-radius must be a radius or 'off', got 'abc'\n"
        )

    def test_homography_count_mismatch_exit_2(self, tmp_path, capsys):
        hpath = tmp_path / "H.txt"
        hpath.write_text("1 0 0 0 1 0 0 0 1")
        code = main(
            [
                "synth",
                "--out-dir",
                str(tmp_path / "x"),
                "--images",
                "4",
                "--homography",
                str(hpath),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "need 3" in captured.err
