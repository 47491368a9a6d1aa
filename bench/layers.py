"""Per-layer metrics, derived from the spans of one traced pipeline pass.

The layers are the modules of src/repbench.  `cli` is only exercised by
ramp-projective and is a thin argparse layer, so it gets no metric of its
own.  Counts marked "computed" come from the call arguments, not from
counters inside the program.  Which end-to-end metric each one should move,
on which workload:

- geometry.overlap_error.*: pairs_per_s on ramp-projective, a little on
  descriptor-m400.  A faster kernel shows as ns_per_sample
  falling while samples stays exactly the same.
- metrics.region_overlap_error.self_s: the transport and normalise overhead
  per candidate; pairs_per_s on ramp-projective once the kernel is fast.
- metrics.evaluate_pair.self_s: centre search plus greedy resolve.
- metrics.candidates / n_rep / candidate_yield: wasted overlap work.
- matching.match_descriptors.s, descriptor_distances (N*M*D) and
  distance_bytes (N*M*D*8, the largest distance tensor built): peak_rss_mb
  and pairs_per_s on descriptor-m400.
- matching.verify.repeat_calls: overlap errors verify_matches recomputes for
  a (ref region, test region, homography) triple already scored in the same
  evaluate_pair; pairs_per_s on ramp-projective.
- formats.load_keypoints.s / keypoints_parsed / bytes_parsed: pairs_per_s on
  descriptor-m400.  formats.write_keypoints.s, synth.*: setup_s, mainly on
  descriptor-m400.
- harness.pool.*: pairs_per_s on ramp-projective, where uneven pairs decide
  the makespan.  busy_frac is the summed evaluate_pair time over workers x
  evaluate_sequence wall time; wait_s the summed queue wait of pool jobs.
- harness.correlate_reports.s, harness.summary_table.s, stats.correlate.*:
  small everywhere; listed so that work moved into them shows.
- trace.overhead_pairs_per_s: untraced minus traced pairs_per_s.
- process.peak_rss_mb: the largest ru_maxrss of the traced pass's phase
  processes; peak_rss_mb and pairs_per_s on descriptor-m400, where the
  distance tensor sets it.  On ramp-projective it is set by the largest
  overlap grid, which a rare size-mismatched candidate inflates, so it
  varies with the seed and cannot carry a relative bound.
- cold.sequence_s, cold.sys_s, cold.minor_faults: wall time, system time
  and page faults of the sequence phase in a fresh process whose allocator
  was not settled (common.settle_allocator), as `repbench sequence` runs.
  They carry the cost of returning overlap temporaries to the OS and
  faulting them in again, which the settled figures leave out; a change
  that reuses buffers shows here, mainly on ramp-projective.  The fault
  count repeats for a seed; the times vary with the order of grid sizes in
  the dataset, so they carry no bound.
"""

from collections import defaultdict

from tracing import POOL_JOB, net_durations, self_times

# (name, unit, better), in the order they are printed.
PER_LAYER = [
    ("geometry.overlap_error.calls", "count", "lower"),
    ("geometry.overlap_error.s", "s", "lower"),
    ("geometry.overlap_error.samples", "count_computed", "lower"),
    ("geometry.overlap_error.ns_per_sample", "ns", "lower"),
    ("geometry.overlap_error.share_of_pair", "fraction", "lower"),
    ("metrics.region_overlap_error.s", "s", "lower"),
    ("metrics.region_overlap_error.self_s", "s", "lower"),
    ("metrics.evaluate_pair.calls", "count", "lower"),
    ("metrics.evaluate_pair.s", "s", "lower"),
    ("metrics.evaluate_pair.self_s", "s", "lower"),
    ("metrics.common_part_filter.s", "s", "lower"),
    ("metrics.candidates", "count", "lower"),
    ("metrics.n_rep", "count", "higher"),
    ("metrics.candidate_yield", "fraction", "higher"),
    ("matching.match_descriptors.s", "s", "lower"),
    ("matching.match_descriptors.share_of_pair", "fraction", "lower"),
    ("matching.descriptor_distances", "count_computed", "lower"),
    ("matching.distance_bytes", "bytes_computed", "lower"),
    ("matching.verify_matches.s", "s", "lower"),
    ("matching.verify.overlap_calls", "count", "lower"),
    ("matching.verify.repeat_calls", "count", "lower"),
    ("matching.true_match_yield", "fraction", "higher"),
    ("formats.load_keypoints.s", "s", "lower"),
    ("formats.keypoints_parsed", "count", "lower"),
    ("formats.bytes_parsed", "bytes", "lower"),
    ("formats.write_keypoints.s", "s", "lower"),
    ("synth.generate_reference.s", "s", "lower"),
    ("synth.derive_test.s", "s", "lower"),
    ("harness.evaluate_sequence.s", "s", "lower"),
    ("harness.report_write.s", "s", "lower"),
    ("harness.pool.wait_s", "s", "lower"),
    ("harness.pool.busy_frac", "fraction", "higher"),
    ("harness.pool.slowest_pair_s", "s", "lower"),
    ("harness.correlate_reports.s", "s", "lower"),
    ("harness.summary_table.s", "s", "lower"),
    ("stats.correlate.calls", "count", "lower"),
    ("stats.correlate.s", "s", "lower"),
    ("trace.pairs_per_s", "pairs/s", "higher"),
    ("trace.overhead_pairs_per_s", "pairs/s", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("cold.sequence_s", "s", "lower"),
    ("cold.sys_s", "s", "lower"),
    ("cold.minor_faults", "count", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics of the phase processes rather than of spans; run.py measures them.
PROCESS = ("trace.pairs_per_s", "trace.overhead_pairs_per_s", "process.peak_rss_mb",
           "cold.sequence_s", "cold.sys_s", "cold.minor_faults")


def per_layer(spans, process):
    """{metric name: value} for every PER_LAYER metric; `process` gives
    those named in PROCESS."""
    selfs = self_times(spans)
    nets = net_durations(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(nets[s.id] for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    def under_command(span, commands):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "cli.main" and span.attrs.get("command") in commands:
                return True
        return False

    # An overlap error is scored either as a candidate of the centre search
    # (called by evaluate_pair itself) or again by verify_matches.
    candidates = verify_calls = repeats = 0
    scored = defaultdict(set)  # evaluate_pair span id -> triple keys
    for s in sorted(by_name["metrics.region_overlap_error"], key=lambda s: s.start):
        caller = by_id[s.parent]
        if caller.name == "metrics.evaluate_pair":
            candidates += 1
            scored[caller.id].add(s.attrs["key"])
        elif caller.name == "matching.verify_matches":
            verify_calls += 1
            repeats += s.attrs["key"] in scored[caller.parent]

    overlap_s = total("geometry.overlap_error")
    samples = sum(s.attrs["samples"] for s in by_name["geometry.overlap_error"])
    pair_s = total("metrics.evaluate_pair")
    matches = by_name["matching.match_descriptors"]
    n_rep = sum(s.attrs["n_rep"] for s in by_name["metrics.evaluate_pair"])
    true_matches = sum(s.attrs["true_matches"] for s in by_name["matching.verify_matches"])
    loads = by_name["formats.load_keypoints"]
    sequences = by_name["harness.evaluate_sequence"]
    report_write = (
        total("harness.sequence_report_json")
        + total("harness.sequence_report_csv")
        + sum(nets[s.id] for s in by_name["cli._emit"]
              if not under_command(s, ("correlate", "summary")))
    )
    values = {
        "geometry.overlap_error.calls": len(by_name["geometry.overlap_error"]),
        "geometry.overlap_error.s": overlap_s,
        "geometry.overlap_error.samples": samples,
        "geometry.overlap_error.ns_per_sample": _ratio(overlap_s * 1e9, samples),
        "geometry.overlap_error.share_of_pair": _ratio(overlap_s, pair_s),
        "metrics.region_overlap_error.s": total("metrics.region_overlap_error"),
        "metrics.region_overlap_error.self_s": self_total("metrics.region_overlap_error"),
        "metrics.evaluate_pair.calls": len(by_name["metrics.evaluate_pair"]),
        "metrics.evaluate_pair.s": pair_s,
        "metrics.evaluate_pair.self_s": self_total("metrics.evaluate_pair"),
        "metrics.common_part_filter.s": total("metrics.common_part_filter"),
        "metrics.candidates": candidates,
        "metrics.n_rep": n_rep,
        "metrics.candidate_yield": _ratio(n_rep, candidates),
        "matching.match_descriptors.s": total("matching.match_descriptors"),
        "matching.match_descriptors.share_of_pair": _ratio(
            total("matching.match_descriptors"), pair_s
        ),
        "matching.descriptor_distances": sum(
            s.attrs["n"] * s.attrs["m"] * s.attrs["d"] for s in matches
        ),
        "matching.distance_bytes": max(
            (s.attrs["n"] * s.attrs["m"] * s.attrs["d"] * 8 for s in matches), default=0
        ),
        "matching.verify_matches.s": total("matching.verify_matches"),
        "matching.verify.overlap_calls": verify_calls,
        "matching.verify.repeat_calls": repeats,
        "matching.true_match_yield": _ratio(
            true_matches, sum(s.attrs["matches"] for s in matches)
        ),
        "formats.load_keypoints.s": total("formats.load_keypoints"),
        "formats.keypoints_parsed": sum(s.attrs["keypoints"] for s in loads),
        "formats.bytes_parsed": sum(s.attrs["bytes"] for s in loads),
        "formats.write_keypoints.s": total("formats.write_keypoints"),
        "synth.generate_reference.s": total("synth.generate_reference"),
        "synth.derive_test.s": total("synth.derive_test"),
        "harness.evaluate_sequence.s": total("harness.evaluate_sequence"),
        "harness.report_write.s": report_write,
        "harness.pool.wait_s": sum(s.attrs["wait_s"] for s in by_name[POOL_JOB]),
        "harness.pool.busy_frac": _ratio(
            pair_s, sum(s.attrs["workers"] * nets[s.id] for s in sequences)
        ),
        "harness.pool.slowest_pair_s": max(
            (nets[s.id] for s in by_name["metrics.evaluate_pair"]), default=0.0
        ),
        "harness.correlate_reports.s": total("harness.correlate_reports"),
        "harness.summary_table.s": total("harness.summary_table"),
        "stats.correlate.calls": len(by_name["stats.correlate"]),
        "stats.correlate.s": total("stats.correlate"),
        **{name: process[name] for name in PROCESS},
    }
    assert list(values) == [name for name, _, _ in PER_LAYER]
    return values


def pairs_with_excess_true_matches(spans):
    """Number of evaluate_pair calls whose verified true matches exceed the
    descriptor matches returned, which the protocol forbids."""
    by_parent = defaultdict(dict)
    for s in spans:
        if s.name in ("matching.match_descriptors", "matching.verify_matches"):
            by_parent[s.parent][s.name] = s.attrs
    return sum(
        calls["matching.verify_matches"]["true_matches"]
        > calls["matching.match_descriptors"]["matches"]
        for calls in by_parent.values()
    )
