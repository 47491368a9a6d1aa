"""repbench benchmark: one workload, end to end (--trace 0) or traced (--trace 1).

Run from the root of a checkout:

    python3 bench/run.py --workload ramp-projective --seed 7 --seconds 60 --trace 0

A pass is synth -> sequence -> correlate -> summary with each phase in a
fresh process (phase.py), as a user runs the four `repbench` commands, so
every pass pays the start of such a run: interpreter and imports.  Before
a phase is timed, malloc's thresholds are settled (common.settle_allocator
says why); the cold allocator's cost is measured apart, in the traced run.
Pass k evaluates the dataset repbench's synth layer makes from
pass_seed(seed, k); pass 0 uses --seed itself.

With --trace 0, serial passes repeat while the next one is expected to end
within --seconds, and at least MIN_PASSES run.  Set-up is repeated on the
passes' seeds until there are SETUP_REPEATS samples taking SETUP_MIN_S in
all.  Every figure is the median over the run's samples, so a burst of
load on the shared machine during one pass moves it little.  Reported:

- pipeline_s (s): wall time of one full pass, phase processes included;
- setup_s (s): the synth phase (harness.synth_sequence, or `repbench synth`
  and the homography files, which write keypoints, homographies, manifest),
  timed inside its process;
- pairs_per_s (pairs/s): pairs evaluated over the wall time of the sequence
  phase (load manifest and keypoints, evaluate_sequence, write JSON and
  CSV), timed inside its process;
- peak_rss_mb (MB): the largest ru_maxrss of the phase processes, printed
  but not in the result line; it is the per-layer metric
  process.peak_rss_mb instead, because on ramp-projective it follows the
  seed (layers.py);
- failed_frac: failed pairs over pairs attempted, printed; it is 0 on a
  correct program, so the result line carries it as `failed` / `attempted`
  rather than as a metric with a relative bound.

Pipeline and throughput are taken over the passes' different datasets, so
that a run's figure is less tied to one dataset's work.  The run prints
each pass's figures and, for each metric, the sample count and the
quartiles of the samples.

With --trace 1 three passes run on --seed's dataset, with the workload's
own pool size: a cold one (no settling; the cold.* metrics), an untraced
one and a traced one.  The traced pass gives the per-layer metrics of
layers.py, and the difference of the last two passes' pairs_per_s is the
tracing overhead.  Spans are written to
.bench_work/trace-<workload>-seed<seed>.jsonl.

Every pass checks its outputs (check.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import common

HERE = os.path.dirname(os.path.abspath(__file__))
PHASE = os.path.join(HERE, "phase.py")
# A phase process that runs this long has hung; it is killed and the pass fails.
PHASE_TIMEOUT_S = 150
MIN_PASSES = 5
# Set-up repeats until there are SETUP_REPEATS samples taking SETUP_MIN_S
# in all, so a cheap set-up is sampled more often.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
END_TO_END = [("pipeline_s", "s"), ("setup_s", "s"), ("pairs_per_s", "pairs/s")]
# End-to-end passes run serially.  On a shared 2-vCPU machine the makespan
# of 2 busy threads moved by more than 20 % between runs of equal work, too
# much for a bound; the traced run keeps each workload's own pool size.
END_TO_END_WORKERS = 1


def pass_seed(seed, k):
    """Dataset seed of pass k of a run with --seed `seed`."""
    if k == 0:
        return seed
    import numpy

    return int(numpy.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_phase(w, phase, seed, pass_dir, workers, spans=None, cold=False):
    """Run one phase in a fresh process; returns what phase.py prints."""
    cmd = [sys.executable, PHASE, "--workload", w.name, "--seed", str(seed),
           "--phase", phase, "--dir", pass_dir, "--workers", str(workers)]
    if cold:
        cmd.append("--cold")
    if spans is not None:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PHASE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"phase {phase} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    seed: int
    setup_s: float
    sequence_s: float
    pipeline_s: float
    peak_rss_mb: float
    failed: int
    files: dict  # the generated dataset, {relative path: bytes}
    phases: dict  # phase name -> what phase.py printed


def run_pass(w, seed, pass_dir, expected, workers, spans_dir=None, cold=False):
    """One synth -> sequence -> correlate -> summary pass in pass_dir, one
    process per phase.  With spans_dir, each phase writes its spans there."""
    import check
    import workloads

    os.makedirs(pass_dir)
    phases = {}
    t0 = time.perf_counter()
    for phase in workloads.PHASES:
        spans = None if spans_dir is None else os.path.join(spans_dir, f"{phase}.jsonl")
        phases[phase] = run_phase(w, phase, seed, pass_dir, workers, spans, cold)
    pipeline_s = time.perf_counter() - t0

    stem = os.path.join(pass_dir, "report")
    with open(stem + ".json", "rb") as fj, open(stem + ".csv", "rb") as fc:
        failed = check.failed_pairs(fj.read(), fc.read(), expected)
    with open(stem + ".correlate.csv") as ft, open(stem + ".summary.csv") as fg:
        table, grid = ft.read(), fg.read()
    if not check.downstream_ok(table, grid, w.name):
        print(f"# correlate/summary output wrong:\n{table}{grid}", file=sys.stderr)
        failed = range(workloads.PAIRS)
    setup_s, sequence_s = phases["setup"]["s"], phases["sequence"]["s"]
    print(f"# pass seed {seed}: setup {setup_s:.4f} s, sequence {sequence_s:.4f} s, "
          f"pipeline {pipeline_s:.4f} s")
    return Pass(seed, setup_s, sequence_s, pipeline_s,
                max(p["peak_rss_mb"] for p in phases.values()), len(failed),
                workloads.dataset_files(os.path.join(pass_dir, "data")), phases)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.import_repbench()
    except ImportError as exc:
        print(f"bench: cannot import repbench from {common.SRC}: {exc}", file=sys.stderr)
        return 2
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    print(common.env_line(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace))
    ref = check.load_expected()

    work = os.path.join(common.WORK, f"{w.name}-seed{args.seed}-pid{os.getpid()}")
    passes = []
    attempted = failed = 0
    problems = []

    def attempt(label, seed, workers, spans_dir=None, cold=False):
        nonlocal attempted, failed
        attempted += workloads.PAIRS
        expected = ref["workloads"][w.name] if seed == ref["seed"] else None
        pass_dir = os.path.join(work, label)
        try:
            p = run_pass(w, seed, pass_dir, expected, workers, spans_dir, cold)
        except Exception:
            traceback.print_exc()
            failed += workloads.PAIRS
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        failed += p.failed
        same_seed = [q for q in passes if q.seed == seed]
        if same_seed and p.files != same_seed[0].files:
            problems.append(f"{label}: generated files differ from an earlier pass's")
        passes.append(p)
        return p

    try:
        if args.trace:
            import layers
            import tracing

            cold = attempt("cold", args.seed, w.workers, cold=True)
            untraced = attempt("untraced", args.seed, w.workers)
            spans_dir = os.path.join(work, "spans")
            os.makedirs(spans_dir)
            traced = attempt("traced", args.seed, w.workers, spans_dir)
            if cold is None or untraced is None or traced is None:
                return 1
            spans = tracing.load(
                os.path.join(spans_dir, f"{phase}.jsonl") for phase in workloads.PHASES
            )
            excess = layers.pairs_with_excess_true_matches(spans)
            if excess:
                problems.append(f"{excess} pair(s) with more true matches than matches")
                failed += excess
            tracing.dump(spans, os.path.join(common.WORK, f"trace-{w.name}-seed{args.seed}.jsonl"))
            cold_sequence = cold.phases["sequence"]
            values = layers.per_layer(spans, {
                "trace.pairs_per_s": workloads.PAIRS / traced.sequence_s,
                "trace.overhead_pairs_per_s":
                    workloads.PAIRS / untraced.sequence_s - workloads.PAIRS / traced.sequence_s,
                "process.peak_rss_mb": traced.peak_rss_mb,
                "cold.sequence_s": cold_sequence["s"],
                "cold.sys_s": cold_sequence["sys_s"],
                "cold.minor_faults": cold_sequence["minor_faults"],
            })
            metrics = {n: {"value": values[n], "unit": layers.UNITS[n]} for n in values}
        else:
            # Serial passes: see END_TO_END_WORKERS.  Another pass starts
            # only while it is expected to end within --seconds.
            start = time.perf_counter()
            while True:
                attempt(f"pass{len(passes)}", pass_seed(args.seed, len(passes)),
                        END_TO_END_WORKERS)
                elapsed = time.perf_counter() - start
                if len(passes) >= MIN_PASSES and elapsed * (
                    1 + workloads.PAIRS / attempted
                ) > args.seconds:
                    break
                if len(passes) < attempted // workloads.PAIRS:
                    break  # a pass failed; it was counted
            if not passes:
                return 1
            setups = [p.setup_s for p in passes]
            while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
                p = passes[len(setups) % len(passes)]
                setup_dir = os.path.join(work, f"setup{len(setups)}")
                setups.append(run_phase(w, "setup", p.seed, setup_dir, 1)["s"])
                if workloads.dataset_files(os.path.join(setup_dir, "data")) != p.files:
                    problems.append(f"set-up {len(setups)} wrote different files")
                shutil.rmtree(setup_dir)
            samples = {
                "pipeline_s": [p.pipeline_s for p in passes],
                "setup_s": setups,
                "pairs_per_s": [workloads.PAIRS / p.sequence_s for p in passes],
            }
            for name, xs in samples.items():
                q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
                print(f"# {name}: n={len(xs)} q1={q[0]:.6g} median={q[1]:.6g} q3={q[2]:.6g}")
            metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
                       for n, u in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"# problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        rss = max(p.peak_rss_mb for p in passes)
        print(f"{'peak_rss_mb':42s} {rss:>16.6g} MB (unbounded; see module docstring)")
    print(f"{'failed_frac':42s} {failed / attempted:>16.6g} ({failed}/{attempted} pairs)")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
