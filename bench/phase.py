"""One phase of a benchmark pass, in a process of its own, as a repbench
command runs: the interpreter and the imports start cold.

    python3 bench/phase.py --workload W --seed N --phase setup --dir D

Phases (workloads.PHASES): setup writes D/data; sequence evaluates it into
D/report.json and D/report.csv; correlate and summary write
D/report.correlate.csv and D/report.summary.csv.  Unless --cold is given,
malloc's thresholds are settled before the phase (common.settle_allocator).
With --spans FILE the phase runs traced (tracing.py) and its spans are
written to FILE.

The last line of stdout is one JSON object about the phase, counted from
after the imports: {"s": wall seconds, "sys_s": system CPU seconds,
"minor_faults": page faults served without I/O, "peak_rss_mb": ru_maxrss of
this process}.
"""

import argparse
import json
import resource
import sys
import time

import common


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    common.import_repbench()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if not args.cold:
        common.settle_allocator()
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    workloads.run_phase(w, args.phase, args.seed, args.dir, args.workers)
    elapsed = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    print(json.dumps({
        "s": elapsed,
        "sys_s": r1.ru_stime - r0.ru_stime,
        "minor_faults": r1.ru_minflt - r0.ru_minflt,
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    sys.exit(main())
