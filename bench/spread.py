"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload ramp-projective --seeds 1-10
    python3 bench/spread.py --workload ramp-projective --seeds 7,7,7,7,7

Runs `bench/run.py --trace 0` once per seed, one run at a time, and prints
for each metric the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  With --out, the raw results are saved as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[0].removeprefix("# env "))
        runs.append({"seed": seed, "env": env, "result": result})
        summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed:3d} correct={result['correct']} {summary}", flush=True)

    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {share:.4f}  bound {bounds.get(name)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
