"""Measures how steady the benchmark's end-to-end metrics are across seeds.

usage: python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                   [--workloads W ...] [--out FILE]

Runs `benchmark/run.sh --workload W --seed N` once per seed for every
workload (--seconds defaults to BENCHMARK.json's run_seconds) and reports,
per workload and end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median. A spread is flagged when it is not below a
third of the metric's bound. The same is shown, not flagged, for the host
speed each run measured and for e2e_s as measured, before scaling by it.
--out writes every value, median and spread as JSON, plus each run's wall
time.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Read off each run's header line: the host speed the harness measured and
# e2e_s before it was scaled by it.
UNSCALED = ("host_speed", "e2e_measured_s")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
              "nproc": os.cpu_count(), "workloads": {}}
    flagged = []
    for w in args.workloads:
        values = {name: [] for name in bounds}
        unscaled = {name: [] for name in UNSCALED}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            proc = subprocess.run(
                ["bash", os.path.join(ROOT, "benchmark/run.sh"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(round(time.monotonic() - start, 2))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed} failed:\n{proc.stderr}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            header = next(l for l in lines if l.startswith("# crowder_benchmark"))
            header = dict(re.findall(r"(\w+)=(\S+)", header))
            for name in UNSCALED:
                unscaled[name].append(float(header[name]))
        entry = {"run_wall_s": walls, "metrics": {}, "unscaled": {}}
        for name, vals in unscaled.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            entry["unscaled"][name] = {"median": median, "spread": round((q3 - q1) / median, 4),
                                       "values": vals}
            print(f"{w:16} {name:14} median {median:8.4f}  spread {(q3 - q1) / median:6.3f}"
                  "  (not gated)")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"median": median, "spread": round(spread, 4),
                                      "values": vals}
            limit = bounds[name] / 3
            mark = "ok" if spread < limit else "TOO WIDE"
            if mark != "ok":
                flagged.append(f"{w}.{name}")
            print(f"{w:16} {name:12} median {median:10.4f}  spread {spread:6.3f}"
                  f"  (bound/3 {limit:.3f}) {mark}")
        print(f"{w:16} run wall: max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s",
              flush=True)
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if flagged:
        sys.exit("spread too wide: " + ", ".join(flagged))


if __name__ == "__main__":
    main()
