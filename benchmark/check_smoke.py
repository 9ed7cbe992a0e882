"""Checks a `benchmark/run.sh --smoke` output directory against BENCHMARK.json.

usage: check_smoke.py BENCHMARK.json SMOKE_DIR WORKLOAD...

Every workload must have run correctly, emitted exactly the end-to-end
metrics (untraced run) and per-layer metrics (traced run) BENCHMARK.json
names, each with its unit, and the merged trace must parse and hold one root
span per workload.
"""
import json
import sys


def main():
    spec = json.load(open(sys.argv[1]))
    out_dir, workloads = sys.argv[2], sys.argv[3:]
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads):
        errors.append("BENCHMARK.json workloads differ from run.sh's")
    for w in workloads:
        for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer")):
            got = json.load(open(f"{out_dir}/{w}.{kind}.json"))
            if not got["correct"] or got["failed"] != 0 or got["attempted"] < 1:
                errors.append(f"{w}: {kind} run not correct")
            if set(got["metrics"]) != {m["name"] for m in spec[key]}:
                errors.append(f"{w}: {kind} metrics differ from BENCHMARK.json {key}")
            for m in spec[key]:
                value = got["metrics"].get(m["name"], {})
                if value.get("unit") != m["unit"] or not isinstance(value.get("value"), (int, float)):
                    errors.append(f"{w}: {m['name']} missing or not in {m['unit']}")
    events = json.load(open(f"{out_dir}/trace.json"))["traceEvents"]
    roots = {e["name"] for e in events if e["ph"] == "X" and e["args"]["parent_id"] == -1}
    errors += [f"trace: no root span for {w}" for w in workloads if w not in roots]
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"smoke: {len(workloads)} workloads, every metric present, {len(events)} trace events")


if __name__ == "__main__":
    main()
