#!/usr/bin/env bash
# The repository benchmark in one command. Configures and builds build-bench/
# (Release, from benchmark/CMakeLists.txt), then runs the crowder_benchmark
# harness.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke
#
# --seconds defaults to BENCHMARK.json's run_seconds. With --workload, one
# workload runs and the last line of standard output is its JSON result.
# Without it, every workload runs in turn, each in its own process; the
# `workload metric value unit` lines are printed and the JSON results
# collected in build-bench/results/all-seed<N>.json. --trace 1 reports the
# per-layer metrics instead of the end-to-end ones and writes Chrome traces
# to build-bench/trace/<workload>-seed<N>.json (all workloads: merged into
# build-bench/trace/all-seed<N>.json). --smoke runs every workload at a tenth
# of its size and checks that every metric BENCHMARK.json names is emitted
# with its unit and that the trace parses with one root span per workload.
# Build output goes to build-bench/build.log.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$ROOT/build-bench"
WORKLOADS=(machine_join hybrid_cluster stream_defended serve_ingest)

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$ROOT/BENCHMARK.json")"
workload="" seed=0 trace=0 smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ "$trace" != 0 && "$trace" != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi

build() {
  mkdir -p "$BUILD"
  local generator=()
  if [[ ! -f "$BUILD/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  if ! { cmake -S "$ROOT/benchmark" -B "$BUILD" "${generator[@]}" &&
         cmake --build "$BUILD" --target crowder_benchmark -j "$(nproc)"
       } >"$BUILD/build.log" 2>&1; then
    tail -n 40 "$BUILD/build.log" >&2
    echo "run.sh: build failed (see $BUILD/build.log)" >&2
    exit 1
  fi
}

# harness WORKLOAD [flags...]: one workload in its own process.
harness() {
  local name="$1"
  shift
  "$BUILD/crowder_benchmark" --workload "$name" --seed "$seed" --work "$BUILD/work" \
    --digests "$ROOT/benchmark/digests.txt" "$@"
}

# merge_traces OUT FILE...: one Chrome trace with every file's events (each
# workload writes its own pid, so their tracks never collide).
merge_traces() {
  local out="$1" sep=""
  shift
  {
    echo '{"displayTimeUnit":"ms","traceEvents":['
    for f in "$@"; do
      if [[ -n "$sep" ]]; then echo ','; fi
      sed '1d;$d' "$f"
      sep=1
    done
    echo ']}'
  } >"$out"
}

build
mkdir -p "$BUILD/work" "$BUILD/tmp" "$BUILD/results" "$BUILD/trace"
export TMPDIR="$BUILD/tmp"  # spill files stay inside the checkout

if [[ $smoke -eq 1 ]]; then
  dir="$BUILD/smoke"
  mkdir -p "$dir"
  start=$SECONDS
  traces=()
  for w in "${WORKLOADS[@]}"; do
    harness "$w" --scale 0.1 --seconds 0 --out "$dir/$w.e2e.json" >/dev/null
    harness "$w" --scale 0.1 --seconds 0 --out "$dir/$w.layer.json" \
      --trace "$dir/$w.trace.json" >/dev/null
    traces+=("$dir/$w.trace.json")
  done
  merge_traces "$dir/trace.json" "${traces[@]}"
  python3 "$ROOT/benchmark/check_smoke.py" "$ROOT/BENCHMARK.json" "$dir" "${WORKLOADS[@]}"
  echo "smoke: passed in $((SECONDS - start)) s"
  exit 0
fi

# trace_file WORKLOAD: where this run's trace goes (empty: untraced).
trace_file() {
  if [[ "$trace" == 1 ]]; then echo "$BUILD/trace/$1-seed$seed.json"; fi
}

if [[ -n "$workload" ]]; then
  file="$(trace_file "$workload")"
  harness "$workload" --seconds "$seconds" --out "$BUILD/results/$workload-seed$seed.json" \
    ${file:+--trace "$file"}
  exit
fi

status=0
traces=()
for w in "${WORKLOADS[@]}"; do
  file="$(trace_file "$w")"
  if [[ -n "$file" ]]; then traces+=("$file"); fi
  # Every line but the last, the JSON result, which is collected below.
  harness "$w" --seconds "$seconds" --out "$BUILD/results/$w-seed$seed.json" \
    ${file:+--trace "$file"} | sed '$d' || status=1
done
results="$BUILD/results/all-seed$seed.json"
{
  sep="{"
  for w in "${WORKLOADS[@]}"; do
    printf '%s"%s": %s\n' "$sep" "$w" "$(cat "$BUILD/results/$w-seed$seed.json" 2>/dev/null || echo null)"
    sep=","
  done
  echo "}"
} >"$results"
echo "results: $results"
if [[ ${#traces[@]} -gt 0 ]]; then
  merged="$BUILD/trace/all-seed$seed.json"
  merge_traces "$merged" "${traces[@]}"
  echo "trace: $merged (open in https://ui.perfetto.dev)"
fi
exit "$status"
