#!/usr/bin/env bash
# Regenerates every table/figure of EXPERIMENTS.md. Usage:
#   scripts/run_all_benches.sh [build-dir] [out-dir] [json-out]
#                              [extra bench flags...]
# e.g. a snapshot to check in, and a paper-scale run:
#   scripts/run_all_benches.sh build bench_results BENCH_PR14.json
#   scripts/run_all_benches.sh build results --streets=633461 --hydro=189642
#
# Besides the human-readable tables in OUT_DIR, assembles a machine-readable
# JSON summary at JSON_OUT (default OUT_DIR/bench.json; a third argument
# not starting with -- is taken as JSON_OUT): per figure-bench the wall ms,
# node accesses and distance computations of every measured run (emitted by
# bench_common via AMDJ_BENCH_JSON), per microbench the google-benchmark
# JSON entries including custom counters (per-op push/pop latency, queue
# splits/swap-ins/refinements), and per throughput-bench (the closed-loop
# multi_query replay and the open-loop Poisson bench) its own --json
# summary with qps and p50/p99/p999 latency — so the perf trajectory is
# tracked PR over PR against the checked-in BENCH_PR2.json baseline. Each
# figure bench also gets a <name>.reports.jsonl of per-run RunReport JSON
# (phase deltas + cutoff trajectory) via AMDJ_BENCH_REPORT_JSON.
set -u

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench_results}
shift 2 2>/dev/null || shift $# 2>/dev/null || true
JSON_OUT="$OUT_DIR/bench.json"
if [ $# -gt 0 ] && [[ "$1" != --* ]]; then
  JSON_OUT=$1
  shift
fi
EXTRA_FLAGS=("$@")

mkdir -p "$OUT_DIR/json"
status=0
for bench in "$BUILD_DIR"/bench/*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  case "$name" in
    *.a|*.txt|CMakeFiles|cmake_install.cmake|CTestTestfile.cmake) continue ;;
  esac
  echo "=== $name ${EXTRA_FLAGS[*]:-}"
  start_ns=$(date +%s%N)
  if [[ "$name" == micro_* ]]; then
    # google-benchmark binaries take their own flags.
    "$bench" --benchmark_min_time=0.05 \
      --benchmark_out="$OUT_DIR/json/$name.json" \
      --benchmark_out_format=json >"$OUT_DIR/$name.txt" 2>&1
  else
    rm -f "$OUT_DIR/json/$name.jsonl" "$OUT_DIR/json/$name.reports.jsonl"
    # The throughput benches publish their summaries via their own --json
    # flag (qps, p50/p99/p999) instead of per-run AMDJ_BENCH_JSON lines.
    SUMMARY_FLAGS=()
    case "$name" in
      multi_query_throughput|open_loop_throughput)
        rm -f "$OUT_DIR/json/$name.summary.json"
        SUMMARY_FLAGS=("--json=$OUT_DIR/json/$name.summary.json") ;;
    esac
    AMDJ_BENCH_NAME="$name" AMDJ_BENCH_JSON="$OUT_DIR/json/$name.jsonl" \
      AMDJ_BENCH_REPORT_JSON="$OUT_DIR/json/$name.reports.jsonl" \
      "$bench" "${SUMMARY_FLAGS[@]}" "${EXTRA_FLAGS[@]}" \
      >"$OUT_DIR/$name.txt" 2>&1
  fi
  rc=$?
  end_ns=$(date +%s%N)
  echo "$name $(( (end_ns - start_ns) / 1000000 )) $rc" >>"$OUT_DIR/json/wall.txt"
  if [ $rc -ne 0 ]; then
    echo "FAILED ($rc): $name" >&2
    status=1
  fi
done

# Assemble the JSON summary from the per-bench artifacts.
if command -v jq >/dev/null 2>&1; then
  {
    # bench -> total wall ms and exit code, as measured by this script
    jq -Rn '[inputs | split(" ") | {(.[0]): {wall_ms: (.[1] | tonumber),
                                            exit_code: (.[2] | tonumber)}}]
            | add // {}' <"$OUT_DIR/json/wall.txt" >"$OUT_DIR/json/_wall.json"
    # figure benches: one entry per measured run
    for f in "$OUT_DIR"/json/*.jsonl; do
      [ -e "$f" ] || continue
      case "$f" in *.reports.jsonl) continue ;; esac  # RunReport lines
      jq -s '{(.[0].bench // "unknown"): {runs: .}}' "$f"
    done | jq -s 'add // {}' >"$OUT_DIR/json/_figs.json"
    # microbenches: name/real_time/items plus any custom counters
    # (push_ns_per_op, pop_ns_per_op, splits, swapins, ...) from the
    # google-benchmark JSON. Counters land as extra top-level numeric keys
    # per benchmark entry, so pick up everything numeric beyond the core
    # fields.
    for f in "$OUT_DIR"/json/micro_*.json; do
      [ -e "$f" ] || continue
      jq --arg n "$(basename "$f" .json)" \
         '{($n): {benchmarks: [.benchmarks[]
            | {name, real_time, time_unit,
               items_per_second: (.items_per_second // null),
               label: (.label // null)}
              + (with_entries(select(
                   (.value | type == "number") and
                   (.key | IN("name", "real_time", "cpu_time", "time_unit",
                              "items_per_second", "label", "run_type",
                              "repetitions", "repetition_index", "threads",
                              "iterations", "family_index",
                              "per_family_instance_index") | not))))]}}' "$f"
    done | jq -s 'add // {}' >"$OUT_DIR/json/_micro.json"
    # throughput benches: their --json summaries, keyed by bench name
    for f in "$OUT_DIR"/json/*.summary.json; do
      [ -e "$f" ] || continue
      jq '{(.bench // "unknown"): .}' "$f"
    done | jq -s 'add // {}' >"$OUT_DIR/json/_throughput.json"
    jq -s '{schema: "amdj-bench-v1",
            flags: $flags,
            wall: .[0], figures: .[1], micro: .[2], throughput: .[3]}' \
       --arg flags "${EXTRA_FLAGS[*]:-}" \
       "$OUT_DIR/json/_wall.json" "$OUT_DIR/json/_figs.json" \
       "$OUT_DIR/json/_micro.json" "$OUT_DIR/json/_throughput.json" \
       >"$JSON_OUT"
    echo "wrote $JSON_OUT"
  } || { echo "$JSON_OUT assembly failed" >&2; status=1; }
else
  echo "jq not found: skipping $JSON_OUT" >&2
fi

echo "outputs in $OUT_DIR/"
exit $status
