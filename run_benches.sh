#!/bin/bash
# Runs every paper-reproduction bench at paper scale (--scale=1). All
# artifacts land under bench_json/: the tee'd text log
# (bench_json/bench_output.txt), one StatStore JSON per bench, one host-perf
# record per bench (<name>_perf.json: wall-clock seconds + peak RSS), and
# the consolidated bench_json/BENCH_results.json
# ({"<bench>": [<records>...], "<bench>_perf": {...}, ...}).
#
# Usage: run_benches.sh [OUT.txt] [bench flags...]
#   A first argument not starting with "--" names the text output file
#   (relative paths land inside bench_json/); every remaining argument is
#   passed to each bench (e.g. --scale=8, --jobs=8).
#
# --jobs=N is forwarded to every bench: the cell-converted benches
# (fig06, fig07, fig09, fig11-fig15, optimizer_regret, workload_scaleout,
# shard_scaleout, update_mix, batch_ablation, reclustering, fault_campaign)
# run their bench cells on an N-worker pool and still produce
# byte-identical text/JSON artifacts at any N (docs/parallel_harness.md);
# the remaining benches ignore the flag. Only the *_perf.json host-perf
# records (and their perf_summary.json rollup) legitimately vary with N.
# Env: TREEBENCH_SKIP_MICRO=1 skips the google-benchmark micro bench (host
#   wall clock, slow); CI sets it for smoke runs.
#   TREEBENCH_JOBS=N sets the default worker count when --jobs is absent.
set -u
cd "$(dirname "$0")"

JSON_DIR=bench_json
mkdir -p "$JSON_DIR"
rm -f "$JSON_DIR"/*.json

OUT=$JSON_DIR/bench_output.txt
if [ $# -gt 0 ] && [[ "$1" != --* ]]; then
  case "$1" in
    /*) OUT=$1 ;;
    *) OUT=$JSON_DIR/$1 ;;
  esac
  shift
fi
RESULTS=$JSON_DIR/BENCH_results.json

: > "$OUT"

for b in build/bench/bench_fig06_selection build/bench/bench_fig07_sorted_index \
         build/bench/bench_fig09_cost_breakdown build/bench/bench_fig10_hash_sizes \
         build/bench/bench_fig11_class_small build/bench/bench_fig12_class_large \
         build/bench/bench_fig13_comp_small build/bench/bench_fig14_comp_large \
         build/bench/bench_fig15_summary build/bench/bench_sec41_rids_vs_handles \
         build/bench/bench_sec32_loading build/bench/bench_sec44_handle_ablation \
         build/bench/bench_optimizer_regret build/bench/bench_ablation_hybrid_hash \
         build/bench/bench_ablation_dump_reload build/bench/bench_ablation_cache_sizes \
         build/bench/bench_fault_campaign build/bench/bench_workload_scaleout \
         build/bench/bench_batch_ablation build/bench/bench_shard_scaleout \
         build/bench/bench_update_mix build/bench/bench_reclustering; do
  name=$(basename "$b")
  echo "===================== $b =====================" | tee -a "$OUT"
  "$b" "$@" "--stats-json=$JSON_DIR/$name.json" \
       "--perf-json=$JSON_DIR/${name}_perf.json" 2>&1 | tee -a "$OUT"
  echo | tee -a "$OUT"
done

# Consolidate the per-bench record arrays into one document. Every bench
# writes one; a bench that keeps no records yet writes an empty array.
{
  echo "{"
  first=1
  for f in "$JSON_DIR"/*.json; do
    [ -e "$f" ] || continue
    [ "$f" = "$RESULTS" ] && continue  # the consolidated output itself
    name=$(basename "$f" .json)
    [ $first -eq 1 ] || echo ","
    first=0
    printf '"%s": ' "$name"
    cat "$f"
  done
  echo "}"
} > "$RESULTS"
echo "wrote consolidated results to $RESULTS" | tee -a "$OUT"

# Flat host-perf rollup: one "<bench>_wall_seconds" key per bench, extracted
# from the <name>_perf.json records. This is the only run_benches artifact
# that is ALLOWED to differ between --jobs values; bench/check_regression
# compares wall-clock keys one-sided (--wall-tolerance), so a committed
# wall baseline only fails when a bench got slower.
PERF_SUMMARY=$JSON_DIR/perf_summary.json
{
  echo "{"
  first=1
  for f in "$JSON_DIR"/*_perf.json; do
    [ -e "$f" ] || continue
    name=$(basename "$f" _perf.json)
    wall=$(sed -n 's/.*"wall_seconds": *\([0-9.eE+-]*\).*/\1/p' "$f" | head -1)
    [ -n "$wall" ] || continue
    [ $first -eq 1 ] || echo ","
    first=0
    printf '  "%s_wall_seconds": %s' "$name" "$wall"
  done
  echo
  echo "}"
} > "$PERF_SUMMARY"
echo "wrote host-perf summary to $PERF_SUMMARY" | tee -a "$OUT"

if [ "${TREEBENCH_SKIP_MICRO:-0}" != "1" ]; then
  echo "===================== build/bench/bench_micro_engine =====================" | tee -a "$OUT"
  build/bench/bench_micro_engine --benchmark_min_time=0.1 2>&1 | tee -a "$OUT"
fi
