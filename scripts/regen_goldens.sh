#!/usr/bin/env bash
# Regenerates every pinned artifact in one command:
#   * tests/golden/trace_replay_cello-usr_2000.txt -- the golden replay
#     transcript CI diffs byte-for-byte against a fresh run;
#   * tests/golden/fleet_failure_grid_8000.txt -- the fleet failure grid:
#     `fleet_service --layout L S 8000` for every scheme `fleet_service list`
#     prints, on both layouts, each run under a `## <scheme> <layout>` header
#     (the only pinned output that fails and rebuilds every scheme);
#   * tests/golden/availability_mc_200_3.txt and tests/golden/failure_drill.txt
#     -- faultsim's endless workload replay, drills and campaign summary
#     (`availability_mc 200 3`, `failure_drill`);
#   * tests/golden/mc_availability_200.txt -- the four-policy Monte-Carlo
#     table (`bench_mc_availability` at 200 lifetimes on 2 threads);
#   * tests/golden/bench_table2_performance.txt,
#     tests/golden/bench_ablation_raid6.txt and
#     tests/golden/bench_related_parity_logging.txt -- every scheme's client
#     path under load: AFRAID under the RAID 5, AFRAID and RAID 0 policies
#     on ten presets, the three RAID 6 modes, and parity logging beside
#     them (the same bytes at 1 and 4 AFRAID_BENCH_THREADS);
#   * BENCH_engine.json -- the micro-benchmark baseline the CI bench gate
#     compares hot-path timings to (loose factor, Release build);
#   * BENCH_rebuild.json -- the declustering rebuild comparison (window,
#     client p99 during rebuild, MTTDL); CI diffs a default run against it
#     byte for byte and checks the layout ordering.
#
# Run from anywhere inside the repo after a change that intentionally moves
# pinned output, then review the diff before committing:
#
#   scripts/regen_goldens.sh
#   git diff tests/golden BENCH_engine.json BENCH_rebuild.json
#
# Uses its own Release build tree (build-regen/) so a Debug working build is
# never the source of a pinned baseline.
#
# All artifacts are staged in a temp directory and moved into place only after
# every step has succeeded: a failure partway through exits nonzero and leaves
# the pinned files exactly as they were (no half-regenerated baselines).

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-regen"

stage="$(mktemp -d "${TMPDIR:-/tmp}/afraid-regen.XXXXXX")"
cleanup() {
  status=$?
  rm -rf "$stage"
  if [[ $status -ne 0 ]]; then
    echo "regen_goldens.sh: FAILED (exit $status); pinned artifacts untouched" >&2
  fi
  exit $status
}
trap cleanup EXIT

echo "== configuring Release build in $build"
cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j --target trace_replay fleet_service \
    availability_mc failure_drill bench_mc_availability bench_micro_engine \
    bench_rebuild_decluster bench_table2_performance bench_ablation_raid6 \
    bench_related_parity_logging >/dev/null

echo "== regenerating tests/golden/trace_replay_cello-usr_2000.txt"
"$build/examples/trace_replay" cello-usr 2000 \
    > "$stage/trace_replay_cello-usr_2000.txt"

echo "== regenerating tests/golden/fleet_failure_grid_8000.txt"
# Same runs, order and headers as CI's fleet failure grid step.
for s in $("$build/examples/fleet_service" list | awk '{print $1}'); do
  for layout in left-symmetric declustered; do
    echo "## $s $layout"
    AFRAID_BENCH_THREADS=1 "$build/examples/fleet_service" --layout "$layout" "$s" 8000
  done
done > "$stage/fleet_failure_grid_8000.txt"

echo "== regenerating tests/golden/availability_mc_200_3.txt and failure_drill.txt"
"$build/examples/availability_mc" 200 3 > "$stage/availability_mc_200_3.txt"
"$build/examples/failure_drill" > "$stage/failure_drill.txt"

echo "== regenerating tests/golden/mc_availability_200.txt"
AFRAID_MC_LIFETIMES=200 AFRAID_MC_THREADS=2 \
    "$build/bench/bench_mc_availability" > "$stage/mc_availability_200.txt"

echo "== regenerating the client-path goldens (table 2, RAID 6 ablation, parity logging)"
for b in bench_table2_performance bench_ablation_raid6 bench_related_parity_logging; do
  "$build/bench/$b" > "$stage/$b.txt"
done

echo "== regenerating BENCH_engine.json (Release micro-bench baseline)"
"$build/bench/bench_micro_engine" \
    --benchmark_min_time=0.2 \
    --benchmark_out="$stage/BENCH_engine.json" \
    --benchmark_out_format=json >/dev/null

# The bench binary stamps its own optimization level into the JSON context
# (the "library_build_type" field describes the system benchmark *library*,
# which is a Debug build on Debian -- it says nothing about our code). A
# baseline produced by an unoptimized bench binary would make every later
# CI comparison meaningless, so refuse to pin one.
grep -q '"afraid_bench_optimized": "true"' "$stage/BENCH_engine.json" || {
  echo "regen_goldens.sh: bench_micro_engine was built without optimization" >&2
  echo "  (missing afraid_bench_optimized=true in BENCH_engine.json context)" >&2
  exit 1
}

echo "== regenerating BENCH_rebuild.json (declustering rebuild comparison)"
# The bench itself exits nonzero unless the declustered layout beats
# left-symmetric on both window and p99 at every width, so a regression
# can never be pinned as a baseline.
AFRAID_REBUILD_JSON="$stage/BENCH_rebuild.json" \
    "$build/bench/bench_rebuild_decluster" >/dev/null

# Every step succeeded: publish atomically (same-filesystem staging is not
# guaranteed, so mv may copy -- but only after all generators have passed).
mv "$stage/trace_replay_cello-usr_2000.txt" \
   "$repo/tests/golden/trace_replay_cello-usr_2000.txt"
mv "$stage/fleet_failure_grid_8000.txt" \
   "$repo/tests/golden/fleet_failure_grid_8000.txt"
mv "$stage/availability_mc_200_3.txt" \
   "$repo/tests/golden/availability_mc_200_3.txt"
mv "$stage/failure_drill.txt" "$repo/tests/golden/failure_drill.txt"
mv "$stage/mc_availability_200.txt" "$repo/tests/golden/mc_availability_200.txt"
for b in bench_table2_performance bench_ablation_raid6 bench_related_parity_logging; do
  mv "$stage/$b.txt" "$repo/tests/golden/$b.txt"
done
mv "$stage/BENCH_engine.json" "$repo/BENCH_engine.json"
mv "$stage/BENCH_rebuild.json" "$repo/BENCH_rebuild.json"

echo "== done; review with: git diff tests/golden BENCH_engine.json BENCH_rebuild.json"
