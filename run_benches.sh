#!/bin/sh
# Runs every bench binary in sequence (the cached world must exist or the
# first binary will build it). The glob picks up all of build/bench/bench_*,
# including bench_exec_batch (production executor vs the row-at-a-time
# oracle: T_E, peak intermediate bytes, bit-identity),
# bench_parallel_scaling (training matmul speedup at pool caps 1/2/4/8,
# identical results),
# bench_planner_dp (DP search us per plan vs the reference DP, bit-identity),
# bench_workload_label (validated generation ms per query vs the reference
# validator, identical queries, decisions and labels), bench_train_level
# (ms per epoch of the level-batched trainers vs the taped oracle, identical
# parameter bits),
# bench_plancache, and bench_serving.
# Usage: ./run_benches.sh [output-file]
out="${1:-bench_output.txt}"
: > "$out"
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "==== $b ====" | tee -a "$out"
  "$b" 2>/dev/null | tee -a "$out"
done
