#!/usr/bin/env bash
# The perf-trajectory harness: runs the pruning-scaling bench (every pruning
# scheme x 1/2/4/8 threads, plus the raw edge-weighting sweep, on the sparse
# 6.4k workload and a dense d3c slice, with peak live bytes per cell) and the
# classic pruning + edge-weighting benches on the fixed synthetic workload.
#
# Also runs the end-to-end pipeline bench (build -> purge -> filter ->
# weight -> prune over the CSR arena, wall-ms + allocation counts) and
# validates the shape of the BENCH_pipeline.json it writes, plus the
# serving-layer query-latency bench (snapshot load ms, single-query
# percentiles, batch throughput at 1/2/4/8 threads) which writes and
# validates BENCH_query.json the same way, and the incremental-delta bench
# (live upsert apply/query-after µs percentiles vs the full rebuild path,
# pinned compaction) which writes and validates BENCH_delta.json — including the ≤1 ms applied-and-queryable
# and ≥1000× apply-vs-rebuild-path acceptance bars, and the growth bar: on
# one cell, apply and drop at 16 384 accumulated ops within 3× of 64.
#
# Writes BENCH_pruning.json at the repository root — workload x scheme x
# threads records of wall-ms and alloc_peak_bytes plus the machine's detected
# core count — and validates it: thread counts ascending, peaks within 2 x N
# of the one-thread cell, rows past the detected cores labelled `overhead`.
# Speedups are bounded by the cores the machine actually has.
#
# Environment knobs:
#   BENCH_SAMPLE_SIZE  timed samples per cell (default 5; use 2 for a quick
#                      run, more for stable numbers)
#   BENCH_OUT          output path for the pruning JSON (default
#                      BENCH_pruning.json at the repo root; the pipeline
#                      bench always writes BENCH_pipeline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> end-to-end pipeline bench (writes BENCH_pipeline.json)"
BENCH_OUT="" cargo bench -p er-bench --bench pipeline_e2e
cargo run -q -p er-bench --bin validate_bench_json -- BENCH_pipeline.json

echo "==> query-latency bench (writes BENCH_query.json)"
BENCH_OUT="" cargo bench -p er-bench --bench query_latency
cargo run -q -p er-bench --bin validate_bench_json -- BENCH_query.json

echo "==> incremental-delta bench (writes BENCH_delta.json)"
BENCH_OUT="" cargo bench -p er-bench --bench delta_latency
cargo run -q -p er-bench --bin validate_bench_json -- BENCH_delta.json

echo "==> pruning-scaling bench (writes ${BENCH_OUT:-BENCH_pruning.json})"
cargo bench -p er-bench --bench pruning_scaling
cargo run -q -p er-bench --bin validate_bench_json -- "${BENCH_OUT:-BENCH_pruning.json}"

echo "==> pruning bench"
cargo bench -p er-bench --bench pruning

echo "==> edge-weighting bench"
cargo bench -p er-bench --bench edge_weighting

echo "Bench run complete."
