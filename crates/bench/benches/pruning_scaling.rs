//! The perf-trajectory bench: every pruning scheme at 1/2/4/8 worker
//! threads, plus the raw edge-weighting sweep, on two fixed synthetic
//! workloads — the sparse 6.4k-profile `d1c` slice every other bench uses
//! and a dense 20k-profile `d3c` slice — written as machine-readable JSON so
//! the scaling behavior is tracked commit over commit.
//!
//! Output: `BENCH_pruning.json` at the repository root (override with the
//! `BENCH_OUT` environment variable). One record per (workload, bench,
//! scheme, threads) cell with mean/median/min wall milliseconds and
//! `alloc_peak_bytes`, the peak live bytes one run added (tracking
//! allocator): what the sweeps hold must follow the thread count, not the
//! retained count. Edge-sweep rows also carry each worker's share of the
//! edges. The file records the machine's detected core count, and every row
//! with more threads than that is labelled `overhead`: it measures what the
//! extra workers cost, not how the sweep scales.
//!
//! Environment knobs: `BENCH_SAMPLE_SIZE` (timed samples per cell,
//! default 5), `BENCH_OUT` (output path).

use er_bench::{clean_workload, dense_workload, Workload};
use mb_core::filter::block_filtering;
use mb_core::parallel::Sweep;
use mb_core::weights::EdgeWeigher;
use mb_core::{GraphContext, MetaBlocking, PruningScheme, WeightingImpl, WeightingScheme};
use mb_observe::alloc_track::{self, TrackingAllocator};
use mb_observe::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator<std::alloc::System> = TrackingAllocator::new(std::alloc::System);

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn sample_count() -> usize {
    std::env::var("BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(5)
}

struct Measured {
    times: Vec<Duration>,
    alloc_peak_bytes: u64,
}

/// Times `routine` after one untimed warm-up call, whose peak live bytes
/// over what was live before it are the cell's `alloc_peak_bytes`.
fn measure(samples: usize, mut routine: impl FnMut()) -> Measured {
    let before = alloc_track::current_bytes();
    alloc_track::rebase_peak();
    routine();
    let alloc_peak_bytes = alloc_track::peak_bytes().saturating_sub(before);
    let times = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed()
        })
        .collect();
    Measured { times, alloc_peak_bytes }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One result record: mean/median/min over the samples, in milliseconds.
fn record(
    workload: &str,
    bench: &str,
    scheme: &str,
    threads: usize,
    cores: usize,
    m: &Measured,
) -> Json {
    let mut sorted = m.times.clone();
    sorted.sort_unstable();
    let total: Duration = sorted.iter().sum();
    let label = if threads > cores { "overhead" } else { "scaling" };
    println!(
        "{workload} {bench} {scheme} x{threads} ({label}): min {:?}, peak {} B",
        sorted[0], m.alloc_peak_bytes
    );
    let mut obj = Json::obj();
    obj.push("workload", Json::Str(workload.into()));
    obj.push("bench", Json::Str(bench.into()));
    obj.push("scheme", Json::Str(scheme.into()));
    obj.push("threads", Json::Uint(threads as u64));
    obj.push("label", Json::Str(label.into()));
    obj.push("mean_ms", Json::Num(ms(total / sorted.len() as u32)));
    obj.push("median_ms", Json::Num(ms(sorted[sorted.len() / 2])));
    obj.push("min_ms", Json::Num(ms(sorted[0])));
    obj.push("samples", Json::Uint(sorted.len() as u64));
    obj.push("alloc_peak_bytes", Json::Uint(m.alloc_peak_bytes));
    obj
}

/// Every cell of one workload; returns its description for the header.
fn run_workload(
    name: &str,
    workload: &Workload,
    samples: usize,
    cores: usize,
    rows: &mut Vec<Json>,
) -> Json {
    let split = workload.collection.split();
    let filtered = block_filtering(&workload.blocks, 0.8)
        .unwrap_or_else(|e| panic!("block filtering failed: {e}"));

    // The raw edge-weighting sweep (graph construction excluded).
    let ctx = GraphContext::new(&filtered, split);
    let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
    let mut edges = 0;
    for threads in THREADS {
        let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, threads);
        let m = measure(samples, || {
            black_box(sweep.weight_sum());
        });
        let mut row = record(name, "edge_weighting", "JS", threads, cores, &m);
        // Who swept what: load follows the work when the shares are even.
        // The visitor sees each pivot's edges once and keeps none of them.
        let swept = sweep.edges(|_out, _top, _pivot, _neighbors, _weights| {}, |()| {});
        edges = swept.edges();
        let shares = swept.worker_edges.iter().map(|&e| Json::Num(e as f64 / edges.max(1) as f64));
        row.push("worker_edge_shares", Json::Arr(shares.collect()));
        rows.push(row);
    }

    // Every pruning scheme, end to end through the pipeline.
    for pruning in PruningScheme::ALL {
        for threads in THREADS {
            let pipeline = MetaBlocking::new(WeightingScheme::Js, pruning).with_threads(threads);
            let m = measure(samples, || {
                let mut count = 0u64;
                pipeline
                    .run(&filtered, split, &mut mb_core::Noop, |_, _| count += 1)
                    .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
                black_box(count);
            });
            rows.push(record(name, "pruning", pruning.name(), threads, cores, &m));
        }
    }

    let mut described = Json::obj();
    described.push("name", Json::Str(name.into()));
    described.push("entities", Json::Uint(workload.collection.len() as u64));
    described.push("edges", Json::Uint(edges));
    described
}

fn main() {
    let samples = sample_count();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("pruning-scaling: {cores} detected cores, {samples} samples per cell");

    let mut rows: Vec<Json> = Vec::new();
    let sparse = clean_workload();
    let dense = dense_workload();
    let workloads = vec![
        run_workload("d1c-0.1 clean-clean", &sparse, samples, cores, &mut rows),
        run_workload("d3c-0.006 dirty", &dense, samples, cores, &mut rows),
    ];

    let mut doc = Json::obj();
    doc.push("bench", Json::Str("pruning_scaling".into()));
    doc.push(
        "workload",
        Json::Str("d1c-0.1 clean-clean and d3c-0.006 dirty, block-filtered 0.8".into()),
    );
    doc.push("entities", Json::Uint((sparse.collection.len() + dense.collection.len()) as u64));
    doc.push("workloads", Json::Arr(workloads));
    doc.push("detected_cores", Json::Uint(cores as u64));
    doc.push("samples_per_cell", Json::Uint(samples as u64));
    doc.push("results", Json::Arr(rows));

    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pruning.json").to_string()
    });
    std::fs::write(&path, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}
