//! End-to-end pipeline bench with allocation accounting: build → purge →
//! filter → weight → prune, each stage timed *and* allocation-counted via
//! the counting global allocator ([`mb_observe::alloc_track`]).
//!
//! Output: `BENCH_pipeline.json` at the repository root (override with
//! `BENCH_OUT`). One record per stage with mean/median/min wall-ms and the
//! allocation count of a single invocation, plus a summary with the
//! build+weight allocation count — what the CSR arena + interned postings
//! layout is held to.
//!
//! Environment knobs: `BENCH_SAMPLE_SIZE` (timed samples per stage,
//! default 5), `BENCH_OUT` (output path).

use er_bench::clean_workload;
use er_blocking::{BlockingMethod, TokenBlocking};
use er_model::BlockCollection;
use mb_core::filter::block_filtering;
use mb_core::weights::EdgeWeigher;
use mb_core::{GraphContext, MetaBlocking, PruningScheme, WeightingScheme};
use mb_observe::alloc_track::{alloc_count, TrackingAllocator};
use mb_observe::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: TrackingAllocator<std::alloc::System> = TrackingAllocator::new(std::alloc::System);

struct Measured {
    times: Vec<Duration>,
    allocs: u64,
}

/// Times `routine` on fresh input from `setup` (`setup` is untimed) and
/// counts the allocations of one invocation.
fn measure<I, R>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> R,
) -> Measured {
    let input = setup();
    let before = alloc_count();
    black_box(routine(input));
    let allocs = alloc_count() - before;
    let times = (0..samples)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            start.elapsed()
        })
        .collect();
    Measured { times, allocs }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn record(stage: &str, m: &Measured) -> Json {
    let mut sorted = m.times.clone();
    sorted.sort_unstable();
    let total: Duration = sorted.iter().sum();
    let mut obj = Json::obj();
    obj.push("stage", Json::Str(stage.into()));
    obj.push("mean_ms", Json::Num(ms(total / sorted.len() as u32)));
    obj.push("median_ms", Json::Num(ms(sorted[sorted.len() / 2])));
    obj.push("min_ms", Json::Num(ms(sorted[0])));
    obj.push("samples", Json::Uint(sorted.len() as u64));
    obj.push("allocs", Json::Uint(m.allocs));
    println!(
        "{stage:>8}: mean {:>10.3} ms  min {:>10.3} ms  allocs {:>9}",
        ms(total / sorted.len() as u32),
        ms(sorted[0]),
        m.allocs
    );
    obj
}

fn sample_count() -> usize {
    std::env::var("BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(5)
}

fn main() {
    let samples = sample_count();
    let workload = clean_workload();
    let collection = &workload.collection;
    let split = collection.split();
    let n = collection.len();
    println!("pipeline-e2e: {n} entities, {samples} samples per stage");

    let mut rows: Vec<Json> = Vec::new();
    let mut build_weight_allocs = 0u64;

    // --- build -------------------------------------------------------------
    let m = measure(samples, || (), |()| TokenBlocking.build(collection));
    build_weight_allocs += m.allocs;
    rows.push(record("build", &m));
    let built = TokenBlocking.build(collection);

    // --- purge -------------------------------------------------------------
    let m = measure(
        samples,
        || built.clone(),
        |mut b: BlockCollection| {
            er_blocking::purging::purge_by_size(&mut b, 0.5);
            b
        },
    );
    rows.push(record("purge", &m));
    let mut purged = built.clone();
    er_blocking::purging::purge_by_size(&mut purged, 0.5);

    // --- filter ------------------------------------------------------------
    let m = measure(
        samples,
        || (),
        |()| block_filtering(&purged, 0.8).unwrap_or_else(|e| panic!("filtering: {e}")),
    );
    rows.push(record("filter", &m));
    let filtered = block_filtering(&purged, 0.8).unwrap_or_else(|e| panic!("filtering: {e}"));

    // --- weight (full ARCS sweep incl. graph-context construction) ---------
    let m = measure(
        samples,
        || (),
        |()| {
            let ctx = GraphContext::new(&filtered, split);
            let weigher = EdgeWeigher::new(WeightingScheme::Arcs, &ctx);
            mb_core::parallel::mean_edge_weight(&ctx, &weigher, 1)
        },
    );
    build_weight_allocs += m.allocs;
    rows.push(record("weight", &m));

    // --- prune --------------------------------------------------------------
    let pipeline = MetaBlocking::new(WeightingScheme::Js, PruningScheme::Cnp).with_threads(1);
    let m = measure(
        samples,
        || (),
        |()| {
            let mut count = 0u64;
            pipeline
                .run(&filtered, split, &mut mb_core::Noop, |_, _| count += 1)
                .unwrap_or_else(|e| panic!("pipeline: {e}"));
            count
        },
    );
    rows.push(record("prune", &m));

    println!("\nbuild+weight allocations: {build_weight_allocs}");
    let mut summary = Json::obj();
    summary.push("build_weight_allocs", Json::Uint(build_weight_allocs));

    let mut doc = Json::obj();
    doc.push("bench", Json::Str("pipeline_e2e".into()));
    doc.push("workload", Json::Str("d1c-0.1 clean-clean".into()));
    doc.push("entities", Json::Uint(n as u64));
    doc.push("samples_per_stage", Json::Uint(samples as u64));
    doc.push("results", Json::Arr(rows));
    doc.push("summary", summary);

    let path = std::env::var("BENCH_OUT").ok().filter(|p| !p.is_empty()).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json").to_string()
    });
    std::fs::write(&path, doc.render_pretty()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}
