//! Tables 3–4 OTime shape: the per-scheme overhead of all eight pruning
//! schemes on the same Block-Filtered graph.
//!
//! Expected ordering (paper §6.3–6.4): edge-centric schemes are cheaper
//! than node-centric ones (one pass vs two over the neighborhoods); the
//! redefined/reciprocal pairs cost the same as each other (they differ by
//! one operator).

use er_bench::clean_workload;
use er_bench::harness::Criterion;
use er_bench::{criterion_group, criterion_main};
use er_model::EntityId;
use mb_core::filter::block_filtering;
use mb_core::prune::TopK;
use mb_core::{MetaBlocking, PruningScheme, WeightingScheme};
use std::hint::black_box;

fn bench_pruning(c: &mut Criterion) {
    let workload = clean_workload();
    let split = workload.collection.split();
    let filtered = block_filtering(&workload.blocks, 0.8).unwrap();

    let mut group = c.benchmark_group("pruning");
    group.sample_size(10);
    for pruning in PruningScheme::ORIGINAL.into_iter().chain(PruningScheme::ENHANCED) {
        group.bench_function(pruning.name().replace(' ', "_"), |b| {
            let pipeline = MetaBlocking::new(WeightingScheme::Js, pruning);
            b.iter(|| {
                let mut count = 0u64;
                pipeline.run(&filtered, split, &mut mb_core::Noop, |_, _| count += 1).unwrap();
                black_box(count)
            })
        });
    }
    group.finish();
}

/// The selection kernel on its own, away from the scan and weighting it
/// normally follows: one sample selects over ~1.4 M edges' worth of
/// synthetic neighborhoods, so per-edge cost is the sample time over
/// `n × neighborhoods`. The three shapes are `batch-d1d`'s mean neighborhood
/// at its CNP threshold, a hub node under a large `k`, and `k ≥ n` (every
/// edge accepted — the kernel's worst case).
fn bench_select_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_top_k");
    group.sample_size(10);
    for (n, k) in [(142usize, 3usize), (5_000, 64), (64, 64)] {
        let hoods = 1_420_000 / n;
        // LCG-drawn weights on a 1/64 grid: ties are as common as under JS.
        let mut state = 20160315u64;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let ids: Vec<u32> = (1..=n as u32).collect();
        let weights: Vec<Vec<f64>> =
            (0..hoods).map(|_| (0..n).map(|_| (draw() % 64) as f64 / 64.0).collect()).collect();
        group.bench_function(format!("n{n}_k{k}_x{hoods}"), |b| {
            let mut top = TopK::new();
            b.iter(|| {
                let mut kept = 0usize;
                for w in &weights {
                    kept += top.select_ascending(EntityId(0), black_box(&ids), w, k).len();
                }
                black_box(kept)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pruning, bench_select_top_k);
criterion_main!(benches);
