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
use std::time::{Duration, Instant};

/// The threshold-selection kernel, compiled from its own source: it is
/// private to mb-core and depends on nothing else there.
#[allow(dead_code)]
#[path = "../../core/src/prune/select.rs"]
mod select;

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

/// The threshold-selection kernel on its own: 256 slices of 4 096 weighed
/// edges, uniform weights, a threshold that keeps 5 %, 50 % or 95 % of them.
/// Each row is timed as the kernel (`select`) and as the per-edge `filter`
/// it replaced, and prints its best sample as ns per edge. The kernel's cost
/// should not depend on the keep ratio; the filter's peaks at 50 %, where
/// its branch is a coin toss.
fn bench_select_reaching(c: &mut Criterion) {
    const SLICE: usize = 4_096;
    const SLICES: usize = 256;
    let mut state = 20160315u64;
    let mut draw = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let ids: Vec<u32> = (0..SLICE as u32).collect();
    let weights: Vec<Vec<f64>> =
        (0..SLICES).map(|_| (0..SLICE).map(|_| draw()).collect()).collect();
    let edges = (SLICE * SLICES) as f64;

    let mut group = c.benchmark_group("select_reaching");
    group.sample_size(10);
    for percent in [5u32, 50, 95] {
        let threshold = 1.0 - f64::from(percent) / 100.0;
        for kernel in [true, false] {
            let name = format!("keep{percent}_{}", if kernel { "select" } else { "filter" });
            let mut best = Duration::MAX;
            group.bench_function(&name, |b| {
                b.iter(|| {
                    let start = Instant::now();
                    let mut acc = 0u64;
                    for w in &weights {
                        if kernel {
                            select::reaching(black_box(&ids), w, threshold, |kept, _| {
                                kept.iter().for_each(|&j| acc = acc.wrapping_add(u64::from(j)))
                            });
                        } else {
                            let kept = black_box(&ids).iter().zip(w);
                            kept.filter(|&(_, &w)| select::reaches(w, threshold))
                                .for_each(|(&j, _)| acc = acc.wrapping_add(u64::from(j)));
                        }
                    }
                    best = best.min(start.elapsed());
                    black_box(acc)
                })
            });
            println!("select_reaching/{name}: {:.2} ns/edge", best.as_secs_f64() * 1e9 / edges);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pruning, bench_select_top_k, bench_select_reaching);
criterion_main!(benches);
