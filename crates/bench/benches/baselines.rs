//! Table 6 OTime shape: the baselines against the graph-based schemes.
//!
//! Graph-free Meta-blocking must be the cheapest by far (no weights, no
//! graph); Iterative Blocking sits between it and the graph-based schemes
//! on small data but scales worse (it re-walks every block comparison).

use er_baselines::IterativeBlocking;
use er_bench::clean_workload;
use er_bench::harness::Criterion;
use er_bench::{criterion_group, criterion_main};
use er_model::matching::OracleMatcher;
use mb_core::graphfree::graph_free_meta_blocking;
use mb_core::propagation::{comparison_propagation, comparison_propagation_lecobi};
use mb_core::{GraphContext, MetaBlocking, Noop, PruningScheme, WeightingScheme};
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let workload = clean_workload();
    let split = workload.collection.split();

    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);

    group.bench_function("graph_free/r=0.25", |b| {
        b.iter(|| {
            let mut n = 0u64;
            graph_free_meta_blocking(&workload.blocks, split, 0.25, 1, &mut Noop, |_, _| n += 1)
                .unwrap();
            black_box(n)
        })
    });
    group.bench_function("graph_free/r=0.55", |b| {
        b.iter(|| {
            let mut n = 0u64;
            graph_free_meta_blocking(&workload.blocks, split, 0.55, 1, &mut Noop, |_, _| n += 1)
                .unwrap();
            black_box(n)
        })
    });

    group.bench_function("iterative_blocking/oracle", |b| {
        let oracle = OracleMatcher::new(&workload.ground_truth);
        let config = IterativeBlocking { order_by_cardinality: true, stop_after_match: true };
        b.iter(|| black_box(config.run(&workload.blocks, &oracle).executed_comparisons))
    });

    group.bench_function("reciprocal_wnp/full_pipeline", |b| {
        let pipeline = MetaBlocking::new(WeightingScheme::Js, PruningScheme::ReciprocalWnp)
            .with_block_filtering(0.8);
        b.iter(|| {
            let mut n = 0u64;
            pipeline.run(&workload.blocks, split, &mut mb_core::Noop, |_, _| n += 1).unwrap();
            black_box(n)
        })
    });

    // Comparison Propagation: the ScanCount sweep vs the literal
    // per-comparison LeCoBI formulation.
    let ctx = GraphContext::new(&workload.blocks, split);
    group.bench_function("comparison_propagation/scan", |b| {
        b.iter(|| {
            let mut n = 0u64;
            comparison_propagation(&ctx, 1, |_, _| n += 1);
            black_box(n)
        })
    });
    group.bench_function("comparison_propagation/lecobi", |b| {
        b.iter(|| {
            let mut n = 0u64;
            comparison_propagation_lecobi(&ctx, |_, _| n += 1);
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
