//! Node-centric top-`k` selection allocates per sweep and per answer, never
//! per node: a sweep's workers and a scorer's scratch each keep one `TopK`,
//! and two-phase CNP keeps its stacks in one pool.
//!
//! The test is a binary of its own, since it installs the tracking
//! allocator, and it reads that allocator's tally of the measuring thread
//! only, so the tests may run side by side. Not built under
//! `--features sanitize`: there every selection is checked against a full
//! sort that allocates, which is the point of the check, not of the path.

#![cfg(not(feature = "sanitize"))]

use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::{presets, DatasetConfig, GeneratedDataset};
use er_model::{BlockCollection, EntityId, ErKind};
use mb_core::filter::block_filtering;
use mb_core::parallel::Sweep;
use mb_core::weights::EdgeWeigher;
use mb_core::{
    prune, GraphContext, NeighborhoodScorer, Noop, Retention, WeightingImpl, WeightingScheme,
};
use mb_observe::alloc_track::{self, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator<std::alloc::System> = TrackingAllocator::new(std::alloc::System);

/// Allocation events `run` makes, and what it returns.
fn allocations<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_track::thread_alloc_count();
    let out = run();
    (alloc_track::thread_alloc_count() - before, out)
}

/// What a whole CNP sweep may allocate at one thread, whatever `|E|`: the
/// scanner's arrays, the neighborhood buffers and the selection scratch,
/// each grown a few times to the largest neighborhood, and two-phase CNP's
/// pool and offsets. `scripts/check.sh` holds `BENCH_pipeline.json`'s
/// `prune` row to the same figure.
const SWEEP_ALLOCATIONS: u64 = 64;

/// The bench workload's d1c, scaled: `0.1` is its 6.4k-profile collection.
fn d1c(scale: f64) -> GeneratedDataset {
    let mut config: DatasetConfig = presets::d1c(13);
    config.matched_pairs = (config.matched_pairs as f64 * scale) as usize;
    config.side1.size = (config.side1.size as f64 * scale) as usize;
    config.side2.size = (config.side2.size as f64 * scale) as usize;
    config.object.vocab_size = (config.object.vocab_size as f64 * scale) as usize;
    presets::build(&config).unwrap()
}

/// Token Blocking, Block Purging and Block Filtering at `r = 0.8`.
fn filtered(dataset: GeneratedDataset) -> (BlockCollection, usize) {
    let collection = dataset.collection;
    let mut blocks = TokenBlocking.build(&collection);
    purging::purge_by_size(&mut blocks, 0.5);
    (block_filtering(&blocks, 0.8).unwrap(), collection.split())
}

type Scheme = fn(&Sweep<'_, '_>, &mut Noop, &mut dyn FnMut(EntityId, EntityId));

#[test]
fn cardinality_node_pruning_allocates_per_sweep_not_per_node() {
    let schemes: [(&str, Scheme); 3] = [
        ("CNP", |sweep, obs, sink| prune::cnp(sweep, obs, sink)),
        ("Redefined CNP", |sweep, obs, sink| prune::redefined_cnp(sweep, obs, sink)),
        ("Reciprocal CNP", |sweep, obs, sink| prune::reciprocal_cnp(sweep, obs, sink)),
    ];
    for scale in [0.025, 0.1] {
        for kind in [ErKind::CleanClean, ErKind::Dirty] {
            let dataset = d1c(scale);
            let dataset = if kind == ErKind::Dirty { dataset.into_dirty() } else { dataset };
            let (blocks, split) = filtered(dataset);
            let ctx = GraphContext::new(&blocks, split);
            let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
            let sweep = Sweep::new(&ctx, &weigher, WeightingImpl::Optimized, 1);
            let n = ctx.num_entities() as u64;
            // An allocation per node, or per tenth of the nodes, would show.
            assert!(n > 20 * SWEEP_ALLOCATIONS, "|E| {n} is too small to tell");
            for (name, scheme) in schemes {
                let mut retained = 0u64;
                let (allocs, ()) =
                    allocations(|| scheme(&sweep, &mut Noop, &mut |_, _| retained += 1));
                println!("{name}, {kind:?} |E| {n}: {retained} retained, {allocs} allocations");
                assert!(retained > 0, "{name}: nothing retained");
                assert!(
                    allocs <= SWEEP_ALLOCATIONS,
                    "{name}, {kind:?} |E| {n}: {allocs} allocations for one sweep"
                );
            }
        }
    }
}

#[test]
fn a_warm_scorers_top_k_query_allocates_only_its_answer() {
    let (blocks, split) = filtered(d1c(0.025).into_dirty());
    let n = blocks.num_entities() as u32;
    for k in [1, 5, usize::MAX] {
        let mut scorer = NeighborhoodScorer::new(&blocks, split, WeightingScheme::Js);
        // Grow every buffer to the largest neighborhood first.
        for i in 0..n {
            scorer.query(EntityId(i), Retention::TopK(k));
        }
        let mut answered = 0u32;
        for i in 0..n {
            let (allocs, scored) = allocations(|| scorer.query(EntityId(i), Retention::TopK(k)));
            let answer = u64::from(!scored.candidates.is_empty());
            assert_eq!(allocs, answer, "top-{k} query of entity {i}");
            answered += u32::from(answer == 1);
        }
        assert!(answered > n / 2, "the fixture answers too few queries to tell");
    }
}
