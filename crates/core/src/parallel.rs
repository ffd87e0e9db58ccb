//! Multi-threaded graph sweeps.
//!
//! The paper's algorithms are single-threaded; its related work scales
//! meta-blocking out with MapReduce (Papadakis et al., WSDM'12). This
//! module provides the shared-memory equivalent: the node range is
//! partitioned into contiguous chunks, each thread sweeps its chunk with a
//! private [`NeighborhoodScanner`], and per-chunk results are combined in
//! chunk order — so every parallel result is bit-identical to the
//! sequential one, regardless of thread count or scheduling.

use crate::context::GraphContext;
use crate::pipeline::PruningScheme;
use crate::prune::{Combine, WeightedEdge};
use crate::scanner::{Accumulate, NeighborhoodScanner, ScanScope};
use crate::weights::EdgeWeigher;
use er_model::EntityId;
use mb_observe::{Counter, Observer, Stage, StageScope};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimum nodes per chunk: below this, a thread's scanner setup outweighs
/// its sweep, so tiny inputs must not fan out across the whole thread pool
/// (a 2-entity collection on a 16-thread config would otherwise spawn 16
/// scanners for one edge).
const MIN_CHUNK: u32 = 256;

/// Splits `0..n` into at most `threads` contiguous chunks of near-equal
/// size, never smaller than [`MIN_CHUNK`] (except the only chunk of a
/// small input). Thin `u32` adapter over the one shared
/// [`er_model::chunk_ranges`] implementation (DESIGN.md §8: all parallel
/// stages must chunk identically).
fn chunks(n: u32, threads: usize) -> Vec<std::ops::Range<u32>> {
    er_model::chunk_ranges(n as usize, threads, MIN_CHUNK as usize)
        .into_iter()
        .map(|r| r.start as u32..r.end as u32)
        .collect()
}

/// Folds every distinct weighted edge into per-chunk accumulators, in
/// parallel. Returns the accumulators in chunk order (ascending node
/// ranges), so any order-insensitive merge — or an order-sensitive
/// concatenation — is deterministic.
pub fn fold_edges<T, I, F>(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    init: I,
    fold: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, EntityId, EntityId, f64) + Sync,
{
    let n = ctx.num_entities() as u32;
    let ranges = chunks(n, threads);
    let accumulate = weigher.scheme().accumulate();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let init = &init;
                let fold = &fold;
                scope.spawn(move || {
                    let mut acc = init();
                    let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
                    for raw in range {
                        let pivot = EntityId(raw);
                        if !ctx.is_first(pivot) {
                            continue;
                        }
                        let hood = scanner.scan(ctx, pivot, accumulate, ScanScope::GreaterOnly);
                        for &j in hood.ids {
                            let other = EntityId(j);
                            fold(
                                &mut acc,
                                pivot,
                                other,
                                weigher.weight(pivot, other, hood.score_of(j)),
                            );
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Collects the edges satisfying `predicate`, in the sequential sweep's
/// order, using `threads` workers.
pub fn collect_edges_where<P>(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    predicate: P,
) -> Vec<(EntityId, EntityId)>
where
    P: Fn(EntityId, EntityId, f64) -> bool + Sync,
{
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        Vec::new,
        |acc: &mut Vec<(EntityId, EntityId)>, a, b, w| {
            if predicate(a, b, w) {
                acc.push((a, b));
            }
        },
    );
    parts.concat()
}

/// Comparison Propagation's distinct-comparison sweep on `threads` workers:
/// the same chunked node partition as the weighted sweeps, applied to the
/// weight-free ScanCount deduplication of
/// [`crate::propagation::comparison_propagation`]. Chunk-ordered
/// concatenation reproduces the sequential pivot-ascending emission order
/// exactly.
pub fn comparison_propagation(ctx: &GraphContext<'_>, threads: usize) -> Vec<(EntityId, EntityId)> {
    let n = ctx.num_entities() as u32;
    let ranges = chunks(n, threads);
    let parts: Vec<Vec<(EntityId, EntityId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                scope.spawn(move || {
                    let mut acc = Vec::new();
                    let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
                    for raw in range {
                        let pivot = EntityId(raw);
                        if !ctx.is_first(pivot) {
                            continue;
                        }
                        let hood = scanner.scan(
                            ctx,
                            pivot,
                            Accumulate::CommonBlocks,
                            ScanScope::GreaterOnly,
                        );
                        for &j in hood.ids {
                            acc.push((pivot, EntityId(j)));
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    parts.concat()
}

/// The global mean edge weight, computed with `threads` workers — the WEP
/// threshold.
pub fn mean_edge_weight(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
) -> Option<f64> {
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (0.0f64, 0u64),
        |acc, _a, _b, w| {
            acc.0 += w;
            acc.1 += 1;
        },
    );
    let (sum, count) = parts.into_iter().fold((0.0, 0), |(s, c), (ps, pc)| (s + ps, c + pc));
    (count > 0).then(|| sum / count as f64)
}

/// Parallel Weighted Edge Pruning: identical output to
/// [`crate::prune::wep`], `threads`-way parallel sweeps for both the mean
/// and the emission pass.
pub fn wep(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
) -> Vec<(EntityId, EntityId)> {
    match mean_edge_weight(ctx, weigher, threads) {
        None => Vec::new(),
        Some(mean) => {
            collect_edges_where(ctx, weigher, threads, |_a, _b, w| crate::prune::reaches(w, mean))
        }
    }
}

/// Parallel WEP with per-stage telemetry, used by
/// [`crate::MetaBlocking::run`] when the config asks for threads.
///
/// Counter totals are identical to the sequential [`crate::prune::wep`] for
/// any thread count: `edges_weighed` is the edge count in both the
/// [`Stage::EdgeWeighting`] (mean) and [`Stage::Pruning`] (emission)
/// records, and `retained_comparisons` matches the sink invocations —
/// chunk-ordered combination makes the output bit-identical to sequential.
pub fn wep_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (0.0f64, 0u64),
        |acc, _a, _b, w| {
            acc.0 += w;
            acc.1 += 1;
        },
    );
    let (sum, count) = parts.into_iter().fold((0.0, 0), |(s, c), (ps, pc)| (s + ps, c + pc));
    scope.add(Counter::EdgesWeighed, count);
    scope.finish();
    if count == 0 {
        return;
    }
    let mean = sum / count as f64;
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64),
        |acc: &mut (Vec<(EntityId, EntityId)>, u64), a, b, w| {
            acc.1 += 1;
            if crate::prune::reaches(w, mean) {
                acc.0.push((a, b));
            }
        },
    );
    let (mut edges, mut retained) = (0u64, 0u64);
    for (kept, swept) in parts {
        edges += swept;
        retained += kept.len() as u64;
        for (a, b) in kept {
            sink(a, b);
        }
    }
    scope.add(Counter::EdgesWeighed, edges);
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Folds every non-empty node neighborhood into per-chunk accumulators, in
/// parallel — the node-centric analogue of [`fold_edges`], mirroring
/// [`crate::weighting::optimized::for_each_neighborhood`]: every pivot is
/// scanned with [`ScanScope::All`], empty neighborhoods are skipped, and the
/// `(ids, weights)` buffers are reused across a chunk's pivots.
///
/// Accumulators come back in chunk order (ascending node ranges), so a
/// chunk-ordered concatenation reproduces the sequential pivot-ascending
/// visit order exactly.
pub fn fold_neighborhoods<T, I, F>(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    init: I,
    fold: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, EntityId, &[u32], &[f64]) + Sync,
{
    let n = ctx.num_entities() as u32;
    let ranges = chunks(n, threads);
    let accumulate = weigher.scheme().accumulate();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let init = &init;
                let fold = &fold;
                scope.spawn(move || {
                    let mut acc = init();
                    let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
                    let mut ids: Vec<u32> = Vec::new();
                    let mut weights: Vec<f64> = Vec::new();
                    for raw in range {
                        let pivot = EntityId(raw);
                        let hood = scanner.scan(ctx, pivot, accumulate, ScanScope::All);
                        if hood.ids.is_empty() {
                            continue;
                        }
                        ids.clear();
                        weights.clear();
                        ids.extend_from_slice(hood.ids);
                        for &j in &ids {
                            weights.push(weigher.weight(pivot, EntityId(j), hood.score_of(j)));
                        }
                        fold(&mut acc, pivot, &ids, &weights);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Parallel CEP with per-stage telemetry: each chunk keeps its own bounded
/// top-`K` min-heap; the per-chunk candidates are merged by sorting under
/// the `WeightedEdge` total order and truncating to `K` — the global
/// top-`K` is unique under that (strict) order, so the output is
/// bit-identical to [`crate::prune::cep`] for any thread count, including
/// the descending emission order.
pub fn cep_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = crate::prune::cep_threshold(ctx);
    if k == 0 {
        return;
    }
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let prealloc = crate::prune::heap_prealloc(k);
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (BinaryHeap::with_capacity(prealloc), 0u64),
        |acc: &mut (BinaryHeap<Reverse<WeightedEdge>>, u64), a, b, w| {
            acc.1 += 1;
            crate::prune::push_top_k(&mut acc.0, WeightedEdge { w, a: a.0, b: b.0 }, k);
        },
    );
    let mut edges = 0u64;
    let mut retained: Vec<WeightedEdge> = Vec::new();
    for (heap, swept) in parts {
        edges += swept;
        retained.extend(heap.into_iter().map(|Reverse(e)| e));
    }
    scope.add(Counter::EdgesWeighed, edges);
    scope.finish();
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    retained.sort_unstable_by(|x, y| y.cmp(x));
    retained.truncate(k);
    #[cfg(feature = "sanitize")]
    assert!(
        retained.windows(2).all(|w| w[0] >= w[1]),
        "mb-sanitize: parallel CEP emission order is not descending by weight"
    );
    scope.add(Counter::RetainedComparisons, retained.len() as u64);
    for e in retained {
        sink(EntityId(e.a), EntityId(e.b));
    }
    scope.finish();
}

/// Parallel CNP (original directed semantics) with per-stage telemetry:
/// every chunk selects its pivots' top-`k` neighbors independently — the
/// selection depends only on the pivot's own neighborhood — and the
/// chunk-ordered concatenation reproduces [`crate::prune::cnp`] bit for bit.
pub fn cnp_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = crate::prune::cnp_threshold(ctx);
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let parts = fold_neighborhoods(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64, 0u64),
        |acc: &mut (Vec<(EntityId, EntityId)>, u64, u64), pivot, ids, weights| {
            acc.1 += 1;
            acc.2 += ids.len() as u64;
            for j in crate::prune::top_k_neighbors(pivot, ids, weights, k) {
                acc.0.push((pivot, EntityId(j)));
            }
        },
    );
    let (mut hoods, mut edges, mut retained) = (0u64, 0u64, 0u64);
    for (kept, h, e) in parts {
        hoods += h;
        edges += e;
        retained += kept.len() as u64;
        for (a, b) in kept {
            sink(a, b);
        }
    }
    scope.add(Counter::NeighborhoodsScanned, hoods);
    scope.add(Counter::EdgesWeighed, edges);
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Parallel WNP (original directed semantics) with per-stage telemetry:
/// the per-neighborhood mean threshold is local to each pivot, so chunks
/// are independent and the concatenation matches [`crate::prune::wnp`].
pub fn wnp_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let parts = fold_neighborhoods(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64, 0u64),
        |acc: &mut (Vec<(EntityId, EntityId)>, u64, u64), pivot, ids, weights| {
            acc.1 += 1;
            acc.2 += ids.len() as u64;
            let mean = crate::prune::neighborhood_mean(weights);
            for (&j, &w) in ids.iter().zip(weights) {
                if crate::prune::reaches(w, mean) {
                    acc.0.push((pivot, EntityId(j)));
                }
            }
        },
    );
    let (mut hoods, mut edges, mut retained) = (0u64, 0u64, 0u64);
    for (kept, h, e) in parts {
        hoods += h;
        edges += e;
        retained += kept.len() as u64;
        for (a, b) in kept {
            sink(a, b);
        }
    }
    scope.add(Counter::NeighborhoodsScanned, hoods);
    scope.add(Counter::EdgesWeighed, edges);
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Parallel two-phase CNP (Redefined with [`Combine::Either`], Reciprocal
/// with [`Combine::Both`]): phase 1 builds every node's sorted top-`k`
/// stack with a parallel neighborhood sweep; phase 2 intersects the stacks
/// with a parallel edge sweep. Both phases are chunk-deterministic, so the
/// result matches [`crate::prune::redefined_cnp`] /
/// [`crate::prune::reciprocal_cnp`] bit for bit.
pub(crate) fn two_phase_cnp_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    combine: Combine,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let k = crate::prune::cnp_threshold(ctx);
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let parts = fold_neighborhoods(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64, 0u64),
        |acc: &mut (Vec<(u32, Vec<u32>)>, u64, u64), pivot, ids, weights| {
            acc.1 += 1;
            acc.2 += ids.len() as u64;
            acc.0.push((pivot.0, crate::prune::top_k_neighbors(pivot, ids, weights, k)));
        },
    );
    let mut stacks: Vec<Vec<u32>> = vec![Vec::new(); ctx.num_entities()];
    let (mut hoods, mut directed_edges) = (0u64, 0u64);
    for (chunk, h, e) in parts {
        hoods += h;
        directed_edges += e;
        for (pivot, stack) in chunk {
            stacks[pivot as usize] = stack;
        }
    }
    scope.add(Counter::NeighborhoodsScanned, hoods);
    scope.add(Counter::EdgesWeighed, directed_edges);
    scope.finish();
    #[cfg(feature = "sanitize")]
    for (i, s) in stacks.iter().enumerate() {
        assert!(
            s.len() <= k,
            "mb-sanitize: top-k stack of entity {i} holds {} neighbors, k = {k}",
            s.len()
        );
        assert!(
            s.windows(2).all(|w| w[0] < w[1]),
            "mb-sanitize: top-k stack of entity {i} is not strictly ascending"
        );
    }
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let stacks = &stacks;
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64),
        |acc: &mut (Vec<(EntityId, EntityId)>, u64), a, b, _w| {
            acc.1 += 1;
            let in_a = stacks[a.idx()].binary_search(&b.0).is_ok();
            let in_b = stacks[b.idx()].binary_search(&a.0).is_ok();
            let retain = match combine {
                Combine::Either => in_a || in_b,
                Combine::Both => in_a && in_b,
            };
            if retain {
                acc.0.push((a, b));
            }
        },
    );
    let (mut edges, mut retained) = (0u64, 0u64);
    for (kept, swept) in parts {
        edges += swept;
        retained += kept.len() as u64;
        for (a, b) in kept {
            sink(a, b);
        }
    }
    scope.add(Counter::EdgesWeighed, edges);
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Parallel two-phase WNP (Redefined with [`Combine::Either`], Reciprocal
/// with [`Combine::Both`]): phase 1 computes every node's local mean
/// threshold in parallel; phase 2 applies the thresholds with a parallel
/// edge sweep. Matches [`crate::prune::redefined_wnp`] /
/// [`crate::prune::reciprocal_wnp`] bit for bit.
pub(crate) fn two_phase_wnp_observed(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    combine: Combine,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    let mut scope = StageScope::enter(obs, Stage::EdgeWeighting);
    let parts = fold_neighborhoods(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64, 0u64),
        |acc: &mut (Vec<(u32, f64)>, u64, u64), pivot, ids, weights| {
            acc.1 += 1;
            acc.2 += ids.len() as u64;
            acc.0.push((pivot.0, crate::prune::neighborhood_mean(weights)));
        },
    );
    // Nodes with no neighborhood keep +∞ — they have no edge to retain.
    let mut thresholds = vec![f64::INFINITY; ctx.num_entities()];
    let (mut hoods, mut directed_edges) = (0u64, 0u64);
    for (chunk, h, e) in parts {
        hoods += h;
        directed_edges += e;
        for (pivot, mean) in chunk {
            thresholds[pivot as usize] = mean;
        }
    }
    scope.add(Counter::NeighborhoodsScanned, hoods);
    scope.add(Counter::EdgesWeighed, directed_edges);
    scope.finish();
    #[cfg(feature = "sanitize")]
    for (i, &t) in thresholds.iter().enumerate() {
        assert!(!t.is_nan(), "mb-sanitize: WNP threshold of entity {i} is NaN");
    }
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let thresholds = &thresholds;
    let parts = fold_edges(
        ctx,
        weigher,
        threads,
        || (Vec::new(), 0u64),
        |acc: &mut (Vec<(EntityId, EntityId)>, u64), a, b, w| {
            acc.1 += 1;
            let over_a = crate::prune::reaches(w, thresholds[a.idx()]);
            let over_b = crate::prune::reaches(w, thresholds[b.idx()]);
            let retain = match combine {
                Combine::Either => over_a || over_b,
                Combine::Both => over_a && over_b,
            };
            if retain {
                acc.0.push((a, b));
            }
        },
    );
    let (mut edges, mut retained) = (0u64, 0u64);
    for (kept, swept) in parts {
        edges += swept;
        retained += kept.len() as u64;
        for (a, b) in kept {
            sink(a, b);
        }
    }
    scope.add(Counter::EdgesWeighed, edges);
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
}

/// Dispatches any pruning scheme to its parallel observed implementation —
/// the multi-threaded counterpart of the `match` in
/// [`crate::MetaBlocking::run`]. Output and counter totals are identical to
/// the sequential pruner for any thread count.
pub fn run_pruning_observed(
    scheme: PruningScheme,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    threads: usize,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) {
    match scheme {
        PruningScheme::Cep => cep_observed(ctx, weigher, threads, obs, sink),
        PruningScheme::Cnp => cnp_observed(ctx, weigher, threads, obs, sink),
        PruningScheme::Wep => wep_observed(ctx, weigher, threads, obs, sink),
        PruningScheme::Wnp => wnp_observed(ctx, weigher, threads, obs, sink),
        PruningScheme::RedefinedCnp => {
            two_phase_cnp_observed(ctx, weigher, threads, Combine::Either, obs, sink)
        }
        PruningScheme::ReciprocalCnp => {
            two_phase_cnp_observed(ctx, weigher, threads, Combine::Both, obs, sink)
        }
        PruningScheme::RedefinedWnp => {
            two_phase_wnp_observed(ctx, weigher, threads, Combine::Either, obs, sink)
        }
        PruningScheme::ReciprocalWnp => {
            two_phase_wnp_observed(ctx, weigher, threads, Combine::Both, obs, sink)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighting::optimized;
    use crate::weights::WeightingScheme;
    use er_model::{Block, BlockCollection, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            12,
            vec![
                Block::dirty(ids(&[0, 1, 2, 3])),
                Block::dirty(ids(&[2, 3, 4, 5])),
                Block::dirty(ids(&[5, 6, 7])),
                Block::dirty(ids(&[0, 7, 8, 9])),
                Block::dirty(ids(&[9, 10, 11])),
                Block::dirty(ids(&[1, 4, 10])),
            ],
        )
    }

    /// Enough entities to exceed the [`MIN_CHUNK`] floor several times over,
    /// so multi-chunk execution is actually exercised.
    fn large_fixture() -> BlockCollection {
        let n = MIN_CHUNK * 4 + 37;
        let mut blocks = Vec::new();
        for i in (0..n - 4).step_by(3) {
            blocks.push(Block::dirty(ids(&[i, i + 1, i + 2, i + 4])));
        }
        // A few long-range blocks so chunks see non-local neighbors.
        blocks.push(Block::dirty(ids(&[0, n / 2, n - 1])));
        blocks.push(Block::dirty(ids(&[3, n / 3, 2 * n / 3])));
        BlockCollection::new(ErKind::Dirty, n as usize, blocks)
    }

    #[test]
    fn chunking_covers_the_range() {
        for n in [0u32, 1, 7, 16, 255, 256, 257, 1000, 10_000] {
            for t in [1usize, 2, 3, 8, 100] {
                let cs = chunks(n, t);
                let total: u32 = cs.iter().map(|r| r.end - r.start).sum();
                assert_eq!(total, n, "n={n} t={t}");
                for w in cs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    /// Regression: a 2-entity input must not fan out across a 16-thread
    /// pool — tiny ranges collapse to a single chunk.
    #[test]
    fn chunking_floors_tiny_inputs_to_one_chunk() {
        assert_eq!(chunks(2, 16).len(), 1);
        assert_eq!(chunks(2, 16), vec![0..2]);
        assert_eq!(chunks(MIN_CHUNK, 100).len(), 1);
        // Just past the floor, a second chunk becomes useful — but no more.
        assert_eq!(chunks(MIN_CHUNK + 1, 100).len(), 2);
        // Large inputs still use every requested thread.
        assert_eq!(chunks(MIN_CHUNK * 8, 8).len(), 8);
    }

    #[test]
    fn parallel_matches_sequential_for_every_thread_count() {
        for blocks in [fixture(), large_fixture()] {
            let ctx = GraphContext::new_dirty(&blocks);
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                let mut sequential = Vec::new();
                optimized::for_each_edge(&ctx, &weigher, |a, b, _| sequential.push((a, b)));
                for threads in [1, 2, 3, 4, 7] {
                    let parallel = collect_edges_where(&ctx, &weigher, threads, |_, _, _| true);
                    assert_eq!(parallel, sequential, "{} x{threads}", scheme.name());
                }
            }
        }
    }

    #[test]
    fn parallel_wep_equals_sequential_wep() {
        for blocks in [fixture(), large_fixture()] {
            let ctx = GraphContext::new_dirty(&blocks);
            for scheme in WeightingScheme::ALL {
                let weigher = EdgeWeigher::new(scheme, &ctx);
                let mut sequential = Vec::new();
                crate::prune::wep(
                    &ctx,
                    &weigher,
                    crate::weighting::WeightingImpl::Optimized,
                    &mut mb_observe::Noop,
                    |a, b| sequential.push((a, b)),
                );
                for threads in [1, 3, 8] {
                    assert_eq!(wep(&ctx, &weigher, threads), sequential, "{}", scheme.name());
                }
            }
        }
    }

    /// The acceptance criterion: every counter total is identical between a
    /// 1-thread and an N-thread observed run, and matches the sequential
    /// pruner's totals.
    #[test]
    fn wep_observed_counters_are_thread_count_invariant() {
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let run = |threads: usize| {
            let mut report = mb_observe::RunReport::new("par");
            let mut out = Vec::new();
            wep_observed(&ctx, &weigher, threads, &mut report, |a, b| out.push((a, b)));
            (report, out)
        };
        let (seq_report, seq_out) = {
            let mut report = mb_observe::RunReport::new("seq");
            let mut out = Vec::new();
            crate::prune::wep(
                &ctx,
                &weigher,
                crate::weighting::WeightingImpl::Optimized,
                &mut report,
                |a, b| out.push((a, b)),
            );
            (report, out)
        };
        let (one_report, one_out) = run(1);
        assert_eq!(one_out, seq_out);
        for threads in [2, 4, 8, 16] {
            let (n_report, n_out) = run(threads);
            assert_eq!(n_out, one_out, "output differs at {threads} threads");
            for c in Counter::ALL {
                assert_eq!(
                    n_report.counter_total(c),
                    one_report.counter_total(c),
                    "counter {} differs at {threads} threads",
                    c.name()
                );
                assert_eq!(
                    n_report.counter_total(c),
                    seq_report.counter_total(c),
                    "counter {} differs from sequential",
                    c.name()
                );
            }
        }
    }

    fn run_sequential(
        scheme: PruningScheme,
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
    ) -> (mb_observe::RunReport, Vec<(EntityId, EntityId)>) {
        let imp = crate::weighting::WeightingImpl::Optimized;
        let mut report = mb_observe::RunReport::new("seq");
        let mut out = Vec::new();
        let sink = |a: EntityId, b: EntityId| out.push((a, b));
        match scheme {
            PruningScheme::Cep => crate::prune::cep(ctx, weigher, imp, &mut report, sink),
            PruningScheme::Cnp => crate::prune::cnp(ctx, weigher, imp, &mut report, sink),
            PruningScheme::Wep => crate::prune::wep(ctx, weigher, imp, &mut report, sink),
            PruningScheme::Wnp => crate::prune::wnp(ctx, weigher, imp, &mut report, sink),
            PruningScheme::RedefinedCnp => {
                crate::prune::redefined_cnp(ctx, weigher, imp, &mut report, sink)
            }
            PruningScheme::ReciprocalCnp => {
                crate::prune::reciprocal_cnp(ctx, weigher, imp, &mut report, sink)
            }
            PruningScheme::RedefinedWnp => {
                crate::prune::redefined_wnp(ctx, weigher, imp, &mut report, sink)
            }
            PruningScheme::ReciprocalWnp => {
                crate::prune::reciprocal_wnp(ctx, weigher, imp, &mut report, sink)
            }
        }
        (report, out)
    }

    /// The tentpole acceptance criterion, at the unit level: every pruning
    /// scheme's parallel output is bit-identical to its sequential output
    /// for every tested thread count, with identical counter totals.
    #[test]
    fn every_scheme_parallel_matches_sequential_with_invariant_counters() {
        let blocks = large_fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in PruningScheme::ALL {
            let weigher = EdgeWeigher::new(WeightingScheme::Ecbs, &ctx);
            let (seq_report, seq_out) = run_sequential(scheme, &ctx, &weigher);
            for threads in [1, 2, 4, 8, 16] {
                let mut report = mb_observe::RunReport::new("par");
                let mut out = Vec::new();
                run_pruning_observed(scheme, &ctx, &weigher, threads, &mut report, |a, b| {
                    out.push((a, b))
                });
                assert_eq!(out, seq_out, "{} output differs at {threads} threads", scheme.name());
                for c in Counter::ALL {
                    assert_eq!(
                        report.counter_total(c),
                        seq_report.counter_total(c),
                        "{}: counter {} differs at {threads} threads",
                        scheme.name(),
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_scheme_parallel_handles_empty_graph() {
        let blocks = BlockCollection::new(ErKind::Dirty, 4, vec![]);
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        for scheme in PruningScheme::ALL {
            let mut out = Vec::new();
            run_pruning_observed(scheme, &ctx, &weigher, 4, &mut mb_observe::Noop, |a, b| {
                out.push((a, b))
            });
            assert!(out.is_empty(), "{}", scheme.name());
        }
    }

    #[test]
    fn mean_weight_agrees() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let (mut sum, mut count) = (0.0, 0u64);
        optimized::for_each_edge(&ctx, &weigher, |_, _, w| {
            sum += w;
            count += 1;
        });
        let seq_mean = sum / count as f64;
        for threads in [1, 2, 5] {
            let par = mean_edge_weight(&ctx, &weigher, threads).unwrap();
            assert!((par - seq_mean).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph() {
        let blocks = BlockCollection::new(ErKind::Dirty, 4, vec![]);
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        assert_eq!(mean_edge_weight(&ctx, &weigher, 4), None);
        assert!(wep(&ctx, &weigher, 4).is_empty());
    }
}
