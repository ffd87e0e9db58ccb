//! Graph-free Meta-blocking (§4.1, Figure 7b): Block Filtering followed by
//! Comparison Propagation — no blocking graph, no edge weights.

use crate::context::GraphContext;
use crate::filter::block_filtering;
use crate::propagation::comparison_propagation_threads;
use er_model::{EntityId, Result};
use mb_observe::{Counter, Observer, Stage, StageScope};

/// The aggressive filtering ratio the paper tunes for efficiency-intensive
/// applications (recall ≥ 0.80 across all datasets).
pub const EFFICIENCY_RATIO: f64 = 0.25;

/// The filtering ratio the paper tunes for effectiveness-intensive
/// applications (recall ≥ 0.95 across all datasets).
pub const EFFECTIVENESS_RATIO: f64 = 0.55;

/// Runs Graph-free Meta-blocking: filters the blocks with ratio `r`, then
/// emits each surviving distinct comparison.
///
/// "The latter workflow skips the blocking graph, operating on the level of
/// individual profiles instead of profile pairs. Thus, it is expected to be
/// significantly faster than all graph-based algorithms" — and §6.4 confirms
/// it runs within minutes where graph-based schemes need hours, at the cost
/// of coarser pruning (lower precision than the reciprocal schemes).
///
/// `split` is the Clean-Clean id boundary (pass the collection size for
/// Dirty ER, or use the [`crate::pipeline::MetaBlocking`] builder which
/// handles this).
///
/// The two stages report to `obs` as [`Stage::BlockFiltering`] and
/// [`Stage::ComparisonPropagation`]; pass [`mb_observe::Noop`] when no
/// telemetry is wanted.
pub fn graph_free_meta_blocking(
    blocks: &er_model::BlockCollection,
    split: usize,
    r: f64,
    obs: &mut dyn Observer,
    sink: impl FnMut(EntityId, EntityId),
) -> Result<()> {
    graph_free_meta_blocking_threads(blocks, split, r, 1, obs, sink)
}

/// [`graph_free_meta_blocking`] on up to `threads` workers (`0` =
/// auto-detect): a sharded entity-index build and a windowed propagation
/// sweep that streams to `sink` as it goes, with output and counters
/// bit-identical to the sequential run (see `DESIGN.md` §8).
pub fn graph_free_meta_blocking_threads(
    blocks: &er_model::BlockCollection,
    split: usize,
    r: f64,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) -> Result<()> {
    let mut scope = StageScope::enter(obs, Stage::BlockFiltering);
    let filtered = block_filtering(blocks, r)?;
    if scope.enabled() {
        scope.add(Counter::BlocksIn, blocks.size() as u64);
        scope.add(Counter::BlocksOut, filtered.size() as u64);
        scope.add(Counter::ComparisonsIn, blocks.total_comparisons());
        scope.add(Counter::ComparisonsOut, filtered.total_comparisons());
        scope.add(Counter::AssignmentsIn, blocks.total_assignments());
        scope.add(Counter::AssignmentsOut, filtered.total_assignments());
        scope.add(Counter::Entities, blocks.num_entities() as u64);
    }
    scope.finish();
    let threads = crate::pipeline::resolve_threads(threads);
    let mut scope = StageScope::enter(obs, Stage::ComparisonPropagation);
    let ctx = if threads > 1 {
        GraphContext::new_parallel(&filtered, split, threads)
    } else {
        GraphContext::new(&filtered, split)
    };
    let mut retained = 0u64;
    comparison_propagation_threads(&ctx, threads, |a, b| {
        retained += 1;
        sink(a, b);
    });
    scope.add(Counter::RetainedComparisons, retained);
    scope.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, BlockCollection, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn filters_then_dedupes() {
        // Entity 0 sits in three blocks of growing size; r=0.34 keeps it in
        // the smallest only. Pair (1,2) stays distinct despite repeating.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[0, 1, 2, 3, 4])),
            ],
        );
        let mut got: Vec<(u32, u32)> = Vec::new();
        graph_free_meta_blocking(&blocks, 5, 0.34, &mut mb_observe::Noop, |a, b| {
            got.push((a.0, b.0))
        })
        .unwrap();
        got.sort_unstable();
        // 0 kept only in b0; 1 kept in b0,b1 (|B_1|=3 -> limit 1? round(0.34*3)=1)
        // Actually |B_1| = 3 -> limit max(1, round(1.02)) = 1 -> 1 kept in b0 only.
        // |B_2| = 2 -> limit 1 -> kept in b1. |B_3|,|B_4| = 1 -> kept in b2.
        // Surviving blocks: b0={0,1}, b1={2}, b2={3,4} -> b1 dropped.
        assert_eq!(got, vec![(0, 1), (3, 4)]);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Several windows, the last one partial.
        let n: u32 = crate::parallel::WINDOW_PIVOTS * 6 + 11;
        let mut raw = Vec::new();
        for i in (0..n - 3).step_by(2) {
            raw.push(Block::dirty(ids(&[i, i + 1, i + 3])));
        }
        raw.push(Block::dirty(ids(&[0, n / 2, n - 1])));
        let blocks = BlockCollection::new(ErKind::Dirty, n as usize, raw);
        let mut seq = Vec::new();
        graph_free_meta_blocking(&blocks, n as usize, 0.8, &mut mb_observe::Noop, |a, b| {
            seq.push((a, b))
        })
        .unwrap();
        for threads in [0, 2, 4, 8] {
            let mut par = Vec::new();
            graph_free_meta_blocking_threads(
                &blocks,
                n as usize,
                0.8,
                threads,
                &mut mb_observe::Noop,
                |a, b| par.push((a, b)),
            )
            .unwrap();
            assert_eq!(par, seq, "graph-free output differs at {threads} threads");
        }
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        let blocks = BlockCollection::new(ErKind::Dirty, 2, vec![]);
        assert!(
            graph_free_meta_blocking(&blocks, 2, 0.0, &mut mb_observe::Noop, |_, _| {}).is_err()
        );
    }

    #[test]
    fn paper_ratios_are_the_tuned_values() {
        assert_eq!(EFFICIENCY_RATIO, 0.25);
        assert_eq!(EFFECTIVENESS_RATIO, 0.55);
    }
}
