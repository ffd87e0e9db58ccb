//! Graph-free Meta-blocking (§4.1, Figure 7b): Block Filtering followed by
//! Comparison Propagation — no blocking graph, no edge weights.

use crate::context::GraphContext;
use crate::pipeline::prologue;
use crate::propagation::comparison_propagation;
use er_model::{BlockCollection, EntityId, Result};
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
/// `split` is the Clean-Clean id boundary
/// ([`er_model::EntityCollection::split`]); on Dirty ER it is ignored. The
/// propagation sweep runs on up to `threads` workers (`0` = auto-detect, as
/// in [`crate::PipelineConfig`]) and streams to `sink` in the same order for
/// any count (see `DESIGN.md` §8).
///
/// The two stages report to `obs` as [`Stage::BlockFiltering`] and
/// [`Stage::ComparisonPropagation`]; pass [`mb_observe::Noop`] when no
/// telemetry is wanted.
pub fn graph_free_meta_blocking(
    blocks: &BlockCollection,
    split: usize,
    r: f64,
    threads: usize,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
) -> Result<()> {
    let (filtered, split) = prologue(blocks, split, Some(r), obs)?;
    let mut scope = StageScope::enter(obs, Stage::ComparisonPropagation);
    let ctx = GraphContext::new(&filtered, split);
    let mut retained = 0u64;
    comparison_propagation(&ctx, threads, |a, b| {
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
    use er_model::{Block, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn filters_then_dedupes() {
        // Entity 0 sits in three blocks of growing size; r = 0.34 keeps it
        // in the smallest only, and the repeated pair (0, 1) is emitted once.
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
        graph_free_meta_blocking(&blocks, 5, 0.34, 1, &mut mb_observe::Noop, |a, b| {
            got.push((a.0, b.0))
        })
        .unwrap();
        got.sort_unstable();
        // Limits max(1, round(0.34 · |B_i|)): 1 for every entity (|B_0| =
        // |B_1| = 3, |B_2| = 2, |B_3| = |B_4| = 1). Smallest blocks first:
        // b0 takes 0 and 1, b1 keeps only 2 and is dropped, b2 keeps 3 and 4.
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
        let run = |threads| {
            let mut out = Vec::new();
            graph_free_meta_blocking(
                &blocks,
                n as usize,
                0.8,
                threads,
                &mut mb_observe::Noop,
                |a, b| out.push((a, b)),
            )
            .unwrap();
            out
        };
        let seq = run(1);
        for threads in [0, 2, 4, 8] {
            assert_eq!(run(threads), seq, "graph-free output differs at {threads} threads");
        }
    }

    #[test]
    fn dirty_output_does_not_depend_on_the_split() {
        // On Dirty ER every profile is a pivot: a split below |E| must not
        // hide the edges charged to the profiles above it.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[2, 3, 4])),
                Block::dirty(ids(&[1, 3])),
            ],
        );
        let run = |split| {
            let mut out = Vec::new();
            graph_free_meta_blocking(&blocks, split, 1.0, 1, &mut mb_observe::Noop, |a, b| {
                out.push((a.0, b.0))
            })
            .unwrap();
            out
        };
        let whole = run(5);
        assert!(whole.contains(&(3, 4)), "{whole:?}");
        for split in [0, 2, 4, 1000] {
            assert_eq!(run(split), whole, "split {split}");
        }
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        let blocks = BlockCollection::new(ErKind::Dirty, 2, vec![]);
        assert!(
            graph_free_meta_blocking(&blocks, 2, 0.0, 1, &mut mb_observe::Noop, |_, _| {}).is_err()
        );
    }

    #[test]
    fn paper_ratios_are_the_tuned_values() {
        assert_eq!(EFFICIENCY_RATIO, 0.25);
        assert_eq!(EFFECTIVENESS_RATIO, 0.55);
    }
}
