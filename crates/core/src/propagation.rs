//! Comparison Propagation (Papadakis et al., TKDE'13).
//!
//! Removes *all* redundant comparisons from a block collection with no
//! impact on recall: a comparison is executed only in the least common block
//! of its pair (the LeCoBI condition). This is both a standalone
//! block-processing baseline (§2) and the second stage of Graph-free
//! Meta-blocking (§4.1, Figure 7b).

use crate::context::GraphContext;
use crate::parallel::{resolve_threads, sweep_windows};
use crate::scanner::{Accumulate, ScanScope};
use er_model::EntityId;

/// Emits every *distinct* comparison of the block collection exactly once.
///
/// ```
/// use er_blocking::{fixtures, BlockingMethod, TokenBlocking};
/// use mb_core::{propagation, GraphContext};
///
/// let blocks = TokenBlocking.build(&fixtures::figure1_collection());
/// let ctx = GraphContext::new_dirty(&blocks);
/// let mut distinct = 0;
/// propagation::comparison_propagation(&ctx, 1, |_, _| distinct += 1);
/// // 13 blocked comparisons, 3 of them redundant (§1).
/// assert_eq!(distinct, 10);
/// ```
///
/// Implemented with the ScanCount sweep rather than per-comparison LeCoBI
/// checks: both yield the identical distinct-comparison set, but the sweep
/// costs `O(‖B‖)` instead of `O(2·BPE·‖B‖)` — the same optimization that
/// Algorithm 3 brings to edge weighting, applied to plain deduplication.
///
/// The sweep runs on up to `threads` workers (`0` = auto-detect, as in
/// [`crate::PipelineConfig`]): it is the weight-free client of the ordered,
/// windowed sweep driver ([`crate::parallel`]), so the comparisons reach
/// `sink` in the same pivot-ascending order for any count and none is
/// buffered beyond its window.
pub fn comparison_propagation(
    ctx: &GraphContext<'_>,
    threads: usize,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    sweep_windows(
        ctx.num_entities(),
        0..ctx.num_entities() as u32,
        resolve_threads(threads),
        |worker, pivots, out| {
            for raw in pivots {
                let pivot = EntityId(raw);
                if !ctx.is_first(pivot) {
                    continue; // Clean-Clean: each edge charged to its left endpoint.
                }
                let hood = worker.scanner.scan(
                    ctx,
                    pivot,
                    Accumulate::CommonBlocks,
                    ScanScope::GreaterOnly,
                );
                for &j in hood.ids {
                    out.emit((pivot, EntityId(j)));
                }
            }
        },
        |(a, b)| sink(a, b),
    );
}

/// Emits every distinct comparison using the literal per-comparison LeCoBI
/// check of the TKDE'13 formulation — kept for the equivalence test and the
/// cost comparison; [`comparison_propagation`] is the production path.
pub fn comparison_propagation_lecobi(
    ctx: &GraphContext<'_>,
    mut sink: impl FnMut(EntityId, EntityId),
) {
    for (k, block) in ctx.blocks().iter().enumerate() {
        block.for_each_comparison(|a, b| {
            if ctx.index().is_lecobi(a, b, er_model::BlockId::from_index(k)) {
                sink(a, b);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, BlockCollection, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn collect(f: impl FnOnce(&mut dyn FnMut(EntityId, EntityId))) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut sink = |a: EntityId, b: EntityId| out.push((a.0.min(b.0), a.0.max(b.0)));
        f(&mut sink);
        out
    }

    #[test]
    fn removes_exactly_the_redundant_comparisons() {
        // (0,1) repeats across two blocks; (1,2) appears once.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            3,
            vec![Block::dirty(ids(&[0, 1])), Block::dirty(ids(&[0, 1, 2]))],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        let mut got = collect(|s| comparison_propagation(&ctx, 1, s));
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(blocks.total_comparisons(), 4); // one redundant removed
    }

    #[test]
    fn scan_and_lecobi_formulations_agree() {
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            6,
            vec![
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[1, 2, 3])),
                Block::dirty(ids(&[2, 3, 4, 5])),
                Block::dirty(ids(&[0, 5])),
            ],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        let mut fast = collect(|s| comparison_propagation(&ctx, 1, s));
        let mut slow = collect(|s| comparison_propagation_lecobi(&ctx, s));
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow);
    }

    #[test]
    fn clean_clean_propagation() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![
                Block::clean_clean(ids(&[0]), ids(&[2, 3])),
                Block::clean_clean(ids(&[0, 1]), ids(&[2])),
            ],
        );
        let ctx = GraphContext::new(&blocks, 2);
        let mut got = collect(|s| comparison_propagation(&ctx, 1, s));
        got.sort_unstable();
        assert_eq!(got, vec![(0, 2), (0, 3), (1, 2)]);
    }
}
