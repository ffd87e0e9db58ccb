//! Block Filtering (Algorithm 1) — the paper's graph-shrinking
//! pre-processing step.
//!
//! "Each block has a different importance for every entity profile it
//! contains": Block Filtering keeps each profile only in the `r·|B_i|` most
//! important of its blocks, where importance is inverse block cardinality
//! ("the less comparisons a block contains, the more important it is for its
//! entities"). The restructured collection discards most of the blocking
//! graph's noisy edges at negligible recall cost (§6.2: with `r = 0.8`,
//! `‖B‖` drops by 64–75% while PC drops by less than 0.5%).

use er_model::{BlockCollection, BlockCollectionBuilder, Error, Result};

/// The filtering ratio the paper fine-tunes to in §6.2 for the
/// pre-processing workflow.
pub const DEFAULT_RATIO: f64 = 0.8;

/// Applies Block Filtering with ratio `r ∈ (0, 1]` and returns the
/// restructured collection.
///
/// Steps (Algorithm 1): order blocks by descending importance (ascending
/// cardinality, stable for determinism); compute the per-profile limit
/// `max(1, round(r·|B_i|))`; stream the blocks in order, dropping each
/// profile once its limit is exhausted; keep blocks that still entail at
/// least one comparison.
///
/// The per-profile *local* threshold is essential: a global one "exhibits
/// low performance, as the number of blocks associated with every profile
/// varies largely" (§4.1) — the ablation experiment
/// `ablation_global_threshold` quantifies that claim.
///
/// ```
/// use er_blocking::{fixtures, BlockingMethod, TokenBlocking};
/// use mb_core::filter::block_filtering;
///
/// let blocks = TokenBlocking.build(&fixtures::figure1_collection());
/// assert_eq!(blocks.total_comparisons(), 13);
/// let filtered = block_filtering(&blocks, 0.5).unwrap();
/// assert!(filtered.total_comparisons() < 13);
/// ```
pub fn block_filtering(blocks: &BlockCollection, r: f64) -> Result<BlockCollection> {
    block_filtering_with_order(blocks, r, BlockOrder::AscendingCardinality)
}

/// The block-importance criterion of Block Filtering — which blocks a
/// profile is retained in first.
///
/// The paper's criterion is [`BlockOrder::AscendingCardinality`]; the other
/// orders exist for the `ablation_block_order` experiment that quantifies
/// how much the criterion matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOrder {
    /// Smallest blocks first — "the less comparisons a block contains, the
    /// more important it is for its entities" (the paper's choice).
    AscendingCardinality,
    /// Largest blocks first — the adversarial inversion.
    DescendingCardinality,
    /// The collection's existing order — no importance signal at all.
    Input,
}

/// [`block_filtering`] with an explicit block-importance order.
pub fn block_filtering_with_order(
    blocks: &BlockCollection,
    r: f64,
    order_by: BlockOrder,
) -> Result<BlockCollection> {
    Ok(filter_with_limits(blocks, order_by, &ratio_limits(blocks, r)?, None))
}

/// Like [`block_filtering`], but also reports provenance: `trace[k]` is the
/// index in `blocks` that produced output block `k`.
///
/// The serving layer uses the trace to carry per-block token keys from the
/// blocking front-end through filtering into a snapshot, so an online probe
/// can map a token straight to its surviving block.
pub fn block_filtering_traced(
    blocks: &BlockCollection,
    r: f64,
) -> Result<(BlockCollection, Vec<u32>)> {
    let limits = ratio_limits(blocks, r)?;
    let mut trace = Vec::new();
    let out =
        filter_with_limits(blocks, BlockOrder::AscendingCardinality, &limits, Some(&mut trace));
    Ok((out, trace))
}

/// The per-profile limits of ratio `r ∈ (0, 1]`: `round(r · |B_i|)`, at
/// least 1 so no profile disappears from the blocks entirely.
fn ratio_limits(blocks: &BlockCollection, r: f64) -> Result<Vec<u32>> {
    if !(r > 0.0 && r <= 1.0) {
        return Err(Error::InvalidRatio { param: "r", value: r });
    }
    Ok(blocks
        .assignments_per_entity()
        .iter()
        .map(|&c| if c == 0 { 0 } else { ((r * c as f64).round() as u32).max(1) })
        .collect())
}

/// The global-threshold ablation of §4.1: every profile keeps its first
/// `limit` block assignments (blocks ordered by ascending cardinality),
/// regardless of how many blocks it appears in.
///
/// Exists to demonstrate *why* the per-profile threshold is the right
/// design; not part of the recommended pipeline.
pub fn block_filtering_global(blocks: &BlockCollection, limit: u32) -> Result<BlockCollection> {
    if limit == 0 {
        return Err(Error::ZeroParameter("limit"));
    }
    let limits = vec![limit; blocks.num_entities()];
    Ok(filter_with_limits(blocks, BlockOrder::AscendingCardinality, &limits, None))
}

/// The shared streaming core: process blocks in the given importance order,
/// keeping each profile while its per-profile limit allows, and retain
/// blocks that still entail a comparison. When `trace` is given, the
/// original index of every committed block is appended in output order.
fn filter_with_limits(
    blocks: &BlockCollection,
    order_by: BlockOrder,
    limits: &[u32],
    mut trace: Option<&mut Vec<u32>>,
) -> BlockCollection {
    // Order blocks by descending importance.
    let mut order: Vec<u32> = (0..blocks.size() as u32).collect();
    match order_by {
        BlockOrder::AscendingCardinality => {
            order.sort_by_key(|&k| blocks.block(k as usize).cardinality());
        }
        BlockOrder::DescendingCardinality => {
            order.sort_by_key(|&k| std::cmp::Reverse(blocks.block(k as usize).cardinality()));
        }
        BlockOrder::Input => {}
    }

    let mut used = vec![0u32; blocks.num_entities()];
    let mut out = BlockCollectionBuilder::with_capacity(
        blocks.kind(),
        blocks.num_entities(),
        blocks.size(),
        blocks.total_assignments() as usize,
    );
    for &k in &order {
        let block = blocks.block(k as usize);
        let mut keep = |id: er_model::EntityId| {
            if used[id.idx()] < limits[id.idx()] {
                used[id.idx()] += 1;
                true
            } else {
                false
            }
        };
        // Stream surviving members straight into the arena; the limit
        // counters advance for every surviving member even when the block
        // itself is later rolled back — the per-profile budget is spent by
        // the block's *rank*, not by whether the block survives.
        out.begin();
        let (mut nl, mut nr) = (0usize, 0usize);
        for &e in block.left() {
            if keep(e) {
                out.push_left(e);
                nl += 1;
            }
        }
        for &e in block.right() {
            if keep(e) {
                out.push_right(e);
                nr += 1;
            }
        }
        // The keep-condition must follow the *collection's* kind, not the
        // block's shape: a Clean-Clean block whose right side was filtered
        // away entirely still reports `has_comparisons()` through its
        // left side, but those pairs would be intra-collection comparisons —
        // such a block must be dropped, not kept as a pseudo-dirty block.
        let keep_block = match blocks.kind() {
            er_model::ErKind::Dirty => nl > 1,
            er_model::ErKind::CleanClean => nl > 0 && nr > 0,
        };
        if keep_block {
            out.commit();
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(k);
            }
        } else {
            out.rollback();
        }
    }
    let out = out.finish();
    #[cfg(feature = "sanitize")]
    crate::sanitize::check_filtered(blocks, &out, limits);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, EntityId, ErKind};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// Entity 0 appears in 4 blocks of growing cardinality.
    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            8,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 2, 3])),
                Block::dirty(ids(&[0, 4, 5, 6])),
                Block::dirty(ids(&[0, 1, 2, 3, 4])),
            ],
        )
    }

    #[test]
    fn rejects_out_of_range_ratio() {
        let blocks = fixture();
        assert!(block_filtering(&blocks, 0.0).is_err());
        assert!(block_filtering(&blocks, 1.2).is_err());
        assert!(block_filtering(&blocks, 1.0).is_ok());
    }

    #[test]
    fn ratio_one_keeps_everything() {
        let blocks = fixture();
        let out = block_filtering(&blocks, 1.0).unwrap();
        assert_eq!(out.total_comparisons(), blocks.total_comparisons());
        assert_eq!(out.size(), blocks.size());
    }

    #[test]
    fn drops_profiles_from_largest_blocks_first() {
        let blocks = fixture();
        // Entity 0: |B_0| = 4, r = 0.5 -> limit 2: keep in the two smallest
        // blocks only.
        let out = block_filtering(&blocks, 0.5).unwrap();
        let idx = er_model::EntityIndex::build(&out);
        assert_eq!(idx.num_blocks_of(EntityId(0)), 2);
        // The smallest block (card 1) comes first in the output order.
        assert!(out.block(0).cardinality() <= out.block(1).cardinality());
    }

    #[test]
    fn every_placed_profile_keeps_at_least_one_block() {
        let blocks = fixture();
        let out = block_filtering(&blocks, 0.05).unwrap();
        // Even at an extreme ratio the limit clamps to 1 per profile; the
        // only profiles that may vanish are those whose remaining blocks
        // lost all comparison partners.
        let idx = er_model::EntityIndex::build(&out);
        // Entity 0 is in the first processed (smallest) block with entity 1.
        assert!(idx.num_blocks_of(EntityId(0)) >= 1);
    }

    #[test]
    fn reduces_comparisons_monotonically_in_r() {
        let blocks = fixture();
        let mut prev = u64::MAX;
        for r in [0.25, 0.5, 0.75, 1.0] {
            let out = block_filtering(&blocks, r).unwrap();
            let c = out.total_comparisons();
            assert!(c <= prev.max(c), "not monotone at r={r}");
            prev = c;
        }
        assert_eq!(prev, blocks.total_comparisons());
    }

    #[test]
    fn blocks_without_comparisons_are_dropped() {
        // After filtering, a block left with one profile must disappear.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            3,
            vec![Block::dirty(ids(&[0, 1])), Block::dirty(ids(&[0, 2]))],
        );
        // r=0.5: |B_0|=2 -> limit 1; 0 stays only in the first-processed
        // block; the other block collapses to {2} and is dropped.
        let out = block_filtering(&blocks, 0.5).unwrap();
        assert_eq!(out.size(), 1);
        assert_eq!(out.total_comparisons(), 1);
    }

    #[test]
    fn clean_clean_sides_filtered_independently() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![
                Block::clean_clean(ids(&[0]), ids(&[2])),
                Block::clean_clean(ids(&[0, 1]), ids(&[2, 3])),
            ],
        );
        let out = block_filtering(&blocks, 0.5).unwrap();
        // Entities 0 and 2 (2 blocks each, limit 1) stay only in the small
        // block; the big block keeps {1}×{3}.
        assert_eq!(out.size(), 2);
        let big = out.block(1);
        assert_eq!(big.left(), &[EntityId(1)]);
        assert_eq!(big.right(), &[EntityId(3)]);
    }

    #[test]
    fn traced_filtering_matches_untraced_and_maps_blocks_back() {
        let blocks = fixture();
        for r in [0.25, 0.5, 0.8, 1.0] {
            let plain = block_filtering(&blocks, r).unwrap();
            let (traced, trace) = block_filtering_traced(&blocks, r).unwrap();
            assert_eq!(traced.size(), plain.size());
            assert_eq!(trace.len(), traced.size());
            for (k, &from) in trace.iter().enumerate() {
                let got = traced.block(k);
                assert_eq!(got.left(), plain.block(k).left());
                // Every member of the output block came from its source
                // block — the trace points at a superset.
                let src = blocks.block(from as usize);
                for e in got.left() {
                    assert!(src.left().contains(e), "r={r}: block {k} not from {from}");
                }
            }
        }
    }

    #[test]
    fn trace_is_empty_when_nothing_survives() {
        let blocks = BlockCollection::new(ErKind::Dirty, 2, vec![Block::dirty(ids(&[0]))]);
        let (out, trace) = block_filtering_traced(&blocks, 1.0).unwrap();
        assert_eq!(out.size(), 0);
        assert!(trace.is_empty());
    }

    #[test]
    fn global_threshold_variant() {
        let blocks = fixture();
        let out = block_filtering_global(&blocks, 1).unwrap();
        let idx = er_model::EntityIndex::build(&out);
        for e in 0..7u32 {
            assert!(idx.num_blocks_of(EntityId(e)) <= 1);
        }
        assert!(block_filtering_global(&blocks, 0).is_err());
    }
}
