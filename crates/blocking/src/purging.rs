//! Block Purging: discarding oversized blocks before meta-blocking.
//!
//! "Block Purging aims for discarding oversized blocks that are dominated by
//! redundant and superfluous comparisons" (§2). Two variants are provided:
//!
//! * [`purge_by_size`] — the rule the paper applies in §6.2: discard every
//!   block containing more than half of the input entity profiles;
//! * [`purge_by_comparisons`] — the automatic comparison-cardinality
//!   threshold of Papadakis et al. (TKDE'13), which keeps adding larger
//!   blocks only while they still increase the comparisons-per-assignment
//!   ratio by more than a smoothing factor.

use er_model::BlockCollection;
use mb_observe::{Counter, Observer, Stage, StageScope};

/// [`purge_by_size`], reporting the pass to `obs` as a [`Stage::Purging`]
/// scope (blocks/comparisons/assignments before and after).
pub fn purge_by_size_observed(
    blocks: &mut BlockCollection,
    max_size_ratio: f64,
    obs: &mut dyn Observer,
) -> usize {
    let mut scope = StageScope::enter(obs, Stage::Purging);
    let (blocks_in, comparisons_in, assignments_in) = if scope.enabled() {
        (blocks.size() as u64, blocks.total_comparisons(), blocks.total_assignments())
    } else {
        (0, 0, 0)
    };
    let purged = purge_by_size(blocks, max_size_ratio);
    if scope.enabled() {
        scope.add(Counter::BlocksIn, blocks_in);
        scope.add(Counter::BlocksOut, blocks.size() as u64);
        scope.add(Counter::ComparisonsIn, comparisons_in);
        scope.add(Counter::ComparisonsOut, blocks.total_comparisons());
        scope.add(Counter::AssignmentsIn, assignments_in);
        scope.add(Counter::AssignmentsOut, blocks.total_assignments());
        scope.add(Counter::Entities, blocks.num_entities() as u64);
    }
    scope.finish();
    purged
}

/// Discards blocks whose *size* (number of profiles) exceeds
/// `max_size_ratio · |E|`. The paper uses `max_size_ratio = 0.5`:
/// "we applied Block Purging in order to discard those blocks that contained
/// more than half of the input entity profiles".
///
/// Returns the number of purged blocks.
pub fn purge_by_size(blocks: &mut BlockCollection, max_size_ratio: f64) -> usize {
    assert!(max_size_ratio > 0.0 && max_size_ratio <= 1.0, "max_size_ratio must lie in (0, 1]");
    let limit = (blocks.num_entities() as f64 * max_size_ratio).floor() as usize;
    let before = blocks.size();
    blocks.retain(|b| b.size() <= limit);
    #[cfg(feature = "sanitize")]
    {
        er_model::sanitize::assert_valid(&blocks.validate(), "purge_by_size output");
        assert!(
            blocks.iter().all(|b| b.size() <= limit),
            "mb-sanitize: purge_by_size left a block above the size limit {limit}"
        );
    }
    before - blocks.size()
}

/// The smoothing factor of comparison-based Block Purging (TKDE'13).
pub const PURGING_SMOOTHING_FACTOR: f64 = 1.025;

/// Discards blocks whose *cardinality* (number of comparisons) exceeds an
/// automatically derived threshold.
///
/// Let `d₁ < d₂ < … < dₘ` be the distinct block cardinalities and, for each
/// `dₖ`, `CC(dₖ)` / `BC(dₖ)` the total comparisons / block assignments over
/// all blocks with `‖b‖ ≤ dₖ`. Scanning from the largest cardinality down,
/// the threshold is the last `dₖ` at which the cumulative
/// comparisons-per-assignment ratio still grows by more than
/// [`PURGING_SMOOTHING_FACTOR`]; blocks above it contribute comparisons
/// quadratically faster than they contribute entity coverage, i.e. they are
/// dominated by superfluous comparisons.
///
/// Returns the number of purged blocks.
pub fn purge_by_comparisons(blocks: &mut BlockCollection) -> usize {
    if blocks.is_empty() {
        return 0;
    }
    // Gather (cardinality, size) and sort by cardinality.
    let mut stats: Vec<(u64, u64)> =
        blocks.iter().map(|b| (b.cardinality(), b.size() as u64)).collect();
    stats.sort_unstable();

    // Cumulative CC and BC per distinct cardinality.
    let mut distinct: Vec<(u64, f64, f64)> = Vec::new(); // (d, CC(d), BC(d))
    let (mut cc, mut bc) = (0f64, 0f64);
    for (card, size) in stats {
        cc += card as f64;
        bc += size as f64;
        match distinct.last_mut() {
            Some(last) if last.0 == card => {
                last.1 = cc;
                last.2 = bc;
            }
            _ => distinct.push((card, cc, bc)),
        }
    }

    // Scan from the largest cardinality down: while the inclusion of the
    // largest remaining blocks no longer increases CC/BC noticeably, keep
    // them; the threshold is set at the first (largest) step that does.
    // `distinct` has at least one entry: `blocks` is non-empty (checked at
    // entry) and every block contributes to some cardinality bucket.
    let mut threshold = distinct.last().map_or(0, |last| last.0);
    for w in distinct.windows(2).rev() {
        let (_, cc_lo, bc_lo) = w[0];
        let (d_hi, cc_hi, bc_hi) = w[1];
        if bc_lo == 0.0 {
            break;
        }
        let ratio_lo = cc_lo / bc_lo;
        let ratio_hi = cc_hi / bc_hi;
        if ratio_hi < PURGING_SMOOTHING_FACTOR * ratio_lo {
            // Ratio plateaued: the blocks at d_hi are acceptable.
            threshold = d_hi;
            break;
        }
        threshold = w[0].0;
    }

    let before = blocks.size();
    blocks.retain(|b| b.cardinality() <= threshold);
    #[cfg(feature = "sanitize")]
    {
        er_model::sanitize::assert_valid(&blocks.validate(), "purge_by_comparisons output");
        assert!(
            blocks.iter().all(|b| b.cardinality() <= threshold),
            "mb-sanitize: purge_by_comparisons left a block above the \
             cardinality threshold {threshold}"
        );
    }
    before - blocks.size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, EntityId, ErKind};

    fn ids(v: std::ops::Range<u32>) -> Vec<EntityId> {
        v.map(EntityId).collect()
    }

    #[test]
    fn size_purging_drops_huge_blocks() {
        let mut blocks = BlockCollection::new(
            ErKind::Dirty,
            10,
            vec![Block::dirty(ids(0..2)), Block::dirty(ids(0..6)), Block::dirty(ids(0..10))],
        );
        let purged = purge_by_size(&mut blocks, 0.5);
        assert_eq!(purged, 2);
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).size(), 2);
    }

    #[test]
    fn size_purging_boundary_is_inclusive() {
        let mut blocks = BlockCollection::new(ErKind::Dirty, 10, vec![Block::dirty(ids(0..5))]);
        assert_eq!(purge_by_size(&mut blocks, 0.5), 0);
        assert_eq!(blocks.size(), 1);
    }

    #[test]
    #[should_panic(expected = "max_size_ratio")]
    fn size_purging_rejects_bad_ratio() {
        let mut blocks = BlockCollection::new(ErKind::Dirty, 2, vec![]);
        purge_by_size(&mut blocks, 0.0);
    }

    #[test]
    fn comparison_purging_drops_dominating_block() {
        // Many small blocks plus one gigantic one: the giant dominates the
        // comparison count and must be purged.
        let mut v: Vec<Block> =
            (0..20).map(|i| Block::dirty(vec![EntityId(i), EntityId(i + 1)])).collect();
        v.push(Block::dirty(ids(0..100)));
        let mut blocks = BlockCollection::new(ErKind::Dirty, 100, v);
        let purged = purge_by_comparisons(&mut blocks);
        assert_eq!(purged, 1);
        assert_eq!(blocks.size(), 20);
    }

    #[test]
    fn comparison_purging_keeps_uniform_blocks() {
        // All blocks equal: no cardinality dominates, nothing is purged.
        let v: Vec<Block> =
            (0..10).map(|i| Block::dirty(vec![EntityId(i), EntityId(i + 1)])).collect();
        let mut blocks = BlockCollection::new(ErKind::Dirty, 11, v);
        assert_eq!(purge_by_comparisons(&mut blocks), 0);
        assert_eq!(blocks.size(), 10);
    }

    #[test]
    fn comparison_purging_empty_collection() {
        let mut blocks = BlockCollection::new(ErKind::Dirty, 0, vec![]);
        assert_eq!(purge_by_comparisons(&mut blocks), 0);
    }

    #[test]
    fn observed_purging_reports_shrink() {
        let mut blocks = BlockCollection::new(
            ErKind::Dirty,
            10,
            vec![Block::dirty(ids(0..2)), Block::dirty(ids(0..6)), Block::dirty(ids(0..10))],
        );
        let comparisons_in = blocks.total_comparisons();
        let mut log = mb_observe::RingLog::new(8);
        let purged = purge_by_size_observed(&mut blocks, 0.5, &mut log);
        assert_eq!(purged, 2);
        assert_eq!(log.exit_order(), vec![Stage::Purging]);
        assert_eq!(log.counter_total(Counter::BlocksIn), 3);
        assert_eq!(log.counter_total(Counter::BlocksOut), 1);
        assert_eq!(log.counter_total(Counter::ComparisonsIn), comparisons_in);
        assert_eq!(log.counter_total(Counter::ComparisonsOut), blocks.total_comparisons());
    }
}
