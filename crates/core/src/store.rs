//! Storage abstraction for implicit blocking-graph traversals.
//!
//! [`GraphContext`] walks an owned, fully-decoded block arena. The
//! zero-copy serving path walks the same CSR structures while they are
//! still little-endian bytes inside one loaded snapshot buffer.
//! [`CandidateStore`] is the seam between them: everything the
//! neighborhood scanner, the degree pre-pass and the edge-weight formulas
//! read from a graph goes through this trait, and every accessor hands back
//! an [`er_model::U32s`] view so the storage variant is resolved once per
//! run, not once per element.
//!
//! The contract mirrors the owned structures exactly — same member order,
//! same side selection, same pre-inverted ARCS reciprocals — so a scorer
//! over any store is bit-identical to one over the owned arena.

use crate::context::GraphContext;
use er_model::{EntityId, ErKind, U32s};

/// Read access to one blocking graph: the block arena, the entity index and
/// the per-block statistics the traversals consume.
///
/// Implementations must present blocks and index postings in the exact
/// order the owned structures would (members ascending within a side,
/// block lists ascending per entity), because the scanner's
/// first-co-occurrence neighbor order — and through it every IEEE float
/// accumulation downstream — depends on it.
pub trait CandidateStore {
    /// The ER task kind of the collection.
    fn kind(&self) -> ErKind;

    /// The Clean-Clean id boundary (collection size for Dirty ER).
    fn split(&self) -> usize;

    /// `|E|`: number of entities in the input collection.
    fn num_entities(&self) -> usize;

    /// `|B|`: number of blocks.
    fn num_blocks(&self) -> usize;

    /// `B_i`: ids of the blocks containing `id`, ascending.
    fn block_list(&self, id: EntityId) -> U32s<'_>;

    /// The members of `block` a scan from the given direction compares
    /// against: the right (second-collection) side when `scan_right`, the
    /// left side otherwise. Dirty blocks keep every member on the left, so
    /// Dirty scans always pass `scan_right = false`.
    fn members_of(&self, block: usize, scan_right: bool) -> U32s<'_>;

    /// `1 / ‖b‖` for `block` — the pre-inverted ARCS denominator, stored as
    /// the exact IEEE result of `1.0 / cardinality` so accumulating it is
    /// bit-identical across store implementations.
    fn recip_cardinality_of(&self, block: usize) -> f64;

    /// `|B_i|`: number of blocks containing `id`.
    #[inline]
    fn num_blocks_of(&self, id: EntityId) -> usize {
        self.block_list(id).len()
    }

    /// Whether `id` belongs to the first collection (always true for Dirty
    /// ER).
    #[inline]
    fn is_first(&self, id: EntityId) -> bool {
        id.idx() < self.split()
    }

    /// Whether a scan pivoting on `id` compares against right-side members
    /// (only Clean-Clean scans from the first collection do).
    #[inline]
    fn scan_right(&self, pivot: EntityId) -> bool {
        self.kind() != ErKind::Dirty && self.is_first(pivot)
    }

    /// Dirty ER: `id`'s position in the member list of each of its blocks,
    /// parallel to [`CandidateStore::block_list`], so an edge sweep that
    /// counts common blocks can start each block's walk right past its
    /// pivot. A store that keeps no slots returns `None` (the default) and
    /// its scans walk whole blocks; the result is the same either way.
    #[inline]
    fn slots(&self, _id: EntityId) -> Option<&[u32]> {
        None
    }
}

impl CandidateStore for GraphContext<'_> {
    fn kind(&self) -> ErKind {
        GraphContext::kind(self)
    }

    fn split(&self) -> usize {
        GraphContext::split(self)
    }

    fn num_entities(&self) -> usize {
        GraphContext::num_entities(self)
    }

    fn num_blocks(&self) -> usize {
        self.blocks().size()
    }

    #[inline]
    fn block_list(&self, id: EntityId) -> U32s<'_> {
        U32s::Native(self.index().block_list(id))
    }

    #[inline]
    fn members_of(&self, block: usize, scan_right: bool) -> U32s<'_> {
        let b = self.blocks().block(block);
        U32s::Ids(if scan_right { b.right() } else { b.left() })
    }

    #[inline]
    fn recip_cardinality_of(&self, block: usize) -> f64 {
        GraphContext::recip_cardinality_of(self, block)
    }

    #[inline]
    fn num_blocks_of(&self, id: EntityId) -> usize {
        GraphContext::num_blocks_of(self, id)
    }

    #[inline]
    fn is_first(&self, id: EntityId) -> bool {
        GraphContext::is_first(self, id)
    }

    #[inline]
    fn slots(&self, id: EntityId) -> Option<&[u32]> {
        GraphContext::slots_of(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, BlockCollection};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn graph_context_store_mirrors_its_accessors() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            5,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[3, 4])),
                Block::clean_clean(ids(&[2]), ids(&[3])),
            ],
        );
        let ctx = GraphContext::new(&blocks, 3);
        let store: &dyn CandidateStore = &ctx;
        assert_eq!(store.kind(), ErKind::CleanClean);
        assert_eq!(store.split(), 3);
        assert_eq!(store.num_entities(), 5);
        assert_eq!(store.num_blocks(), 2);
        assert_eq!(store.block_list(EntityId(3)).to_vec(), vec![0, 1]);
        assert_eq!(store.num_blocks_of(EntityId(3)), 2);
        assert_eq!(store.members_of(0, false).to_vec(), vec![0, 1]);
        assert_eq!(store.members_of(0, true).to_vec(), vec![3, 4]);
        assert_eq!(store.recip_cardinality_of(0), 1.0 / 4.0);
        assert!(store.is_first(EntityId(2)));
        assert!(!store.is_first(EntityId(3)));
        assert!(store.scan_right(EntityId(0)));
        assert!(!store.scan_right(EntityId(4)));
    }

    #[test]
    fn dirty_store_scans_left_only() {
        let blocks = BlockCollection::new(ErKind::Dirty, 3, vec![Block::dirty(ids(&[0, 1, 2]))]);
        let ctx = GraphContext::new_dirty(&blocks);
        assert!(!CandidateStore::scan_right(&ctx, EntityId(0)));
        assert_eq!(CandidateStore::members_of(&ctx, 0, false).to_vec(), vec![0, 1, 2]);
    }
}
