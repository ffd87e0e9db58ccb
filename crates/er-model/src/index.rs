//! The Entity Index: an inverted index from entity ids to block ids.
//!
//! This structure (Papadakis et al., TKDE'13) is the backbone of implicit
//! blocking-graph processing: the *block list* `B_i` of profile `p_i` is the
//! ascending list of ids of the blocks containing it. Two profiles co-occur
//! iff their block lists intersect, and the LeCoBI condition — "a comparison
//! `p_i`-`p_j` in block `b_k` is non-redundant only if `k` equals the least
//! common block id of the two profiles" — de-duplicates comparisons without
//! materializing them.

use crate::block::BlockCollection;
use crate::ids::{BlockId, EntityId};
use std::collections::TryReserveError;

/// The one inversion: builds the inverted index of a CSR arena — block
/// `k`'s members are `members[offsets[k]..offsets[k + 1]]`, each below `n`.
///
/// The caller hands in the index's offset table as `n + 2` zeros, so a
/// loader can allocate it fallibly. It is the only table beside the lists:
/// entity `e`'s count goes to slot `e + 2`, so the prefix sums leave slot
/// `e + 1` at the start of `e`'s list, the cursor the fill advances to the
/// list's end — slot `e + 1`'s final value. Slot `n + 1` is then dropped.
/// Holding no count or cursor table beside the index keeps a loader's peak
/// at the index it keeps.
fn invert(mut index_offsets: Vec<u32>, members: &[EntityId], offsets: &[u32]) -> EntityIndex {
    let mut lo = offsets[0] as usize;
    let assigned = &members[lo..offsets[offsets.len() - 1] as usize];
    // Every prefix sum is at most the total, so one check covers them all:
    // past 4B assignments the offsets would wrap and alias earlier lists.
    assert!(
        u32::try_from(assigned.len()).is_ok(),
        "entity index exceeds the u32 offset space (more than {} assignments)",
        u32::MAX
    );
    for e in assigned {
        index_offsets[e.idx() + 2] += 1;
    }
    let mut sum = 0;
    for slot in &mut index_offsets {
        sum += *slot;
        *slot = sum;
    }
    // Blocks are visited in ascending id order, so each entity's slice ends
    // up sorted without an explicit sort.
    let mut lists = vec![0u32; assigned.len()];
    for (k, &hi) in offsets[1..].iter().enumerate() {
        let hi = hi as usize;
        for e in &members[lo..hi] {
            let c = &mut index_offsets[e.idx() + 1];
            lists[*c as usize] = k as u32;
            *c += 1;
        }
        lo = hi;
    }
    index_offsets.pop();
    EntityIndex { lists, offsets: index_offsets }
}

/// Inverted index from entity id to the ascending list of containing block
/// ids.
#[derive(Debug, Clone)]
pub struct EntityIndex {
    /// Flattened block lists: `lists[offsets[i]..offsets[i+1]]` is `B_i`.
    ///
    /// A flat layout keeps the index in two allocations regardless of the
    /// number of entities — the per-entity `Vec<Vec<u32>>` alternative costs
    /// one allocation per profile and fragments the heap at million-entity
    /// scale.
    lists: Vec<u32>,
    offsets: Vec<u32>,
}

impl EntityIndex {
    /// Builds the index for a block collection. Block ids are positions in
    /// the collection's processing order.
    pub fn build(blocks: &BlockCollection) -> Self {
        let (members, offsets, _) = blocks.raw_parts();
        let index = invert(vec![0u32; blocks.num_entities() + 2], members, offsets);
        #[cfg(feature = "sanitize")]
        crate::sanitize::assert_valid(&index.validate(blocks), "EntityIndex::build");
        index
    }

    /// Inverts a CSR block arena given as its raw parts — block `k`'s
    /// members are `members[offsets[k]..offsets[k + 1]]` — with the routine
    /// [`EntityIndex::build`] runs, for an arena that is not a
    /// [`BlockCollection`]: the member pool and block offsets a snapshot
    /// loader decoded from their sections.
    ///
    /// # Errors
    /// If the allocator refuses the `num_entities`-sized offset table. A
    /// loaded snapshot declares `num_entities`, and nothing else in the file
    /// bounds it, so a loader refuses a population it cannot index instead
    /// of aborting.
    ///
    /// # Panics
    /// If `offsets` is empty, descends, or ends past `members`, or a member
    /// is `num_entities` or more. A caller holding untrusted parts proves
    /// all four first.
    pub fn from_arena(
        num_entities: usize,
        members: &[EntityId],
        offsets: &[u32],
    ) -> Result<Self, TryReserveError> {
        let mut index_offsets = Vec::new();
        index_offsets.try_reserve_exact(num_entities.saturating_add(2))?;
        index_offsets.resize(num_entities + 2, 0);
        Ok(invert(index_offsets, members, offsets))
    }

    /// Assembles an index from its raw parts: the flattened block lists and
    /// the entity offsets (`lists[offsets[i]..offsets[i+1]]` is `B_i`).
    ///
    /// No invariants are checked — this is the escape hatch the sanitizer
    /// tests use to build deliberately corrupted indices, and a
    /// deserialization entry point. Run [`EntityIndex::validate`] on the
    /// result before trusting it.
    ///
    /// # Panics
    /// If `offsets` is empty, not ascending, or its last entry does not
    /// equal `lists.len()` — the parts would not even describe slices.
    pub fn from_raw_parts(lists: Vec<u32>, offsets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must hold at least one entry");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be ascending");
        assert_eq!(
            *offsets.last().unwrap_or(&0) as usize,
            lists.len(),
            "last offset must cover all of lists"
        );
        EntityIndex { lists, offsets }
    }

    /// Decomposes the index into its raw parts (see
    /// [`EntityIndex::from_raw_parts`]).
    pub fn into_raw_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.lists, self.offsets)
    }

    /// The raw parts by reference: `(lists, offsets)`.
    pub fn raw_parts(&self) -> (&[u32], &[u32]) {
        (&self.lists, &self.offsets)
    }

    /// The block list `B_i`: ascending ids of the blocks containing `id`.
    #[inline]
    pub fn block_list(&self, id: EntityId) -> &[u32] {
        let lo = self.offsets[id.idx()] as usize;
        let hi = self.offsets[id.idx() + 1] as usize;
        &self.lists[lo..hi]
    }

    /// `|B_i|`: the number of blocks containing `id`.
    #[inline]
    pub fn num_blocks_of(&self, id: EntityId) -> usize {
        (self.offsets[id.idx() + 1] - self.offsets[id.idx()]) as usize
    }

    /// Number of entities covered by the index.
    pub fn num_entities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `|B_ij|`: the number of blocks shared by two profiles, via sorted-list
    /// intersection.
    pub fn common_blocks(&self, a: EntityId, b: EntityId) -> usize {
        let (mut x, mut y) = (self.block_list(a), self.block_list(b));
        let mut count = 0;
        while let (Some(&i), Some(&j)) = (x.first(), y.first()) {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => {
                    count += 1;
                    x = &x[1..];
                    y = &y[1..];
                }
            }
        }
        count
    }

    /// The least common block id of two profiles, if they co-occur at all.
    pub fn least_common_block(&self, a: EntityId, b: EntityId) -> Option<BlockId> {
        let (mut x, mut y) = (self.block_list(a), self.block_list(b));
        while let (Some(&i), Some(&j)) = (x.first(), y.first()) {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => return Some(BlockId(i)),
            }
        }
        None
    }

    /// The LeCoBI condition: whether the comparison `a`-`b` inside block `k`
    /// is non-redundant, i.e. `k` is the least common block id of the pair.
    #[inline]
    pub fn is_lecobi(&self, a: EntityId, b: EntityId, k: BlockId) -> bool {
        self.least_common_block(a, b) == Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::collection::ErKind;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn sample() -> BlockCollection {
        // b0 = {0,1}, b1 = {0,1,2}, b2 = {1,2,3}, b3 = {4} (no comparisons
        // but still indexed).
        BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[1, 2, 3])),
                Block::dirty(ids(&[4])),
            ],
        )
    }

    #[test]
    fn block_lists_are_ascending() {
        let idx = EntityIndex::build(&sample());
        assert_eq!(idx.block_list(EntityId(0)), &[0, 1]);
        assert_eq!(idx.block_list(EntityId(1)), &[0, 1, 2]);
        assert_eq!(idx.block_list(EntityId(2)), &[1, 2]);
        assert_eq!(idx.block_list(EntityId(3)), &[2]);
        assert_eq!(idx.block_list(EntityId(4)), &[3]);
        assert_eq!(idx.num_entities(), 5);
    }

    #[test]
    fn num_blocks_matches_list_len() {
        let idx = EntityIndex::build(&sample());
        for e in 0..5u32 {
            assert_eq!(idx.num_blocks_of(EntityId(e)), idx.block_list(EntityId(e)).len());
        }
    }

    #[test]
    fn common_blocks_counts_intersection() {
        let idx = EntityIndex::build(&sample());
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(1)), 2);
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(2)), 1);
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(3)), 0);
        assert_eq!(idx.common_blocks(EntityId(1), EntityId(2)), 2);
    }

    #[test]
    fn least_common_block() {
        let idx = EntityIndex::build(&sample());
        assert_eq!(idx.least_common_block(EntityId(0), EntityId(1)), Some(BlockId(0)));
        assert_eq!(idx.least_common_block(EntityId(1), EntityId(2)), Some(BlockId(1)));
        assert_eq!(idx.least_common_block(EntityId(0), EntityId(3)), None);
    }

    #[test]
    fn lecobi_condition() {
        let idx = EntityIndex::build(&sample());
        // Pair (0,1) first co-occurs in b0: the repetition in b1 is redundant.
        assert!(idx.is_lecobi(EntityId(0), EntityId(1), BlockId(0)));
        assert!(!idx.is_lecobi(EntityId(0), EntityId(1), BlockId(1)));
        // Non-co-occurring pair never satisfies it.
        assert!(!idx.is_lecobi(EntityId(0), EntityId(4), BlockId(3)));
    }

    #[test]
    fn lecobi_dedupes_exactly_once_per_pair() {
        let blocks = sample();
        let idx = EntityIndex::build(&blocks);
        let mut distinct = std::collections::HashSet::new();
        let mut emitted = 0;
        for (k, b) in blocks.iter().enumerate() {
            b.for_each_comparison(|a, c| {
                if idx.is_lecobi(a, c, BlockId(k as u32)) {
                    emitted += 1;
                    distinct.insert((a, c));
                }
            });
        }
        // Every distinct pair emitted exactly once.
        assert_eq!(emitted, distinct.len());
        // Pairs: (0,1),(0,2),(1,2),(1,3),(2,3)
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let blocks = sample();
        let idx = EntityIndex::build(&blocks);
        let lists_before = idx.block_list(EntityId(1)).to_vec();
        let (lists, offsets) = idx.clone().into_raw_parts();
        let rebuilt = EntityIndex::from_raw_parts(lists, offsets);
        assert_eq!(rebuilt.block_list(EntityId(1)), &lists_before[..]);
        assert!(rebuilt.validate(&blocks).is_empty());
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn raw_parts_reject_inconsistent_lengths() {
        EntityIndex::from_raw_parts(vec![0, 1], vec![0, 1]);
    }

    #[test]
    fn corrupted_index_reports_dangling_block_id() {
        let blocks = sample();
        let (mut lists, offsets) = EntityIndex::build(&blocks).into_raw_parts();
        // Entity 0's list is [0, 1]; repoint its second assignment at a
        // block the collection does not have.
        lists[1] = 99;
        let bad = EntityIndex::from_raw_parts(lists, offsets);
        let v = bad.validate(&blocks);
        let dangling: Vec<_> = v.iter().filter(|v| v.invariant == "dangling-block-id").collect();
        assert_eq!(dangling.len(), 1);
        assert!(dangling[0].message.contains("entity 0"), "{}", dangling[0].message);
        assert!(dangling[0].message.contains("block 99"), "{}", dangling[0].message);
        // The real assignment to block 1 is gone as well.
        assert!(v.iter().any(|v| v.invariant == "missing-assignment"));
    }

    #[test]
    fn empty_index() {
        let blocks = BlockCollection::new(ErKind::Dirty, 3, vec![]);
        let idx = EntityIndex::build(&blocks);
        assert_eq!(idx.block_list(EntityId(1)), &[] as &[u32]);
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(2)), 0);
    }
}
