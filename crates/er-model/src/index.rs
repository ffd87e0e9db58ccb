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
use std::ops::Range;

/// Minimum blocks per construction shard: below this, spawning a worker
/// costs more than counting its assignments, so small collections build
/// sequentially no matter how many threads are configured.
const MIN_BLOCKS_PER_SHARD: usize = 256;

/// Minimum entities per merge worker (same rationale).
const MIN_ENTITIES_PER_MERGE: usize = 1024;

/// Splits `0..n` into at most `threads` contiguous chunks of near-equal
/// size, none smaller than `floor` (except the only chunk of a small input).
///
/// The chunks are non-empty, adjacent and cover `0..n` exactly, and they
/// are a pure function of `(n, threads, floor)`, never of the machine — the
/// parallel build's shards, and so its output, depend on nothing else.
fn chunk_ranges(n: usize, threads: usize, floor: usize) -> Vec<Range<usize>> {
    let max_useful = n.div_ceil(floor.max(1)).max(1);
    let threads = threads.max(1).min(max_useful);
    let per = n.div_ceil(threads).max(1);
    (0..threads)
        .map(|t| (t * per).min(n)..((t + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Prefix-sums per-entity assignment counts into the flat `offsets` array,
/// an empty vector with room for `counts.len() + 1` entries, failing loudly
/// if the total overflows the u32 offset space (a collection beyond 4B
/// assignments would otherwise wrap and silently alias earlier entities'
/// lists).
fn accumulate_offsets(counts: &[u32], mut offsets: Vec<u32>) -> Vec<u32> {
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        let next = acc.checked_add(c);
        assert!(
            next.is_some(),
            "entity index exceeds the u32 offset space (more than {} assignments)",
            u32::MAX
        );
        acc = next.unwrap_or(acc);
        offsets.push(acc);
    }
    offsets
}

/// The one inversion: builds the inverted-index shard of the blocks in
/// `range` of a CSR arena — block `k`'s members are
/// `members[offsets[k]..offsets[k + 1]]`, each below `n` — storing global
/// block ids. The whole range is the index itself
/// ([`EntityIndex::from_arena`]).
///
/// The caller hands in the index's offset table as `n + 2` zeros, so a
/// loader can allocate it fallibly. It is the only table beside the lists:
/// entity `e`'s count goes to slot `e + 2`, so the prefix sums leave slot
/// `e + 1` at the start of `e`'s list, the cursor the fill advances to the
/// list's end — slot `e + 1`'s final value. Slot `n + 1` is then dropped.
/// Holding no count or cursor table beside the index keeps a loader's peak
/// at the index it keeps.
fn invert(
    mut index_offsets: Vec<u32>,
    members: &[EntityId],
    offsets: &[u32],
    range: Range<usize>,
) -> EntityIndex {
    let mut lo = offsets[range.start] as usize;
    let assigned = &members[lo..offsets[range.end] as usize];
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
    for k in range {
        let hi = offsets[k + 1] as usize;
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

/// [`invert`] over one block range of a collection's arena.
fn build_shard(blocks: &BlockCollection, range: Range<usize>) -> EntityIndex {
    let (members, offsets, _) = blocks.raw_parts();
    invert(vec![0u32; blocks.num_entities() + 2], members, offsets, range)
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
        let index = build_shard(blocks, 0..blocks.size());
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
        let blocks = 0..offsets.len().saturating_sub(1);
        Ok(invert(index_offsets, members, offsets, blocks))
    }

    /// Builds the index with up to `threads` workers, bit-identical to
    /// [`EntityIndex::build`].
    ///
    /// The block range is split into contiguous chunks; every worker builds
    /// a private inverted-index shard over its chunk (global block ids, so
    /// each entity's shard sub-list is ascending). The shards are then
    /// merged by concatenating, per entity, its sub-lists in chunk order —
    /// chunk order is ascending block-id order, so the merged list equals
    /// the sequential build's. The merge itself is also parallel: each
    /// worker owns a contiguous entity range, whose assignments form a
    /// contiguous slice of the flat `lists` buffer.
    pub fn build_parallel(blocks: &BlockCollection, threads: usize) -> Self {
        let num_blocks = blocks.size();
        let ranges = chunk_ranges(num_blocks, threads, MIN_BLOCKS_PER_SHARD);
        if ranges.len() <= 1 {
            return Self::build(blocks);
        }
        let shards: Vec<EntityIndex> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .map(|range| scope.spawn(move || build_shard(blocks, range)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let n = blocks.num_entities();
        let mut counts = vec![0u32; n];
        for (e, c) in counts.iter_mut().enumerate() {
            for s in &shards {
                *c += s.offsets[e + 1] - s.offsets[e];
            }
        }
        let offsets = accumulate_offsets(&counts, Vec::with_capacity(n + 1));
        let total = *offsets.last().unwrap_or(&0) as usize;
        let mut lists = vec![0u32; total];
        let entity_ranges = chunk_ranges(n, threads, MIN_ENTITIES_PER_MERGE);
        std::thread::scope(|scope| {
            let mut rest: &mut [u32] = &mut lists;
            let mut handles = Vec::new();
            for range in entity_ranges {
                let len = (offsets[range.end] - offsets[range.start]) as usize;
                let (mine, tail) = rest.split_at_mut(len);
                rest = tail;
                let shards = &shards;
                handles.push(scope.spawn(move || {
                    let mut out = 0usize;
                    for e in range {
                        for s in shards {
                            let sub = &s.lists[s.offsets[e] as usize..s.offsets[e + 1] as usize];
                            mine[out..out + sub.len()].copy_from_slice(sub);
                            out += sub.len();
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        });
        let index = EntityIndex { lists, offsets };
        #[cfg(feature = "sanitize")]
        crate::sanitize::assert_valid(&index.validate(blocks), "EntityIndex::build_parallel");
        index
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

    /// Enough blocks to exceed the shard floor several times over, so the
    /// parallel path is actually exercised (small inputs fall back to the
    /// sequential build).
    fn many_blocks() -> BlockCollection {
        let n = 600u32;
        let mut blocks = Vec::new();
        for i in 0..MIN_BLOCKS_PER_SHARD as u32 * 4 {
            let a = i % n;
            let b = (i * 7 + 3) % n;
            let c = (i * 13 + 1) % n;
            let mut members = vec![a, b, c];
            members.sort_unstable();
            members.dedup();
            blocks.push(Block::dirty(ids(&members)));
        }
        BlockCollection::new(ErKind::Dirty, n as usize, blocks)
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let blocks = many_blocks();
        let seq = EntityIndex::build(&blocks);
        for threads in [1, 2, 3, 4, 8, 16] {
            let par = EntityIndex::build_parallel(&blocks, threads);
            let (pl, po) = par.into_raw_parts();
            let (sl, so) = seq.clone().into_raw_parts();
            assert_eq!(po, so, "offsets differ at {threads} threads");
            assert_eq!(pl, sl, "lists differ at {threads} threads");
        }
    }

    #[test]
    fn parallel_build_falls_back_on_small_inputs() {
        // A handful of blocks must not fan out; the result is still correct.
        let blocks = sample();
        let par = EntityIndex::build_parallel(&blocks, 16);
        assert_eq!(par.block_list(EntityId(1)), &[0, 1, 2]);
        assert!(par.validate(&blocks).is_empty());
    }

    #[test]
    fn offset_accumulation_is_exact() {
        assert_eq!(accumulate_offsets(&[2, 0, 3], Vec::new()), vec![0, 2, 2, 5]);
        assert_eq!(accumulate_offsets(&[], Vec::new()), vec![0]);
        // The boundary total is still representable.
        assert_eq!(
            accumulate_offsets(&[u32::MAX - 1, 1], Vec::new()),
            vec![0, u32::MAX - 1, u32::MAX]
        );
    }

    #[test]
    #[should_panic(expected = "u32 offset space")]
    fn offset_accumulation_overflow_fails_loudly() {
        // >4B total assignments must abort instead of wrapping and aliasing
        // earlier entities' block lists.
        accumulate_offsets(&[u32::MAX, 1], Vec::new());
    }

    #[test]
    fn empty_index() {
        let blocks = BlockCollection::new(ErKind::Dirty, 3, vec![]);
        let idx = EntityIndex::build(&blocks);
        assert_eq!(idx.block_list(EntityId(1)), &[] as &[u32]);
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(2)), 0);
    }

    #[test]
    fn chunks_cover_the_range_contiguously() {
        for n in [0usize, 1, 255, 256, 257, 10_000] {
            for t in [1usize, 2, 8, 64] {
                for floor in [1usize, 256, 1024] {
                    let cs = chunk_ranges(n, t, floor);
                    let total: usize = cs.iter().map(|r| r.end - r.start).sum();
                    assert_eq!(total, n, "n={n} t={t} floor={floor}");
                    for w in cs.windows(2) {
                        assert_eq!(w[0].end, w[1].start);
                    }
                    assert!(cs.iter().all(|r| !r.is_empty()));
                }
            }
        }
    }

    #[test]
    fn chunks_respect_the_floor_and_the_thread_cap() {
        assert_eq!(chunk_ranges(256, 16, 256).len(), 1);
        assert_eq!(chunk_ranges(512, 16, 256).len(), 2);
        assert_eq!(chunk_ranges(2, 16, 256), vec![0..2]);
        assert_eq!(chunk_ranges(257, 100, 256).len(), 2);
        assert_eq!(chunk_ranges(8_000, 8, 1).len(), 8);
        assert_eq!(chunk_ranges(256 * 8, 8, 256).len(), 8);
        assert_eq!(chunk_ranges(10, 3, 1).len(), 3);
        assert!(chunk_ranges(0, 4, 256).is_empty());
    }
}
