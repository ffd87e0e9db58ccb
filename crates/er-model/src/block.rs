//! Blocks and block collections.
//!
//! [`BlockCollection`] stores its blocks in a CSR arena — one contiguous
//! member pool plus per-block offsets, mirroring [`crate::EntityIndex`]'s
//! flat layout — so the hot sweeps (ScanCount, Block Filtering, purging,
//! Comparison Propagation) walk contiguous memory instead of chasing one
//! heap `Vec` per block. [`Block`] remains the owned construction type;
//! reading goes through the borrowed [`BlockRef`] view.

use crate::collection::ErKind;
use crate::ids::EntityId;

/// A single block under construction: a set of entity profiles deemed
/// similar enough to be compared with one another.
///
/// For Dirty ER all profiles live in `left` and the block entails all
/// `|b|·(|b|−1)/2` intra-block pairs. For Clean-Clean ER, `left` holds the
/// E₁ profiles and `right` the E₂ profiles; only the `|left|·|right|`
/// cross-collection pairs are comparisons.
///
/// `Block` is the *input* type: blocking methods and tests build owned
/// blocks and hand them to [`BlockCollection::from_blocks`], which flattens
/// them into the arena. Reading a stored block yields a [`BlockRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    left: Vec<EntityId>,
    right: Vec<EntityId>,
}

impl Block {
    /// Creates a Dirty ER block.
    pub fn dirty(entities: Vec<EntityId>) -> Self {
        Block { left: entities, right: Vec::new() }
    }

    /// Creates a Clean-Clean ER block from the E₁ and E₂ members.
    pub fn clean_clean(left: Vec<EntityId>, right: Vec<EntityId>) -> Self {
        Block { left, right }
    }

    /// E₁ members (all members for Dirty ER).
    pub fn left(&self) -> &[EntityId] {
        &self.left
    }

    /// E₂ members (empty for Dirty ER).
    pub fn right(&self) -> &[EntityId] {
        &self.right
    }

    /// The borrowed view of this block.
    pub fn as_ref(&self) -> BlockRef<'_> {
        BlockRef { left: &self.left, right: &self.right }
    }

    /// Block size `|b|`: the number of profiles it contains.
    pub fn size(&self) -> usize {
        self.as_ref().size()
    }

    /// Block cardinality `‖b‖`: the number of comparisons it entails.
    pub fn cardinality(&self) -> u64 {
        self.as_ref().cardinality()
    }

    /// Whether the block entails at least one comparison.
    pub fn has_comparisons(&self) -> bool {
        self.as_ref().has_comparisons()
    }

    /// Iterator over every profile in the block.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.left.iter().chain(self.right.iter()).copied()
    }

    /// Invokes `f` for every comparison the block entails.
    ///
    /// Pairs are emitted with the lower id first for Dirty ER and as
    /// (E₁ member, E₂ member) for Clean-Clean ER.
    pub fn for_each_comparison(&self, f: impl FnMut(EntityId, EntityId)) {
        self.as_ref().for_each_comparison(f);
    }

    /// Removes the given entity from the block, preserving order.
    /// Returns whether it was present.
    pub fn remove(&mut self, id: EntityId) -> bool {
        if let Some(pos) = self.left.iter().position(|&e| e == id) {
            self.left.remove(pos);
            return true;
        }
        if let Some(pos) = self.right.iter().position(|&e| e == id) {
            self.right.remove(pos);
            return true;
        }
        false
    }
}

/// A borrowed view of one block stored in a [`BlockCollection`] arena.
///
/// Copying the view copies two slice headers, never the members; all the
/// statistics of [`Block`] are available here without owning the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef<'a> {
    left: &'a [EntityId],
    right: &'a [EntityId],
}

impl<'a> BlockRef<'a> {
    /// A view over explicit member slices (used by tests and validators).
    pub fn from_slices(left: &'a [EntityId], right: &'a [EntityId]) -> BlockRef<'a> {
        BlockRef { left, right }
    }

    /// E₁ members (all members for Dirty ER).
    pub fn left(&self) -> &'a [EntityId] {
        self.left
    }

    /// E₂ members (empty for Dirty ER).
    pub fn right(&self) -> &'a [EntityId] {
        self.right
    }

    /// Block size `|b|`: the number of profiles it contains.
    pub fn size(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Block cardinality `‖b‖`: the number of comparisons it entails.
    pub fn cardinality(&self) -> u64 {
        if self.right.is_empty() {
            let n = self.left.len() as u64;
            n * n.saturating_sub(1) / 2
        } else {
            self.left.len() as u64 * self.right.len() as u64
        }
    }

    /// Whether the block entails at least one comparison.
    pub fn has_comparisons(&self) -> bool {
        if self.right.is_empty() {
            self.left.len() > 1
        } else {
            !self.left.is_empty()
        }
    }

    /// Iterator over every profile in the block.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + 'a {
        self.left.iter().chain(self.right.iter()).copied()
    }

    /// Invokes `f` for every comparison the block entails.
    ///
    /// Pairs are emitted with the lower id first for Dirty ER and as
    /// (E₁ member, E₂ member) for Clean-Clean ER.
    pub fn for_each_comparison(&self, mut f: impl FnMut(EntityId, EntityId)) {
        if self.right.is_empty() {
            for (i, &a) in self.left.iter().enumerate() {
                for &b in &self.left[i + 1..] {
                    if a < b {
                        f(a, b);
                    } else {
                        f(b, a);
                    }
                }
            }
        } else {
            for &a in self.left {
                for &b in self.right {
                    f(a, b);
                }
            }
        }
    }

    /// An owned copy of the viewed block.
    pub fn to_block(&self) -> Block {
        Block { left: self.left.to_vec(), right: self.right.to_vec() }
    }
}

/// A set of blocks produced by a blocking method, together with the context
/// needed to interpret it (task kind and input-collection size).
///
/// # Memory layout
///
/// The blocks live in a CSR arena: block `k`'s members are
/// `members[offsets[k]..offsets[k + 1]]`, with `splits[k]` marking the
/// absolute boundary between its E₁ (left) and E₂ (right) members. Dirty
/// blocks have `splits[k] == offsets[k + 1]` (no right side). The arena
/// keeps the whole collection in three allocations regardless of block
/// count, and a sweep over all members is one linear scan.
#[derive(Debug, Clone)]
pub struct BlockCollection {
    kind: ErKind,
    /// `|E|` of the input entity collection (not just the profiles that
    /// survived blocking) — the denominator of BPE.
    num_entities: usize,
    members: Vec<EntityId>,
    /// `size() + 1` member-pool offsets; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Per-block absolute offset of the left/right boundary.
    splits: Vec<u32>,
}

impl BlockCollection {
    /// Creates a block collection by flattening owned blocks into the
    /// arena (alias: [`BlockCollection::from_blocks`]).
    pub fn new(kind: ErKind, num_entities: usize, blocks: Vec<Block>) -> Self {
        BlockCollection::from_blocks(kind, num_entities, blocks)
    }

    /// Flattens owned blocks into a CSR arena, preserving block order and
    /// member order exactly.
    pub fn from_blocks(kind: ErKind, num_entities: usize, blocks: Vec<Block>) -> Self {
        let total: usize = blocks.iter().map(Block::size).sum();
        let mut builder =
            BlockCollectionBuilder::with_capacity(kind, num_entities, blocks.len(), total);
        for b in &blocks {
            builder.begin();
            for &e in &b.left {
                builder.push_left(e);
            }
            for &e in &b.right {
                builder.push_right(e);
            }
            builder.commit();
        }
        builder.finish()
    }

    /// The ER task this collection belongs to.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// `|E|`: the size of the input entity collection.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// `|B|`: the number of blocks.
    pub fn size(&self) -> usize {
        self.splits.len()
    }

    /// Whether the collection holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// The view of block `k` (in processing order).
    #[inline]
    pub fn block(&self, k: usize) -> BlockRef<'_> {
        let lo = self.offsets[k] as usize;
        let hi = self.offsets[k + 1] as usize;
        let split = self.splits[k] as usize;
        BlockRef { left: &self.members[lo..split], right: &self.members[split..hi] }
    }

    /// Iterates the block views in processing order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = BlockRef<'_>> + Clone {
        (0..self.size()).map(move |k| self.block(k))
    }

    /// `‖B‖`: the total number of comparisons, `Σ_b ‖b‖`.
    pub fn total_comparisons(&self) -> u64 {
        self.iter().map(|b| b.cardinality()).sum()
    }

    /// `Σ_b |b|`: the total number of block assignments.
    pub fn total_assignments(&self) -> u64 {
        self.members.len() as u64
    }

    /// BPE(B) = `Σ_b |b| / |E|`: the average number of blocks per profile
    /// (§4.3 of the paper).
    pub fn blocks_per_entity(&self) -> f64 {
        if self.num_entities == 0 {
            return 0.0;
        }
        self.total_assignments() as f64 / self.num_entities as f64
    }

    /// Keeps only the blocks for which `pred` holds, preserving order and
    /// compacting the arena in place.
    pub fn retain(&mut self, mut pred: impl FnMut(BlockRef<'_>) -> bool) {
        let mut write_member = 0usize;
        let mut write_block = 0usize;
        for k in 0..self.size() {
            let lo = self.offsets[k] as usize;
            let hi = self.offsets[k + 1] as usize;
            let split = self.splits[k] as usize;
            let keep =
                pred(BlockRef { left: &self.members[lo..split], right: &self.members[split..hi] });
            if keep {
                self.members.copy_within(lo..hi, write_member);
                self.splits[write_block] = (write_member + (split - lo)) as u32;
                write_member += hi - lo;
                self.offsets[write_block + 1] = write_member as u32;
                write_block += 1;
            }
        }
        self.members.truncate(write_member);
        self.offsets.truncate(write_block + 1);
        self.splits.truncate(write_block);
    }

    /// Sorts blocks in ascending cardinality — the processing order used by
    /// Block Filtering and Iterative Blocking ("the less comparisons a block
    /// contains, the more important it is"). Ties keep their relative order
    /// so the result is deterministic.
    pub fn sort_by_cardinality_ascending(&mut self) {
        let mut order: Vec<u32> = (0..self.size() as u32).collect();
        order.sort_by_key(|&k| self.block(k as usize).cardinality());
        self.reorder(&order);
    }

    /// Rebuilds the arena with blocks in the given order (a permutation of
    /// `0..size()`).
    fn reorder(&mut self, order: &[u32]) {
        let mut members = Vec::with_capacity(self.members.len());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut splits = Vec::with_capacity(self.splits.len());
        offsets.push(0u32);
        for &k in order {
            let b = self.block(k as usize);
            members.extend_from_slice(b.left);
            splits.push(members.len() as u32);
            members.extend_from_slice(b.right);
            offsets.push(members.len() as u32);
        }
        self.members = members;
        self.offsets = offsets;
        self.splits = splits;
    }

    /// Invokes `f` for every comparison of every block, including redundant
    /// repetitions across blocks.
    pub fn for_each_comparison(&self, mut f: impl FnMut(EntityId, EntityId)) {
        for b in self.iter() {
            b.for_each_comparison(&mut f);
        }
    }

    /// Counts the profiles that appear in at least one block — `|V_B|`,
    /// the order of the blocking graph.
    pub fn placed_entities(&self) -> usize {
        let mut seen = vec![false; self.num_entities];
        let mut count = 0usize;
        for &e in &self.members {
            if !seen[e.idx()] {
                seen[e.idx()] = true;
                count += 1;
            }
        }
        count
    }

    /// The number of blocks each entity is assigned to, `|B_i|`.
    pub fn assignments_per_entity(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_entities];
        for &e in &self.members {
            counts[e.idx()] += 1;
        }
        counts
    }

    /// The raw CSR arena: `(members, offsets, splits)` — block `k`'s members
    /// are `members[offsets[k]..offsets[k + 1]]` with the left/right boundary
    /// at `splits[k]`. This is the serialization view; the snapshot codec
    /// persists the first two, and its loader derives the splits.
    pub fn raw_parts(&self) -> (&[EntityId], &[u32], &[u32]) {
        (&self.members, &self.offsets, &self.splits)
    }
}

/// Streaming constructor for a [`BlockCollection`] arena: blocks are
/// appended one at a time (`begin` → `push_left`/`push_right` → `commit` or
/// `rollback`), so filtering and blocking methods write the arena directly
/// without ever materializing per-block `Vec`s.
#[derive(Debug)]
pub struct BlockCollectionBuilder {
    kind: ErKind,
    num_entities: usize,
    members: Vec<EntityId>,
    offsets: Vec<u32>,
    splits: Vec<u32>,
    /// Absolute left/right boundary of the open block; `None` while its
    /// left side is still growing.
    open_split: Option<u32>,
}

impl BlockCollectionBuilder {
    /// An empty builder for the given task.
    pub fn new(kind: ErKind, num_entities: usize) -> Self {
        BlockCollectionBuilder::with_capacity(kind, num_entities, 0, 0)
    }

    /// An empty builder with arena capacity reserved for `blocks` blocks
    /// totalling `assignments` members.
    pub fn with_capacity(
        kind: ErKind,
        num_entities: usize,
        blocks: usize,
        assignments: usize,
    ) -> Self {
        let mut offsets = Vec::with_capacity(blocks + 1);
        offsets.push(0u32);
        BlockCollectionBuilder {
            kind,
            num_entities,
            members: Vec::with_capacity(assignments),
            offsets,
            splits: Vec::with_capacity(blocks),
            open_split: None,
        }
    }

    /// The number of committed blocks so far.
    pub fn len(&self) -> usize {
        self.splits.len()
    }

    /// Whether no block has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// Opens a new block. Only one block may be open at a time.
    pub fn begin(&mut self) {
        self.open_split = None;
    }

    /// Appends an E₁ member (any member for Dirty ER) to the open block.
    /// Left members must precede right members.
    pub fn push_left(&mut self, e: EntityId) {
        debug_assert!(self.open_split.is_none(), "left member after a right member");
        self.members.push(e);
    }

    /// Appends an E₂ member to the open block.
    pub fn push_right(&mut self, e: EntityId) {
        if self.open_split.is_none() {
            self.open_split = Some(self.checked_len());
        }
        self.members.push(e);
    }

    /// Commits the open block to the arena.
    pub fn commit(&mut self) {
        let end = self.checked_len();
        self.splits.push(self.open_split.take().unwrap_or(end));
        self.offsets.push(end);
    }

    /// Discards the open block's members, leaving the arena as it was
    /// before [`BlockCollectionBuilder::begin`].
    pub fn rollback(&mut self) {
        let last = *self.offsets.last().unwrap_or(&0);
        self.members.truncate(last as usize);
        self.open_split = None;
    }

    /// The finished collection.
    pub fn finish(self) -> BlockCollection {
        BlockCollection {
            kind: self.kind,
            num_entities: self.num_entities,
            members: self.members,
            offsets: self.offsets,
            splits: self.splits,
        }
    }

    fn checked_len(&self) -> u32 {
        // The arena addresses members with u32 offsets (same budget as
        // EntityIndex); a collection beyond 4B assignments must fail loudly
        // rather than alias earlier blocks.
        assert!(
            u32::try_from(self.members.len()).is_ok(),
            "block arena exceeds u32 offset space ({} assignments)",
            self.members.len()
        );
        self.members.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn dirty_block_cardinality() {
        let b = Block::dirty(ids(&[0, 1, 2, 3]));
        assert_eq!(b.size(), 4);
        assert_eq!(b.cardinality(), 6);
        assert!(b.has_comparisons());
    }

    #[test]
    fn singleton_dirty_block_has_no_comparisons() {
        let b = Block::dirty(ids(&[5]));
        assert_eq!(b.cardinality(), 0);
        assert!(!b.has_comparisons());
    }

    #[test]
    fn clean_clean_block_cardinality() {
        let b = Block::clean_clean(ids(&[0, 1]), ids(&[7, 8, 9]));
        assert_eq!(b.size(), 5);
        assert_eq!(b.cardinality(), 6);
    }

    #[test]
    fn clean_clean_block_without_right_side() {
        let b = Block::clean_clean(ids(&[0, 1]), ids(&[]));
        // Constructed as clean-clean but with an empty right side it behaves
        // as a dirty block; blocking methods never build such blocks.
        assert_eq!(b.cardinality(), 1);
    }

    #[test]
    fn dirty_comparisons_are_canonical() {
        let b = Block::dirty(ids(&[3, 1, 2]));
        let mut pairs = Vec::new();
        b.for_each_comparison(|a, c| pairs.push((a.0, c.0)));
        assert_eq!(pairs, vec![(1, 3), (2, 3), (1, 2)]);
        assert!(pairs.iter().all(|&(a, c)| a < c));
    }

    #[test]
    fn clean_clean_comparisons_cross_only() {
        let b = Block::clean_clean(ids(&[0]), ids(&[5, 6]));
        let mut pairs = Vec::new();
        b.for_each_comparison(|a, c| pairs.push((a.0, c.0)));
        assert_eq!(pairs, vec![(0, 5), (0, 6)]);
    }

    #[test]
    fn remove_entity() {
        let mut b = Block::clean_clean(ids(&[0, 1]), ids(&[5]));
        assert!(b.remove(EntityId(1)));
        assert!(!b.remove(EntityId(1)));
        assert!(b.remove(EntityId(5)));
        assert_eq!(b.size(), 1);
    }

    fn sample_collection() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            6,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[3, 4, 5])),
            ],
        )
    }

    #[test]
    fn collection_statistics() {
        let c = sample_collection();
        assert_eq!(c.size(), 3);
        assert_eq!(c.total_comparisons(), 1 + 3 + 3);
        assert_eq!(c.total_assignments(), 8);
        assert!((c.blocks_per_entity() - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(c.placed_entities(), 6);
        assert_eq!(c.assignments_per_entity(), vec![2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn from_blocks_round_trips_views() {
        let blocks = vec![
            Block::clean_clean(ids(&[0, 2]), ids(&[5, 6])),
            Block::clean_clean(ids(&[1]), ids(&[7])),
        ];
        let c = BlockCollection::from_blocks(ErKind::CleanClean, 8, blocks.clone());
        assert_eq!(c.size(), 2);
        for (view, owned) in c.iter().zip(&blocks) {
            assert_eq!(view.to_block(), *owned);
            assert_eq!(view, owned.as_ref());
        }
        assert_eq!(c.block(0).left(), &ids(&[0, 2])[..]);
        assert_eq!(c.block(1).right(), &ids(&[7])[..]);
    }

    #[test]
    fn sort_ascending_cardinality() {
        // Built in descending order; the sort must reverse it stably.
        let mut c = BlockCollection::new(
            ErKind::Dirty,
            6,
            vec![
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[3, 4, 5])),
                Block::dirty(ids(&[0, 1])),
            ],
        );
        c.sort_by_cardinality_ascending();
        let cards: Vec<u64> = c.iter().map(|b| b.cardinality()).collect();
        assert_eq!(cards, vec![1, 3, 3]);
        // Stable: the two cardinality-3 blocks keep their relative order.
        assert_eq!(c.block(1).left()[0], EntityId(0));
        assert_eq!(c.block(2).left()[0], EntityId(3));
    }

    #[test]
    fn retain_compacts_the_arena_in_order() {
        let mut c = BlockCollection::new(
            ErKind::Dirty,
            8,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[2, 3, 4])),
                Block::dirty(ids(&[5, 6])),
                Block::dirty(ids(&[0, 7])),
            ],
        );
        c.retain(|b| b.size() == 2);
        assert_eq!(c.size(), 3);
        assert_eq!(c.block(0).left(), &ids(&[0, 1])[..]);
        assert_eq!(c.block(1).left(), &ids(&[5, 6])[..]);
        assert_eq!(c.block(2).left(), &ids(&[0, 7])[..]);
        assert_eq!(c.total_assignments(), 6);
        // Retaining nothing empties the collection.
        c.retain(|_| false);
        assert!(c.is_empty());
        assert_eq!(c.total_assignments(), 0);
    }

    #[test]
    fn retain_preserves_clean_clean_splits() {
        let mut c = BlockCollection::new(
            ErKind::CleanClean,
            10,
            vec![
                Block::clean_clean(ids(&[0]), ids(&[5, 6])),
                Block::clean_clean(ids(&[1, 2]), ids(&[7])),
                Block::clean_clean(ids(&[3]), ids(&[8, 9])),
            ],
        );
        c.retain(|b| b.left().len() == 1);
        assert_eq!(c.size(), 2);
        assert_eq!(c.block(0).right(), &ids(&[5, 6])[..]);
        assert_eq!(c.block(1).left(), &ids(&[3])[..]);
        assert_eq!(c.block(1).right(), &ids(&[8, 9])[..]);
    }

    #[test]
    fn builder_commit_and_rollback() {
        let mut b = BlockCollectionBuilder::new(ErKind::CleanClean, 10);
        b.begin();
        b.push_left(EntityId(0));
        b.push_right(EntityId(5));
        b.commit();
        // A rolled-back block leaves no trace.
        b.begin();
        b.push_left(EntityId(1));
        b.push_left(EntityId(2));
        b.rollback();
        b.begin();
        b.push_left(EntityId(3));
        b.push_right(EntityId(6));
        b.push_right(EntityId(7));
        b.commit();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let c = b.finish();
        assert_eq!(c.size(), 2);
        assert_eq!(c.block(0).left(), &ids(&[0])[..]);
        assert_eq!(c.block(0).right(), &ids(&[5])[..]);
        assert_eq!(c.block(1).left(), &ids(&[3])[..]);
        assert_eq!(c.block(1).right(), &ids(&[6, 7])[..]);
        assert_eq!(c.total_assignments(), 5);
    }

    #[test]
    fn builder_dirty_blocks_have_no_split() {
        let mut b = BlockCollectionBuilder::new(ErKind::Dirty, 4);
        b.begin();
        b.push_left(EntityId(0));
        b.push_left(EntityId(1));
        b.commit();
        let c = b.finish();
        assert_eq!(c.block(0).right(), &[] as &[EntityId]);
        assert_eq!(c.block(0).cardinality(), 1);
    }

    #[test]
    fn for_each_comparison_spans_blocks() {
        let c = sample_collection();
        let mut n = 0u64;
        c.for_each_comparison(|_, _| n += 1);
        assert_eq!(n, c.total_comparisons());
    }

    #[test]
    fn empty_collection_statistics() {
        let c = BlockCollection::new(ErKind::Dirty, 0, vec![]);
        assert!(c.is_empty());
        assert_eq!(c.blocks_per_entity(), 0.0);
        assert_eq!(c.placed_entities(), 0);
    }
}
