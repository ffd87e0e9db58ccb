//! The implicit blocking graph.
//!
//! "The blocking graph cannot be materialized in memory in the scale of
//! million nodes and billion edges. Instead, it is implemented implicitly"
//! (§4.2): every non-redundant comparison in the block collection *is* an
//! edge. [`GraphContext`] bundles the state every graph traversal needs —
//! the entity index, the per-block reciprocal cardinalities and the task
//! kind — without ever storing an edge list.

use er_model::{BlockCollection, EntityId, EntityIndex, ErKind};

/// Shared state for implicit blocking-graph traversals.
#[derive(Debug)]
pub struct GraphContext<'b> {
    blocks: &'b BlockCollection,
    index: EntityIndex,
    /// `1 / ‖b‖` per block: ARCS adds this for every common block of every
    /// edge, so it is divided once here rather than once per edge. Stored as
    /// the exact IEEE result of `1.0 / ‖b‖`, so summing the reciprocals is
    /// bit-identical to dividing inline.
    reciprocals: Vec<f64>,
    /// Dirty ER only (empty for Clean-Clean): parallel to the entity index's
    /// flat block lists, each assignment's position in its block's member
    /// list, so an edge sweep can start a block's walk right past its pivot
    /// ([`GraphContext::slots_of`]). 4 B per assignment.
    slots: Vec<u32>,
    split: usize,
}

impl<'b> GraphContext<'b> {
    /// Builds the context (entity index + reciprocal block cardinalities)
    /// for a block collection.
    ///
    /// `split` is the id boundary between the two collections for
    /// Clean-Clean ER (see [`er_model::EntityCollection::split`]); pass the
    /// collection size (or use [`GraphContext::new_dirty`]) for Dirty ER.
    pub fn new(blocks: &'b BlockCollection, split: usize) -> Self {
        let index = EntityIndex::build(blocks);
        let reciprocals = blocks.iter().map(|b| 1.0 / b.cardinality() as f64).collect();
        let slots = if blocks.kind() == ErKind::Dirty { slots(blocks, &index) } else { Vec::new() };
        GraphContext { blocks, index, reciprocals, slots, split }
    }

    /// Context for a Dirty-ER block collection.
    pub fn new_dirty(blocks: &'b BlockCollection) -> Self {
        debug_assert_eq!(blocks.kind(), ErKind::Dirty);
        let n = blocks.num_entities();
        Self::new(blocks, n)
    }

    /// The underlying block collection.
    pub fn blocks(&self) -> &'b BlockCollection {
        self.blocks
    }

    /// The entity index over the block collection.
    pub fn index(&self) -> &EntityIndex {
        &self.index
    }

    /// The task kind of the block collection.
    pub fn kind(&self) -> ErKind {
        self.blocks.kind()
    }

    /// `|E|`: number of entities in the input collection.
    pub fn num_entities(&self) -> usize {
        self.blocks.num_entities()
    }

    /// `1 / ‖b_k‖`, the pre-inverted ARCS denominator.
    #[inline]
    pub fn recip_cardinality_of(&self, block: usize) -> f64 {
        self.reciprocals[block]
    }

    /// Whether two profiles may be compared under the task kind: always (if
    /// distinct) for Dirty ER, only across the two collections for
    /// Clean-Clean ER.
    #[inline]
    pub fn comparable(&self, a: EntityId, b: EntityId) -> bool {
        a != b && (self.kind() == ErKind::Dirty || (a.idx() < self.split) != (b.idx() < self.split))
    }

    /// Whether `id` belongs to the first collection (always true for Dirty
    /// ER).
    #[inline]
    pub fn is_first(&self, id: EntityId) -> bool {
        id.idx() < self.split
    }

    /// The Clean-Clean id boundary (collection size for Dirty ER).
    pub fn split(&self) -> usize {
        self.split
    }

    /// `|B_i|`: number of blocks containing `id`.
    #[inline]
    pub fn num_blocks_of(&self, id: EntityId) -> usize {
        self.index.num_blocks_of(id)
    }

    /// Dirty ER: `id`'s position in the member list of each of its blocks,
    /// parallel to [`EntityIndex::block_list`]. `None` for Clean-Clean ER.
    #[inline]
    pub fn slots_of(&self, id: EntityId) -> Option<&[u32]> {
        if self.kind() != ErKind::Dirty {
            return None;
        }
        let (_, offsets) = self.index.raw_parts();
        Some(&self.slots[offsets[id.idx()] as usize..offsets[id.idx() + 1] as usize])
    }
}

/// The slot pass: one walk of the Dirty blocks in id order, which is the
/// order each entity's block list is in, so a cursor per entity fills its
/// slots front to back.
fn slots(blocks: &BlockCollection, index: &EntityIndex) -> Vec<u32> {
    let (lists, offsets) = index.raw_parts();
    let mut cursor = offsets[..blocks.num_entities()].to_vec();
    let mut slots = vec![0u32; lists.len()];
    for block in blocks.iter() {
        for (p, e) in block.left().iter().enumerate() {
            let c = &mut cursor[e.idx()];
            slots[*c as usize] = p as u32;
            *c += 1;
        }
    }
    #[cfg(feature = "sanitize")]
    for (i, window) in offsets.windows(2).enumerate() {
        let (start, end) = (window[0] as usize, window[1] as usize);
        for (&k, &slot) in lists[start..end].iter().zip(&slots[start..end]) {
            assert_eq!(
                blocks.block(k as usize).left().get(slot as usize).map(|e| e.idx()),
                Some(i),
                "mb-sanitize: slot {slot} of entity {i} in block {k} does not hold it"
            );
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::Block;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn dirty_context_basics() {
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![Block::dirty(ids(&[0, 1, 2])), Block::dirty(ids(&[2, 3]))],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        assert_eq!(ctx.num_entities(), 4);
        assert_eq!(ctx.recip_cardinality_of(0), 1.0 / 3.0);
        assert_eq!(ctx.recip_cardinality_of(1), 1.0);
        assert!(ctx.comparable(EntityId(0), EntityId(3)));
        assert!(!ctx.comparable(EntityId(1), EntityId(1)));
        assert_eq!(ctx.num_blocks_of(EntityId(2)), 2);
    }

    #[test]
    fn a_slot_is_the_entitys_place_in_its_block() {
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 2, 4])),
                Block::dirty(ids(&[2])),
                Block::dirty(ids(&[1, 3, 4])),
            ],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        assert_eq!(ctx.slots_of(EntityId(4)), Some(&[2, 2][..]));
        assert_eq!(ctx.slots_of(EntityId(2)), Some(&[1, 0][..]));
        assert_eq!(ctx.slots_of(EntityId(0)), Some(&[0][..]));
        assert_eq!(ctx.slots_of(EntityId(1)), Some(&[0][..]));
        let clean = BlockCollection::new(
            ErKind::CleanClean,
            2,
            vec![Block::clean_clean(ids(&[0]), ids(&[1]))],
        );
        assert_eq!(GraphContext::new(&clean, 1).slots_of(EntityId(0)), None);
    }

    #[test]
    fn clean_clean_comparability() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![Block::clean_clean(ids(&[0, 1]), ids(&[2, 3]))],
        );
        let ctx = GraphContext::new(&blocks, 2);
        assert!(ctx.comparable(EntityId(0), EntityId(2)));
        assert!(!ctx.comparable(EntityId(0), EntityId(1)));
        assert!(!ctx.comparable(EntityId(2), EntityId(3)));
        assert!(ctx.is_first(EntityId(1)));
        assert!(!ctx.is_first(EntityId(2)));
    }
}
