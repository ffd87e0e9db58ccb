//! The storage adapter between a loaded snapshot and the scoring core.
//!
//! [`EngineStore`] is a flat, `Copy` [`CandidateStore`] over a
//! [`SnapshotView`]: the snapshot's block collection and the entity index
//! load derived, plus three scalars. The scoring core
//! (`mb_core::NeighborhoodScorer`) is generic over [`CandidateStore`], so
//! the serve path runs the exact scan loops the batch pipeline does and
//! returns bit-identical candidates.

use crate::delta::DeltaOverlay;
use crate::view::SnapshotView;
use er_model::{BlockCollection, BlockRef, EntityId, EntityIndex, ErKind};
use mb_core::CandidateStore;

/// A flat candidate store over a loaded snapshot, optionally patched by a
/// generation's delta overlay.
///
/// `Copy`, so scorers take it by value and batch fan-out shares it across
/// threads without reference-counting. With an overlay attached, reads
/// dispatch per block / per entity: overlay-owned state (patched blocks,
/// overlay-born blocks, overridden block lists) comes from the side-table,
/// everything else straight from the snapshot — so the scoring core stays
/// oblivious to deltas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineStore<'s> {
    kind: ErKind,
    /// Effective split (overlay-adjusted when attached).
    split: usize,
    /// Effective `|E|` (overlay-adjusted when attached).
    num_entities: usize,
    /// The snapshot's block collection.
    blocks: &'s BlockCollection,
    /// The base entity index, inverted from the blocks at load.
    index: &'s EntityIndex,
    /// The generation's delta side-table, when any ops are applied.
    overlay: Option<&'s DeltaOverlay>,
}

impl<'s> EngineStore<'s> {
    pub(crate) fn from_view(v: &'s SnapshotView) -> EngineStore<'s> {
        let snapshot = v.snapshot();
        EngineStore {
            kind: snapshot.kind(),
            split: snapshot.split(),
            num_entities: snapshot.num_entities(),
            blocks: snapshot.blocks(),
            index: v.index(),
            overlay: None,
        }
    }

    /// Attaches a delta overlay: `|E|` and the split become the effective
    /// (overlay-adjusted) values, and block/list reads dispatch through the
    /// side-table.
    pub(crate) fn with_overlay(mut self, overlay: &'s DeltaOverlay) -> EngineStore<'s> {
        self.split = overlay.split();
        self.num_entities = overlay.num_entities();
        self.overlay = Some(overlay);
        self
    }

    /// The delta side-table reads are patched through, if one is attached.
    pub(crate) fn overlay(&self) -> Option<&'s DeltaOverlay> {
        self.overlay
    }

    /// Base (arena) collection size, regardless of overlay appends.
    fn base_entities(&self) -> usize {
        self.index.num_entities()
    }
}

impl CandidateStore for EngineStore<'_> {
    fn kind(&self) -> ErKind {
        self.kind
    }

    fn split(&self) -> usize {
        self.split
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn num_blocks(&self) -> usize {
        self.blocks.size() + self.overlay.map_or(0, |o| o.num_new_blocks())
    }

    fn block_list(&self, id: EntityId) -> &[u32] {
        if let Some(o) = self.overlay {
            if let Some(list) = o.block_list_override(id.0) {
                return list;
            }
            if id.0 as usize >= self.base_entities() {
                // An appended entity always has an override; anything else
                // past the arena is out of range — report empty rather
                // than walking off the offset table.
                return &[];
            }
        }
        self.index.block_list(id)
    }

    fn members_of(&self, block: usize, scan_right: bool) -> &[EntityId] {
        // A block id comes from a block list or a token route, so it names
        // an overlay block or a block of the collection.
        let b: BlockRef<'_> = match self.overlay.and_then(|o| o.block(block)) {
            Some(b) => b.as_ref(),
            None => self.blocks.block(block),
        };
        // Dirty blocks keep every member left — `BlockRef::left()`.
        if scan_right {
            b.right()
        } else {
            b.left()
        }
    }

    fn recip_cardinality_of(&self, block: usize) -> f64 {
        if let Some(o) = self.overlay {
            if let Some(b) = o.block(block) {
                return o.recip_cardinality(b);
            }
        }
        1.0 / self.blocks.block(block).cardinality() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use er_model::{EntityCollection, EntityProfile};
    use mb_core::PipelineConfig;

    fn fixture() -> Snapshot {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("p1").with("name", "jack miller"),
            EntityProfile::new("p2").with("fullname", "jack lloyd miller"),
            EntityProfile::new("p3").with("n", "erick lloyd"),
        ]);
        Snapshot::build(&e, PipelineConfig::default()).unwrap()
    }

    #[test]
    fn view_store_reads_back_the_built_blocks_and_index() {
        let snapshot = fixture();
        let view = SnapshotView::from_bytes(snapshot.to_bytes()).unwrap();
        let store = EngineStore::from_view(&view);
        let (blocks, index) = (snapshot.blocks(), EntityIndex::build(snapshot.blocks()));
        assert_eq!(store.kind(), snapshot.kind());
        assert_eq!(store.num_entities(), snapshot.num_entities());
        assert_eq!(store.num_blocks(), blocks.size());
        for k in 0..store.num_blocks() {
            let left = blocks.block(k).left();
            assert_eq!(store.members_of(k, false), left, "block {k} left members");
            let recip = 1.0 / blocks.block(k).cardinality() as f64;
            assert_eq!(store.recip_cardinality_of(k).to_bits(), recip.to_bits());
        }
        for i in 0..store.num_entities() as u32 {
            assert_eq!(
                store.block_list(EntityId(i)),
                index.block_list(EntityId(i)),
                "entity {i} block list"
            );
        }
    }

    #[test]
    fn a_block_left_without_a_comparison_weighs_nothing() {
        use crate::delta::{DeltaOp, DeltaOverlay};
        use crate::view::TokenScratch;
        let p = |uri: &str, text: &str| EntityProfile::new(uri).with("v", text);
        // A probe scans a block's members whatever its other side holds, so
        // it reads the reciprocal of a block that deletes have left without a
        // comparison: that is 0 — not `1 / 0` for a Dirty block of one, and
        // not the Dirty `‖b‖` that `BlockRef` reads off the E₁ side of a
        // Clean-Clean block whose E₂ side was emptied.
        let dirty = EntityCollection::dirty(vec![p("p0", "jack"), p("p1", "jack"), p("p2", "x")]);
        let clean = EntityCollection::clean_clean(
            vec![p("a0", "jack"), p("a1", "jack")],
            vec![p("b0", "jack"), p("b1", "x")],
        );
        for (collection, deleted, left) in [(dirty, 1, &[0][..]), (clean, 2, &[0, 1])] {
            let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
            let view = SnapshotView::try_from(snapshot).unwrap();
            let block = view.find_token(b"jack").and_then(|t| view.token_block(t)).unwrap();
            let mut overlay = DeltaOverlay::new(&view);
            let op = DeltaOp::Delete { id: deleted };
            overlay.apply(op, &view, &mut TokenScratch::default()).unwrap();
            let store = EngineStore::from_view(&view).with_overlay(&overlay);
            let members: Vec<u32> =
                store.members_of(block as usize, false).iter().map(|e| e.0).collect();
            assert_eq!(members, left);
            assert!(store.members_of(block as usize, true).is_empty());
            assert_eq!(store.recip_cardinality_of(block as usize), 0.0);
        }
    }
}
