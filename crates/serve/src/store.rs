//! The storage adapter between a loaded snapshot and the scoring core.
//!
//! [`EngineStore`] is a flat, `Copy` [`CandidateStore`] over a
//! [`SnapshotView`]: three array views and the view's entity index, plus
//! three scalars. The scoring core (`mb_core::NeighborhoodScorer`) is
//! generic over [`CandidateStore`], so the serve path runs the exact scan
//! loops the batch pipeline does and returns bit-identical candidates.

use crate::delta::DeltaOverlay;
use crate::view::SnapshotView;
use er_model::{EntityId, EntityIndex, ErKind, U32s};
use mb_core::CandidateStore;

/// A flat candidate store over borrowed snapshot arrays, optionally
/// patched by a generation's delta overlay.
///
/// `Copy`, so scorers take it by value and batch fan-out shares it across
/// threads without reference-counting. With an overlay attached, reads
/// dispatch per block / per entity: overlay-owned state (patched blocks,
/// overlay-born blocks, overridden block lists) comes from the side-table,
/// everything else straight from the arena — so the scoring core stays
/// oblivious to deltas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineStore<'s> {
    kind: ErKind,
    /// Effective split (overlay-adjusted when attached).
    split: usize,
    /// Effective `|E|` (overlay-adjusted when attached).
    num_entities: usize,
    /// CSR member pool.
    members: U32s<'s>,
    /// Block start offsets (`num_blocks + 1`).
    offsets: U32s<'s>,
    /// Absolute split offsets (one per block; `== hi` for Dirty).
    splits: U32s<'s>,
    /// The base entity index, inverted from the arena at load.
    index: &'s EntityIndex,
    /// The generation's delta side-table, when any ops are applied.
    overlay: Option<&'s DeltaOverlay>,
}

impl<'s> EngineStore<'s> {
    pub(crate) fn from_view(v: &'s SnapshotView) -> EngineStore<'s> {
        EngineStore {
            kind: v.kind(),
            split: v.split(),
            num_entities: v.num_entities(),
            members: v.members(),
            offsets: v.offsets(),
            splits: v.splits(),
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

    /// The block's `(lo, split, hi)` member-pool bracket.
    #[inline]
    fn bounds(&self, block: usize) -> (usize, usize, usize) {
        (
            self.offsets.get(block) as usize,
            self.splits.get(block) as usize,
            self.offsets.get(block + 1) as usize,
        )
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
        self.splits.len() + self.overlay.map_or(0, |o| o.num_new_blocks())
    }

    fn block_list(&self, id: EntityId) -> U32s<'_> {
        if let Some(o) = self.overlay {
            if let Some(list) = o.block_list_override(id.0) {
                return U32s::Native(list);
            }
            if id.0 as usize >= self.base_entities() {
                // An appended entity always has an override; anything else
                // past the arena is out of range — report empty rather
                // than walking off the offset table.
                return U32s::EMPTY;
            }
        }
        U32s::Native(self.index.block_list(id))
    }

    fn members_of(&self, block: usize, scan_right: bool) -> U32s<'_> {
        if let Some(o) = self.overlay {
            if let Some(b) = o.block(block) {
                return o.members_of(b, scan_right);
            }
        }
        let (lo, sp, hi) = self.bounds(block);
        // Dirty blocks have sp == hi, so the "left" side is the whole
        // block — same convention as `Block::left()`.
        if scan_right {
            self.members.slice(sp, hi)
        } else {
            self.members.slice(lo, sp)
        }
    }

    fn recip_cardinality_of(&self, block: usize) -> f64 {
        if let Some(o) = self.overlay {
            if let Some(b) = o.block(block) {
                return o.recip_cardinality(b);
            }
        }
        let (lo, sp, hi) = self.bounds(block);
        let c = match self.kind {
            ErKind::Dirty => {
                let m = (hi - lo) as u64;
                m * m.saturating_sub(1) / 2
            }
            ErKind::CleanClean => (sp - lo) as u64 * (hi - sp) as u64,
        };
        1.0 / c as f64
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
            let left: Vec<u32> = blocks.block(k).left().iter().map(|e| e.0).collect();
            assert_eq!(store.members_of(k, false).to_vec(), left, "block {k} left members");
            let recip = 1.0 / blocks.block(k).cardinality() as f64;
            assert_eq!(store.recip_cardinality_of(k).to_bits(), recip.to_bits());
        }
        for i in 0..store.num_entities() as u32 {
            assert_eq!(
                store.block_list(EntityId(i)).to_vec(),
                index.block_list(EntityId(i)),
                "entity {i} block list"
            );
        }
    }
}
