//! Incremental snapshot deltas: µs-scale upserts and deletes over a frozen
//! snapshot, plus the compaction merge that folds them away.
//!
//! A snapshot is an immutable batch artifact; a [`DeltaOp`] mutates the
//! *serving state* built over it without touching the CSR arena. The
//! [`DeltaOverlay`] is a small copy-on-write side-table: blocks an op
//! touches are copied out of the arena and patched, appended entities get
//! overlay-resident block lists, unseen tokens grow a vocabulary extension,
//! and deleted entities are tombstoned (their memberships are removed from
//! the patched blocks, so candidate generation skips them without the base
//! member pool ever being rewritten). Everything the scoring core reads
//! goes through [`mb_core::CandidateStore`], so the overlay plugs in at the
//! same seam the loaded view serves the scoring core through.
//!
//! # Semantics and the recall gap
//!
//! - **Upsert at `id == |E|`** appends: Dirty ER grows the split with the
//!   collection, Clean-Clean appends join E₂ (the split is frozen).
//! - **Upsert at `id < |E|`** replaces: the old memberships are detached
//!   first, then the new profile is indexed; upserting a tombstoned id
//!   revives it.
//! - **Delete** tombstones: ids stay stable (no shifting), the entity just
//!   stops appearing anywhere.
//! - Blocking thresholds, filters, and per-block ARCS cardinalities of
//!   *base* blocks are frozen at build time; patched blocks recompute their
//!   cardinality from their patched members. A base token whose block was
//!   dropped (singleton or filtered) has no persisted postings, so a delta
//!   profile cannot link to *base* entities through it — only to other
//!   delta entities sharing it (gathered in a pending posting until the
//!   block rule is met). Delta state is therefore an approximation;
//!   [`merge_ops`] + a rebuild (compaction) restores the exact batch
//!   semantics, bit-identical to building from scratch.
//!
//! # Persistence
//!
//! Ops persist as `delta` sections (id 10) appended after the nine canonical
//! sections — see the [`crate::snapshot`] module docs. [`encode_delta_run`]
//! / [`decode_delta_run`] speak the section payload, and
//! [`append_delta_run`] re-frames a loaded snapshot with one more run under
//! the same checksum discipline.

use crate::codec::{put_profile, put_u32, put_u8, Reader};
use crate::error::SnapshotError;
use crate::snapshot::{frame_sections, parse_table, section_slice, SECTION_DELTA};
use crate::view::SnapshotView;
use er_model::fxhash::{FxHashMap, FxHashSet};
use er_model::tokenize::KeyScratch;
use er_model::{EntityCollection, EntityId, EntityProfile, ErKind, U32s};
use std::sync::Arc;

/// The append sentinel: an upsert targeting this id resolves to the
/// effective collection size at apply time, under the generation lock, so
/// concurrent appenders never race for an id. Persisted and replayed ops
/// always carry the concrete id the sentinel resolved to.
pub const APPEND: u32 = u32::MAX;

/// One incremental mutation against a loaded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Replace the profile at `id`, or append it when `id` equals the
    /// current (effective) collection size.
    Upsert {
        /// Target entity id; `|E|` appends, anything larger is rejected.
        id: u32,
        /// The new profile.
        profile: EntityProfile,
    },
    /// Tombstone the entity at `id`: it stops appearing as a candidate and
    /// its id is never reused until compaction renumbers.
    Delete {
        /// Target entity id; must name a live entity.
        id: u32,
    },
}

impl DeltaOp {
    /// The entity id the op targets.
    pub fn id(&self) -> u32 {
        match self {
            DeltaOp::Upsert { id, .. } => *id,
            DeltaOp::Delete { id } => *id,
        }
    }
}

const OP_UPSERT: u8 = 1;
const OP_DELETE: u8 = 2;

/// Encodes one run of ops into a `delta` section payload.
pub(crate) fn encode_delta_run(ops: &[DeltaOp]) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, ops.len() as u32);
    for op in ops {
        match op {
            DeltaOp::Upsert { id, profile } => {
                put_u8(&mut p, OP_UPSERT);
                put_u32(&mut p, *id);
                put_profile(&mut p, profile);
            }
            DeltaOp::Delete { id } => {
                put_u8(&mut p, OP_DELETE);
                put_u32(&mut p, *id);
            }
        }
    }
    p
}

/// Decodes one `delta` section payload, enforcing the usual hostile-input
/// discipline: declared counts verified against the remaining payload
/// before any allocation, every failure a typed error.
pub(crate) fn decode_delta_run(payload: &[u8]) -> Result<Vec<DeltaOp>, SnapshotError> {
    let mut r = Reader::new(payload, "delta");
    let count = r.u32()? as usize;
    // Every op is at least tag + id = 5 bytes.
    if count.saturating_mul(5) > r.remaining() {
        return Err(SnapshotError::Truncated {
            section: "delta",
            needed: (count.saturating_mul(5) - r.remaining()) as u64,
            available: r.remaining() as u64,
        });
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8()?;
        let id = r.u32()?;
        if id == u32::MAX {
            return Err(SnapshotError::Inconsistent(
                "delta op targets the reserved id u32::MAX".into(),
            ));
        }
        match tag {
            OP_UPSERT => ops.push(DeltaOp::Upsert { id, profile: r.profile()? }),
            OP_DELETE => ops.push(DeltaOp::Delete { id }),
            other => {
                return Err(SnapshotError::Inconsistent(format!("unknown delta op tag {other}")));
            }
        }
    }
    r.finish()?;
    Ok(ops)
}

/// Validates that `runs` replay cleanly over a base collection of
/// `base_entities` profiles: upserts stay dense (append at the current
/// size, never beyond), deletes name live, not-yet-tombstoned entities.
///
/// Pure id arithmetic — no token or block state — so the loader runs it at
/// load time and the overlay replay can't fail later on ids.
pub(crate) fn validate_delta_runs(
    base_entities: usize,
    runs: &[Vec<DeltaOp>],
) -> Result<(), SnapshotError> {
    let mut n = base_entities as u64;
    let mut tombstones: FxHashSet<u32> = FxHashSet::default();
    for (run, ops) in runs.iter().enumerate() {
        for op in ops {
            match op {
                DeltaOp::Upsert { id, .. } => {
                    if u64::from(*id) > n {
                        return Err(SnapshotError::Inconsistent(format!(
                            "delta run {run} upserts entity {id} into a collection of {n}"
                        )));
                    }
                    if u64::from(*id) == n {
                        n += 1;
                    }
                    tombstones.remove(id);
                }
                DeltaOp::Delete { id } => {
                    if u64::from(*id) >= n || !tombstones.insert(*id) {
                        return Err(SnapshotError::Inconsistent(format!(
                            "delta run {run} deletes entity {id}, which is not live"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Re-frames a loaded snapshot with one more delta run appended.
///
/// `base` passed the loader, and the combined op sequence (its runs plus
/// `ops`) is replay-validated against the base collection size, so the
/// output is guaranteed loadable.
pub fn append_delta_run(base: &SnapshotView, ops: &[DeltaOp]) -> Result<Vec<u8>, SnapshotError> {
    let mut runs = base.delta_runs().to_vec();
    runs.push(ops.to_vec());
    validate_delta_runs(base.num_entities(), &runs)?;
    let bytes = base.as_bytes();
    let mut payloads: Vec<(u32, Vec<u8>)> = parse_table(bytes, bytes.len())?
        .iter()
        .map(|e| (e.id, section_slice(bytes, e).to_vec()))
        .collect();
    payloads.push((SECTION_DELTA, encode_delta_run(ops)));
    Ok(frame_sections(&payloads))
}

/// One copy-on-write block: members of each side, ascending — the same
/// left/right convention as the base arena (Dirty keeps everything left).
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlayBlock {
    left: Vec<u32>,
    right: Vec<u32>,
}

impl OverlayBlock {
    fn side_mut(&mut self, right: bool) -> &mut Vec<u32> {
        if right {
            &mut self.right
        } else {
            &mut self.left
        }
    }

    fn insert(&mut self, id: u32, right: bool) {
        let side = self.side_mut(right);
        if let Err(at) = side.binary_search(&id) {
            side.insert(at, id);
        }
    }

    fn remove(&mut self, id: u32, right: bool) {
        let side = self.side_mut(right);
        if let Ok(at) = side.binary_search(&id) {
            side.remove(at);
        }
    }

    fn members(&self, scan_right: bool) -> U32s<'_> {
        U32s::Native(if scan_right { &self.right } else { &self.left })
    }

    fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    fn cardinality(&self, kind: ErKind) -> u64 {
        match kind {
            ErKind::Dirty => {
                let m = self.left.len() as u64;
                m * m.saturating_sub(1) / 2
            }
            ErKind::CleanClean => self.left.len() as u64 * self.right.len() as u64,
        }
    }
}

/// The mutable side-table one serving generation layers over its immutable
/// snapshot arena.
///
/// Immutable once published: a delta apply clones the overlay, patches the
/// clone, and publishes it in a fresh generation — readers pinned to the
/// old generation never observe a half-applied op.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    kind: ErKind,
    base_entities: usize,
    base_blocks: usize,
    base_tokens: usize,
    /// Effective `|E|` (appends grow it; deletes tombstone, never shrink).
    num_entities: usize,
    /// Effective split: tracks `|E|` for Dirty ER, frozen for Clean-Clean.
    split: usize,
    /// The full op log, in apply order — what compaction replays. Each op
    /// is behind an [`Arc`] so cloning the overlay for the next generation
    /// bumps refcounts instead of copying profiles.
    ops: Vec<Arc<DeltaOp>>,
    tombstones: FxHashSet<u32>,
    /// Copy-on-write patches of base blocks, by base block id. Values are
    /// [`Arc`]-shared across generations; a patch clones only the one
    /// block it touches ([`Arc::make_mut`]).
    touched: FxHashMap<u32, Arc<OverlayBlock>>,
    /// Overlay-born blocks; block `base_blocks + i` is `new_blocks[i]`.
    new_blocks: Vec<Arc<OverlayBlock>>,
    /// Overridden per-entity block lists (ascending); every delta-touched
    /// entity has an entry, tombstoned ones an empty one.
    entity_lists: FxHashMap<u32, Arc<Vec<u32>>>,
    /// Vocabulary extension: token text → `base_tokens + i`, insertion
    /// order assigning `i`.
    new_token_ids: FxHashMap<Arc<str>, u32>,
    /// Token id → overlay block id, for promoted pending postings.
    token_routes: FxHashMap<u32, u32>,
    /// Postings gathering delta entities under a token with no live base
    /// block, awaiting promotion (Dirty: two members; Clean-Clean: both
    /// sides inhabited).
    pending: FxHashMap<u32, OverlayBlock>,
    applied: u64,
}

impl DeltaOverlay {
    /// An empty overlay over `view`.
    pub(crate) fn new(view: &SnapshotView) -> DeltaOverlay {
        DeltaOverlay {
            kind: view.kind(),
            base_entities: view.num_entities(),
            base_blocks: view.num_blocks(),
            base_tokens: view.num_tokens(),
            num_entities: view.num_entities(),
            split: view.split(),
            ops: Vec::new(),
            tombstones: FxHashSet::default(),
            touched: FxHashMap::default(),
            new_blocks: Vec::new(),
            entity_lists: FxHashMap::default(),
            new_token_ids: FxHashMap::default(),
            token_routes: FxHashMap::default(),
            pending: FxHashMap::default(),
            applied: 0,
        }
    }

    /// Rebuilds an overlay by replaying persisted runs in order. Ids were
    /// validated at load ([`validate_delta_runs`]), so this only fails on a
    /// sequence that never passed the loader.
    pub(crate) fn replay(
        view: &SnapshotView,
        runs: &[Vec<DeltaOp>],
    ) -> Result<DeltaOverlay, SnapshotError> {
        let mut overlay = DeltaOverlay::new(view);
        let mut keys = KeyScratch::new();
        for ops in runs {
            for op in ops {
                overlay.apply(op.clone(), view, &mut keys)?;
            }
        }
        Ok(overlay)
    }

    /// Effective `|E|` under the overlay.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Effective Clean-Clean boundary under the overlay.
    pub fn split(&self) -> usize {
        self.split
    }

    /// Number of ops applied since the overlay was created.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of currently tombstoned entities.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Whether `id` is tombstoned.
    pub fn is_tombstoned(&self, id: u32) -> bool {
        self.tombstones.contains(&id)
    }

    /// The full op log, in apply order.
    pub fn ops(&self) -> Vec<DeltaOp> {
        self.ops.iter().map(|op| DeltaOp::clone(op)).collect()
    }

    pub(crate) fn num_new_blocks(&self) -> usize {
        self.new_blocks.len()
    }

    pub(crate) fn block_list_override(&self, id: u32) -> Option<&[u32]> {
        self.entity_lists.get(&id).map(|l| l.as_slice())
    }

    /// The patched or overlay-born block `block`, if the overlay owns it.
    pub(crate) fn block(&self, block: usize) -> Option<&OverlayBlock> {
        if block >= self.base_blocks {
            self.new_blocks.get(block - self.base_blocks).map(Arc::as_ref)
        } else {
            self.touched.get(&(block as u32)).map(Arc::as_ref)
        }
    }

    pub(crate) fn members_of<'a>(&self, block: &'a OverlayBlock, scan_right: bool) -> U32s<'a> {
        let _ = self;
        block.members(scan_right)
    }

    pub(crate) fn recip_cardinality(&self, block: &OverlayBlock) -> f64 {
        let c = block.cardinality(self.kind);
        if c == 0 {
            0.0
        } else {
            1.0 / c as f64
        }
    }

    /// Vocabulary-extension lookup for tokens the base snapshot never saw.
    pub(crate) fn new_token_id(&self, token: &str) -> Option<u32> {
        self.new_token_ids.get(token).copied()
    }

    /// The overlay block a token routes to, when a pending posting under it
    /// has been promoted.
    pub(crate) fn token_route(&self, token_id: u32) -> Option<u32> {
        self.token_routes.get(&token_id).copied()
    }

    /// Which side of a block `id` belongs to.
    fn is_right(&self, id: u32) -> bool {
        self.kind == ErKind::CleanClean && (id as usize) >= self.split
    }

    /// Copies base block `b` out of the arena for patching. A block already
    /// copied by an *earlier generation* is still shared through its `Arc`;
    /// [`Arc::make_mut`] re-copies just that block, so patching stays O(one
    /// block) while the overlay clone stays O(refcounts).
    fn cow_block(&mut self, b: u32, view: &SnapshotView) -> &mut OverlayBlock {
        let arc = self.touched.entry(b).or_insert_with(|| {
            let (lo, hi) = (
                view.offsets().get(b as usize) as usize,
                view.offsets().get(b as usize + 1) as usize,
            );
            let sp = view.splits().get(b as usize) as usize;
            // Dirty blocks have sp == hi: whole block left, right empty —
            // the arena convention.
            Arc::new(OverlayBlock {
                left: view.members().slice(lo, sp).to_vec(),
                right: view.members().slice(sp, hi).to_vec(),
            })
        });
        Arc::make_mut(arc)
    }

    /// Removes every current membership of `id` (COW-patching each block it
    /// sits in) and empties its block list. The inverse of indexing.
    fn detach(&mut self, id: u32, view: &SnapshotView) {
        let right = self.is_right(id);
        let known = self.entity_lists.get(&id);
        // A pending posting only ever holds ids `index_profile` put there,
        // and `index_profile` always leaves an `entity_lists` entry (which
        // nothing removes): an id without one — a base entity touched for
        // the first time — is in no pending posting.
        let maybe_pending = known.is_some();
        let list: Vec<u32> = match known {
            Some(l) => l.as_ref().clone(),
            None if (id as usize) < self.base_entities => {
                let lo = view.idx_offsets().get(id as usize) as usize;
                let hi = view.idx_offsets().get(id as usize + 1) as usize;
                view.lists().slice(lo, hi).to_vec()
            }
            None => Vec::new(),
        };
        for b in list {
            if b as usize >= self.base_blocks {
                // lint:allow(panic-reachability) in range: overlay block ids
                // in entity lists always name an existing new_blocks entry.
                Arc::make_mut(&mut self.new_blocks[b as usize - self.base_blocks])
                    .remove(id, right);
            } else {
                self.cow_block(b, view).remove(id, right);
            }
        }
        // Pending postings are not in any block list yet; sweep them too.
        if maybe_pending {
            self.pending.retain(|_, posting| {
                posting.remove(id, right);
                posting.len() > 0
            });
        }
        self.entity_lists.insert(id, Arc::new(Vec::new()));
    }

    /// Applies one op, returning the id it resolved to. The overlay is a
    /// private clone while this runs — on error the caller discards it, so
    /// published overlays are never half-applied. `keys` is the tokenizer's
    /// scratch: contents in and out are irrelevant, only its allocations
    /// carry over from one op to the next.
    pub(crate) fn apply(
        &mut self,
        op: DeltaOp,
        view: &SnapshotView,
        keys: &mut KeyScratch,
    ) -> Result<u32, SnapshotError> {
        match &op {
            DeltaOp::Upsert { id, profile } => {
                let id = *id;
                if id as usize > self.num_entities || id == u32::MAX {
                    return Err(SnapshotError::Inconsistent(format!(
                        "upsert id {id} outside the dense id space (|E| = {})",
                        self.num_entities
                    )));
                }
                if (id as usize) < self.num_entities && !self.tombstones.contains(&id) {
                    self.detach(id, view);
                }
                self.tombstones.remove(&id);
                if id as usize == self.num_entities {
                    self.num_entities += 1;
                    if self.kind == ErKind::Dirty {
                        self.split = self.num_entities;
                    }
                }
                self.index_profile(id, profile, view, keys);
            }
            DeltaOp::Delete { id } => {
                let id = *id;
                if id as usize >= self.num_entities || self.tombstones.contains(&id) {
                    return Err(SnapshotError::Inconsistent(format!(
                        "delete targets entity {id}, which is not live (|E| = {})",
                        self.num_entities
                    )));
                }
                self.detach(id, view);
                self.tombstones.insert(id);
            }
        }
        self.applied += 1;
        let id = op.id();
        self.ops.push(Arc::new(op));
        Ok(id)
    }

    /// Tokenizes `profile` with the frozen normalization and threads the
    /// entity into blocks: live base blocks via COW patch, dropped or
    /// unseen tokens via pending postings that promote once the block rule
    /// (two members; both sides for Clean-Clean) is met.
    fn index_profile(
        &mut self,
        id: u32,
        profile: &EntityProfile,
        view: &SnapshotView,
        keys: &mut KeyScratch,
    ) {
        let right = self.is_right(id);
        keys.fill_tokens(profile);
        let mut list: Vec<u32> = Vec::new();
        for token in keys.iter() {
            let tid = match view.find_token(token.as_bytes()) {
                Some(tid) => tid,
                None => match self.new_token_ids.get(token) {
                    Some(&tid) => tid,
                    None => {
                        let tid = (self.base_tokens + self.new_token_ids.len()) as u32;
                        self.new_token_ids.insert(Arc::from(token), tid);
                        tid
                    }
                },
            };
            if let Some(b) = self.token_routes.get(&tid).copied() {
                // lint:allow(panic-reachability) in range: token routes only
                // ever point at existing new_blocks entries.
                Arc::make_mut(&mut self.new_blocks[b as usize - self.base_blocks])
                    .insert(id, right);
                list.push(b);
                continue;
            }
            // Extension tokens lie past the view's routes: `None` for them.
            if let Some(base_block) = view.token_block(tid) {
                self.cow_block(base_block, view).insert(id, right);
                list.push(base_block);
                continue;
            }
            // No live block for this token: gather in a pending posting.
            let posting = self.pending.entry(tid).or_default();
            posting.insert(id, right);
            let promote = match self.kind {
                ErKind::Dirty => posting.left.len() >= 2,
                ErKind::CleanClean => !posting.left.is_empty() && !posting.right.is_empty(),
            };
            if promote {
                let posting = self.pending.remove(&tid).unwrap_or_default();
                let nb = (self.base_blocks + self.new_blocks.len()) as u32;
                // The co-members waiting in the posting gain the new block;
                // the entity being indexed collects it with the rest of its
                // list below.
                for &m in posting.left.iter().chain(posting.right.iter()) {
                    if m != id {
                        let l = Arc::make_mut(self.entity_lists.entry(m).or_default());
                        if let Err(at) = l.binary_search(&nb) {
                            l.insert(at, nb);
                        }
                    }
                }
                self.new_blocks.push(Arc::new(posting));
                self.token_routes.insert(tid, nb);
                list.push(nb);
            }
        }
        list.sort_unstable();
        list.dedup();
        self.entity_lists.insert(id, Arc::new(list));
    }
}

/// Replays an op log over the original profile collection — the merge step
/// of compaction. Upserts apply in order; deletes are deferred to the end
/// (descending, and cancelled by a later upsert of the same id) so the
/// overlay's stable-id semantics translate to the collection's shifting
/// ones exactly once.
pub fn merge_ops(collection: &mut EntityCollection, ops: &[DeltaOp]) -> Result<(), SnapshotError> {
    let oops = |e: er_model::Error| SnapshotError::Inconsistent(format!("delta replay: {e}"));
    let mut deletes: Vec<u32> = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Upsert { id, profile } => {
                deletes.retain(|d| d != id);
                collection.upsert(EntityId(*id), profile.clone()).map_err(oops)?;
            }
            DeltaOp::Delete { id } => deletes.push(*id),
        }
    }
    deletes.sort_unstable();
    for id in deletes.into_iter().rev() {
        collection.remove(EntityId(id)).map_err(oops)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_bytes;

    fn profile(uri: &str, value: &str) -> EntityProfile {
        EntityProfile::new(uri).with("v", value)
    }

    #[test]
    fn delta_run_roundtrips() {
        let ops = vec![
            DeltaOp::Upsert { id: 3, profile: profile("p3", "jack miller") },
            DeltaOp::Delete { id: 1 },
            DeltaOp::Upsert { id: 0, profile: EntityProfile::new("bare") },
        ];
        let payload = encode_delta_run(&ops);
        assert_eq!(decode_delta_run(&payload).unwrap(), ops);
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // An op count claiming 2^32-1 entries over a few bytes.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        put_u8(&mut p, OP_DELETE);
        assert!(matches!(
            decode_delta_run(&p),
            Err(SnapshotError::Truncated { section: "delta", .. })
        ));
        // An attribute count doing the same inside an upsert.
        let mut p = Vec::new();
        put_u32(&mut p, 1);
        put_u8(&mut p, OP_UPSERT);
        put_u32(&mut p, 0);
        put_bytes(&mut p, b"uri");
        put_u32(&mut p, u32::MAX);
        assert!(matches!(
            decode_delta_run(&p),
            Err(SnapshotError::Truncated { section: "delta", .. })
        ));
    }

    #[test]
    fn unknown_tags_and_reserved_ids_are_typed_errors() {
        let mut p = Vec::new();
        put_u32(&mut p, 1);
        put_u8(&mut p, 9);
        put_u32(&mut p, 0);
        assert!(matches!(decode_delta_run(&p), Err(SnapshotError::Inconsistent(_))));
        let mut p = Vec::new();
        put_u32(&mut p, 1);
        put_u8(&mut p, OP_DELETE);
        put_u32(&mut p, u32::MAX);
        assert!(matches!(decode_delta_run(&p), Err(SnapshotError::Inconsistent(_))));
    }

    #[test]
    fn replay_validation_tracks_the_id_space() {
        let up = |id| DeltaOp::Upsert { id, profile: profile("p", "x") };
        // Appends stay dense.
        assert!(validate_delta_runs(2, &[vec![up(2), up(3)]]).is_ok());
        assert!(validate_delta_runs(2, &[vec![up(4)]]).is_err());
        // Deleting twice (even across runs) is invalid; revive-then-delete
        // is fine.
        assert!(validate_delta_runs(
            2,
            &[vec![DeltaOp::Delete { id: 1 }], vec![DeltaOp::Delete { id: 1 },]]
        )
        .is_err());
        assert!(validate_delta_runs(
            2,
            &[vec![DeltaOp::Delete { id: 1 }], vec![up(1), DeltaOp::Delete { id: 1 }],]
        )
        .is_ok());
        // Deleting an unknown entity is invalid.
        assert!(validate_delta_runs(2, &[vec![DeltaOp::Delete { id: 2 }]]).is_err());
    }

    #[test]
    fn merge_ops_replays_upserts_then_deferred_deletes() {
        let mut c = EntityCollection::dirty(vec![
            profile("p0", "a"),
            profile("p1", "b"),
            profile("p2", "c"),
        ]);
        merge_ops(
            &mut c,
            &[
                DeltaOp::Upsert { id: 3, profile: profile("p3", "d") },
                DeltaOp::Delete { id: 1 },
                DeltaOp::Upsert { id: 0, profile: profile("p0", "a2") },
            ],
        )
        .unwrap();
        // p1 removed, p3 appended, p0 replaced; ids are renumbered densely.
        assert_eq!(c.len(), 3);
        assert_eq!(c.profile(EntityId(0)).values().next(), Some("a2"));
        assert_eq!(c.profile(EntityId(1)).uri(), "p2");
        assert_eq!(c.profile(EntityId(2)).uri(), "p3");
    }

    #[test]
    fn merge_ops_cancels_deletes_revived_by_later_upserts() {
        let mut c = EntityCollection::dirty(vec![profile("p0", "a"), profile("p1", "b")]);
        merge_ops(
            &mut c,
            &[
                DeltaOp::Delete { id: 0 },
                DeltaOp::Upsert { id: 0, profile: profile("p0", "reborn") },
            ],
        )
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.profile(EntityId(0)).values().next(), Some("reborn"));
    }
}
