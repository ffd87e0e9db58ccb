//! Incremental snapshot deltas: µs-scale upserts and deletes over a frozen
//! snapshot, plus the compaction merge that folds them away.
//!
//! A snapshot is an immutable batch artifact; a [`DeltaOp`] mutates the
//! *serving state* built over it without touching the loaded snapshot's
//! block collection. The [`DeltaOverlay`] is a small copy-on-write
//! side-table: blocks an op touches are copied out of that collection and
//! patched, appended entities get overlay-resident block lists, unseen
//! tokens grow a vocabulary extension, and deleted entities are tombstoned
//! (their memberships are removed from the patched blocks, so candidate
//! generation skips them without the base member pool ever being
//! rewritten). A patched block is read as the same `er_model::BlockRef` a
//! base block is — its sides, and `‖b‖` from the one formula. Everything
//! the scoring core reads goes through [`mb_core::CandidateStore`], so the
//! overlay plugs in at the same seam the loaded view serves the scoring
//! core through.
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
//! Ops persist as `delta` sections (id 7) appended after the six canonical
//! sections — see the [`crate::snapshot`] module docs. [`encode_delta_run`]
//! / [`decode_delta_run`] speak the section payload, and
//! [`append_delta_run`] re-frames a snapshot file with one more run under
//! the same checksum discipline.

use crate::codec::{put_profile, put_u32, put_u8, Reader};
use crate::error::SnapshotError;
use crate::idmap::{IdMap, IdSet};
use crate::snapshot::{
    decode_meta, frame_sections, parse_table, section_slice, SECTION_DELTA, SECTION_META,
};
use crate::view::{distinct_by_bytes, token_hash, SnapshotView, TokenScratch};
use er_model::fxhash::FxHashSet;
use er_model::{BlockRef, EntityCollection, EntityId, EntityProfile, ErKind};
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

/// Re-frames a snapshot file with one more delta run appended.
///
/// Every section of `file` is copied byte for byte, and the combined op
/// sequence (its runs plus `ops`) is replay-validated against its
/// collection size, so the output loads whenever `file` does.
pub fn append_delta_run(file: &[u8], ops: &[DeltaOp]) -> Result<Vec<u8>, SnapshotError> {
    let table = parse_table(file, file.len())?;
    let mut payloads: Vec<(u32, Vec<u8>)> =
        table.iter().map(|e| (e.id, section_slice(file, e).to_vec())).collect();
    let mut runs = Vec::new();
    let mut num_entities = 0;
    for (id, payload) in &payloads {
        match *id {
            SECTION_META => num_entities = decode_meta(payload)?.num_entities,
            SECTION_DELTA => runs.push(decode_delta_run(payload)?),
            _ => {}
        }
    }
    runs.push(ops.to_vec());
    validate_delta_runs(num_entities, &runs)?;
    payloads.push((SECTION_DELTA, encode_delta_run(ops)));
    Ok(frame_sections(&payloads))
}

/// One copy-on-write block: members of each side, ascending — the same
/// left/right convention as the base collection (Dirty keeps everything
/// left). Read through [`OverlayBlock::as_ref`].
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlayBlock {
    left: Vec<EntityId>,
    right: Vec<EntityId>,
}

impl OverlayBlock {
    fn side_mut(&mut self, right: bool) -> &mut Vec<EntityId> {
        if right {
            &mut self.right
        } else {
            &mut self.left
        }
    }

    fn insert(&mut self, id: u32, right: bool) {
        let side = self.side_mut(right);
        if let Err(at) = side.binary_search(&EntityId(id)) {
            side.insert(at, EntityId(id));
        }
    }

    fn remove(&mut self, id: u32, right: bool) {
        let side = self.side_mut(right);
        if let Ok(at) = side.binary_search(&EntityId(id)) {
            side.remove(at);
        }
    }

    /// The block as the collection's view type: its two sides, `|b|` and
    /// `‖b‖`.
    pub(crate) fn as_ref(&self) -> BlockRef<'_> {
        BlockRef::from_slices(&self.left, &self.right)
    }
}

/// What the overlay knows of one delta-touched entity.
#[derive(Debug, Clone, Default)]
struct EntityEntry {
    /// Its overridden block list, ascending; empty while tombstoned.
    blocks: Vec<u32>,
    /// Token ids of the pending postings it waits in — what a detach has
    /// to visit, so that it visits nothing else.
    waiting: Vec<u32>,
}

/// The vocabulary-extension tokens whose hashes share one 32-bit key, with
/// their ids: one, but for a collision.
type TokenBucket = Vec<(Box<str>, u32)>;

/// The key a vocabulary-extension token is filed under.
fn token_key(token: &str) -> u32 {
    (token_hash(token.as_bytes()) >> 32) as u32
}

/// The mutable side-table one serving generation layers over its immutable
/// snapshot arena.
///
/// Immutable once published: a delta apply clones the overlay, patches the
/// clone, and publishes it in a fresh generation — readers pinned to the
/// old generation never observe a half-applied op. Every table is an
/// [`IdMap`], so the clone is a refcount per table, the patch copies the
/// trie paths the op touches, and dropping a retired generation frees those
/// paths' previous copies: all three cost what the op touched, whatever the
/// overlay has accumulated.
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
    /// The full op log by sequence number — what compaction replays.
    ops: IdMap<Arc<DeltaOp>>,
    tombstones: IdMap<()>,
    /// Every block the overlay owns, by block id: copy-on-write patches of
    /// base blocks below `base_blocks`, overlay-born blocks from there up.
    /// A patch re-copies only the one block it touches ([`Arc::make_mut`]).
    blocks: IdMap<Arc<OverlayBlock>>,
    num_new_blocks: usize,
    /// Every delta-touched entity, tombstoned ones included.
    entities: IdMap<Arc<EntityEntry>>,
    /// The keys of `entities` as a bitmap, which a read asks first: a query
    /// wants the block count of every neighbour it scores, and nearly all
    /// of them are entities no delta has touched.
    touched: IdSet,
    /// Vocabulary extension by [`token_key`]; the `i`-th token to join has
    /// id `base_tokens + i`.
    new_tokens: IdMap<Arc<TokenBucket>>,
    num_new_tokens: usize,
    /// Token id → overlay block id, for promoted pending postings.
    token_routes: IdMap<u32>,
    /// Postings by token id, gathering delta entities under a token with no
    /// live base block, awaiting promotion (Dirty: two members;
    /// Clean-Clean: both sides inhabited).
    pending: IdMap<Arc<OverlayBlock>>,
}

impl DeltaOverlay {
    /// An empty overlay over `view`.
    pub(crate) fn new(view: &SnapshotView) -> DeltaOverlay {
        let base = view.snapshot();
        DeltaOverlay {
            kind: base.kind(),
            base_entities: base.num_entities(),
            base_blocks: base.blocks().size(),
            base_tokens: base.tokens().len(),
            num_entities: base.num_entities(),
            split: base.split(),
            ops: IdMap::default(),
            tombstones: IdMap::default(),
            blocks: IdMap::default(),
            num_new_blocks: 0,
            entities: IdMap::default(),
            touched: IdSet::default(),
            new_tokens: IdMap::default(),
            num_new_tokens: 0,
            token_routes: IdMap::default(),
            pending: IdMap::default(),
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
        let mut tokens = TokenScratch::default();
        for ops in runs {
            for op in ops {
                overlay.apply(op.clone(), view, &mut tokens)?;
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
        self.ops.len() as u64
    }

    /// Number of currently tombstoned entities.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Whether `id` is tombstoned.
    pub fn is_tombstoned(&self, id: u32) -> bool {
        self.tombstones.contains(id)
    }

    /// The full op log, in apply order.
    pub fn ops(&self) -> Vec<DeltaOp> {
        self.ops.iter().map(|(_, op)| DeltaOp::clone(op)).collect()
    }

    pub(crate) fn num_new_blocks(&self) -> usize {
        self.num_new_blocks
    }

    pub(crate) fn block_list_override(&self, id: u32) -> Option<&[u32]> {
        if !self.touched.contains(id) {
            return None;
        }
        self.entities.get(id).map(|e| e.blocks.as_slice())
    }

    /// The patched or overlay-born block `block`, if the overlay owns it.
    pub(crate) fn block(&self, block: usize) -> Option<&OverlayBlock> {
        self.blocks.get(u32::try_from(block).ok()?).map(Arc::as_ref)
    }

    /// `1 / ‖b‖` of an overlay block, and `0` for one that deletes have
    /// left without a comparison: a probe still scans such a block's members
    /// (a Dirty one left with one member, a Clean-Clean one with one side
    /// emptied), and they gain nothing from it.
    pub(crate) fn recip_cardinality(&self, block: &OverlayBlock) -> f64 {
        let b = block.as_ref();
        // `BlockRef` reads a block with no right side as a Dirty one; in a
        // Clean-Clean overlay that is a block whose E₂ side was emptied.
        let c = match self.kind {
            ErKind::CleanClean if b.right().is_empty() => 0,
            _ => b.cardinality(),
        };
        if c == 0 {
            0.0
        } else {
            1.0 / c as f64
        }
    }

    /// Vocabulary-extension lookup for tokens the base snapshot never saw.
    pub(crate) fn new_token_id(&self, token: &str) -> Option<u32> {
        let bucket = self.new_tokens.get(token_key(token))?;
        bucket.iter().find(|(text, _)| **text == *token).map(|(_, id)| *id)
    }

    /// The overlay block a token routes to, when a pending posting under it
    /// has been promoted.
    pub(crate) fn token_route(&self, token_id: u32) -> Option<u32> {
        self.token_routes.get(token_id).copied()
    }

    /// Which side of a block `id` belongs to.
    fn is_right(&self, id: u32) -> bool {
        self.kind == ErKind::CleanClean && (id as usize) >= self.split
    }

    /// Edits block `b` in this generation's own copy of it. A base block is
    /// copied out of the arena the first time (an overlay-born one is in
    /// the map from birth); a block an *earlier generation* copied is still
    /// shared with it through its `Arc`, and [`Arc::make_mut`] re-copies
    /// just that block.
    fn patch_block(&mut self, b: u32, view: &SnapshotView, edit: impl FnOnce(&mut OverlayBlock)) {
        let block = self.blocks.get_or_insert_with(b, || {
            // Dirty blocks keep every member left, right empty — the arena
            // convention.
            let base = view.snapshot().blocks().block(b as usize);
            Arc::new(OverlayBlock { left: base.left().to_vec(), right: base.right().to_vec() })
        });
        if let Some(block) = block {
            edit(Arc::make_mut(block));
        }
    }

    /// Files `entry` as what the overlay knows of `id`.
    fn set_entity(&mut self, id: u32, entry: EntityEntry) {
        self.touched.insert(id);
        self.entities.insert(id, Arc::new(entry));
    }

    /// Removes every current membership of `id`: COW-patches each block it
    /// sits in and leaves each pending posting it waits in. The inverse of
    /// indexing; the caller files the entity's next entry.
    fn detach(&mut self, id: u32, view: &SnapshotView) {
        let right = self.is_right(id);
        let entry = match self.entities.get(id) {
            Some(entry) => EntityEntry::clone(entry),
            // A base entity touched for the first time: its blocks are the
            // arena's, and it waits nowhere.
            None if (id as usize) < self.base_entities => {
                let blocks = view.index().block_list(EntityId(id)).to_vec();
                EntityEntry { blocks, waiting: Vec::new() }
            }
            None => EntityEntry::default(),
        };
        for b in entry.blocks {
            self.patch_block(b, view, |block| block.remove(id, right));
        }
        for token in entry.waiting {
            let emptied = self.pending.get_mut(token).is_some_and(|posting| {
                let posting = Arc::make_mut(posting);
                posting.remove(id, right);
                posting.as_ref().size() == 0
            });
            if emptied {
                self.pending.remove(token);
            }
        }
    }

    /// Applies one op, returning the id it resolved to. The overlay is a
    /// private clone while this runs — on error the caller discards it, so
    /// published overlays are never half-applied. `tokens` is the
    /// tokenizer's and the token lookup's scratch: contents in and out are
    /// irrelevant, only its allocations carry over from one op to the next.
    pub(crate) fn apply(
        &mut self,
        op: DeltaOp,
        view: &SnapshotView,
        tokens: &mut TokenScratch,
    ) -> Result<u32, SnapshotError> {
        let Ok(sequence) = u32::try_from(self.ops.len()) else {
            return Err(SnapshotError::Inconsistent("the op log is full: compact".into()));
        };
        match &op {
            DeltaOp::Upsert { id, profile } => {
                let id = *id;
                if id as usize > self.num_entities || id == u32::MAX {
                    return Err(SnapshotError::Inconsistent(format!(
                        "upsert id {id} outside the dense id space (|E| = {})",
                        self.num_entities
                    )));
                }
                if (id as usize) < self.num_entities && self.tombstones.remove(id).is_none() {
                    self.detach(id, view);
                }
                if id as usize == self.num_entities {
                    self.num_entities += 1;
                    if self.kind == ErKind::Dirty {
                        self.split = self.num_entities;
                    }
                }
                self.index_profile(id, profile, view, tokens);
            }
            DeltaOp::Delete { id } => {
                let id = *id;
                if id as usize >= self.num_entities || self.tombstones.contains(id) {
                    return Err(SnapshotError::Inconsistent(format!(
                        "delete targets entity {id}, which is not live (|E| = {})",
                        self.num_entities
                    )));
                }
                self.detach(id, view);
                self.set_entity(id, EntityEntry::default());
                self.tombstones.insert(id, ());
            }
        }
        let id = op.id();
        self.ops.insert(sequence, Arc::new(op));
        Ok(id)
    }

    /// The id of a token the base vocabulary lacks, joining the extension
    /// if this is its first appearance.
    fn extension_token(&mut self, token: &str) -> u32 {
        if let Some(id) = self.new_token_id(token) {
            return id;
        }
        let id = (self.base_tokens + self.num_new_tokens) as u32;
        self.num_new_tokens += 1;
        if let Some(bucket) = self.new_tokens.get_or_insert_with(token_key(token), Arc::default) {
            Arc::make_mut(bucket).push((token.into(), id));
        }
        id
    }

    /// Tokenizes `profile` with the frozen normalization and threads the
    /// entity into blocks: live blocks via COW patch, dropped or unseen
    /// tokens via pending postings that promote once the block rule (two
    /// members; both sides for Clean-Clean) is met.
    ///
    /// The keys are looked up as one batch, unsorted. A base token with a
    /// live route only patches its block, which no order can change, so
    /// those go first as they come. The rest — tokens the base vocabulary
    /// lacks and tokens with no live route — hand out ids in the order they
    /// are met (extension tokens, then promoted blocks), so only they are
    /// byte-sorted and deduplicated, and they go in that order.
    fn index_profile(
        &mut self,
        id: u32,
        profile: &EntityProfile,
        view: &SnapshotView,
        tokens: &mut TokenScratch,
    ) {
        let right = self.is_right(id);
        let TokenScratch { keys, lookup, aside: rest } = tokens;
        keys.fill_tokens(profile);
        let found = view.find_tokens(keys, lookup);
        let mut entry = EntityEntry::default();
        rest.clear();
        for (index, &tid) in found.iter().enumerate() {
            // A promoted overlay block outranks the base route.
            match tid.and_then(|tid| self.token_route(tid).or_else(|| view.token_block(tid))) {
                Some(b) => {
                    self.patch_block(b, view, |block| block.insert(id, right));
                    entry.blocks.push(b);
                }
                None => rest.push(index),
            }
        }
        distinct_by_bytes(keys, rest);
        for &index in rest.iter() {
            let token = keys.get(index);
            let tid = match found.get(index).copied().flatten() {
                Some(tid) => tid,
                None => self.extension_token(token),
            };
            // Extension tokens lie past the view's routes, which answer
            // `None`; only a promoted overlay block routes them.
            if let Some(b) = self.token_route(tid) {
                self.patch_block(b, view, |block| block.insert(id, right));
                entry.blocks.push(b);
                continue;
            }
            // No live block for this token: gather in a pending posting.
            let kind = self.kind;
            let promote = self.pending.get_or_insert_with(tid, Arc::default).is_some_and(|p| {
                let posting = Arc::make_mut(p);
                posting.insert(id, right);
                match kind {
                    ErKind::Dirty => posting.left.len() >= 2,
                    ErKind::CleanClean => !posting.left.is_empty() && !posting.right.is_empty(),
                }
            });
            if !promote {
                entry.waiting.push(tid);
                continue;
            }
            let Some(posting) = self.pending.remove(tid) else { continue };
            let nb = (self.base_blocks + self.num_new_blocks) as u32;
            // The co-members waiting in the posting (each has an entry:
            // indexing it is what put it there) gain the new block and stop
            // waiting; the entity being indexed collects it with the rest of
            // its list below.
            for &EntityId(m) in posting.left.iter().chain(posting.right.iter()) {
                if m == id {
                    continue;
                }
                if let Some(co) = self.entities.get_mut(m) {
                    let co = Arc::make_mut(co);
                    if let Err(at) = co.blocks.binary_search(&nb) {
                        co.blocks.insert(at, nb);
                    }
                    co.waiting.retain(|&t| t != tid);
                }
            }
            self.blocks.insert(nb, posting);
            self.num_new_blocks += 1;
            self.token_routes.insert(tid, nb);
            entry.blocks.push(nb);
        }
        entry.blocks.sort_unstable();
        entry.blocks.dedup();
        self.set_entity(id, entry);
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

    #[test]
    fn an_upsert_numbers_what_it_adds_in_byte_order() {
        use crate::snapshot::Snapshot;
        // "erick" is in the vocabulary, but its block, a singleton, was not
        // kept: it gathers in a pending posting like the unseen tokens.
        let base = EntityCollection::dirty(vec![
            profile("p0", "jack miller"),
            profile("p1", "jack miller"),
            profile("p2", "erick"),
        ]);
        let snapshot = Snapshot::build(&base, mb_core::PipelineConfig::default()).unwrap();
        let view = SnapshotView::try_from(snapshot).unwrap();
        let erick = view.find_token(b"erick").unwrap();
        assert_eq!(view.token_block(erick), None);
        let mut overlay = DeltaOverlay::new(&view);
        let mut tokens = TokenScratch::default();
        // Committed out of byte order, repeats and a routed token among them.
        for text in ["zeta Erick alpha jack zeta", "alpha zeta erick alpha"] {
            let op =
                DeltaOp::Upsert { id: overlay.num_entities() as u32, profile: profile(text, text) };
            overlay.apply(op, &view, &mut tokens).unwrap();
        }
        // Extension tokens take ids, and promoted postings take blocks, in
        // the byte order of their tokens.
        let base = view.snapshot();
        let (vocabulary, blocks) = (base.tokens().len() as u32, base.blocks().size() as u32);
        let (alpha, zeta) = (overlay.new_token_id("alpha"), overlay.new_token_id("zeta"));
        assert_eq!((alpha, zeta), (Some(vocabulary), Some(vocabulary + 1)));
        let routes: Vec<Option<u32>> =
            [alpha.unwrap(), erick, zeta.unwrap()].map(|t| overlay.token_route(t)).to_vec();
        assert_eq!(routes, [Some(blocks), Some(blocks + 1), Some(blocks + 2)]);
    }

    #[test]
    fn an_upsert_copies_what_it_writes_whatever_the_overlay_holds() {
        use crate::idmap::node_copies;
        use crate::snapshot::Snapshot;
        let collection = er_datagen::presets::build(&er_datagen::presets::tiny(5))
            .unwrap()
            .into_dirty()
            .collection;
        let snapshot = Snapshot::build(&collection, mb_core::PipelineConfig::default()).unwrap();
        let view = SnapshotView::try_from(snapshot).unwrap();
        let recycled = |i: usize| {
            let donor = collection.profile(EntityId((i * 31 % collection.len()) as u32));
            let mut p = EntityProfile::new(format!("n{i}"));
            for a in donor.attributes() {
                p.add(a.name, a.value);
            }
            p
        };
        let mut overlay = DeltaOverlay::new(&view);
        let mut tokens = TokenScratch::default();
        // Nodes one fixed replace copies when every node is shared with the
        // generation before — what `GenerationCell::apply` pays — measured
        // over the overlay as it grows.
        let mut copies = Vec::new();
        for i in 0..=10_000usize {
            if i == 100 || i == 10_000 {
                let mut next = overlay.clone();
                let before = node_copies();
                next.apply(DeltaOp::Upsert { id: 7, profile: recycled(3) }, &view, &mut tokens)
                    .unwrap();
                copies.push(node_copies() - before);
            }
            // Four appends to one replace.
            let id = if i % 5 == 3 { i * 7 % collection.len() } else { overlay.num_entities() };
            let id = id as u32;
            overlay
                .apply(DeltaOp::Upsert { id, profile: recycled(i) }, &view, &mut tokens)
                .unwrap();
        }
        // A hundred times the overlay: the same paths, each at most a level
        // longer where a sparse table has filled in under it — never a copy
        // per accumulated op, which would be thousands.
        let (small, large) = (copies[0], copies[1]);
        assert!(small > 0 && large <= 2 * small, "{small} nodes at 100 ops, {large} at 10 000");
        assert!(large < 64, "{large} nodes copied by one upsert");
    }
}
