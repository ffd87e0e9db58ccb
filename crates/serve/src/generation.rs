//! Hot-swappable snapshot generations, delta-capable.
//!
//! The zero-downtime reload contract: readers always see *exactly one*
//! complete, validated snapshot state; a swap publishes a new generation
//! without stalling in-flight queries; and the old generation's memory is
//! released as soon as the last reader holding it finishes.
//!
//! The mechanism is deliberately boring — a [`std::sync::RwLock`] around an
//! [`Arc<Generation>`], no unsafe, no atomics beyond what `Arc` already
//! does. A load takes the read lock just long enough to clone the `Arc`
//! (nanoseconds); a swap validates the new snapshot *off* the lock, then
//! takes the write lock only for the pointer replacement. Readers never
//! block each other.
//!
//! What distinguishes a generation from a bare snapshot is its **delta
//! overlay**: a generation may carry a [`DeltaOverlay`] — the copy-on-write
//! side-table of upserts/deletes applied since the snapshot arena was built.
//! [`GenerationCell::apply`] derives the successor generation *under the
//! write lock*: it clones the overlay, patches the clone, and republishes
//! the shared `Arc` of the view. The overlay's tables are persistent maps
//! (`idmap`), so the clone is a refcount per table and the patch copies only
//! the trie paths the op writes — the lock is held for what one op touches,
//! not for what the overlay has accumulated, and the retired generation's
//! last reader frees just the paths its successor replaced. Deriving under
//! the lock makes a half-applied delta structurally unobservable: every
//! `load()` returns a generation that is either entirely before or entirely
//! after each op.
//! Everything an engine needs besides is state of the loaded view itself —
//! the token → block routes included, built once at load — so pinning a
//! generation derives nothing.

use crate::delta::{DeltaOp, DeltaOverlay};
use crate::error::SnapshotError;
use crate::view::{SnapshotView, TokenScratch};
use mb_observe::{Counter, Observer, Stage, StageScope};
use std::sync::{Arc, PoisonError, RwLock};

/// One immutable serving generation: a loaded snapshot, an optional delta
/// overlay, and the ordinal that names it on the wire (responses echo it, so
/// a client can tell which generation answered).
#[derive(Debug)]
pub struct Generation {
    view: Arc<SnapshotView>,
    overlay: Option<DeltaOverlay>,
    ordinal: u64,
}

impl Generation {
    /// Builds a generation over `view`: any delta runs persisted in the
    /// snapshot are replayed into an overlay, so a reloaded file serves
    /// exactly the state it was saved in.
    fn assemble(view: SnapshotView, ordinal: u64) -> Result<Generation, SnapshotError> {
        let view = Arc::new(view);
        let runs = view.delta_runs();
        let overlay = if runs.is_empty() { None } else { Some(DeltaOverlay::replay(&view, runs)?) };
        Ok(Generation { view, overlay, ordinal })
    }

    /// The generation's loaded snapshot.
    pub fn view(&self) -> &SnapshotView {
        &self.view
    }

    /// The delta overlay, when any ops have been applied over the arena.
    pub fn overlay(&self) -> Option<&DeltaOverlay> {
        self.overlay.as_ref()
    }

    /// Effective `|E|`: the arena's collection size plus overlay appends.
    pub fn num_entities(&self) -> usize {
        match &self.overlay {
            Some(o) => o.num_entities(),
            None => self.view.snapshot().num_entities(),
        }
    }

    /// The generation's ordinal: `1` for the snapshot the server started
    /// with, incremented by every successful swap and every applied delta.
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }
}

/// The outcome of one applied delta op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Ordinal of the generation the op produced.
    pub ordinal: u64,
    /// The entity id the op resolved to (the assigned id for appends).
    pub id: u32,
}

/// The swappable cell the server publishes generations through.
///
/// Every entry point takes a loaded [`SnapshotView`] or a built
/// [`crate::Snapshot`] (encoded once and run through the same loader), so
/// the cell can never hold an unvalidated or partially-built generation.
#[derive(Debug)]
pub struct GenerationCell {
    current: RwLock<Serving>,
}

/// What the cell's lock guards: the published generation, and the scratch
/// [`GenerationCell::apply`] tokenizes and looks up each upserted profile
/// in — writes are serialized by the write lock, so one scratch serves them
/// all and an upsert allocates no tokenizer buffers of its own.
#[derive(Debug)]
struct Serving {
    generation: Arc<Generation>,
    tokens: TokenScratch,
}

impl GenerationCell {
    /// Publishes `snapshot` as generation 1, replaying any persisted delta
    /// runs into its overlay.
    pub fn new<S>(snapshot: S) -> Result<GenerationCell, SnapshotError>
    where
        S: TryInto<SnapshotView>,
        SnapshotError: From<S::Error>,
    {
        let generation = Arc::new(Generation::assemble(snapshot.try_into()?, 1)?);
        Ok(GenerationCell {
            current: RwLock::new(Serving { generation, tokens: TokenScratch::default() }),
        })
    }

    /// The current generation, pinned: the returned `Arc` keeps this
    /// generation's snapshot alive for as long as the caller holds it, even
    /// across any number of subsequent swaps.
    pub fn load(&self) -> Arc<Generation> {
        // A poisoned lock means a panic *while swapping a pointer* — the
        // Arc inside is still coherent, so serving continues.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner).generation)
    }

    /// The current generation's ordinal — the cheap staleness check
    /// connection handlers poll between requests.
    pub fn ordinal(&self) -> u64 {
        self.current.read().unwrap_or_else(PoisonError::into_inner).generation.ordinal
    }

    /// Atomically replaces the serving generation with `snapshot` and
    /// returns the new generation's ordinal.
    ///
    /// Loading (for a built snapshot: encode + load) and delta-run replay
    /// both run off the lock. Readers that loaded the
    /// previous generation finish on it; new loads see the new one.
    pub fn swap<S>(&self, snapshot: S) -> Result<u64, SnapshotError>
    where
        S: TryInto<SnapshotView>,
        SnapshotError: From<S::Error>,
    {
        let next_ordinal = self.ordinal() + 1;
        // Assembled off the lock: the ordinal is re-read under the write
        // lock below, so a concurrent apply can't be overwritten silently.
        let mut generation = Generation::assemble(snapshot.try_into()?, next_ordinal)?;
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        generation.ordinal = slot.generation.ordinal + 1;
        let ordinal = generation.ordinal;
        slot.generation = Arc::new(generation);
        Ok(ordinal)
    }

    /// [`GenerationCell::swap`], but only if the serving ordinal is still
    /// `expected` — the compare-and-swap compaction uses so deltas applied
    /// while the offline rebuild ran are never silently dropped. On an
    /// ordinal mismatch the cell is unchanged and the caller should re-pin
    /// and retry.
    pub fn swap_if<S>(&self, expected: u64, snapshot: S) -> Result<u64, SnapshotError>
    where
        S: TryInto<SnapshotView>,
        SnapshotError: From<S::Error>,
    {
        let generation = Generation::assemble(snapshot.try_into()?, expected + 1)?;
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        if slot.generation.ordinal != expected {
            return Err(SnapshotError::Inconsistent(format!(
                "generation moved from {expected} to {} during compaction",
                slot.generation.ordinal
            )));
        }
        slot.generation = Arc::new(generation);
        Ok(expected + 1)
    }

    /// Applies one [`DeltaOp`] against the current generation and publishes
    /// the successor, returning its ordinal and the resolved entity id.
    ///
    /// An upsert at [`crate::delta::APPEND`] (`u32::MAX`) resolves to the
    /// effective collection size *under the lock*, so concurrent appends
    /// never race for an id. The whole derive runs while holding the write
    /// lock — a refcount per overlay table, the op's own path copies, one
    /// `Arc` republished; its cost does not grow with the overlay — and it
    /// guarantees readers never observe a half-applied op: every `load()`
    /// is entirely before or entirely after this delta. On error the clone
    /// is discarded and the serving generation is unchanged.
    pub fn apply(
        &self,
        op: DeltaOp,
        obs: &mut dyn Observer,
    ) -> Result<AppliedDelta, SnapshotError> {
        let mut scope = StageScope::enter(obs, Stage::DeltaApply);
        let outcome = {
            let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
            let cur = Arc::clone(&slot.generation);
            let mut overlay = match cur.overlay() {
                Some(o) => o.clone(),
                None => DeltaOverlay::new(&cur.view),
            };
            let op = match op {
                DeltaOp::Upsert { id: crate::delta::APPEND, profile } => {
                    DeltaOp::Upsert { id: overlay.num_entities() as u32, profile }
                }
                other => other,
            };
            let deleted = matches!(op, DeltaOp::Delete { .. });
            match overlay.apply(op, &cur.view, &mut slot.tokens) {
                Ok(id) => {
                    let ordinal = cur.ordinal + 1;
                    slot.generation = Arc::new(Generation {
                        view: Arc::clone(&cur.view),
                        overlay: Some(overlay),
                        ordinal,
                    });
                    Ok((ordinal, id, deleted))
                }
                Err(e) => Err(e),
            }
        };
        match outcome {
            Ok((ordinal, id, deleted)) => {
                scope.add(Counter::DeltasApplied, 1);
                if deleted {
                    scope.add(Counter::Tombstones, 1);
                }
                scope.finish();
                Ok(AppliedDelta { ordinal, id })
            }
            Err(e) => {
                scope.finish();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use er_model::{EntityCollection, EntityProfile};
    use mb_core::PipelineConfig;
    use mb_observe::Noop;

    fn tiny_snapshot(extra: &str) -> Snapshot {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("p1").with("name", "jack miller"),
            EntityProfile::new("p2").with("name", format!("jack lloyd miller {extra}")),
            EntityProfile::new("p3").with("name", "erick lloyd"),
        ]);
        Snapshot::build(&e, PipelineConfig::default()).unwrap()
    }

    #[test]
    fn swap_increments_ordinal_and_publishes() {
        let cell = GenerationCell::new(tiny_snapshot("a")).unwrap();
        assert_eq!(cell.ordinal(), 1);
        let pinned = cell.load();
        assert_eq!(pinned.ordinal(), 1);
        let tokens_before = pinned.view().snapshot().tokens().len();

        let next = tiny_snapshot("brand new token");
        assert_eq!(cell.swap(next).unwrap(), 2);
        assert_eq!(cell.ordinal(), 2);
        // The pinned generation still serves its own snapshot…
        assert_eq!(pinned.view().snapshot().tokens().len(), tokens_before);
        // …while fresh loads see the new one.
        assert!(cell.load().view().snapshot().tokens().len() > tokens_before);
    }

    #[test]
    fn old_generation_is_dropped_when_last_reader_finishes() {
        let cell = GenerationCell::new(tiny_snapshot("a")).unwrap();
        let pinned = cell.load();
        cell.swap(tiny_snapshot("b")).unwrap();
        // `pinned` is now the only strong reference to generation 1.
        assert_eq!(Arc::strong_count(&pinned), 1);
        drop(pinned);
        let current = cell.load();
        // The cell plus our load: exactly two strong references, so nothing
        // leaked a generation handle.
        assert_eq!(Arc::strong_count(&current), 2);
    }

    #[test]
    fn built_snapshots_and_loaded_views_publish_the_same_generation() {
        let built = tiny_snapshot("a");
        let loaded = SnapshotView::from_bytes(built.to_bytes()).unwrap();
        let tokens = loaded.snapshot().tokens().len();
        let cell = GenerationCell::new(built).unwrap();
        let first = cell.load();
        assert_eq!(cell.swap(loaded).unwrap(), 2);
        let second = cell.load();
        assert_eq!(first.view().snapshot().tokens().len(), tokens);
        assert_eq!(second.view().snapshot().tokens().len(), tokens);
        for token in 0..tokens as u32 {
            assert_eq!(first.view().token_block(token), second.view().token_block(token));
        }
        for token in ["jack", "lloyd", "erick", "miller"] {
            assert!(second.view().find_token(token.as_bytes()).is_some(), "token {token}");
        }
        assert_eq!(second.view().find_token(b"absent"), None);
    }

    #[test]
    fn apply_publishes_a_delta_generation_and_pins_readers() {
        let cell = GenerationCell::new(tiny_snapshot("a")).unwrap();
        let before = cell.load();
        let applied = cell
            .apply(
                DeltaOp::Upsert {
                    id: crate::delta::APPEND,
                    profile: EntityProfile::new("p4").with("name", "jack miller again"),
                },
                &mut Noop,
            )
            .unwrap();
        assert_eq!(applied, AppliedDelta { ordinal: 2, id: 3 });
        // The pinned pre-delta generation is untouched…
        assert!(before.overlay().is_none());
        assert_eq!(before.num_entities(), 3);
        // …and the published one carries the overlay, sharing the arena.
        let after = cell.load();
        assert_eq!(after.num_entities(), 4);
        assert_eq!(after.overlay().unwrap().applied(), 1);
        assert!(Arc::ptr_eq(&before.view, &after.view));

        let deleted = cell.apply(DeltaOp::Delete { id: 0 }, &mut Noop).unwrap();
        assert_eq!(deleted.ordinal, 3);
        assert!(cell.load().overlay().unwrap().is_tombstoned(0));

        // A failing op leaves the serving generation unchanged.
        assert!(cell.apply(DeltaOp::Delete { id: 99 }, &mut Noop).is_err());
        assert_eq!(cell.ordinal(), 3);
    }
}
