//! mb-serve: persistent index snapshots and an online candidate-query
//! engine for enhanced meta-blocking.
//!
//! The batch pipeline (er-blocking → mb-core) ends with a pruned set of
//! comparisons; this crate makes the *intermediate* state — the filtered
//! block collection, its entity index, the blocking vocabulary, and the
//! derived thresholds — durable and queryable:
//!
//! - [`Snapshot`] builds that state and encodes it into a versioned,
//!   checksummed binary format ([`Snapshot::to_bytes`] /
//!   [`Snapshot::write_to`]). [`Snapshot::build`] is the one way a
//!   snapshot is made; it holds the collection's postings in memory, as
//!   the batch pipeline does.
//! - [`SnapshotView`] is the one loader: it validates every structural and
//!   cross-section invariant, never panics on malformed input (see
//!   [`SnapshotError`]), decodes every array into an owned vector, and
//!   frees the file before it derives the entity index and the token
//!   tables from them. [`SnapshotHeader`] reads just the section table for
//!   O(1) inspection.
//! - [`QueryEngine`] is built over a loaded view once and answers typed
//!   [`CandidateRequest`]s — for indexed entities or unseen
//!   probe profiles — with the same weighting schemes, retention rules, and
//!   tie ordering as batch node-centric pruning, so online answers match the
//!   offline pipeline bit for bit.
//! - [`Server`] keeps an engine resident behind a TCP listener speaking a
//!   checksummed, length-prefixed wire protocol ([`protocol`]), with
//!   zero-downtime snapshot reloads through hot-swappable generations
//!   ([`GenerationCell`]) and graceful draining shutdown ([`Server`]).
//!
//! ```
//! use er_model::{EntityCollection, EntityId, EntityProfile};
//! use mb_core::PipelineConfig;
//! use mb_serve::{CandidateRequest, QueryEngine, Snapshot, SnapshotView};
//!
//! let e = EntityCollection::dirty(vec![
//!     EntityProfile::new("p1").with("name", "jack miller"),
//!     EntityProfile::new("p2").with("fullname", "jack lloyd miller"),
//!     EntityProfile::new("p3").with("n", "erick lloyd"),
//! ]);
//! let snapshot = Snapshot::build(&e, PipelineConfig::default()).unwrap();
//! let bytes = snapshot.to_bytes();
//! let restored = SnapshotView::from_bytes(bytes).unwrap();
//!
//! let mut engine = QueryEngine::from_view(&restored);
//! let request = CandidateRequest::entity(EntityId(0));
//! let response = engine.execute(&request, &mut mb_observe::Noop).unwrap();
//! let scored = response.first().unwrap();
//! assert_eq!(scored.candidates[0].id, EntityId(1)); // shares jack + miller
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod delta;
mod engine;
mod error;
mod generation;
mod idmap;
pub mod protocol;
mod request;
mod server;
mod snapshot;
mod store;
mod view;

pub use delta::{append_delta_run, merge_ops, DeltaOp, DeltaOverlay, APPEND};
pub use engine::{EngineScratch, QueryEngine};
pub use error::{ServeError, SnapshotError};
pub use generation::{AppliedDelta, Generation, GenerationCell};
pub use request::{CandidateRequest, CandidateResponse, CandidateTarget};
pub use server::{Client, Server, ServerConfig, ServerHandle};
pub use snapshot::{write_atomic, SectionInfo, Snapshot, SnapshotHeader, FORMAT_VERSION, MAGIC};
pub use view::SnapshotView;
