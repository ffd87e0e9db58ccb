//! # mb-core — Enhanced Meta-blocking
//!
//! The primary contribution of *"Scaling Entity Resolution to Large,
//! Heterogeneous Data with Enhanced Meta-blocking"* (Papadakis,
//! Papastefanatos, Palpanas, Koubarakis — EDBT 2016), implemented in full:
//!
//! **The meta-blocking framework it builds on** (Papadakis et al., TKDE'14):
//!
//! * the *blocking graph* — implicit, never materialized: a vertex per
//!   profile, an edge per co-occurring pair ([`GraphContext`]);
//! * five edge-[`WeightingScheme`]s: ARCS, CBS, ECBS, JS, EJS (Figure 4);
//! * four pruning schemes: [`prune::cep`], [`prune::cnp`], [`prune::wep`],
//!   [`prune::wnp`] (original, directed node-centric semantics).
//!
//! **The paper's efficiency contributions** (§4):
//!
//! * [`filter::block_filtering`] — Algorithm 1: drop each profile from its
//!   least important blocks before building the graph;
//! * [`weighting`] — Algorithm 3 (*Optimized Edge Weighting*, a
//!   ScanCount-style neighborhood scan) next to Algorithm 2 (*Original Edge
//!   Weighting*, per-comparison posting-list intersection with the LeCoBI
//!   early exit), kept side by side so the Table-5 speedup can be measured.
//!
//! **The paper's precision contributions** (§5):
//!
//! * [`prune::redefined_cnp`] / [`prune::redefined_wnp`] — Algorithms 4 and
//!   5: retain an edge if it satisfies the criterion of *either* endpoint;
//!   no redundant comparisons;
//! * [`prune::reciprocal_cnp`] / [`prune::reciprocal_wnp`] — retain an edge
//!   only if it satisfies *both* endpoints (reciprocal links).
//!
//! **The graph-free alternatives** (§4.1, Figure 7b):
//!
//! * [`propagation::comparison_propagation`] — distinct comparisons via the
//!   LeCoBI condition;
//! * [`graphfree::graph_free_meta_blocking`] — Block Filtering followed by
//!   Comparison Propagation, skipping the graph entirely.
//!
//! The high-level entry point is [`pipeline::MetaBlocking`], a builder that
//! assembles any combination of the above — configurable through
//! [`pipeline::PipelineConfig`] (JSON round-trippable) and observable
//! through the `mb-observe` [`Observer`] interface (pass [`Noop`] for an
//! unobserved run; instrumentation is a per-stage branch, never a per-edge
//! cost). Beyond the paper:
//!
//! * [`progressive`] turns CEP's global ranking into a pay-as-you-go
//!   comparison schedule;
//! * [`parallel`] runs every graph sweep on one ordered, windowed driver:
//!   bit-identical output streamed in sequential order at any thread count,
//!   `O(threads × one window)` of it in memory (the shared-memory analog of
//!   the MapReduce scale-out the paper cites);
//! * [`blast`] implements the χ²-weighted, max-ratio-pruned follow-on
//!   (Simonini et al., VLDB'16) for cross-comparison.
//!
//! ## Output convention
//!
//! Meta-blocking restructures a block collection into a *comparison
//! collection*: pruning emits each retained comparison to a sink
//! (`FnMut(EntityId, EntityId)`). The original node-centric schemes emit a
//! pair twice when both endpoints retain it — that *is* their documented
//! redundancy, and the pessimistic `‖B′‖` accounting of the paper counts it.

//! ## Invariant sanitizing
//!
//! Built with the `sanitize` cargo feature, every pipeline run validates
//! its input (blocks, entity index, LeCoBI consistency, Clean-Clean split)
//! and checks each streamed edge and retained comparison on the fly — see
//! the `sanitize` module. The feature is off by default; `crates/bench`
//! measures the unchecked paths.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blast;
pub mod context;
pub mod filter;
pub mod graphfree;
pub mod parallel;
pub mod pipeline;
pub mod progressive;
pub mod propagation;
pub mod prune;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod scanner;
pub mod scorer;
pub mod store;
pub mod weighting;
pub mod weights;

pub use context::GraphContext;
pub use mb_observe::{Noop, Observer};
pub use pipeline::{MetaBlocking, PipelineConfig, PruningScheme, WeightingImpl};
pub use scorer::{Candidate, NeighborhoodScorer, Retention, Scored, ScorerScratch};
pub use store::CandidateStore;
pub use weights::WeightingScheme;
