//! Pruning algorithms: which edges of the weighted blocking graph survive.
//!
//! Terminology (§3): a *pruning scheme* couples an algorithm (edge- or
//! node-centric) with a criterion (weight or cardinality threshold). The
//! four original schemes come from the TKDE'14 meta-blocking framework:
//!
//! | scheme | algorithm | criterion |
//! |--------|-----------|-----------|
//! | [`cep`] | edge-centric | global top-`K`, `K = ⌊Σ|b|/2⌋` |
//! | [`cnp`] | node-centric | per-node top-`k`, `k = ⌊Σ|b|/|E|⌋ − 1` |
//! | [`wep`] | edge-centric | global mean weight |
//! | [`wnp`] | node-centric | per-neighborhood mean weight |
//!
//! The original node-centric schemes emit *directed* retained edges — an
//! edge kept by both endpoints yields two comparisons. The paper's §5
//! contributions fix exactly that:
//!
//! * [`redefined_cnp`] / [`redefined_wnp`] (Algorithms 4/5): retain each
//!   edge at most once, if it satisfies *either* endpoint's criterion;
//! * [`reciprocal_cnp`] / [`reciprocal_wnp`]: retain only edges satisfying
//!   *both* endpoints' criteria (reciprocal links).
//!
//! All functions stream retained comparisons to a sink; nothing is
//! materialized beyond the per-node criteria. Each scheme is one body
//! written against a [`Sweep`](crate::parallel::Sweep), which decides how
//! many workers run it and delivers what it keeps in the sequential order
//! either way. Every weight-threshold retention keeps its edges through one
//! branch-free selection kernel (`select.rs`), as every node-centric
//! cardinality retention does through one top-`k` kernel ([`TopK`]): a flat
//! min-heap of `(weight, neighbor)` keys that each sweeping thread keeps for
//! the whole sweep ([`Sweep::top_k`](crate::parallel::Sweep::top_k)), so CNP
//! and both two-phase CNPs allocate per sweep, not per node.

mod cardinality;
mod select;
mod weight_based;

use er_model::EntityId;

pub use cardinality::{
    cep, cep_threshold, cep_threshold_from_counts, cnp, cnp_threshold, cnp_threshold_from_counts,
    reciprocal_cnp, redefined_cnp, TopK,
};
pub(crate) use cardinality::{heap_prealloc, push_top_k, WeightedEdge};
pub(crate) use select::{reaching, Combine};
pub(crate) use weight_based::neighborhood_mean;
pub use weight_based::{reciprocal_wnp, redefined_wnp, wep, wnp};

/// The sink a pair-emitting sweep drains into: counts each retained
/// comparison on its way to the caller's sink.
fn counted<'s>(
    retained: &'s mut u64,
    sink: &'s mut impl FnMut(EntityId, EntityId),
) -> impl FnMut((EntityId, EntityId)) + 's {
    move |(a, b)| {
        *retained += 1;
        sink(a, b);
    }
}
