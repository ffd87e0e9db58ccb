//! # er-blocking — schema-agnostic blocking methods and block cleaning
//!
//! Blocking scales Entity Resolution by restricting comparisons to profiles
//! that share a *block*. This crate implements the redundancy-positive
//! family the paper builds on (§2):
//!
//! * [`TokenBlocking`] — one block per whitespace token shared by ≥2
//!   profiles; the method that produces the paper's input blocks;
//! * [`QGramsBlocking`] — one block per character q-gram;
//! * [`SuffixArraysBlocking`] — one block per token suffix (Aizawa & Oyama);
//! * [`AttributeClusteringBlocking`] — token blocking within clusters of
//!   similar attribute names (Papadakis et al., TKDE'13);
//! * [`StandardBlocking`] — one block per whole attribute value (disjoint
//!   per value, the classical method of Fellegi & Sunter lineage);
//! * [`SortedNeighborhood`] — the redundancy-*neutral* single-pass sliding
//!   window, included as the related-work contrast;
//! * [`CanopyClustering`] — the redundancy-*negative* contrast (McCallum et
//!   al.), where the most similar profiles share exactly one block;
//!
//! and the block-cleaning step applied before meta-blocking:
//!
//! * [`purging`] — Block Purging, both the size-based rule the paper uses
//!   (§6.2: discard blocks containing more than half of the input profiles)
//!   and the comparison-based variant of TKDE'13.
//!
//! All methods implement the [`BlockingMethod`] trait and produce an
//! [`er_model::BlockCollection`] whose processing order is deterministic for
//! a fixed input, which keeps every downstream experiment reproducible.

#![warn(missing_docs)]

mod attr_clustering;
mod builder;
mod canopy;
pub mod fixtures;
mod method;
pub mod purging;
mod qgrams;
mod sorted_neighborhood;
mod standard;
mod suffix;
mod token;

pub use attr_clustering::AttributeClusteringBlocking;
pub use builder::KeyBlockBuilder;
pub use canopy::CanopyClustering;
pub use method::BlockingMethod;
pub use qgrams::QGramsBlocking;
pub use sorted_neighborhood::SortedNeighborhood;
pub use standard::StandardBlocking;
pub use suffix::SuffixArraysBlocking;
pub use token::TokenBlocking;
