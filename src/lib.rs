//! # enhanced-metablocking
//!
//! Umbrella crate of the Enhanced Meta-blocking reproduction (Papadakis et
//! al., EDBT 2016). It re-exports every workspace crate under one roof and
//! hosts the runnable examples and the cross-crate integration tests.
//!
//! Start with [`mb-core`](mb_core) for the meta-blocking algorithms and with
//! `examples/quickstart.rs` for an end-to-end pipeline.

#![warn(missing_docs)]

pub use er_baselines as baselines;
pub use er_blocking as blocking;
pub use er_datagen as datagen;
pub use er_eval as eval;
pub use er_io as io;
pub use er_model as model;
pub use mb_core as metablocking;
pub use mb_observe as observe;
pub use mb_serve as serve;
