//! Shared fixtures and the bench harness for the workspace benches.
//!
//! Every bench works on the same deterministic benchmark: a scaled-down
//! D1C-like Clean-Clean dataset and its Dirty derivative, blocked with Token
//! Blocking + Block Purging (the scaling bench adds a dense D3C slice). Sizes are chosen so that `cargo bench`
//! completes in minutes while the measured ratios (optimized vs original
//! weighting, filtered vs unfiltered graphs, per-scheme overhead) remain
//! meaningful — they are cost-model properties, not scale properties.

#![warn(missing_docs)]

pub mod harness;

use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::presets;
use er_model::{BlockCollection, EntityCollection, GroundTruth};

/// A ready-to-bench workload.
pub struct Workload {
    /// The entity collection.
    pub collection: EntityCollection,
    /// Its duplicate pairs.
    pub ground_truth: GroundTruth,
    /// Token Blocking + size-based Block Purging output.
    pub blocks: BlockCollection,
}

fn scaled_d1c(scale: f64) -> er_datagen::DatasetConfig {
    let mut config = presets::d1c(13);
    config.matched_pairs = (config.matched_pairs as f64 * scale) as usize;
    config.side1.size = (config.side1.size as f64 * scale) as usize;
    config.side2.size = (config.side2.size as f64 * scale) as usize;
    config.object.vocab_size = (config.object.vocab_size as f64 * scale) as usize;
    config
}

fn blocked(collection: EntityCollection, ground_truth: GroundTruth) -> Workload {
    let mut blocks = TokenBlocking.build(&collection);
    purging::purge_by_size(&mut blocks, 0.5);
    Workload { collection, ground_truth, blocks }
}

/// The fixed bench dataset. Scaling d1c uniformly preserves the config
/// invariants (`matched_pairs` never exceeds a side size), so generation
/// cannot fail — the tests below exercise exactly this config.
fn bench_dataset() -> er_datagen::GeneratedDataset {
    match presets::build(&scaled_d1c(0.1)) {
        Ok(d) => d,
        Err(e) => unreachable!("bench preset rejected: {e}"),
    }
}

/// Builds the Clean-Clean bench workload (≈6.4k profiles at the default
/// 0.1 scale).
pub fn clean_workload() -> Workload {
    let d = bench_dataset();
    blocked(d.collection, d.ground_truth)
}

/// Builds the Dirty bench workload (same profiles, merged into one
/// collection).
pub fn dirty_workload() -> Workload {
    let d = bench_dataset().into_dirty();
    blocked(d.collection, d.ground_truth)
}

/// The d3c scale of [`dense_workload`].
pub const DENSE_D3C_SCALE: f64 = 0.006;

/// Builds the dense Dirty workload: a `d3c` slice (≈20k profiles) whose
/// blocking graph carries a few hundred edges per node — the regime where a
/// sweep's output, not its input, is what memory has to hold. `d1c` gives
/// ~16 edges per node at any scale, so density needs its own dataset.
pub fn dense_workload() -> Workload {
    let d = match presets::build(&presets::d3c(13, DENSE_D3C_SCALE)) {
        Ok(d) => d.into_dirty(),
        Err(e) => unreachable!("bench preset rejected: {e}"),
    };
    blocked(d.collection, d.ground_truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_nonempty_and_deterministic() {
        let a = clean_workload();
        let b = clean_workload();
        assert!(a.blocks.total_comparisons() > 0);
        assert_eq!(a.blocks.total_comparisons(), b.blocks.total_comparisons());
        assert_eq!(a.collection.len(), b.collection.len());
        let d = dirty_workload();
        assert_eq!(d.collection.len(), a.collection.len());
        assert!(!d.ground_truth.is_empty());
    }
}
