//! On-disk benchmark bundles.
//!
//! A bundle is a directory holding a complete benchmark:
//!
//! ```text
//! my-benchmark/
//!   e1.csv     # first (or only) collection
//!   e2.csv     # second collection — present iff the task is Clean-Clean
//!   gt.csv     # duplicate pairs, by URI
//! ```
//!
//! This is what `er generate` writes and what `er run` consumes, and it is
//! the natural interchange point for plugging in real corpora.

use crate::{groundtruth, profiles, IoError, Result};
use er_model::{EntityCollection, GroundTruth};
use std::path::Path;

/// A loaded benchmark bundle.
#[derive(Debug)]
pub struct Bundle {
    /// The entity collection (Clean-Clean iff `e2.csv` was present).
    pub collection: EntityCollection,
    /// The duplicate pairs.
    pub ground_truth: GroundTruth,
}

/// Loads a bundle from a directory.
pub fn load(dir: impl AsRef<Path>) -> Result<Bundle> {
    let dir = dir.as_ref();
    let e1_path = dir.join("e1.csv");
    if !e1_path.exists() {
        return Err(IoError::Format(format!("{} has no e1.csv", dir.display())));
    }
    let e1 = profiles::read_file(&e1_path)?;
    let e2_path = dir.join("e2.csv");
    let collection = if e2_path.exists() {
        EntityCollection::clean_clean(e1, profiles::read_file(&e2_path)?)
    } else {
        EntityCollection::dirty(e1)
    };
    let ground_truth = groundtruth::read_file(dir.join("gt.csv"), &collection)?;
    Ok(Bundle { collection, ground_truth })
}

/// Writes a benchmark to a directory (created if missing).
pub fn save(dir: impl AsRef<Path>, collection: &EntityCollection, gt: &GroundTruth) -> Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let split = collection.split();
    profiles::write_file(dir.join("e1.csv"), &collection.profiles()[..split])?;
    if collection.kind() == er_model::ErKind::CleanClean {
        // Written even when E2 is empty: the presence of e2.csv is what
        // encodes the task kind, and a Clean-Clean bundle must reload as
        // Clean-Clean.
        profiles::write_file(dir.join("e2.csv"), &collection.profiles()[split..])?;
    } else {
        // A stale e2.csv would silently flip the task kind on reload.
        let e2 = dir.join("e2.csv");
        if e2.exists() {
            std::fs::remove_file(e2)?;
        }
    }
    groundtruth::write_file(dir.join("gt.csv"), gt, collection)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::presets;
    use er_model::ErKind;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("er_io_bundle_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn clean_clean_roundtrip() {
        let dir = temp_dir("clean");
        let d = presets::build(&presets::tiny(31)).unwrap();
        save(&dir, &d.collection, &d.ground_truth).unwrap();
        let bundle = load(&dir).unwrap();
        assert_eq!(bundle.collection.kind(), ErKind::CleanClean);
        assert_eq!(bundle.collection.len(), d.collection.len());
        assert_eq!(bundle.collection.sides(), d.collection.sides());
        assert_eq!(bundle.ground_truth.len(), d.ground_truth.len());
        // Profiles survive byte-for-byte (attribute flattening aside, the
        // tiny preset emits unique attribute names per pair).
        assert_eq!(
            bundle.collection.profile(er_model::EntityId(0)).uri(),
            d.collection.profile(er_model::EntityId(0)).uri()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_roundtrip() {
        let dir = temp_dir("dirty");
        let d = presets::build(&presets::tiny(32)).unwrap().into_dirty();
        save(&dir, &d.collection, &d.ground_truth).unwrap();
        let bundle = load(&dir).unwrap();
        assert_eq!(bundle.collection.kind(), ErKind::Dirty);
        assert_eq!(bundle.ground_truth.len(), d.ground_truth.len());
        assert!(!dir.join("e2.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_dirty_over_clean_removes_e2() {
        let dir = temp_dir("overwrite");
        let clean = presets::build(&presets::tiny(33)).unwrap();
        save(&dir, &clean.collection, &clean.ground_truth).unwrap();
        assert!(dir.join("e2.csv").exists());
        let dirty = presets::build(&presets::tiny(33)).unwrap().into_dirty();
        save(&dir, &dirty.collection, &dirty.ground_truth).unwrap();
        assert!(!dir.join("e2.csv").exists());
        assert_eq!(load(&dir).unwrap().collection.kind(), ErKind::Dirty);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_second_collection_keeps_its_kind() {
        let dir = temp_dir("empty_e2");
        let c = EntityCollection::clean_clean(
            vec![er_model::EntityProfile::new("only").with("a", "x")],
            vec![],
        );
        let gt = GroundTruth::from_pairs(std::iter::empty());
        save(&dir, &c, &gt).unwrap();
        let bundle = load(&dir).unwrap();
        assert_eq!(bundle.collection.kind(), ErKind::CleanClean);
        assert_eq!(bundle.collection.sides(), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_are_reported() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("e1.csv"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measures_survive_the_roundtrip() {
        // The real invariant: blocking the reloaded bundle yields the same
        // recall/comparisons as blocking the original.
        use er_blocking_shim::*;
        let dir = temp_dir("measures");
        let d = presets::build(&presets::tiny(34)).unwrap();
        save(&dir, &d.collection, &d.ground_truth).unwrap();
        let bundle = load(&dir).unwrap();
        let before = token_stats(&d.collection, &d.ground_truth);
        let after = token_stats(&bundle.collection, &bundle.ground_truth);
        assert_eq!(before, after);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Token Blocking without depending on er-blocking (dev-dependency
    /// cycle): a tiny reimplementation sufficient for the invariant.
    mod er_blocking_shim {
        use er_model::fxhash::FxHashMap;
        use er_model::tokenize::KeyScratch;
        use er_model::{EntityCollection, GroundTruth};

        pub fn token_stats(c: &EntityCollection, gt: &GroundTruth) -> (usize, usize) {
            let mut blocks: FxHashMap<String, Vec<u32>> = FxHashMap::default();
            let mut scratch = KeyScratch::new();
            for (id, p) in c.iter() {
                scratch.fill_tokens(p);
                for t in scratch.iter() {
                    let b = blocks.entry(t.to_owned()).or_default();
                    if b.last() != Some(&id.0) {
                        b.push(id.0);
                    }
                }
            }
            let num_blocks = blocks.values().filter(|b| b.len() > 1).count();
            let covered = gt
                .pairs()
                .iter()
                .filter(|p| blocks.values().any(|b| b.contains(&p.a.0) && b.contains(&p.b.0)))
                .count();
            (num_blocks, covered)
        }
    }
}
