//! Paper-equivalent dataset presets.
//!
//! Each preset mirrors one of the paper's Clean-Clean benchmarks (Table 2)
//! structurally: side sizes and their ratio, duplicate count, attribute
//! counts per side, profile-size asymmetry and schema heterogeneity. The
//! Dirty variants (D1D/D2D/D3D) are derived with
//! [`crate::GeneratedDataset::into_dirty`], exactly as the paper merges the
//! clean collections.
//!
//! `d3c` accepts a scale in `(0, 1]` because the real D3C (1.19M × 2.16M
//! profiles) exists to demonstrate scalability; experiments default to a few
//! percent of it and the benchmark harness scales with `MB_SCALE`.

use crate::config::{DatasetConfig, NoiseConfig, ObjectConfig, SideConfig};
use crate::generator::{generate, GeneratedDataset};

/// D1C-like: bibliographic linkage (DBLP × Google Scholar).
///
/// Small, clean side 1 (2,516 profiles, 4 attributes) against a large,
/// noisy side 2 (61,353 profiles) with only 2,308 true matches — most of
/// side 2 matches nothing, as in the original.
pub fn d1c(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        matched_pairs: 2_308,
        side1: SideConfig {
            size: 2_516,
            attributes: 4,
            attr_name_pool: 4,
            noise: NoiseConfig { token_drop: 0.10, token_typo: 0.03, extra_tokens: 0.3 },
        },
        side2: SideConfig {
            size: 61_353,
            attributes: 4,
            attr_name_pool: 4,
            noise: NoiseConfig { token_drop: 0.25, token_typo: 0.05, extra_tokens: 0.5 },
        },
        object: ObjectConfig { vocab_size: 120_000, zipf_exponent: 0.8, tokens_mean: 9 },
    }
}

/// D2C-like: movie linkage (IMDB × DBpedia).
///
/// Comparable side sizes (27,615 × 23,182) with 22,863 matches — almost
/// every profile has a counterpart — and extreme profile-size asymmetry
/// (mean 5.6 vs 35.2 name-value pairs), which is what drives the original's
/// very high BPE (≈28) and dense blocking graph.
pub fn d2c(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        matched_pairs: 22_863,
        side1: SideConfig {
            size: 27_615,
            attributes: 5,
            attr_name_pool: 4,
            // Side 1 keeps a fraction of the object's tokens: terse records.
            noise: NoiseConfig { token_drop: 0.65, token_typo: 0.03, extra_tokens: 0.3 },
        },
        side2: SideConfig {
            size: 23_182,
            attributes: 20,
            attr_name_pool: 7,
            // Side 2 keeps nearly everything: verbose records.
            noise: NoiseConfig { token_drop: 0.05, token_typo: 0.03, extra_tokens: 2.0 },
        },
        object: ObjectConfig { vocab_size: 400_000, zipf_exponent: 0.8, tokens_mean: 34 },
    }
}

/// D3C-like: Wikipedia infobox snapshots, scaled by `scale ∈ (0, 1]`.
///
/// Millions of profiles, tens of thousands of distinct attribute names and
/// mid-sized profiles on both sides. At `scale = 1.0` this reproduces the
/// original's 1.19M × 2.16M shape; the default experiments use a few
/// percent.
///
/// # Panics
/// If `scale` is outside `(0, 1]`.
pub fn d3c(seed: u64, scale: f64) -> DatasetConfig {
    assert!(scale > 0.0 && scale <= 1.0, "scale must lie in (0, 1], got {scale}");
    let s = |n: usize| ((n as f64 * scale).round() as usize).max(1);
    DatasetConfig {
        seed,
        matched_pairs: s(892_579),
        side1: SideConfig {
            size: s(1_190_733),
            attributes: 14,
            attr_name_pool: s(30_688).max(30),
            noise: NoiseConfig { token_drop: 0.20, token_typo: 0.04, extra_tokens: 1.0 },
        },
        side2: SideConfig {
            size: s(2_164_040),
            attributes: 16,
            attr_name_pool: s(52_489).max(50),
            noise: NoiseConfig { token_drop: 0.15, token_typo: 0.04, extra_tokens: 1.0 },
        },
        object: ObjectConfig {
            vocab_size: s(4_000_000).max(20_000),
            zipf_exponent: 0.8,
            tokens_mean: 18,
        },
    }
}

/// XL: the million-profile stress preset — 1.05 million profiles
/// (420,000 × 630,000) with 300,000 matched pairs.
///
/// Short profiles (7 tokens per object, light extra-token noise) over a
/// 600,000-token vocabulary give ≈9–10M `(token, entity)` postings and a
/// vocabulary that fits comfortably in memory, so `er snapshot build` holds
/// the whole build in RAM (`results/xl_run.txt`). Deterministic for a fixed
/// seed, like every preset.
pub fn xl(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        matched_pairs: 300_000,
        side1: SideConfig {
            size: 420_000,
            attributes: 4,
            attr_name_pool: 5,
            noise: NoiseConfig { token_drop: 0.20, token_typo: 0.03, extra_tokens: 0.4 },
        },
        side2: SideConfig {
            size: 630_000,
            attributes: 6,
            attr_name_pool: 8,
            noise: NoiseConfig { token_drop: 0.15, token_typo: 0.04, extra_tokens: 0.6 },
        },
        object: ObjectConfig { vocab_size: 600_000, zipf_exponent: 0.8, tokens_mean: 7 },
    }
}

/// A miniature benchmark for tests, examples and doc snippets: 150 matched
/// pairs across 200 × 250 profiles. Generates in milliseconds.
pub fn tiny(seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        matched_pairs: 150,
        side1: SideConfig {
            size: 200,
            attributes: 3,
            attr_name_pool: 4,
            noise: NoiseConfig { token_drop: 0.15, token_typo: 0.05, extra_tokens: 0.5 },
        },
        side2: SideConfig {
            size: 250,
            attributes: 5,
            attr_name_pool: 6,
            noise: NoiseConfig { token_drop: 0.10, token_typo: 0.05, extra_tokens: 0.8 },
        },
        object: ObjectConfig { vocab_size: 2_500, zipf_exponent: 1.0, tokens_mean: 10 },
    }
}

/// Generates the Clean-Clean dataset for a preset config.
///
/// # Errors
/// [`er_model::Error::InvalidConfig`] if `config` fails validation — the
/// presets in this module always pass, but callers may have modified the
/// config before building.
pub fn build(config: &DatasetConfig) -> er_model::error::Result<GeneratedDataset> {
    generate(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(d1c(1).validate().is_ok());
        assert!(d2c(1).validate().is_ok());
        assert!(d3c(1, 0.01).validate().is_ok());
        assert!(d3c(1, 1.0).validate().is_ok());
        assert!(tiny(1).validate().is_ok());
        assert!(xl(1).validate().is_ok());
    }

    #[test]
    fn xl_crosses_the_million_entity_line() {
        let c = xl(9);
        assert!(c.side1.size + c.side2.size >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "scale must lie in")]
    fn d3c_rejects_zero_scale() {
        d3c(1, 0.0);
    }

    #[test]
    fn tiny_builds_quickly_and_correctly() {
        let d = build(&tiny(7)).unwrap();
        assert_eq!(d.collection.len(), 450);
        assert_eq!(d.ground_truth.len(), 150);
    }

    #[test]
    fn d3c_scales_linearly() {
        let a = d3c(1, 0.01);
        let b = d3c(1, 0.02);
        assert!((b.side1.size as f64 / a.side1.size as f64 - 2.0).abs() < 0.01);
        assert!(b.matched_pairs > a.matched_pairs);
    }
}
