//! The dataset generator.

use crate::config::{DatasetConfig, NoiseConfig, SideConfig};
use crate::rng::SmallRng;
use crate::words::{push_word, typo, word, word_len};
use crate::zipf::Zipf;
use er_model::error::{Error, Result};
use er_model::{EntityCollection, EntityId, EntityProfile, GroundTruth};

/// A generated benchmark: the entity collection plus its ground truth.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// The Clean-Clean (or, after [`GeneratedDataset::into_dirty`], Dirty)
    /// entity collection.
    pub collection: EntityCollection,
    /// The duplicate pairs.
    pub ground_truth: GroundTruth,
}

impl GeneratedDataset {
    /// Converts the Clean-Clean benchmark into the corresponding Dirty one,
    /// as the paper derives DxD from DxC. Entity ids are preserved, so the
    /// ground truth remains valid.
    pub fn into_dirty(self) -> GeneratedDataset {
        GeneratedDataset {
            collection: self.collection.into_dirty(),
            ground_truth: self.ground_truth,
        }
    }
}

/// Generates a synthetic Clean-Clean benchmark from a configuration.
///
/// # Errors
/// [`er_model::Error::InvalidConfig`] if the configuration fails
/// [`DatasetConfig::validate`]; [`er_model::Error::ProfileOverflow`] if a
/// profile's text would pass `u32::MAX` bytes.
pub fn generate(config: &DatasetConfig) -> Result<GeneratedDataset> {
    config.validate().map_err(Error::InvalidConfig)?;
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.object.vocab_size, config.object.zipf_exponent);

    // Underlying real-world objects: the matched ones first (shared by both
    // sides), then each side's unmatched ones.
    let matched = config.matched_pairs;
    let extra1 = config.side1.size - matched;
    let extra2 = config.side2.size - matched;
    let sample_object = |rng: &mut SmallRng| -> Vec<u64> {
        let span = config.object.tokens_mean.max(2);
        // tokens_mean ± 25%, at least 2 so a duplicate can survive one drop.
        let lo = (span * 3 / 4).max(2);
        let hi = (span * 5 / 4).max(lo + 1);
        let count = rng.gen_range_inclusive(lo, hi);
        (0..count).map(|_| zipf.sample(rng) as u64).collect()
    };
    let objects: Vec<Vec<u64>> =
        (0..matched + extra1 + extra2).map(|_| sample_object(&mut rng)).collect();

    // Side 1: matched objects 0..matched, then its own extras.
    let mut e1 = Vec::with_capacity(config.side1.size);
    for (n, obj) in objects[..matched].iter().chain(&objects[matched..matched + extra1]).enumerate()
    {
        e1.push(profile_from_object(&format!("A{n}"), obj, &config.side1, &zipf, &mut rng)?);
    }
    // Side 2: the same matched objects, then its own extras.
    let mut e2 = Vec::with_capacity(config.side2.size);
    for (n, obj) in objects[..matched].iter().chain(&objects[matched + extra1..]).enumerate() {
        e2.push(profile_from_object(&format!("B{n}"), obj, &config.side2, &zipf, &mut rng)?);
    }

    let n1 = e1.len() as u32;
    let collection = EntityCollection::clean_clean(e1, e2);
    let ground_truth = GroundTruth::from_pairs((0..matched).map(|i| {
        let id = EntityId::from_index(i);
        (id, EntityId(n1 + id.0))
    }));
    Ok(GeneratedDataset { collection, ground_truth })
}

/// Derives one side's profile from an object's token bag: apply the noise
/// model, partition the surviving tokens into attribute values, and name the
/// attributes from the side's pool.
///
/// # Errors
/// [`Error::ProfileOverflow`] if the profile's text would pass `u32::MAX`
/// bytes.
fn profile_from_object(
    uri: &str,
    object: &[u64],
    side: &SideConfig,
    zipf: &Zipf,
    rng: &mut SmallRng,
) -> Result<EntityProfile> {
    let tokens = apply_noise(object, &side.noise, zipf, rng);

    // Number of name-value pairs: attributes ± 1, at least 1, and no more
    // than the tokens available (an attribute needs a value).
    let target = side.attributes;
    let lo = target.saturating_sub(1).max(1);
    let hi = target + 1;
    let attrs = rng.gen_range_inclusive(lo, hi).min(tokens.len()).max(1);

    // Attribute names: drawn from the side pool; `a` prefix for side pools
    // is unnecessary — pools are disjoint across sides because heterogeneous
    // sources rarely agree on names (and schema-agnostic methods must not
    // care). All names are drawn first, in chunk order, so the profile can
    // be sized exactly and then written in place.
    let per_attr = tokens.len().div_ceil(attrs).max(1);
    let names: Vec<u64> =
        tokens.chunks(per_attr).map(|_| rng.gen_below(side.attr_name_pool as u64)).collect();
    // A value is its chunk's tokens joined by single spaces.
    let value_len =
        |chunk: &[String]| chunk.iter().map(String::len).sum::<usize>() + chunk.len() - 1;
    let text =
        names.iter().zip(tokens.chunks(per_attr)).map(|(&id, c)| name_len(id) + value_len(c));
    let mut profile = EntityProfile::sized(uri, names.len(), text.sum())?;
    for (&id, chunk) in names.iter().zip(tokens.chunks(per_attr)) {
        profile.add_with(
            |name| {
                push_word(id, |c| name.push(c));
                name.push('_');
                name.push_display(id);
            },
            |value| {
                for (i, token) in chunk.iter().enumerate() {
                    if i > 0 {
                        value.push(' ');
                    }
                    value.push_str(token);
                }
            },
        );
    }
    Ok(profile)
}

/// Length of the attribute name `{word(id)}_{id}`.
fn name_len(id: u64) -> usize {
    word_len(id) + 1 + id.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The noise pipeline: drop, typo, extend. Guarantees at least one token.
fn apply_noise(
    object: &[u64],
    noise: &NoiseConfig,
    zipf: &Zipf,
    rng: &mut SmallRng,
) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(object.len());
    for &t in object {
        if rng.gen_bool(noise.token_drop) {
            continue;
        }
        let w = word(t);
        if rng.gen_bool(noise.token_typo) {
            out.push(typo(&w, rng));
        } else {
            out.push(w);
        }
    }
    if out.is_empty() {
        // Never emit a token-free profile: keep one un-dropped token.
        out.push(word(object[0]));
    }
    // Spurious additions: Poisson(extra_tokens) via Knuth's method (the
    // expectation is tiny, so the loop is short).
    if noise.extra_tokens > 0.0 {
        let l = (-noise.extra_tokens).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen_f64();
            if p <= l {
                break;
            }
            k += 1;
            if k > 64 {
                break;
            }
        }
        for _ in 0..k {
            out.push(word(zipf.sample(rng) as u64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NoiseConfig, ObjectConfig, SideConfig};
    use er_blocking::{BlockingMethod, TokenBlocking};
    use er_model::measures;
    use er_model::ErKind;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            seed: 42,
            matched_pairs: 200,
            side1: SideConfig {
                size: 300,
                attributes: 3,
                attr_name_pool: 4,
                noise: NoiseConfig { token_drop: 0.15, token_typo: 0.05, extra_tokens: 0.5 },
            },
            side2: SideConfig {
                size: 400,
                attributes: 5,
                attr_name_pool: 7,
                noise: NoiseConfig { token_drop: 0.1, token_typo: 0.05, extra_tokens: 1.0 },
            },
            object: ObjectConfig { vocab_size: 3_000, zipf_exponent: 1.0, tokens_mean: 10 },
        }
    }

    #[test]
    fn shape_matches_config() {
        let d = generate(&small_config()).unwrap();
        assert_eq!(d.collection.kind(), ErKind::CleanClean);
        assert_eq!(d.collection.len(), 700);
        assert_eq!(d.collection.sides(), (300, 400));
        assert_eq!(d.ground_truth.len(), 200);
        // Ground-truth pairs cross the two sides.
        for c in d.ground_truth.pairs() {
            assert!(c.a.idx() < 300 && c.b.idx() >= 300);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config()).unwrap();
        let b = generate(&small_config()).unwrap();
        assert_eq!(a.collection.profiles().len(), b.collection.profiles().len());
        for (x, y) in a.collection.profiles().iter().zip(b.collection.profiles()) {
            assert_eq!(x, y);
        }
        let mut c = small_config();
        c.seed = 43;
        let d = generate(&c).unwrap();
        assert!(!a.collection.profiles()[0]
            .attributes()
            .eq(d.collection.profiles()[0].attributes()));
    }

    #[test]
    fn token_blocking_recall_is_high_precision_low() {
        let d = generate(&small_config()).unwrap();
        let blocks = TokenBlocking.build(&d.collection);
        let detected = measures::detected_duplicates_in(&blocks, &d.ground_truth);
        let pc = measures::pairs_completeness(detected, d.ground_truth.len());
        let pq = measures::pairs_quality(detected, blocks.total_comparisons());
        // The paper's Table 1(a) shape: near-perfect recall, precision far
        // below 1 (the small synthetic scale keeps PQ higher than the
        // real 10⁻³–10⁻⁵ range, but the ordering PC >> PQ must hold).
        assert!(pc > 0.95, "pc={pc}");
        assert!(pq < 0.1, "pq={pq}");
    }

    #[test]
    fn profiles_have_requested_attribute_counts() {
        let d = generate(&small_config()).unwrap();
        let (side1_names, side2_names) = d.collection.distinct_attribute_names();
        assert!(side1_names <= 4);
        assert!(side2_names <= 7);
        for (id, p) in d.collection.iter() {
            let expected = if d.collection.is_second(id) { 5 + 1 } else { 3 + 1 };
            assert!(!p.is_empty() && p.len() <= expected, "{} has {}", p.uri(), p.len());
        }
    }

    #[test]
    fn into_dirty_preserves_ground_truth() {
        let d = generate(&small_config()).unwrap().into_dirty();
        assert_eq!(d.collection.kind(), ErKind::Dirty);
        assert_eq!(d.ground_truth.len(), 200);
        let blocks = TokenBlocking.build(&d.collection);
        let detected = measures::detected_duplicates_in(&blocks, &d.ground_truth);
        assert!(measures::pairs_completeness(detected, 200) > 0.95);
    }

    #[test]
    fn zero_noise_duplicates_share_all_tokens() {
        let mut c = small_config();
        c.side1.noise = NoiseConfig::NONE;
        c.side2.noise = NoiseConfig::NONE;
        let d = generate(&c).unwrap();
        let sets = er_model::matching::TokenSets::build(&d.collection);
        for pair in d.ground_truth.pairs() {
            assert!((sets.jaccard(pair.a, pair.b) - 1.0).abs() < 1e-12, "{:?} differs", pair);
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut c = small_config();
        c.matched_pairs = 10_000;
        let err = generate(&c).unwrap_err();
        assert!(matches!(err, er_model::Error::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("matched_pairs"), "{err}");
    }
}
