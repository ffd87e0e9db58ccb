//! Differential tests of the blocking front-end on generated collections:
//! the batched interner and the counting-sort grouping behind every
//! key-based builder must reproduce what per-key `String`s, a first-seen
//! string interner and a comparison sort produce — blocks, block keys and
//! vocabulary, in order. Canopy Clustering, Sorted Neighborhood and the
//! Jaccard token sets are held to the same string reference.
//!
//! The reference tokenizer, its q-grams and suffixes and the string
//! interner live here, private to these tests: product code tokenizes only
//! through `KeyScratch::fill_tokens`.

use er_blocking::{
    AttributeClusteringBlocking, BlockingMethod, CanopyClustering, QGramsBlocking,
    SortedNeighborhood, StandardBlocking, SuffixArraysBlocking, TokenBlocking,
};
use er_datagen::{presets, DatasetConfig, GeneratedDataset};
use er_model::fxhash::FxHashMap;
use er_model::matching::{jaccard_sorted, TokenSets};
use er_model::tokenize::KeyScratch;
use er_model::{Block, BlockCollection, EntityCollection, EntityId, ErKind};
use std::collections::{BTreeMap, BTreeSet};

/// The reference tokenizer: a value split on every non-alphanumeric char,
/// empty pieces dropped, each token lowercased into an owned `String`.
fn tokens(value: &str) -> impl Iterator<Item = String> + '_ {
    value.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()).map(str::to_lowercase)
}

/// Character `q`-grams of every token; a token of at most `q` chars is
/// emitted whole.
fn qgrams(value: &str, q: usize) -> Vec<String> {
    let mut out = Vec::new();
    for tok in tokens(value) {
        let chars: Vec<char> = tok.chars().collect();
        if chars.len() <= q {
            out.push(tok);
        } else {
            out.extend(chars.windows(q).map(|w| w.iter().collect::<String>()));
        }
    }
    out
}

/// Every suffix of at least `min_len` chars of every token.
fn suffixes(value: &str, min_len: usize) -> Vec<String> {
    let mut out = Vec::new();
    for tok in tokens(value) {
        let chars: Vec<char> = tok.chars().collect();
        if chars.len() >= min_len {
            out.extend((0..=chars.len() - min_len).map(|s| chars[s..].iter().collect::<String>()));
        }
    }
    out
}

/// The reference interner: dense ids in first-seen order.
fn intern(ids: &mut FxHashMap<String, u32>, key: &str) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key.to_owned()).or_insert(next)
}

/// The interned keys in id order.
fn keys_in_id_order(ids: &FxHashMap<String, u32>) -> Vec<&str> {
    let mut keys: Vec<(u32, &str)> = ids.iter().map(|(k, &id)| (id, k.as_str())).collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, k)| k).collect()
}

fn tiny_datasets() -> [GeneratedDataset; 2] {
    let clean = || presets::build(&presets::tiny(20160315)).expect("tiny preset");
    [clean(), clean().into_dirty()]
}

fn tiny_collections() -> [EntityCollection; 2] {
    tiny_datasets().map(|d| d.collection)
}

/// A benchmark preset at a tenth of its size: same attribute and token
/// shapes, ~5–10k profiles.
fn tenth(mut config: DatasetConfig) -> DatasetConfig {
    config.matched_pairs /= 10;
    config.side1.size /= 10;
    config.side2.size /= 10;
    config.object.vocab_size /= 10;
    config
}

/// d1c and d2c, the Clean-Clean presets the repository benchmark runs, at
/// a tenth of their size.
fn tenth_presets() -> [(&'static str, GeneratedDataset); 2] {
    [("d1c", tenth(presets::d1c(13))), ("d2c", tenth(presets::d2c(13)))]
        .map(|(name, config)| (name, presets::build(&config).expect("preset")))
}

#[test]
fn fill_tokens_is_the_token_stream_on_the_benchmark_presets() {
    // The three presets the repository benchmark runs, a tenth of their
    // size: same attribute and token shapes, ~5–10k profiles each.
    let configs = [
        ("d1c", tenth(presets::d1c(13))),
        ("d2c", tenth(presets::d2c(13))),
        ("d3c", presets::d3c(13, 0.003)),
    ];
    let mut scratch = KeyScratch::new();
    for (name, config) in configs {
        let collection = presets::build(&config).expect("preset").collection;
        let mut streamed = 0usize;
        for (_, profile) in collection.iter() {
            scratch.fill_tokens(profile);
            assert!(scratch.iter().eq(profile.values().flat_map(tokens)), "{name}: {profile}");
            streamed += scratch.len();
        }
        assert!(streamed > 40_000, "{name}: only {streamed} tokens");
    }
}

/// The reference front-end: `keys_of` yields a profile value's keys as owned
/// `String`s, each profile's keys are sorted and deduplicated as strings,
/// interned one by one through the first-seen string interner, the postings
/// sorted by comparison, and each key's members made an owned `Block` if
/// they entail a comparison: ≥2 members for Dirty ER, members on both sides
/// for Clean-Clean ER.
fn string_oracle(
    collection: &EntityCollection,
    keys_of: impl Fn(&str) -> Vec<String>,
) -> (BlockCollection, Vec<u32>, FxHashMap<String, u32>) {
    let mut interner = FxHashMap::default();
    let mut postings: Vec<(u32, EntityId)> = Vec::new();
    for (id, profile) in collection.iter() {
        let mut keys: Vec<String> = profile.values().flat_map(&keys_of).collect();
        keys.sort_unstable();
        keys.dedup();
        postings.extend(keys.iter().map(|k| (intern(&mut interner, k), id)));
    }
    postings.sort_unstable();
    postings.dedup();
    let mut groups: BTreeMap<u32, Vec<EntityId>> = BTreeMap::new();
    for (key, entity) in postings {
        groups.entry(key).or_default().push(entity);
    }
    let (mut blocks, mut keys) = (Vec::new(), Vec::new());
    for (key, members) in groups {
        let (left, right): (Vec<EntityId>, Vec<EntityId>) =
            members.iter().partition(|e| e.idx() < collection.split());
        let block = match collection.kind() {
            ErKind::Dirty if members.len() >= 2 => Block::dirty(members),
            ErKind::CleanClean if !left.is_empty() && !right.is_empty() => {
                Block::clean_clean(left, right)
            }
            _ => continue,
        };
        blocks.push(block);
        keys.push(key);
    }
    (BlockCollection::new(collection.kind(), collection.len(), blocks), keys, interner)
}

#[test]
fn keyed_build_equals_the_string_oracle() {
    for collection in tiny_collections() {
        let (blocks, keys, vocabulary) = TokenBlocking.build_keyed(&collection).unwrap();
        assert!(blocks.size() > 100, "fixture too small to mean anything");

        let (expected, expected_keys, interner) =
            string_oracle(&collection, |v| tokens(v).collect());
        assert_eq!(blocks.raw_parts(), expected.raw_parts());
        assert_eq!(keys, expected_keys);
        assert!(vocabulary.iter().eq(keys_in_id_order(&interner)));
        assert_eq!(TokenBlocking.build(&collection).raw_parts(), expected.raw_parts());
    }
}

#[test]
fn qgram_and_suffix_builders_equal_the_string_oracle() {
    for collection in tiny_collections() {
        let method = QGramsBlocking::default();
        let (expected, _, _) = string_oracle(&collection, |v| qgrams(v, method.q));
        assert!(expected.size() > 100);
        assert_eq!(method.build(&collection).raw_parts(), expected.raw_parts());

        // Short suffixes, so the size cap also has something to discard.
        let method = SuffixArraysBlocking { min_suffix_len: 3, max_block_size: 53 };
        let (mut expected, _, _) =
            string_oracle(&collection, |v| suffixes(v, method.min_suffix_len));
        let uncapped = expected.size();
        expected.retain(|b| b.size() <= method.max_block_size);
        assert!(expected.size() > 100 && expected.size() < uncapped);
        assert_eq!(method.build(&collection).raw_parts(), expected.raw_parts());
    }
}

#[test]
fn standard_blocking_equals_the_string_oracle() {
    // One key per value: its tokens joined by single spaces.
    let whole_value = |v: &str| {
        let words: Vec<String> = tokens(v).collect();
        if words.is_empty() {
            Vec::new()
        } else {
            vec![words.join(" ")]
        }
    };
    for collection in tiny_collections() {
        let (expected, _, _) = string_oracle(&collection, whole_value);
        assert!(expected.size() > 10, "fixture too small to mean anything");
        assert_eq!(StandardBlocking.build(&collection).raw_parts(), expected.raw_parts());
    }
}

#[test]
fn attribute_clustering_with_no_links_is_token_blocking() {
    // Jaccard never exceeds 1, so at this threshold every attribute lands in
    // the glue cluster and every key is `<cluster>\u{1}<token>` with one
    // constant prefix: same groups, same first-seen order as Token Blocking,
    // through the prefixed-key path and the builder's own interner.
    for collection in tiny_collections() {
        let unlinked = AttributeClusteringBlocking { link_threshold: 1.0 }.build(&collection);
        assert_eq!(unlinked.raw_parts(), TokenBlocking.build(&collection).raw_parts());
        // The default (linked) configuration only refines those groups.
        let linked = AttributeClusteringBlocking::default().build(&collection);
        assert!(linked.validate().is_empty());
        assert!(linked.total_comparisons() <= unlinked.total_comparisons());
    }
}

/// Canopy Clustering's definition over the reference token sets: each
/// profile's tokens interned through the string interner, sorted and
/// deduplicated, candidates found through a token → profiles index.
fn canopy_oracle(collection: &EntityCollection, method: CanopyClustering) -> BlockCollection {
    let mut interner = FxHashMap::default();
    let sets: Vec<Vec<u32>> = collection
        .profiles()
        .iter()
        .map(|p| {
            let mut set: Vec<u32> =
                p.values().flat_map(tokens).map(|t| intern(&mut interner, &t)).collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect();
    let mut postings = vec![Vec::new(); interner.len()];
    for (i, set) in sets.iter().enumerate() {
        for &t in set {
            postings[t as usize].push(i);
        }
    }
    let n = collection.len();
    let mut in_pool = vec![true; n];
    let mut blocks = Vec::new();
    for seed in 0..n {
        if !in_pool[seed] {
            continue;
        }
        in_pool[seed] = false;
        let mut members = vec![EntityId::from_index(seed)];
        let candidates: BTreeSet<usize> =
            sets[seed].iter().flat_map(|&t| postings[t as usize].iter().copied()).collect();
        for c in candidates {
            if c == seed || !in_pool[c] {
                continue;
            }
            let sim = jaccard_sorted(&sets[seed], &sets[c]);
            if sim >= method.inclusion_threshold {
                members.push(EntityId::from_index(c));
                if sim >= method.removal_threshold {
                    in_pool[c] = false;
                }
            }
        }
        let block = match collection.kind() {
            ErKind::Dirty => Block::dirty(members),
            ErKind::CleanClean => {
                let (left, right): (Vec<EntityId>, Vec<EntityId>) =
                    members.iter().partition(|&&id| !collection.is_second(id));
                Block::clean_clean(left, right)
            }
        };
        if block.has_comparisons() {
            blocks.push(block);
        }
    }
    BlockCollection::new(collection.kind(), n, blocks)
}

/// Sorted Neighborhood's definition with the reference key: the smallest
/// reference token of a profile (`""` for none), ties broken by id, one
/// block per window that entails a comparison.
fn sorted_neighborhood_oracle(
    collection: &EntityCollection,
    method: SortedNeighborhood,
) -> BlockCollection {
    let mut keyed: Vec<(String, EntityId)> = collection
        .iter()
        .map(|(id, p)| (p.values().flat_map(tokens).min().unwrap_or_default(), id))
        .collect();
    keyed.sort();
    let order: Vec<EntityId> = keyed.into_iter().map(|(_, id)| id).collect();
    let mut blocks = Vec::new();
    for w in order.windows(method.window) {
        match collection.kind() {
            ErKind::Dirty => blocks.push(Block::dirty(w.to_vec())),
            ErKind::CleanClean => {
                let (left, right): (Vec<EntityId>, Vec<EntityId>) =
                    w.iter().partition(|&&id| !collection.is_second(id));
                if !left.is_empty() && !right.is_empty() {
                    blocks.push(Block::clean_clean(left, right));
                }
            }
        }
    }
    BlockCollection::new(collection.kind(), collection.len(), blocks)
}

#[test]
fn canopy_and_sorted_neighborhood_equal_the_string_oracle() {
    let collections = tiny_collections()
        .map(|c| ("tiny", c))
        .into_iter()
        .chain(tenth_presets().map(|(name, d)| (name, d.collection)));
    for (name, collection) in collections {
        let canopy = CanopyClustering::default();
        let expected = canopy_oracle(&collection, canopy);
        assert!(expected.size() > 100, "{name}: fixture too small to mean anything");
        assert_eq!(canopy.build(&collection).raw_parts(), expected.raw_parts(), "{name}");

        let sn = SortedNeighborhood::default();
        let expected = sorted_neighborhood_oracle(&collection, sn);
        assert!(expected.size() > 40, "{name}: fixture too small to mean anything");
        assert_eq!(sn.build(&collection).raw_parts(), expected.raw_parts(), "{name}");
    }
}

/// Jaccard similarity of two reference token sets.
fn string_jaccard(x: &BTreeSet<String>, y: &BTreeSet<String>) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 0.0;
    }
    let inter = x.intersection(y).count();
    inter as f64 / (x.len() + y.len() - inter) as f64
}

#[test]
fn token_set_jaccard_is_the_string_set_jaccard() {
    // xorshift64*, the house generator for seeded tests.
    let mut x = 0x7A5E_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let datasets = tiny_datasets().map(|d| ("tiny", d)).into_iter().chain(tenth_presets());
    for (name, dataset) in datasets {
        let collection = &dataset.collection;
        let sets = TokenSets::build(collection);
        let strings: Vec<BTreeSet<String>> =
            collection.profiles().iter().map(|p| p.values().flat_map(tokens).collect()).collect();
        assert_eq!(sets.len(), strings.len());
        for (id, _) in collection.iter() {
            assert_eq!(sets.get(id).len(), strings[id.idx()].len(), "{name}: {id:?}");
        }
        let check = |a: EntityId, b: EntityId| {
            let (got, want) =
                (sets.jaccard(a, b), string_jaccard(&strings[a.idx()], &strings[b.idx()]));
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: {a:?} {b:?}: {got} vs {want}");
        };
        assert!(dataset.ground_truth.len() > 100, "{name}");
        for pair in dataset.ground_truth.pairs() {
            check(pair.a, pair.b);
        }
        let (n, split) = (collection.len() as u64, collection.split() as u64);
        for _ in 0..10_000 {
            let (a, b) = match collection.kind() {
                ErKind::Dirty => (next() % n, next() % n),
                ErKind::CleanClean => (next() % split, split + next() % (n - split)),
            };
            if a != b {
                check(EntityId(a as u32), EntityId(b as u32));
            }
        }
    }
}
