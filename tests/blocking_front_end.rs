//! Differential tests of the blocking front-end on generated collections:
//! the batched interner and the counting-sort grouping behind every
//! key-based builder must reproduce what per-key `String`s, the two-table
//! `Interner` and a comparison sort produce — blocks, block keys and
//! vocabulary, in order.

use er_blocking::{
    AttributeClusteringBlocking, BlockingMethod, QGramsBlocking, StandardBlocking,
    SuffixArraysBlocking, TokenBlocking,
};
use er_datagen::presets;
use er_model::tokenize::{qgrams, suffixes, tokens, Interner, KeyScratch};
use er_model::{Block, BlockCollection, EntityCollection, EntityId, ErKind};
use std::collections::BTreeMap;

fn tiny_collections() -> [EntityCollection; 2] {
    let clean = presets::build(&presets::tiny(20160315)).expect("tiny preset");
    [clean.collection.clone(), clean.into_dirty().collection]
}

#[test]
fn fill_tokens_is_the_token_stream_on_the_benchmark_presets() {
    // The three presets the repository benchmark runs, a tenth of their
    // size: same attribute and token shapes, ~5–10k profiles each.
    let shrink = |mut config: er_datagen::DatasetConfig| {
        config.matched_pairs /= 10;
        config.side1.size /= 10;
        config.side2.size /= 10;
        config.object.vocab_size /= 10;
        config
    };
    let configs = [
        ("d1c", shrink(presets::d1c(13))),
        ("d2c", shrink(presets::d2c(13))),
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
/// interned one by one through the two-table `Interner`, the postings
/// sorted by comparison, and each key's members made an owned `Block` if
/// they entail a comparison: ≥2 members for Dirty ER, members on both sides
/// for Clean-Clean ER.
fn string_oracle(
    collection: &EntityCollection,
    keys_of: impl Fn(&str) -> Vec<String>,
) -> (BlockCollection, Vec<u32>, Interner) {
    let mut interner = Interner::new();
    let mut postings: Vec<(u32, EntityId)> = Vec::new();
    for (id, profile) in collection.iter() {
        let mut keys: Vec<String> = profile.values().flat_map(&keys_of).collect();
        keys.sort_unstable();
        keys.dedup();
        postings.extend(keys.iter().map(|k| (interner.intern(k), id)));
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
        assert!(vocabulary.iter().eq((0..interner.len() as u32).map(|id| interner.resolve(id))));
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
