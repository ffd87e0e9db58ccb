//! Suffix-Arrays Blocking (Aizawa & Oyama, WIRI'05).

use crate::builder::KeyBlockBuilder;
use crate::method::BlockingMethod;
use er_model::tokenize::{raw_tokens, KeyScratch};
use er_model::{BlockCollection, EntityCollection};

/// Suffix-Arrays Blocking: every token contributes all suffixes of length at
/// least [`SuffixArraysBlocking::min_suffix_len`]; one block per suffix.
/// Blocks larger than [`SuffixArraysBlocking::max_block_size`] are discarded
/// — short suffixes are shared by too many profiles to be discriminative,
/// and the original method bounds block size for exactly that reason.
#[derive(Debug, Clone, Copy)]
pub struct SuffixArraysBlocking {
    /// Minimum suffix length (original default: 6).
    pub min_suffix_len: usize,
    /// Maximum number of profiles a block may contain (original default: 53).
    pub max_block_size: usize,
}

impl Default for SuffixArraysBlocking {
    fn default() -> Self {
        SuffixArraysBlocking { min_suffix_len: 6, max_block_size: 53 }
    }
}

impl BlockingMethod for SuffixArraysBlocking {
    fn name(&self) -> &'static str {
        "Suffix Arrays Blocking"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        let mut builder = KeyBlockBuilder::new(collection);
        let mut scratch = KeyScratch::new();
        let mut bounds: Vec<usize> = Vec::new();
        for (id, profile) in collection.iter() {
            scratch.clear();
            for v in profile.values() {
                for raw in raw_tokens(v) {
                    let start = scratch.begin();
                    scratch.push_lowercase(raw);
                    let end = scratch.end();
                    // Suffixes alias the token's bytes from each char
                    // boundary that leaves at least `min_suffix_len` chars.
                    bounds.clear();
                    bounds.extend(scratch.buf()[start..end].char_indices().map(|(i, _)| start + i));
                    let min = self.min_suffix_len.max(1);
                    let nchars = bounds.len();
                    if nchars < min {
                        continue;
                    }
                    for &b in &bounds[..=(nchars - min)] {
                        scratch.push_range(b, end);
                    }
                }
            }
            builder.assign_all(&scratch, id);
        }
        let mut blocks = builder.finish();
        let max = self.max_block_size;
        blocks.retain(|b| b.size() <= max);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{EntityId, EntityProfile};

    fn profiles(values: &[&str]) -> EntityCollection {
        EntityCollection::dirty(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| EntityProfile::new(format!("p{i}")).with("v", *v))
                .collect(),
        )
    }

    #[test]
    fn shared_suffixes_block_together() {
        // "christen" and "kristen" share the suffixes "risten" and "isten".
        let e = profiles(&["christen", "kristen"]);
        let blocks = SuffixArraysBlocking { min_suffix_len: 5, max_block_size: 50 }.build(&e);
        assert!(!blocks.is_empty());
        assert!(blocks.iter().all(|b| b.size() == 2));
    }

    #[test]
    fn suffixes_respect_min_len() {
        // "trader" gives trader, rader and ader at min 4; "der" is too short
        // to be a suffix of "trader" or a key of its own.
        let e = profiles(&["trader", "ader", "der", "rader der"]);
        let blocks = SuffixArraysBlocking { min_suffix_len: 4, max_block_size: 50 }.build(&e);
        let members: Vec<Vec<EntityId>> = blocks.iter().map(|b| b.left().to_vec()).collect();
        let (p0, p1, p3) = (EntityId(0), EntityId(1), EntityId(3));
        assert_eq!(blocks.size(), 2, "{members:?}");
        assert!(members.contains(&vec![p0, p1, p3]), "ader: {members:?}");
        assert!(members.contains(&vec![p0, p3]), "rader: {members:?}");
    }

    #[test]
    fn tokens_shorter_than_min_are_skipped() {
        let e = profiles(&["car", "car"]);
        let blocks = SuffixArraysBlocking { min_suffix_len: 4, max_block_size: 50 }.build(&e);
        assert!(blocks.is_empty());
    }

    #[test]
    fn oversized_blocks_are_discarded() {
        let e = profiles(&["common", "common", "common", "distinctive", "indistinctive"]);
        let blocks = SuffixArraysBlocking { min_suffix_len: 6, max_block_size: 2 }.build(&e);
        // The "common" suffix block holds 3 profiles -> purged; the shared
        // "…distinctive" suffix blocks hold 2 -> kept.
        assert!(!blocks.is_empty());
        assert!(blocks.iter().all(|b| b.size() <= 2));
    }

    #[test]
    fn default_parameters_match_the_literature() {
        let d = SuffixArraysBlocking::default();
        assert_eq!(d.min_suffix_len, 6);
        assert_eq!(d.max_block_size, 53);
    }
}
