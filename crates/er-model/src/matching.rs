//! Entity matching.
//!
//! The paper treats matching as orthogonal to blocking, but needs a concrete
//! matcher in two places: Resolution Time accounting ("we use the Jaccard
//! similarity of all tokens in the values of two entity profiles for entity
//! matching") and Iterative Blocking, whose propagation depends on match
//! decisions. Both are served here, plus a ground-truth oracle used for the
//! idealized baseline accounting.
//!
//! "All tokens" are Token Blocking's: [`TokenSets`] takes each profile's
//! tokens from [`KeyScratch::fill_tokens`] and numbers them with
//! [`TokenInterner`], so the matcher and the blocks cannot disagree on what
//! a token is. A Jaccard value depends only on which ids two sets share,
//! never on how the ids were assigned.

use crate::collection::EntityCollection;
use crate::groundtruth::GroundTruth;
use crate::ids::EntityId;
use crate::tokenize::{KeyScratch, TokenInterner};

/// Pre-computed token-id sets (sorted, deduplicated) for every profile of a
/// collection, back to back in one pool. Building this once turns each
/// Jaccard evaluation into a linear merge of two sorted `u32` slices.
#[derive(Debug, Clone)]
pub struct TokenSets {
    /// Every profile's set, in profile order.
    ids: Vec<u32>,
    /// Profile `i`'s set is `ids[offsets[i]..offsets[i + 1]]`; one entry per
    /// profile plus a leading 0.
    offsets: Vec<u32>,
}

impl TokenSets {
    /// Tokenizes every profile of `collection`.
    ///
    /// # Panics
    /// If the distinct tokens, or the ids of all sets together, are past
    /// `u32` addressing.
    pub fn build(collection: &EntityCollection) -> Self {
        let (mut interner, mut scratch) = (TokenInterner::new(), KeyScratch::new());
        let mut set = Vec::new();
        let mut ids = Vec::new();
        let mut offsets = Vec::with_capacity(collection.len() + 1);
        offsets.push(0);
        for profile in collection.profiles() {
            scratch.fill_tokens(profile);
            let overflow = interner.intern_all(&scratch, &mut set).err().map(|o| o.to_string());
            assert!(overflow.is_none(), "{}", overflow.unwrap_or_default());
            // `intern_all` writes each distinct token's id once.
            set.sort_unstable();
            ids.extend_from_slice(&set);
            let end = u32::try_from(ids.len());
            assert!(end.is_ok(), "token sets exceed u32 addressing: {} ids", ids.len());
            offsets.push(end.unwrap_or(u32::MAX));
        }
        TokenSets { ids, offsets }
    }

    /// The token-id set of a profile.
    pub fn get(&self, id: EntityId) -> &[u32] {
        let i = id.idx();
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of profiles covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no profile is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Jaccard similarity of the token sets of two profiles.
    pub fn jaccard(&self, a: EntityId, b: EntityId) -> f64 {
        jaccard_sorted(self.get(a), self.get(b))
    }
}

/// Jaccard similarity of two sorted, deduplicated id slices.
pub fn jaccard_sorted(x: &[u32], y: &[u32]) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = x.len() + y.len() - inter;
    inter as f64 / union as f64
}

/// A pairwise match decision procedure.
pub trait Matcher {
    /// Whether the two profiles are deemed duplicates.
    fn is_match(&self, a: EntityId, b: EntityId) -> bool;
}

/// Matches profiles whose token-set Jaccard similarity reaches a threshold.
#[derive(Debug)]
pub struct JaccardMatcher {
    sets: TokenSets,
    threshold: f64,
}

impl JaccardMatcher {
    /// Builds the matcher over a collection with the given threshold.
    pub fn new(collection: &EntityCollection, threshold: f64) -> Self {
        JaccardMatcher { sets: TokenSets::build(collection), threshold }
    }

    /// The underlying token sets.
    pub fn sets(&self) -> &TokenSets {
        &self.sets
    }
}

impl Matcher for JaccardMatcher {
    fn is_match(&self, a: EntityId, b: EntityId) -> bool {
        self.sets.jaccard(a, b) >= self.threshold
    }
}

/// A ground-truth oracle: matches exactly the duplicate pairs.
///
/// The paper's Iterative-Blocking baseline is evaluated under the "ideal
/// case" assumption; this oracle reproduces that accounting.
#[derive(Debug, Clone, Copy)]
pub struct OracleMatcher<'a> {
    gt: &'a GroundTruth,
}

impl<'a> OracleMatcher<'a> {
    /// Creates the oracle over a ground truth.
    pub fn new(gt: &'a GroundTruth) -> Self {
        OracleMatcher { gt }
    }
}

impl Matcher for OracleMatcher<'_> {
    fn is_match(&self, a: EntityId, b: EntityId) -> bool {
        self.gt.are_duplicates(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EntityProfile;

    fn collection() -> EntityCollection {
        EntityCollection::dirty(vec![
            EntityProfile::new("0").with("name", "jack lloyd miller").with("job", "auto seller"),
            EntityProfile::new("1")
                .with("fullname", "jack miller")
                .with("work", "car vendor seller"),
            EntityProfile::new("2").with("name", "erick green"),
            EntityProfile::new("3").with("x", ""),
        ])
    }

    #[test]
    fn jaccard_sorted_basics() {
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard_sorted(&[1], &[1]), 1.0);
        assert_eq!(jaccard_sorted(&[1], &[2]), 0.0);
        assert_eq!(jaccard_sorted(&[], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[], &[1]), 0.0);
    }

    #[test]
    fn token_sets_jaccard() {
        let sets = TokenSets::build(&collection());
        assert_eq!(sets.len(), 4);
        // p0 tokens: {jack, lloyd, miller, auto, seller} (5)
        // p1 tokens: {jack, miller, car, vendor, seller} (5)
        // intersection = {jack, miller, seller} (3); union = 7.
        let sim = sets.jaccard(EntityId(0), EntityId(1));
        assert!((sim - 3.0 / 7.0).abs() < 1e-12);
        // Empty-value profile has an empty token set.
        assert!(sets.get(EntityId(3)).is_empty());
        assert_eq!(sets.jaccard(EntityId(2), EntityId(3)), 0.0);
    }

    #[test]
    fn token_sets_are_sorted_distinct_ids_in_one_pool() {
        let sets = TokenSets::build(&EntityCollection::dirty(vec![
            EntityProfile::new("0").with("a", "miller jack").with("b", "car Miller jack"),
            EntityProfile::new("1"),
            EntityProfile::new("2").with("a", "jack jack"),
        ]));
        // "miller jack car": three ids, each once, ascending.
        let first = sets.get(EntityId(0));
        assert_eq!(first.len(), 3);
        assert!(first.windows(2).all(|w| w[0] < w[1]), "{first:?}");
        assert!(sets.get(EntityId(1)).is_empty());
        assert_eq!(sets.get(EntityId(2)).len(), 1);
        assert!(first.contains(&sets.get(EntityId(2))[0]));
        assert_eq!(sets.offsets, [0, 3, 3, 4]);
        assert_eq!(sets.ids.len(), 4);
        assert_eq!((sets.len(), sets.is_empty()), (3, false));
        assert!(TokenSets::build(&EntityCollection::dirty(Vec::new())).is_empty());
    }

    #[test]
    fn jaccard_matcher_threshold() {
        let c = collection();
        let m = JaccardMatcher::new(&c, 0.4);
        assert!(m.is_match(EntityId(0), EntityId(1)));
        assert!(!m.is_match(EntityId(0), EntityId(2)));
        let strict = JaccardMatcher::new(&c, 0.5);
        assert!(!strict.is_match(EntityId(0), EntityId(1)));
    }

    #[test]
    fn oracle_matcher_follows_ground_truth() {
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        let m = OracleMatcher::new(&gt);
        assert!(m.is_match(EntityId(1), EntityId(0)));
        assert!(!m.is_match(EntityId(0), EntityId(2)));
    }
}
