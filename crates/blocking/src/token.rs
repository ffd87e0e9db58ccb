//! Token Blocking (Papadakis et al., TKDE'13; §1–2 of the EDBT'16 paper).

use crate::builder::KeyBlockBuilder;
use crate::method::BlockingMethod;
use er_model::tokenize::{ArenaOverflow, KeyArena, KeyScratch};
use er_model::{BlockCollection, EntityCollection};

/// Schema-agnostic Token Blocking: "it splits the attribute values of every
/// entity profile into tokens based on whitespace; then, it creates a
/// separate block for every token that appears in at least two profiles."
///
/// For Clean-Clean ER a token's block is kept only if the token appears in
/// profiles of *both* collections.
///
/// ```
/// use er_blocking::{BlockingMethod, TokenBlocking};
/// use er_model::{EntityCollection, EntityProfile};
///
/// let e = EntityCollection::dirty(vec![
///     EntityProfile::new("p1").with("name", "jack miller"),
///     EntityProfile::new("p2").with("fullname", "jack lloyd"),
/// ]);
/// let blocks = TokenBlocking.build(&e);
/// assert_eq!(blocks.size(), 1); // only "jack" is shared
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenBlocking;

impl TokenBlocking {
    /// [`BlockingMethod::build`] with key provenance: also returns the
    /// interned token id of every emitted block plus the vocabulary that
    /// maps ids back to token strings — the inputs a serving snapshot
    /// persists so online probes can tokenize against the *same* vocabulary.
    ///
    /// The block collection is identical to [`BlockingMethod::build`]'s; a
    /// vocabulary past `u32` addressing is an error here where `build`
    /// panics.
    pub fn build_keyed(
        &self,
        collection: &EntityCollection,
    ) -> Result<(BlockCollection, Vec<u32>, KeyArena), ArenaOverflow> {
        self.fill(collection).finish_keyed()
    }

    /// The token-extraction pass behind both build flavors.
    fn fill(&self, collection: &EntityCollection) -> KeyBlockBuilder {
        let mut builder = KeyBlockBuilder::new(collection);
        let mut scratch = KeyScratch::new();
        for (id, profile) in collection.iter() {
            scratch.fill_tokens(profile);
            builder.assign_all(&scratch, id);
        }
        builder
    }
}

impl BlockingMethod for TokenBlocking {
    fn name(&self) -> &'static str {
        "Token Blocking"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        self.fill(collection).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{EntityId, EntityProfile, ErKind};

    use crate::fixtures::figure1_profiles;

    #[test]
    fn reproduces_figure_1b() {
        let e = EntityCollection::dirty(figure1_profiles());
        let blocks = TokenBlocking.build(&e);
        // Figure 1(b): 8 blocks — jack{p1,p3}, miller{p1,p3}, erick{p2,p4},
        // green{p2,p4}, vendor{p2,p3}, seller{p3,p5}, lloyd{p1,p4},
        // car{p3,p4,p5,p6} — 13 comparisons in total.
        assert_eq!(blocks.size(), 8);
        assert_eq!(blocks.total_comparisons(), 13);
        let mut sizes: Vec<usize> = blocks.iter().map(|b| b.size()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 2, 2, 2, 2, 2, 4]);

        // The "car" block holds p3..p6 (ids 2..5).
        let car = blocks.iter().find(|b| b.size() == 4).expect("car block");
        assert_eq!(car.left(), &[EntityId(2), EntityId(3), EntityId(4), EntityId(5)]);
    }

    #[test]
    fn clean_clean_token_blocking_crosses_collections() {
        let e1 = vec![EntityProfile::new("a").with("n", "jack miller")];
        let e2 = vec![
            EntityProfile::new("b").with("m", "jack lloyd"),
            EntityProfile::new("c").with("m", "miller car"),
        ];
        let e = EntityCollection::clean_clean(e1, e2);
        let blocks = TokenBlocking.build(&e);
        assert_eq!(blocks.kind(), ErKind::CleanClean);
        // "jack" -> {a}×{b}, "miller" -> {a}×{c}; "lloyd"/"car" only in E2.
        assert_eq!(blocks.size(), 2);
        assert_eq!(blocks.total_comparisons(), 2);
    }

    #[test]
    fn repeated_token_in_one_profile_counts_once() {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("x", "car car car"),
            EntityProfile::new("b").with("y", "car"),
        ]);
        let blocks = TokenBlocking.build(&e);
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).size(), 2);
    }

    #[test]
    fn keyed_build_matches_plain_build_and_names_every_block() {
        let e = EntityCollection::dirty(figure1_profiles());
        let plain = TokenBlocking.build(&e);
        let (keyed, keys, vocabulary) = TokenBlocking.build_keyed(&e).unwrap();
        assert_eq!(plain.size(), keyed.size());
        assert_eq!(keys.len(), keyed.size());
        for k in 0..plain.size() {
            assert_eq!(plain.block(k).left(), keyed.block(k).left());
        }
        let name = |id: u32| vocabulary.get(id);
        // The 4-member block is the "car" token's.
        let car = (0..keyed.size()).find(|&k| keyed.block(k).size() == 4).unwrap();
        assert_eq!(name(keys[car]), "car");
    }

    #[test]
    fn no_shared_tokens_no_blocks() {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("x", "alpha"),
            EntityProfile::new("b").with("y", "beta"),
        ]);
        assert!(TokenBlocking.build(&e).is_empty());
    }
}
