//! Q-grams Blocking (Gravano et al., VLDB'01; schema-agnostic variant).

use crate::builder::KeyBlockBuilder;
use crate::method::BlockingMethod;
use er_model::tokenize::{raw_tokens, KeyScratch};
use er_model::{BlockCollection, EntityCollection};

/// Schema-agnostic Q-grams Blocking: every attribute value is tokenized and
/// each token is decomposed into character q-grams; one block per q-gram.
///
/// More noise-tolerant than Token Blocking (typos still share most q-grams)
/// at the price of larger, less precise blocks. The paper reports it
/// "produced blocks with similar characteristics as Token Blocking" (§6.2);
/// the `blocking_method_equivalence` experiment verifies the same here.
#[derive(Debug, Clone, Copy)]
pub struct QGramsBlocking {
    /// The q-gram length; the literature default is 3 (trigrams).
    pub q: usize,
}

impl Default for QGramsBlocking {
    fn default() -> Self {
        QGramsBlocking { q: 3 }
    }
}

impl BlockingMethod for QGramsBlocking {
    fn name(&self) -> &'static str {
        "Q-grams Blocking"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        assert!(self.q > 0, "q must be positive");
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
                    // Char boundaries of the lowercased token; q-gram
                    // windows alias its bytes rather than copying them.
                    bounds.clear();
                    bounds.extend(scratch.buf()[start..end].char_indices().map(|(i, _)| start + i));
                    bounds.push(end);
                    let nchars = bounds.len() - 1;
                    if nchars <= self.q {
                        scratch.commit(start);
                    } else {
                        for w in 0..=(nchars - self.q) {
                            scratch.push_range(bounds[w], bounds[w + self.q]);
                        }
                    }
                }
            }
            builder.assign_all(&scratch, id);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{EntityId, EntityProfile};

    #[test]
    fn typos_still_co_occur() {
        // "miller" vs "miller" share no whole token but share q-grams.
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("n", "miller"),
            EntityProfile::new("b").with("n", "miler"),
        ]);
        let blocks = QGramsBlocking::default().build(&e);
        assert!(!blocks.is_empty());
        // They co-occur in the "mil" and "ler" blocks.
        assert!(blocks.iter().all(|b| b.size() == 2));
        assert!(blocks.size() >= 2);
    }

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
    fn a_long_token_is_its_windows() {
        // "seller" is sel, ell, lle, ler; each token of the second profile
        // is exactly q chars long, so it is its own single window.
        let blocks = QGramsBlocking { q: 3 }.build(&profiles(&["seller", "ler lle ell sel"]));
        assert_eq!(blocks.size(), 4);
        assert!(blocks.iter().all(|b| b.left() == [EntityId(0), EntityId(1)]));
    }

    #[test]
    fn a_short_token_is_emitted_whole() {
        // At q = 4 "car" and "scar" are both shorter than or as long as q:
        // whole tokens, which differ. At q = 3 "scar" has the window "car".
        let e = profiles(&["car", "scar"]);
        assert!(QGramsBlocking { q: 4 }.build(&e).is_empty());
        assert_eq!(QGramsBlocking { q: 3 }.build(&e).size(), 1);
        assert_eq!(QGramsBlocking { q: 4 }.build(&profiles(&["car", "Car"])).size(), 1);
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn q0_panics() {
        QGramsBlocking { q: 0 }.build(&profiles(&["x"]));
    }

    #[test]
    fn q1_blocks_per_character() {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("n", "ab"),
            EntityProfile::new("b").with("n", "bc"),
        ]);
        let blocks = QGramsBlocking { q: 1 }.build(&e);
        // Only "b" is shared.
        assert_eq!(blocks.size(), 1);
    }

    #[test]
    fn produces_superset_of_token_co_occurrences() {
        use crate::fixtures::figure1_collection;
        use crate::TokenBlocking;
        let e = figure1_collection();
        let token = TokenBlocking.build(&e);
        let qg = QGramsBlocking::default().build(&e);
        // Every pair co-occurring under Token Blocking also co-occurs under
        // Q-grams Blocking (identical tokens share all their q-grams).
        let token_idx = er_model::EntityIndex::build(&token);
        let qg_idx = er_model::EntityIndex::build(&qg);
        let mut violated = false;
        token.for_each_comparison(|a, b| {
            if qg_idx.least_common_block(a, b).is_none() {
                violated = true;
            }
            let _ = token_idx.least_common_block(a, b);
        });
        assert!(!violated);
        // And it entails at least as many comparisons.
        assert!(qg.total_comparisons() >= token.total_comparisons());
    }
}
