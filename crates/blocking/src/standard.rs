//! Standard Blocking (Fellegi & Sunter lineage): one block per whole
//! attribute value.

use crate::builder::KeyBlockBuilder;
use crate::method::BlockingMethod;
use er_model::tokenize::{raw_tokens, KeyScratch};
use er_model::{BlockCollection, EntityCollection};

/// Standard Blocking, schema-agnostic flavour: the *normalized whole value*
/// of every attribute is a blocking key. Profiles co-occur only when an
/// entire value matches after normalization, so the blocks are far more
/// precise — and far less complete — than Token Blocking's. Included as the
/// classical disjoint-style baseline of §2.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardBlocking;

impl BlockingMethod for StandardBlocking {
    fn name(&self) -> &'static str {
        "Standard Blocking"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        let mut builder = KeyBlockBuilder::new(collection);
        let mut scratch = KeyScratch::new();
        for (id, profile) in collection.iter() {
            scratch.clear();
            for v in profile.values() {
                // One key per value: its normalized tokens joined by spaces.
                let start = scratch.begin();
                let mut first = true;
                for raw in raw_tokens(v) {
                    if !first {
                        scratch.push_str(" ");
                    }
                    first = false;
                    scratch.push_lowercase(raw);
                }
                scratch.commit(start); // valueless keys are dropped here
            }
            builder.assign_all(&scratch, id);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::EntityProfile;

    #[test]
    fn whole_value_must_match() {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("name", "Jack Miller"),
            EntityProfile::new("b").with("fullname", "jack-miller"),
            EntityProfile::new("c").with("name", "Jack Lloyd Miller"),
        ]);
        let blocks = StandardBlocking.build(&e);
        // a and b normalize to the same key; c does not.
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).size(), 2);
    }

    #[test]
    fn empty_values_produce_no_keys() {
        let e = EntityCollection::dirty(vec![
            EntityProfile::new("a").with("x", "  "),
            EntityProfile::new("b").with("x", " -- "),
        ]);
        assert!(StandardBlocking.build(&e).is_empty());
    }

    #[test]
    fn is_subset_of_token_blocking_co_occurrences() {
        use crate::fixtures::figure1_collection;
        use crate::TokenBlocking;
        let e = figure1_collection();
        let std_blocks = StandardBlocking.build(&e);
        let tok_idx = er_model::EntityIndex::build(&TokenBlocking.build(&e));
        let mut violated = false;
        std_blocks.for_each_comparison(|a, b| {
            if tok_idx.least_common_block(a, b).is_none() {
                violated = true;
            }
        });
        assert!(!violated);
    }
}
