//! Canopy Clustering (McCallum, Nigam & Ungar, KDD'00).

use crate::method::BlockingMethod;
use er_model::fxhash::FxHashMap;
use er_model::matching::TokenSets;
use er_model::{Block, BlockCollection, EntityCollection, EntityId, ErKind};

/// Canopy Clustering — the paper's example of a redundancy-*negative*
/// method (§2): "the most similar entity profiles share just one block".
///
/// Seeds are drawn from the pool of unassigned profiles in id order (a
/// deterministic stand-in for random selection); every profile within
/// `inclusion_threshold` (cheap Jaccard over token sets) joins the seed's
/// canopy, and those within the tighter `removal_threshold` leave the pool —
/// they will never seed or join another canopy. Hence highly similar
/// profiles co-occur exactly once, so the number of shared blocks carries
/// no signal and meta-blocking must NOT be applied on top of this method;
/// it is here to delimit the redundancy-positive family.
#[derive(Debug, Clone, Copy)]
pub struct CanopyClustering {
    /// Looser threshold: minimum similarity to enter a canopy.
    pub inclusion_threshold: f64,
    /// Tighter threshold: similarity at which a profile is removed from the
    /// candidate pool. Must be ≥ `inclusion_threshold`.
    pub removal_threshold: f64,
}

impl Default for CanopyClustering {
    fn default() -> Self {
        CanopyClustering { inclusion_threshold: 0.3, removal_threshold: 0.6 }
    }
}

impl BlockingMethod for CanopyClustering {
    fn name(&self) -> &'static str {
        "Canopy Clustering"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        assert!(
            self.removal_threshold >= self.inclusion_threshold,
            "removal_threshold must be at least inclusion_threshold"
        );
        let sets = TokenSets::build(collection);

        // Inverted index token -> profiles, to find canopy candidates
        // without the quadratic scan.
        let mut postings: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (id, _) in collection.iter() {
            for &t in sets.get(id) {
                postings.entry(t).or_default().push(id.0);
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
            let seed_id = EntityId::from_index(seed);
            let mut members = vec![seed_id];
            // Candidates: profiles sharing at least one token with the seed,
            // in id order, so how token ids are assigned cannot matter.
            let seed_set = sets.get(seed_id);
            let mut candidates: Vec<u32> = seed_set
                .iter()
                .flat_map(|t| postings.get(t).into_iter().flatten().copied())
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            for cand in candidates {
                let c = cand as usize;
                if c == seed || !in_pool[c] {
                    continue;
                }
                let sim = sets.jaccard(seed_id, EntityId(cand));
                if sim >= self.inclusion_threshold {
                    members.push(EntityId(cand));
                    if sim >= self.removal_threshold {
                        in_pool[c] = false;
                    }
                }
            }
            let block = match collection.kind() {
                ErKind::Dirty => Block::dirty(members),
                ErKind::CleanClean => {
                    let (left, right): (Vec<EntityId>, Vec<EntityId>) =
                        members.iter().partition(|&&id| !collection.is_second(id));
                    if left.is_empty() || right.is_empty() {
                        continue;
                    }
                    Block::clean_clean(left, right)
                }
            };
            if block.has_comparisons() {
                blocks.push(block);
            }
        }
        BlockCollection::new(collection.kind(), n, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{EntityIndex, EntityProfile};

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
    fn near_duplicates_share_exactly_one_canopy() {
        let e = profiles(&[
            "jack lloyd miller seller",
            "jack lloyd miller vendor",
            "erick green trader",
            "erick green dealer",
        ]);
        let blocks = CanopyClustering::default().build(&e);
        let idx = EntityIndex::build(&blocks);
        // Redundancy-negative: the near-duplicate pairs co-occur once.
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(1)), 1);
        assert_eq!(idx.common_blocks(EntityId(2), EntityId(3)), 1);
        // Dissimilar profiles never co-occur.
        assert_eq!(idx.common_blocks(EntityId(0), EntityId(2)), 0);
    }

    #[test]
    fn loose_members_can_join_several_canopies() {
        // p1 is moderately similar to both p0 and p2, which are dissimilar
        // to each other: with a high removal threshold p1 stays in the pool
        // and lands in both canopies.
        let e = profiles(&["alpha beta gamma", "alpha delta epsilon", "delta epsilon zeta"]);
        let m = CanopyClustering { inclusion_threshold: 0.2, removal_threshold: 0.9 };
        let blocks = m.build(&e);
        let idx = EntityIndex::build(&blocks);
        assert!(idx.num_blocks_of(EntityId(1)) >= 2);
    }

    #[test]
    fn disjoint_profiles_make_no_blocks() {
        let e = profiles(&["aaa bbb", "ccc ddd"]);
        assert!(CanopyClustering::default().build(&e).is_empty());
    }

    #[test]
    #[should_panic(expected = "removal_threshold")]
    fn thresholds_are_validated() {
        let e = profiles(&["a b"]);
        CanopyClustering { inclusion_threshold: 0.8, removal_threshold: 0.2 }.build(&e);
    }

    #[test]
    fn clean_clean_canopies_cross_sides() {
        let e1 = vec![EntityProfile::new("a").with("v", "jack miller seller")];
        let e2 = vec![
            EntityProfile::new("b").with("v", "jack miller vendor"),
            EntityProfile::new("c").with("v", "unrelated words entirely"),
        ];
        let e = EntityCollection::clean_clean(e1, e2);
        let blocks = CanopyClustering::default().build(&e);
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).left(), &[EntityId(0)]);
        assert_eq!(blocks.block(0).right(), &[EntityId(1)]);
    }
}
