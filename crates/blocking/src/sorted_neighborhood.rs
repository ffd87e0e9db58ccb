//! Single-pass Sorted Neighborhood (Hernández & Stolfo, SIGMOD'95).

use crate::method::BlockingMethod;
use er_model::tokenize::KeyScratch;
use er_model::{Block, BlockCollection, EntityCollection, EntityId, ErKind};

/// The single-pass Sorted Neighborhood method: profiles are sorted by a
/// blocking key and a window of size `w` slides over the sorted list; each
/// window position forms one block.
///
/// This is the paper's example of a redundancy-*neutral* method (§2): all
/// pairs of profiles co-occur in the same number of blocks (the window
/// size), so the number of shared blocks carries no signal and
/// meta-blocking's redundancy-positive assumption does not hold. It is
/// included to delimit the scope of meta-blocking, not as an input to it.
#[derive(Debug, Clone, Copy)]
pub struct SortedNeighborhood {
    /// Sliding-window size (number of profiles per window).
    pub window: usize,
}

impl Default for SortedNeighborhood {
    fn default() -> Self {
        SortedNeighborhood { window: 3 }
    }
}

impl SortedNeighborhood {
    /// The sort key of a profile: the byte-wise smallest of its Token
    /// Blocking tokens, `""` if it has none. A content-derived key keeps the
    /// method schema-agnostic — classic implementations use a
    /// domain-specific key, which heterogeneous Web data does not offer.
    fn sort_key(scratch: &mut KeyScratch, collection: &EntityCollection, id: EntityId) -> String {
        scratch.fill_tokens(collection.profile(id));
        scratch.iter().min().unwrap_or_default().to_owned()
    }
}

impl BlockingMethod for SortedNeighborhood {
    fn name(&self) -> &'static str {
        "Sorted Neighborhood"
    }

    fn build(&self, collection: &EntityCollection) -> BlockCollection {
        assert!(self.window >= 2, "window must span at least two profiles");
        let mut order: Vec<EntityId> = collection.iter().map(|(id, _)| id).collect();
        let mut scratch = KeyScratch::new();
        let mut keys: Vec<String> =
            order.iter().map(|&id| Self::sort_key(&mut scratch, collection, id)).collect();
        let mut perm: Vec<usize> = (0..order.len()).collect();
        perm.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(order[a].cmp(&order[b])));
        order = perm.iter().map(|&i| order[i]).collect();
        keys.clear();

        let mut blocks = Vec::new();
        if order.len() >= self.window {
            for w in order.windows(self.window) {
                let block = match collection.kind() {
                    ErKind::Dirty => Block::dirty(w.to_vec()),
                    ErKind::CleanClean => {
                        let (left, right): (Vec<EntityId>, Vec<EntityId>) =
                            w.iter().partition(|&&id| !collection.is_second(id));
                        if left.is_empty() || right.is_empty() {
                            continue;
                        }
                        Block::clean_clean(left, right)
                    }
                };
                blocks.push(block);
            }
        }
        BlockCollection::new(collection.kind(), collection.len(), blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::EntityProfile;

    fn named(names: &[&str]) -> EntityCollection {
        EntityCollection::dirty(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| EntityProfile::new(format!("p{i}")).with("name", *n))
                .collect(),
        )
    }

    #[test]
    fn window_blocks_over_sorted_order() {
        let e = named(&["delta", "alpha", "charlie", "bravo"]);
        let blocks = SortedNeighborhood { window: 2 }.build(&e);
        // Sorted: alpha(p1), bravo(p3), charlie(p2), delta(p0) ->
        // windows: {p1,p3}, {p3,p2}, {p2,p0}.
        assert_eq!(blocks.size(), 3);
        let pairs: Vec<(u32, u32)> =
            blocks.iter().map(|b| (b.left()[0].0, b.left()[1].0)).collect();
        assert_eq!(pairs, vec![(1, 3), (3, 2), (2, 0)]);
    }

    #[test]
    fn redundancy_neutrality() {
        // Adjacent profiles co-occur in the same number of blocks regardless
        // of how similar they are.
        let e = named(&["aa", "ab", "ac", "ad", "ae"]);
        let blocks = SortedNeighborhood { window: 3 }.build(&e);
        let idx = er_model::EntityIndex::build(&blocks);
        // Middle adjacent pairs co-occur exactly window-1 = 2 times.
        assert_eq!(idx.common_blocks(EntityId(1), EntityId(2)), 2);
        assert_eq!(idx.common_blocks(EntityId(2), EntityId(3)), 2);
    }

    #[test]
    fn fewer_profiles_than_window_yields_nothing() {
        let e = named(&["a", "b"]);
        assert!(SortedNeighborhood { window: 3 }.build(&e).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must span")]
    fn window_of_one_panics() {
        SortedNeighborhood { window: 1 }.build(&named(&["a", "b"]));
    }

    #[test]
    fn clean_clean_windows_need_both_sides() {
        let e1 = vec![
            EntityProfile::new("a").with("n", "alpha"),
            EntityProfile::new("b").with("n", "bravo"),
        ];
        let e2 = vec![EntityProfile::new("c").with("n", "alpine")];
        let e = EntityCollection::clean_clean(e1, e2);
        let blocks = SortedNeighborhood { window: 2 }.build(&e);
        // Sorted: alpha(0), alpine(2), bravo(1) -> windows {0,2} ok, {2,1} ok.
        assert_eq!(blocks.size(), 2);
        for b in blocks.iter() {
            assert!(!b.left().is_empty() && !b.right().is_empty());
        }
    }
}
