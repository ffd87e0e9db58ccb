//! Shared machinery for key-based blocking methods.
//!
//! Token, Q-grams, Suffix-Arrays, Attribute-Clustering and Standard Blocking
//! all follow the same skeleton: extract string keys from every profile,
//! group profiles by key, and keep the groups that entail at least one
//! comparison. [`KeyBlockBuilder`] implements that skeleton once, with the
//! task-kind handling (Dirty vs Clean-Clean) and the per-entity key
//! deduplication that all of them need.
//!
//! Internally the builder is allocation-lean: keys are interned to dense
//! `u32` ids through [`TokenInterner`] and every assignment is one
//! `(key_id, entity)` posting in a single flat vector. `finish` groups the
//! postings by key id with a counting sort — key ids are dense, so grouping
//! needs no comparison — and copies each surviving group, a slice of the
//! grouped entities, straight into the CSR arena of [`BlockCollection`]; no
//! per-key `Vec<EntityId>` ever exists.

use er_model::tokenize::{ArenaOverflow, KeyArena, KeyScratch, TokenInterner};
use er_model::{BlockCollection, BlockCollectionBuilder, EntityCollection, EntityId, ErKind};

/// Accumulates `(key, entity)` assignments and finalizes them into a
/// [`BlockCollection`].
///
/// Keys are interned in first-seen order, so the resulting block order is a
/// deterministic function of the input iteration order.
#[derive(Debug)]
pub struct KeyBlockBuilder {
    interner: TokenInterner,
    /// One `(key_id, entity)` pair per assignment, in arrival order.
    postings: Vec<(u32, EntityId)>,
    /// [`KeyBlockBuilder::assign_all`]'s per-batch key ids, kept for reuse.
    ids: Vec<u32>,
    /// The first refusal of the interner to grow; reported when finishing.
    overflow: Option<ArenaOverflow>,
    kind: ErKind,
    split: usize,
    num_entities: usize,
}

impl KeyBlockBuilder {
    /// Creates a builder for the given collection.
    pub fn new(collection: &EntityCollection) -> Self {
        KeyBlockBuilder {
            interner: TokenInterner::new(),
            postings: Vec::new(),
            ids: Vec::new(),
            overflow: None,
            kind: collection.kind(),
            split: collection.split(),
            num_entities: collection.len(),
        }
    }

    /// Assigns `entity` to the block keyed by `key`.
    ///
    /// Repeated assignments of the same entity to the same key are ignored
    /// (a profile mentioning a token twice still joins that token's block
    /// once), and the order assignments arrive in does not matter for
    /// correctness, only for the first-seen key order: finishing sorts and
    /// deduplicates whichever key's members did not arrive strictly
    /// ascending.
    ///
    /// A key table outgrowing its `u32` addressing is reported when
    /// finishing, not here.
    pub fn assign(&mut self, key: &str, entity: EntityId) {
        match self.interner.intern(key) {
            Ok(key_id) => self.postings.push((key_id, entity)),
            Err(overflow) => self.overflow = self.overflow.or(Some(overflow)),
        }
    }

    /// Assigns `entity` to the block of every key in `keys` — in any order,
    /// repeats allowed — with the lookups batched
    /// ([`TokenInterner::intern_all`]): [`KeyBlockBuilder::assign`] once per
    /// key of `keys` sorted and deduplicated, so keys new to the builder
    /// join its key order by their bytes.
    pub fn assign_all(&mut self, keys: &KeyScratch, entity: EntityId) {
        if let Err(overflow) = self.interner.intern_all(keys, &mut self.ids) {
            self.overflow = self.overflow.or(Some(overflow));
        }
        self.postings.extend(self.ids.iter().map(|&key_id| (key_id, entity)));
    }

    /// Number of distinct keys seen so far.
    pub fn num_keys(&self) -> usize {
        self.interner.len()
    }

    /// Finalizes into a block collection, keeping only blocks that entail at
    /// least one comparison: ≥2 members for Dirty ER, ≥1 member from *each*
    /// collection for Clean-Clean ER.
    ///
    /// Blocks are emitted in ascending key id — i.e. first-seen key order —
    /// with members ascending within each block (and within each side for
    /// Clean-Clean ER).
    ///
    /// # Panics
    /// With the [`ArenaOverflow`] message if the keys outgrew `u32`
    /// addressing (2³² − 1 distinct keys or 4 GiB of key text).
    pub fn finish(mut self) -> BlockCollection {
        assert_fits(self.overflow);
        // Nothing below reads a key again: free the table before grouping
        // allocates, so the two never add up.
        let num_keys = std::mem::take(&mut self.interner).len();
        self.group(num_keys).0
    }

    /// Like [`KeyBlockBuilder::finish`], but keeps the key provenance: the
    /// returned vector holds the interned key id of every emitted block (in
    /// block order), and the arena maps those ids back to key strings.
    ///
    /// A serving index persists both so an online probe can resolve its
    /// tokens straight to block ids without re-running blocking. Returns
    /// the overflow [`KeyBlockBuilder::finish`] panics with.
    pub fn finish_keyed(mut self) -> Result<(BlockCollection, Vec<u32>, KeyArena), ArenaOverflow> {
        if let Some(overflow) = self.overflow {
            return Err(overflow);
        }
        // As in `finish`, the lookup table goes before grouping allocates.
        let vocabulary = std::mem::take(&mut self.interner).into_keys();
        let (blocks, keys) = self.group(vocabulary.len());
        Ok((blocks, keys, vocabulary))
    }

    fn group(self, num_keys: usize) -> (BlockCollection, Vec<u32>) {
        let grouped = GroupedPostings::new(&self.postings, num_keys);
        #[cfg(feature = "sanitize")]
        assert!(
            grouped.postings().eq(sorted_dedup_oracle(&self.postings)),
            "mb-sanitize: counting-sort grouping diverged from sort + dedup"
        );
        drop(self.postings);
        emit(self.kind, self.num_entities, self.split, &grouped)
    }
}

/// Writes every group that entails at least one comparison — ≥2 members
/// for Dirty ER, ≥1 member from each collection for Clean-Clean ER — into
/// a [`BlockCollection`] in key-id order, plus the key id of every emitted
/// block.
fn emit(
    kind: ErKind,
    num_entities: usize,
    split: usize,
    grouped: &GroupedPostings,
) -> (BlockCollection, Vec<u32>) {
    let num_keys = grouped.starts.len() - 1;
    let mut keys = Vec::new();
    let mut out =
        BlockCollectionBuilder::with_capacity(kind, num_entities, num_keys, grouped.entities.len());
    for (key, pair) in grouped.starts.windows(2).enumerate() {
        let members = &grouped.entities[pair[0] as usize..pair[1] as usize];
        // Members are ascending by id, so one partition point separates
        // the E₁ (id < split) and E₂ sides; a Dirty block is all left side.
        let (cut, keep) = match kind {
            ErKind::Dirty => (members.len(), members.len() >= 2),
            ErKind::CleanClean => {
                let cut = members.partition_point(|e| e.idx() < split);
                (cut, cut > 0 && cut < members.len())
            }
        };
        if !keep {
            continue;
        }
        out.begin();
        for &e in &members[..cut] {
            out.push_left(e);
        }
        for &e in &members[cut..] {
            out.push_right(e);
        }
        out.commit();
        keys.push(key as u32);
    }
    (out.finish(), keys)
}

/// Panics with the overflow's message if there is one: how the infallible
/// [`crate::BlockingMethod::build`]s report a key table past `u32`
/// addressing.
pub(crate) fn assert_fits(overflow: Option<ArenaOverflow>) {
    let message = overflow.map(|o| o.to_string());
    assert!(message.is_none(), "{}", message.unwrap_or_default());
}

/// Postings grouped by key id: key `k`'s members are
/// `entities[starts[k]..starts[k + 1]]`, strictly ascending.
struct GroupedPostings {
    starts: Vec<u32>,
    entities: Vec<EntityId>,
}

impl GroupedPostings {
    /// Groups `postings` (any order, repeats allowed) over key ids
    /// `0..num_keys` without comparing keys: count per key, prefix-sum,
    /// stable scatter. A key's members then sit in arrival order, which for
    /// a builder that walks the collection once is already strictly
    /// ascending; a group that is not is sorted and deduplicated in place,
    /// and the groups after it close the gap.
    ///
    /// # Panics
    /// If there are 2³² postings or more.
    fn new(postings: &[(u32, EntityId)], num_keys: usize) -> GroupedPostings {
        assert!(
            u32::try_from(postings.len()).is_ok(),
            "{} postings do not fit u32 offsets",
            postings.len()
        );
        // `starts[k + 1]` is key k's write cursor: it begins at k's start
        // and the scatter advances it to k's end, which is k + 1's start —
        // so the cursors finish as the offset table, with `starts[0] = 0`.
        let mut starts = vec![0u32; num_keys + 1];
        for &(key, _) in postings {
            starts[key as usize + 1] += 1;
        }
        let mut sum = 0u32;
        for cursor in &mut starts[1..] {
            let count = *cursor;
            *cursor = sum;
            sum += count;
        }
        let mut entities = vec![EntityId(0); postings.len()];
        for &(key, entity) in postings {
            let cursor = &mut starts[key as usize + 1];
            entities[*cursor as usize] = entity;
            *cursor += 1;
        }

        // `read..end` is group k as scattered, `write` where it belongs once
        // every earlier group has dropped its repeats.
        let (mut read, mut write) = (0usize, 0usize);
        for k in 0..num_keys {
            let end = starts[k + 1] as usize;
            starts[k] = write as u32;
            if entities[read..end].windows(2).all(|w| w[0] < w[1]) {
                if write != read {
                    entities.copy_within(read..end, write);
                }
                write += end - read;
            } else {
                entities[read..end].sort_unstable();
                let mut last = None;
                for i in read..end {
                    let entity = entities[i];
                    if last != Some(entity) {
                        entities[write] = entity;
                        write += 1;
                        last = Some(entity);
                    }
                }
            }
            read = end;
        }
        starts[num_keys] = write as u32;
        entities.truncate(write);
        GroupedPostings { starts, entities }
    }

    /// The postings as `(key_id, entity)`, sorted and free of repeats.
    #[cfg(any(test, feature = "sanitize"))]
    fn postings(&self) -> impl Iterator<Item = (u32, EntityId)> + '_ {
        self.starts.windows(2).enumerate().flat_map(move |(key, pair)| {
            self.entities[pair[0] as usize..pair[1] as usize].iter().map(move |&e| (key as u32, e))
        })
    }
}

/// What grouping must equal: the comparison sort it replaced.
#[cfg(any(test, feature = "sanitize"))]
fn sorted_dedup_oracle(postings: &[(u32, EntityId)]) -> Vec<(u32, EntityId)> {
    let mut sorted = postings.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::{Block, EntityProfile};
    use std::collections::BTreeMap;

    fn dirty(n: usize) -> EntityCollection {
        EntityCollection::dirty(vec![EntityProfile::new("x"); n])
    }

    #[test]
    fn groups_by_key_and_drops_singletons() {
        let c = dirty(3);
        let mut b = KeyBlockBuilder::new(&c);
        b.assign("shared", EntityId(0));
        b.assign("shared", EntityId(2));
        b.assign("lonely", EntityId(1));
        assert_eq!(b.num_keys(), 2);
        let blocks = b.finish();
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).left(), &[EntityId(0), EntityId(2)]);
    }

    #[test]
    fn dedupes_repeated_assignment_of_same_entity() {
        let c = dirty(2);
        let mut b = KeyBlockBuilder::new(&c);
        b.assign("t", EntityId(0));
        b.assign("t", EntityId(0));
        b.assign("t", EntityId(1));
        let blocks = b.finish();
        assert_eq!(blocks.block(0).size(), 2);
    }

    #[test]
    fn dedupes_nonadjacent_repeated_assignment() {
        // The old adjacency-only dedup required grouped feeding; the sorted
        // postings dedup does not.
        let c = dirty(2);
        let mut b = KeyBlockBuilder::new(&c);
        b.assign("t", EntityId(0));
        b.assign("t", EntityId(1));
        b.assign("t", EntityId(0));
        let blocks = b.finish();
        assert_eq!(blocks.block(0).size(), 2);
    }

    #[test]
    fn clean_clean_requires_both_sides() {
        let e1 = vec![EntityProfile::new("a"), EntityProfile::new("b")];
        let e2 = vec![EntityProfile::new("c")];
        let c = EntityCollection::clean_clean(e1, e2);
        let mut b = KeyBlockBuilder::new(&c);
        // Key seen only in E1 -> dropped even with two members.
        b.assign("only-left", EntityId(0));
        b.assign("only-left", EntityId(1));
        // Key crossing the two collections -> kept.
        b.assign("cross", EntityId(1));
        b.assign("cross", EntityId(2));
        let blocks = b.finish();
        assert_eq!(blocks.size(), 1);
        assert_eq!(blocks.block(0).left(), &[EntityId(1)]);
        assert_eq!(blocks.block(0).right(), &[EntityId(2)]);
    }

    #[test]
    fn finish_keyed_reports_the_key_of_every_emitted_block() {
        let c = dirty(5);
        let mut b = KeyBlockBuilder::new(&c);
        b.assign("beta", EntityId(0));
        b.assign("alpha", EntityId(1));
        b.assign("beta", EntityId(2));
        b.assign("gamma", EntityId(3)); // singleton -> dropped
        b.assign("alpha", EntityId(4));
        let (blocks, keys, vocabulary) = b.finish_keyed().unwrap();
        assert_eq!(blocks.size(), 2);
        assert_eq!(keys.len(), 2);
        let key_name = |id: u32| vocabulary.get(id);
        // Block order follows first-seen key order: "beta" then "alpha".
        assert_eq!(key_name(keys[0]), "beta");
        assert_eq!(key_name(keys[1]), "alpha");
        assert_eq!(blocks.block(0).left(), &[EntityId(0), EntityId(2)]);
        assert_eq!(blocks.block(1).left(), &[EntityId(1), EntityId(4)]);
    }

    #[test]
    fn finish_and_finish_keyed_build_identical_collections() {
        let e1 = vec![EntityProfile::new("a"), EntityProfile::new("b")];
        let e2 = vec![EntityProfile::new("c"), EntityProfile::new("d")];
        let assignments = [("x", 0u32), ("x", 2), ("y", 1), ("y", 3), ("z", 0), ("z", 1), ("w", 2)];
        let build = || {
            let c = EntityCollection::clean_clean(e1.clone(), e2.clone());
            let mut b = KeyBlockBuilder::new(&c);
            for &(k, e) in &assignments {
                b.assign(k, EntityId(e));
            }
            b
        };
        let plain = build().finish();
        let (keyed, keys, _) = build().finish_keyed().unwrap();
        assert_eq!(plain.size(), keyed.size());
        assert_eq!(keys.len(), keyed.size());
        for k in 0..plain.size() {
            assert_eq!(plain.block(k).left(), keyed.block(k).left());
            assert_eq!(plain.block(k).right(), keyed.block(k).right());
        }
    }

    #[test]
    fn block_order_follows_first_seen_key_order() {
        let c = dirty(4);
        let mut b = KeyBlockBuilder::new(&c);
        b.assign("beta", EntityId(0));
        b.assign("alpha", EntityId(0));
        b.assign("beta", EntityId(1));
        b.assign("alpha", EntityId(2));
        let blocks = b.finish();
        // "beta" was seen first, so its block precedes "alpha"'s.
        assert_eq!(blocks.block(0).left()[1], EntityId(1));
        assert_eq!(blocks.block(1).left()[1], EntityId(2));
    }
    /// xorshift64*, the house generator for seeded tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn assert_groups_like_the_oracle(postings: &[(u32, EntityId)], num_keys: usize, case: &str) {
        let grouped = GroupedPostings::new(postings, num_keys);
        assert_eq!(grouped.starts.len(), num_keys + 1, "{case}");
        assert!(grouped.postings().eq(sorted_dedup_oracle(postings)), "{case}");
    }

    #[test]
    fn grouping_equals_sort_and_dedup_for_any_arrival_order() {
        let mut next = rng(0xB10C);
        for round in 0..40 {
            let num_keys = 1 + (next() % 300) as usize;
            let entities = 1 + (next() % 500) as u32;
            let n = (next() % 4000) as usize;
            // Skewed keys (squaring a uniform draw), so some groups are long
            // and many keys stay empty.
            let ascending: Vec<(u32, EntityId)> = {
                let mut p: Vec<(u32, EntityId)> = (0..n)
                    .map(|_| {
                        let u = next() % num_keys as u64;
                        (
                            (u * u / num_keys as u64) as u32,
                            EntityId((next() % entities as u64) as u32),
                        )
                    })
                    .collect();
                p.sort_unstable_by_key(|&(_, e)| e);
                p
            };
            assert_groups_like_the_oracle(
                &ascending,
                num_keys,
                &format!("round {round} ascending"),
            );

            let descending: Vec<_> = ascending.iter().rev().copied().collect();
            assert_groups_like_the_oracle(
                &descending,
                num_keys,
                &format!("round {round} descending"),
            );

            let mut shuffled = ascending.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            assert_groups_like_the_oracle(&shuffled, num_keys, &format!("round {round} shuffled"));

            let mut duplicated = shuffled.clone();
            duplicated.extend_from_slice(&ascending[..ascending.len() / 2]);
            assert_groups_like_the_oracle(
                &duplicated,
                num_keys,
                &format!("round {round} duplicated"),
            );
        }
        assert_groups_like_the_oracle(&[], 0, "no keys");
        assert_groups_like_the_oracle(&[], 7, "keys without postings");
    }

    /// The blocks of sorted, repeat-free postings as owned `Block`s: each
    /// key's members, kept if they entail a comparison (≥2 members for
    /// Dirty ER, members on both sides for Clean-Clean ER), plus the key of
    /// every kept block.
    fn blocks_by_hand(
        collection: &EntityCollection,
        sorted: &[(u32, EntityId)],
    ) -> (BlockCollection, Vec<u32>) {
        let mut groups: BTreeMap<u32, Vec<EntityId>> = BTreeMap::new();
        for &(key, entity) in sorted {
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
        (BlockCollection::new(collection.kind(), collection.len(), blocks), keys)
    }

    #[test]
    fn assign_in_any_order_builds_the_blocks_of_the_sorted_postings() {
        // Through the public surface: descending, shuffled and repeated
        // `assign`s, then `finish_keyed` against blocks grouped by hand from
        // the sort + dedup oracle. With as many keys as assignments, most
        // groups are singletons or one-sided, which emission must drop.
        let mut next = rng(7);
        for (clean_clean, key_space) in [(false, 90), (true, 90), (false, 1500), (true, 1500)] {
            let n = 120usize;
            let collection = if clean_clean {
                EntityCollection::clean_clean(
                    vec![EntityProfile::new("l"); 50],
                    vec![EntityProfile::new("r"); n - 50],
                )
            } else {
                dirty(n)
            };
            let mut assignments: Vec<(String, EntityId)> = (0..1500)
                .map(|_| (format!("k{}", next() % key_space), EntityId((next() % n as u64) as u32)))
                .collect();
            assignments.sort_by_key(|a| std::cmp::Reverse(a.1));
            let cut = assignments.len() / 3;
            for i in (1..cut).rev() {
                assignments.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut builder = KeyBlockBuilder::new(&collection);
            // The oracle numbers keys in first-seen order.
            let (mut oracle_ids, mut oracle_keys) = (BTreeMap::new(), Vec::new());
            let mut postings = Vec::new();
            for (key, entity) in &assignments {
                builder.assign(key, *entity);
                let id = *oracle_ids.entry(key.as_str()).or_insert_with(|| {
                    oracle_keys.push(key.as_str());
                    oracle_keys.len() as u32 - 1
                });
                postings.push((id, *entity));
            }
            let (blocks, keys, vocabulary) = builder.finish_keyed().unwrap();
            let (expected, expected_keys) =
                blocks_by_hand(&collection, &sorted_dedup_oracle(&postings));
            let case = format!("cc={clean_clean} keys={key_space}");
            assert_eq!(blocks.raw_parts(), expected.raw_parts(), "{case}");
            assert_eq!(keys, expected_keys, "{case}");
            assert!(vocabulary.iter().eq(oracle_keys));
        }
    }

    #[test]
    fn assign_all_is_assign_per_key() {
        let c = dirty(3);
        let mut scratch = KeyScratch::new();
        let (mut batched, mut single) = (KeyBlockBuilder::new(&c), KeyBlockBuilder::new(&c));
        for (entity, text) in [(0u32, "b a c b"), (1, "c e d"), (2, "e a d e")] {
            scratch.clear();
            for t in text.split(' ') {
                let start = scratch.begin();
                scratch.push_str(t);
                scratch.commit(start);
            }
            batched.assign_all(&scratch, EntityId(entity));
            let mut distinct: Vec<&str> = scratch.iter().collect();
            distinct.sort_unstable();
            distinct.dedup();
            for t in distinct {
                single.assign(t, EntityId(entity));
            }
        }
        let (b, bk, bi) = batched.finish_keyed().unwrap();
        let (s, sk, si) = single.finish_keyed().unwrap();
        assert_eq!(b.raw_parts(), s.raw_parts());
        assert_eq!(bk, sk);
        assert_eq!(bi, si);
    }
}
