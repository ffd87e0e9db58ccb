//! Entity collections and the two ER tasks of the paper.

use crate::error::{Error, Result};
use crate::fxhash::FxHashSet;
use crate::ids::EntityId;
use crate::profile::EntityProfile;

/// Which ER task a collection represents (§3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErKind {
    /// *Dirty ER* (Deduplication): one collection that contains duplicates
    /// in itself.
    Dirty,
    /// *Clean-Clean ER* (Record Linkage): two individually duplicate-free but
    /// overlapping collections; only cross-collection comparisons are
    /// meaningful.
    CleanClean,
}

/// The input of an ER task: one (Dirty) or two (Clean-Clean) sets of entity
/// profiles sharing a single dense id space.
///
/// For Clean-Clean ER, profiles `0..split` come from the first collection
/// (E₁) and `split..len` from the second (E₂) — the same convention the
/// reference implementation uses, which lets every algorithm treat ids
/// uniformly and decide cross-collection membership with one comparison.
#[derive(Debug, Clone)]
pub struct EntityCollection {
    profiles: Vec<EntityProfile>,
    kind: ErKind,
    /// First id of the second collection; `len` for Dirty ER.
    split: usize,
}

impl EntityCollection {
    /// Creates a Dirty ER collection.
    pub fn dirty(profiles: Vec<EntityProfile>) -> Self {
        let split = profiles.len();
        EntityCollection { profiles, kind: ErKind::Dirty, split }
    }

    /// Creates a Clean-Clean ER collection from two duplicate-free
    /// collections. E₁ keeps ids `0..e1.len()`, E₂ gets `e1.len()..`.
    pub fn clean_clean(e1: Vec<EntityProfile>, mut e2: Vec<EntityProfile>) -> Self {
        let split = e1.len();
        let mut profiles = e1;
        // Exactly both sides: `append` alone may double E₁'s slots.
        profiles.reserve_exact(e2.len());
        profiles.append(&mut e2);
        EntityCollection { profiles, kind: ErKind::CleanClean, split }
    }

    /// Merges a Clean-Clean collection into the corresponding Dirty one, as
    /// the paper derives D1D..D3D from D1C..D3C ("we simply merge their clean
    /// entity collections into a single one that contains duplicates in
    /// itself").
    pub fn into_dirty(self) -> Self {
        let split = self.profiles.len();
        EntityCollection { profiles: self.profiles, kind: ErKind::Dirty, split }
    }

    /// The task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Total number of profiles `|E|` (both collections for Clean-Clean).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the collection holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// First id of the second collection (Clean-Clean), or `len()` (Dirty).
    pub fn split(&self) -> usize {
        self.split
    }

    /// Size of E₁ and E₂ for Clean-Clean ER.
    pub fn sides(&self) -> (usize, usize) {
        (self.split, self.profiles.len() - self.split)
    }

    /// Whether `id` belongs to the second collection.
    #[inline]
    pub fn is_second(&self, id: EntityId) -> bool {
        id.idx() >= self.split
    }

    /// The profile for `id`.
    ///
    /// # Panics
    /// If `id` is out of bounds; use [`EntityCollection::get`] for a checked
    /// lookup.
    #[inline]
    pub fn profile(&self, id: EntityId) -> &EntityProfile {
        &self.profiles[id.idx()]
    }

    /// Checked profile lookup.
    pub fn get(&self, id: EntityId) -> Result<&EntityProfile> {
        self.profiles
            .get(id.idx())
            .ok_or(Error::EntityOutOfBounds { id: id.0, len: self.profiles.len() })
    }

    /// Iterator over `(id, profile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, &EntityProfile)> {
        self.profiles.iter().enumerate().map(|(i, p)| (EntityId::from_index(i), p))
    }

    /// All profiles as a slice.
    pub fn profiles(&self) -> &[EntityProfile] {
        &self.profiles
    }

    /// Number of comparisons the brute-force approach executes, `‖E‖`
    /// (Table 2): `n·(n−1)/2` for Dirty ER, `|E₁|·|E₂|` for Clean-Clean.
    pub fn brute_force_comparisons(&self) -> u64 {
        match self.kind {
            ErKind::Dirty => {
                let n = self.profiles.len() as u64;
                n * n.saturating_sub(1) / 2
            }
            ErKind::CleanClean => {
                let (n1, n2) = self.sides();
                n1 as u64 * n2 as u64
            }
        }
    }

    /// Whether a comparison between `a` and `b` is meaningful for this task:
    /// always for Dirty ER, only across collections for Clean-Clean ER.
    #[inline]
    pub fn comparable(&self, a: EntityId, b: EntityId) -> bool {
        a != b && (self.kind == ErKind::Dirty || self.is_second(a) != self.is_second(b))
    }

    /// Replaces the profile at `id`, or appends it when `id == len()`.
    ///
    /// Appends join the second collection for Clean-Clean ER (the split is
    /// frozen); for Dirty ER the split tracks the length. `id > len()` is
    /// rejected — the id space stays dense. This is the merge primitive the
    /// serving layer's delta compaction replays upsert logs through.
    pub fn upsert(&mut self, id: EntityId, profile: EntityProfile) -> Result<()> {
        match id.idx().cmp(&self.profiles.len()) {
            std::cmp::Ordering::Less => {
                self.profiles[id.idx()] = profile;
                Ok(())
            }
            std::cmp::Ordering::Equal => {
                self.profiles.push(profile);
                if self.kind == ErKind::Dirty {
                    self.split = self.profiles.len();
                }
                Ok(())
            }
            std::cmp::Ordering::Greater => {
                Err(Error::EntityOutOfBounds { id: id.0, len: self.profiles.len() })
            }
        }
    }

    /// Removes the profile at `id` and returns it; every later id shifts
    /// down by one (the dense id space is the collection's invariant).
    ///
    /// For Clean-Clean ER a removal below the split shrinks E₁; for Dirty ER
    /// the split tracks the length. The delta compaction path replays delete
    /// logs through this after all upserts resolve.
    pub fn remove(&mut self, id: EntityId) -> Result<EntityProfile> {
        if id.idx() >= self.profiles.len() {
            return Err(Error::EntityOutOfBounds { id: id.0, len: self.profiles.len() });
        }
        let removed = self.profiles.remove(id.idx());
        if self.kind == ErKind::Dirty || id.idx() < self.split {
            self.split -= 1;
        }
        Ok(removed)
    }

    /// Number of distinct attribute names `|N|`, per side for Clean-Clean.
    pub fn distinct_attribute_names(&self) -> (usize, usize) {
        let mut first: FxHashSet<&str> = FxHashSet::default();
        let mut second: FxHashSet<&str> = FxHashSet::default();
        for (id, p) in self.iter() {
            let set = if self.is_second(id) { &mut second } else { &mut first };
            for a in p.attributes() {
                set.insert(a.name);
            }
        }
        (first.len(), second.len())
    }

    /// Total number of name–value pairs `|P|`, per side for Clean-Clean.
    pub fn total_name_value_pairs(&self) -> (u64, u64) {
        let mut first = 0u64;
        let mut second = 0u64;
        for (id, p) in self.iter() {
            if self.is_second(id) {
                second += p.len() as u64;
            } else {
                first += p.len() as u64;
            }
        }
        (first, second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(uri: &str, pairs: &[(&str, &str)]) -> EntityProfile {
        let mut p = EntityProfile::new(uri);
        for (n, v) in pairs {
            p.add(*n, *v);
        }
        p
    }

    fn sample_clean_clean() -> EntityCollection {
        let e1 = vec![
            profile("a0", &[("name", "jack miller")]),
            profile("a1", &[("name", "erick green"), ("job", "vendor")]),
        ];
        let e2 = vec![
            profile("b0", &[("fullname", "jack l miller")]),
            profile("b1", &[("fullname", "erick lloyd green")]),
            profile("b2", &[("fullname", "james jordan")]),
        ];
        EntityCollection::clean_clean(e1, e2)
    }

    #[test]
    fn dirty_basics() {
        let c = EntityCollection::dirty(vec![profile("x", &[("a", "v")]); 4]);
        assert_eq!(c.kind(), ErKind::Dirty);
        assert_eq!(c.len(), 4);
        assert_eq!(c.split(), 4);
        assert_eq!(c.brute_force_comparisons(), 6);
        assert!(c.comparable(EntityId(0), EntityId(3)));
        assert!(!c.comparable(EntityId(2), EntityId(2)));
    }

    #[test]
    fn clean_clean_basics() {
        let c = sample_clean_clean();
        assert_eq!(c.kind(), ErKind::CleanClean);
        assert_eq!(c.len(), 5);
        assert_eq!(c.sides(), (2, 3));
        assert_eq!(c.brute_force_comparisons(), 6);
        assert!(!c.is_second(EntityId(1)));
        assert!(c.is_second(EntityId(2)));
        // Intra-collection comparisons are not meaningful.
        assert!(!c.comparable(EntityId(0), EntityId(1)));
        assert!(c.comparable(EntityId(0), EntityId(2)));
        assert!(c.comparable(EntityId(4), EntityId(1)));
    }

    #[test]
    fn into_dirty_preserves_profiles() {
        let c = sample_clean_clean().into_dirty();
        assert_eq!(c.kind(), ErKind::Dirty);
        assert_eq!(c.len(), 5);
        assert_eq!(c.brute_force_comparisons(), 10);
        assert!(c.comparable(EntityId(0), EntityId(1)));
    }

    #[test]
    fn checked_lookup() {
        let c = sample_clean_clean();
        assert!(c.get(EntityId(4)).is_ok());
        assert_eq!(c.get(EntityId(5)), Err(Error::EntityOutOfBounds { id: 5, len: 5 }));
    }

    #[test]
    fn schema_statistics() {
        let c = sample_clean_clean();
        assert_eq!(c.distinct_attribute_names(), (2, 1));
        assert_eq!(c.total_name_value_pairs(), (3, 3));
    }

    #[test]
    fn upsert_replaces_appends_and_rejects_sparse_ids() {
        let mut c = EntityCollection::dirty(vec![profile("p0", &[("n", "a")])]);
        c.upsert(EntityId(0), profile("p0", &[("n", "b")])).unwrap();
        assert_eq!(c.profile(EntityId(0)).values().next(), Some("b"));
        c.upsert(EntityId(1), profile("p1", &[("n", "c")])).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.split(), 2); // Dirty split tracks the length
        assert_eq!(
            c.upsert(EntityId(5), profile("p5", &[])),
            Err(Error::EntityOutOfBounds { id: 5, len: 2 })
        );

        let mut cc = sample_clean_clean();
        cc.upsert(EntityId(5), profile("b3", &[("fullname", "z")])).unwrap();
        assert_eq!(cc.sides(), (2, 4)); // appends join E₂, the split is frozen
    }

    #[test]
    fn remove_shifts_ids_and_tracks_the_split() {
        let mut c = sample_clean_clean();
        let gone = c.remove(EntityId(0)).unwrap();
        assert_eq!(gone.uri(), "a0");
        assert_eq!(c.sides(), (1, 3));
        assert_eq!(c.profile(EntityId(0)).uri(), "a1");
        // Removing from E₂ leaves the split alone.
        c.remove(EntityId(3)).unwrap();
        assert_eq!(c.sides(), (1, 2));
        assert_eq!(c.remove(EntityId(9)), Err(Error::EntityOutOfBounds { id: 9, len: 3 }));

        let mut d = EntityCollection::dirty(vec![profile("x", &[("a", "v")]); 3]);
        d.remove(EntityId(1)).unwrap();
        assert_eq!(d.split(), 2);
    }

    #[test]
    fn empty_collection() {
        let c = EntityCollection::dirty(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.brute_force_comparisons(), 0);
    }
}
