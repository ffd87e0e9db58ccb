//! The persistent map every keyed table of [`crate::delta::DeltaOverlay`]
//! sits in: `u32 → V`, cloned by bumping one refcount, written by copying
//! the path from the root to the key and nothing else.
//!
//! A radix trie over the key's bits, high digits first, [`FANOUT`] slots a
//! node. Nodes sit behind [`Arc`] and are never mutated while shared:
//! every write descends with [`Arc::make_mut`], which copies a node some
//! other map still points at — once; the copy is this map's own and later
//! writes change it in place — and leaves the rest of the trie shared.
//! Cloning a map therefore allocates nothing, and dropping one frees only
//! the nodes no other map reaches. Two things keep it shallow: the root
//! spans no more key bits than the largest key needs (block, entity and
//! token ids are dense and small), and an entry sits in the first slot on
//! its path that no other key claims, not at a fixed depth — so a sparse map
//! (or one keyed by hashes) is about `log(len)` deep, not 32 bits deep.
//! Iteration is in key order. The fan-out is what measured cheapest per
//! write among 8 / 16 / 32 / 64 (EXPERIMENTS.md, "A write costs what it
//! touches"); reads do not tell 16 from 32.

use std::sync::Arc;

/// Key bits consumed per level.
const BITS: u32 = 4;
/// Slots per node.
const FANOUT: usize = 1 << BITS;

/// One position in the trie: nothing, one entry, or a subtree of the keys
/// that share this position's prefix.
#[derive(Clone)]
enum Slot<V> {
    Empty,
    Leaf(u32, V),
    Branch(Arc<Node<V>>),
}

struct Node<V> {
    slots: [Slot<V>; FANOUT],
}

#[cfg(test)]
thread_local! {
    /// Nodes copied on this thread — what a write over a shared map costs.
    static NODE_COPIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Only [`Arc::make_mut`] clones a node: a copy made because another map
/// still shares the original.
impl<V: Clone> Clone for Node<V> {
    fn clone(&self) -> Self {
        #[cfg(test)]
        NODE_COPIES.with(|copies| copies.set(copies.get() + 1));
        Node { slots: self.slots.clone() }
    }
}

impl<V> Node<V> {
    fn empty() -> Node<V> {
        Node { slots: std::array::from_fn(|_| Slot::Empty) }
    }
}

/// Where `key` goes under a branch with `bits` key bits still to tell keys
/// apart by: the child slot, and the bits left below it. `None` if no bits
/// are left (no branch sits that deep).
#[inline]
fn child_of(key: u32, bits: u32) -> Option<(usize, u32)> {
    let below = bits.checked_sub(BITS)?;
    Some(((key >> below) as usize & (FANOUT - 1), below))
}

/// The slot `key` lives in, reached for writing: `Leaf(key, _)`, or `Empty`
/// when the map has no such key. Every node on the way is this map's own
/// afterwards ([`Arc::make_mut`]). An entry with another key that sat on the
/// path moves one level down, into a node of its own.
fn slot_mut<V: Clone>(slot: &mut Slot<V>, bits: u32, key: u32) -> Option<&mut Slot<V>> {
    if let Slot::Leaf(resident, _) = slot {
        if *resident != key {
            let (at, _) = child_of(*resident, bits)?;
            let mut node = Node::empty();
            let below = node.slots.get_mut(at)?;
            *below = std::mem::replace(slot, Slot::Empty);
            *slot = Slot::Branch(Arc::new(node));
        }
    }
    match slot {
        Slot::Branch(node) => {
            let (at, below) = child_of(key, bits)?;
            slot_mut(Arc::make_mut(node).slots.get_mut(at)?, below, key)
        }
        _ => Some(slot),
    }
}

/// A persistent `u32`-keyed map; see the module docs.
#[derive(Clone)]
pub(crate) struct IdMap<V> {
    root: Slot<V>,
    /// Key bits the root spans: every key in the map is below `1 << bits`.
    /// A multiple of [`BITS`], at most `32 + BITS - 1`.
    bits: u32,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap { root: Slot::Empty, bits: 0, len: 0 }
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for IdMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> IdMap<V> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn spans(&self, key: u32) -> bool {
        u64::from(key) >> self.bits == 0
    }

    pub(crate) fn get(&self, key: u32) -> Option<&V> {
        if !self.spans(key) {
            return None;
        }
        let (mut slot, mut bits) = (&self.root, self.bits);
        loop {
            match slot {
                Slot::Empty => return None,
                Slot::Leaf(k, value) => return (*k == key).then_some(value),
                Slot::Branch(node) => {
                    let (at, below) = child_of(key, bits)?;
                    slot = node.slots.get(at)?;
                    bits = below;
                }
            }
        }
    }

    pub(crate) fn contains(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Every entry, ascending by key.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        Iter { stack: vec![std::slice::from_ref(&self.root).iter()] }
    }
}

impl<V: Clone> IdMap<V> {
    /// Widens the root, a level at a time, until it spans `key`; a root
    /// that is a node becomes the new root's first child.
    fn span(&mut self, key: u32) {
        while !self.spans(key) {
            if let Slot::Branch(_) = self.root {
                let mut node = Node::empty();
                if let Some(first) = node.slots.first_mut() {
                    *first = std::mem::replace(&mut self.root, Slot::Empty);
                }
                self.root = Slot::Branch(Arc::new(node));
            }
            self.bits += BITS;
        }
    }

    /// Sets `key`'s value, returning the one it replaces.
    pub(crate) fn insert(&mut self, key: u32, value: V) -> Option<V> {
        self.span(key);
        let slot = slot_mut(&mut self.root, self.bits, key)?;
        match std::mem::replace(slot, Slot::Leaf(key, value)) {
            Slot::Leaf(_, old) => Some(old),
            _ => {
                self.len += 1;
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: u32) -> Option<V> {
        // Checked first so that a miss copies no node.
        if !self.contains(key) {
            return None;
        }
        match std::mem::replace(slot_mut(&mut self.root, self.bits, key)?, Slot::Empty) {
            Slot::Leaf(_, value) => {
                self.len -= 1;
                Some(value)
            }
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        if !self.contains(key) {
            return None;
        }
        match slot_mut(&mut self.root, self.bits, key)? {
            Slot::Leaf(_, value) => Some(value),
            _ => None,
        }
    }

    /// `key`'s value for writing, `make()` if it had none. `None` never
    /// comes back from a well-formed map; callers treat it as a no-op.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: u32,
        make: impl FnOnce() -> V,
    ) -> Option<&mut V> {
        self.span(key);
        let slot = slot_mut(&mut self.root, self.bits, key)?;
        if let Slot::Empty = slot {
            *slot = Slot::Leaf(key, make());
            self.len += 1;
        }
        match slot {
            Slot::Leaf(_, value) => Some(value),
            _ => None,
        }
    }
}

/// Ordered traversal: a stack of the slot ranges still to visit, one per
/// level of the current path.
struct Iter<'a, V> {
    stack: Vec<std::slice::Iter<'a, Slot<V>>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u32, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.last_mut()?.next() {
                None => {
                    self.stack.pop();
                }
                Some(Slot::Empty) => {}
                Some(Slot::Leaf(key, value)) => return Some((*key, value)),
                Some(Slot::Branch(node)) => self.stack.push(node.slots.iter()),
            }
        }
    }
}

/// Words per page of an [`IdSet`]: a page covers `64 × PAGE_WORDS` ids.
const PAGE_WORDS: usize = 64;
const PAGE_IDS: u32 = (PAGE_WORDS * 64) as u32;

/// A persistent set of ids that only grows: a bit per id, in pages of
/// [`PAGE_WORDS`] words held by an [`IdMap`]. Ids are dense, so the few
/// pages there are all exist after a few writes, and a lookup is the same
/// two loads whether it hits or misses, with no branch that depends on the
/// id — which a descent through the map proper, ending wherever the id's
/// neighbourhood happens to thin out, cannot offer. The overlay asks it
/// first on the read path, where nearly every answer is "not here".
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    pages: IdMap<Arc<[u64; PAGE_WORDS]>>,
}

impl IdSet {
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.pages
            .get(id / PAGE_IDS)
            .and_then(|page| page.get((id / 64) as usize % PAGE_WORDS))
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    pub(crate) fn insert(&mut self, id: u32) {
        let page = self.pages.get_or_insert_with(id / PAGE_IDS, || Arc::new([0; PAGE_WORDS]));
        if let Some(word) =
            page.and_then(|page| Arc::make_mut(page).get_mut((id / 64) as usize % PAGE_WORDS))
        {
            *word |= 1 << (id % 64);
        }
    }
}

/// Nodes copied on this thread so far.
#[cfg(test)]
pub(crate) fn node_copies() -> u64 {
    NODE_COPIES.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// xorshift64: the house generator for seeded tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Level boundaries of every fan-out a trie might have, the ends
        /// of the key space, and two random ranges: a dense one, so that
        /// keys collide and nodes fill, and all of `u32`.
        fn key(&mut self) -> u32 {
            const EDGES: [u32; 7] = [0, 1, 63, 64, 4095, 4096, u32::MAX - 1];
            match self.below(4) {
                0 => EDGES[self.below(EDGES.len() as u64) as usize],
                1 => self.next() as u32,
                _ => self.below(3_000) as u32,
            }
        }
    }

    fn entries(map: &IdMap<u64>) -> Vec<(u32, u64)> {
        map.iter().map(|(k, v)| (k, *v)).collect()
    }

    /// One random mutation, applied to the map and to the oracle alike;
    /// whatever it returns must agree too.
    fn mutate(rng: &mut Rng, map: &mut IdMap<u64>, oracle: &mut BTreeMap<u32, u64>) {
        let (key, value) = (rng.key(), rng.next());
        match rng.below(5) {
            0 | 1 => assert_eq!(map.insert(key, value), oracle.insert(key, value)),
            2 => assert_eq!(map.remove(key), oracle.remove(&key)),
            3 => {
                let seen = map.get_mut(key).map(|v| std::mem::replace(v, value));
                assert_eq!(seen, oracle.get_mut(&key).map(|v| std::mem::replace(v, value)));
            }
            _ => {
                let slot = map.get_or_insert_with(key, || value).expect("a well-formed map");
                assert_eq!(*slot, *oracle.entry(key).or_insert(value));
                *slot ^= 1;
                *oracle.entry(key).or_default() ^= 1;
            }
        }
        assert_eq!(map.get(key), oracle.get(&key));
        assert_eq!(map.len(), oracle.len());
    }

    #[test]
    fn random_programs_agree_with_a_btreemap_and_clones_never_change() {
        for seed in [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03, 20_160_315] {
            let mut rng = Rng(seed);
            let (mut map, mut oracle) = (IdMap::default(), BTreeMap::new());
            // (clone, the oracle as it was, mutations its successor has seen since).
            let mut retained: Vec<(IdMap<u64>, BTreeMap<u32, u64>, usize)> = Vec::new();
            for step in 0..40_000 {
                mutate(&mut rng, &mut map, &mut oracle);
                if step % 257 == 0 {
                    assert_eq!(
                        entries(&map),
                        oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
                    );
                    let probe = rng.key();
                    assert_eq!(map.get(probe), oracle.get(&probe));
                }
                for (_, _, age) in &mut retained {
                    *age += 1;
                }
                if rng.below(1_000) == 0 {
                    retained.push((map.clone(), oracle.clone(), 0));
                }
                // Persistence: 10 000 mutations of its successor later, a
                // clone still holds exactly what it held when it was taken.
                retained.retain(|(clone, then, age)| {
                    if *age < 10_000 {
                        return true;
                    }
                    assert_eq!(
                        entries(clone),
                        then.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
                    );
                    assert_eq!(clone.len(), then.len());
                    false
                });
            }
            assert!(map.len() > 1_000, "seed {seed:#x} exercised a map of {}", map.len());
        }
    }

    #[test]
    fn a_write_to_a_shared_map_copies_one_path() {
        let mut map = IdMap::default();
        for key in 0..100_000u32 {
            map.insert(key, u64::from(key));
        }
        let depth = u64::from(map.bits.div_ceil(BITS));
        let shared = map.clone();
        let before = node_copies();
        map.insert(54_321, 0);
        let first = node_copies() - before;
        assert!((1..=depth).contains(&first), "{first} nodes copied, depth {depth}");
        // The path is the map's own now: a second write next to the first
        // copies nothing, and a miss never does.
        map.insert(54_320, 0);
        assert_eq!(map.remove(1_000_000), None);
        assert_eq!(map.get_mut(1_000_000), None);
        assert_eq!(node_copies() - before, first);
        assert_eq!(shared.get(54_321), Some(&54_321));
        assert_eq!(shared.len(), 100_000);
    }

    #[test]
    fn hashed_keys_stay_about_log_len_deep() {
        // 32-bit keys with nothing in common: an entry sits where its prefix
        // stops being shared, not 32 bits down.
        let mut rng = Rng(7);
        let mut map = IdMap::default();
        for _ in 0..4_096 {
            map.insert(rng.next() as u32, 0u64);
        }
        let shared = map.clone();
        let before = node_copies();
        map.insert(rng.next() as u32, 0);
        let copied = node_copies() - before;
        assert!(copied <= u64::from(12 / BITS) + 3, "{copied} nodes copied for 4 096 hashed keys");
        drop(shared);
    }

    #[test]
    fn a_set_keeps_what_a_clone_of_it_held() {
        let mut rng = Rng(11);
        let mut set = IdSet::default();
        let ids: Vec<u32> = (0..500).map(|_| rng.below(200_000) as u32).collect();
        for &id in &ids[..250] {
            set.insert(id);
        }
        let earlier = set.clone();
        for &id in &ids[250..] {
            set.insert(id);
        }
        for id in 0..200_000 {
            assert_eq!(set.contains(id), ids.contains(&id), "{id}");
            assert_eq!(earlier.contains(id), ids[..250].contains(&id), "{id} in the clone");
        }
        assert!(!set.contains(u32::MAX));
    }
}
