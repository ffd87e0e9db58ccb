//! Token extraction and interning.
//!
//! Token Blocking (§1 of the paper) "splits the attribute values of every
//! entity profile into tokens based on whitespace". We additionally lowercase
//! and strip punctuation so that `Car-Vendor` and `car vendor` co-occur — the
//! same normalization the reference implementation applies.
//!
//! There is one tokenizer. [`raw_tokens`] splits a value into its
//! alphanumeric runs and [`push_lowercase`] lowercases one into a buffer;
//! [`KeyScratch::fill_tokens`] commits a whole profile's tokens that way, and
//! is the one statement of which tokens a profile has — for Token Blocking,
//! for a served probe, for a live upsert and for the Jaccard token sets of
//! [`crate::matching`] alike. The q-gram and suffix builders split and
//! lowercase tokens through the same two functions.
//!
//! Tokens are interned to dense `u32` ids by [`TokenInterner`] — keys back
//! to back in a [`KeyArena`], found through a [`KeyTable`], lookups batched
//! per profile — and every downstream structure (blocks, token sets for
//! Jaccard matching) works on ids, never on strings. A key committed to a
//! [`KeyScratch`] carries its [`key_hash`], computed where the key is cut;
//! the batch lookups read it instead of hashing the key again. The blocking
//! builder then posts each assignment as its 4-byte key id, beside one
//! `(entity, first posting)` run per profile.
//!
//! [`KeyTable`] is the one key → id table: the interner grows one, and a
//! loaded serving snapshot seats its vocabulary into one
//! ([`KeyTable::seat`]), so served tokens are found as they were numbered.

use crate::fxhash::{short_word, word, FxHasher};
use crate::profile::EntityProfile;
use std::hash::Hasher;

/// The raw (not yet lowercased) token slices of a value: its runs of
/// alphanumeric chars, any other char treated as whitespace, empty runs
/// dropped. The blocking front-ends iterate these and lowercase into a
/// reusable [`KeyScratch`] buffer instead of allocating a `String` per token.
///
/// ```
/// let raw: Vec<&str> = er_model::tokenize::raw_tokens("Jack Lloyd-Miller, Jr.").collect();
/// assert_eq!(raw, ["Jack", "Lloyd", "Miller", "Jr"]);
/// ```
pub fn raw_tokens(value: &str) -> impl Iterator<Item = &str> {
    value.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty())
}

/// Appends `raw` to `dst` lowercased.
///
/// ASCII text takes a byte-wise fast path; anything else falls back to full
/// `str::to_lowercase`, so the result is always byte-identical to
/// `dst.push_str(&raw.to_lowercase())` (including the Greek final-sigma
/// special case, which is position-dependent and cannot be done per char).
pub fn push_lowercase(dst: &mut String, raw: &str) {
    if raw.is_ascii() {
        // Safe path without unsafe: ASCII bytes lowercase to ASCII bytes.
        for b in raw.bytes() {
            dst.push(b.to_ascii_lowercase() as char);
        }
    } else {
        dst.push_str(&raw.to_lowercase());
    }
}

/// Blocking keys stored back to back in id order: one text buffer plus the
/// byte offset at which every key ends. No key owns an allocation, and the
/// two vectors are exactly the `tokoffsets` / `tokblob` sections of a serving
/// snapshot, so the vocabulary is frozen without being copied.
///
/// Invariant (fields are private to keep it): `offsets` starts with 0, is
/// non-decreasing, ends at `text.len()`, and every entry is a char boundary
/// of `text`; both the key count + 1 and the text length fit in `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyArena {
    /// Key `id` is `text[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<u32>,
    text: String,
}

impl Default for KeyArena {
    fn default() -> Self {
        KeyArena { offsets: vec![0], text: String::new() }
    }
}

/// A [`KeyArena`] (and so a [`TokenInterner`]) addresses keys and key text
/// with `u32`s; this is the refusal to grow past that, in place of a
/// wrapped id or offset that would alias another key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaOverflow {
    /// Keys the arena would have held.
    pub keys: u64,
    /// Bytes of key text the arena would have held.
    pub text_bytes: u64,
}

impl std::fmt::Display for ArenaOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blocking key table exceeds u32 addressing: {} keys, {} bytes of key text",
            self.keys, self.text_bytes
        )
    }
}

impl std::error::Error for ArenaOverflow {}

/// The id and the end offset a key of `key_len` bytes gets when appended to
/// an arena of `keys` keys and `text_len` bytes. Takes the sizes, not the
/// arena, so the limits are testable without 4 GiB of key text.
///
/// The id limit is `u32::MAX - 1`, not `u32::MAX`: the interner's slots and
/// the snapshot's `tokoffsets` length prefix both store `id + 1`.
fn arena_slot(keys: usize, text_len: usize, key_len: usize) -> Result<(u32, u32), ArenaOverflow> {
    let end = text_len.checked_add(key_len);
    let id = u32::try_from(keys).ok().filter(|&id| id < u32::MAX);
    match (id, end.and_then(|e| u32::try_from(e).ok())) {
        (Some(id), Some(end)) => Ok((id, end)),
        _ => Err(ArenaOverflow {
            keys: (keys as u64).saturating_add(1),
            text_bytes: end.map_or(u64::MAX, |e| e as u64),
        }),
    }
}

impl KeyArena {
    /// An arena over `offsets` and `text`, without copying them.
    ///
    /// Checks nothing: the caller has proved the invariant above (the
    /// snapshot loader does before it calls this; `String` itself proved
    /// the text UTF-8). An arena that breaks it reads as wrong keys or
    /// panics on access.
    pub fn from_parts(offsets: Vec<u32>, text: String) -> Self {
        KeyArena { offsets, text }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids in use, `0..len`.
    pub fn ids(&self) -> std::ops::Range<u32> {
        // `arena_slot` admitted every key, so the count fits.
        0..(self.len() as u32)
    }

    /// The key with the given id.
    ///
    /// # Panics
    /// If `id` is not below [`KeyArena::len`].
    pub fn get(&self, id: u32) -> &str {
        let i = id as usize;
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The keys in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.offsets.windows(2).map(|w| &self.text[w[0] as usize..w[1] as usize])
    }

    /// `len + 1` byte offsets into [`KeyArena::text`]: key `id` spans
    /// `offsets[id]..offsets[id + 1]`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every key's text, concatenated in id order.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The bytes of the key with the given id: [`KeyArena::get`] without
    /// the char-boundary checks, for comparing and hashing.
    ///
    /// # Panics
    /// If `id` is not below [`KeyArena::len`].
    pub fn bytes(&self, id: u32) -> &[u8] {
        let i = id as usize;
        &self.text.as_bytes()[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn push(&mut self, key: &str) -> Result<u32, ArenaOverflow> {
        let (id, end) = arena_slot(self.len(), self.text.len(), key.len())?;
        self.text.push_str(key);
        self.offsets.push(end);
        Ok(id)
    }
}

/// FxHash over a key's bytes, the one hash of every [`KeyTable`]. Its last
/// step is a multiply, so the top half — the tag, and so the home — depends
/// on every byte. [`KeyScratch`] computes it once per key, where the key is
/// cut, and every batch lookup reads that value.
#[inline]
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}

/// Whether two keys are the same bytes. Keys of up to 16 bytes — every key
/// of the three benchmark collections, which run 3 to 9 bytes — are
/// compared as at most two words, loaded as [`key_hash`] loads its tail;
/// longer keys go through `==`.
#[inline]
fn same_key(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.len() > 16 {
        return a == b;
    }
    match (a.first_chunk::<8>(), b.first_chunk::<8>()) {
        // 8..=16 bytes: the first word and the last, which may overlap it.
        (Some(a_first), Some(b_first)) => {
            a_first == b_first && a.last_chunk::<8>() == b.last_chunk::<8>()
        }
        _ => short_word(a) == short_word(b),
    }
}

/// Fewest slots a growing table has.
const MIN_SLOTS: u64 = 64;

/// Most slots a table has: a 32-bit tag homes onto at most `2^32`. Ids stop
/// at `u32::MAX - 1`, so a slot always stays vacant.
const MAX_SLOTS: u64 = 1 << 32;

/// Probe steps [`KeyTable::seat`] may spend per key. A well-spread
/// vocabulary at ¾ load spends about 1.3 (the tests measure both benchmark
/// shapes); keys that all share one home spend `keys / 2` each.
const STEPS_PER_KEY: u64 = 16;

/// Keys [`KeyTable::seat`] hashes and touches together before seating any.
const SEAT_CHUNK: u32 = 64;

/// Slots for `keys` keys at no more than ¾ load: never full.
fn slots_for(keys: u64) -> u64 {
    keys.saturating_add(keys / 3 + 1)
}

/// Key `id`'s slot: `hash`'s top half as a tag over `id + 1`, never `0`.
fn slot_of(id: u32, hash: u64) -> u64 {
    hash >> 32 << 32 | (u64::from(id) + 1)
}

/// Why [`KeyTable::seat`] refused an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeatError {
    /// Keys `.0` and `.1` are the same string.
    Duplicate(u32, u32),
    /// Seating the first `.0` keys took more than `.1` probe steps.
    Collisions(u64, u64),
}

impl std::fmt::Display for SeatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeatError::Duplicate(first, second) => {
                write!(f, "keys {first} and {second} are the same string: keys must be distinct")
            }
            SeatError::Collisions(seated, budget) => {
                write!(f, "keys collide: seating {seated} took more than {budget} probe steps")
            }
        }
    }
}

impl std::error::Error for SeatError {}

/// The key → id table over a [`KeyArena`], which it does not own: every
/// lookup is handed the arena whose ids it seats. One flat open-addressing
/// array of `u64` slots, at most ¾ full: `0` vacant, else `tag << 32 | id +
/// 1` with `tag` the top half of the key's [`key_hash`].
///
/// A key's home is `(tag · slots) >> 32` — on a table `2^b` long, the
/// hash's top `b` bits — so any length works and growth re-seats slots
/// without reading a key. Probing is linear and compares a slot's tag
/// before it reads a key byte: one cache miss for the slot and, on a tag
/// hit, one for the key. [`TokenInterner`] grows one as it numbers keys;
/// [`KeyTable::seat`] builds one over an arena from outside.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    slots: Vec<u64>,
}

impl KeyTable {
    /// Seats every key of an arena from outside, a loaded vocabulary, in
    /// `V + V/3 + 1` slots for `V` keys (≈ 10.7 B a key). Equal keys meet in
    /// a probe: [`SeatError::Duplicate`]. FxHash is not collision-resistant,
    /// so probe steps are counted against 16 per key, and keys crafted to
    /// share a home are [`SeatError::Collisions`] after linear work. Keys go
    /// in chunks of 64, each hashed and touched as [`KeyTable::find_all`]
    /// does a batch, then seated in id order.
    pub fn seat(keys: &KeyArena) -> Result<KeyTable, SeatError> {
        let budget = STEPS_PER_KEY.saturating_mul(keys.len() as u64);
        KeyTable::seat_with(keys, budget, key_hash).map(|(table, _)| table)
    }

    /// [`KeyTable::seat`] under any budget and hash, counting its steps.
    fn seat_with(
        keys: &KeyArena,
        budget: u64,
        hash: impl Fn(&[u8]) -> u64,
    ) -> Result<(KeyTable, u64), SeatError> {
        // A length past the address space fails in the allocation.
        let len = usize::try_from(slots_for(keys.len() as u64).min(MAX_SLOTS));
        let mut table = KeyTable { slots: vec![0; len.unwrap_or(usize::MAX)] };
        let (mut steps, all) = (0u64, keys.ids());
        // Each key of the chunk in hand, with its hash.
        let mut chunk: [(&[u8], u64); SEAT_CHUNK as usize] = [(&[], 0); SEAT_CHUNK as usize];
        for first in all.clone().step_by(SEAT_CHUNK as usize) {
            let ids = first..first.saturating_add(SEAT_CHUNK).min(all.end);
            let chunk = &mut chunk[..ids.len()];
            for (entry, id) in chunk.iter_mut().zip(ids.clone()) {
                let key = keys.bytes(id);
                *entry = (key, hash(key));
            }
            table.touch(keys, chunk.iter().map(|&(_, h)| h));
            for (id, &(key, h)) in ids.zip(chunk.iter()) {
                let at = match table.probe(keys, key, h) {
                    Ok(first) => return Err(SeatError::Duplicate(first, id)),
                    Err(at) => at,
                };
                let home = table.home(h);
                steps +=
                    (if at >= home { at - home } else { at + table.slots.len() - home }) as u64;
                if steps > budget {
                    return Err(SeatError::Collisions(u64::from(id) + 1, budget));
                }
                table.slots[at] = slot_of(id, h);
            }
        }
        Ok((table, steps))
    }

    /// The id of `key` in `keys`, the arena this table seats, if it has one.
    pub fn find(&self, keys: &KeyArena, key: &[u8]) -> Option<u32> {
        self.probe(keys, key, key_hash(key)).ok()
    }

    /// Looks every key of `batch` up, in commit order, repeats included,
    /// into `ids` (cleared first): its id in `keys`, or `None`. One key at a
    /// time, each lookup is a chain of dependent misses (slot, offsets, key
    /// bytes); here a loop that does nothing else first loads every home
    /// slot and, on a tag hit, the key's last byte — independent loads whose
    /// misses overlap — and the probes that follow find their lines in
    /// cache. Nothing is hashed: each key carries the hash it was cut with.
    pub fn find_all(&self, keys: &KeyArena, batch: &KeyScratch, ids: &mut Vec<Option<u32>>) {
        #[cfg(feature = "sanitize")]
        batch.sanitize_hashes("find_all");
        self.lookup_all(keys, batch, ids);
    }

    /// [`KeyTable::find_all`] under whatever hashes `batch` carries.
    fn lookup_all(&self, keys: &KeyArena, batch: &KeyScratch, ids: &mut Vec<Option<u32>>) {
        self.touch(keys, batch.hashes.iter().copied());
        ids.clear();
        ids.extend(batch.spans.iter().zip(&batch.hashes).map(|(&(start, end), &hash)| {
            self.probe(keys, &batch.buf.as_bytes()[start..end], hash).ok()
        }));
    }

    /// Loads each hash's home slot and, on a tag hit, the resident key's
    /// last byte; the loads are the point.
    fn touch(&self, keys: &KeyArena, hashes: impl IntoIterator<Item = u64>) {
        let mut touched = 0u8;
        for hash in hashes {
            let Some(&slot) = self.slots.get(self.home(hash)) else { continue };
            if slot != 0 && slot >> 32 == hash >> 32 {
                // The low half is `id + 1`, the index of the key's end.
                let end = keys.offsets.get(slot as u32 as usize).map_or(0, |&end| end as usize);
                touched ^= keys.text.as_bytes().get(end.wrapping_sub(1)).map_or(0, |&b| b);
            }
        }
        std::hint::black_box(touched);
    }

    /// Where a hash's probe starts: `(tag · slots) >> 32`.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (((hash >> 32) * self.slots.len() as u64) >> 32) as usize
    }

    /// The one probe: `Ok(id)` if `key`, hashed to `hash`, is key `id` of
    /// `keys`, else `Err` with the vacant slot it ended on. A table always
    /// has one, so the probe ends.
    #[inline]
    fn probe(&self, keys: &KeyArena, key: &[u8], hash: u64) -> Result<u32, usize> {
        let mut at = self.home(hash);
        // Only an empty table has no slot at the home: it misses at once.
        while let Some(&slot) = self.slots.get(at) {
            if slot == 0 {
                return Err(at);
            }
            if slot >> 32 == hash >> 32 && same_key(keys.bytes(slot as u32 - 1), key) {
                return Ok(slot as u32 - 1);
            }
            at = if at + 1 == self.slots.len() { 0 } else { at + 1 };
        }
        Err(at)
    }

    /// Makes room for `keys` keys at ¾ load, growing to a power of two at
    /// most once; says whether the slots moved.
    fn reserve(&mut self, keys: u64) -> bool {
        if keys.saturating_mul(4) <= (self.slots.len() as u64).saturating_mul(3) {
            return false;
        }
        let len = slots_for(keys)
            .checked_next_power_of_two()
            .map_or(MAX_SLOTS, |len| len.clamp(MIN_SLOTS, MAX_SLOTS));
        // A length past the address space fails in the allocation below.
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len == self.slots.len() {
            return false;
        }
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            self.put(slot, self.home(slot));
        }
        true
    }

    /// Writes `slot` into the first vacant slot from `from` on — for a key
    /// the table lacks, `from` is its home or a slot of its probe run.
    fn put(&mut self, slot: u64, mut from: usize) {
        while self.slots[from] != 0 {
            from = if from + 1 == self.slots.len() { 0 } else { from + 1 };
        }
        self.slots[from] = slot;
    }
}

/// A key interner specialised for the blocking front-end: key → dense `u32`
/// in first-seen order. Keys live in a [`KeyArena`], found through a
/// [`KeyTable`] that grows with them: a new key is an append, never an
/// allocation of its own. Growing past what a `u32` addresses is an
/// [`ArenaOverflow`], never a narrowed id.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    keys: KeyArena,
    table: KeyTable,
    /// Per key id, the last [`TokenInterner::intern_all`] batch that wrote
    /// it; `0` for none. Grown to the key count at the start of a batch.
    /// Two bytes a key, not four: with `u32` stamps the heap the rest of a
    /// batch pipeline ran on came out ~3 % larger at its peak
    /// (EXPERIMENTS.md, "Keys looked up as they arrive").
    stamps: Vec<u16>,
    /// The current batch's stamp: never `0`, and the stamps are cleared
    /// when it wraps, once every 65 535 batches.
    batch: u16,
    /// [`TokenInterner::intern_all`]'s per-batch misses, kept for reuse:
    /// each key's index in the batch and the vacant slot its lookup ended on.
    misses: Vec<(usize, usize)>,
}

impl TokenInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `key`, allocating one if unseen.
    pub fn intern(&mut self, key: &str) -> Result<u32, ArenaOverflow> {
        self.table.reserve((self.keys.len() as u64).saturating_add(1));
        let hash = key_hash(key.as_bytes());
        self.table.probe(&self.keys, key.as_bytes(), hash).or_else(|at| self.insert(key, hash, at))
    }

    /// Interns the keys of `keys` — in any order, repeats allowed — and
    /// writes each distinct key's id to `ids` (cleared first) once: the ids
    /// of keys already interned in the order they first occur, then the new
    /// ones. Keys the interner lacks are numbered in the byte order of their
    /// text, so the ids, and the keys' order in the arena, are exactly what
    /// one [`TokenInterner::intern`] call per key of the batch sorted and
    /// deduplicated would give.
    ///
    /// The batch is looked up as [`KeyTable::find_all`] looks one up, by
    /// the hashes its keys carry; a found id is written unless it carries
    /// this batch's stamp already.
    /// Only the misses are sorted by bytes and deduplicated, and room is
    /// reserved for them after the lookups, so no slot moves in between;
    /// each goes in from the slot its lookup ended on, or from its home if
    /// the table moved.
    pub fn intern_all(
        &mut self,
        keys: &KeyScratch,
        ids: &mut Vec<u32>,
    ) -> Result<(), ArenaOverflow> {
        ids.clear();
        if keys.is_empty() {
            return Ok(());
        }
        #[cfg(feature = "sanitize")]
        keys.sanitize_hashes("intern_all");
        let mut misses = std::mem::take(&mut self.misses);
        misses.clear();
        // An empty table misses every key, and reads no stamp.
        if !self.table.slots.is_empty() {
            self.stamps.resize(self.keys.len(), 0);
            self.batch = self.batch.checked_add(1).unwrap_or_else(|| {
                self.stamps.fill(0);
                1
            });
        }
        let hashes = &keys.hashes;
        self.table.touch(&self.keys, hashes.iter().copied());
        for (index, (&(start, end), &hash)) in keys.spans.iter().zip(hashes).enumerate() {
            match self.table.probe(&self.keys, &keys.buf.as_bytes()[start..end], hash) {
                Ok(id) => {
                    let stamp = &mut self.stamps[id as usize];
                    if *stamp != self.batch {
                        *stamp = self.batch;
                        ids.push(id);
                    }
                }
                Err(vacant) => misses.push((index, vacant)),
            }
        }

        let bytes = |index: usize| -> &[u8] {
            let (start, end) = keys.spans[index];
            &keys.buf.as_bytes()[start..end]
        };
        misses.sort_unstable_by(|&(a, _), &(b, _)| bytes(a).cmp(bytes(b)));
        misses.dedup_by(|a, b| bytes(a.0) == bytes(b.0));
        let moved =
            self.table.reserve((self.keys.len() as u64).saturating_add(misses.len() as u64));
        let key = |index: usize| -> &str {
            let (start, end) = keys.spans[index];
            &keys.buf[start..end]
        };
        #[cfg(feature = "sanitize")]
        let (first_new, found) = (self.keys.len(), ids.len());
        let result = misses.iter().try_for_each(|&(index, vacant)| {
            // A miss is absent, so it needs no comparing: it goes in the
            // first vacant slot from where its lookup ended, or from its
            // home if the reservation moved the table.
            let hash = hashes[index];
            let from = if moved { self.table.home(hash) } else { vacant };
            ids.push(self.insert(key(index), hash, from)?);
            Ok(())
        });
        #[cfg(feature = "sanitize")]
        if result.is_ok() {
            self.sanitize_batch(ids, found, first_new);
        }
        self.misses = misses;
        result
    }

    /// What [`TokenInterner::intern_all`] promises of a batch it wrote in
    /// full: no id twice, and the new ids — those from `found` on —
    /// consecutive from `first_new` with their keys strictly ascending.
    #[cfg(feature = "sanitize")]
    fn sanitize_batch(&self, ids: &[u32], found: usize, first_new: usize) {
        let mut distinct = ids.to_vec();
        distinct.sort_unstable();
        assert!(
            distinct.windows(2).all(|w| w[0] < w[1]),
            "mb-sanitize: intern_all wrote an id twice in one batch"
        );
        let new = &ids[found..];
        assert!(
            new.iter().zip(first_new..).all(|(&id, want)| id as usize == want),
            "mb-sanitize: intern_all's new ids do not run on from the old key count"
        );
        assert!(
            new.windows(2).all(|w| self.keys.bytes(w[0]) < self.keys.bytes(w[1])),
            "mb-sanitize: intern_all numbered its new keys out of byte order"
        );
    }

    /// Number of distinct interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The interned keys; key `id` is `keys().get(id)`.
    pub fn keys(&self) -> &KeyArena {
        &self.keys
    }

    /// Consumes the interner into its keys, dropping the lookup table.
    pub fn into_keys(self) -> KeyArena {
        self.keys
    }

    /// Appends `key`, which the table lacks, seated from `from` on. The
    /// caller has reserved a slot.
    fn insert(&mut self, key: &str, hash: u64, from: usize) -> Result<u32, ArenaOverflow> {
        let id = self.keys.push(key)?;
        self.table.put(slot_of(id, hash), from);
        Ok(id)
    }
}

/// Reusable per-profile scratch for assembling blocking keys without per-key
/// allocations: one backing buffer holds the text of every key, and each key
/// is a `(start, end)` span into it. The buffer may also hold bytes no span
/// covers, such as the separators of a value tokenized in place.
///
/// The span representation also lets q-gram windows *alias* their token's
/// bytes ([`KeyScratch::push_range`]) instead of copying them. Keys stay in
/// the order they were committed, repeats included:
/// [`TokenInterner::intern_all`] and the serving layer's batch token lookup
/// take them that way, and each byte-sorts only the keys it has to number.
///
/// Every committed key carries its [`key_hash`], computed where the key is
/// cut, while its bytes are still in cache; the batch lookups read it and
/// hash nothing.
#[derive(Debug, Default)]
pub struct KeyScratch {
    buf: String,
    spans: Vec<(usize, usize)>,
    /// `key_hash` of each span's bytes, one per span.
    hashes: Vec<u64>,
}

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;

/// The high bit of every byte of a word.
const HIGH: u64 = ONES << 7;

/// The high bit of every byte of `word` that lies in `lo..=hi`, for a
/// `word` of ASCII bytes (high bits clear) and `hi < 0x80`: `byte + 0x80 -
/// lo` reaches `0x80` exactly when `byte >= lo`, `byte + 0x7f - hi` exactly
/// when `byte > hi`, and neither sum carries into the next byte (Hacker's
/// Delight §6-1).
#[inline]
fn bytes_in(word: u64, lo: u8, hi: u8) -> u64 {
    let at_least_lo = word + ONES * u64::from(0x80 - lo);
    let above_hi = word + ONES * u64::from(0x7f - hi);
    at_least_lo & !above_hi & HIGH
}

/// The high bit of every byte of `word` — lowercased ASCII — that is not
/// an ASCII digit or lowercase letter: the bytes a value's keys are cut at.
#[inline]
fn separators(word: u64) -> u64 {
    !(bytes_in(word, b'0', b'9') | bytes_in(word, b'a', b'z')) & HIGH
}

impl KeyScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears keys and backing text, retaining both allocations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
        self.hashes.clear();
    }

    /// Replaces the contents with `profile`'s Token Blocking keys: the
    /// [`raw_tokens`] of every attribute value lowercased as
    /// `str::to_lowercase` does, in order, repeats kept.
    ///
    /// This is the one statement of what the tokens of a profile are. The
    /// batch build, the probe path of a served query and a live upsert all
    /// call it, so a probe or an upsert can only route to blocks the build
    /// made; changing it changes the vocabulary a snapshot persists.
    ///
    /// An all-ASCII value is copied once and lowercased in place; its keys
    /// are the spans of its ASCII-alphanumeric runs, which for ASCII text
    /// are exactly the runs [`raw_tokens`] splits out, and the separators
    /// stay behind in the buffer. The separators are found a word at a time
    /// ([`separators`]), and each key is hashed as it is cut. Any other
    /// value goes token by token through [`push_lowercase`].
    // `#[inline]` gives each calling crate its own copy, placed beside the
    // per-profile loop that calls it — where the copies it replaces lived.
    // As one copy in this crate, `TokenBlocking::build` on a verbose
    // collection measured 2.6 % slower (EXPERIMENTS.md, PR 19).
    #[inline]
    pub fn fill_tokens(&mut self, profile: &EntityProfile) {
        self.clear();
        for value in profile.values() {
            if !value.is_ascii() {
                for raw in raw_tokens(value) {
                    let start = self.begin();
                    self.push_lowercase(raw);
                    self.commit(start);
                }
                continue;
            }
            let base = self.buf.len();
            self.buf.push_str(value);
            self.buf[base..].make_ascii_lowercase();
            self.cut_ascii(base);
        }
    }

    /// Commits the alphanumeric runs of the lowercased ASCII text from
    /// `base` to the end of the buffer as keys, each with its hash. The
    /// text is read 8 bytes at a time and only the separators are visited;
    /// the last, partial word is read zero-extended and its padding masked
    /// off.
    #[inline]
    fn cut_ascii(&mut self, base: usize) {
        let KeyScratch { buf, spans, hashes } = self;
        let text = &buf.as_bytes()[base..];
        let mut cut = |start: usize, end: usize| {
            spans.push((base + start, base + end));
            hashes.push(key_hash(&text[start..end]));
        };
        let chunks = text.chunks_exact(8);
        let tail = chunks.remainder();
        let words = chunks
            .map(|chunk| (word(chunk), HIGH))
            .chain([(short_word(tail), HIGH & ((1u64 << (8 * tail.len())) - 1))]);
        // One past the last separator: where the run in hand began.
        let mut run = 0;
        for (first, (word, valid)) in (0..).step_by(8).zip(words) {
            let mut seps = separators(word) & valid;
            while seps != 0 {
                let at = first + (seps.trailing_zeros() / 8) as usize;
                if at > run {
                    cut(run, at);
                }
                run = at + 1;
                seps &= seps - 1;
            }
        }
        if text.len() > run {
            cut(run, text.len());
        }
    }

    /// Starts a new key at the current end of the buffer; pass the returned
    /// marker to [`KeyScratch::commit`].
    pub fn begin(&self) -> usize {
        self.buf.len()
    }

    /// Appends literal text to the key under construction.
    pub fn push_str(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Appends `raw` lowercased (see [`push_lowercase`]).
    pub fn push_lowercase(&mut self, raw: &str) {
        push_lowercase(&mut self.buf, raw);
    }

    /// Appends any `Display` value (numeric cluster prefixes and the like).
    pub fn push_display(&mut self, v: impl std::fmt::Display) {
        use std::fmt::Write;
        let _ = write!(self.buf, "{v}");
    }

    /// Commits the key begun at `start`, hashing it. Keys that received no
    /// text are dropped, mirroring the `filter(|k| !k.is_empty())` of the
    /// old path.
    pub fn commit(&mut self, start: usize) {
        if self.buf.len() > start {
            self.push_range(start, self.buf.len());
        }
    }

    /// Records `[start, end)` of the backing buffer as an additional key,
    /// hashing it. Q-gram windows use this to share their token's bytes.
    pub fn push_range(&mut self, start: usize, end: usize) {
        debug_assert!(start < end && end <= self.buf.len());
        self.spans.push((start, end));
        self.hashes.push(key_hash(&self.buf.as_bytes()[start..end]));
    }

    /// The current end of the backing buffer (for char-boundary scans).
    pub fn end(&self) -> usize {
        self.buf.len()
    }

    /// The backing buffer.
    pub fn buf(&self) -> &str {
        &self.buf
    }

    /// The key committed `index`-th. Panics past [`KeyScratch::len`].
    pub fn get(&self, index: usize) -> &str {
        let (start, end) = self.spans[index];
        &self.buf[start..end]
    }

    /// Iterates the committed keys in their current order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(move |&(s, e)| &self.buf[s..e])
    }

    /// Number of committed keys.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no key has been committed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// That every committed key carries the [`key_hash`] of its bytes, the
    /// hash the batch lookup named `caller` reads instead of computing.
    #[cfg(feature = "sanitize")]
    fn sanitize_hashes(&self, caller: &str) {
        assert_eq!(
            self.hashes.len(),
            self.spans.len(),
            "mb-sanitize: {caller}: a key without a hash"
        );
        for (index, &hash) in self.hashes.iter().enumerate() {
            assert_eq!(
                hash,
                key_hash(self.get(index).as_bytes()),
                "mb-sanitize: {caller}: key {index} carries a hash that is not its key_hash"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;

    /// The reference tokenizer [`KeyScratch::fill_tokens`] is held to: a
    /// value split on every non-alphanumeric char, empty pieces dropped,
    /// each token lowercased into an owned `String`.
    fn tokens(value: &str) -> impl Iterator<Item = String> + '_ {
        value.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()).map(str::to_lowercase)
    }

    /// The reference interner [`TokenInterner`] is held to: two tables, a
    /// `String` per key each way, ids in first-seen order.
    #[derive(Default)]
    struct StringInterner {
        ids: FxHashMap<String, u32>,
        strings: Vec<String>,
    }

    impl StringInterner {
        fn intern(&mut self, s: &str) -> u32 {
            if let Some(&id) = self.ids.get(s) {
                return id;
            }
            let id = self.strings.len() as u32;
            self.ids.insert(s.to_owned(), id);
            self.strings.push(s.to_owned());
            id
        }

        fn get(&self, s: &str) -> Option<u32> {
            self.ids.get(s).copied()
        }

        fn len(&self) -> usize {
            self.strings.len()
        }
    }

    /// The tokens `fill_tokens` commits for a profile of `values`.
    fn filled(values: &[&str]) -> Vec<String> {
        let profile =
            values.iter().fold(EntityProfile::new("p"), |profile, &value| profile.with("v", value));
        let mut scratch = KeyScratch::new();
        scratch.fill_tokens(&profile);
        scratch.iter().map(str::to_owned).collect()
    }

    #[test]
    fn fill_tokens_normalize_case_and_punctuation() {
        assert_eq!(filled(&["Car-Vendor/Seller  (used)"]), ["car", "vendor", "seller", "used"]);
    }

    #[test]
    fn fill_tokens_keep_digits() {
        assert_eq!(filled(&["IMDB id 0123"]), ["imdb", "id", "0123"]);
    }

    #[test]
    fn an_empty_value_fills_no_tokens() {
        assert!(filled(&["  --- ", ""]).is_empty());
        assert_eq!(filled(&["  --- ", "x"]), ["x"]);
    }

    #[test]
    fn fill_tokens_lowercase_unicode() {
        assert_eq!(filled(&["Müller Straße"]), ["müller", "straße"]);
    }

    #[test]
    fn push_lowercase_matches_to_lowercase() {
        for raw in ["Jack", "MILLER-42", "Müller", "ΣΟΦΟΣ", "straße", "İstanbul"] {
            let mut buf = String::new();
            push_lowercase(&mut buf, raw);
            assert_eq!(buf, raw.to_lowercase(), "raw={raw}");
        }
    }

    #[test]
    fn token_interner_assigns_dense_first_seen_ids() {
        let mut i = TokenInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern("b"), Ok(0));
        assert_eq!(i.intern("a"), Ok(1));
        assert_eq!(i.intern("b"), Ok(0));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn token_interner_keys_are_in_id_order() {
        let mut i = TokenInterner::new();
        for key in ["zeta", "alpha", "mid", "alpha", "zeta"] {
            i.intern(key).unwrap();
        }
        let keys = i.into_keys();
        assert_eq!(keys.iter().collect::<Vec<_>>(), ["zeta", "alpha", "mid"]);
        assert_eq!(keys.offsets(), [0, 4, 9, 12]);
        assert_eq!(keys.text(), "zetaalphamid");
        assert_eq!(keys.ids(), 0..3);
        assert_eq!(keys.get(1), "alpha");
    }

    #[test]
    fn empty_interner_has_one_offset_and_no_text() {
        let keys = TokenInterner::new().into_keys();
        assert!(keys.is_empty());
        assert_eq!(keys.offsets(), [0]);
        assert_eq!(keys.text(), "");
        let mut ids = vec![9];
        TokenInterner::new().intern_all(&KeyScratch::new(), &mut ids).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn the_empty_key_is_a_key() {
        // `KeyScratch` never commits one, `intern` may still be handed one.
        let mut i = TokenInterner::new();
        assert_eq!(i.intern(""), Ok(0));
        assert_eq!(i.intern("x"), Ok(1));
        assert_eq!(i.intern(""), Ok(0));
        assert_eq!(i.keys().get(0), "");
    }

    #[test]
    fn arena_limits_are_checked_not_wrapped() {
        let max = u32::MAX as usize;
        // Ids stop one short of u32::MAX (slots and the snapshot's offset
        // count store id + 1); text may fill all 2^32 - 1 addressable bytes.
        assert_eq!(arena_slot(0, 0, 0), Ok((0, 0)));
        assert_eq!(arena_slot(max - 1, 10, 5), Ok((u32::MAX - 1, 15)));
        assert_eq!(arena_slot(7, max - 3, 3), Ok((7, u32::MAX)));
        let err = arena_slot(max, 10, 5).unwrap_err();
        assert_eq!(err, ArenaOverflow { keys: max as u64 + 1, text_bytes: 15 });
        let err = arena_slot(7, max - 3, 4).unwrap_err();
        assert_eq!(err, ArenaOverflow { keys: 8, text_bytes: max as u64 + 1 });
        assert!(arena_slot(7, usize::MAX, 1).is_err());
        assert!(err.to_string().contains("exceeds u32 addressing"), "{err}");
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

    /// A key drawn with Zipf-like repetition (rank = a squared uniform draw
    /// over `universe`), shaped by its rank: 1-, 8-, 9- and 200-byte ASCII
    /// keys sit on both sides of `FxHasher::write`'s 8-byte chunking, and
    /// every seventh rank is multi-byte Unicode.
    fn zipf_key(next: &mut impl FnMut() -> u64, universe: u64) -> String {
        let u = next() % universe;
        let rank = u * u / universe;
        match rank % 7 {
            0 => char::from(b'a' + (rank / 7 % 26) as u8).to_string(),
            1 => format!("{rank:08}"),
            2 => format!("{rank:09}"),
            3 => format!("{rank:0200}"),
            4 => format!("straße-{rank}-σοφός"),
            _ => format!("tok{rank}"),
        }
    }

    /// A scratch holding `keys` as committed keys, in order.
    fn batch_of<'a>(keys: impl IntoIterator<Item = &'a str>) -> KeyScratch {
        let mut scratch = KeyScratch::new();
        for key in keys {
            let start = scratch.begin();
            scratch.push_str(key);
            scratch.commit(start);
        }
        scratch
    }

    /// What `intern_all` must write for `batch`, by the two-table oracle:
    /// the ids of the keys it already holds, in first-occurrence order, then
    /// those of the batch sorted and deduplicated, interned in that order,
    /// that are new.
    fn oracle_ids(oracle: &mut StringInterner, batch: &KeyScratch) -> Vec<u32> {
        let mut expected: Vec<u32> = Vec::new();
        for id in batch.iter().filter_map(|key| oracle.get(key)) {
            if !expected.contains(&id) {
                expected.push(id);
            }
        }
        let mut sorted: Vec<&str> = batch.iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let known = oracle.len() as u32;
        expected.extend(sorted.into_iter().map(|key| oracle.intern(key)).filter(|&id| id >= known));
        expected
    }

    #[test]
    fn interner_matches_the_two_table_oracle() {
        let mut next = rng(20160315);
        let (mut new, mut oracle) = (TokenInterner::new(), StringInterner::default());
        let mut scratch = KeyScratch::new();
        let mut ids = Vec::new();
        let mut lookups = 0usize;
        while lookups < 150_000 {
            if next() & 3 == 0 {
                // Single-key lookups interleaved with the batches.
                let key = zipf_key(&mut next, 60_000);
                assert_eq!(new.intern(&key), Ok(oracle.intern(&key)), "key {key:?}");
                lookups += 1;
                continue;
            }
            // Batches of 1..=64 keys, unsorted and with repeats, so known
            // and new keys interleave and the same new key does occur twice
            // in one batch.
            scratch.clear();
            for _ in 0..=next() % 64 {
                let start = scratch.begin();
                scratch.push_str(&zipf_key(&mut next, 60_000));
                scratch.commit(start);
            }
            new.intern_all(&scratch, &mut ids).unwrap();
            assert_eq!(ids, oracle_ids(&mut oracle, &scratch));
            lookups += scratch.len();
        }
        assert!(oracle.len() > 20_000, "only {} distinct keys", oracle.len());
        assert_eq!(new.len(), oracle.len());
        assert!(new.keys().iter().eq(oracle.strings.iter().map(String::as_str)));
    }

    #[test]
    fn a_new_key_repeated_within_one_batch_gets_one_id() {
        let (mut i, mut oracle, mut ids) =
            (TokenInterner::new(), StringInterner::default(), Vec::new());
        let first = batch_of(["dup", "other", "dup", "dup"]);
        i.intern_all(&first, &mut ids).unwrap();
        assert_eq!(ids, [0, 1]);
        assert_eq!(ids, oracle_ids(&mut oracle, &first));
        // Known and new keys interleaved, one new key three times: the known
        // ids in the order they first occur, then the new ones by bytes.
        let second = batch_of(["zeta", "other", "alpha", "dup", "alpha", "other", "alpha"]);
        i.intern_all(&second, &mut ids).unwrap();
        assert_eq!(ids, [1, 0, 2, 3]);
        assert_eq!(ids, oracle_ids(&mut oracle, &second));
        assert_eq!(i.keys().iter().collect::<Vec<_>>(), ["dup", "other", "alpha", "zeta"]);
    }

    #[test]
    fn the_batch_stamp_clears_when_it_wraps() {
        let (mut i, mut ids) = (TokenInterner::new(), Vec::new());
        i.intern_all(&batch_of(["a", "b"]), &mut ids).unwrap();
        // Both keys known now: this batch stamps them both.
        i.intern_all(&batch_of(["b", "a"]), &mut ids).unwrap();
        assert_eq!((ids.as_slice(), i.batch), ([1, 0].as_slice(), 1));
        i.batch = u16::MAX - 1;
        i.intern_all(&batch_of(["a", "a"]), &mut ids).unwrap();
        assert_eq!((ids.as_slice(), i.batch), ([0].as_slice(), u16::MAX));
        // The counter wraps back to 1, the stamp "b" still carries from the
        // second batch: unless the stamps were cleared, "b" would be dropped.
        i.intern_all(&batch_of(["b", "c", "a", "b", "c"]), &mut ids).unwrap();
        assert_eq!((ids.as_slice(), i.batch), ([1, 0, 2].as_slice(), 1));
        i.intern_all(&batch_of(["c", "b", "c"]), &mut ids).unwrap();
        assert_eq!((ids.as_slice(), i.batch), ([2, 1].as_slice(), 2));
    }

    #[test]
    fn a_batch_may_straddle_any_number_of_table_doublings() {
        // 4990 new keys in one batch on a table sized for 48: room for the
        // misses is reserved after the lookups, before the first insert.
        let mut i = TokenInterner::new();
        for n in 0..40 {
            i.intern(&format!("seed{n}")).unwrap();
        }
        let small = i.table.slots.len();
        let mut scratch = KeyScratch::new();
        for n in 0..5000 {
            let start = scratch.begin();
            scratch.push_display(n % 4990); // the last ten repeat the first
            scratch.commit(start);
        }
        let mut ids = Vec::new();
        i.intern_all(&scratch, &mut ids).unwrap();
        assert!(i.table.slots.len() > small * 16);
        assert_eq!(ids, (40..5030).collect::<Vec<u32>>());
        // Every key is still found after the re-seat, one at a time, the new
        // ones numbered in byte order.
        for n in 0..40 {
            assert_eq!(i.intern(&format!("seed{n}")), Ok(n));
        }
        let mut sorted: Vec<String> = (0..4990).map(|n| n.to_string()).collect();
        sorted.sort_unstable();
        for (id, key) in (40..).zip(&sorted) {
            assert_eq!(i.intern(key), Ok(id));
        }
        assert!(i.table.slots.iter().filter(|&&s| s != 0).count() == i.len());
        assert!(i.len() * 4 <= i.table.slots.len() * 3);
    }

    /// An arena over `keys`, in order, as a loaded vocabulary arrives.
    fn arena_of<'a>(keys: impl IntoIterator<Item = &'a str>) -> KeyArena {
        let mut arena = KeyArena::default();
        for key in keys {
            arena.push(key).unwrap();
        }
        arena
    }

    #[test]
    fn keys_sharing_one_home_are_refused_after_linear_work() {
        // 20 000 distinct keys under a hash that sends them all to slot 0:
        // seating the k-th walks over the k - 1 before it, 200 million steps
        // for the lot. The budget stops it once the steps pass 16 per key.
        let names: Vec<String> = (0..20_000).map(|i| format!("t{i}")).collect();
        let keys = arena_of(names.iter().map(String::as_str));
        let hashed = std::cell::Cell::new(0u64);
        let err = KeyTable::seat_with(&keys, STEPS_PER_KEY * names.len() as u64, |_| {
            hashed.set(hashed.get() + 1);
            0
        })
        .unwrap_err();
        assert!(matches!(err, SeatError::Collisions(..)), "{err:?}");
        assert!(err.to_string().contains("probe steps"), "{err}");
        // k keys cost k(k - 1)/2 steps, so it gave up near √(2 · budget).
        assert!(hashed.get() < 1_000, "gave up only after {} keys", hashed.get());

        // Under the budget a colliding vocabulary is merely slow to seat:
        // accepted, every key found, the work counted.
        let keys = arena_of(["ab", "cd", "ef", "gh", "ij", "kl", "mn", "op"]);
        let (table, steps) = KeyTable::seat_with(&keys, 128, |_| 0).unwrap();
        assert_eq!(steps, 28);
        assert_eq!(table.slots[..8], [1, 2, 3, 4, 5, 6, 7, 8]);
        for id in keys.ids() {
            assert_eq!(table.probe(&keys, keys.bytes(id), 0), Ok(id));
        }
        // One step short of what it needs, the same vocabulary is refused.
        let err = KeyTable::seat_with(&keys, 27, |_| 0).unwrap_err();
        assert_eq!(err, SeatError::Collisions(8, 27));
    }

    #[test]
    fn equal_keys_are_caught_while_seating_under_any_hash() {
        let keys = arena_of(["jack", "miller", "lloyd", "miller"]);
        for hash in [key_hash as fn(&[u8]) -> u64, |_| 7] {
            let err = KeyTable::seat_with(&keys, 64, hash).unwrap_err();
            assert_eq!(err, SeatError::Duplicate(1, 3));
        }
        let err = KeyTable::seat(&keys).unwrap_err();
        assert!(err.to_string().contains("keys 1 and 3 are the same string"), "{err}");
    }

    /// The vocabulary Token Blocking numbers for a generated collection
    /// shrunk `shrink`-fold, profile by profile as the build numbers it.
    fn generated_vocabulary(mut config: er_datagen::DatasetConfig, shrink: usize) -> KeyArena {
        config.matched_pairs /= shrink;
        config.side1.size /= shrink;
        config.side2.size /= shrink;
        config.object.vocab_size /= shrink;
        let collection = er_datagen::presets::build(&config).unwrap().collection;
        let (mut interner, mut scratch, mut ids) =
            (TokenInterner::new(), KeyScratch::new(), vec![]);
        for generated in collection.profiles() {
            // The generator's profiles are another build's type: rebuild
            // each one from its strings.
            let profile =
                generated.values().fold(EntityProfile::new("p"), |profile, v| profile.with("v", v));
            scratch.fill_tokens(&profile);
            interner.intern_all(&scratch, &mut ids).unwrap();
        }
        interner.into_keys()
    }

    #[test]
    fn benchmark_shaped_vocabularies_stay_far_from_the_budget() {
        // The two served collections of the repository benchmark, a
        // twentieth of their size: same token shapes and length mix.
        use er_datagen::presets;
        for (name, config) in [("d1c", presets::d1c(13)), ("d2c", presets::d2c(13))] {
            let keys = generated_vocabulary(config, 20);
            assert!(keys.len() > 5_000, "{name}: {} keys", keys.len());
            let budget = STEPS_PER_KEY * keys.len() as u64;
            let (table, steps) = KeyTable::seat_with(&keys, budget, key_hash).unwrap();
            assert_eq!(table.slots.iter().filter(|&&slot| slot != 0).count(), keys.len());
            assert!(table.slots.len() * 3 >= keys.len() * 4, "{name}: more than ¾ full");
            // Linear probing at ¾ load steps over ~1.3 residents per key
            // seated when the hash spreads them; a quarter of the budget is
            // already far outside that.
            assert!(
                steps * 4 < budget,
                "{name}: {steps} probe steps seating {} keys (budget {budget})",
                keys.len()
            );
        }
    }

    /// Lookup keys over `vocabulary`: its keys, unseen neighbours of them
    /// (one byte more or one char fewer, so their probes run over the keys'
    /// own slots), unseen non-ASCII keys, and a second copy of a prefix of
    /// the lot.
    fn keys_over(vocabulary: &KeyArena, seed: u64) -> KeyScratch {
        let mut next = rng(seed);
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..3 * vocabulary.len() {
            let key = vocabulary.get((next() % vocabulary.len() as u64) as u32);
            keys.push(match next() % 4 {
                0 => format!("{key}q"),
                1 => key.chars().skip(1).collect(),
                _ => key.to_owned(),
            });
        }
        keys.extend(["straße", "σοφός", "i\u{307}stanbul", "müller", "é"].map(String::from));
        let repeats = keys[..keys.len() / 4].to_vec();
        keys.extend(repeats);
        batch_of(keys.iter().map(String::as_str))
    }

    /// Seats `vocabulary` under `hash` and looks `batch`, its keys carrying
    /// that hash, up as one batch: every answer must be the per-key probe's
    /// and a hash map's. Returns the hits and the misses.
    fn batch_agrees(
        vocabulary: &KeyArena,
        mut batch: KeyScratch,
        hash: impl Fn(&[u8]) -> u64,
    ) -> (usize, usize) {
        let (table, _) = KeyTable::seat_with(vocabulary, u64::MAX, &hash).unwrap();
        let oracle: FxHashMap<&str, u32> =
            vocabulary.ids().map(|id| (vocabulary.get(id), id)).collect();
        batch.hashes = batch.iter().map(|key| hash(key.as_bytes())).collect();
        let mut found = Vec::new();
        table.lookup_all(vocabulary, &batch, &mut found);
        assert_eq!(found.len(), batch.len());
        for (key, &id) in batch.iter().zip(&found) {
            assert_eq!(id, table.probe(vocabulary, key.as_bytes(), hash(key.as_bytes())).ok());
            assert_eq!(id, oracle.get(key).copied(), "{key:?}");
        }
        assert_eq!(table.probe(vocabulary, b"", hash(b"")).ok(), None);
        let hits = found.iter().flatten().count();
        (hits, found.len() - hits)
    }

    #[test]
    fn the_batch_lookup_is_the_per_key_probe_under_any_hash() {
        // A d2c-shaped vocabulary: the served Clean-Clean collection at a
        // fortieth of its size.
        let vocabulary = generated_vocabulary(er_datagen::presets::d2c(29), 40);
        assert!(vocabulary.len() > 2_000, "{} keys", vocabulary.len());
        let keys = keys_over(&vocabulary, 0xBA7C);
        let n = keys.len();
        let (hits, misses) = batch_agrees(&vocabulary, keys, key_hash);
        assert!(hits > n / 2 && misses > n / 8, "{hits} hits, {misses} misses");

        // Under a hash with one value every slot carries the one tag and
        // every key the one home, so the table is a single probe run that
        // only the byte compares can resolve. A smaller vocabulary keeps
        // the quadratic walk short.
        let few = arena_of(vocabulary.iter().take(600));
        let keys = keys_over(&few, 0xC0115);
        let (hits, misses) = batch_agrees(&few, keys, |_| 0x9E37_79B9_7F4A_7C15);
        assert!(hits > 0 && misses > 0);
    }

    #[test]
    fn a_seated_arena_answers_as_the_interner_that_numbered_it() {
        // A vocabulary numbered batch by batch, as a build numbers one, then
        // seated as a load seats it: a table of another length (`V + V/3 +
        // 1`, not a power of two) and so another slot layout.
        let mut next = rng(0x5EA7);
        let (mut interner, mut batch, mut ids) = (TokenInterner::new(), KeyScratch::new(), vec![]);
        for _ in 0..3_000 {
            batch.clear();
            for _ in 0..=next() % 32 {
                let start = batch.begin();
                batch.push_str(&zipf_key(&mut next, 30_000));
                batch.commit(start);
            }
            interner.intern_all(&batch, &mut ids).unwrap();
        }
        let keys = interner.keys().clone();
        let seated = KeyTable::seat(&keys).unwrap();
        assert_ne!(seated.slots.len(), interner.table.slots.len());

        // Every key, and near misses of them, looked up as a batch and one
        // at a time: the two tables give the same answers.
        let near = keys_over(&keys, 0x5EA8);
        let (mut by_seated, mut by_interner) = (vec![], vec![]);
        seated.find_all(&keys, &near, &mut by_seated);
        interner.table.find_all(interner.keys(), &near, &mut by_interner);
        assert_eq!(by_seated, by_interner);
        let (hits, mut grown) = (by_seated.iter().flatten().count(), keys.len() as u32);
        assert!(hits > near.len() / 3 && hits < near.len(), "{hits} of {}", near.len());
        // Interning them answers the same: a hit keeps its id, a miss is new.
        for (key, &id) in near.iter().zip(&by_seated) {
            assert_eq!(id, seated.find(&keys, key.as_bytes()), "{key:?}");
            let interned = interner.intern(key).unwrap();
            match id {
                Some(id) => assert_eq!(interned, id, "{key:?}"),
                None if interned == grown => grown += 1,
                // A miss repeated in the batch, interned at its first occurrence.
                None => assert!((keys.len() as u32..grown).contains(&interned), "{key:?}"),
            }
        }
    }

    /// A value of 0..6 words — mixed-case ASCII, digits, `İ`, final sigma,
    /// `straße` — joined by runs of ASCII and non-ASCII separators, which
    /// may also lead and trail; about half the values are all ASCII.
    fn seeded_value(next: &mut impl FnMut() -> u64) -> String {
        const ASCII_WORDS: [&str; 8] = ["Jack", "MILLER", "car", "42", "x9", "0123", "Vendor", "a"];
        const OTHER_WORDS: [&str; 6] = ["İstanbul", "ΣΟΦΟΣ", "Σοφός", "straße", "Müller", "É"];
        const ASCII_SEPS: [&str; 7] = [" ", "-", ", ", "...", "\t", "/", "__"];
        const OTHER_SEPS: [&str; 2] = ["\u{a0}", " — "];
        let ascii = next() & 1 == 0;
        let sep = |pick: u64| {
            let pick = pick as usize;
            if ascii || pick & 3 != 0 {
                ASCII_SEPS[(pick >> 2) % ASCII_SEPS.len()]
            } else {
                OTHER_SEPS[(pick >> 2) % OTHER_SEPS.len()]
            }
        };
        let mut value = String::new();
        if next() & 3 == 0 {
            value.push_str(sep(next()));
        }
        for w in 0..next() % 7 {
            if w > 0 {
                for _ in 0..=next() % 2 {
                    value.push_str(sep(next()));
                }
            }
            let pick = next() as usize;
            value.push_str(if ascii || pick & 1 == 0 {
                ASCII_WORDS[(pick >> 1) % ASCII_WORDS.len()]
            } else {
                OTHER_WORDS[(pick >> 1) % OTHER_WORDS.len()]
            });
        }
        if next() & 3 == 0 {
            value.push_str(sep(next()));
        }
        value
    }

    #[test]
    fn fill_tokens_is_the_token_stream_of_every_value() {
        // Mixed case whose lowercase is longer than one char (`İ` → `i̇`),
        // final sigma, punctuation-only and empty values, and tokens that
        // repeat within a value and across attributes.
        let mut profiles = vec![
            EntityProfile::new("awkward")
                .with("name", "İstanbul ISTANBUL istanbul ΣΟΦΟΣ")
                .with("noise", "--- ... !!!")
                .with("empty", "")
                .with("again", "Σοφός, İSTANBUL; straße/STRASSE")
                .with("name", "42 MILLER-42 miller"),
            EntityProfile::new("nothing").with("a", "").with("b", " \t-"),
            EntityProfile::new("bare"),
        ];
        let mut next = rng(0x70C5);
        for n in 0..2_000 {
            let mut profile = EntityProfile::new(format!("seeded{n}"));
            for a in 0..next() % 5 {
                profile = profile.with(format!("a{a}"), seeded_value(&mut next));
            }
            profiles.push(profile);
        }
        let mut scratch = KeyScratch::new();
        for profile in &profiles {
            let expected: Vec<String> = profile.values().flat_map(tokens).collect();
            // Filled over whatever the previous profile left behind.
            scratch.fill_tokens(profile);
            assert!(scratch.iter().eq(expected.iter().map(String::as_str)), "{profile}");
            assert_eq!(scratch.len(), expected.len());
        }
        scratch.fill_tokens(&profiles[0]);
        assert!(scratch.iter().any(|t| t == "i\u{307}stanbul"), "multi-char lowercase kept");
        assert!(scratch.iter().any(|t| t == "σοφός"), "final sigma as to_lowercase has it");
        assert_eq!(scratch.iter().filter(|&t| t == "istanbul").count(), 2, "repeats kept");
    }

    #[test]
    fn key_hash_values_are_pinned() {
        // Any change to these changes every table's homes, and so the
        // interner's probe order; the vocabulary order it numbers does not
        // depend on them, but a served snapshot's token routes would.
        for (key, hash) in [
            ("", 0x0000_0000_0000_0000),
            ("a", 0xe045_6665_d3e6_0275),
            ("jack", 0x7a3d_f840_78b9_d6b2),
            ("miller", 0x747d_ffa4_f2b1_9e71),
            ("seller42", 0xaaa7_ad53_5553_89ef),
            ("straße", 0xec7e_f0ac_2c70_44ef),
            ("car-vendor-seller", 0xf357_6ba1_897c_9736),
            ("0123456789abcdefghij", 0xccfe_9080_f04f_5e7e),
        ] {
            assert_eq!(key_hash(key.as_bytes()), hash, "{key:?}");
        }
    }

    #[test]
    fn key_hash_is_the_byte_copy_hash_over_a_generated_vocabulary() {
        use crate::fxhash::tests::byte_copy_hash;
        let vocabulary = generated_vocabulary(er_datagen::presets::d2c(29), 40);
        assert!(vocabulary.len() > 2_000, "{} keys", vocabulary.len());
        let mut lengths = std::collections::BTreeSet::new();
        for key in vocabulary.iter() {
            assert_eq!(key_hash(key.as_bytes()), byte_copy_hash(key.as_bytes()), "{key:?}");
            lengths.insert(key.len());
        }
        // The generator's tokens are 3 to 9 bytes; the seeded bytes of the
        // hasher's own test cover every length to 40.
        assert!(lengths.len() >= 5, "lengths {lengths:?}");
    }

    #[test]
    fn the_word_compare_is_byte_equality() {
        let base: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=40 {
            let a = &base[..len];
            let copy = a.to_vec();
            assert!(same_key(a, &copy), "len {len}");
            // One byte flipped at each position in turn, every bit of it.
            for at in 0..len {
                for bit in 0..8 {
                    let mut b = a.to_vec();
                    b[at] ^= 1 << bit;
                    assert_eq!(same_key(a, &b), a == b.as_slice(), "len {len} at {at} bit {bit}");
                }
            }
            // A prefix or an extension is another key, zero bytes included.
            let mut longer = a.to_vec();
            longer.push(0);
            assert!(!same_key(a, &longer) && !same_key(&longer, a), "len {len}");
        }
    }

    #[test]
    fn fill_tokens_cuts_at_every_offset_of_a_word_with_any_ascii_separator() {
        // Two runs of mixed case and digits, each 1..=17 bytes, led by 0..8
        // separators, so runs start and end at every offset of an 8-byte
        // word and straddle its boundaries; every ASCII byte takes the
        // separator's place, including those that are alphanumeric and so
        // join the runs.
        const RUN: &[u8] = b"aB3xYz09QwErTy7Uk";
        let mut scratch = KeyScratch::new();
        let mut checked = 0;
        for sep in 0u8..=0x7f {
            let sep = char::from(sep);
            for lead in 0..8 {
                for len in 1..=RUN.len() {
                    let run = std::str::from_utf8(&RUN[..len]).unwrap();
                    let second = std::str::from_utf8(&RUN[RUN.len() - len..]).unwrap();
                    let gap = 1 + (lead + len) % 3;
                    let pad = |n: usize| sep.to_string().repeat(n);
                    let value = format!("{}{run}{}{second}{}", pad(lead), pad(gap), pad(lead % 2));
                    let profile = EntityProfile::new("p").with("v", &value);
                    scratch.fill_tokens(&profile);
                    let expected: Vec<String> = tokens(&value).collect();
                    assert!(
                        scratch.iter().eq(expected.iter().map(String::as_str)),
                        "sep {sep:?} value {value:?}: {:?}",
                        scratch.iter().collect::<Vec<_>>()
                    );
                    for (index, key) in scratch.iter().enumerate() {
                        assert_eq!(scratch.hashes[index], key_hash(key.as_bytes()), "{key:?}");
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 128 * 8 * RUN.len());
    }

    #[test]
    fn key_scratch_drops_empty_keys_and_supports_ranges() {
        let mut s = KeyScratch::new();
        let start = s.begin();
        s.commit(start); // nothing appended -> dropped
        assert!(s.is_empty());
        let start = s.begin();
        s.push_str("seller");
        s.commit(start);
        // Alias a window of "seller" as its own key.
        s.push_range(start, start + 3);
        let keys: Vec<&str> = s.iter().collect();
        assert_eq!(keys, ["seller", "sel"]);
        assert_eq!(s.get(1), "sel");
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.end(), 0);
        assert_eq!(s.buf(), "");
    }

    #[test]
    fn key_scratch_push_display_builds_prefixed_keys() {
        let mut s = KeyScratch::new();
        let start = s.begin();
        s.push_display(7usize);
        s.push_str("\u{1}");
        s.push_lowercase("Green");
        s.commit(start);
        assert_eq!(s.iter().next(), Some("7\u{1}green"));
    }
}
