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
//! to back in a [`KeyArena`], one flat table of `u64` slots, lookups batched
//! per profile — and every downstream structure (blocks, token sets for
//! Jaccard matching) works on ids, never on strings.

use crate::fxhash::FxHasher;
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

/// Hash of a key's bytes; the slot table indexes by its top bits and keeps
/// its top half as the tag.
fn hash_key(key: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(key.as_bytes());
    h.finish()
}

/// Fewest slots a non-empty table has.
const MIN_SLOTS: u64 = 64;

/// Most slots a table can have: the stored 32-bit tag must still determine
/// a slot's home. Ids stop at `u32::MAX - 1`, so a slot always stays vacant.
const MAX_SLOTS: u64 = 1 << 32;

/// A key interner specialised for the blocking front-end: key → dense `u32`
/// in first-seen order.
///
/// Keys live in a [`KeyArena`]; the lookup structure is one flat
/// open-addressing table of `u64` slots, `0` for vacant and otherwise
/// `tag << 32 | id + 1`, where `tag` is the top half of the key's hash. A
/// slot's home index is the top bits of the hash — and so of the slot
/// itself — which lets the table grow by re-seating slots without reading a
/// single key byte. Probing is linear. A lookup therefore costs one cache
/// miss for the slot and, on a tag hit, one for the key bytes; a new key
/// costs an append, never an allocation of its own, and there is nothing to
/// drop per key.
///
/// Ids cannot be narrowed silently: growing past what a `u32` addresses is
/// an [`ArenaOverflow`].
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    keys: KeyArena,
    /// Empty or a power of two long, at most three quarters full.
    slots: Vec<u64>,
    /// [`TokenInterner::intern_all`]'s per-batch hashes, kept for reuse.
    hashes: Vec<u64>,
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
        self.reserve_slots(1);
        self.resolve(key, hash_key(key))
    }

    /// Interns the keys of `keys` — in any order, repeats allowed — and
    /// writes each distinct key's id to `ids` (cleared first) once: the ids
    /// of keys already interned in the order they first occur, then the new
    /// ones. Keys the interner lacks are numbered in the byte order of their
    /// text, so the ids, and the keys' order in the arena, are exactly what
    /// one [`TokenInterner::intern`] call per key of the batch sorted and
    /// deduplicated would give.
    ///
    /// A lookup is a chain of dependent cache misses (slot, then offsets,
    /// then key bytes), and looked up one key at a time the chains run back
    /// to back. Here the whole batch is hashed first, then a loop that does
    /// nothing else loads every key's home slot and, where the tag matches,
    /// the last byte of the stored key. Those loads are independent of each
    /// other, so the processor overlaps their misses; the read-only lookup
    /// pass that follows finds its lines in cache. A found key is written
    /// unless its id already carries this batch's stamp; a missing one is
    /// set aside. Only the misses are then sorted by bytes and deduplicated,
    /// table room is reserved for them alone — after the lookups, so the
    /// slots cannot move between the touch and the lookups — and they are
    /// inserted in that order, each from the vacant slot its lookup ended
    /// on unless the reservation moved the table.
    pub fn intern_all(
        &mut self,
        keys: &KeyScratch,
        ids: &mut Vec<u32>,
    ) -> Result<(), ArenaOverflow> {
        ids.clear();
        if keys.is_empty() {
            return Ok(());
        }
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.clear();
        hashes.extend(keys.iter().map(hash_key));
        let mut misses = std::mem::take(&mut self.misses);
        misses.clear();

        if self.slots.is_empty() {
            // Every key is new; the reservation below creates the table, so
            // the slot half goes unused.
            misses.extend((0..keys.len()).map(|index| (index, 0)));
        } else {
            let shift = self.home_shift();
            let mut touched = 0u8;
            for &hash in &hashes {
                let slot = self.slots[(hash >> shift) as usize];
                if slot != 0 && slot >> 32 == hash >> 32 {
                    // The slot's low half is `id + 1`, the index of the key's end.
                    let end = self.keys.offsets[slot as u32 as usize] as usize;
                    if let Some(&last) = self.keys.text.as_bytes().get(end.wrapping_sub(1)) {
                        touched ^= last;
                    }
                }
            }
            // The loads above are the point; keep them from being optimised out.
            std::hint::black_box(touched);

            self.stamps.resize(self.keys.len(), 0);
            self.batch = self.batch.checked_add(1).unwrap_or_else(|| {
                self.stamps.fill(0);
                1
            });
            for (index, (key, &hash)) in keys.iter().zip(&hashes).enumerate() {
                match self.probe(key.as_bytes(), hash) {
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
        }

        let bytes = |index: usize| -> &[u8] {
            let (start, end) = keys.spans[index];
            &keys.buf.as_bytes()[start..end]
        };
        misses.sort_unstable_by(|&(a, _), &(b, _)| bytes(a).cmp(bytes(b)));
        misses.dedup_by(|a, b| bytes(a.0) == bytes(b.0));
        let moved = self.reserve_slots(misses.len());
        let shift = self.home_shift();
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
            let from = if moved { (hash >> shift) as usize } else { vacant };
            ids.push(self.insert(key(index), hash, from)?);
            Ok(())
        });
        #[cfg(feature = "sanitize")]
        if result.is_ok() {
            self.sanitize_batch(ids, found, first_new);
        }
        self.hashes = hashes;
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

    /// How far to shift a hash (or a slot) right to get its home index.
    /// Only meaningful on a non-empty table.
    fn home_shift(&self) -> u32 {
        64 - self.slots.len().trailing_zeros()
    }

    /// Makes room for `extra` more keys at no more than three quarters
    /// load, growing the table at most once; says whether it did.
    fn reserve_slots(&mut self, extra: usize) -> bool {
        let keys = (self.keys.len() as u64).saturating_add(extra as u64);
        if keys.saturating_mul(4) <= (self.slots.len() as u64).saturating_mul(3) {
            return false;
        }
        let len = keys
            .saturating_add(keys / 3 + 1)
            .checked_next_power_of_two()
            .map_or(MAX_SLOTS, |len| len.clamp(MIN_SLOTS, MAX_SLOTS));
        // A length past the address space fails in the allocation below,
        // like any other oversized `Vec`.
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len == self.slots.len() {
            return false;
        }
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        let (shift, mask) = (self.home_shift(), len - 1);
        for slot in old {
            if slot != 0 {
                let mut i = (slot >> shift) as usize;
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = slot;
            }
        }
        true
    }

    /// The one lookup routine: `Ok(id)` if `key` is interned, else
    /// `Err(slot)`, the vacant slot its probe ended on. The table must not
    /// be empty.
    fn probe(&self, key: &[u8], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut i = (hash >> self.home_shift()) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            if slot >> 32 == tag {
                let id = slot as u32 - 1;
                if self.keys.bytes(id) == key {
                    return Ok(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The one lookup-or-insert routine. The caller has reserved a slot.
    fn resolve(&mut self, key: &str, hash: u64) -> Result<u32, ArenaOverflow> {
        self.probe(key.as_bytes(), hash).or_else(|vacant| self.insert(key, hash, vacant))
    }

    /// Appends `key`, which the table lacks, and seats it in the first
    /// vacant slot from `from` on — a slot of its probe run with only
    /// occupied slots between it and the key's home. The caller has
    /// reserved a slot.
    fn insert(&mut self, key: &str, hash: u64, mut from: usize) -> Result<u32, ArenaOverflow> {
        let mask = self.slots.len() - 1;
        while self.slots[from] != 0 {
            from = (from + 1) & mask;
        }
        let (id, tag) = (self.keys.push(key)?, hash >> 32);
        self.slots[from] = tag << 32 | (u64::from(id) + 1);
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
#[derive(Debug, Default)]
pub struct KeyScratch {
    buf: String,
    spans: Vec<(usize, usize)>,
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
    /// stay behind in the buffer. Any other value goes token by token
    /// through [`push_lowercase`].
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
            let mut run = base;
            for (at, byte) in (base..).zip(value.bytes()) {
                if !byte.is_ascii_alphanumeric() {
                    if at > run {
                        self.spans.push((run, at));
                    }
                    run = at + 1;
                }
            }
            if self.buf.len() > run {
                self.spans.push((run, self.buf.len()));
            }
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

    /// Commits the key begun at `start`. Keys that received no text are
    /// dropped, mirroring the `filter(|k| !k.is_empty())` of the old path.
    pub fn commit(&mut self, start: usize) {
        if self.buf.len() > start {
            self.spans.push((start, self.buf.len()));
        }
    }

    /// Records `[start, end)` of the backing buffer as an additional key.
    /// Q-gram windows use this to share their token's bytes.
    pub fn push_range(&mut self, start: usize, end: usize) {
        debug_assert!(start < end && end <= self.buf.len());
        self.spans.push((start, end));
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
        let small = i.slots.len();
        let mut scratch = KeyScratch::new();
        for n in 0..5000 {
            let start = scratch.begin();
            scratch.push_display(n % 4990); // the last ten repeat the first
            scratch.commit(start);
        }
        let mut ids = Vec::new();
        i.intern_all(&scratch, &mut ids).unwrap();
        assert!(i.slots.len() > small * 16);
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
        assert!(i.slots.iter().filter(|&&s| s != 0).count() == i.len());
        assert!(i.len() * 4 <= i.slots.len() * 3);
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
