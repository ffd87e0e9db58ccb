//! The snapshot loader: the one way bytes become a queryable index.
//!
//! [`SnapshotView`] holds one loaded byte buffer and *borrows* every
//! persisted array — the CSR member pool and block offsets, the token
//! offset table and blob, the block keys — straight out of it as
//! [`er_model::U32s::Le`] views. Nothing persisted is re-encoded into
//! `Vec`s: load cost is the file read, the section-table parse, one
//! checksum sweep, the linear structural passes below, and the few tables
//! load derives (see "What load derives"). A freshly built
//! [`crate::Snapshot`] takes the same route (`SnapshotView::try_from`
//! encodes it once and loads the bytes), so a served index has exactly one
//! in-memory representation and one set of checks behind it.
//!
//! Validation is staged for speed: the `meta` checksum is verified first
//! (it gates every downstream decision), then the remaining checksums and
//! two structural walks — blocks, tokens — run as three mutually
//! independent passes, on scoped threads for large buffers on multi-core
//! hosts ([`PARALLEL_LOAD_BYTES`]) and serially otherwise. Every pass is
//! panic-free on arbitrary bytes, so none needs another's verdict; the view
//! just isn't constructed unless all of them accept. The member pool is
//! checked by a two-count reconciliation (see [`descents_and_max`])
//! instead of a run-by-run compare chain, which keeps the hot loop
//! vectorizable.
//!
//! # What load validates
//!
//! Everything the query path relies on for memory safety and bit-identical
//! answers:
//!
//! - header, canonical section table, 8-byte alignment, and every wide
//!   checksum (which covers all payload bytes);
//! - the `meta` scalars and the embedded pipeline configuration;
//! - block offsets: starting at 0, monotone, ending at the member pool's
//!   end; the recomputed `‖B‖` (from the derived splits) and `Σ|b|`
//!   matching the persisted ones;
//! - every member id below `|E|`, and every block's run strictly ascending
//!   (a Clean-Clean run is side 1 < split ≤ side 2, so this holds for both
//!   kinds);
//! - token offsets strictly ascending over the blob, the blob valid UTF-8
//!   with every token offset on a character boundary, the vocabulary
//!   duplicate-free (proved while seating it into the lookup table, see
//!   below), block keys in range and duplicate-free;
//! - the persisted CNP/CEP thresholds re-derived from the verified
//!   aggregates;
//! - trailing delta runs: decoded and replay-validated against `|E|`.
//!
//! # What load derives
//!
//! Nothing the blocks determine is persisted, so load derives it, owned,
//! from the validated sections:
//!
//! - each block's side split: the partition point of its ascending run at
//!   the collection split for Clean-Clean, the run's end for Dirty;
//! - the entity index: the arena inverted by
//!   [`er_model::EntityIndex::from_arena`], the routine
//!   [`er_model::EntityIndex::build`] runs, so a loaded index is the built
//!   one by construction and there is nothing to cross-check. Its two
//!   `|E|`-sized tables are the one allocation sized by a declared number
//!   that no section bounds, so they are reserved fallibly: a population the
//!   process cannot index is a typed error, not an abort;
//! - the token → id lookup table and the token → block routes, below.
//!
//! # Token lookup
//!
//! Two things load *builds* rather than borrows, both for the probe path
//! and both while proving the section they are built from duplicate-free:
//! the token-id → surviving-block routes (the `blockkeys` section inverted,
//! 4 B per token; every engine and every delta apply over this view reads
//! that one table) and the token → id table
//! behind [`SnapshotView::find_token`]: a flat open-addressing array of
//! `u64` slots, `0` vacant and otherwise `tag << 32 | id + 1`, where `tag`
//! is the top half of the token's hash — the slot format of
//! `er_model::tokenize::TokenInterner`. It is at most ¾ full, sized from the
//! token count ([`token_table_slots`], ≈ 10.7 B per token) with a
//! multiply-shift home, so no power-of-two rounding. A lookup is one hash
//! and a short linear probe; an occupied slot costs a tag compare, and only
//! a tag hit reads the token's offsets and bytes. Nothing about the table
//! is persisted, so the format pins no hash function. Seating a token walks
//! its probe run, comparing bytes where the tags agree, which is where a
//! repeated token is caught; and because the hash (FxHash) is not
//! collision-resistant, the build counts its probe steps against a budget
//! proportional to the token count ([`PROBE_STEPS_PER_TOKEN`]): a
//! vocabulary crafted to collide is a typed error after linear work, never
//! a quadratic load or a slow lookup.
//!
//! A probe or an upsert looks its profile's keys up as one batch
//! ([`SnapshotView::find_tokens`]), in three passes: hash every key; in a
//! loop that does nothing else, load each home slot and, on a tag hit, that
//! id's end offset and route — loads independent of each other, so their
//! misses overlap; then resolve each key in order through the probe
//! [`SnapshotView::find_token`] runs, which finds its lines in cache. The
//! keys go in as the tokenizer committed them, repeats included: neither
//! caller byte-sorts a profile's keys, only the few it has to order.

use crate::codec::Reader;
use crate::delta::{decode_delta_run, validate_delta_runs, DeltaOp};
use crate::error::SnapshotError;
use crate::snapshot::{
    decode_meta, label, parse_table, section_slice, verify_checksums, SectionEntry, Snapshot,
    SECTIONS, SECTION_BLOCKKEYS, SECTION_MEMBERS, SECTION_META, SECTION_OFFSETS, SECTION_TOK_BLOB,
    SECTION_TOK_OFFSETS,
};
use er_model::fxhash::FxHasher;
use er_model::tokenize::KeyScratch;
use er_model::{EntityIndex, ErKind, U32s};
use mb_core::prune::{cep_threshold_from_counts, cnp_threshold_from_counts};
use mb_core::PipelineConfig;
use mb_observe::{Observer, Stage, StageScope};
use std::hash::Hasher;
use std::path::Path;

/// A borrowed `u32` array inside the loaded buffer: absolute byte start of
/// the packed values (past the count prefix) plus the element count.
#[derive(Debug, Clone, Copy)]
struct U32Range {
    start: usize,
    count: usize,
}

/// A borrowed byte string inside the loaded buffer.
#[derive(Debug, Clone, Copy)]
struct ByteRange {
    start: usize,
    len: usize,
}

/// A loaded, fully validated snapshot: one owned byte buffer, borrowed
/// arrays, and the tables load derives from them.
///
/// Constructed by [`SnapshotView::from_bytes`] / [`SnapshotView::read_from`]
/// (or `SnapshotView::try_from` a built [`Snapshot`]); see the module docs
/// for what a successful load guarantees.
#[derive(Debug)]
pub struct SnapshotView {
    buf: Vec<u8>,
    kind: ErKind,
    num_entities: usize,
    split: usize,
    num_blocks: usize,
    num_tokens: usize,
    config: PipelineConfig,
    cnp_threshold: usize,
    cep_threshold: usize,
    total_comparisons: u64,
    total_assignments: u64,
    members: U32Range,
    offsets: U32Range,
    /// Each block's absolute side split, derived at load (`== hi` for
    /// Dirty).
    splits: Vec<u32>,
    /// The arena inverted at load.
    index: EntityIndex,
    tok_offsets: U32Range,
    tok_blob: ByteRange,
    /// The token → id lookup table, built at load ([`seat_tokens`]).
    tok_table: Vec<u64>,
    /// Token id → the surviving block keyed by it, `u32::MAX` when that
    /// block was filtered away (or never emitted): `block_keys` inverted,
    /// once, at load.
    tok_block: Vec<u32>,
    block_keys: U32Range,
    /// Write-ahead delta runs decoded (owned — they are small) from the
    /// trailing `delta` sections; empty for clean snapshots.
    delta_runs: Vec<Vec<DeltaOp>>,
}

/// Buffers at least this large run the checksum sweep and the structural
/// walks on scoped threads (they are mutually independent) when the host
/// has more than one core; below it the passes run serially, keeping
/// thread-spawn overhead away from small snapshots.
const PARALLEL_LOAD_BYTES: usize = 1 << 18;

fn bad(msg: String) -> SnapshotError {
    SnapshotError::Inconsistent(msg)
}

/// The little-endian `u32` elements of a packed section payload, in order.
///
/// The hot validation loops below iterate raw byte slices through this
/// instead of per-element [`U32s::get`] so the walks carry no per-element
/// bounds checks — `chunks_exact` proves the access pattern up front.
#[inline]
fn le_words(b: &[u8]) -> impl Iterator<Item = u32> + '_ {
    b.chunks_exact(4).map(le4)
}

/// One little-endian `u32` from a 4-byte `chunks_exact` chunk.
#[inline]
fn le4(c: &[u8]) -> u32 {
    // lint:allow(snapshot-unversioned-read) decoding a checksum-verified,
    // length-validated section payload below the framing layer.
    u32::from_le_bytes([c[0], c[1], c[2], c[3]])
}

/// Number of leading words of the packed run `b` below `bound`, by binary
/// search: the partition point if the run ascends, some count in
/// `0..=len` otherwise.
fn partition_below(b: &[u8], bound: u32) -> usize {
    let (mut lo, mut hi) = (0, b.len() / 4);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match b.get(mid * 4..mid * 4 + 4) {
            Some(w) if le4(w) < bound => lo = mid + 1,
            _ => hi = mid,
        }
    }
    lo
}

/// Number of descending adjacent pairs (`v[p] <= v[p-1]`) and the maximum
/// value over a packed `u32` pool, in one flat pass.
///
/// This is the vectorizable half of the CSR run validation: iterating the
/// pool and a 4-byte-shifted copy of itself in lockstep leaves no
/// loop-carried scalar dependency, so the compiler turns the descent count
/// and the max into SIMD reductions — an order of magnitude faster than
/// walking the pool run by run with an early-exit compare chain. The caller
/// separately counts how many descents are *expected* (one per run boundary
/// that happens to descend) and accepts the pool iff the two counts match:
/// descents can then only sit at run starts, which makes every run interior
/// strictly ascending. An empty pool reports `(0, 0)`.
#[inline]
fn descents_and_max(b: &[u8]) -> (u32, u32) {
    if b.len() < 8 {
        return (0, if b.len() >= 4 { le4(&b[..4]) } else { 0 });
    }
    let mut d = 0u32;
    let mut max = 0u32;
    // lint:allow(panic-reachability) in range: b.len() >= 8 checked above.
    for (a, c) in b[..b.len() - 4].chunks_exact(4).zip(b[4..].chunks_exact(4)) {
        let v = le4(c);
        d += (v <= le4(a)) as u32;
        max = max.max(v);
    }
    (d, max.max(le4(&b[..4])))
}

/// Probe steps the token-table build may spend per token before it gives
/// up. A well-spread vocabulary at the table's ¾ ceiling spends about 1.3
/// (the unit test measures it on generated vocabularies of both benchmark
/// shapes); tokens that all share one home spend `tokens / 2` each.
const PROBE_STEPS_PER_TOKEN: u64 = 16;

/// Slot count of the lookup table for `tokens` tokens: at most ¾ full, and
/// never full — there is always a vacant slot to end a probe on.
fn token_table_slots(tokens: usize) -> usize {
    tokens + tokens / 3 + 1
}

/// FxHash over the token bytes. Its last step is a multiply, so the high
/// bits — the ones [`table_home`] reads — depend on every input byte.
#[inline]
pub(crate) fn token_hash(token: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(token);
    h.finish()
}

/// The slot a hash starts probing at: multiply-shift onto `0..slots`, which
/// needs no power-of-two table. `slots` must be nonzero.
#[inline]
fn table_home(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// The table slot of token `id` under `hash`: the hash's top half as a tag
/// over `id + 1`, so no occupied slot is `0`.
#[inline]
fn slot_of(id: u32, hash: u64) -> u64 {
    hash >> 32 << 32 | (u64::from(id) + 1)
}

/// Whether an occupied `slot` carries the tag of `hash`.
#[inline]
fn same_tag(slot: u64, hash: u64) -> bool {
    slot >> 32 == hash >> 32
}

/// Seats every token of a validated offset table + blob into a fresh
/// open-addressing table of `slots` entries (`0` vacant, else
/// [`slot_of`]; linear probing from [`table_home`]) and returns it with the
/// number of occupied slots the build stepped over.
///
/// Each step over a resident with the same tag compares the two tokens, so
/// two equal tokens are an [`SnapshotError::Inconsistent`] here. The table
/// size, the step budget and the hash are arguments so a test can drive the
/// failure paths directly; the loader passes [`token_table_slots`],
/// [`PROBE_STEPS_PER_TOKEN`] per token and [`token_hash`]. `offsets_le`
/// must be ascending and end at `blob.len()`, and `slots` must exceed the
/// token count — [`SnapshotView::from_bytes`] proves the first and computes
/// the second.
///
/// Tokens go in chunks of [`SEAT_CHUNK`]: a chunk is hashed, then a loop
/// that does nothing else loads each token's home slot and, on a tag hit,
/// the resident's end offset — the loads the seating probe would otherwise
/// take one dependent miss at a time — and then the chunk is seated in id
/// order.
fn seat_tokens(
    offsets_le: &[u8],
    blob: &[u8],
    slots: usize,
    budget: u64,
    hash: impl Fn(&[u8]) -> u64,
) -> Result<(Vec<u64>, u64), SnapshotError> {
    let mut table = vec![0u64; slots];
    let mut steps = 0u64;
    let mut bounds = le_words(offsets_le).map(|at| at as usize);
    let mut lo = bounds.next().unwrap_or(0);
    // Each token of the chunk in hand, with its hash.
    let mut chunk: [(&[u8], u64); SEAT_CHUNK] = [(&[], 0); SEAT_CHUNK];
    let mut first_id = 0usize;
    loop {
        let mut len = 0usize;
        for (entry, hi) in chunk.iter_mut().zip(bounds.by_ref()) {
            // lint:allow(panic-reachability) in range: the caller proved the
            // offsets ascending and bounded by the blob length.
            let token = &blob[lo..hi];
            *entry = (token, hash(token));
            lo = hi;
            len += 1;
        }
        if len == 0 {
            break;
        }
        let mut touched = 0u8;
        for &(_, h) in chunk.iter().take(len) {
            if let Some(&resident) =
                table.get(table_home(h, slots)).filter(|&&r| r != 0 && same_tag(r, h))
            {
                // A resident's low half is `id + 1`, the index of its token's
                // end offset.
                touched ^= offsets_le.get(resident as u32 as usize * 4).copied().unwrap_or(0);
            }
        }
        // The loads above are the point; keep them from being optimised out.
        std::hint::black_box(touched);
        for (id, &(token, h)) in (first_id..).zip(chunk.iter().take(len)) {
            let mut at = table_home(h, slots);
            loop {
                // lint:allow(panic-reachability) in range: `table_home` returns
                // a slot below `slots`, and the step below wraps there.
                let resident = table[at];
                if resident == 0 {
                    break;
                }
                steps += 1;
                if steps > budget {
                    return Err(bad(format!(
                        "the vocabulary's tokens collide: seating {} of them took more than \
                         {budget} probe steps",
                        id + 1
                    )));
                }
                if same_tag(resident, h) {
                    let r = (resident as u32 - 1) as usize * 4;
                    // lint:allow(panic-reachability) in range: a resident is an
                    // id seated earlier, so its two offsets exist and bracket a
                    // token.
                    let (ra, rb) = (le4(&offsets_le[r..r + 4]), le4(&offsets_le[r + 4..r + 8]));
                    // lint:allow(panic-reachability) in range: as above.
                    if blob[ra as usize..rb as usize] == *token {
                        return Err(bad(format!(
                            "tokens {} and {id} are the same string: the vocabulary must be \
                             duplicate-free",
                            resident as u32 - 1
                        )));
                    }
                }
                at += 1;
                if at == slots {
                    at = 0;
                }
            }
            // lint:allow(panic-reachability) in range: see the probe above.
            table[at] = slot_of(id as u32, h);
        }
        first_id += len;
    }
    Ok((table, steps))
}

/// Tokens [`seat_tokens`] hashes, homes and touches together before seating
/// any of them: enough loads in flight to overlap their misses, few enough
/// to keep on the stack.
const SEAT_CHUNK: usize = 64;

/// The token → id table built at load, over the two sections it indexes.
struct TokenTable<'a> {
    /// `0` vacant, else [`slot_of`]; never full.
    slots: &'a [u64],
    /// The `tokoffsets` payload without its count prefix: ascending, ending
    /// at `blob.len()`.
    offsets_le: &'a [u8],
    blob: &'a [u8],
}

impl TokenTable<'_> {
    /// The bytes of a seated token id.
    fn token(&self, id: u32) -> &[u8] {
        let at = id as usize * 4;
        // lint:allow(panic-reachability) in range: a seated id has two
        // offsets, ascending and bounded by the blob length.
        let (a, b) = (le4(&self.offsets_le[at..at + 4]), le4(&self.offsets_le[at + 4..at + 8]));
        // lint:allow(panic-reachability) in range: as above.
        &self.blob[a as usize..b as usize]
    }

    /// The one lookup routine: a linear probe from `hash`'s home that reads
    /// a token's bytes only where its slot carries `hash`'s tag.
    #[inline]
    fn probe(&self, token: &[u8], hash: u64) -> Option<u32> {
        let slots = self.slots;
        let mut at = table_home(hash, slots.len());
        // The table is never full (`token_table_slots`), so the probe ends
        // at a vacant slot; a table with no vacant slot — unreachable —
        // would end it at `None` after one lap rather than spin.
        for _ in 0..slots.len() {
            // lint:allow(panic-reachability) in range: `table_home` returns
            // a slot below `slots.len()`, and the step below wraps there.
            let slot = slots[at];
            if slot == 0 {
                return None;
            }
            if same_tag(slot, hash) {
                let id = slot as u32 - 1;
                if self.token(id) == token {
                    return Some(id);
                }
            }
            at += 1;
            if at == slots.len() {
                at = 0;
            }
        }
        None
    }

    /// Looks every key of `keys` up, in commit order, into `lookup`, and
    /// returns what each resolved to. `routes` is the view's token → block
    /// table, touched beside the offsets.
    fn find_all<'b>(
        &self,
        keys: &KeyScratch,
        routes: &[u32],
        hash: impl Fn(&[u8]) -> u64,
        lookup: &'b mut TokenLookup,
    ) -> &'b [Option<u32>] {
        let TokenLookup { hashes, ids } = lookup;
        hashes.clear();
        hashes.extend(keys.iter().map(|key| hash(key.as_bytes())));
        let mut touched = 0u32;
        for &h in hashes.iter() {
            // lint:allow(panic-reachability) in range: `table_home` returns
            // a slot below `slots.len()`.
            let slot = self.slots[table_home(h, self.slots.len())];
            if slot != 0 && same_tag(slot, h) {
                // The low half is `id + 1`, the index of the token's end offset.
                let end = slot as u32 as usize;
                touched ^= u32::from(self.offsets_le.get(end * 4).copied().unwrap_or(0));
                touched ^= routes.get(end - 1).copied().unwrap_or(0);
            }
        }
        // The loads above are the point; keep them from being optimised out.
        std::hint::black_box(touched);
        ids.clear();
        ids.extend(keys.iter().zip(hashes.iter()).map(|(key, &h)| self.probe(key.as_bytes(), h)));
        ids
    }
}

/// The buffers [`SnapshotView::find_tokens`] works in — each key's hash,
/// then what it resolved to — kept from one profile to the next.
#[derive(Debug, Default)]
pub(crate) struct TokenLookup {
    hashes: Vec<u64>,
    ids: Vec<Option<u32>>,
}

/// A profile's keys and every buffer looking them up takes: what a probe
/// and an upsert fill, look up and sort the leftovers of, reused from one
/// profile to the next.
#[derive(Debug, Default)]
pub(crate) struct TokenScratch {
    /// The profile's keys, as [`KeyScratch::fill_tokens`] commits them.
    pub(crate) keys: KeyScratch,
    /// [`SnapshotView::find_tokens`]' buffers.
    pub(crate) lookup: TokenLookup,
    /// Indices into `keys` the caller sets aside for [`distinct_by_bytes`].
    pub(crate) aside: Vec<usize>,
}

/// Orders key indices by their keys' bytes and keeps the first of each run
/// of equal keys: the byte sort a caller of [`SnapshotView::find_tokens`]
/// pays only for the keys it has to number.
pub(crate) fn distinct_by_bytes(keys: &KeyScratch, indices: &mut Vec<usize>) {
    indices.sort_unstable_by(|&a, &b| keys.get(a).cmp(keys.get(b)));
    indices.dedup_by(|a, b| keys.get(*a) == keys.get(*b));
}

/// The one way a freshly built [`Snapshot`] becomes servable: encode it
/// once and run the one loader over the bytes.
impl TryFrom<Snapshot> for SnapshotView {
    type Error = SnapshotError;

    fn try_from(snapshot: Snapshot) -> Result<SnapshotView, SnapshotError> {
        let bytes = snapshot.to_bytes();
        // The built arrays are not needed past the encode; free them before
        // the load allocates its own scratch.
        drop(snapshot);
        SnapshotView::from_bytes(bytes)
    }
}

impl SnapshotView {
    /// Loads a snapshot from an owned buffer, borrowing its arrays in place.
    ///
    /// Never panics on malformed input; every failure is a typed
    /// [`SnapshotError`].
    pub fn from_bytes(buf: Vec<u8>) -> Result<SnapshotView, SnapshotError> {
        let table = parse_table(&buf, buf.len())?;
        let entry = |id: u32| -> &SectionEntry {
            // lint:allow(panic-reachability) in range: parse_table returned
            // the complete canonical table, where section id n sits at n-1.
            &table[(id - 1) as usize]
        };

        // The meta section gates everything downstream, so its checksum is
        // verified up front; the remaining section checksums are verified
        // alongside the structural walks below (all of which are panic-free
        // on arbitrary bytes — no walk *depends* on its section's checksum,
        // the view just isn't constructed unless every digest matches).
        verify_checksums(&buf, &table[..1])?;
        let meta = decode_meta(section_slice(&buf, entry(SECTION_META)))?;
        let n = meta.num_entities;
        if n > u32::MAX as usize {
            return Err(bad(format!("|E| = {n} exceeds the u32 id space")));
        }
        match meta.kind {
            ErKind::Dirty if meta.split != n => {
                return Err(bad(format!(
                    "Dirty snapshot must have split == |E|, got {} != {n}",
                    meta.split
                )));
            }
            ErKind::CleanClean if meta.split > n => {
                return Err(bad(format!("split {} exceeds |E| = {n}", meta.split)));
            }
            _ => {}
        }

        // Each array section is a u32 count (or byte length) prefix followed
        // by exactly that many packed values: the reader checks the declared
        // size against the payload, and only the in-buffer range is kept.
        let get = |id: u32| section_slice(&buf, entry(id));
        let u32_range = |id: u32, values: U32s<'_>| U32Range {
            start: entry(id).offset + 4,
            count: values.len(),
        };
        let mut r = Reader::new(get(SECTION_MEMBERS), label(SECTION_MEMBERS));
        let members = u32_range(SECTION_MEMBERS, r.u32s()?);
        r.finish()?;
        let mut r = Reader::new(get(SECTION_OFFSETS), label(SECTION_OFFSETS));
        let offsets = u32_range(SECTION_OFFSETS, r.u32s()?);
        r.finish()?;
        let mut r = Reader::new(get(SECTION_TOK_OFFSETS), label(SECTION_TOK_OFFSETS));
        let tok_offsets = u32_range(SECTION_TOK_OFFSETS, r.u32s()?);
        r.finish()?;
        let mut r = Reader::new(get(SECTION_TOK_BLOB), label(SECTION_TOK_BLOB));
        let tok_blob =
            ByteRange { start: entry(SECTION_TOK_BLOB).offset + 4, len: r.bytes()?.len() };
        r.finish()?;
        let mut r = Reader::new(get(SECTION_BLOCKKEYS), label(SECTION_BLOCKKEYS));
        let block_keys = u32_range(SECTION_BLOCKKEYS, r.u32s()?);
        r.finish()?;

        let raw = |r: U32Range| -> &[u8] {
            // lint:allow(panic-reachability) in range: the section reader
            // proved start + 4*count lies within the section payload.
            &buf[r.start..r.start + r.count * 4]
        };
        let view = |r: U32Range| -> U32s<'_> { U32s::Le(raw(r)) };

        // Blocks: bracketed, monotone, every run strictly ascending, and the
        // recomputed aggregate statistics matching the persisted ones — and
        // the two things load derives from them: each block's side split
        // and the entity index.
        let Some(num_blocks) = offsets.count.checked_sub(1) else {
            return Err(bad("block offsets section is empty".into()));
        };
        let check_blocks = || -> Result<(Vec<u32>, EntityIndex), SnapshotError> {
            let offs = view(offsets);
            if offs.get(0) != 0 {
                return Err(bad("block offsets must start at 0".into()));
            }
            if offs.last().unwrap_or(0) as usize != members.count {
                return Err(bad(format!(
                    "block offsets end at {}, member pool holds {} ids",
                    offs.last().unwrap_or(0),
                    members.count
                )));
            }
            let split_u32 = meta.split as u32;
            let n_u32 = n as u32;
            let mcount = members.count;
            // The walk reads `offs[1..]` over raw bytes, bounds-checking
            // each bracket as it goes, and counts the run starts whose
            // adjacent member pair descends. The pool itself is validated
            // afterwards by one vectorized [`descents_and_max`] pass: every
            // run is strictly ascending iff the pool's total descent count
            // equals the count tallied here.
            let (offs_b, mems_b) = (raw(offsets), raw(members));
            let mut splits = Vec::with_capacity(num_blocks);
            let mut comparisons: u64 = 0;
            let mut expected = 0u32;
            let mut lo = 0u32;
            for (k, hi) in le_words(&offs_b[4..]).enumerate() {
                if hi < lo || hi as usize > mcount {
                    return Err(bad(format!("block {k} bounds corrupt: lo {lo}, hi {hi}")));
                }
                let (l, h) = (lo as usize, hi as usize);
                if h > l && l != 0 {
                    // lint:allow(panic-reachability) in range: 0 < lo < hi
                    // <= members.count, proved by the bracket check above.
                    let w = &mems_b[(l - 1) * 4..(l + 1) * 4];
                    expected += (le4(&w[4..]) <= le4(&w[..4])) as u32;
                }
                let sp = match meta.kind {
                    ErKind::Dirty => {
                        let m = (hi - lo) as u64;
                        comparisons += m * m.saturating_sub(1) / 2;
                        hi
                    }
                    ErKind::CleanClean => {
                        // In an ascending run, the members below the split
                        // are exactly its prefix, found by binary search. A
                        // run that is not ascending gets some split here and
                        // fails the descent count below.
                        let run = mems_b.get(l * 4..h * 4).unwrap_or_default();
                        let sp = lo + partition_below(run, split_u32) as u32;
                        comparisons += (sp - lo) as u64 * (hi - sp) as u64;
                        sp
                    }
                };
                splits.push(sp);
                lo = hi;
            }
            let (desc, max) = descents_and_max(mems_b);
            if desc != expected || (mcount > 0 && max >= n_u32) {
                return Err(bad(
                    "block members are out of range or not strictly ascending per block".into(),
                ));
            }
            if comparisons != meta.comparisons {
                return Err(bad(format!(
                    "persisted ‖B‖ {} disagrees with the collection ({comparisons})",
                    meta.comparisons
                )));
            }
            if members.count as u64 != meta.assignments {
                return Err(bad(format!(
                    "persisted Σ|b| {} disagrees with the member pool ({})",
                    meta.assignments, members.count
                )));
            }
            // Every member is below |E| and the offsets bracket the pool,
            // which is all the inversion asks of its input. Its two
            // |E|-sized tables are allocated fallibly: nothing in the file
            // bounds the |E| that meta declares.
            let index = EntityIndex::from_arena(n, view(members), offs).map_err(|_| {
                bad(format!("|E| = {n} is more entities than this process can index"))
            })?;
            Ok((splits, index))
        };

        // Token layout: strictly ascending offsets spanning the blob, the
        // blob UTF-8 with every token on character boundaries, block keys
        // in range and duplicate-free — and the two tables it hands back:
        // the vocabulary seated for lookup, which proves it duplicate-free,
        // and the block keys inverted into token → block routes.
        let check_tokens = || -> Result<(Vec<u64>, Vec<u32>), SnapshotError> {
            if tok_offsets.count == 0 {
                return Err(bad("token offsets section is empty".into()));
            }
            let num_tokens = tok_offsets.count - 1;
            let to = view(tok_offsets);
            if to.get(0) != 0 {
                return Err(bad("token offsets must start at 0".into()));
            }
            if to.last().unwrap_or(0) as usize != tok_blob.len {
                return Err(bad(format!(
                    "token offsets end at {}, blob holds {} bytes",
                    to.last().unwrap_or(0),
                    tok_blob.len
                )));
            }
            // The first offset is 0 (checked above), so strict ascension over
            // the whole table is the only remaining order constraint.
            if !to.is_strict_run(0, u32::MAX) {
                return Err(bad("token offsets must be strictly ascending".into()));
            }
            let blob = {
                // lint:allow(panic-reachability) in range: the section reader
                // proved start + len lies within the section payload.
                &buf[tok_blob.start..tok_blob.start + tok_blob.len]
            };
            let to_b = raw(tok_offsets);
            let utf8 = || SnapshotError::Utf8 { section: "tokblob" };
            let text = std::str::from_utf8(blob).map_err(|_| utf8())?;
            if !le_words(to_b).all(|at| text.is_char_boundary(at as usize)) {
                return Err(utf8());
            }
            let slots = token_table_slots(num_tokens);
            let budget = PROBE_STEPS_PER_TOKEN * num_tokens as u64;
            let (tok_table, _) = seat_tokens(to_b, blob, slots, budget, token_hash)?;
            if block_keys.count != num_blocks {
                return Err(bad(format!(
                    "{} block keys for {num_blocks} blocks",
                    block_keys.count
                )));
            }
            let mut tok_block = vec![u32::MAX; num_tokens];
            let (mut block, mut ok) = (0u32, true);
            view(block_keys).for_each(|t| {
                match tok_block.get_mut(t as usize) {
                    Some(route) if *route == u32::MAX => *route = block,
                    // Out of the vocabulary, or a token keying two blocks.
                    _ => ok = false,
                }
                block += 1;
            });
            if !ok {
                return Err(bad("block keys are out of range or reference a token twice".into()));
            }
            Ok((tok_table, tok_block))
        };

        // Run the three independent passes — remaining checksums plus the
        // two structural walks. On buffers past the parallel threshold
        // each runs on its own scoped thread; the `?`s below report any
        // failures in the serial order (checksums first), so a corrupt file
        // surfaces the same error either way.
        let parallel = buf.len() >= PARALLEL_LOAD_BYTES
            && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let (sums, blocks, tokens) = if parallel {
            std::thread::scope(|s| {
                let sums = s.spawn(|| verify_checksums(&buf, &table[1..]));
                let blocks = s.spawn(check_blocks);
                let tokens = check_tokens();
                // lint:allow(panic-reachability) join only fails if a walk
                // panicked, and every walk is panic-free on arbitrary bytes
                // lint:allow(no-panic) — the unwraps can only re-raise such
                // a panic, never originate one.
                (sums.join().unwrap(), blocks.join().unwrap(), tokens)
            })
        } else {
            (verify_checksums(&buf, &table[1..]), check_blocks(), check_tokens())
        };
        sums?;
        let (splits, index) = blocks?;
        let (tok_table, tok_block) = tokens?;
        let num_tokens = tok_offsets.count - 1;

        // Trailing delta runs: checksums were covered by the sweep above;
        // decode them owned (they are small) and replay-validate the ids.
        let mut delta_runs = Vec::new();
        // lint:allow(panic-reachability) in range: parse_table rejects
        // tables with fewer than the canonical SECTIONS entries.
        for e in &table[SECTIONS.len()..] {
            delta_runs.push(decode_delta_run(section_slice(&buf, e))?);
        }
        validate_delta_runs(n, &delta_runs)?;

        // Thresholds: re-derive from the now-verified aggregates with the
        // same mb-core formulas that produced them.
        let cnp = cnp_threshold_from_counts(meta.assignments, n);
        let cep = cep_threshold_from_counts(meta.assignments);
        if meta.cnp != cnp as u64 || meta.cep != cep as u64 {
            return Err(bad(format!(
                "persisted thresholds (cnp {}, cep {}) disagree with the collection \
                 (cnp {cnp}, cep {cep})",
                meta.cnp, meta.cep
            )));
        }

        Ok(SnapshotView {
            kind: meta.kind,
            num_entities: n,
            split: meta.split,
            num_blocks,
            num_tokens,
            config: meta.config,
            cnp_threshold: cnp,
            cep_threshold: cep,
            total_comparisons: meta.comparisons,
            total_assignments: meta.assignments,
            members,
            offsets,
            splits,
            index,
            tok_offsets,
            tok_blob,
            tok_table,
            tok_block,
            block_keys,
            delta_runs,
            buf,
        })
    }

    /// Reads and loads a snapshot file, reporting the load as a
    /// [`Stage::SnapshotLoad`] span on `obs`.
    pub fn read_from(path: &Path, obs: &mut dyn Observer) -> Result<SnapshotView, SnapshotError> {
        let scope = StageScope::enter(obs, Stage::SnapshotLoad);
        let bytes = std::fs::read(path)?;
        let view = SnapshotView::from_bytes(bytes)?;
        scope.finish();
        Ok(view)
    }

    fn raw(&self, r: U32Range) -> &[u8] {
        // lint:allow(panic-reachability) in range: the constructor proved
        // start + 4*count lies within the buffer for every stored range.
        &self.buf[r.start..r.start + r.count * 4]
    }

    fn u32s(&self, r: U32Range) -> U32s<'_> {
        U32s::Le(self.raw(r))
    }

    /// The ER task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// `|E|`: the input collection size.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// The Clean-Clean id boundary (collection size for Dirty ER).
    pub fn split(&self) -> usize {
        self.split
    }

    /// Number of blocks in the persisted collection.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of tokens in the persisted vocabulary.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// The pipeline configuration the snapshot was built under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The persisted CNP per-node cardinality threshold.
    pub fn cnp_threshold(&self) -> usize {
        self.cnp_threshold
    }

    /// The persisted CEP global cardinality threshold.
    pub fn cep_threshold(&self) -> usize {
        self.cep_threshold
    }

    /// `‖B‖`: total comparisons in the persisted collection.
    pub fn total_comparisons(&self) -> u64 {
        self.total_comparisons
    }

    /// `Σ|b|`: total block assignments in the persisted collection.
    pub fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    /// Total size of the loaded snapshot in bytes.
    pub fn file_len(&self) -> usize {
        self.buf.len()
    }

    /// The loaded snapshot file, byte for byte.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write-ahead delta runs riding on the snapshot, in apply order.
    pub fn delta_runs(&self) -> &[Vec<DeltaOp>] {
        &self.delta_runs
    }

    /// The CSR member pool, borrowed from the buffer.
    pub fn members(&self) -> U32s<'_> {
        self.u32s(self.members)
    }

    /// Block start offsets (`num_blocks + 1` entries), borrowed.
    pub fn offsets(&self) -> U32s<'_> {
        self.u32s(self.offsets)
    }

    /// Absolute block split offsets (one per block), derived at load.
    pub fn splits(&self) -> U32s<'_> {
        U32s::Native(&self.splits)
    }

    /// The entity index over the persisted blocks, inverted at load.
    pub fn index(&self) -> &EntityIndex {
        &self.index
    }

    /// Token byte offsets into [`SnapshotView::tok_blob`], borrowed.
    pub fn tok_offsets(&self) -> U32s<'_> {
        self.u32s(self.tok_offsets)
    }

    /// The concatenated token bytes, in id order.
    pub fn tok_blob(&self) -> &[u8] {
        // lint:allow(panic-reachability) in range: the constructor proved
        // start + len lies within the buffer.
        &self.buf[self.tok_blob.start..self.tok_blob.start + self.tok_blob.len]
    }

    /// Per-block token provenance, borrowed.
    pub fn block_keys(&self) -> U32s<'_> {
        self.u32s(self.block_keys)
    }

    /// The bytes of token `id`.
    pub fn token_bytes(&self, id: u32) -> &[u8] {
        let to = self.u32s(self.tok_offsets);
        let (a, b) = (to.get(id as usize) as usize, to.get(id as usize + 1) as usize);
        let blob = self.tok_blob();
        // lint:allow(panic-reachability) in range: token offsets were
        // validated ascending and bounded by the blob length.
        &blob[a..b]
    }

    /// The surviving block keyed by token `id`, if there is one.
    pub(crate) fn token_block(&self, id: u32) -> Option<u32> {
        self.tok_block.get(id as usize).copied().filter(|&block| block != u32::MAX)
    }

    fn token_table(&self) -> TokenTable<'_> {
        TokenTable {
            slots: &self.tok_table,
            offsets_le: self.raw(self.tok_offsets),
            blob: self.tok_blob(),
        }
    }

    /// Looks a normalized token up by bytes: one hash, a short linear probe
    /// of the table built at load comparing tags, one byte compare — no
    /// allocation.
    pub fn find_token(&self, token: &[u8]) -> Option<u32> {
        self.token_table().probe(token, token_hash(token))
    }

    /// Looks every key of `keys` up at once, in commit order, repeats
    /// included, and returns each one's id (`None` where the vocabulary
    /// lacks it) from `lookup`'s buffers: [`SnapshotView::find_token`] per
    /// key, with every key's home slot, and on a tag hit its offsets and
    /// route, loaded first in a loop of their own.
    pub(crate) fn find_tokens<'b>(
        &self,
        keys: &KeyScratch,
        lookup: &'b mut TokenLookup,
    ) -> &'b [Option<u32>] {
        self.token_table().find_all(keys, &self.tok_block, token_hash, lookup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::presets;
    use mb_core::PipelineConfig;
    use std::cell::Cell;

    /// The `tokoffsets` payload (without its count prefix) and `tokblob`
    /// bytes of a vocabulary, as [`seat_tokens`] reads them.
    fn sections_of<'a>(tokens: impl IntoIterator<Item = &'a str>) -> (Vec<u8>, Vec<u8>) {
        let (mut offsets, mut blob) = (0u32.to_le_bytes().to_vec(), Vec::new());
        for token in tokens {
            blob.extend_from_slice(token.as_bytes());
            offsets.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        }
        (offsets, blob)
    }

    #[test]
    fn tokens_sharing_one_home_are_a_typed_error_after_linear_work() {
        // 20 000 distinct tokens under a hash that sends them all to slot 0:
        // seating the k-th walks over the k - 1 before it, 200 million steps
        // for the lot. The budget stops it once the steps pass 16 per token.
        let names: Vec<String> = (0..20_000).map(|i| format!("t{i}")).collect();
        let (offsets, blob) = sections_of(names.iter().map(String::as_str));
        let (slots, budget) =
            (token_table_slots(names.len()), PROBE_STEPS_PER_TOKEN * names.len() as u64);
        let hashed = Cell::new(0u64);
        let err = seat_tokens(&offsets, &blob, slots, budget, |_| {
            hashed.set(hashed.get() + 1);
            0
        })
        .unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Inconsistent(msg) if msg.contains("probe steps")),
            "{err:?}"
        );
        // k tokens cost k(k - 1)/2 steps, so it gave up near √(2 · budget).
        assert!(hashed.get() < 1_000, "gave up only after {} tokens", hashed.get());

        // Under the budget a colliding vocabulary is merely slow to seat:
        // accepted, every token found, the work counted.
        let few = ["ab", "cd", "ef", "gh", "ij", "kl", "mn", "op"];
        let (offsets, blob) = sections_of(few);
        let (table, steps) =
            seat_tokens(&offsets, &blob, token_table_slots(8), 128, |_| 0).unwrap();
        assert_eq!(steps, 28);
        assert_eq!(table[..8], [1, 2, 3, 4, 5, 6, 7, 8]);
        // One step short of what it needs, the same vocabulary is refused.
        assert!(seat_tokens(&offsets, &blob, token_table_slots(8), 27, |_| 0).is_err());
    }

    #[test]
    fn equal_tokens_are_caught_while_seating() {
        let (offsets, blob) = sections_of(["jack", "miller", "lloyd", "miller"]);
        for hash in [token_hash as fn(&[u8]) -> u64, |_| 7] {
            let err = seat_tokens(&offsets, &blob, token_table_slots(4), 64, hash).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Inconsistent(msg) if msg.contains("tokens 1 and 3")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn benchmark_shaped_vocabularies_stay_far_from_the_budget() {
        // The two served collections of BENCHMARK.json, a twentieth of their
        // size: same token shapes and length mix, ~10–35k tokens.
        let shrink = |mut config: er_datagen::DatasetConfig| {
            config.matched_pairs /= 20;
            config.side1.size /= 20;
            config.side2.size /= 20;
            config.object.vocab_size /= 20;
            config
        };
        for (name, config) in [("d1c", shrink(presets::d1c(13))), ("d2c", shrink(presets::d2c(13)))]
        {
            let collection = presets::build(&config).unwrap().collection;
            let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
            let tokens = snapshot.tokens();
            assert!(tokens.len() > 5_000, "{name}: {} tokens", tokens.len());
            let (offsets, blob) = sections_of(tokens.iter());
            let slots = token_table_slots(tokens.len());
            let budget = PROBE_STEPS_PER_TOKEN * tokens.len() as u64;
            let (table, steps) = seat_tokens(&offsets, &blob, slots, budget, token_hash).unwrap();
            assert_eq!(table.iter().filter(|&&slot| slot != 0).count(), tokens.len());
            assert!(table.len() * 3 >= tokens.len() * 4, "{name}: more than ¾ full");
            // Linear probing at ¾ load steps over ~1.3 residents per token
            // seated when the hash spreads them; a quarter of the budget is
            // already far outside that.
            assert!(
                steps * 4 < budget,
                "{name}: {steps} probe steps seating {} tokens (budget {budget})",
                tokens.len()
            );
        }
    }

    /// A scratch holding `keys` in order.
    fn scratch_of<'a>(keys: impl IntoIterator<Item = &'a str>) -> KeyScratch {
        let mut scratch = KeyScratch::new();
        for key in keys {
            let start = scratch.begin();
            scratch.push_str(key);
            scratch.commit(start);
        }
        scratch
    }

    /// Lookup keys over `vocabulary`: its tokens, unseen neighbours of them
    /// (one byte more or one fewer, so their probes run over the tokens'
    /// own slots), unseen non-ASCII keys, and a second copy of a prefix of
    /// the lot. An empty key cannot be committed, and the attempt is part
    /// of the batch.
    fn keys_over(vocabulary: &[&str], seed: u64) -> KeyScratch {
        let mut rng = er_datagen::rng::SmallRng::seed_from_u64(seed);
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..3 * vocabulary.len() {
            let token = vocabulary[rng.gen_below(vocabulary.len() as u64) as usize];
            keys.push(match rng.gen_below(4) {
                0 => format!("{token}q"),
                1 => token.chars().skip(1).collect(),
                _ => token.to_owned(),
            });
        }
        keys.extend(["straße", "σοφός", "i\u{307}stanbul", "müller", "é"].map(String::from));
        let repeats = keys[..keys.len() / 4].to_vec();
        keys.extend(repeats);
        let mut scratch = scratch_of(keys.iter().map(String::as_str));
        let start = scratch.begin();
        scratch.commit(start);
        assert_eq!(scratch.len(), keys.len(), "an empty key is never committed");
        scratch
    }

    /// Seats `vocabulary` under `hash` and looks `keys` up as one batch:
    /// each answer must be the per-key probe's and a hash map's. Returns
    /// the hits and the misses.
    fn batch_agrees(
        vocabulary: &[&str],
        keys: &KeyScratch,
        hash: impl Fn(&[u8]) -> u64,
    ) -> (usize, usize) {
        let (offsets, blob) = sections_of(vocabulary.iter().copied());
        let slots = token_table_slots(vocabulary.len());
        let (table, _) = seat_tokens(&offsets, &blob, slots, u64::MAX, &hash).unwrap();
        let table = TokenTable { slots: &table, offsets_le: &offsets, blob: &blob };
        let oracle: std::collections::HashMap<&[u8], u32> =
            (0..).zip(vocabulary).map(|(id, token)| (token.as_bytes(), id)).collect();
        // Any route table serves: the batch only touches it.
        let routes: Vec<u32> = (0..vocabulary.len() as u32).rev().collect();
        let mut lookup = TokenLookup::default();
        let found = table.find_all(keys, &routes, &hash, &mut lookup);
        assert_eq!(found.len(), keys.len());
        for (key, &id) in keys.iter().zip(found) {
            let key = key.as_bytes();
            assert_eq!(id, table.probe(key, hash(key)), "{:?}", String::from_utf8_lossy(key));
            assert_eq!(id, oracle.get(key).copied(), "{:?}", String::from_utf8_lossy(key));
        }
        assert_eq!(table.probe(b"", hash(b"")), None);
        let hits = found.iter().flatten().count();
        (hits, found.len() - hits)
    }

    #[test]
    fn the_batch_lookup_is_find_token_per_key_under_any_hash() {
        // A d2c-shaped vocabulary: the served Clean-Clean collection at a
        // fortieth of its size.
        let mut config = presets::d2c(29);
        config.matched_pairs /= 40;
        config.side1.size /= 40;
        config.side2.size /= 40;
        config.object.vocab_size /= 40;
        let collection = presets::build(&config).unwrap().collection;
        let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
        let vocabulary: Vec<&str> = snapshot.tokens().iter().collect();
        assert!(vocabulary.len() > 2_000, "{} tokens", vocabulary.len());
        let keys = keys_over(&vocabulary, 0xBA7C);
        let (hits, misses) = batch_agrees(&vocabulary, &keys, token_hash);
        assert!(hits > keys.len() / 2 && misses > keys.len() / 8, "{hits} hits, {misses} misses");

        // Under a hash with one value every slot carries the one tag and
        // every token the one home, so the table is a single probe run that
        // only the byte compares can resolve. A smaller vocabulary keeps
        // the quadratic walk short.
        let few = &vocabulary[..600];
        let keys = keys_over(few, 0xC0115);
        let (hits, misses) = batch_agrees(few, &keys, |_| 0x9E37_79B9_7F4A_7C15);
        assert!(hits > 0 && misses > 0);

        // Equal top halves are equal tags, while the low halves still move
        // the home: with `top` just below a home boundary, about half the
        // tokens home one slot further along.
        let slots = token_table_slots(few.len()) as u64;
        let k = (slots / 2..slots).find(|k| (k << 32) % slots * 4 / slots == 2).unwrap();
        let top = (k << 32) / slots;
        let same_top = |t: &[u8]| top << 32 | (token_hash(t) & 0xFFFF_FFFF);
        let homes: std::collections::BTreeSet<usize> =
            few.iter().map(|t| table_home(same_top(t.as_bytes()), slots as usize)).collect();
        assert_eq!(homes.len(), 2, "{homes:?}");
        let (hits, misses) = batch_agrees(few, &keys, same_top);
        assert!(hits > 0 && misses > 0);
    }
}
