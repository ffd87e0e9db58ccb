//! The snapshot loader: the one way bytes become a queryable index.
//!
//! A [`SnapshotView`] is a [`Snapshot`] plus the tables load derives from
//! it. [`SnapshotView::from_bytes`] decodes every persisted array — the CSR
//! member pool and block offsets, the token offset table and blob, the block
//! keys — into owned native vectors, checks them, and moves them into the
//! types [`Snapshot::build`] keeps them in: an [`er_model::BlockCollection`]
//! (with the splits load derives) and a [`KeyArena`]. Beside that snapshot
//! ([`SnapshotView::snapshot`]) the view holds only the entity index, the
//! token lookup table and the token → block routes it derives (see "What
//! load derives"), the decoded delta runs and the file's length; it keeps no
//! copy of the file. A freshly
//! built [`Snapshot`] takes the same route (`SnapshotView::try_from` encodes
//! it once and loads the bytes), so a served index has exactly one in-memory
//! representation and one set of checks behind it.
//!
//! Load runs in two stages. The first reads the file: the `meta` checksum
//! (it gates every downstream decision), then the remaining checksums, the
//! block sections' decode and the token sections' decode as three mutually
//! independent passes. The file is then dropped, and the second stage walks
//! the decoded vectors — blocks, tokens — as two independent passes that
//! check them and derive the tables. Each stage's passes run on scoped
//! threads for large files on multi-core hosts ([`PARALLEL_LOAD_BYTES`]) and
//! serially otherwise. The decoded vectors are about the file's size, so
//! freeing the file before the derived tables are built holds the load's
//! peak at the file plus those tables. Every pass is panic-free on
//! arbitrary bytes, so none needs another's verdict; the view just isn't
//! constructed unless all of them accept. The member pool is checked by a
//! two-count reconciliation (see [`descents_and_max`]) instead of a
//! run-by-run compare chain, which keeps the hot loop vectorizable. Only
//! once every check has passed are the vectors moved into the snapshot:
//! `BlockCollection::from_raw_parts` and `KeyArena::from_parts` copy nothing
//! and check nothing, since each rule is proved here, once.
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
//!   one by construction and there is nothing to cross-check. Its
//!   `|E|`-sized offset table is the one allocation sized by a declared
//!   number that no section bounds, so it is reserved fallibly: a
//!   population the process cannot index is a typed error, not an abort;
//! - the token → id lookup table and the token → block routes, below.
//!
//! # Token lookup
//!
//! Two things load *builds* for the probe path, both while proving the
//! section they are built from duplicate-free: the token-id →
//! surviving-block routes (the `blockkeys` section inverted, 4 B per token;
//! every engine and every delta apply over this view reads that one table)
//! and the token → id table
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
use er_model::tokenize::{KeyArena, KeyScratch};
use er_model::{BlockCollection, EntityId, EntityIndex, ErKind};
use mb_core::prune::{cep_threshold_from_counts, cnp_threshold_from_counts};
use mb_observe::{Observer, Stage, StageScope};
use std::hash::Hasher;
use std::path::Path;

/// A loaded, fully validated snapshot: the [`Snapshot`] the file encodes,
/// and the tables load derives from it.
///
/// Constructed by [`SnapshotView::from_bytes`] / [`SnapshotView::read_from`]
/// (or `SnapshotView::try_from` a built [`Snapshot`]); see the module docs
/// for what a successful load guarantees.
#[derive(Debug)]
pub struct SnapshotView {
    /// The decoded snapshot: the block collection and the vocabulary own
    /// the decoded section vectors, the splits derived at load beside them.
    snapshot: Snapshot,
    /// Size of the loaded file in bytes.
    file_len: usize,
    /// The arena inverted at load.
    index: EntityIndex,
    /// The token → id lookup table, built at load ([`seat_tokens`]).
    tok_table: Vec<u64>,
    /// Token id → the surviving block keyed by it, `u32::MAX` when that
    /// block was filtered away (or never emitted): the block keys inverted,
    /// once, at load.
    tok_block: Vec<u32>,
    /// Write-ahead delta runs decoded from the trailing `delta` sections;
    /// empty for clean snapshots.
    delta_runs: Vec<Vec<DeltaOp>>,
}

/// Files at least this large run each load stage's passes on scoped
/// threads (they are mutually independent) when the host has more than
/// one core; below it the passes run serially, keeping thread-spawn
/// overhead away from small snapshots.
const PARALLEL_LOAD_BYTES: usize = 1 << 18;

fn bad(msg: String) -> SnapshotError {
    SnapshotError::Inconsistent(msg)
}

/// Runs `a` and `b` and returns both results: `a` on a scoped thread when
/// `parallel`, both in turn on this thread otherwise.
fn fork_join<A: Send, B>(
    parallel: bool,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B,
) -> (A, B) {
    if !parallel {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
        // lint:allow(panic-reachability) join only fails if a pass
        // panicked, and every load pass is panic-free on arbitrary bytes
        // lint:allow(no-panic) — the unwrap can only re-raise such a
        // panic, never originate one.
        (a.join().unwrap(), b)
    })
}

/// Number of descending adjacent pairs (`v[p] <= v[p-1]`) and the maximum
/// id over a member pool, in one flat pass.
///
/// This is the vectorizable half of the CSR run validation: iterating the
/// pool and a one-element-shifted copy of itself in lockstep leaves no
/// loop-carried scalar dependency, so the compiler turns the descent count
/// and the max into SIMD reductions — an order of magnitude faster than
/// walking the pool run by run with an early-exit compare chain. The caller
/// separately counts how many descents are *expected* (one per run boundary
/// that happens to descend) and accepts the pool iff the two counts match:
/// descents can then only sit at run starts, which makes every run interior
/// strictly ascending. An empty pool reports `(0, 0)`.
#[inline]
fn descents_and_max(pool: &[EntityId]) -> (u32, u32) {
    let mut d = 0u32;
    let mut max = pool.first().map_or(0, |e| e.0);
    for (a, b) in pool.iter().zip(pool.get(1..).unwrap_or_default()) {
        d += (b.0 <= a.0) as u32;
        max = max.max(b.0);
    }
    (d, max)
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

/// Seats every token of a validated vocabulary into a fresh
/// open-addressing table of `slots` entries (`0` vacant, else
/// [`slot_of`]; linear probing from [`table_home`]) and returns it with the
/// number of occupied slots the build stepped over.
///
/// Each step over a resident with the same tag compares the two tokens, so
/// two equal tokens are an [`SnapshotError::Inconsistent`] here. The table
/// size, the step budget and the hash are arguments so a test can drive the
/// failure paths directly; the loader passes [`token_table_slots`],
/// [`PROBE_STEPS_PER_TOKEN`] per token and [`token_hash`]. `slots` must
/// exceed the token count — [`SnapshotView::from_bytes`] computes it so.
///
/// Tokens go in chunks of [`SEAT_CHUNK`]: a chunk is hashed, then a loop
/// that does nothing else loads each token's home slot and, on a tag hit,
/// the resident's end offset — the loads the seating probe would otherwise
/// take one dependent miss at a time — and then the chunk is seated in id
/// order.
fn seat_tokens(
    tokens: &KeyArena,
    slots: usize,
    budget: u64,
    hash: impl Fn(&[u8]) -> u64,
) -> Result<(Vec<u64>, u64), SnapshotError> {
    let mut table = vec![0u64; slots];
    let mut steps = 0u64;
    let mut keys = tokens.iter();
    // Each token of the chunk in hand, with its hash.
    let mut chunk: [(&[u8], u64); SEAT_CHUNK] = [(&[], 0); SEAT_CHUNK];
    let mut first_id = 0usize;
    loop {
        let mut len = 0usize;
        for (entry, token) in chunk.iter_mut().zip(keys.by_ref()) {
            *entry = (token.as_bytes(), hash(token.as_bytes()));
            len += 1;
        }
        if len == 0 {
            break;
        }
        let mut touched = 0u32;
        for &(_, h) in chunk.iter().take(len) {
            if let Some(&resident) =
                table.get(table_home(h, slots)).filter(|&&r| r != 0 && same_tag(r, h))
            {
                // A resident's low half is `id + 1`, the index of its token's
                // end offset.
                touched ^= tokens.offsets().get(resident as u32 as usize).copied().unwrap_or(0);
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
                // A resident is an id seated earlier, so it has a token.
                if same_tag(resident, h) && tokens.bytes(resident as u32 - 1) == token {
                    return Err(bad(format!(
                        "tokens {} and {id} are the same string: the vocabulary must be \
                         duplicate-free",
                        resident as u32 - 1
                    )));
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

/// The token → id table built at load, over the vocabulary it indexes.
struct TokenTable<'a> {
    /// `0` vacant, else [`slot_of`]; never full.
    slots: &'a [u64],
    tokens: &'a KeyArena,
}

impl TokenTable<'_> {
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
                if self.tokens.bytes(id) == token {
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
                touched ^= self.tokens.offsets().get(end).copied().unwrap_or(0);
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
    /// Loads a snapshot from an owned buffer: decodes its arrays, frees the
    /// buffer, checks them and derives the tables the format does not
    /// store, then moves the arrays into the [`Snapshot`] they encode.
    ///
    /// Never panics on malformed input; every failure is a typed
    /// [`SnapshotError`].
    pub fn from_bytes(buf: Vec<u8>) -> Result<SnapshotView, SnapshotError> {
        let file_len = buf.len();
        let table = parse_table(&buf, file_len)?;
        let entry = |id: u32| -> &SectionEntry {
            // lint:allow(panic-reachability) in range: parse_table returned
            // the complete canonical table, where section id n sits at n-1.
            &table[(id - 1) as usize]
        };

        // The meta section gates everything downstream, so its checksum is
        // verified up front; the remaining section checksums are verified
        // alongside the decodes below (all of which are panic-free on
        // arbitrary bytes — no decode *depends* on its section's checksum,
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

        // Stage 1, over the file. Each array section is a u32 count (or
        // byte length) prefix followed by exactly that many packed values:
        // the reader checks the declared size against the payload and
        // decodes the values into an owned vector.
        let get = |id: u32| section_slice(&buf, entry(id));
        let decode_blocks = || -> Result<_, SnapshotError> {
            let mut r = Reader::new(get(SECTION_MEMBERS), label(SECTION_MEMBERS));
            let members = r.u32s(EntityId)?;
            r.finish()?;
            let mut r = Reader::new(get(SECTION_OFFSETS), label(SECTION_OFFSETS));
            let offsets = r.u32s(|w| w)?;
            r.finish()?;
            Ok((members, offsets))
        };
        let decode_tokens = || -> Result<_, SnapshotError> {
            let mut r = Reader::new(get(SECTION_TOK_OFFSETS), label(SECTION_TOK_OFFSETS));
            let tok_offsets = r.u32s(|w| w)?;
            r.finish()?;
            let mut r = Reader::new(get(SECTION_TOK_BLOB), label(SECTION_TOK_BLOB));
            let tok_blob = r.bytes()?.to_vec();
            r.finish()?;
            let mut r = Reader::new(get(SECTION_BLOCKKEYS), label(SECTION_BLOCKKEYS));
            let block_keys = r.u32s(|w| w)?;
            r.finish()?;
            Ok((tok_offsets, tok_blob, block_keys))
        };
        // The three passes are independent; the `?`s below report any
        // failures in the serial order (section decodes in file order, then
        // checksums), so a corrupt file surfaces the same error either way.
        let parallel = file_len >= PARALLEL_LOAD_BYTES
            && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let (sums, (blocks, tokens)) = fork_join(
            parallel,
            || verify_checksums(&buf, &table[1..]),
            || fork_join(parallel, decode_blocks, decode_tokens),
        );
        let (members, offsets) = blocks?;
        let (tok_offsets, tok_blob, block_keys) = tokens?;
        let Some(num_blocks) = offsets.len().checked_sub(1) else {
            return Err(bad("block offsets section is empty".into()));
        };
        sums?;
        // Trailing delta runs, decoded owned (they are small) while the
        // file is still here; their ids are replay-validated below.
        // lint:allow(panic-reachability) in range: parse_table rejects
        // tables with fewer than the canonical SECTIONS entries.
        let delta_sections = &table[SECTIONS.len()..];
        let delta_runs: Result<Vec<Vec<DeltaOp>>, SnapshotError> =
            delta_sections.iter().map(|e| decode_delta_run(section_slice(&buf, e))).collect();
        // Everything the view keeps of the file is decoded: free it before
        // the derived tables are allocated.
        drop(buf);

        // Stage 2, over the decoded vectors. Blocks: bracketed, monotone,
        // every run strictly ascending, and the recomputed aggregate
        // statistics matching the persisted ones — and the two things load
        // derives from them: each block's side split and the entity index.
        let check_blocks = || -> Result<(Vec<u32>, EntityIndex), SnapshotError> {
            if offsets.first() != Some(&0) {
                return Err(bad("block offsets must start at 0".into()));
            }
            let end = offsets.last().copied().unwrap_or(0);
            if end as usize != members.len() {
                return Err(bad(format!(
                    "block offsets end at {end}, member pool holds {} ids",
                    members.len()
                )));
            }
            let split = meta.split as u32;
            // The walk bounds-checks each bracket as it goes and counts the
            // run starts whose adjacent member pair descends. The pool
            // itself is validated afterwards by one vectorized
            // [`descents_and_max`] pass: every run is strictly ascending iff
            // the pool's total descent count equals the count tallied here.
            let mut splits = Vec::with_capacity(num_blocks);
            let mut comparisons: u64 = 0;
            let mut expected = 0u32;
            let mut lo = 0u32;
            for (k, &hi) in offsets.iter().skip(1).enumerate() {
                let Some(run) = members.get(lo as usize..hi as usize) else {
                    return Err(bad(format!("block {k} bounds corrupt: lo {lo}, hi {hi}")));
                };
                let before = lo.checked_sub(1).and_then(|p| members.get(p as usize));
                if let (Some(first), Some(before)) = (run.first(), before) {
                    expected += (first <= before) as u32;
                }
                let sp = match meta.kind {
                    ErKind::Dirty => {
                        let m = run.len() as u64;
                        comparisons += m * m.saturating_sub(1) / 2;
                        hi
                    }
                    ErKind::CleanClean => {
                        // In an ascending run, the members below the split
                        // are exactly its prefix, found by binary search. A
                        // run that is not ascending gets some split here and
                        // fails the descent count below.
                        let sp = lo + run.partition_point(|e| e.0 < split) as u32;
                        comparisons += (sp - lo) as u64 * (hi - sp) as u64;
                        sp
                    }
                };
                splits.push(sp);
                lo = hi;
            }
            let (desc, max) = descents_and_max(&members);
            if desc != expected || (!members.is_empty() && max >= n as u32) {
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
            if members.len() as u64 != meta.assignments {
                return Err(bad(format!(
                    "persisted Σ|b| {} disagrees with the member pool ({})",
                    meta.assignments,
                    members.len()
                )));
            }
            // Every member is below |E| and the offsets bracket the pool,
            // which is all the inversion asks of its input. Its |E|-sized
            // offset table is allocated fallibly: nothing in the file bounds
            // the |E| that meta declares.
            let index = EntityIndex::from_arena(n, &members, &offsets).map_err(|_| {
                bad(format!("|E| = {n} is more entities than this process can index"))
            })?;
            Ok((splits, index))
        };

        // Token layout: strictly ascending offsets spanning the blob, the
        // blob UTF-8 with every token on character boundaries, block keys
        // in range and duplicate-free — and what it hands back: the
        // vocabulary as a `KeyArena` over the two decoded vectors, seated
        // for lookup (which proves it duplicate-free), and the block keys
        // inverted into token → block routes.
        let check_tokens = || -> Result<(KeyArena, Vec<u64>, Vec<u32>), SnapshotError> {
            let Some(num_tokens) = tok_offsets.len().checked_sub(1) else {
                return Err(bad("token offsets section is empty".into()));
            };
            if tok_offsets.first() != Some(&0) {
                return Err(bad("token offsets must start at 0".into()));
            }
            let end = tok_offsets.last().copied().unwrap_or(0);
            if end as usize != tok_blob.len() {
                return Err(bad(format!(
                    "token offsets end at {end}, blob holds {} bytes",
                    tok_blob.len()
                )));
            }
            // The first offset is 0 (checked above), so strict ascension over
            // the whole table is the only remaining order constraint.
            let next = tok_offsets.get(1..).unwrap_or_default();
            if tok_offsets.iter().zip(next).any(|(a, b)| b <= a) {
                return Err(bad("token offsets must be strictly ascending".into()));
            }
            let utf8 = || SnapshotError::Utf8 { section: "tokblob" };
            let text = String::from_utf8(tok_blob).map_err(|_| utf8())?;
            if !tok_offsets.iter().all(|&at| text.is_char_boundary(at as usize)) {
                return Err(utf8());
            }
            let tokens = KeyArena::from_parts(tok_offsets, text);
            let slots = token_table_slots(num_tokens);
            let budget = PROBE_STEPS_PER_TOKEN * num_tokens as u64;
            let (tok_table, _) = seat_tokens(&tokens, slots, budget, token_hash)?;
            if block_keys.len() != num_blocks {
                return Err(bad(format!(
                    "{} block keys for {num_blocks} blocks",
                    block_keys.len()
                )));
            }
            let mut tok_block = vec![u32::MAX; num_tokens];
            for (block, &t) in (0u32..).zip(&block_keys) {
                match tok_block.get_mut(t as usize) {
                    Some(route) if *route == u32::MAX => *route = block,
                    // Out of the vocabulary, or a token keying two blocks.
                    _ => {
                        return Err(bad(
                            "block keys are out of range or reference a token twice".into()
                        ))
                    }
                }
            }
            Ok((tokens, tok_table, tok_block))
        };
        let (blocks, tokens) = fork_join(parallel, check_blocks, check_tokens);
        let (splits, index) = blocks?;
        let (tokens, tok_table, tok_block) = tokens?;
        let delta_runs = delta_runs?;
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

        // Every check passed: the decoded vectors become the snapshot they
        // encode, moved, not copied.
        let snapshot = Snapshot {
            blocks: BlockCollection::from_raw_parts(meta.kind, n, (members, offsets, splits)),
            split: meta.split,
            tokens,
            block_keys,
            config: meta.config,
            cnp_threshold: cnp,
            cep_threshold: cep,
            total_comparisons: meta.comparisons,
            total_assignments: meta.assignments,
        };
        Ok(SnapshotView { snapshot, file_len, index, tok_table, tok_block, delta_runs })
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

    /// The loaded snapshot: the block collection, the vocabulary, the
    /// block keys, the configuration and the persisted statistics.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Total size of the loaded snapshot file in bytes.
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// Write-ahead delta runs riding on the snapshot, in apply order.
    pub fn delta_runs(&self) -> &[Vec<DeltaOp>] {
        &self.delta_runs
    }

    /// The entity index over the persisted blocks, inverted at load.
    pub fn index(&self) -> &EntityIndex {
        &self.index
    }

    /// The surviving block keyed by token `id`, if there is one.
    pub(crate) fn token_block(&self, id: u32) -> Option<u32> {
        self.tok_block.get(id as usize).copied().filter(|&block| block != u32::MAX)
    }

    fn token_table(&self) -> TokenTable<'_> {
        TokenTable { slots: &self.tok_table, tokens: self.snapshot.tokens() }
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

    /// A vocabulary as [`seat_tokens`] reads it.
    fn arena_of<'a>(tokens: impl IntoIterator<Item = &'a str>) -> KeyArena {
        let (mut offsets, mut text) = (vec![0u32], String::new());
        for token in tokens {
            text.push_str(token);
            offsets.push(text.len() as u32);
        }
        KeyArena::from_parts(offsets, text)
    }

    #[test]
    fn tokens_sharing_one_home_are_a_typed_error_after_linear_work() {
        // 20 000 distinct tokens under a hash that sends them all to slot 0:
        // seating the k-th walks over the k - 1 before it, 200 million steps
        // for the lot. The budget stops it once the steps pass 16 per token.
        let names: Vec<String> = (0..20_000).map(|i| format!("t{i}")).collect();
        let tokens = arena_of(names.iter().map(String::as_str));
        let (slots, budget) =
            (token_table_slots(names.len()), PROBE_STEPS_PER_TOKEN * names.len() as u64);
        let hashed = Cell::new(0u64);
        let err = seat_tokens(&tokens, slots, budget, |_| {
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
        let tokens = arena_of(few);
        let (table, steps) = seat_tokens(&tokens, token_table_slots(8), 128, |_| 0).unwrap();
        assert_eq!(steps, 28);
        assert_eq!(table[..8], [1, 2, 3, 4, 5, 6, 7, 8]);
        // One step short of what it needs, the same vocabulary is refused.
        assert!(seat_tokens(&tokens, token_table_slots(8), 27, |_| 0).is_err());
    }

    #[test]
    fn equal_tokens_are_caught_while_seating() {
        let tokens = arena_of(["jack", "miller", "lloyd", "miller"]);
        for hash in [token_hash as fn(&[u8]) -> u64, |_| 7] {
            let err = seat_tokens(&tokens, token_table_slots(4), 64, hash).unwrap_err();
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
            let slots = token_table_slots(tokens.len());
            let budget = PROBE_STEPS_PER_TOKEN * tokens.len() as u64;
            let (table, steps) = seat_tokens(tokens, slots, budget, token_hash).unwrap();
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
        let tokens = arena_of(vocabulary.iter().copied());
        let slots = token_table_slots(vocabulary.len());
        let (table, _) = seat_tokens(&tokens, slots, u64::MAX, &hash).unwrap();
        let table = TokenTable { slots: &table, tokens: &tokens };
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
