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
//! Load builds two tables for the probe path, each while proving its
//! section duplicate-free: the token-id → surviving-block routes (the
//! `blockkeys` section inverted, 4 B per token), and the token → id table
//! behind [`SnapshotView::find_token`] and [`SnapshotView::find_tokens`] —
//! the build's own [`KeyTable`], seated from the vocabulary
//! ([`KeyTable::seat`], ≈ 10.7 B per token), so a probe or an upsert finds
//! a token under the id the build gave it by the same hash, home and probe.
//! A repeated token, or a vocabulary crafted to collide, is refused as
//! [`SnapshotError::Inconsistent`]. Nothing of the table is persisted, so
//! the format pins no hash. Neither caller byte-sorts a profile's keys, only
//! the few it has to order.

use crate::codec::Reader;
use crate::delta::{decode_delta_run, validate_delta_runs, DeltaOp};
use crate::error::SnapshotError;
use crate::snapshot::{
    decode_meta, label, parse_table, section_slice, verify_checksums, SectionEntry, Snapshot,
    SECTIONS, SECTION_BLOCKKEYS, SECTION_MEMBERS, SECTION_META, SECTION_OFFSETS, SECTION_TOK_BLOB,
    SECTION_TOK_OFFSETS,
};
use er_model::tokenize::{KeyArena, KeyScratch, KeyTable};
use er_model::{BlockCollection, EntityId, EntityIndex, ErKind};
use mb_core::prune::{cep_threshold_from_counts, cnp_threshold_from_counts};
use mb_observe::{Observer, Stage, StageScope};
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
    /// The vocabulary seated for lookup at load ([`KeyTable::seat`]).
    tok_table: KeyTable,
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

/// A profile's keys and every buffer looking them up takes: what a probe
/// and an upsert fill, look up and sort the leftovers of, reused from one
/// profile to the next.
#[derive(Debug, Default)]
pub(crate) struct TokenScratch {
    /// The profile's keys, as [`KeyScratch::fill_tokens`] commits them.
    pub(crate) keys: KeyScratch,
    /// What each key resolved to.
    pub(crate) ids: Vec<Option<u32>>,
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
        let parallel = file_len >= PARALLEL_LOAD_BYTES && mb_core::parallel::host_threads() > 1;
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
        let check_tokens = || -> Result<(KeyArena, KeyTable, Vec<u32>), SnapshotError> {
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
            let tok_table = KeyTable::seat(&tokens).map_err(|e| bad(e.to_string()))?;
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
        let mut delta_runs = delta_runs?;
        validate_delta_runs(n, &mut delta_runs)?;

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

    /// Looks a normalized token up by bytes ([`KeyTable::find`]): one hash,
    /// a short linear probe comparing tags, one byte compare — no
    /// allocation.
    pub fn find_token(&self, token: &[u8]) -> Option<u32> {
        self.tok_table.find(self.snapshot.tokens(), token)
    }

    /// Looks every key of `keys` up at once, in commit order, repeats
    /// included, into `ids`: each one's id, `None` where the vocabulary
    /// lacks it ([`KeyTable::find_all`]).
    pub(crate) fn find_tokens(&self, keys: &KeyScratch, ids: &mut Vec<Option<u32>>) {
        self.tok_table.find_all(self.snapshot.tokens(), keys, ids);
    }
}
