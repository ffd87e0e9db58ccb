//! The versioned snapshot format and its one builder, [`Snapshot::build`].
//!
//! A snapshot freezes what the online query path cannot derive — the
//! filtered block collection, the blocking vocabulary with per-block key
//! provenance, and the pipeline configuration plus derived thresholds — so
//! a serving process reconstructs the query state without re-running
//! blocking or filtering. What the blocks determine is not stored: the
//! loader derives each block's side split and inverts the blocks into the
//! entity index in one linear pass (the paper's Algorithm 3). The build runs
//! the batch front end in memory: Token Blocking's postings, grouped by
//! counting (`er_blocking::KeyBlockBuilder`), then Block Filtering.
//!
//! # Layout (format version 5)
//!
//! ```text
//! header:  magic "MBSNAP05" | version u32 = 5 | section_count u32
//! table:   section_count entries, 32 bytes each:
//!          id u32 | reserved u32 = 0 | offset u64 | len u64 | checksum u64
//! payloads: contiguous, in table order, each starting on an 8-byte file
//!           offset and zero-padded to the next multiple of 8
//! ```
//!
//! `offset` is absolute, `len` is the unpadded payload length, and
//! `checksum` is word-wise FNV-1a 64 over the *padded* region. The six
//! canonical sections are required, unique, and appear in exactly this
//! canonical order:
//!
//! | id | name        | payload                                             |
//! |----|-------------|-----------------------------------------------------|
//! | 1  | meta        | kind u32, reserved u32, |E| u64, split u64, CNP k u64, CEP K u64, ‖B‖ u64, Σ|b| u64, config JSON |
//! | 2  | members     | CSR arena member pool (`u32` vector)                |
//! | 3  | offsets     | CSR arena block offsets (`u32` vector)              |
//! | 4  | tokoffsets  | V+1 byte offsets into `tokblob` (`u32` vector)      |
//! | 5  | tokblob     | UTF-8 token bytes concatenated in id order          |
//! | 6  | blockkeys   | one interned token id per block, in block order     |
//!
//! Every block's run of `members` is strictly ascending. A Clean-Clean
//! block's run is its E₁ members, all below the collection split, then its
//! E₂ members, so its side boundary is the run's partition point at
//! `meta.split`; a Dirty block is all one side.
//!
//! Nothing about token *lookup* is persisted either: the loader seats the
//! vocabulary of sections 4–5 into the build's own key table
//! (`er_model::tokenize::KeyTable`, behind
//! [`crate::view::SnapshotView::find_token`]), so the format pins no hash
//! function and the encoder sorts nothing.
//!
//! After the canonical six, any number of **delta run** sections (id 7,
//! name `delta`) may follow — the write-ahead log of
//! [`crate::delta::DeltaOp`] mutations applied since the canonical arena
//! was built. Delta runs obey the same table discipline (contiguous,
//! 8-aligned, checksummed, ending exactly at the file end) and are decoded
//! with the same hostile-input rigor as every other section; a clean
//! snapshot simply has none.
//!
//! All integers little-endian; `u32` vectors carry a `u32` length prefix.
//! The front-loaded table plus fixed-width, 8-aligned payloads are what the
//! loader ([`crate::view::SnapshotView`]) relies on: it verifies the table,
//! the checksums and every structural and cross-section invariant, decodes
//! the arrays into owned vectors, frees the file, derives the splits and
//! the entity index from the vectors, and moves them into the [`Snapshot`]
//! they encode. This module builds and encodes; `SnapshotView` is the one
//! way bytes become a queryable index.
//!
//! Earlier-version files (magic `MBSNAP01`–`MBSNAP04`; version 4 carried
//! the block splits and the entity index as sections of their own, version
//! 3 also a byte-order permutation of the vocabulary) are rejected with a
//! typed [`SnapshotError::UnsupportedVersion`]: readers accept exactly the
//! version they know and never guess at another layout.

use crate::codec::{fnv1a_wide, padded_len, put_bytes, put_u32, put_u32_slice, put_u64, Reader};
use crate::error::SnapshotError;
use er_blocking::TokenBlocking;
use er_model::tokenize::KeyArena;
use er_model::{BlockCollection, EntityCollection, ErKind};
use mb_core::filter::block_filtering_traced;
use mb_core::prune::{cep_threshold_from_counts, cnp_threshold_from_counts};
use mb_core::PipelineConfig;
use std::path::Path;

/// The snapshot file magic.
pub const MAGIC: [u8; 8] = *b"MBSNAP05";

/// The one format version this build reads and writes.
///
/// Policy: bump on any layout change, including compatible additions — a
/// reader never guesses at bytes laid out by a version it does not know.
pub const FORMAT_VERSION: u32 = 5;

pub(crate) const SECTION_META: u32 = 1;
pub(crate) const SECTION_MEMBERS: u32 = 2;
pub(crate) const SECTION_OFFSETS: u32 = 3;
pub(crate) const SECTION_TOK_OFFSETS: u32 = 4;
pub(crate) const SECTION_TOK_BLOB: u32 = 5;
pub(crate) const SECTION_BLOCKKEYS: u32 = 6;
/// The repeatable write-ahead delta-run section (any count, always last).
pub(crate) const SECTION_DELTA: u32 = 7;

/// All section ids with their display names, in canonical (and mandatory)
/// file order.
pub(crate) const SECTIONS: [(u32, &str); 6] = [
    (SECTION_META, "meta"),
    (SECTION_MEMBERS, "members"),
    (SECTION_OFFSETS, "offsets"),
    (SECTION_TOK_OFFSETS, "tokoffsets"),
    (SECTION_TOK_BLOB, "tokblob"),
    (SECTION_BLOCKKEYS, "blockkeys"),
];

/// Byte length of the fixed header (magic + version + section count).
pub(crate) const HEADER_LEN: usize = 16;

/// Byte length of one section-table entry.
pub(crate) const TABLE_ENTRY_LEN: usize = 32;

fn section_name(id: u32) -> Option<&'static str> {
    if id == SECTION_DELTA {
        return Some("delta");
    }
    SECTIONS.iter().find(|&&(sid, _)| sid == id).map(|&(_, name)| name)
}

pub(crate) fn label(id: u32) -> &'static str {
    section_name(id).unwrap_or("?")
}

/// One parsed (and bounds-checked) section-table entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionEntry {
    pub(crate) id: u32,
    pub(crate) name: &'static str,
    /// Absolute file offset of the payload (a multiple of 8).
    pub(crate) offset: usize,
    /// Unpadded payload length in bytes.
    pub(crate) len: usize,
    /// Wide FNV-1a over the zero-padded payload region.
    pub(crate) checksum: u64,
}

/// Turns a wrong 8-byte magic into the most precise error available.
///
/// Older (or newer) snapshot generations share the `MBSNAP` prefix and
/// differ in the two trailing version digits, so a `MBSNAP01` file reports
/// [`SnapshotError::UnsupportedVersion`] rather than a bare bad-magic.
fn classify_magic(magic: &[u8]) -> SnapshotError {
    if magic.len() == 8 && &magic[..6] == MAGIC.get(..6).unwrap_or(b"MBSNAP") {
        let (d1, d2) = (magic[6], magic[7]);
        if d1.is_ascii_digit() && d2.is_ascii_digit() {
            let found = (d1 - b'0') as u32 * 10 + (d2 - b'0') as u32;
            return SnapshotError::UnsupportedVersion { found, supported: FORMAT_VERSION };
        }
    }
    SnapshotError::BadMagic
}

/// Parses and structurally validates the header plus section table.
///
/// `head` must hold at least the header and table bytes (it may be the whole
/// file); `file_len` is the total file length the table is checked against.
/// On success the first six entries are canonical — ids in order, offsets
/// contiguous and 8-aligned starting right after the table — and every
/// entry past them is a [`SECTION_DELTA`] run, with the padded payloads
/// ending exactly at `file_len`. Checksums are *not* verified here — see
/// [`verify_checksums`] — so a header-only reader stays O(1).
pub(crate) fn parse_table(
    head: &[u8],
    file_len: usize,
) -> Result<Vec<SectionEntry>, SnapshotError> {
    let mut r = Reader::new(head, "frame");
    let magic = r.take(MAGIC.len()).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(classify_magic(magic));
    }
    let version = r.u32().map_err(|_| SnapshotError::BadMagic)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.u32()? as usize;
    if count < SECTIONS.len() {
        return Err(SnapshotError::Inconsistent(format!(
            "format version {FORMAT_VERSION} has at least {} sections, header declares {count}",
            SECTIONS.len()
        )));
    }
    // A declared count the file cannot physically hold is rejected before
    // it sizes any allocation — hostile headers don't get to pick one.
    if count
        .checked_mul(TABLE_ENTRY_LEN)
        .and_then(|t| t.checked_add(HEADER_LEN))
        .is_none_or(|end| end > file_len)
    {
        return Err(SnapshotError::Inconsistent(format!(
            "header declares {count} sections, more than the file can hold"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    let mut expected_offset = (HEADER_LEN + count * TABLE_ENTRY_LEN) as u64;
    for slot in 0..count {
        let got = r.u32()?;
        let name = match SECTIONS.get(slot) {
            Some(&(id, name)) if got == id => name,
            Some(&(_, name)) => {
                return Err(match section_name(got) {
                    Some(other) => SnapshotError::Inconsistent(format!(
                        "section '{other}' found where '{name}' belongs: sections must appear \
                         in canonical order"
                    )),
                    None => SnapshotError::UnknownSection { id: got },
                });
            }
            // Everything past the canonical six must be a delta run.
            None if got == SECTION_DELTA => "delta",
            None => {
                return Err(match section_name(got) {
                    Some(other) => SnapshotError::Inconsistent(format!(
                        "canonical section '{other}' found after the delta runs begin"
                    )),
                    None => SnapshotError::UnknownSection { id: got },
                });
            }
        };
        let reserved = r.u32()?;
        if reserved != 0 {
            return Err(SnapshotError::Inconsistent(format!(
                "section '{name}' has nonzero reserved field {reserved}"
            )));
        }
        let offset = r.u64()?;
        let len = r.u64()?;
        let checksum = r.u64()?;
        if offset % 8 != 0 {
            return Err(SnapshotError::Misaligned { section: name, offset });
        }
        if offset != expected_offset {
            return Err(SnapshotError::Inconsistent(format!(
                "section '{name}' at offset {offset}, but the canonical layout puts it at \
                 {expected_offset}"
            )));
        }
        let available = (file_len as u64).saturating_sub(offset);
        let padded = len
            .div_ceil(8)
            .checked_mul(8)
            .filter(|p| offset.checked_add(*p).is_some_and(|end| end <= file_len as u64))
            .ok_or(SnapshotError::Truncated {
                section: name,
                needed: len.div_ceil(8).saturating_mul(8).saturating_sub(available),
                available,
            })?;
        expected_offset = offset + padded;
        entries.push(SectionEntry {
            id: got,
            name,
            offset: offset as usize,
            len: len as usize,
            checksum,
        });
    }
    if expected_offset != file_len as u64 {
        return Err(SnapshotError::TrailingBytes {
            section: "frame",
            bytes: file_len as u64 - expected_offset,
        });
    }
    Ok(entries)
}

/// Verifies every section's wide checksum and that its padding is zero.
///
/// O(file size) but touch-only: payloads are hashed, never decoded.
pub(crate) fn verify_checksums(buf: &[u8], entries: &[SectionEntry]) -> Result<(), SnapshotError> {
    for e in entries {
        let padded = padded_len(e.len);
        // lint:allow(panic-reachability) in range: parse_table proved
        // offset + padded <= buf.len() for every entry.
        let region = &buf[e.offset..e.offset + padded];
        if fnv1a_wide(region) != e.checksum {
            return Err(SnapshotError::ChecksumMismatch { section: e.name });
        }
        // lint:allow(panic-reachability) in range: len <= padded == region
        // length by construction.
        if region[e.len..].iter().any(|&b| b != 0) {
            return Err(SnapshotError::Inconsistent(format!(
                "section '{}' has nonzero padding bytes",
                e.name
            )));
        }
    }
    Ok(())
}

/// The unpadded payload bytes of one parsed section.
pub(crate) fn section_slice<'a>(buf: &'a [u8], e: &SectionEntry) -> &'a [u8] {
    // lint:allow(panic-reachability) in range: parse_table proved
    // offset + len (and its padding) lie within the file.
    &buf[e.offset..e.offset + e.len]
}

/// The decoded `meta` section: scalars plus the parsed, validated pipeline
/// configuration.
#[derive(Debug, Clone)]
pub(crate) struct Meta {
    pub(crate) kind: ErKind,
    pub(crate) num_entities: usize,
    pub(crate) split: usize,
    pub(crate) cnp: u64,
    pub(crate) cep: u64,
    pub(crate) comparisons: u64,
    pub(crate) assignments: u64,
    pub(crate) config: PipelineConfig,
}

pub(crate) fn decode_meta(payload: &[u8]) -> Result<Meta, SnapshotError> {
    let mut r = Reader::new(payload, label(SECTION_META));
    let kind = match r.u32()? {
        0 => ErKind::Dirty,
        1 => ErKind::CleanClean,
        other => return Err(SnapshotError::Inconsistent(format!("unknown ER kind tag {other}"))),
    };
    let reserved = r.u32()?;
    if reserved != 0 {
        return Err(SnapshotError::Inconsistent(format!(
            "meta has nonzero reserved field {reserved}"
        )));
    }
    let num_entities = usize::try_from(r.u64()?)
        .map_err(|_| SnapshotError::Inconsistent("|E| exceeds the address space".into()))?;
    let split = usize::try_from(r.u64()?)
        .map_err(|_| SnapshotError::Inconsistent("split exceeds the address space".into()))?;
    let cnp = r.u64()?;
    let cep = r.u64()?;
    let comparisons = r.u64()?;
    let assignments = r.u64()?;
    let config_bytes = r.bytes()?;
    r.finish()?;
    let config_str =
        std::str::from_utf8(config_bytes).map_err(|_| SnapshotError::Utf8 { section: "meta" })?;
    let config = PipelineConfig::from_json_str(config_str).map_err(SnapshotError::Config)?;
    config.validate().map_err(SnapshotError::Config)?;
    Ok(Meta { kind, num_entities, split, cnp, cep, comparisons, assignments, config })
}

/// A cheap, header-only description of a snapshot file.
///
/// [`SnapshotHeader::read_from`] reads exactly the header and section table
/// — a few hundred bytes — and never touches payloads, so inspecting a
/// multi-gigabyte snapshot is O(1). Checksums are reported as recorded, not
/// verified.
#[derive(Debug, Clone)]
pub struct SnapshotHeader {
    /// The file's format version (always [`FORMAT_VERSION`] on success).
    pub version: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// The parsed section table, in file order.
    pub sections: Vec<SectionInfo>,
}

/// One section-table row as reported by [`SnapshotHeader`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// The section id.
    pub id: u32,
    /// The section's display name.
    pub name: &'static str,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Unpadded payload length in bytes.
    pub len: u64,
    /// On-disk (8-padded) payload length in bytes.
    pub padded_len: u64,
    /// The recorded wide-FNV checksum of the padded payload.
    pub checksum: u64,
}

impl SnapshotHeader {
    /// Parses the header and section table from an in-memory snapshot.
    pub fn from_bytes(buf: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
        let entries = parse_table(buf, buf.len())?;
        Ok(SnapshotHeader::assemble(buf.len() as u64, &entries))
    }

    /// Reads only the header and section table from `path` — the payload
    /// bytes never leave the disk.
    // lint:allow(panic-reachability) in range: `fixed_len <= HEADER_LEN` and
    // `fixed_len <= file_len <= head_len`-as-capped by construction, so
    // every slice below is within its buffer; a short file yields short
    // reads that `parse_table` rejects as truncation.
    // lint:allow(snapshot-unversioned-read) reading the raw section count at
    // its fixed offset is how the version-gated `parse_table` input gets
    // sized; the count is re-read and validated behind the magic + version
    // gate before anything trusts it.
    pub fn read_from(path: &Path) -> Result<SnapshotHeader, SnapshotError> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        // The table length is count-dependent since v3 (trailing delta
        // runs), so read the fixed header first and size the second read
        // from its declared count, capped by the file itself.
        let mut fixed = [0u8; HEADER_LEN];
        let fixed_len = HEADER_LEN.min(file_len as usize);
        file.read_exact(&mut fixed[..fixed_len])?;
        let count = u32::from_le_bytes([fixed[12], fixed[13], fixed[14], fixed[15]]) as usize;
        let head_len = count
            .checked_mul(TABLE_ENTRY_LEN)
            .and_then(|t| t.checked_add(HEADER_LEN))
            .unwrap_or(usize::MAX)
            .min(file_len as usize);
        let mut head = vec![0u8; head_len];
        head[..fixed_len].copy_from_slice(&fixed[..fixed_len]);
        file.read_exact(&mut head[fixed_len..])?;
        let entries = parse_table(&head, file_len as usize)?;
        Ok(SnapshotHeader::assemble(file_len, &entries))
    }

    fn assemble(file_len: u64, entries: &[SectionEntry]) -> SnapshotHeader {
        let sections = entries
            .iter()
            .map(|e| SectionInfo {
                id: e.id,
                name: e.name,
                offset: e.offset as u64,
                len: e.len as u64,
                padded_len: padded_len(e.len) as u64,
                checksum: e.checksum,
            })
            .collect();
        SnapshotHeader { version: FORMAT_VERSION, file_len, sections }
    }
}

/// What a snapshot file persists: the filtered block collection, the
/// blocking vocabulary with per-block key provenance, and the pipeline
/// configuration with its derived thresholds.
///
/// [`Snapshot::build`] makes one by running the blocking front end, and
/// [`Snapshot::to_bytes`] / [`Snapshot::write_to`] encode it. Loading those
/// bytes ([`crate::view::SnapshotView::from_bytes`]) decodes the same
/// `Snapshot` back — [`crate::view::SnapshotView::snapshot`] — beside the
/// tables load derives from it; `SnapshotView::try_from(snapshot)` encodes
/// and loads in one step.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) blocks: BlockCollection,
    pub(crate) split: usize,
    /// The blocking vocabulary, indexed by interned token id: the
    /// interner's own arena, which is the `tokoffsets` + `tokblob` sections.
    pub(crate) tokens: KeyArena,
    /// `block_keys[k]` is the token id whose block became block `k`.
    pub(crate) block_keys: Vec<u32>,
    pub(crate) config: PipelineConfig,
    pub(crate) cnp_threshold: usize,
    pub(crate) cep_threshold: usize,
    pub(crate) total_comparisons: u64,
    pub(crate) total_assignments: u64,
}

impl Snapshot {
    /// Runs the blocking front-end (Token Blocking, then Block Filtering
    /// when `config.filter_ratio` is set) over `collection` and freezes the
    /// result.
    ///
    /// The block collection, thresholds and provenance are exactly what the
    /// batch pipeline would compute for the same configuration.
    pub fn build(
        collection: &EntityCollection,
        config: PipelineConfig,
    ) -> Result<Snapshot, SnapshotError> {
        config.validate().map_err(SnapshotError::Config)?;
        let (blocks, keys, tokens) = TokenBlocking.build_keyed(collection)?;
        let (blocks, trace) = match config.filter_ratio {
            Some(r) => block_filtering_traced(&blocks, r)
                .map_err(|e| SnapshotError::Config(e.to_string()))?,
            None => {
                let trace = (0..blocks.size() as u32).collect();
                (blocks, trace)
            }
        };
        // lint:allow(panic-reachability) in range: the filter trace indexes
        // the pre-filter blocks, and keys has one entry per pre-filter block.
        let block_keys: Vec<u32> = trace.iter().map(|&k| keys[k as usize]).collect();
        let (total_comparisons, total_assignments) =
            (blocks.total_comparisons(), blocks.total_assignments());
        // The same mb-core formulas batch pruning uses.
        let cnp = cnp_threshold_from_counts(total_assignments, blocks.num_entities());
        let cep = cep_threshold_from_counts(total_assignments);
        Ok(Snapshot {
            blocks,
            split: collection.split(),
            tokens,
            block_keys,
            config,
            cnp_threshold: cnp,
            cep_threshold: cep,
            total_comparisons,
            total_assignments,
        })
    }

    /// The filtered block collection.
    pub fn blocks(&self) -> &BlockCollection {
        &self.blocks
    }

    /// The ER task kind.
    pub fn kind(&self) -> ErKind {
        self.blocks.kind()
    }

    /// `|E|`: the input collection size.
    pub fn num_entities(&self) -> usize {
        self.blocks.num_entities()
    }

    /// The Clean-Clean id boundary (collection size for Dirty ER).
    pub fn split(&self) -> usize {
        self.split
    }

    /// The blocking vocabulary, indexed by interned token id.
    pub fn tokens(&self) -> &KeyArena {
        &self.tokens
    }

    /// Per-block token provenance: the token id whose block became block
    /// `k`.
    pub fn block_keys(&self) -> &[u32] {
        &self.block_keys
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

    /// Encodes the snapshot into the versioned binary format: the six
    /// canonical sections, no delta runs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payloads: Vec<(u32, Vec<u8>)> =
            SECTIONS.iter().map(|&(id, _)| (id, self.encode_section(id))).collect();
        let sections: Vec<(u32, &[u8])> = payloads.iter().map(|(id, p)| (*id, &p[..])).collect();
        frame_sections(&sections)
    }

    fn encode_section(&self, id: u32) -> Vec<u8> {
        let mut p = Vec::new();
        match id {
            SECTION_META => {
                put_u32(
                    &mut p,
                    match self.kind() {
                        ErKind::Dirty => 0,
                        ErKind::CleanClean => 1,
                    },
                );
                put_u32(&mut p, 0); // reserved
                put_u64(&mut p, self.num_entities() as u64);
                put_u64(&mut p, self.split as u64);
                put_u64(&mut p, self.cnp_threshold as u64);
                put_u64(&mut p, self.cep_threshold as u64);
                put_u64(&mut p, self.total_comparisons);
                put_u64(&mut p, self.total_assignments);
                put_bytes(&mut p, self.config.to_json_string().as_bytes());
            }
            SECTION_MEMBERS => {
                let (members, _, _) = self.blocks.raw_parts();
                put_u32(&mut p, members.len() as u32);
                for e in members {
                    put_u32(&mut p, e.0);
                }
            }
            SECTION_OFFSETS => {
                let (_, offsets, _) = self.blocks.raw_parts();
                put_u32_slice(&mut p, offsets);
            }
            SECTION_TOK_OFFSETS => {
                put_u32_slice(&mut p, self.tokens.offsets());
            }
            SECTION_TOK_BLOB => {
                put_bytes(&mut p, self.tokens.text().as_bytes());
            }
            SECTION_BLOCKKEYS => {
                put_u32_slice(&mut p, &self.block_keys);
            }
            _ => unreachable!("encode_section called with undefined id {id}"),
        }
        p
    }

    /// Writes the encoded snapshot to `path`, replacing whatever is there
    /// in one step ([`write_atomic`]).
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        Ok(write_atomic(path, &self.to_bytes())?)
    }
}

/// Replaces the file at `path` with `bytes`, all or nothing: the bytes go to
/// a temporary sibling in the same directory, are synced to disk, and only
/// then renamed over `path`, and the directory is synced after that (best
/// effort; not every filesystem lets a directory be opened for it).
///
/// A crash or a full disk part-way leaves the old file whole — which is
/// what lets `er snapshot apply` rewrite its own input — and a reader that
/// opens `path` at any moment (a `--trigger` reload) sees one complete
/// image, old or new. On any error the temporary is removed and `path` is
/// untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    // Told apart per process and per call: concurrent writers to one
    // destination never share a temporary.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "destination has no file name")
    })?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let (pid, call) = (std::process::id(), CALLS.fetch_add(1, Ordering::Relaxed));
    let tmp = dir.join(format!(".{}.{pid}-{call}.tmp", name.to_string_lossy()));
    let written =
        std::fs::OpenOptions::new().write(true).create_new(true).open(&tmp).and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Frames finished section payloads into the canonical byte layout:
/// header, table, then payloads contiguously, each 8-aligned and
/// zero-padded, with wide-FNV checksums over the padded regions. Callers
/// pass the six canonical sections in order, optionally followed by any
/// number of [`SECTION_DELTA`] runs, each borrowed from wherever it lives.
pub(crate) fn frame_sections(payloads: &[(u32, &[u8])]) -> Vec<u8> {
    let table_end = HEADER_LEN + payloads.len() * TABLE_ENTRY_LEN;
    let total: usize = table_end + payloads.iter().map(|(_, p)| padded_len(p.len())).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, payloads.len() as u32);
    // Table pass: offsets are derivable up front because payloads are
    // contiguous in canonical order. Checksums are written in the payload
    // pass.
    let mut offset = table_end;
    for &(id, p) in payloads {
        put_u32(&mut out, id);
        put_u32(&mut out, 0); // reserved
        put_u64(&mut out, offset as u64);
        put_u64(&mut out, p.len() as u64);
        put_u64(&mut out, 0); // checksum
        offset += padded_len(p.len());
    }
    // Payload pass: each section is padded where it lands in `out` and
    // checksummed there, into the last field of its table entry.
    for (entry, &(_, p)) in payloads.iter().enumerate() {
        let start = out.len();
        out.extend_from_slice(p);
        out.resize(start + padded_len(p.len()), 0);
        let checksum = out.get(start..).map_or(0, fnv1a_wide);
        let field = HEADER_LEN + (entry + 1) * TABLE_ENTRY_LEN - 8;
        if let Some(field) = out.get_mut(field..field + 8) {
            field.copy_from_slice(&checksum.to_le_bytes());
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn older_magics_report_unsupported_version() {
        for (magic, version) in
            [(b"MBSNAP01", 1), (b"MBSNAP02", 2), (b"MBSNAP03", 3), (b"MBSNAP04", 4)]
        {
            let err = classify_magic(magic);
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion { found, supported: 5 }
                    if found == version),
                "{err:?}"
            );
        }
    }

    #[test]
    fn foreign_magic_is_bad_magic() {
        assert!(matches!(classify_magic(b"NOTSNAP!"), SnapshotError::BadMagic));
        assert!(matches!(classify_magic(b"MBSNAPxy"), SnapshotError::BadMagic));
    }

    #[test]
    fn frame_sections_aligns_and_pads() {
        let payloads: [(u32, &[u8]); 3] = [(1, &[0xAB; 3]), (2, &[0xCD; 8]), (3, &[])];
        let buf = frame_sections(&payloads);
        // Header + 3 table entries, then 8 + 8 + 0 payload bytes.
        let table_end = HEADER_LEN + 3 * TABLE_ENTRY_LEN;
        assert_eq!(buf.len(), table_end + 8 + 8);
        // First payload starts right after the table, padded with zeros.
        assert_eq!(&buf[table_end..table_end + 3], &[0xAB; 3]);
        assert_eq!(&buf[table_end + 3..table_end + 8], &[0u8; 5]);
        // Each table entry ends in the checksum of its padded region.
        let regions: [&[u8]; 3] = [&[0xAB, 0xAB, 0xAB, 0, 0, 0, 0, 0], &[0xCD; 8], &[]];
        for (entry, region) in regions.iter().enumerate() {
            let field = HEADER_LEN + (entry + 1) * TABLE_ENTRY_LEN - 8;
            assert_eq!(buf[field..field + 8], fnv1a_wide(region).to_le_bytes(), "entry {entry}");
        }
    }

    use er_model::EntityProfile;

    /// A deterministic collection: `n` profiles, each with a handful of
    /// shared tokens so blocks of several sizes (and dropped singletons)
    /// occur.
    fn sample_collection(n: u32, clean_clean: bool) -> EntityCollection {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut profiles = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut value = String::new();
            for _ in 0..6 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // ~n/2 distinct tokens: plenty of sharing, plenty of
                // singletons.
                value.push_str(&format!("t{} ", x % u64::from(n / 2 + 1)));
            }
            value.push_str(&format!("unique{i}"));
            profiles.push(EntityProfile::new(format!("p{i}")).with("v", value));
        }
        if clean_clean {
            let right = profiles.split_off(profiles.len() / 3);
            EntityCollection::clean_clean(profiles, right)
        } else {
            EntityCollection::dirty(profiles)
        }
    }

    #[test]
    fn write_to_replaces_the_file_instead_of_truncating_it_in_place() {
        use std::io::Read;
        let dir = std::env::temp_dir().join(format!("er_atomic_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.mbsnap");
        let config = PipelineConfig::default();
        let a = Snapshot::build(&sample_collection(40, false), config).unwrap();
        let b = Snapshot::build(&sample_collection(90, true), config).unwrap();
        assert_ne!(a.to_bytes(), b.to_bytes());

        a.write_to(&path).unwrap();
        // A reader that opened the file before the rewrite — a `--trigger`
        // reload in flight — keeps reading the complete old image.
        let mut open_before = std::fs::File::open(&path).unwrap();
        b.write_to(&path).unwrap();
        let mut seen = Vec::new();
        open_before.read_to_end(&mut seen).unwrap();
        assert!(seen == a.to_bytes(), "the open handle saw a torn or truncated image");
        assert!(std::fs::read(&path).unwrap() == b.to_bytes());
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["index.mbsnap"], "a temporary was left behind");

        // A destination whose directory does not exist: the error comes
        // back and nothing is created.
        let missing = dir.join("no-such-dir");
        assert!(matches!(a.write_to(&missing.join("x.mbsnap")), Err(SnapshotError::Io(_))));
        assert!(!missing.exists());
        assert!(write_atomic(Path::new("/"), b"").is_err(), "no file name to replace");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
