//! Round-trip and corruption property tests for the snapshot codec.
//!
//! The contract under test: encoding is deterministic, the loader
//! ([`SnapshotView::from_bytes`]) reads back exactly what was built, and
//! *every* malformed input — truncations, bit flips, forged tables,
//! misaligned sections, checksum-valid-but-inconsistent payloads, files
//! from other format versions — fails with a typed [`SnapshotError`], never
//! a panic and never an unbounded allocation. The one size no section
//! bounds, the declared `|E|`, sizes the entity index load derives; a
//! population the process cannot index is a typed error too.

use er_datagen::presets;
use er_model::{EntityCollection, EntityId, EntityIndex, EntityProfile};
use mb_core::{Noop, PipelineConfig, PruningScheme, Retention, WeightingScheme};
use mb_serve::{
    CandidateRequest, DeltaOp, GenerationCell, QueryEngine, Snapshot, SnapshotError,
    SnapshotHeader, SnapshotView, APPEND, FORMAT_VERSION, MAGIC,
};

fn config(weighting: WeightingScheme, filter_ratio: Option<f64>) -> PipelineConfig {
    PipelineConfig { weighting, filter_ratio, ..PipelineConfig::default() }
}

fn cc_collection(seed: u64) -> EntityCollection {
    presets::build(&presets::tiny(seed)).unwrap().collection
}

fn dirty_collection(seed: u64) -> EntityCollection {
    presets::build(&presets::tiny(seed)).unwrap().into_dirty().collection
}

/// A small but non-trivial snapshot used by the corruption tests.
fn small_snapshot() -> Snapshot {
    let e = EntityCollection::dirty(vec![
        EntityProfile::new("p1").with("name", "jack miller"),
        EntityProfile::new("p2").with("fullname", "jack lloyd miller"),
        EntityProfile::new("p3").with("n", "erick lloyd vendor"),
        EntityProfile::new("p4").with("n", "erick green vendor car"),
    ]);
    Snapshot::build(&e, config(WeightingScheme::Cbs, None)).unwrap()
}

// --- little-endian helpers mirroring the file format, local to the tests --

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 32;
const NUM_SECTIONS: usize = 6;
const TABLE_END: usize = HEADER_LEN + NUM_SECTIONS * TABLE_ENTRY_LEN;

const META: u32 = 1;
const MEMBERS: u32 = 2;
const OFFSETS: u32 = 3;
const TOK_OFFSETS: u32 = 4;
const TOK_BLOB: u32 = 5;
const BLOCKKEYS: u32 = 6;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Four-lane word-wise FNV-1a 64 over an 8-padded region — the section
/// checksum. Words go round-robin into four independent FNV lanes; the
/// digest folds the lane states together in lane order.
fn fnv1a_wide(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [OFFSET; 4];
    for (i, c) in bytes.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        lanes[i % 4] = (lanes[i % 4] ^ w).wrapping_mul(PRIME);
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    h
}

/// Byte offset of section-table entry `i` (0-based).
fn entry_at(i: usize) -> usize {
    HEADER_LEN + i * TABLE_ENTRY_LEN
}

/// Splits an encoded snapshot into `(id, unpadded payload)` sections,
/// verifying the table and checksums mirror the format contract.
fn parse_frame(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    assert_eq!(&bytes[..8], &MAGIC);
    assert_eq!(u32_at(bytes, 8), FORMAT_VERSION);
    let count = u32_at(bytes, 12) as usize;
    assert_eq!(count, NUM_SECTIONS);
    let mut sections = Vec::new();
    for i in 0..count {
        let at = entry_at(i);
        let id = u32_at(bytes, at);
        assert_eq!(u32_at(bytes, at + 4), 0, "reserved field must be zero");
        let offset = u64_at(bytes, at + 8) as usize;
        let len = u64_at(bytes, at + 16) as usize;
        let checksum = u64_at(bytes, at + 24);
        assert_eq!(offset % 8, 0, "section {id} payload must be 8-aligned");
        let region = &bytes[offset..offset + pad8(len)];
        assert_eq!(fnv1a_wide(region), checksum);
        assert!(region[len..].iter().all(|&b| b == 0), "padding must be zero");
        sections.push((id, region[..len].to_vec()));
    }
    sections
}

/// Re-frames sections (with correct offsets and checksums) into a file.
fn build_frame(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * TABLE_ENTRY_LEN;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = table_end;
    for (id, payload) in sections {
        let mut region = payload.clone();
        region.resize(pad8(payload.len()), 0);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_wide(&region).to_le_bytes());
        offset += region.len();
    }
    for (_, payload) in sections {
        let start = out.len();
        out.extend_from_slice(payload);
        out.resize(start + pad8(payload.len()), 0);
    }
    out
}

/// The payload of `section` within parsed `sections`.
fn payload(sections: &mut [(u32, Vec<u8>)], section: u32) -> &mut Vec<u8> {
    &mut sections.iter_mut().find(|(id, _)| *id == section).unwrap().1
}

/// Loads `snapshot`'s encoding with section payloads mutated, checksums
/// fixed up so the corruption reaches the loader instead of the checksum
/// gate.
fn view_with_sections(
    snapshot: &Snapshot,
    mutate: impl FnOnce(&mut Vec<(u32, Vec<u8>)>),
) -> Result<SnapshotView, SnapshotError> {
    let mut sections = parse_frame(&snapshot.to_bytes());
    mutate(&mut sections);
    SnapshotView::from_bytes(build_frame(&sections))
}

/// [`view_with_sections`] for a mutation confined to one section.
fn view_with(
    snapshot: &Snapshot,
    section: u32,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Result<SnapshotView, SnapshotError> {
    view_with_sections(snapshot, |sections| mutate(payload(sections, section)))
}

/// A `u32`-count-prefixed array payload, decoded.
fn u32s_of(payload: &[u8]) -> Vec<u32> {
    (0..u32_at(payload, 0) as usize).map(|i| u32_at(payload, 4 + 4 * i)).collect()
}

/// The inverse of [`u32s_of`].
fn u32_payload(values: &[u32]) -> Vec<u8> {
    let mut out = (values.len() as u32).to_le_bytes().to_vec();
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

// --- round-trip stability -------------------------------------------------

#[test]
fn roundtrip_is_bit_identical_across_kinds_and_configs() {
    let cases: Vec<(EntityCollection, PipelineConfig)> = vec![
        (dirty_collection(7), config(WeightingScheme::Cbs, None)),
        (dirty_collection(8), config(WeightingScheme::Ejs, Some(0.5))),
        (cc_collection(9), config(WeightingScheme::Js, None)),
        (cc_collection(10), config(WeightingScheme::Arcs, Some(0.8))),
        (
            cc_collection(11),
            PipelineConfig {
                weighting: WeightingScheme::Ecbs,
                pruning: PruningScheme::Cnp,
                filter_ratio: Some(0.6),
                threads: 4,
                ..PipelineConfig::default()
            },
        ),
    ];
    for (collection, cfg) in cases {
        let snapshot = Snapshot::build(&collection, cfg).unwrap();
        let bytes = snapshot.to_bytes();
        let rebuilt = Snapshot::build(&collection, cfg).unwrap();
        assert_eq!(rebuilt.to_bytes(), bytes, "build + encode must be deterministic");

        // The loader accepts the bytes and reads back every scalar and
        // every array exactly as built, and derives the splits and the
        // entity index the build would.
        let view = SnapshotView::from_bytes(bytes.clone()).unwrap();
        assert_eq!(view.file_len(), bytes.len());
        assert_eq!(view.kind(), snapshot.kind());
        assert_eq!(view.num_entities(), snapshot.num_entities());
        assert_eq!(view.split(), snapshot.split());
        assert_eq!(view.num_blocks(), snapshot.blocks().size());
        assert_eq!(view.num_tokens(), snapshot.tokens().len());
        assert_eq!(view.cnp_threshold(), snapshot.cnp_threshold());
        assert_eq!(view.cep_threshold(), snapshot.cep_threshold());
        assert_eq!(view.total_comparisons(), snapshot.total_comparisons());
        assert_eq!(view.total_assignments(), snapshot.total_assignments());
        assert_eq!(view.config(), snapshot.config());
        for (id, token) in snapshot.tokens().iter().enumerate() {
            assert_eq!(view.token_bytes(id as u32), token.as_bytes());
            assert_eq!(view.find_token(token.as_bytes()), Some(id as u32));
        }
        assert_eq!(view.block_keys().to_vec(), snapshot.block_keys());
        let (members, offsets, splits) = snapshot.blocks().raw_parts();
        assert_eq!(view.members().to_vec(), members.iter().map(|e| e.0).collect::<Vec<_>>());
        assert_eq!(view.offsets().to_vec(), offsets);
        assert_eq!(view.splits().to_vec(), splits);
        assert_eq!(view.index().raw_parts(), EntityIndex::build(snapshot.blocks()).raw_parts());
    }
}

#[test]
fn empty_and_one_sided_collections_roundtrip() {
    // No shared token => zero blocks.
    let disjoint = EntityCollection::dirty(vec![
        EntityProfile::new("a").with("x", "alpha"),
        EntityProfile::new("b").with("y", "beta"),
    ]);
    // Clean-Clean with an empty second side can never share cross-side
    // tokens either.
    let one_sided = EntityCollection::clean_clean(
        vec![EntityProfile::new("a").with("x", "alpha beta")],
        vec![],
    );
    for collection in [disjoint, one_sided] {
        let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
        assert_eq!(snapshot.blocks().size(), 0);
        let view = SnapshotView::from_bytes(snapshot.to_bytes()).unwrap();
        assert_eq!(view.num_blocks(), 0);
    }
}

/// xorshift64: the seeded stream the absent-string sweep draws from.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn find_token_returns_exactly_the_vocabulary() {
    let collection = cc_collection(12);
    let snapshot = Snapshot::build(&collection, config(WeightingScheme::Js, Some(0.8))).unwrap();
    let view = SnapshotView::from_bytes(snapshot.to_bytes()).unwrap();
    let ids: std::collections::HashMap<&str, u32> =
        snapshot.tokens().iter().enumerate().map(|(id, token)| (token, id as u32)).collect();
    assert_eq!(ids.len(), view.num_tokens(), "fixture vocabulary is duplicate-free");
    assert!(ids.len() > 1_000);
    let expect = |s: &[u8]| std::str::from_utf8(s).ok().and_then(|s| ids.get(s).copied());

    assert_eq!(view.find_token(b""), None);
    for (&token, &id) in &ids {
        let bytes = token.as_bytes();
        assert_eq!(view.find_token(bytes), Some(id), "token {token:?}");
        // Every proper prefix, and the token grown by one byte, is found
        // only if it is a token in its own right.
        for len in 1..bytes.len() {
            assert_eq!(
                view.find_token(&bytes[..len]),
                expect(&bytes[..len]),
                "prefix of {token:?}"
            );
        }
        for extra in [b'a', b'0', 0u8] {
            let grown = [bytes, &[extra]].concat();
            assert_eq!(view.find_token(&grown), expect(&grown), "{token:?} + {extra:#x}");
        }
    }
    // Seeded strings over the vocabulary's own alphabet, 1–12 bytes.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut absent = 0;
    while absent < 1_000 {
        let len = 1 + next(&mut x) % 12;
        let s: Vec<u8> = (0..len)
            .map(|_| b"abcdefghijklmnopqrstuvwxyz0123456789"[(next(&mut x) % 36) as usize])
            .collect();
        let want = expect(&s);
        assert_eq!(view.find_token(&s), want, "{:?}", String::from_utf8_lossy(&s));
        absent += want.is_none() as usize;
    }
}

#[test]
fn a_snapshot_without_tokens_loads_and_finds_nothing() {
    // The empty collection a stream of arrivals starts from
    // (`examples/incremental_stream.rs`): no token, no block, a lookup table
    // of one vacant slot.
    for collection in
        [EntityCollection::dirty(vec![]), EntityCollection::clean_clean(vec![], vec![])]
    {
        let snapshot = Snapshot::build(&collection, PipelineConfig::default()).unwrap();
        let view = SnapshotView::try_from(snapshot).unwrap();
        assert_eq!((view.num_tokens(), view.num_blocks()), (0, 0));
        for probe in [&b""[..], b"a", b"jack", &[0u8; 64]] {
            assert_eq!(view.find_token(probe), None);
        }
    }
}

#[test]
fn overlay_tokens_resolve_after_the_base_lookup_misses() {
    // "quartz" is in no base profile, so `find_token` misses it for good;
    // two appended profiles carrying it promote an overlay block, and a
    // probe reaches that block through the overlay's vocabulary extension.
    let cell = GenerationCell::new(small_snapshot()).unwrap();
    for uri in ["q1", "q2"] {
        let profile = EntityProfile::new(uri).with("n", "quartz");
        cell.apply(DeltaOp::Upsert { id: APPEND, profile }, &mut Noop).unwrap();
    }
    let generation = cell.load();
    assert_eq!(generation.view().find_token(b"quartz"), None);
    assert!(generation.view().find_token(b"jack").is_some());
    let mut engine = QueryEngine::from_generation(&generation);
    let probe = |engine: &mut QueryEngine<'_>, text: &str| -> Vec<u32> {
        let request = CandidateRequest::probe(EntityProfile::new("probe").with("n", text), true)
            .with_retention(Retention::TopK(usize::MAX));
        let response = engine.execute(&request, &mut Noop).unwrap();
        let mut ids: Vec<u32> =
            response.first().unwrap().candidates.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(probe(&mut engine, "quartz"), [4, 5]);
    // Base and extension tokens in one probe: "jack" blocks {0, 1}.
    assert_eq!(probe(&mut engine, "jack quartz"), [0, 1, 4, 5]);
    assert_eq!(probe(&mut engine, "quart quartzz"), [] as [u32; 0]);
}

#[test]
fn header_reports_the_canonical_aligned_table() {
    let bytes = small_snapshot().to_bytes();
    let header = SnapshotHeader::from_bytes(&bytes).unwrap();
    assert_eq!(header.version, FORMAT_VERSION);
    assert_eq!(header.file_len, bytes.len() as u64);
    assert_eq!(header.sections.len(), NUM_SECTIONS);
    let mut expected = TABLE_END as u64;
    for (i, s) in header.sections.iter().enumerate() {
        assert_eq!(s.id, i as u32 + 1, "ids must be canonical");
        assert_eq!(s.offset % 8, 0, "payloads must be 8-aligned");
        assert_eq!(s.offset, expected, "payloads must be contiguous");
        assert_eq!(s.padded_len, pad8(s.len as usize) as u64);
        // The recorded checksum is the wide FNV of the padded region.
        let region = &bytes[s.offset as usize..(s.offset + s.padded_len) as usize];
        assert_eq!(s.checksum, fnv1a_wide(region));
        expected += s.padded_len;
    }
    assert_eq!(expected, header.file_len, "sections must cover the file exactly");
}

// --- corruption: every byte matters ---------------------------------------

#[test]
fn every_flipped_byte_fails_with_a_typed_error() {
    let bytes = small_snapshot().to_bytes();
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0xff;
        // Calling through — any panic fails the test; any Ok means a
        // corrupted file was silently accepted.
        let err = SnapshotView::from_bytes(bad)
            .err()
            .unwrap_or_else(|| panic!("flipping byte {at} was not detected"));
        // Every variant has a Display line; render it to exercise them all.
        let _ = err.to_string();
    }
}

#[test]
fn every_truncated_prefix_fails_with_a_typed_error() {
    let bytes = small_snapshot().to_bytes();
    for len in 0..bytes.len() {
        assert!(
            SnapshotView::from_bytes(bytes[..len].to_vec()).is_err(),
            "prefix of {len} bytes must not load"
        );
    }
}

/// Runs `tamper` over a fresh copy of `bytes` and asserts the loader reports
/// an error matching `check`.
fn assert_rejects(
    bytes: &[u8],
    tamper: impl Fn(&mut Vec<u8>),
    check: impl Fn(&SnapshotError) -> bool,
    what: &str,
) {
    let mut bad = bytes.to_vec();
    tamper(&mut bad);
    let err = SnapshotView::from_bytes(bad).unwrap_err();
    assert!(check(&err), "{what}: got {err:?}");
}

#[test]
fn frame_level_errors_are_typed() {
    let bytes = small_snapshot().to_bytes();

    assert_rejects(
        &bytes,
        |b| b[0] = b'X',
        |e| matches!(e, SnapshotError::BadMagic),
        "foreign magic",
    );
    assert!(matches!(SnapshotView::from_bytes(Vec::new()), Err(SnapshotError::BadMagic)));

    // A version-1 file: same MBSNAP family, older layout. Rejected from the
    // magic alone — the reader never guesses at the old framing.
    assert_rejects(
        &bytes,
        |b| b[..8].copy_from_slice(b"MBSNAP01"),
        |e| {
            matches!(e, SnapshotError::UnsupportedVersion { found: 1, supported }
                if *supported == FORMAT_VERSION)
        },
        "v1 magic",
    );

    // The previous generation, told apart both ways: by its magic, and — a
    // file that kept the current magic — by the header's version field. It
    // persisted the splits and the entity index this reader derives; it is
    // refused whole, not read around.
    assert_rejects(
        &bytes,
        |b| b[..8].copy_from_slice(b"MBSNAP04"),
        |e| matches!(e, SnapshotError::UnsupportedVersion { found: 4, supported: 5 }),
        "v4 magic",
    );
    assert_rejects(
        &bytes,
        |b| b[8..12].copy_from_slice(&4u32.to_le_bytes()),
        |e| matches!(e, SnapshotError::UnsupportedVersion { found: 4, supported: 5 }),
        "v4 version field",
    );
    assert_rejects(
        &bytes,
        |b| b[..8].copy_from_slice(b"MBSNAP03"),
        |e| matches!(e, SnapshotError::UnsupportedVersion { found: 3, supported: 5 }),
        "v3 magic",
    );

    // A future version stamped in the header's version field.
    assert_rejects(
        &bytes,
        |b| b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes()),
        |e| {
            matches!(e, SnapshotError::UnsupportedVersion { found, supported }
                if *found == FORMAT_VERSION + 1 && *supported == FORMAT_VERSION)
        },
        "future version",
    );

    // A wrong section count.
    assert_rejects(
        &bytes,
        |b| b[12..16].copy_from_slice(&(NUM_SECTIONS as u32 - 1).to_le_bytes()),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "wrong section count",
    );

    // An id the format does not define, in the first table slot.
    assert_rejects(
        &bytes,
        |b| b[entry_at(0)..entry_at(0) + 4].copy_from_slice(&99u32.to_le_bytes()),
        |e| matches!(e, SnapshotError::UnknownSection { id: 99 }),
        "unknown section id",
    );

    // Known sections out of canonical order.
    assert_rejects(
        &bytes,
        |b| {
            b[entry_at(0)..entry_at(0) + 4].copy_from_slice(&MEMBERS.to_le_bytes());
            b[entry_at(1)..entry_at(1) + 4].copy_from_slice(&META.to_le_bytes());
        },
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "reordered sections",
    );

    // A nonzero reserved field.
    assert_rejects(
        &bytes,
        |b| b[entry_at(2) + 4..entry_at(2) + 8].copy_from_slice(&1u32.to_le_bytes()),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "nonzero reserved field",
    );

    // A section whose declared length overruns the file reports how much is
    // missing rather than reading out of bounds.
    assert_rejects(
        &bytes,
        |b| b[entry_at(3) + 16..entry_at(3) + 24].copy_from_slice(&u64::MAX.to_le_bytes()),
        |e| matches!(e, SnapshotError::Truncated { section: "tokoffsets", .. }),
        "length overrun",
    );

    // Garbage after the last section's padded payload.
    assert_rejects(
        &bytes,
        |b| b.extend_from_slice(&[0u8; 8]),
        |e| matches!(e, SnapshotError::TrailingBytes { section: "frame", bytes: 8 }),
        "trailing frame bytes",
    );
}

#[test]
fn misaligned_and_displaced_sections_are_rejected() {
    let bytes = small_snapshot().to_bytes();

    // An offset that breaks the 8-byte alignment guarantee — the exact
    // property the loader borrows arrays on.
    assert_rejects(
        &bytes,
        |b| {
            let at = entry_at(1) + 8;
            let offset = u64_at(b, at) + 4;
            b[at..at + 8].copy_from_slice(&offset.to_le_bytes());
        },
        |e| matches!(e, SnapshotError::Misaligned { section: "members", offset: _ }),
        "misaligned offset",
    );

    // Aligned but displaced: payloads must be contiguous in table order.
    assert_rejects(
        &bytes,
        |b| {
            let at = entry_at(1) + 8;
            let offset = u64_at(b, at) + 8;
            b[at..at + 8].copy_from_slice(&offset.to_le_bytes());
        },
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "displaced offset",
    );
}

#[test]
fn checksum_and_padding_violations_are_rejected() {
    let bytes = small_snapshot().to_bytes();
    let header = SnapshotHeader::from_bytes(&bytes).unwrap();

    // A payload byte flip behind an unpatched checksum names the section.
    let meta = &header.sections[0];
    assert_rejects(
        &bytes,
        |b| b[meta.offset as usize] ^= 0xff,
        |e| matches!(e, SnapshotError::ChecksumMismatch { section: "meta" }),
        "payload flip",
    );

    // A nonzero padding byte with a *recomputed* checksum still fails: the
    // format pins padding to zero so encoding stays canonical.
    let padded = header.sections.iter().find(|s| s.len < s.padded_len).unwrap();
    let (start, len, padded_len) =
        (padded.offset as usize, padded.len as usize, padded.padded_len as usize);
    let entry = entry_at(padded.id as usize - 1);
    assert_rejects(
        &bytes,
        |b| {
            b[start + len] = 1;
            let sum = fnv1a_wide(&b[start..start + padded_len]);
            b[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        },
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "nonzero padding",
    );
}

#[test]
fn checksum_valid_payload_corruption_is_still_detected() {
    let snapshot = small_snapshot();
    let inconsistent = |r: Result<SnapshotView, SnapshotError>, what: &str| {
        let err = r.err().unwrap_or_else(|| panic!("{what} was accepted"));
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "{what}: got {err:?}");
    };
    // Byte offset of each token within the blob, plus the blob's length.
    let tok_offsets = u32s_of(payload(&mut parse_frame(&snapshot.to_bytes()), TOK_OFFSETS));

    // A members-vector claiming u32::MAX entries must fail on the declared
    // length, not attempt a 16 GiB allocation.
    let big_count = |p: &mut Vec<u8>| p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = view_with(&snapshot, MEMBERS, big_count).unwrap_err();
    assert!(matches!(err, SnapshotError::Truncated { section: "members", .. }));

    // Trailing garbage after a fully-decoded payload.
    let err = view_with(&snapshot, BLOCKKEYS, |p| p.push(0)).unwrap_err();
    assert!(matches!(err, SnapshotError::TrailingBytes { section: "blockkeys", bytes: 1 }));

    // A non-UTF-8 token byte: probe lookups compare bytes, but the
    // vocabulary is text and the loader holds it to that.
    let err = view_with(&snapshot, TOK_BLOB, |p| {
        *p.last_mut().unwrap() = 0xff;
    })
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Utf8 { section: "tokblob" }));

    // A blob that is valid UTF-8 as a whole, but with a token boundary
    // splitting a two-byte character.
    let err = view_with(&snapshot, TOK_BLOB, |p| {
        let at = 4 + tok_offsets[1] as usize;
        p[at - 1..at + 1].copy_from_slice("é".as_bytes());
    })
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Utf8 { section: "tokblob" }), "split char: {err:?}");

    // An undefined ER-kind tag.
    inconsistent(view_with(&snapshot, META, |p| p[0] = 7), "unknown ER kind");

    // A Dirty snapshot must have split == |E|.
    let short_split = |p: &mut Vec<u8>| {
        let split = u64_at(p, 16) - 1;
        p[16..24].copy_from_slice(&split.to_le_bytes());
    };
    inconsistent(view_with(&snapshot, META, short_split), "Dirty split below |E|");

    // Tampered persisted thresholds disagree with the collection.
    let bump_cnp = |p: &mut Vec<u8>| {
        let cnp = u64_at(p, 24) + 1;
        p[24..32].copy_from_slice(&cnp.to_le_bytes());
    };
    inconsistent(view_with(&snapshot, META, bump_cnp), "bumped CNP threshold");

    // A persisted configuration that parses but does not validate.
    let filtered =
        Snapshot::build(&dirty_collection(8), config(WeightingScheme::Ejs, Some(0.5))).unwrap();
    let err = view_with(&filtered, META, |p| {
        let at = p.windows(3).rposition(|w| w == b"0.5").expect("filter ratio in the config JSON");
        p[at] = b'2';
    })
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Config(_)), "filter ratio 2.5: {err:?}");

    // Block keys: one pointing at a u32::MAX-adjacent token id, one missing,
    // two blocks claiming the same token.
    let wild_key = |p: &mut Vec<u8>| p[4..8].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
    inconsistent(view_with(&snapshot, BLOCKKEYS, wild_key), "wild block key");
    let drop_key = |p: &mut Vec<u8>| {
        let mut keys = u32s_of(p);
        keys.pop();
        *p = u32_payload(&keys);
    };
    inconsistent(view_with(&snapshot, BLOCKKEYS, drop_key), "missing block key");
    let twin_key = |p: &mut Vec<u8>| p.copy_within(4..8, 8);
    inconsistent(view_with(&snapshot, BLOCKKEYS, twin_key), "duplicate block key");

    // An empty token (two equal adjacent offsets) cannot survive the
    // offset-delimited blob layout.
    let empty_token = |p: &mut Vec<u8>| p.copy_within(4..8, 8);
    inconsistent(view_with(&snapshot, TOK_OFFSETS, empty_token), "empty token");

    // A duplicated vocabulary entry: overwrite one token with the bytes of
    // another of the same length. The loader meets the twin while seating
    // the vocabulary into its lookup table.
    let tokens: Vec<&str> = snapshot.tokens().iter().collect();
    let (a, b) = (0..tokens.len())
        .flat_map(|a| (a + 1..tokens.len()).map(move |b| (a, b)))
        .find(|&(a, b)| tokens[a].len() == tokens[b].len())
        .expect("fixture has two tokens of equal length");
    let twin_token = |p: &mut Vec<u8>| {
        let (from, to, len) =
            (4 + tok_offsets[a] as usize, 4 + tok_offsets[b] as usize, tokens[a].len());
        p.copy_within(from..from + len, to);
    };
    inconsistent(view_with(&snapshot, TOK_BLOB, twin_token), "duplicate token");

    // A structurally-invalid arena: the offsets table must start at 0.
    let shift_offsets = |p: &mut Vec<u8>| p[4..8].copy_from_slice(&1u32.to_le_bytes());
    inconsistent(view_with(&snapshot, OFFSETS, shift_offsets), "shifted block offsets");
}

#[test]
fn a_zero_member_block_never_panics() {
    // A hostile Dirty file with one empty block appended: an extra
    // offsets/blockkeys entry under a token no block uses yet. The
    // Dirty cardinality `m * (m - 1) / 2` must not underflow at `m == 0` —
    // a typed error or a clean accept whose queries run, in debug and
    // release alike.
    let snapshot = small_snapshot();
    let fresh = (0..snapshot.tokens().len() as u32)
        .find(|t| !snapshot.block_keys().contains(t))
        .expect("fixture has a token whose block was dropped");
    let loaded = view_with_sections(&snapshot, |sections| {
        for (section, value) in [(OFFSETS, None), (BLOCKKEYS, Some(fresh))] {
            let p = payload(sections, section);
            let mut values = u32s_of(p);
            values.push(value.unwrap_or(snapshot.total_assignments() as u32));
            *p = u32_payload(&values);
        }
    });
    if let Ok(view) = loaded {
        assert_eq!(view.num_blocks(), snapshot.blocks().size() + 1);
        let mut engine = QueryEngine::from_view(&view);
        for id in 0..view.num_entities() as u32 {
            engine.execute(&CandidateRequest::entity(EntityId(id)), &mut Noop).unwrap();
        }
        let probe = EntityProfile::new("probe").with("n", snapshot.tokens().get(fresh));
        let response = engine.execute(&CandidateRequest::probe(probe, true), &mut Noop).unwrap();
        assert!(response.first().unwrap().candidates.is_empty());
    }
}

#[test]
fn wild_mid_table_offsets_and_swapped_run_interiors_are_typed_errors() {
    let snapshot = small_snapshot();
    let view = SnapshotView::from_bytes(snapshot.to_bytes()).unwrap();

    // A mid-table offset vaulting far past its pool. Monotonicity alone
    // only notices one bracket later — the walk must bounds-check the high
    // end *before* touching the pool, or a hostile table turns into an
    // out-of-bounds slice instead of an error.
    let wild = (view.members().len() as u32 + 1000).to_le_bytes();
    let vault = |p: &mut Vec<u8>| p[8..12].copy_from_slice(&wild);
    let err = view_with(&snapshot, OFFSETS, vault).unwrap_err();
    assert!(matches!(err, SnapshotError::Inconsistent(_)), "wild offset: {err:?}");

    // Swapping two members inside one block run breaks strict ascension in
    // the run's *interior* — exactly the case the boundary-descent
    // reconciliation must distinguish from a legal descent between runs.
    let offs = view.offsets();
    let k = (0..view.num_blocks())
        .find(|&k| offs.get(k + 1) - offs.get(k) >= 2)
        .expect("fixture has a block with two members");
    let at = 4 + offs.get(k) as usize * 4;
    let swap_pair = move |p: &mut Vec<u8>| {
        let (a, b) = (u32_at(p, at), u32_at(p, at + 4));
        p[at..at + 4].copy_from_slice(&b.to_le_bytes());
        p[at + 4..at + 8].copy_from_slice(&a.to_le_bytes());
    };
    let err = view_with(&snapshot, MEMBERS, swap_pair).unwrap_err();
    assert!(matches!(err, SnapshotError::Inconsistent(_)), "members swap: {err:?}");
}

#[test]
fn clean_clean_runs_that_descend_or_leave_the_collection_are_refused() {
    // Both corruptions keep every count the loader recomputes: the side
    // sizes, hence the derived split and ‖B‖, and Σ|b|. Only the run order
    // and the member range tell them from a sound file.
    let snapshot = Snapshot::build(&cc_collection(9), config(WeightingScheme::Js, None)).unwrap();
    let blocks = snapshot.blocks();
    let (_, offsets, splits) = blocks.raw_parts();
    let inconsistent = |r: Result<SnapshotView, SnapshotError>, what: &str| {
        let err = r.err().unwrap_or_else(|| panic!("{what} was accepted"));
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "{what}: got {err:?}");
    };

    // A run that descends at its side boundary: side 2 moved in front of
    // side 1, each side still ascending.
    let k = (0..blocks.size())
        .find(|&k| blocks.block(k).left().len() >= 2 && !blocks.block(k).right().is_empty())
        .expect("fixture has a block with two E1 members and an E2 member");
    let (lo, sp, hi) = (offsets[k] as usize, splits[k] as usize, offsets[k + 1] as usize);
    let sides_swapped = |p: &mut Vec<u8>| p[4 + lo * 4..4 + hi * 4].rotate_left((sp - lo) * 4);
    inconsistent(view_with(&snapshot, MEMBERS, sides_swapped), "sides swapped");

    // A member at |E|: the pool's last member, on side 2 of the last block,
    // so the run still ascends and the split still partitions it.
    let last = blocks.block(blocks.size() - 1);
    assert!(!last.right().is_empty(), "the last block has an E2 member");
    let n = snapshot.num_entities() as u32;
    let past_the_end = |p: &mut Vec<u8>| {
        let at = p.len() - 4;
        p[at..].copy_from_slice(&n.to_le_bytes());
    };
    inconsistent(view_with(&snapshot, MEMBERS, past_the_end), "member at |E|");
}

/// Address-space ceiling, in KiB, under which
/// [`a_population_the_process_cannot_index_is_a_typed_error`] re-runs the
/// test binary: far below the 16 GiB of one `u32::MAX`-entry table.
#[cfg(target_os = "linux")]
const ADDRESS_LIMIT_KIB: u64 = 4 << 20;

#[cfg(target_os = "linux")]
#[test]
fn a_population_the_process_cannot_index_is_a_typed_error() {
    // Meta declares |E|, and nothing else in the file bounds it: a 1 KB
    // file may claim u32::MAX entities, whose entity index load cannot
    // allocate. Load must refuse it with a typed error, not abort. The load
    // runs in a child under an address-space limit, so the refusal does not
    // depend on how much memory the host has.
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {ADDRESS_LIMIT_KIB} && exec \"$0\" \"$@\""))
        .arg(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", "load_a_population_past_the_address_limit"])
        .args(["--test-threads=1", "--nocapture"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("refused |E| = 4294967295"),
        "child {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The child of [`a_population_the_process_cannot_index_is_a_typed_error`];
/// it refuses to run without the address-space limit.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "run by a_population_the_process_cannot_index_is_a_typed_error under a memory limit"]
fn load_a_population_past_the_address_limit() {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let soft = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max address space"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok());
    assert!(
        soft.is_some_and(|bytes| bytes <= ADDRESS_LIMIT_KIB << 10),
        "needs an address-space limit of at most {ADDRESS_LIMIT_KIB} KiB, has {soft:?}"
    );
    // Dirty, so split == |E|; at u32::MAX entities the CNP threshold is 1.
    let huge = |p: &mut Vec<u8>| {
        let n = u64::from(u32::MAX);
        for at in [8, 16] {
            p[at..at + 8].copy_from_slice(&n.to_le_bytes());
        }
        p[24..32].copy_from_slice(&1u64.to_le_bytes());
    };
    let err = view_with(&small_snapshot(), META, huge).expect_err("u32::MAX entities loaded");
    assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err:?}");
    println!("refused |E| = {}: {err}", u32::MAX);
}

// --- write-ahead delta runs: hostile input --------------------------------

const SECTION_DELTA: u32 = 7;
const OP_UPSERT: u8 = 1;
const OP_DELETE: u8 = 2;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn delta_upsert(out: &mut Vec<u8>, id: u32, uri: &str, attrs: &[(&str, &str)]) {
    out.push(OP_UPSERT);
    out.extend_from_slice(&id.to_le_bytes());
    put_str(out, uri);
    out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
    for (name, value) in attrs {
        put_str(out, name);
        put_str(out, value);
    }
}

fn delta_delete(out: &mut Vec<u8>, id: u32) {
    out.push(OP_DELETE);
    out.extend_from_slice(&id.to_le_bytes());
}

/// Frames `small_snapshot` with the given raw delta-run payloads appended
/// as trailing [`SECTION_DELTA`] sections (table and checksums valid, so
/// the payloads reach the delta decoder).
fn with_delta_payloads(runs: &[Vec<u8>]) -> Vec<u8> {
    let mut sections = parse_frame(&small_snapshot().to_bytes());
    for run in runs {
        sections.push((SECTION_DELTA, run.clone()));
    }
    build_frame(&sections)
}

/// A well-formed delta run over the 4-entity `small_snapshot`: one append
/// (id 4) and one tombstone (id 0).
fn valid_delta_run() -> Vec<u8> {
    let mut run = Vec::new();
    run.extend_from_slice(&2u32.to_le_bytes());
    delta_upsert(&mut run, 4, "p5", &[("name", "jack vendor")]);
    delta_delete(&mut run, 0);
    run
}

fn reject_delta(bytes: Vec<u8>, check: impl Fn(&SnapshotError) -> bool, what: &str) {
    let err = SnapshotView::from_bytes(bytes).unwrap_err();
    assert!(check(&err), "{what}: got {err:?}");
}

#[test]
fn delta_carrying_files_load_with_their_runs_decoded() {
    let view = SnapshotView::from_bytes(with_delta_payloads(&[valid_delta_run()])).unwrap();
    assert_eq!(view.delta_runs().len(), 1);
    let profile = EntityProfile::new("p5").with("name", "jack vendor");
    assert_eq!(
        view.delta_runs()[0],
        [DeltaOp::Upsert { id: 4, profile }, DeltaOp::Delete { id: 0 }]
    );
}

#[test]
fn every_flipped_byte_of_a_delta_carrying_file_fails_with_a_typed_error() {
    let bytes = with_delta_payloads(&[valid_delta_run()]);
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0xff;
        let err = SnapshotView::from_bytes(bad)
            .err()
            .unwrap_or_else(|| panic!("flipping byte {at} was not detected"));
        let _ = err.to_string();
    }
}

#[test]
fn every_truncated_prefix_of_a_delta_carrying_file_fails() {
    let bytes = with_delta_payloads(&[valid_delta_run()]);
    for len in 0..bytes.len() {
        assert!(
            SnapshotView::from_bytes(bytes[..len].to_vec()).is_err(),
            "prefix of {len} bytes must not load"
        );
    }
}

#[test]
fn hostile_delta_runs_are_typed_errors() {
    // Tombstone of an entity the file never had.
    let mut run = Vec::new();
    run.extend_from_slice(&1u32.to_le_bytes());
    delta_delete(&mut run, 9);
    reject_delta(
        with_delta_payloads(&[run]),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "tombstone of unknown entity",
    );

    // Overlapping runs: the second run deletes an entity the first already
    // tombstoned.
    let mut first = Vec::new();
    first.extend_from_slice(&1u32.to_le_bytes());
    delta_delete(&mut first, 0);
    let mut second = Vec::new();
    second.extend_from_slice(&1u32.to_le_bytes());
    delta_delete(&mut second, 0);
    reject_delta(
        with_delta_payloads(&[first, second]),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "overlapping delta runs double-deleting",
    );

    // An upsert that skips past the append point leaves an id hole.
    let mut run = Vec::new();
    run.extend_from_slice(&1u32.to_le_bytes());
    delta_upsert(&mut run, 6, "hole", &[]);
    reject_delta(
        with_delta_payloads(&[run]),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "upsert past the append point",
    );

    // The reserved append sentinel must never be persisted.
    let mut run = Vec::new();
    run.extend_from_slice(&1u32.to_le_bytes());
    delta_upsert(&mut run, u32::MAX, "sentinel", &[]);
    reject_delta(
        with_delta_payloads(&[run]),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "persisted append sentinel",
    );

    // An inflated op count fails before allocating.
    reject_delta(
        with_delta_payloads(&[u32::MAX.to_le_bytes().to_vec()]),
        |e| matches!(e, SnapshotError::Truncated { section: "delta", .. }),
        "inflated delta op count",
    );

    // An unknown op tag.
    let mut run = Vec::new();
    run.extend_from_slice(&1u32.to_le_bytes());
    run.push(7);
    run.extend_from_slice(&0u32.to_le_bytes());
    reject_delta(
        with_delta_payloads(&[run]),
        |e| matches!(e, SnapshotError::Inconsistent(_)),
        "unknown delta op tag",
    );

    // Invalid UTF-8 in an upserted profile's name or value: the one UTF-8
    // check per string still runs.
    for (name, value) in [(&b"na\xffme"[..], &b"jack"[..]), (b"name", b"ja\xffck")] {
        let mut run = Vec::new();
        run.extend_from_slice(&1u32.to_le_bytes());
        run.push(OP_UPSERT);
        run.extend_from_slice(&4u32.to_le_bytes());
        put_str(&mut run, "p5");
        run.extend_from_slice(&1u32.to_le_bytes());
        for bytes in [name, value] {
            run.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            run.extend_from_slice(bytes);
        }
        reject_delta(
            with_delta_payloads(&[run]),
            |e| matches!(e, SnapshotError::Utf8 { section: "delta" }),
            "invalid UTF-8 in a delta upsert",
        );
    }

    // Trailing garbage after the last op.
    let mut run = valid_delta_run();
    run.push(0xff);
    reject_delta(
        with_delta_payloads(&[run]),
        |e| matches!(e, SnapshotError::TrailingBytes { section: "delta", .. }),
        "trailing bytes after delta ops",
    );

    // A delta section may not appear *before* the canonical six.
    let mut sections = parse_frame(&small_snapshot().to_bytes());
    sections.insert(0, (SECTION_DELTA, valid_delta_run()));
    reject_delta(
        build_frame(&sections),
        |e| !matches!(e, SnapshotError::Io(_)),
        "delta section displacing the canonical order",
    );

    // But delete-then-revive-then-delete across runs is legal.
    let mut run = Vec::new();
    run.extend_from_slice(&3u32.to_le_bytes());
    delta_delete(&mut run, 0);
    delta_upsert(&mut run, 0, "revived", &[("name", "back again")]);
    delta_delete(&mut run, 0);
    let bytes = with_delta_payloads(&[run]);
    assert_eq!(SnapshotView::from_bytes(bytes).unwrap().delta_runs()[0].len(), 3);
}
