//! The length-prefixed binary wire protocol of `er serve`.
//!
//! Built on the snapshot codec's primitives (bounds-checked reader,
//! little-endian writers, FNV-1a checksums) with the same hostile-input
//! contract: any sequence of bytes a peer sends produces a typed
//! [`ServeError`], never a panic and never an unbounded allocation.
//!
//! # Connection layout
//!
//! On accept, the server sends a 20-byte hello —
//!
//! ```text
//! magic "MBWIRE01" | protocol version u32 | serving generation u64
//! ```
//!
//! — and the client refuses to proceed on a magic or version mismatch
//! (versioning policy mirrors the snapshot format: peers speak exactly the
//! versions they know). After the hello, both directions exchange frames:
//!
//! ```text
//! frame := kind u8 | payload_len u32 | fnv1a64(payload) u64 | payload
//! ```
//!
//! The declared payload length is capped ([`MAX_FRAME`]) *before* any
//! allocation, so a corrupt length prefix errors out instead of reserving
//! gigabytes; the checksum catches torn or bit-flipped frames.
//!
//! # Messages
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | [`MSG_REQUEST`]  | client → server | a [`CandidateRequest`]           |
//! | [`MSG_RELOAD`]   | client → server | UTF-8 path of the new snapshot   |
//! | [`MSG_SHUTDOWN`] | client → server | empty                            |
//! | [`MSG_UPSERT`]   | client → server | entity id (or append sentinel) + profile |
//! | [`MSG_DELETE`]   | client → server | entity id u32                    |
//! | [`MSG_COMPACT`]  | client → server | bundle dir + optional output path |
//! | [`MSG_RESPONSE`] | server → client | a [`CandidateResponse`]          |
//! | [`MSG_OK`]       | server → client | acknowledged generation u64 (for an upsert, followed by the resolved entity id u32) |
//! | [`MSG_ERROR`]    | server → client | UTF-8 error message              |
//!
//! The request/response payloads serialize the *same*
//! [`CandidateRequest`] / [`CandidateResponse`] types the in-process API
//! executes — there is no wire-only mirror struct to drift.

use crate::codec::{fnv1a, put_bytes, put_profile, put_u32, put_u64, put_u8, Reader};
use crate::error::{ServeError, SnapshotError};
use crate::request::{CandidateRequest, CandidateResponse, CandidateTarget};
use er_model::{EntityId, EntityProfile};
use mb_core::{Candidate, Retention, Scored, WeightingScheme};
use std::io::{Read, Write};

/// The wire hello magic.
pub const WIRE_MAGIC: [u8; 8] = *b"MBWIRE01";

/// The only wire-protocol version this build speaks (reader policy as for
/// snapshots: no guessing at future layouts).
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on a frame payload. Checked against the declared length
/// before allocating — the wire analogue of the snapshot codec's
/// length-prefix guard.
pub const MAX_FRAME: u64 = 64 * 1024 * 1024;

/// Client → server: execute the enclosed [`CandidateRequest`].
pub const MSG_REQUEST: u8 = 1;
/// Client → server: load the snapshot at the enclosed path and swap it in.
pub const MSG_RELOAD: u8 = 2;
/// Client → server: drain in-flight work and stop.
pub const MSG_SHUTDOWN: u8 = 3;
/// Server → client: the enclosed [`CandidateResponse`] answers the request.
pub const MSG_RESPONSE: u8 = 4;
/// Server → client: control acknowledged; payload is the serving generation.
pub const MSG_OK: u8 = 5;
/// Server → client: the request failed; payload is the rendered error.
pub const MSG_ERROR: u8 = 6;
/// Client → server: apply one upsert delta against the live generation.
/// The payload's leading id may be [`crate::delta::APPEND`] (`u32::MAX`) to
/// let the server assign the next free id atomically.
pub const MSG_UPSERT: u8 = 7;
/// Client → server: tombstone one entity on the live generation.
pub const MSG_DELETE: u8 = 8;
/// Client → server: fold the live generation's deltas back into a clean
/// arena (rebuilding from the enclosed profile bundle) and swap it in.
pub const MSG_COMPACT: u8 = 9;

// Target tags inside a request payload.
const TARGET_ENTITY: u8 = 0;
const TARGET_PROBE: u8 = 1;
const TARGET_BATCH: u8 = 2;

// Retention tags inside request/response payloads.
const RETENTION_DEFAULT: u8 = 0;
const RETENTION_TOP_K: u8 = 1;
const RETENTION_ABOVE_MEAN: u8 = 2;

/// Sends the server hello for `generation`.
pub fn write_hello(w: &mut impl Write, generation: u64) -> Result<(), ServeError> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&WIRE_MAGIC);
    put_u32(&mut out, WIRE_VERSION);
    put_u64(&mut out, generation);
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the server hello; returns the serving generation.
pub fn read_hello(r: &mut impl Read) -> Result<u64, ServeError> {
    let mut buf = [0u8; 20];
    r.read_exact(&mut buf)?;
    let mut rd = Reader::new(&buf, "hello");
    if rd.take(WIRE_MAGIC.len())? != WIRE_MAGIC {
        return Err(ServeError::BadHello);
    }
    let version = rd.u32()?;
    if version != WIRE_VERSION {
        return Err(ServeError::Handshake { found: version, supported: WIRE_VERSION });
    }
    Ok(rd.u64()?)
}

/// Bytes of a frame header: `kind u8 | payload_len u32 | fnv1a64 u64`.
const FRAME_HEADER: usize = 13;

/// Writes one checksummed frame.
///
/// Header and payload leave in one `write` call: on a `TCP_NODELAY` socket
/// each call is a segment of its own, and a header sent ahead of its
/// payload wakes the peer for 13 bytes it cannot act on.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() as u64 > MAX_FRAME {
        return Err(ServeError::FrameTooLarge { len: payload.len() as u64, max: MAX_FRAME });
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u8(&mut frame, kind);
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, fnv1a(payload));
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying the length cap before allocating and the
/// checksum after reading. Returns `(kind, payload)`. This is the blocking
/// form, for a reader without a timeout — one [`FrameReader`] that is never
/// resumed; the server keeps its own across timeouts.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
    FrameReader::default().read(r)
}

/// A decoded frame header whose declared length has passed the cap.
struct FrameHeader {
    kind: u8,
    len: usize,
    checksum: u64,
}

impl FrameHeader {
    fn parse(head: &[u8; FRAME_HEADER]) -> Result<FrameHeader, ServeError> {
        let mut rd = Reader::new(head, "frame");
        let kind = rd.u8()?;
        let len = rd.u32()? as u64;
        let checksum = rd.u64()?;
        if len > MAX_FRAME {
            return Err(ServeError::FrameTooLarge { len, max: MAX_FRAME });
        }
        Ok(FrameHeader { kind, len: len as usize, checksum })
    }

    /// The frame, once `payload` matches the header's checksum.
    fn verified(&self, payload: Vec<u8>) -> Result<(u8, Vec<u8>), ServeError> {
        if fnv1a(&payload) != self.checksum {
            return Err(ServeError::FrameChecksum);
        }
        Ok((self.kind, payload))
    }
}

/// A frame read that can be resumed.
///
/// The server reads under a timeout (its liveness poll), and a timeout can
/// fall in the middle of a frame. The bytes consumed so far are kept here,
/// not on the stack of a `read_exact`, so the next [`FrameReader::read`]
/// continues the same frame instead of parsing payload bytes as a header.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    head: [u8; FRAME_HEADER],
    head_filled: usize,
    /// Sized to the declared length once the header is complete and that
    /// length has passed the cap.
    payload: Option<Vec<u8>>,
    payload_filled: usize,
}

impl FrameReader {
    /// Reads until the frame in progress is complete and returns it, as
    /// [`read_frame`] does. On an I/O error (a timeout included) the
    /// progress made stays and the next call resumes from it. A header over
    /// the cap stays too: the stream cannot be resynchronised past it, so
    /// the handler closes the connection on that error.
    pub(crate) fn read(&mut self, r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
        fill(r, &mut self.head, &mut self.head_filled)?;
        let header = FrameHeader::parse(&self.head)?;
        let payload = self.payload.get_or_insert_with(|| vec![0u8; header.len]);
        fill(r, payload, &mut self.payload_filled)?;
        let payload = std::mem::take(payload);
        *self = FrameReader::default();
        header.verified(payload)
    }
}

/// `read_exact` with its progress in `filled`, so an error part-way loses
/// nothing. End of stream before `buf` is full is [`ServeError::Disconnected`].
fn fill(r: &mut impl Read, buf: &mut [u8], filled: &mut usize) -> Result<(), ServeError> {
    while *filled < buf.len() {
        match r.read(&mut buf[*filled..]) {
            Ok(0) => return Err(ServeError::Disconnected),
            Ok(n) => *filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Serializes a [`CandidateRequest`] into a [`MSG_REQUEST`] payload.
pub fn request_bytes(request: &CandidateRequest) -> Vec<u8> {
    let mut out = Vec::new();
    match request.target() {
        CandidateTarget::Entity(id) => {
            put_u8(&mut out, TARGET_ENTITY);
            put_u32(&mut out, id.0);
        }
        CandidateTarget::Probe { profile, is_first } => {
            put_u8(&mut out, TARGET_PROBE);
            put_u8(&mut out, u8::from(*is_first));
            put_profile(&mut out, profile);
        }
        CandidateTarget::Batch => put_u8(&mut out, TARGET_BATCH),
    }
    match request.retention() {
        None => put_u8(&mut out, RETENTION_DEFAULT),
        Some(Retention::TopK(k)) => {
            put_u8(&mut out, RETENTION_TOP_K);
            put_u64(&mut out, k as u64);
        }
        Some(Retention::AboveMean) => put_u8(&mut out, RETENTION_ABOVE_MEAN),
    }
    put_u32(&mut out, request.threads() as u32);
    out
}

/// Decodes a [`MSG_REQUEST`] payload back into the typed request.
pub fn parse_request(buf: &[u8]) -> Result<CandidateRequest, ServeError> {
    let mut r = Reader::new(buf, "request");
    let target = match r.u8()? {
        TARGET_ENTITY => CandidateTarget::Entity(EntityId(r.u32()?)),
        TARGET_PROBE => {
            let is_first = r.u8()? != 0;
            let profile = r.profile()?;
            CandidateTarget::Probe { profile, is_first }
        }
        TARGET_BATCH => CandidateTarget::Batch,
        other => return Err(ServeError::InvalidRequest(format!("unknown target tag {other}"))),
    };
    let retention = parse_retention(&mut r, true)?;
    let threads = r.u32()? as usize;
    r.finish()?;
    let mut request = match target {
        CandidateTarget::Entity(id) => CandidateRequest::entity(id),
        CandidateTarget::Probe { profile, is_first } => CandidateRequest::probe(profile, is_first),
        CandidateTarget::Batch => CandidateRequest::batch(),
    };
    if let Some(r) = retention {
        request = request.with_retention(r);
    }
    Ok(request.with_threads(threads))
}

fn parse_retention(
    r: &mut Reader<'_>,
    allow_default: bool,
) -> Result<Option<Retention>, ServeError> {
    match r.u8()? {
        RETENTION_DEFAULT if allow_default => Ok(None),
        RETENTION_TOP_K => match r.u64()? {
            0 => Err(ServeError::InvalidRequest(
                "top-k retention needs a positive count, got 0".into(),
            )),
            // A count past the address space keeps everything, as any
            // k ≥ the neighborhood does.
            k => Ok(Some(Retention::TopK(usize::try_from(k).unwrap_or(usize::MAX)))),
        },
        RETENTION_ABOVE_MEAN => Ok(Some(Retention::AboveMean)),
        other => Err(ServeError::InvalidRequest(format!("unknown retention tag {other}"))),
    }
}

/// Serializes a [`CandidateResponse`] into a [`MSG_RESPONSE`] payload.
pub fn response_bytes(response: &CandidateResponse) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, response.generation);
    put_bytes(&mut out, response.scheme.token().as_bytes());
    match response.retention {
        Retention::TopK(k) => {
            put_u8(&mut out, RETENTION_TOP_K);
            put_u64(&mut out, k as u64);
        }
        Retention::AboveMean => put_u8(&mut out, RETENTION_ABOVE_MEAN),
    }
    put_u32(&mut out, response.results.len() as u32);
    for scored in &response.results {
        put_u32(&mut out, scored.candidates.len() as u32);
        for c in &scored.candidates {
            put_u32(&mut out, c.id.0);
            put_u64(&mut out, c.weight.to_bits());
        }
        put_u64(&mut out, scored.blocks_touched);
        put_u64(&mut out, scored.edges_scored);
    }
    out
}

/// Decodes a [`MSG_RESPONSE`] payload back into the typed response.
pub fn parse_response(buf: &[u8]) -> Result<CandidateResponse, ServeError> {
    let mut r = Reader::new(buf, "response");
    let generation = r.u64()?;
    let scheme: WeightingScheme = r.str()?.parse().map_err(ServeError::InvalidRequest)?;
    let retention = match parse_retention(&mut r, false)? {
        Some(ret) => ret,
        None => return Err(ServeError::InvalidRequest("response without retention".into())),
    };
    let count = r.u32()? as usize;
    // Every result needs at least its candidate count plus two u64
    // counters; verify before allocating.
    if count.saturating_mul(20) > r.remaining() {
        return Err(ServeError::Frame(SnapshotError::Truncated {
            section: "response",
            needed: (count.saturating_mul(20) - r.remaining()) as u64,
            available: r.remaining() as u64,
        }));
    }
    let mut results = Vec::with_capacity(count);
    for _ in 0..count {
        let candidates = r.u32()? as usize;
        if candidates.saturating_mul(12) > r.remaining() {
            return Err(ServeError::Frame(SnapshotError::Truncated {
                section: "response",
                needed: (candidates.saturating_mul(12) - r.remaining()) as u64,
                available: r.remaining() as u64,
            }));
        }
        let mut list = Vec::with_capacity(candidates);
        for _ in 0..candidates {
            let id = EntityId(r.u32()?);
            let weight = f64::from_bits(r.u64()?);
            list.push(Candidate { id, weight });
        }
        let blocks_touched = r.u64()?;
        let edges_scored = r.u64()?;
        results.push(Scored { candidates: list, blocks_touched, edges_scored });
    }
    r.finish()?;
    Ok(CandidateResponse { results, retention, scheme, generation })
}

/// Serializes a UTF-8 string payload ([`MSG_RELOAD`] paths, [`MSG_ERROR`]
/// messages).
pub fn text_bytes(text: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, text.as_bytes());
    out
}

/// Decodes a UTF-8 string payload.
pub fn parse_text(buf: &[u8]) -> Result<String, ServeError> {
    let mut r = Reader::new(buf, "text");
    let text = r.str()?.to_owned();
    r.finish()?;
    Ok(text)
}

/// Serializes a [`MSG_OK`] payload (the acknowledged generation).
pub fn ok_bytes(generation: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, generation);
    out
}

/// Decodes a [`MSG_OK`] payload.
pub fn parse_ok(buf: &[u8]) -> Result<u64, ServeError> {
    let mut r = Reader::new(buf, "ok");
    let generation = r.u64()?;
    r.finish()?;
    Ok(generation)
}

/// Serializes a [`MSG_UPSERT`] payload: the target id (or
/// [`crate::delta::APPEND`]) followed by the profile.
pub fn upsert_bytes(id: u32, profile: &EntityProfile) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, id);
    put_profile(&mut out, profile);
    out
}

/// Decodes a [`MSG_UPSERT`] payload into `(id, profile)`.
pub fn parse_upsert(buf: &[u8]) -> Result<(u32, EntityProfile), ServeError> {
    let mut r = Reader::new(buf, "upsert");
    let id = r.u32()?;
    let profile = r.profile()?;
    r.finish()?;
    Ok((id, profile))
}

/// Serializes the [`MSG_OK`] reply to an upsert: the new generation's
/// ordinal followed by the entity id the op resolved to.
pub fn upsert_ok_bytes(generation: u64, id: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, generation);
    put_u32(&mut out, id);
    out
}

/// Decodes an upsert acknowledgment into `(generation, id)`.
pub fn parse_upsert_ok(buf: &[u8]) -> Result<(u64, u32), ServeError> {
    let mut r = Reader::new(buf, "ok");
    let generation = r.u64()?;
    let id = r.u32()?;
    r.finish()?;
    Ok((generation, id))
}

/// Serializes a [`MSG_DELETE`] payload (the entity id to tombstone).
pub fn delete_bytes(id: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, id);
    out
}

/// Decodes a [`MSG_DELETE`] payload.
pub fn parse_delete(buf: &[u8]) -> Result<u32, ServeError> {
    let mut r = Reader::new(buf, "delete");
    let id = r.u32()?;
    r.finish()?;
    Ok(id)
}

/// Serializes a [`MSG_COMPACT`] payload: the profile-bundle directory to
/// rebuild from, and the path to persist the compacted snapshot to (empty =
/// swap in memory only).
pub fn compact_bytes(bundle: &str, out_path: Option<&str>) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, bundle.as_bytes());
    put_bytes(&mut out, out_path.unwrap_or("").as_bytes());
    out
}

/// Decodes a [`MSG_COMPACT`] payload into `(bundle_dir, out_path)`.
pub fn parse_compact(buf: &[u8]) -> Result<(String, Option<String>), ServeError> {
    let mut r = Reader::new(buf, "compact");
    let bundle = r.str()?.to_owned();
    let out_path = r.str()?.to_owned();
    r.finish()?;
    Ok((bundle, if out_path.is_empty() { None } else { Some(out_path) }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_payloads_round_trip() {
        let probe = EntityProfile::new("probe/1").with("name", "jack miller").with("job", "x");
        let requests = [
            CandidateRequest::entity(EntityId(42)),
            CandidateRequest::entity(EntityId(0)).with_retention(Retention::TopK(7)),
            CandidateRequest::probe(probe, false).with_retention(Retention::AboveMean),
            CandidateRequest::batch().with_threads(8).with_retention(Retention::TopK(3)),
        ];
        for req in requests {
            let bytes = request_bytes(&req);
            assert_eq!(parse_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn hostile_top_k_counts_are_rejected_or_saturated() {
        let zero = CandidateRequest::entity(EntityId(1)).with_retention(Retention::TopK(0));
        assert!(matches!(
            parse_request(&request_bytes(&zero)),
            Err(ServeError::InvalidRequest(msg)) if msg.contains("positive count")
        ));
        let all = CandidateRequest::entity(EntityId(1)).with_retention(Retention::TopK(usize::MAX));
        assert_eq!(parse_request(&request_bytes(&all)).unwrap(), all);
    }

    #[test]
    fn response_payloads_round_trip() {
        let response = CandidateResponse {
            results: vec![
                Scored {
                    candidates: vec![
                        Candidate { id: EntityId(3), weight: 2.5 },
                        Candidate { id: EntityId(9), weight: 0.125 },
                    ],
                    blocks_touched: 4,
                    edges_scored: 11,
                },
                Scored { candidates: vec![], blocks_touched: 0, edges_scored: 0 },
            ],
            retention: Retention::TopK(5),
            scheme: WeightingScheme::Ejs,
            generation: 17,
        };
        let bytes = response_bytes(&response);
        assert_eq!(parse_response(&bytes).unwrap(), response);
    }

    #[test]
    fn delta_payloads_round_trip() {
        let profile = EntityProfile::new("probe/7").with("name", "jill miller");
        let bytes = upsert_bytes(crate::delta::APPEND, &profile);
        let (id, decoded) = parse_upsert(&bytes).unwrap();
        assert_eq!(id, crate::delta::APPEND);
        assert_eq!(decoded, profile);

        assert_eq!(parse_upsert_ok(&upsert_ok_bytes(9, 41)).unwrap(), (9, 41));
        assert_eq!(parse_delete(&delete_bytes(12)).unwrap(), 12);
        assert_eq!(
            parse_compact(&compact_bytes("bundles/b", Some("out.mbsnap"))).unwrap(),
            ("bundles/b".to_owned(), Some("out.mbsnap".to_owned()))
        );
        assert_eq!(
            parse_compact(&compact_bytes("bundles/b", None)).unwrap(),
            ("bundles/b".to_owned(), None)
        );
    }

    #[test]
    fn truncated_upsert_attribute_count_is_rejected_before_allocating() {
        let profile = EntityProfile::new("p").with("a", "b");
        let mut bytes = upsert_bytes(3, &profile);
        // Inflate the declared attribute count far beyond the payload.
        let attr_count_at = 4 + 4 + 1;
        bytes[attr_count_at..attr_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_upsert(&bytes),
            Err(ServeError::Frame(SnapshotError::Truncated { section: "upsert", .. }))
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MSG_REQUEST, b"payload").unwrap();
        write_frame(&mut wire, MSG_SHUTDOWN, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), (MSG_REQUEST, b"payload".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (MSG_SHUTDOWN, Vec::new()));
    }

    /// Records what it is handed, and in how many calls.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|buf| self.bytes.extend_from_slice(buf));
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_laid_out_as_header_then_payload() {
        for len in [0usize, 83, 64 * 1024, 1024 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut wire = Recording::default();
            write_frame(&mut wire, MSG_RESPONSE, &payload).unwrap();
            assert_eq!(wire.calls, 1, "{len}-byte payload");
            // kind u8 | len u32 | fnv1a64 u64 | payload
            let mut expected = vec![MSG_RESPONSE];
            expected.extend_from_slice(&(len as u32).to_le_bytes());
            expected.extend_from_slice(&fnv1a(&payload).to_le_bytes());
            expected.extend_from_slice(&payload);
            assert!(wire.bytes == expected, "{len}-byte payload: frame bytes differ");
            let mut cursor = std::io::Cursor::new(&wire.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), (MSG_RESPONSE, payload));
        }
    }

    /// Hands out its bytes one chunk per call, with a timeout between
    /// chunks — what a socket under a read timeout does to a slow peer.
    struct Stuttering<'a> {
        chunks: std::collections::VecDeque<&'a [u8]>,
        timed_out: bool,
    }

    impl Read for Stuttering<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let Some(chunk) = self.chunks.pop_front() else { return Ok(0) };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(&chunk[n..]);
            }
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_after_a_timeout_anywhere_in_the_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MSG_REQUEST, b"resumable payload").unwrap();
        write_frame(&mut wire, MSG_SHUTDOWN, b"").unwrap();
        let first = FRAME_HEADER + b"resumable payload".len();
        // Cuts inside the header, at its end, inside the payload, and
        // inside the second frame's header.
        for cuts in [vec![5], vec![FRAME_HEADER], vec![FRAME_HEADER + 3], vec![5, 16, first + 2]] {
            let mut chunks = std::collections::VecDeque::new();
            let mut rest = &wire[..];
            let mut taken = 0;
            for cut in cuts.iter().copied() {
                let (chunk, tail) = rest.split_at(cut - taken);
                chunks.push_back(chunk);
                (rest, taken) = (tail, cut);
            }
            chunks.push_back(rest);
            let mut peer = Stuttering { chunks, timed_out: false };
            let mut frames = FrameReader::default();
            let mut read = Vec::new();
            let mut timeouts = 0;
            while read.len() < 2 {
                match frames.read(&mut peer) {
                    Ok(frame) => read.push(frame),
                    Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        timeouts += 1;
                    }
                    Err(e) => panic!("cuts {cuts:?}: {e}"),
                }
            }
            assert!(timeouts > cuts.len(), "cuts {cuts:?}: every chunk follows a timeout");
            assert_eq!(read[0], (MSG_REQUEST, b"resumable payload".to_vec()), "cuts {cuts:?}");
            assert_eq!(read[1], (MSG_SHUTDOWN, Vec::new()), "cuts {cuts:?}");
            // The stream ends between frames: a clean disconnect.
            let end = loop {
                match frames.read(&mut peer) {
                    Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    other => break other,
                }
            };
            assert!(matches!(end, Err(ServeError::Disconnected)), "cuts {cuts:?}: {end:?}");
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_versions() {
        let mut wire = Vec::new();
        write_hello(&mut wire, 5).unwrap();
        assert_eq!(read_hello(&mut std::io::Cursor::new(&wire)).unwrap(), 5);

        let mut wrong_magic = wire.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            read_hello(&mut std::io::Cursor::new(&wrong_magic)),
            Err(ServeError::BadHello)
        ));

        let mut future = Vec::new();
        future.extend_from_slice(&WIRE_MAGIC);
        put_u32(&mut future, WIRE_VERSION + 1);
        put_u64(&mut future, 1);
        assert!(matches!(
            read_hello(&mut std::io::Cursor::new(&future)),
            Err(ServeError::Handshake { found, supported })
                if found == WIRE_VERSION + 1 && supported == WIRE_VERSION
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        // A header claiming a 4 GiB payload must error out, not reserve it.
        let mut head = Vec::new();
        put_u8(&mut head, MSG_REQUEST);
        put_u32(&mut head, u32::MAX);
        put_u64(&mut head, 0);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(&head)),
            Err(ServeError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_frame_checksum_is_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MSG_REQUEST, b"payload").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(&wire)),
            Err(ServeError::FrameChecksum)
        ));
    }
}
