//! The length-prefixed binary wire protocol of `er serve`.
//!
//! Built on the snapshot codec's primitives (bounds-checked reader,
//! little-endian writers, the four-lane FNV-1a kernel) with the same
//! hostile-input contract: any sequence of bytes a peer sends produces a typed
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
//! frame    := kind u8 | payload_len u32 | checksum u64 | payload
//! checksum := fnv1a_step(fnv1a_wide(payload), payload_len)
//! ```
//!
//! `fnv1a_wide` is the snapshot sections' four-lane word-wise FNV-1a 64,
//! its short tail zero-padded into one last word; folding the length in
//! after it tells a payload from the same payload with zero bytes
//! appended. The declared payload length is capped ([`MAX_FRAME`]) *before*
//! any allocation, so a corrupt length prefix errors out instead of
//! reserving gigabytes; the checksum catches torn or bit-flipped frames.
//!
//! Both ends of a connection frame through one `FrameReader` and one
//! `FrameWriter`, each over a buffer the connection keeps. A frame is
//! encoded in place behind its header slot and leaves in one `send`; a
//! frame that arrived whole is parsed out of one `recv`, and a frame that
//! arrived behind it costs none. A peer may therefore pipeline: frames are
//! answered in the order they were sent. [`write_frame`] and [`read_frame`]
//! are the same format for a caller that holds a payload of its own.
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

use crate::codec::{
    fnv1a_step, fnv1a_wide, put_bytes, put_profile, put_u32, put_u64, put_u8, Reader,
};
use crate::error::{ServeError, SnapshotError};
use crate::request::{CandidateRequest, CandidateResponse, CandidateTarget};
use er_model::{EntityId, EntityProfile};
use mb_core::{Candidate, Retention, Scored, WeightingScheme};
use std::io::{Read, Write};

/// The wire hello magic.
pub const WIRE_MAGIC: [u8; 8] = *b"MBWIRE01";

/// The only wire-protocol version this build speaks (reader policy as for
/// snapshots: no guessing at future layouts). Version 2 checksums a frame
/// with the four-lane word kernel and its length; version 1 hashed the
/// payload byte by byte, so a v1 peer is refused at the hello rather than
/// at its first frame.
pub const WIRE_VERSION: u32 = 2;

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

/// Bytes of a frame header: `kind u8 | payload_len u32 | checksum u64`.
const FRAME_HEADER: usize = 13;

/// The checksum a frame header carries for `payload`: the four-lane kernel
/// over the payload, then the payload length folded in, so a payload and
/// the same payload with zero bytes appended differ. Every frame written
/// or verified goes through here.
fn frame_checksum(payload: &[u8]) -> u64 {
    fnv1a_step(fnv1a_wide(payload), payload.len() as u64)
}

/// What a connection's [`FrameReader`] and [`FrameWriter`] each keep between
/// frames — std's `BufReader` default. Probe and entity frames fit many
/// times over; a larger frame grows a buffer for as long as it takes and is
/// handed back after it, so no connection keeps a large frame's memory.
const FRAME_BUFFER: usize = 8 * 1024;

/// Writes one checksummed frame.
///
/// Header and payload leave in one `write` call: on a `TCP_NODELAY` socket
/// each call is a segment of its own, and a header sent ahead of its
/// payload wakes the peer for 13 bytes it cannot act on. This is the form
/// for a writer that sends a payload it already holds (tests, the
/// benchmark's codec probe); a connection sends through its `FrameWriter`,
/// which builds the payload in place and allocates nothing per frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() as u64 > MAX_FRAME {
        return Err(ServeError::FrameTooLarge { len: payload.len() as u64, max: MAX_FRAME });
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u8(&mut frame, kind);
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, frame_checksum(payload));
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying the length cap before allocating and the
/// checksum after reading. Returns `(kind, payload)`. It reads exactly the
/// frame's bytes — the header, then the payload — and never past them, so a
/// caller may go on reading the stream itself; a connection reads through
/// its `FrameReader` instead.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
    ExactFrame::default().read(r)
}

/// A decoded frame header whose declared length has passed the cap.
struct FrameHeader {
    kind: u8,
    len: usize,
    checksum: u64,
}

impl FrameHeader {
    /// Decodes the header at the front of `head`, which holds at least
    /// [`FRAME_HEADER`] bytes.
    fn parse(head: &[u8]) -> Result<FrameHeader, ServeError> {
        let mut rd = Reader::new(head, "frame");
        let kind = rd.u8()?;
        let len = rd.u32()? as u64;
        let checksum = rd.u64()?;
        if len > MAX_FRAME {
            return Err(ServeError::FrameTooLarge { len, max: MAX_FRAME });
        }
        Ok(FrameHeader { kind, len: len as usize, checksum })
    }

    /// Whether `payload` matches the header's checksum.
    fn verify(&self, payload: &[u8]) -> Result<(), ServeError> {
        if frame_checksum(payload) != self.checksum {
            return Err(ServeError::FrameChecksum);
        }
        Ok(())
    }

    /// The frame, once `payload` matches the header's checksum.
    fn verified(&self, payload: Vec<u8>) -> Result<(u8, Vec<u8>), ServeError> {
        self.verify(&payload)?;
        Ok((self.kind, payload))
    }
}

/// [`read_frame`]'s reader: the header's bytes, then a payload allocated to
/// the declared length once it has passed the cap.
///
/// `read_frame` makes a fresh one per frame, so its progress fields never
/// outlive a call. The shape was kept because a crate downstream
/// instantiates `read_frame`, and through it this reader and [`fill`], and
/// a shorter body there moved that crate's code partitioning: in the
/// repository benchmark it inlined `HashMap::insert` into the CPU
/// calibration kernel (DESIGN.md §9's generic-body caveat, §11). The
/// word-wise frame checksum moves it the same way with this shape too, so
/// the shape now buys nothing and goes when the benchmark's kernel stops
/// sharing code with the program.
#[derive(Debug, Default)]
struct ExactFrame {
    head: [u8; FRAME_HEADER],
    head_filled: usize,
    payload: Option<Vec<u8>>,
    payload_filled: usize,
}

impl ExactFrame {
    fn read(&mut self, r: &mut impl Read) -> Result<(u8, Vec<u8>), ServeError> {
        fill(r, &mut self.head, &mut self.head_filled)?;
        let header = FrameHeader::parse(&self.head)?;
        let payload = self.payload.get_or_insert_with(|| vec![0u8; header.len]);
        fill(r, payload, &mut self.payload_filled)?;
        let payload = std::mem::take(payload);
        *self = ExactFrame::default();
        header.verified(payload)
    }
}

/// `read_exact` with its progress in `filled`. End of stream before `buf`
/// is full is [`ServeError::Disconnected`].
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

/// One connection's incoming frames, read through one buffer.
///
/// Each `read` takes whatever the stream holds, so a frame that arrived
/// whole costs one system call, and a frame that followed it in the same
/// segment is parsed out of the buffer by the next [`FrameReader::read`]
/// without any. The payload is borrowed from the buffer until that next
/// call. A read timeout (the server's liveness poll) or a short read can
/// fall anywhere in a frame: the bytes read so far stay buffered and the
/// next call continues the same frame.
///
/// The stream is a `dyn Read` so that there is one body, compiled here for
/// the server and the client alike, and nothing for a crate downstream to
/// instantiate (DESIGN.md §9's generic-body caveat).
#[derive(Default)]
pub(crate) struct FrameReader {
    /// Initialised throughout, so a read goes straight into `buf[end..]`;
    /// `buf[start..end]` is read and not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// Returns the next frame as `(kind, payload)`, reading from `r` only
    /// while the buffer holds less than a whole frame. The length cap is
    /// checked before the buffer grows for a frame, and the checksum before
    /// its payload is handed out. On an I/O error (a timeout included) the
    /// bytes read so far stay and the next call resumes from them. A header
    /// over the cap stays too: the stream cannot be resynchronised past it,
    /// so the handler closes the connection on that error.
    pub(crate) fn read(&mut self, r: &mut dyn Read) -> Result<(u8, &[u8]), ServeError> {
        self.settle();
        debug_assert!(self.start <= self.end && self.end <= self.buf.len());
        let (header, at) = loop {
            let buffered = self.end - self.start;
            let need = if buffered < FRAME_HEADER {
                FRAME_HEADER
            } else {
                let header = FrameHeader::parse(&self.buf[self.start..self.end])?;
                let need = FRAME_HEADER + header.len;
                if buffered >= need {
                    let at = self.start + FRAME_HEADER;
                    self.start += need;
                    break (header, at);
                }
                need
            };
            self.fill(r, need)?;
        };
        let payload = &self.buf[at..at + header.len];
        header.verify(payload)?;
        Ok((header.kind, payload))
    }

    /// Starts the buffer over once everything in it was handed out, and
    /// gives back what a large frame grew it by once that frame is gone.
    fn settle(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.buf.len() > FRAME_BUFFER && self.end - self.start <= FRAME_BUFFER {
            self.slide();
            self.buf.truncate(FRAME_BUFFER);
            self.buf.shrink_to_fit();
        }
    }

    /// One read into the free tail of the buffer, after making room there
    /// for a frame of `need` bytes from `start`.
    fn fill(&mut self, r: &mut dyn Read, need: usize) -> Result<(), ServeError> {
        if self.start + need > self.buf.len() {
            self.slide();
            if need > self.buf.len() {
                self.buf.resize(need.max(FRAME_BUFFER), 0);
            }
        }
        debug_assert!(self.end - self.start < need && self.start + need <= self.buf.len());
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ServeError::Disconnected),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Moves the bytes not yet handed out to the front of the buffer.
    fn slide(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
    }
}

/// One connection's outgoing frames, each built in place and sent in one
/// `write_all`.
///
/// [`FrameWriter::send`] leaves a header slot, has the payload encoded
/// after it, then patches in the length and checksum — the bytes
/// [`write_frame`] sends for the same payload, with no payload `Vec` of
/// their own. A frame larger than [`FRAME_BUFFER`] is sent and its memory
/// handed back. The stream is a `dyn Write` for the reason
/// [`FrameReader`]'s is a `dyn Read`.
#[derive(Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

// The buffers' bytes are left out: a connection's `Debug` would otherwise
// print kilobytes of them.
impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("capacity", &self.buf.len())
            .finish()
    }
}

impl std::fmt::Debug for FrameWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameWriter").field("capacity", &self.buf.capacity()).finish()
    }
}

impl FrameWriter {
    /// Sends one frame of `kind` whose payload `put` appends to the buffer
    /// it is given.
    pub(crate) fn send(
        &mut self,
        w: &mut dyn Write,
        kind: u8,
        put: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ServeError> {
        self.buf.clear();
        self.buf.reserve(FRAME_BUFFER);
        self.buf.resize(FRAME_HEADER, 0);
        put(&mut self.buf);
        let len = (self.buf.len() - FRAME_HEADER) as u64;
        let sent = if len > MAX_FRAME {
            Err(ServeError::FrameTooLarge { len, max: MAX_FRAME })
        } else {
            let checksum = frame_checksum(&self.buf[FRAME_HEADER..]);
            self.buf[0] = kind;
            self.buf[1..5].copy_from_slice(&(len as u32).to_le_bytes());
            self.buf[5..FRAME_HEADER].copy_from_slice(&checksum.to_le_bytes());
            w.write_all(&self.buf).and_then(|()| w.flush()).map_err(ServeError::from)
        };
        if self.buf.capacity() > FRAME_BUFFER {
            self.buf.clear();
            self.buf.shrink_to(FRAME_BUFFER);
        }
        sent
    }

    /// Sends `e` as a [`MSG_ERROR`] frame.
    pub(crate) fn error(&mut self, w: &mut dyn Write, e: &ServeError) -> Result<(), ServeError> {
        self.send(w, MSG_ERROR, |out| put_text(out, &e.to_string()))
    }
}

/// What one of the `put_*` encoders appends, in a `Vec` of its own.
fn encoded(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out);
    out
}

/// Serializes a [`CandidateRequest`] into a [`MSG_REQUEST`] payload.
pub fn request_bytes(request: &CandidateRequest) -> Vec<u8> {
    encoded(|out| put_request(out, request))
}

/// Appends a [`request_bytes`] payload to `out`.
pub(crate) fn put_request(out: &mut Vec<u8>, request: &CandidateRequest) {
    match request.target() {
        CandidateTarget::Entity(id) => {
            put_u8(out, TARGET_ENTITY);
            put_u32(out, id.0);
        }
        CandidateTarget::Probe { profile, is_first } => {
            put_u8(out, TARGET_PROBE);
            put_u8(out, u8::from(*is_first));
            put_profile(out, profile);
        }
        CandidateTarget::Batch => put_u8(out, TARGET_BATCH),
    }
    match request.retention() {
        None => put_u8(out, RETENTION_DEFAULT),
        Some(Retention::TopK(k)) => {
            put_u8(out, RETENTION_TOP_K);
            put_u64(out, k as u64);
        }
        Some(Retention::AboveMean) => put_u8(out, RETENTION_ABOVE_MEAN),
    }
    put_u32(out, request.threads() as u32);
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
    encoded(|out| put_response(out, response))
}

/// Appends a [`response_bytes`] payload to `out`.
pub(crate) fn put_response(out: &mut Vec<u8>, response: &CandidateResponse) {
    put_u64(out, response.generation);
    put_bytes(out, response.scheme.token().as_bytes());
    match response.retention {
        Retention::TopK(k) => {
            put_u8(out, RETENTION_TOP_K);
            put_u64(out, k as u64);
        }
        Retention::AboveMean => put_u8(out, RETENTION_ABOVE_MEAN),
    }
    put_u32(out, response.results.len() as u32);
    for scored in &response.results {
        put_u32(out, scored.candidates.len() as u32);
        for c in &scored.candidates {
            put_u32(out, c.id.0);
            put_u64(out, c.weight.to_bits());
        }
        put_u64(out, scored.blocks_touched);
        put_u64(out, scored.edges_scored);
    }
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
    encoded(|out| put_text(out, text))
}

/// Appends a [`text_bytes`] payload to `out`.
pub(crate) fn put_text(out: &mut Vec<u8>, text: &str) {
    put_bytes(out, text.as_bytes());
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
    encoded(|out| put_ok(out, generation))
}

/// Appends a [`ok_bytes`] payload to `out`.
pub(crate) fn put_ok(out: &mut Vec<u8>, generation: u64) {
    put_u64(out, generation);
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
    encoded(|out| put_upsert(out, id, profile))
}

/// Appends a [`upsert_bytes`] payload to `out`.
pub(crate) fn put_upsert(out: &mut Vec<u8>, id: u32, profile: &EntityProfile) {
    put_u32(out, id);
    put_profile(out, profile);
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
    encoded(|out| put_upsert_ok(out, generation, id))
}

/// Appends a [`upsert_ok_bytes`] payload to `out`.
pub(crate) fn put_upsert_ok(out: &mut Vec<u8>, generation: u64, id: u32) {
    put_u64(out, generation);
    put_u32(out, id);
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
    encoded(|out| put_delete(out, id))
}

/// Appends a [`delete_bytes`] payload to `out`.
pub(crate) fn put_delete(out: &mut Vec<u8>, id: u32) {
    put_u32(out, id);
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
    encoded(|out| put_compact(out, bundle, out_path))
}

/// Appends a [`compact_bytes`] payload to `out`.
pub(crate) fn put_compact(out: &mut Vec<u8>, bundle: &str, out_path: Option<&str>) {
    put_bytes(out, bundle.as_bytes());
    put_bytes(out, out_path.unwrap_or("").as_bytes());
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

    /// Length and kernel digest of the frames
    /// `a_frame_writer_sends_what_write_frame_sends_for_every_message_kind`
    /// builds, recorded with `write_frame` and the `*_bytes` encoders for
    /// wire version 2. A change here is a format change: it bumps
    /// [`WIRE_VERSION`].
    const WIRE_DIGEST_LEN: usize = 501;
    const WIRE_DIGEST: u64 = 0x058e_1561_e55d_fb60;

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
            // kind u8 | len u32 | checksum u64 | payload
            let mut expected = vec![MSG_RESPONSE];
            expected.extend_from_slice(&(len as u32).to_le_bytes());
            expected.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
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

    /// Reads the two frames of `wire` through a peer that times out before
    /// each of the chunks `cuts` splits it into; returns the timeouts seen.
    fn read_two_frames_cut_at(wire: &[u8], cuts: &[usize]) -> usize {
        let mut chunks = std::collections::VecDeque::new();
        let mut taken = 0;
        for &cut in cuts.iter().chain([&wire.len()]) {
            chunks.push_back(&wire[taken..cut]);
            taken = cut;
        }
        let mut peer = Stuttering { chunks, timed_out: false };
        let mut frames = FrameReader::default();
        let mut read = Vec::new();
        let mut timeouts = 0;
        while read.len() < 2 {
            match frames.read(&mut peer) {
                Ok((kind, payload)) => read.push((kind, payload.to_vec())),
                Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                }
                Err(e) => panic!("cuts {cuts:?}: {e}"),
            }
        }
        assert_eq!(read[0], (MSG_REQUEST, b"resumable payload".to_vec()), "cuts {cuts:?}");
        assert_eq!(read[1], (MSG_SHUTDOWN, Vec::new()), "cuts {cuts:?}");
        // The stream ends between frames: a clean disconnect.
        let end = loop {
            match frames.read(&mut peer) {
                Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                other => break other.map(|(kind, payload)| (kind, payload.to_vec())),
            }
        };
        assert!(matches!(end, Err(ServeError::Disconnected)), "cuts {cuts:?}: {end:?}");
        timeouts
    }

    #[test]
    fn frame_reader_resumes_after_a_timeout_anywhere_in_the_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MSG_REQUEST, b"resumable payload").unwrap();
        write_frame(&mut wire, MSG_SHUTDOWN, b"").unwrap();
        // Every cut and every pair of cuts of the two frames: inside
        // either header, at either header's end, inside the payload,
        // between the frames, and twice within one frame. Then one cut in
        // each of the first header, the first payload and the second
        // header, and every byte its own chunk. Each chunk follows exactly
        // one timeout.
        let offsets = 1..wire.len();
        let mut cut_sets: Vec<Vec<usize>> = offsets.clone().map(|cut| vec![cut]).collect();
        for first in offsets.clone() {
            cut_sets.extend((first + 1..wire.len()).map(|second| vec![first, second]));
        }
        let second_frame = FRAME_HEADER + b"resumable payload".len();
        cut_sets.push(vec![5, 16, second_frame + 2]);
        cut_sets.push(offsets.collect());
        for cuts in &cut_sets {
            let timeouts = read_two_frames_cut_at(&wire, cuts);
            assert_eq!(timeouts, cuts.len() + 1, "cuts {cuts:?}: each chunk follows a timeout");
        }
    }

    /// A stream that counts the `read` calls made on it.
    struct Counting {
        wire: std::io::Cursor<Vec<u8>>,
        calls: usize,
    }

    impl Counting {
        fn new(frames: &[(u8, &[u8])]) -> Counting {
            let mut wire = Vec::new();
            for (kind, payload) in frames {
                write_frame(&mut wire, *kind, payload).unwrap();
            }
            Counting { wire: std::io::Cursor::new(wire), calls: 0 }
        }
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.wire.read(buf)
        }
    }

    #[test]
    fn a_frame_delivered_whole_costs_one_read() {
        for len in [0, 83, 439, FRAME_BUFFER - FRAME_HEADER] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let mut peer = Counting::new(&[(MSG_REQUEST, &payload)]);
            let mut frames = FrameReader::default();
            assert_eq!(frames.read(&mut peer).unwrap(), (MSG_REQUEST, &payload[..]));
            assert_eq!(peer.calls, 1, "{len}-byte payload");
            assert!(matches!(frames.read(&mut peer), Err(ServeError::Disconnected)));
            assert_eq!(peer.calls, 2, "{len}-byte payload");
        }
    }

    #[test]
    fn two_frames_delivered_in_one_read_come_out_in_order() {
        let mut peer = Counting::new(&[(MSG_REQUEST, b"first"), (MSG_UPSERT, b"second")]);
        let mut frames = FrameReader::default();
        assert_eq!(frames.read(&mut peer).unwrap(), (MSG_REQUEST, &b"first"[..]));
        assert_eq!(frames.read(&mut peer).unwrap(), (MSG_UPSERT, &b"second"[..]));
        assert_eq!(peer.calls, 1);
    }

    #[test]
    fn an_over_cap_header_is_rejected_before_the_buffer_grows() {
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut head = Vec::new();
            put_u8(&mut head, MSG_REQUEST);
            put_u32(&mut head, len);
            put_u64(&mut head, 0);
            let mut frames = FrameReader::default();
            let mut peer = std::io::Cursor::new(head);
            for _ in 0..2 {
                // The header stays: the stream cannot be resynchronised.
                assert!(matches!(frames.read(&mut peer), Err(ServeError::FrameTooLarge { .. })));
                assert_eq!(frames.buf.capacity(), FRAME_BUFFER, "{len}-byte claim");
            }
        }
    }

    #[test]
    fn buffers_return_to_their_base_capacity_after_a_large_frame() {
        let large: Vec<u8> = (0..1024 * 1024).map(|i| (i * 31 + 7) as u8).collect();
        let mut out = FrameWriter::default();
        let mut wire = Vec::new();
        for payload in [&b"small"[..], &large, b"small again"] {
            out.send(&mut wire, MSG_RESPONSE, |b| b.extend_from_slice(payload)).unwrap();
            assert_eq!(out.buf.capacity(), FRAME_BUFFER, "{}-byte payload", payload.len());
        }
        let mut frames = FrameReader::default();
        let mut peer = std::io::Cursor::new(wire);
        assert_eq!(frames.read(&mut peer).unwrap(), (MSG_RESPONSE, &b"small"[..]));
        assert_eq!(frames.read(&mut peer).unwrap(), (MSG_RESPONSE, &large[..]));
        assert!(frames.buf.capacity() > FRAME_BUFFER);
        assert_eq!(frames.read(&mut peer).unwrap(), (MSG_RESPONSE, &b"small again"[..]));
        assert_eq!(frames.buf.capacity(), FRAME_BUFFER);
        // `Debug` names the buffers' sizes, never their bytes.
        let shown = format!("{frames:?} {out:?}");
        assert!(shown.len() < 120, "{shown}");
        assert!(shown.contains(&format!("capacity: {FRAME_BUFFER}")), "{shown}");
    }

    #[test]
    fn a_frame_writer_sends_what_write_frame_sends_for_every_message_kind() {
        let profile = EntityProfile::new("probe/3").with("name", "jack miller").with("job", "x");
        let entity = CandidateRequest::entity(EntityId(42)).with_retention(Retention::TopK(7));
        let probe = CandidateRequest::probe(profile.clone(), true);
        let batch = CandidateRequest::batch().with_threads(4).with_retention(Retention::AboveMean);
        let response = CandidateResponse {
            results: vec![Scored {
                candidates: vec![Candidate { id: EntityId(3), weight: 2.5 }],
                blocks_touched: 4,
                edges_scored: 11,
            }],
            retention: Retention::TopK(5),
            scheme: WeightingScheme::Ejs,
            generation: 17,
        };
        let error = ServeError::UnknownMessage { kind: 42 }.to_string();
        type Put<'a> = &'a dyn Fn(&mut Vec<u8>);
        let kinds: [(u8, Vec<u8>, Put<'_>); 13] = [
            (MSG_REQUEST, request_bytes(&entity), &|b| put_request(b, &entity)),
            (MSG_REQUEST, request_bytes(&probe), &|b| put_request(b, &probe)),
            (MSG_REQUEST, request_bytes(&batch), &|b| put_request(b, &batch)),
            (MSG_RELOAD, text_bytes("next.mbsnap"), &|b| put_text(b, "next.mbsnap")),
            (MSG_SHUTDOWN, Vec::new(), &|_| {}),
            (MSG_UPSERT, upsert_bytes(9, &profile), &|b| put_upsert(b, 9, &profile)),
            (MSG_UPSERT, upsert_bytes(crate::APPEND, &profile), &|b| {
                put_upsert(b, crate::APPEND, &profile)
            }),
            (MSG_DELETE, delete_bytes(12), &|b| put_delete(b, 12)),
            (MSG_COMPACT, compact_bytes("bundle", Some("out")), &|b| {
                put_compact(b, "bundle", Some("out"))
            }),
            (MSG_RESPONSE, response_bytes(&response), &|b| put_response(b, &response)),
            (MSG_OK, ok_bytes(17), &|b| put_ok(b, 17)),
            (MSG_OK, upsert_ok_bytes(18, 41), &|b| put_upsert_ok(b, 18, 41)),
            (MSG_ERROR, text_bytes(&error), &|b| put_text(b, &error)),
        ];
        let mut out = FrameWriter::default();
        let mut all = Vec::new();
        for (kind, payload, put) in kinds {
            let mut expected = Vec::new();
            write_frame(&mut expected, kind, &payload).unwrap();
            let mut sent = Recording::default();
            out.send(&mut sent, kind, put).unwrap();
            assert_eq!(sent.calls, 1, "kind {kind}");
            assert!(sent.bytes == expected, "kind {kind}: frame bytes differ");
            all.extend_from_slice(&expected);
        }
        // The same frames, byte for byte, as wire version 2 has always sent
        // them.
        assert_eq!((all.len(), fnv1a_wide(&all)), (WIRE_DIGEST_LEN, WIRE_DIGEST));
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

        // A v1 peer (byte-wise frame checksums) and a future one are both
        // refused at the hello.
        for (version, found, supported) in [(1, 1, 2), (WIRE_VERSION + 1, 3, 2)] {
            let mut hello = Vec::new();
            hello.extend_from_slice(&WIRE_MAGIC);
            put_u32(&mut hello, version);
            put_u64(&mut hello, 1);
            let err = read_hello(&mut std::io::Cursor::new(&hello)).unwrap_err();
            assert!(
                matches!(err, ServeError::Handshake { found: f, supported: s }
                    if f == found && s == supported),
                "v{version}: {err}"
            );
        }
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

    /// `write_frame`'s bytes for a `len`-byte patterned payload.
    fn patterned_frame(len: usize) -> Vec<u8> {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, MSG_REQUEST, &payload).unwrap();
        wire
    }

    fn refused(wire: &[u8]) -> bool {
        matches!(read_frame(&mut std::io::Cursor::new(wire)), Err(ServeError::FrameChecksum))
    }

    #[test]
    fn every_single_bit_flip_of_a_payload_is_refused() {
        for len in 0..=72 {
            let wire = patterned_frame(len);
            let sum = frame_checksum(&wire[FRAME_HEADER..]);
            for bit in FRAME_HEADER * 8..wire.len() * 8 {
                let mut bad = wire.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(&bad[FRAME_HEADER..]), sum, "{len} bytes, bit {bit}");
                assert!(refused(&bad), "{len} bytes, bit {bit}");
            }
        }
    }

    #[test]
    fn a_trailing_zero_byte_is_refused() {
        for len in 0..=72 {
            let mut longer = patterned_frame(len);
            longer.push(0);
            longer[1..5].copy_from_slice(&(len as u32 + 1).to_le_bytes());
            // Off a word boundary the kernel alone cannot tell the zero from
            // its padding; the folded-in length does.
            let payload = &longer[FRAME_HEADER..];
            if len % 8 != 0 {
                assert_eq!(fnv1a_wide(payload), fnv1a_wide(&payload[..len]), "{len} bytes");
            }
            assert!(refused(&longer), "{len} bytes");
        }
    }

    #[test]
    fn words_swapped_across_lanes_are_refused() {
        let wire = patterned_frame(72);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (0, 8)] {
            let (a, b) = (FRAME_HEADER + a * 8, FRAME_HEADER + b * 8);
            let mut swapped = wire.clone();
            swapped[a..a + 8].copy_from_slice(&wire[b..b + 8]);
            swapped[b..b + 8].copy_from_slice(&wire[a..a + 8]);
            assert!(refused(&swapped), "words at {a} and {b}");
        }
    }

    #[test]
    fn invalid_utf8_in_a_probe_or_upsert_profile_is_a_typed_error() {
        let profile = EntityProfile::new("uri").with("name", "value");
        let probe = request_bytes(&CandidateRequest::probe(profile.clone(), false));
        let upsert = upsert_bytes(3, &profile);
        // The profile follows 2 bytes of target in a probe and a 4-byte id
        // in an upsert: uri (4 + 3), count (4), name (4 + 4), value (4 + 5).
        for (bytes, at, section) in [(&probe, 2, "request"), (&upsert, 4, "upsert")] {
            for (field, byte) in [("uri", at + 4), ("name", at + 15), ("value", at + 23)] {
                let mut bad = bytes.clone();
                bad[byte] = 0xff;
                let err = if section == "request" {
                    parse_request(&bad).map(drop).unwrap_err()
                } else {
                    parse_upsert(&bad).map(drop).unwrap_err()
                };
                assert!(
                    matches!(err, ServeError::Frame(SnapshotError::Utf8 { section: s }) if s == section),
                    "{section} {field}: {err:?}"
                );
            }
        }
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
