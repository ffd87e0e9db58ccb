//! Little-endian codec primitives for the snapshot format.
//!
//! Safe Rust only: every read is bounds-checked through [`Reader`] and
//! returns a typed [`SnapshotError`] instead of panicking, and writes append
//! to a growable buffer. Multi-byte integers are explicitly little-endian so
//! a snapshot is byte-identical across host endianness.
//!
//! All raw `from_le_bytes` decoding in this crate lives here, below the
//! version-checked section framing — the `snapshot-unversioned-read` lint
//! rule keeps it that way.

use crate::error::SnapshotError;
use er_model::{EntityProfile, U32s};

/// FNV-1a 64-bit — the section checksum.
///
/// Not cryptographic; it exists to catch bit rot and torn writes, and the
/// property tests flip bytes to prove it does.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Four-lane word-wise FNV-1a 64 — the section checksum of the aligned
/// `MBSNAP05` layout.
///
/// Sections are zero-padded to 8-byte multiples, so the checksum hashes
/// `u64` words instead of bytes; interleaving the words round-robin over
/// four independent FNV-1a lanes breaks the serial xor-multiply dependency
/// chain (the lanes run in instruction-level parallel), and the final
/// digest folds the lane states together in lane order — so both a flipped
/// bit and a swapped word still change the result. `bytes.len()` must be a
/// multiple of 8 (the padded section length by construction).
pub(crate) fn fnv1a_wide(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0, "wide FNV input must be 8-padded");
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    #[inline]
    fn word(c: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        // lint:allow(snapshot-unversioned-read) word-wise checksum over the
        // already-framed, length-checked padded section region.
        u64::from_le_bytes(w)
    }
    let mut lanes = [OFFSET; 4];
    let mut groups = bytes.chunks_exact(32);
    for g in &mut groups {
        lanes[0] = (lanes[0] ^ word(&g[0..8])).wrapping_mul(PRIME);
        lanes[1] = (lanes[1] ^ word(&g[8..16])).wrapping_mul(PRIME);
        lanes[2] = (lanes[2] ^ word(&g[16..24])).wrapping_mul(PRIME);
        lanes[3] = (lanes[3] ^ word(&g[24..32])).wrapping_mul(PRIME);
    }
    for (i, c) in groups.remainder().chunks_exact(8).enumerate() {
        lanes[i] = (lanes[i] ^ word(c)).wrapping_mul(PRIME);
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    h
}

/// `len` rounded up to the next multiple of 8 — the padded on-disk size of
/// a section payload.
pub(crate) fn padded_len(len: usize) -> usize {
    len.div_ceil(8) * 8
}

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u32` length prefix followed by the raw values.
pub(crate) fn put_u32_slice(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_u32(out, v);
    }
}

/// Writes a `u32` length prefix followed by raw bytes.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Writes a profile: uri, attribute count, then name/value pairs, each
/// string length-prefixed. Probe requests, upsert frames and persisted
/// delta runs all carry a profile in exactly these bytes
/// ([`Reader::profile`] reads them back), so changing the layout changes
/// the wire format and the snapshot format together.
pub(crate) fn put_profile(out: &mut Vec<u8>, profile: &EntityProfile) {
    put_bytes(out, profile.uri().as_bytes());
    put_u32(out, profile.attributes().len() as u32);
    for attr in profile.attributes() {
        put_bytes(out, attr.name.as_bytes());
        put_bytes(out, attr.value.as_bytes());
    }
}

/// A bounds-checked cursor over one section's payload.
///
/// Every accessor returns [`SnapshotError::Truncated`] (tagged with the
/// section name) instead of reading past the end, and length-prefixed
/// aggregates verify the declared size against the remaining bytes *before*
/// allocating — a corrupted length field can produce an error, never an
/// out-of-memory abort.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader { buf, pos: 0, section }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                section: self.section,
                needed: (n - self.remaining()) as u64,
                available: self.remaining() as u64,
            });
        }
        Ok(())
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.need(n)?;
        // lint:allow(panic-reachability) in range: need(n) above just
        // proved pos + n <= buf.len().
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u32`-length-prefixed vector of `u32` values, borrowed in
    /// place as packed little-endian bytes — nothing is decoded or copied.
    pub(crate) fn u32s(&mut self) -> Result<U32s<'a>, SnapshotError> {
        let len = self.u32()? as usize;
        Ok(U32s::Le(self.take(len.saturating_mul(4))?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Utf8 { section: self.section })
    }

    /// Reads a profile written by [`put_profile`]. The declared attribute
    /// count is held against the bytes remaining before anything is built
    /// from it, and every pair is read and checked once before the profile
    /// is sized from their length prefixes and filled: two allocations.
    pub(crate) fn profile(&mut self) -> Result<EntityProfile, SnapshotError> {
        let uri = self.str()?;
        let attrs = self.u32()? as usize;
        // Each attribute carries two length prefixes at minimum.
        self.need(attrs.saturating_mul(8))?;
        let pairs_at = self.pos;
        let mut text = 0usize;
        for _ in 0..attrs {
            text += self.str()?.len() + self.str()?.len();
        }
        let mut profile = EntityProfile::sized(uri, attrs, text).map_err(|overflow| {
            SnapshotError::Inconsistent(format!("{}: {overflow}", self.section))
        })?;
        self.pos = pairs_at;
        for _ in 0..attrs {
            let name = self.str()?;
            profile.add(name, self.str()?);
        }
        Ok(profile)
    }

    /// Asserts the payload was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                section: self.section,
                bytes: self.remaining() as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_u32_slice(&mut buf, &[1, u32::MAX, 0]);
        put_bytes(&mut buf, b"tok");
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u32s().unwrap().to_vec(), vec![1, u32::MAX, 0]);
        assert_eq!(r.bytes().unwrap(), b"tok");
        r.finish().unwrap();
    }

    #[test]
    fn reads_past_end_are_typed_errors() {
        let mut r = Reader::new(&[1, 2], "short");
        assert!(matches!(r.u32(), Err(SnapshotError::Truncated { section: "short", .. })));
    }

    #[test]
    fn huge_length_prefix_fails_before_allocating() {
        // A vector claiming u32::MAX entries with 4 bytes of payload must
        // error out, not reserve 16 GiB.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u32(&mut buf, 42);
        let mut r = Reader::new(&buf, "huge");
        assert!(matches!(r.u32s(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn profiles_round_trip() {
        let profiles = [
            EntityProfile::new("dblp/123").with("FullName", "Jack Lloyd Miller").with("job", ""),
            EntityProfile::new("").with("", "straße İstanbul"),
            EntityProfile::new("bare"),
        ];
        let mut buf = Vec::new();
        for p in &profiles {
            put_profile(&mut buf, p);
        }
        let mut r = Reader::new(&buf, "test");
        for p in &profiles {
            assert_eq!(&r.profile().unwrap(), p);
        }
        r.finish().unwrap();
    }

    #[test]
    fn hostile_profiles_are_typed_errors_naming_the_section_being_read() {
        let mut good = Vec::new();
        put_profile(&mut good, &EntityProfile::new("uri").with("name", "value"));
        // uri: 4 + 3 bytes, then the attribute count.
        let count_at = 7;
        let mut inflated = good.clone();
        inflated[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut not_utf8 = good.clone();
        *not_utf8.last_mut().unwrap() = 0xff;
        let mut bad_uri = good.clone();
        bad_uri[4] = 0xff;

        for section in ["request", "upsert", "delta"] {
            for cut in 0..good.len() {
                let err = Reader::new(&good[..cut], section).profile().unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Truncated { section: s, .. } if s == section),
                    "{section}, cut at {cut}: {err:?}"
                );
            }
            // u32::MAX attributes would need ~32 GiB of length prefixes:
            // refused on the count, with the whole attribute list unread.
            let err = Reader::new(&inflated, section).profile().unwrap_err();
            let rest = (inflated.len() - count_at - 4) as u64;
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { section: s, available, .. }
                        if s == section && available == rest
                ),
                "{section}: {err:?}"
            );
            for bytes in [&not_utf8, &bad_uri] {
                let err = Reader::new(bytes, section).profile().unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Utf8 { section: s } if s == section),
                    "{section}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn unconsumed_payload_is_reported() {
        let r = Reader::new(&[0, 0], "extra");
        assert!(matches!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { section: "extra", bytes: 2 })
        ));
    }
}
