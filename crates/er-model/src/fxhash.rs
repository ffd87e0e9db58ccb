//! A fast, non-cryptographic hasher for id-keyed maps and sets.
//!
//! The meta-blocking hot paths hash millions of small integer keys (entity
//! ids, packed comparison keys, token ids). The standard library's SipHash is
//! DoS-resistant but needlessly slow for that workload; this module provides
//! the well-known FxHash multiply-rotate mix (as used by rustc) so we do not
//! need an external dependency.
//!
//! The implementation is deterministic: identical inputs hash identically
//! across runs, which keeps experiment output reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash mixing function: one multiply and one rotate per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// The little-endian word of an 8-byte chunk (`0` for any other length,
/// which `chunks_exact(8)` never yields).
#[inline]
pub(crate) fn word(chunk: &[u8]) -> u64 {
    <[u8; 8]>::try_from(chunk).map_or(0, u64::from_le_bytes)
}

/// The little-endian word of fewer than 8 bytes, zero-extended: what
/// copying them into a zeroed `[u8; 8]` reads, without the copy. Four to
/// seven bytes are two overlapping 4-byte loads, one to three bytes the
/// first, middle and last byte; the overlap writes the same bits twice.
/// Longer input reads as its first 8 bytes.
#[inline]
pub(crate) fn short_word(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    if let Some(&first) = bytes.first_chunk::<8>() {
        return u64::from_le_bytes(first);
    }
    if let (Some(&lo), Some(&hi)) = (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        return u64::from(u32::from_le_bytes(lo))
            | u64::from(u32::from_le_bytes(hi)) << (8 * (len - 4));
    }
    if len == 0 {
        return 0;
    }
    let byte = |at: usize| bytes.get(at).map_or(0, |&b| u64::from(b)) << (8 * at);
    byte(0) | byte(len / 2) | byte(len - 1)
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// One word per 8 bytes, little-endian, and a last word for the tail
    /// zero-extended. The tail is not copied: it is read by an 8-byte load
    /// ending at the last byte, shifted down, or, in a key shorter than a
    /// word, by [`short_word`]'s overlapping loads.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(word(chunk));
        }
        let rem = chunks.remainder().len();
        if rem != 0 {
            self.add_to_hash(match bytes.last_chunk::<8>() {
                Some(last) => u64::from_le_bytes(*last) >> (64 - 8 * rem),
                None => short_word(bytes),
            });
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::hash::Hash;

    /// The reference [`FxHasher::write`] is held to: every 8 bytes copied
    /// into a word, the tail copied into a zeroed one.
    pub(crate) fn byte_copy_hash(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            h.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            h.add_to_hash(u64::from_le_bytes(word));
        }
        h.finish()
    }

    fn write_hash(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn write_is_the_byte_copy_hash_at_every_length_and_offset() {
        // xorshift64* bytes, each length read from every offset of a word so
        // the overlapping loads meet every alignment.
        let mut x = 0x5EED_F00Du64;
        let bytes: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect();
        for len in 0..=40 {
            for offset in 0..8 {
                let key = &bytes[offset..offset + len];
                assert_eq!(write_hash(key), byte_copy_hash(key), "len {len} offset {offset}");
            }
        }
        // Bytes with the high bit set, and zero bytes, which the padding is.
        for len in 0..=40 {
            for fill in [0x00u8, 0x80, 0xff] {
                let key = vec![fill; len];
                assert_eq!(write_hash(&key), byte_copy_hash(&key), "len {len} fill {fill:#x}");
            }
        }
    }

    #[test]
    fn a_short_word_is_the_zero_extended_copy() {
        let bytes: Vec<u8> = (0xA1..=0xA8).collect();
        for len in 0..=8 {
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(&bytes[..len]);
            assert_eq!(short_word(&bytes[..len]), u64::from_le_bytes(word), "len {len}");
        }
        assert_eq!(short_word(&[0x11; 12]), 0x1111_1111_1111_1111, "longer reads its first word");
    }

    fn hash_one<T: Hash>(value: T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("token"), hash_one("token"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(1u64), hash_one(2u64));
        assert_ne!(hash_one("a"), hash_one("b"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m[&1], 10);

        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }

    #[test]
    fn handles_unaligned_tails() {
        // Exercises the chunk remainder path with byte strings of every
        // length 0..=16.
        let bytes: Vec<u8> = (1u8..=16).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=16 {
            let mut h = FxHasher::default();
            h.write(&bytes[..len]);
            seen.insert(h.finish());
        }
        // All prefixes hash differently (no collisions among 17 values).
        assert_eq!(seen.len(), 17);
    }
}
