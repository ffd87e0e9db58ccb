//! Borrowed `u32` sequences over heterogeneous backing storage.
//!
//! The snapshot serving path answers queries straight out of one loaded
//! byte buffer: the CSR member pool, the offset/split tables and the flat
//! entity-index postings all stay little-endian bytes on the serving path.
//! [`U32s`] is the common currency that lets the graph traversals consume a
//! native `&[u32]`, a `&[EntityId]` arena slice, or a packed `&[u8]` section
//! through one interface — without a decode pass and without `unsafe`
//! reinterpretation (the byte-backed variant reads each element through
//! `u32::from_le_bytes` on a 4-byte chunk).
//!
//! The accessors are `#[inline]` and [`U32s::for_each`] resolves the
//! variant *outside* its element loop, so the byte-backed hot paths compile
//! to the same shape as a slice walk plus a fixed-width load.

use crate::ids::EntityId;

/// A borrowed sequence of `u32` values over one of three storages.
#[derive(Debug, Clone, Copy)]
pub enum U32s<'a> {
    /// A native `u32` slice (the in-memory entity index, overlay lists,
    /// scratch tables).
    Native(&'a [u32]),
    /// An [`EntityId`] arena slice (the in-memory block member pool).
    Ids(&'a [EntityId]),
    /// Little-endian packed bytes; the length must be a multiple of 4.
    Le(&'a [u8]),
}

impl<'a> U32s<'a> {
    /// An empty sequence.
    pub const EMPTY: U32s<'static> = U32s::Native(&[]);

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            U32s::Native(s) => s.len(),
            U32s::Ids(s) => s.len(),
            U32s::Le(b) => b.len() / 4,
        }
    }

    /// Whether the sequence has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            U32s::Native(s) => s[i],
            U32s::Ids(s) => s[i].0,
            U32s::Le(b) => {
                let mut w = [0u8; 4];
                w.copy_from_slice(&b[i * 4..i * 4 + 4]);
                u32::from_le_bytes(w)
            }
        }
    }

    /// The last element, if any.
    #[inline]
    pub fn last(&self) -> Option<u32> {
        let n = self.len();
        if n == 0 {
            None
        } else {
            Some(self.get(n - 1))
        }
    }

    /// The sub-sequence covering elements `start..end`.
    ///
    /// # Panics
    ///
    /// If `start > end` or `end > self.len()`.
    #[inline]
    pub fn slice(&self, start: usize, end: usize) -> U32s<'a> {
        match self {
            U32s::Native(s) => U32s::Native(&s[start..end]),
            U32s::Ids(s) => U32s::Ids(&s[start..end]),
            U32s::Le(b) => U32s::Le(&b[start * 4..end * 4]),
        }
    }

    /// Calls `f` on every element in order, resolving the storage variant
    /// once before the loop (the hot-path walk).
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        match self {
            U32s::Native(s) => {
                for &x in *s {
                    f(x);
                }
            }
            U32s::Ids(s) => {
                for e in *s {
                    f(e.0);
                }
            }
            U32s::Le(b) => {
                for c in b.chunks_exact(4) {
                    f(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
        }
    }

    /// `true` iff the sequence is strictly ascending with every value in
    /// `[min, max)`. Empty sequences qualify vacuously.
    ///
    /// Because the run is strictly ascending, the range check reduces to
    /// `first >= min` and `last < max` — the walk itself only compares
    /// neighbours, which keeps this the cheapest full-validation primitive
    /// for snapshot loading. The byte-backed variant walks the sequence and
    /// a one-element-shifted copy of itself in lockstep, accumulating a
    /// descent count and a max with no loop-carried scalar dependency, so
    /// the compiler can turn both into SIMD reductions instead of an
    /// early-exit compare chain.
    #[inline]
    pub fn is_strict_run(&self, min: u32, max: u32) -> bool {
        match self {
            U32s::Native(s) => strict_run(s.iter().copied(), min, max),
            U32s::Ids(s) => strict_run(s.iter().map(|e| e.0), min, max),
            U32s::Le(b) => {
                let le4 = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                if b.len() < 4 {
                    return true;
                }
                let first = le4(&b[..4]);
                if first < min {
                    return false;
                }
                let mut descents = 0u32;
                let mut top = first;
                for (a, c) in b[..b.len() - 4].chunks_exact(4).zip(b[4..].chunks_exact(4)) {
                    let v = le4(c);
                    descents += (v <= le4(a)) as u32;
                    top = top.max(v);
                }
                // With no descents the max IS the last element.
                descents == 0 && top < max
            }
        }
    }

    /// Iterator over the elements (for cold paths; hot loops should prefer
    /// [`U32s::for_each`]).
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let this = *self;
        (0..this.len()).map(move |i| this.get(i))
    }

    /// Materializes the sequence as an owned vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|x| out.push(x));
        out
    }
}

/// Shared walk behind [`U32s::is_strict_run`], monomorphized per variant.
#[inline]
fn strict_run(mut it: impl Iterator<Item = u32>, min: u32, max: u32) -> bool {
    let Some(first) = it.next() else {
        return true;
    };
    if first < min {
        return false;
    }
    let mut prev = first;
    for cur in it {
        if cur <= prev {
            return false;
        }
        prev = cur;
    }
    prev < max
}

impl<'a> From<&'a [u32]> for U32s<'a> {
    fn from(s: &'a [u32]) -> Self {
        U32s::Native(s)
    }
}

impl<'a> From<&'a [EntityId]> for U32s<'a> {
    fn from(s: &'a [EntityId]) -> Self {
        U32s::Ids(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes(values: &[u32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn all_variants_agree_on_every_accessor() {
        let values = [7u32, 0, u32::MAX, 41, 42, 1_000_000];
        let ids: Vec<EntityId> = values.iter().copied().map(EntityId).collect();
        let bytes = le_bytes(&values);
        for view in [U32s::Native(&values), U32s::Ids(&ids), U32s::Le(&bytes)] {
            assert_eq!(view.len(), 6);
            assert!(!view.is_empty());
            assert_eq!(view.to_vec(), values);
            assert_eq!(view.iter().collect::<Vec<u32>>(), values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(view.get(i), v);
            }
            assert_eq!(view.last(), Some(1_000_000));
            assert_eq!(view.slice(2, 5).to_vec(), &values[2..5]);
            assert_eq!(view.slice(3, 3).len(), 0);
            let mut walked = Vec::new();
            view.for_each(|x| walked.push(x));
            assert_eq!(walked, values);
        }
    }

    #[test]
    fn empty_views() {
        let bytes: &[u8] = &[];
        for view in [U32s::EMPTY, U32s::Le(bytes)] {
            assert!(view.is_empty());
            assert_eq!(view.len(), 0);
            assert_eq!(view.last(), None);
            assert_eq!(view.to_vec(), Vec::<u32>::new());
        }
    }

    #[test]
    fn strict_run_checks_order_and_range_on_every_variant() {
        let cases: &[(&[u32], u32, u32, bool)] = &[
            (&[], 0, 0, true),             // empty is vacuously valid
            (&[3, 5, 9], 3, 10, true),     // tight bounds
            (&[3, 5, 9], 4, 10, false),    // first below min
            (&[3, 5, 9], 0, 9, false),     // last at max (exclusive)
            (&[3, 5, 5, 9], 0, 10, false), // not strictly ascending
            (&[3, 5, 4, 9], 0, 10, false), // descent mid-run
            (&[7], 7, 8, true),            // singleton
            (&[0, u32::MAX - 1], 0, u32::MAX, true),
        ];
        for &(values, min, max, expect) in cases {
            let ids: Vec<EntityId> = values.iter().copied().map(EntityId).collect();
            let bytes = le_bytes(values);
            for view in [U32s::Native(values), U32s::Ids(&ids), U32s::Le(&bytes)] {
                assert_eq!(view.is_strict_run(min, max), expect, "{values:?} in [{min}, {max})");
            }
        }
    }
}
