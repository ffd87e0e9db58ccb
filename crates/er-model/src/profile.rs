//! Entity profiles: uniquely identified collections of name–value pairs.
//!
//! A profile is one buffer: its uri, then each attribute name and value,
//! back to back in one `String`, delimited by a `Vec<u32>` of end offsets —
//! the uri's end, then each pair's name end and value end. That is the
//! [`crate::tokenize::KeyArena`] layout at the scale of one profile, so a
//! collection costs its text plus 8 B of offsets per pair, not two heap
//! `String`s per pair.
//!
//! ```
//! use er_model::EntityProfile;
//!
//! let p = EntityProfile::new("dblp/123")
//!     .with("FullName", "Jack Lloyd Miller")
//!     .with("job", "auto seller");
//! assert_eq!(p.attributes().len(), 2);
//! let job = p.attributes().nth(1).unwrap();
//! assert_eq!((job.name, job.value), ("job", "auto seller"));
//! assert_eq!(p.values().collect::<Vec<_>>(), ["Jack Lloyd Miller", "auto seller"]);
//!
//! // The sized path: both buffers are allocated once, up front.
//! let mut q = EntityProfile::sized("dblp/123", 2, 39).unwrap();
//! q.add("FullName", "Jack Lloyd Miller");
//! q.add("job", "auto seller");
//! assert_eq!(p, q);
//! ```

use std::fmt;

/// A single name–value pair of an [`EntityProfile`], borrowed from the
/// profile's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name. Schema-agnostic blocking ignores it, but it is kept
    /// for attribute-aware methods (e.g. Attribute-Clustering Blocking) and
    /// for dataset statistics (|N| in Table 2 of the paper).
    pub name: &'a str,
    /// Attribute value. Free text; blocking tokenizes it.
    pub value: &'a str,
}

/// A profile's text would outgrow the `u32` offsets that delimit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileOverflow {
    /// Bytes of text (uri, names and values) the profile would have held.
    pub text_bytes: u64,
}

impl fmt::Display for ProfileOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile text exceeds u32 addressing: {} bytes", self.text_bytes)
    }
}

impl std::error::Error for ProfileOverflow {}

/// An entity profile: "a uniquely identified collection of name-value pairs
/// that describe a real-world object" (§3 of the paper).
///
/// Profiles are schema-free: two profiles describing the same object may use
/// entirely different attribute names, different numbers of attributes, and
/// noisy values. This is exactly the heterogeneity that schema-agnostic
/// blocking tolerates.
///
/// Invariants (module docs for the layout): `ends` is non-decreasing, its
/// first entry is the uri's end, its last is `text.len()`, and its length is
/// odd. Every offset is a char boundary, because only whole `&str`s are
/// appended. Equal profiles have equal buffers, so the derived `==` and
/// `clone` keep their meaning.
#[derive(Clone, PartialEq, Eq)]
pub struct EntityProfile {
    /// The external identifier (URL, database key, …) — not used by any
    /// algorithm, retained for traceability of results — then every name
    /// and value in insertion order.
    text: String,
    /// The uri's end, then each pair's name end and value end.
    ends: Vec<u32>,
}

impl EntityProfile {
    /// Creates an empty profile with the given external identifier.
    ///
    /// # Panics
    /// If `uri` is longer than `u32::MAX` bytes (see
    /// [`EntityProfile::add`]); [`EntityProfile::sized`] refuses it instead.
    pub fn new(uri: impl AsRef<str>) -> Self {
        let uri = uri.as_ref();
        EntityProfile { text: uri.to_owned(), ends: vec![end_of(uri.len())] }
    }

    /// Creates an empty profile sized for `pairs` name–value pairs holding
    /// `text_bytes` bytes of names and values between them, so filling it
    /// with [`EntityProfile::add`] allocates nothing more: building a
    /// profile this way is two allocations.
    ///
    /// # Errors
    /// [`ProfileOverflow`] if the uri and `text_bytes` together pass
    /// `u32::MAX` bytes, before anything is allocated — the check every
    /// reader of untrusted text goes through.
    pub fn sized(uri: &str, pairs: usize, text_bytes: usize) -> Result<Self, ProfileOverflow> {
        let total = uri.len().checked_add(text_bytes).filter(|&t| u32::try_from(t).is_ok());
        let Some(total) = total else {
            return Err(ProfileOverflow {
                text_bytes: (uri.len() as u64).saturating_add(text_bytes as u64),
            });
        };
        let mut text = String::with_capacity(total);
        text.push_str(uri);
        let mut ends = Vec::with_capacity(pairs.saturating_mul(2).saturating_add(1));
        ends.push(end_of(uri.len()));
        Ok(EntityProfile { text, ends })
    }

    /// Builder-style attribute insertion.
    ///
    /// # Panics
    /// As [`EntityProfile::add`].
    #[must_use]
    pub fn with(mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> Self {
        self.add(name, value);
        self
    }

    /// Appends a name–value pair.
    ///
    /// # Panics
    /// With the [`ProfileOverflow`] message if the profile's text would pass
    /// `u32::MAX` bytes. This is the infallible builder: readers of
    /// untrusted input size the profile through [`EntityProfile::sized`],
    /// which refuses such text with an error first.
    pub fn add(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        self.add_with(|n| n.push_str(name.as_ref()), |v| v.push_str(value.as_ref()));
    }

    /// Appends a name–value pair whose name and value are written in place
    /// by `name` and `value`, in that order — no temporary `String` for a
    /// value assembled from parts.
    ///
    /// # Panics
    /// As [`EntityProfile::add`].
    pub fn add_with(
        &mut self,
        name: impl FnOnce(&mut FieldWriter<'_>),
        value: impl FnOnce(&mut FieldWriter<'_>),
    ) {
        name(&mut FieldWriter(&mut self.text));
        let name_end = end_of(self.text.len());
        value(&mut FieldWriter(&mut self.text));
        let value_end = end_of(self.text.len());
        self.ends.extend([name_end, value_end]);
    }

    /// The external identifier.
    pub fn uri(&self) -> &str {
        // lint:allow(panic-reachability) in range: `ends` is never empty and
        // its first entry is a char boundary of `text`.
        &self.text[..self.ends[0] as usize]
    }

    /// All name–value pairs, in insertion order.
    pub fn attributes(&self) -> impl ExactSizeIterator<Item = Attribute<'_>> {
        let text = self.text.as_str();
        // lint:allow(panic-reachability) in range: consecutive offsets are
        // non-decreasing char boundaries of `text`.
        self.ends.windows(3).step_by(2).map(move |e| Attribute {
            name: &text[e[0] as usize..e[1] as usize],
            value: &text[e[1] as usize..e[2] as usize],
        })
    }

    /// Iterator over attribute values only (what schema-agnostic blocking
    /// consumes).
    pub fn values(&self) -> impl ExactSizeIterator<Item = &str> {
        let text = self.text.as_str();
        // lint:allow(panic-reachability) in range: as in `attributes`, and
        // `ends` holds the uri's end before the pairs.
        self.ends[1..].chunks_exact(2).map(move |e| &text[e[0] as usize..e[1] as usize])
    }

    /// Number of name–value pairs (the per-profile `|p̄|` statistic of
    /// Table 2 averages this).
    pub fn len(&self) -> usize {
        self.ends.len() / 2
    }

    /// Whether the profile has no attributes.
    pub fn is_empty(&self) -> bool {
        self.ends.len() == 1
    }
}

/// The `u32` end offset of text `len` bytes long.
///
/// # Panics
/// With the [`ProfileOverflow`] message past `u32::MAX`: the designed abort
/// of the infallible builders. Readers size through
/// [`EntityProfile::sized`], which refuses such text with an error first.
fn end_of(len: usize) -> u32 {
    assert!(u32::try_from(len).is_ok(), "{}", ProfileOverflow { text_bytes: len as u64 });
    len as u32
}

/// Append-only access to the name or value [`EntityProfile::add_with`] is
/// writing.
pub struct FieldWriter<'a>(&'a mut String);

impl FieldWriter<'_> {
    /// Appends literal text.
    pub fn push_str(&mut self, s: &str) {
        self.0.push_str(s);
    }

    /// Appends one character.
    pub fn push(&mut self, c: char) {
        self.0.push(c);
    }

    /// Appends any `Display` value (numeric suffixes and the like).
    pub fn push_display(&mut self, v: impl fmt::Display) {
        use fmt::Write;
        let _ = write!(self.0, "{v}");
    }
}

impl fmt::Debug for EntityProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Pairs<'a>(&'a EntityProfile);
        impl fmt::Debug for Pairs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.attributes()).finish()
            }
        }
        f.debug_struct("EntityProfile")
            .field("uri", &self.uri())
            .field("attributes", &Pairs(self))
            .finish()
    }
}

impl fmt::Display for EntityProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {{", self.uri())?;
        for (i, a) in self.attributes().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.value)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_attributes() {
        let p = EntityProfile::new("e1").with("name", "Erick Green").with("profession", "vendor");
        assert_eq!(p.uri(), "e1");
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.attributes().nth(1).map(|a| a.name), Some("profession"));
    }

    #[test]
    fn values_iterates_in_order() {
        let p = EntityProfile::new("e2").with("a", "x").with("b", "y");
        let vals: Vec<&str> = p.values().collect();
        assert_eq!(vals, ["x", "y"]);
    }

    #[test]
    fn empty_profile() {
        let p = EntityProfile::new("e3");
        assert!(p.is_empty());
        assert_eq!(p.values().count(), 0);
        assert_eq!(p.attributes().len(), 0);
    }

    #[test]
    fn display_is_readable() {
        let p = EntityProfile::new("e4").with("name", "Nick Papas");
        assert_eq!(p.to_string(), "e4 {name: Nick Papas}");
    }

    #[test]
    fn debug_shows_the_pairs_not_the_offsets() {
        let p = EntityProfile::new("e6").with("name", "Nick");
        assert_eq!(
            format!("{p:?}"),
            r#"EntityProfile { uri: "e6", attributes: [Attribute { name: "name", value: "Nick" }] }"#
        );
    }

    #[test]
    fn duplicate_attribute_names_are_allowed() {
        // Web data frequently repeats the same attribute name.
        let p = EntityProfile::new("e5").with("tag", "a").with("tag", "b");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn add_with_writes_in_place() {
        let mut p = EntityProfile::sized("e7", 1, 10).unwrap();
        p.add_with(
            |n| {
                n.push_str("tag");
                n.push('_');
                n.push_display(42);
            },
            |v| v.push_str("a b"),
        );
        assert_eq!(p, EntityProfile::new("e7").with("tag_42", "a b"));
    }

    #[test]
    fn text_past_u32_is_refused_before_allocating() {
        let max = u32::MAX as usize;
        assert!(EntityProfile::sized("uri", 1, 7).is_ok_and(|p| p.text.capacity() == 10));
        assert_eq!(
            EntityProfile::sized("uri", 0, max - 2),
            Err(ProfileOverflow { text_bytes: max as u64 + 1 })
        );
        assert_eq!(
            EntityProfile::sized("uri", 0, usize::MAX),
            Err(ProfileOverflow { text_bytes: u64::MAX })
        );
        assert_eq!(
            ProfileOverflow { text_bytes: 5 }.to_string(),
            "profile text exceeds u32 addressing: 5 bytes"
        );
    }
}
