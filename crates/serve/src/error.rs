//! The typed failure modes of snapshot persistence.
//!
//! Decoding untrusted bytes must never panic: every way a snapshot file can
//! be wrong — truncated, bit-flipped, written by a newer format, internally
//! inconsistent — maps to a variant here, and the decoder's only side effect
//! on bad input is returning one.

use er_model::tokenize::ArenaOverflow;
use std::convert::Infallible;
use std::fmt;

/// Everything that can go wrong building, writing, or loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The file is of another format version, older or newer, than the one
    /// this build reads.
    ///
    /// Versioning policy: readers accept exactly the version they know;
    /// they never guess at sections written by another layout.
    UnsupportedVersion {
        /// The version stamped in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The input ended (or a declared length overran it) while `section`
    /// still needed `needed` more bytes of the `available` left.
    Truncated {
        /// The section (or `"frame"` for the file-level framing) being read.
        section: &'static str,
        /// Bytes the decoder still needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's payload does not hash to its recorded checksum.
    ChecksumMismatch {
        /// The damaged section.
        section: &'static str,
    },
    /// A section id this format version does not define.
    UnknownSection {
        /// The unrecognized id.
        id: u32,
    },
    /// The same section appeared twice.
    DuplicateSection {
        /// The repeated section.
        section: &'static str,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing section.
        section: &'static str,
    },
    /// A section's recorded file offset breaks the format's 8-byte
    /// alignment guarantee — the property the loader borrows arrays on.
    Misaligned {
        /// The misaligned section.
        section: &'static str,
        /// The offset the table recorded.
        offset: u64,
    },
    /// Bytes remained after a payload (or after the last section) was fully
    /// decoded.
    TrailingBytes {
        /// The over-long section (or `"frame"`).
        section: &'static str,
        /// How many bytes were left over.
        bytes: u64,
    },
    /// A persisted string is not valid UTF-8.
    Utf8 {
        /// The section holding the string.
        section: &'static str,
    },
    /// The persisted pipeline configuration failed to parse or validate.
    Config(String),
    /// The collection's blocking vocabulary does not fit the format's `u32`
    /// token ids and blob offsets.
    Vocabulary(ArenaOverflow),
    /// A section breaches a structural invariant, or sections decode
    /// individually but contradict each other.
    Inconsistent(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} unsupported (this build reads version {supported} only)"
                )
            }
            SnapshotError::Truncated { section, needed, available } => {
                write!(f, "snapshot truncated in section '{section}': needed {needed} more bytes, {available} available")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            SnapshotError::UnknownSection { id } => write!(f, "unknown snapshot section id {id}"),
            SnapshotError::DuplicateSection { section } => {
                write!(f, "duplicate snapshot section '{section}'")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "missing snapshot section '{section}'")
            }
            SnapshotError::Misaligned { section, offset } => {
                write!(f, "section '{section}' at offset {offset} breaks 8-byte alignment")
            }
            SnapshotError::TrailingBytes { section, bytes } => {
                write!(f, "{bytes} trailing bytes after section '{section}'")
            }
            SnapshotError::Utf8 { section } => {
                write!(f, "invalid UTF-8 in section '{section}'")
            }
            SnapshotError::Config(msg) => write!(f, "snapshot pipeline config invalid: {msg}"),
            SnapshotError::Vocabulary(overflow) => {
                write!(f, "snapshot cannot be built: {overflow}")
            }
            SnapshotError::Inconsistent(msg) => write!(f, "snapshot inconsistent: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArenaOverflow> for SnapshotError {
    fn from(overflow: ArenaOverflow) -> Self {
        SnapshotError::Vocabulary(overflow)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Lets APIs that take `impl TryInto<SnapshotView>` accept an already
/// loaded view (whose conversion cannot fail) beside a built `Snapshot`.
impl From<Infallible> for SnapshotError {
    fn from(never: Infallible) -> Self {
        match never {}
    }
}

/// Everything that can go wrong on the online serving path.
///
/// Same contract as [`SnapshotError`]: a hostile or broken peer can only
/// ever produce one of these variants — never a panic, never an unbounded
/// allocation. Frame-level decode failures reuse the snapshot codec's typed
/// errors through [`ServeError::Frame`].
#[derive(Debug)]
pub enum ServeError {
    /// The underlying socket or file operation failed.
    Io(std::io::Error),
    /// The peer closed the connection mid-message.
    Disconnected,
    /// The connection greeting did not carry the wire-protocol magic.
    BadHello,
    /// The peer speaks a wire-protocol version this build does not.
    Handshake {
        /// The version the peer announced.
        found: u32,
        /// The only version this build speaks.
        supported: u32,
    },
    /// A frame declared a payload longer than the protocol permits — the
    /// guard that turns a corrupt length prefix into an error instead of an
    /// out-of-memory abort.
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
        /// The protocol's cap.
        max: u64,
    },
    /// A frame's payload does not hash to its recorded checksum.
    FrameChecksum,
    /// A frame kind this protocol version does not define, or one that is
    /// not valid in the current direction.
    UnknownMessage {
        /// The unrecognized kind tag.
        kind: u8,
    },
    /// A frame payload failed to decode (truncated, over-long, bad UTF-8 —
    /// the snapshot codec reader's failures, reused verbatim).
    Frame(SnapshotError),
    /// A request named an entity the serving snapshot does not index.
    EntityOutOfRange {
        /// The requested entity id.
        id: u32,
        /// The snapshot's entity count.
        entities: u64,
    },
    /// A request was well-formed bytes but semantically invalid.
    InvalidRequest(String),
    /// A reload named a snapshot that failed to load or validate; the old
    /// generation keeps serving.
    Reload(Box<SnapshotError>),
    /// The server reported a failure for our request (the client-side view
    /// of any of the above).
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o failed: {e}"),
            ServeError::Disconnected => write!(f, "peer disconnected mid-message"),
            ServeError::BadHello => write!(f, "not an mb-serve peer (bad hello magic)"),
            ServeError::Handshake { found, supported } => {
                write!(
                    f,
                    "wire protocol version {found} unsupported (this build speaks {supported})"
                )
            }
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::FrameChecksum => write!(f, "frame checksum mismatch"),
            ServeError::UnknownMessage { kind } => write!(f, "unknown message kind {kind}"),
            ServeError::Frame(e) => write!(f, "frame payload invalid: {e}"),
            ServeError::EntityOutOfRange { id, entities } => {
                write!(f, "entity {id} out of range (snapshot has {entities} entities)")
            }
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Reload(e) => write!(f, "reload rejected, old generation kept: {e}"),
            ServeError::Remote(msg) => write!(f, "server reported: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Frame(e) => Some(e),
            ServeError::Reload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    /// Classifies clean EOF as [`ServeError::Disconnected`] so tests and
    /// callers can tell a vanished peer from a genuine transport fault.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Disconnected
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Frame(e)
    }
}
