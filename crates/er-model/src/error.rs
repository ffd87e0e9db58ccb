//! Error type shared by the workspace crates.

use crate::profile::ProfileOverflow;
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while constructing or restructuring block collections.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A ratio-valued parameter (e.g. Block Filtering's `r`) was outside
    /// `(0, 1]`.
    InvalidRatio {
        /// Name of the offending parameter.
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The input entity collection contains no profiles.
    EmptyCollection,
    /// An entity id referenced a profile outside the collection.
    EntityOutOfBounds {
        /// The offending id value.
        id: u32,
        /// Number of profiles in the collection.
        len: usize,
    },
    /// A Clean-Clean operation was invoked on a Dirty collection or
    /// vice versa.
    KindMismatch {
        /// What the operation required.
        expected: &'static str,
    },
    /// A parameter that must be positive was zero.
    ZeroParameter(&'static str),
    /// A dataset-generation configuration failed structural validation
    /// (`er-datagen`'s `DatasetConfig::validate`); the payload is the
    /// specific constraint that was violated.
    InvalidConfig(String),
    /// A profile's text outgrew the `u32` offsets that delimit it.
    ProfileOverflow(ProfileOverflow),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidRatio { param, value } => {
                write!(f, "parameter `{param}` must lie in (0, 1], got {value}")
            }
            Error::EmptyCollection => write!(f, "entity collection is empty"),
            Error::EntityOutOfBounds { id, len } => {
                write!(f, "entity id {id} out of bounds for collection of {len} profiles")
            }
            Error::KindMismatch { expected } => {
                write!(f, "operation requires a {expected} ER task")
            }
            Error::ZeroParameter(p) => write!(f, "parameter `{p}` must be positive"),
            Error::InvalidConfig(reason) => write!(f, "invalid dataset config: {reason}"),
            Error::ProfileOverflow(overflow) => write!(f, "{overflow}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ProfileOverflow> for Error {
    fn from(overflow: ProfileOverflow) -> Self {
        Error::ProfileOverflow(overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::InvalidRatio { param: "r", value: 1.5 };
        assert!(e.to_string().contains('r'));
        assert!(e.to_string().contains("1.5"));
        assert_eq!(Error::EmptyCollection.to_string(), "entity collection is empty");
        assert!(Error::EntityOutOfBounds { id: 9, len: 3 }.to_string().contains('9'));
        assert!(Error::KindMismatch { expected: "Clean-Clean" }
            .to_string()
            .contains("Clean-Clean"));
        assert!(Error::ZeroParameter("k").to_string().contains('k'));
        assert_eq!(
            Error::InvalidConfig("matched_pairs exceeds a side size".into()).to_string(),
            "invalid dataset config: matched_pairs exceeds a side size"
        );
    }
}
