//! Typed snapshot errors.
//!
//! Every failure mode of the persistence layer is a distinct variant, so
//! callers (and the corruption tests) can match on *why* a snapshot was
//! rejected. Loading never panics on bad input: the header checks run before
//! any payload is decoded, and every payload read is bounds-checked.

use std::fmt;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic bytes.
    BadMagic {
        /// The first bytes actually found.
        found: [u8; 8],
    },
    /// The file (a snapshot or a write-ahead log) was written by a
    /// different (incompatible) format version.
    UnsupportedVersion {
        /// Version recorded in the header.
        found: u32,
        /// The single version this build can read.
        supported: u32,
    },
    /// The header's byte-order marker does not decode to the expected value;
    /// the file was not produced by the little-endian on-disk convention.
    EndiannessMismatch {
        /// The marker as decoded little-endian.
        found: u32,
    },
    /// The file holds a different structure than the caller asked for.
    KindMismatch {
        /// Kind tag recorded in the header.
        found: u32,
        /// Kind tag the caller expected.
        expected: u32,
    },
    /// The payload hash does not match the checksum in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The file ends before the declared payload (or header) is complete.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The payload bytes decode to a structurally invalid value (an
    /// impossible length, a broken invariant, an unknown tag).
    Corrupt(String),
    /// Decoding finished with unread payload bytes left over.
    TrailingBytes {
        /// Number of bytes left unread.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a fairnn snapshot (magic bytes {found:02x?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "format version {found} is not supported (this build reads version {supported}); \
                 upgrade a snapshot by rebuilding the structure from its raw data and re-saving it \
                 with this build, and a write-ahead log by replaying it and taking a checkpoint \
                 with the build that wrote it, then deleting it (versions are deliberate breaks — \
                 there are no migration shims)"
            ),
            SnapshotError::EndiannessMismatch { found } => write!(
                f,
                "snapshot byte-order marker decodes to {found:#010x}; the file does not follow the little-endian convention"
            ),
            SnapshotError::KindMismatch { found, expected } => write!(
                f,
                "snapshot holds structure kind {found}, expected kind {expected}"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} byte(s), only {available} available"
            ),
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
            SnapshotError::TrailingBytes { remaining } => write!(
                f,
                "snapshot payload has {remaining} trailing byte(s) after decoding"
            ),
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

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(SnapshotError, &str)> = vec![
            (SnapshotError::BadMagic { found: [0; 8] }, "magic"),
            (
                SnapshotError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (SnapshotError::EndiannessMismatch { found: 1 }, "byte-order"),
            (
                SnapshotError::KindMismatch {
                    found: 2,
                    expected: 3,
                },
                "kind",
            ),
            (
                SnapshotError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (
                SnapshotError::Truncated {
                    needed: 8,
                    available: 3,
                },
                "truncated",
            ),
            (SnapshotError::Corrupt("bad".into()), "corrupt"),
            (SnapshotError::TrailingBytes { remaining: 4 }, "trailing"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} does not mention {needle}"
            );
        }
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let err: SnapshotError =
            std::io::Error::new(std::io::ErrorKind::NotFound, "missing").into();
        assert!(err.to_string().contains("I/O"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
