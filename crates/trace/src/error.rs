//! Error types for trace encoding and decoding.

use std::fmt;
use std::io;

/// An error produced while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The magic the parser expected.
        expected: [u8; 4],
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
        /// The newest version this parser understands.
        supported: u16,
    },
    /// The byte stream is structurally invalid.
    Corrupt {
        /// Byte offset at which the corruption was detected.
        offset: u64,
        /// What the parser was trying to decode.
        what: &'static str,
    },
    /// A varint ran past its maximum encodable length.
    VarintOverflow {
        /// Byte offset of the offending varint.
        offset: u64,
    },
    /// The stream ended in the middle of a record.
    UnexpectedEof {
        /// What the parser was trying to decode.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            Self::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads <= {supported})"
                )
            }
            Self::Corrupt { offset, what } => {
                write!(f, "corrupt stream at byte {offset} while decoding {what}")
            }
            Self::VarintOverflow { offset } => {
                write!(f, "varint longer than 10 bytes at offset {offset}")
            }
            Self::UnexpectedEof { what } => write!(f, "unexpected end of stream decoding {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Convenience alias for trace results.
pub type Result<T> = std::result::Result<T, TraceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::BadMagic {
            expected: *b"BPTR",
            found: *b"ELF\x7f",
        };
        assert!(e.to_string().contains("BPTR"));
        let e = TraceError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = TraceError::Corrupt {
            offset: 42,
            what: "record flags",
        };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn io_errors_convert() {
        let ioe = io::Error::other("boom");
        let e: TraceError = ioe.into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
