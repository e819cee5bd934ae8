//! Error types for wire-format parsing and pcap I/O.

use std::fmt;

/// Errors produced while encoding/decoding packets or reading capture files.
#[derive(Debug)]
pub enum Error {
    /// The buffer is shorter than the fixed header being parsed.
    Truncated {
        /// Layer being parsed, e.g. `"ipv4"`.
        layer: &'static str,
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes available in the buffer.
        available: usize,
    },
    /// A length field disagrees with the amount of data present.
    LengthMismatch {
        /// Layer the length field belongs to.
        layer: &'static str,
        /// Length claimed by the header.
        claimed: usize,
        /// Length actually available.
        actual: usize,
    },
    /// A field holds a value the parser does not support.
    Unsupported {
        /// Layer containing the field.
        layer: &'static str,
        /// Description of the unsupported value.
        what: &'static str,
    },
    /// A checksum failed verification.
    BadChecksum {
        /// Layer whose checksum failed.
        layer: &'static str,
        /// Checksum found in the header.
        found: u16,
        /// Checksum computed over the data.
        computed: u16,
    },
    /// A pcap file had an unknown magic number.
    BadMagic(u32),
    /// A pcap record header violates the writer invariant (sub-second
    /// microseconds, plausible frame lengths, `orig_len >= incl_len`).
    BadRecord {
        /// Index of the offending record within the capture.
        record: u64,
        /// Which field-sanity rule the header broke.
        what: &'static str,
    },
    /// A packet timestamp exceeds what a classic pcap record header can
    /// represent (`ts_sec` is a `u32`; the format runs out in 2106).
    TimestampOutOfRange {
        /// The unrepresentable timestamp, in microseconds since the epoch.
        ts_micros: u64,
    },
    /// Underlying I/O failure while reading or writing a capture file.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated {
                layer,
                needed,
                available,
            } => write!(
                f,
                "{layer}: truncated packet (need {needed} bytes, have {available})"
            ),
            Error::LengthMismatch {
                layer,
                claimed,
                actual,
            } => write!(
                f,
                "{layer}: length field claims {claimed} bytes but {actual} are present"
            ),
            Error::Unsupported { layer, what } => write!(f, "{layer}: unsupported {what}"),
            Error::BadChecksum {
                layer,
                found,
                computed,
            } => write!(
                f,
                "{layer}: checksum mismatch (header 0x{found:04x}, computed 0x{computed:04x})"
            ),
            Error::BadMagic(m) => write!(f, "pcap: unknown magic number 0x{m:08x}"),
            Error::BadRecord { record, what } => {
                write!(f, "pcap: record {record} has an implausible header ({what})")
            }
            Error::TimestampOutOfRange { ts_micros } => write!(
                f,
                "pcap: timestamp {ts_micros}us exceeds the format's u32 seconds field"
            ),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_truncated() {
        let e = Error::Truncated {
            layer: "ipv4",
            needed: 20,
            available: 4,
        };
        assert_eq!(e.to_string(), "ipv4: truncated packet (need 20 bytes, have 4)");
    }

    #[test]
    fn display_checksum() {
        let e = Error::BadChecksum {
            layer: "tcp",
            found: 0x1234,
            computed: 0xabcd,
        };
        assert!(e.to_string().contains("0x1234"));
        assert!(e.to_string().contains("0xabcd"));
    }

    #[test]
    fn io_error_source_preserved() {
        let e = Error::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
