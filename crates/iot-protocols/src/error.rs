//! Errors for application-protocol codecs.
//!
//! Every variant names its failure with static strings, so rejecting a
//! buffer never touches the heap: content-based identification probes
//! arbitrary payloads, and most of them are rejected.

use std::fmt;

/// Error produced while encoding or decoding an application protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Buffer ended before the message did.
    Truncated {
        /// Protocol being parsed.
        proto: &'static str,
        /// Context for the failure.
        what: &'static str,
    },
    /// A field value is structurally invalid.
    Malformed {
        /// Protocol being parsed.
        proto: &'static str,
        /// Description of the problem.
        what: &'static str,
    },
    /// The value is valid but this codec does not support it.
    Unsupported {
        /// Protocol being parsed.
        proto: &'static str,
        /// Description of the unsupported feature.
        what: &'static str,
    },
}

impl ProtoError {
    pub(crate) fn truncated(proto: &'static str, what: &'static str) -> Self {
        ProtoError::Truncated { proto, what }
    }

    pub(crate) fn malformed(proto: &'static str, what: &'static str) -> Self {
        ProtoError::Malformed { proto, what }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { proto, what } => write!(f, "{proto}: truncated at {what}"),
            ProtoError::Malformed { proto, what } => write!(f, "{proto}: malformed {what}"),
            ProtoError::Unsupported { proto, what } => write!(f, "{proto}: unsupported {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            ProtoError::truncated("dns", "header").to_string(),
            "dns: truncated at header"
        );
        assert_eq!(
            ProtoError::malformed("tls", "length").to_string(),
            "tls: malformed length"
        );
    }
}
