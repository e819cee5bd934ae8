//! EUI-48 (MAC) addresses.
//!
//! The Mon(IoT)r testbed separates captured traffic per device by MAC
//! address, and the paper's PII analysis specifically searches for MAC
//! addresses leaked in plaintext payloads (in several textual encodings).
//! [`MacAddr`] therefore supports both wire encoding and the textual forms
//! the leak detector must recognize.

use std::fmt;
use std::str::FromStr;

/// An EUI-48 hardware address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Builds an address from its six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        MacAddr([a, b, c, d, e, f])
    }

    /// Returns the raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// The 3-byte Organizationally Unique Identifier prefix, which
    /// identifies the device vendor (footnote 3 of the paper: a MAC exposes
    /// the vendor and sometimes the device model).
    pub const fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True if the locally-administered bit is set.
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Hyphen-separated uppercase form, e.g. `A4-CF-12-00-01-02` (seen in
    /// Windows-style device registrations).
    pub fn to_hyphen_string(&self) -> String {
        self.0
            .iter()
            .map(|b| format!("{b:02X}"))
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Bare hex form without separators, e.g. `a4cf12000102` (the form most
    /// commonly observed in IoT device registration payloads).
    pub fn to_bare_string(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing a textual MAC address fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError(pub String);

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {:?}", self.0)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    /// Accepts colon-separated, hyphen-separated, or bare 12-hex-digit forms,
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != ':' && *c != '-').collect();
        if hex.len() != 12 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(ParseMacError(s.to_string()));
        }
        // Separators, if present, must be consistent and in the right places.
        if s.len() == 17 {
            let sep = s.as_bytes()[2];
            if sep != b':' && sep != b'-' {
                return Err(ParseMacError(s.to_string()));
            }
            for (i, b) in s.bytes().enumerate() {
                if i % 3 == 2 && b != sep {
                    return Err(ParseMacError(s.to_string()));
                }
            }
        } else if s.len() != 12 {
            return Err(ParseMacError(s.to_string()));
        }
        let mut out = [0u8; 6];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let byte = std::str::from_utf8(chunk)
                .ok()
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| ParseMacError(s.to_string()))?;
            out[i] = byte;
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: MacAddr = MacAddr::new(0xa4, 0xcf, 0x12, 0x00, 0x01, 0x02);

    #[test]
    fn display_is_lower_colon() {
        assert_eq!(SAMPLE.to_string(), "a4:cf:12:00:01:02");
    }

    #[test]
    fn hyphen_form_is_upper() {
        assert_eq!(SAMPLE.to_hyphen_string(), "A4-CF-12-00-01-02");
    }

    #[test]
    fn bare_form() {
        assert_eq!(SAMPLE.to_bare_string(), "a4cf12000102");
    }

    #[test]
    fn parse_all_three_forms() {
        for s in ["a4:cf:12:00:01:02", "A4-CF-12-00-01-02", "a4cf12000102"] {
            assert_eq!(s.parse::<MacAddr>().unwrap(), SAMPLE, "form {s}");
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        for s in ["", "a4:cf:12", "zz:cf:12:00:01:02", "a4cf1200010", "a4:cf-12:00:01:02"] {
            assert!(s.parse::<MacAddr>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn broadcast_and_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!SAMPLE.is_broadcast());
        assert!(!SAMPLE.is_multicast());
        assert!(MacAddr::new(0x02, 0, 0, 0, 0, 1).is_local());
    }

    #[test]
    fn oui_prefix() {
        assert_eq!(SAMPLE.oui(), [0xa4, 0xcf, 0x12]);
    }
}
