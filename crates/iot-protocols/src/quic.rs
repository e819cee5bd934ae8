//! QUIC long-header recognition (RFC 9000 §17.2).
//!
//! §5.1 of the paper classifies QUIC traffic as encrypted alongside TLS.
//! We do not implement the QUIC transport; we only generate and recognize
//! the initial long-header shape on UDP/443 so the protocol analyzer can
//! classify such flows as encrypted without entropy analysis.

use crate::error::ProtoError;
use crate::Result;

/// QUIC over UDP uses the HTTPS port.
pub const PORT: u16 = 443;

/// QUIC version 1.
pub const VERSION_1: u32 = 0x0000_0001;

/// Summary of a QUIC long-header packet, borrowed from the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuicLongHeader<'a> {
    /// Version field.
    pub version: u32,
    /// Destination connection id.
    pub dcid: &'a [u8],
}

impl<'a> QuicLongHeader<'a> {
    /// Appends the long header of an Initial-like datagram; the caller
    /// appends the ciphertext fill next.
    pub fn write_initial_header(out: &mut Vec<u8>, dcid: &[u8]) {
        out.push(0xc3); // long header, fixed bit, Initial type
        out.extend_from_slice(&VERSION_1.to_be_bytes());
        out.push(dcid.len() as u8);
        out.extend_from_slice(dcid);
        out.push(0); // empty SCID
    }

    /// Parses the long-header prefix of a datagram.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < 7 {
            return Err(ProtoError::truncated("quic", "long header"));
        }
        let first = data[0];
        if first & 0x80 == 0 {
            return Err(ProtoError::malformed("quic", "not a long header"));
        }
        if first & 0x40 == 0 {
            return Err(ProtoError::malformed("quic", "fixed bit clear"));
        }
        let version = u32::from_be_bytes([data[1], data[2], data[3], data[4]]);
        let dcid_len = usize::from(data[5]);
        if dcid_len > 20 {
            return Err(ProtoError::malformed("quic", "dcid too long"));
        }
        let dcid = data
            .get(6..6 + dcid_len)
            .ok_or_else(|| ProtoError::truncated("quic", "dcid"))?;
        Ok(QuicLongHeader { version, dcid })
    }
}

/// Heuristic recognizer used by the protocol analyzer.
pub fn looks_like_quic(datagram: &[u8]) -> bool {
    QuicLongHeader::parse(datagram)
        .map(|h| h.version == VERSION_1)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An Initial datagram: the long header for `dcid`, then `fill_len`
    /// bytes of 0xEE standing in for ciphertext.
    fn initial(out: &mut Vec<u8>, dcid: &[u8], fill_len: usize) {
        QuicLongHeader::write_initial_header(out, dcid);
        out.resize(out.len() + fill_len, 0xEE);
    }

    #[test]
    fn roundtrip() {
        let mut datagram = Vec::new();
        initial(&mut datagram, &[1, 2, 3, 4, 5, 6, 7, 8], 1180);
        let parsed = QuicLongHeader::parse(&datagram).unwrap();
        assert_eq!(parsed.version, VERSION_1);
        assert_eq!(parsed.dcid, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(looks_like_quic(&datagram));
    }

    #[test]
    fn short_header_not_quic_long() {
        assert!(!looks_like_quic(&[0x43, 0, 0, 0, 1, 0, 0, 0]));
    }

    #[test]
    fn dns_is_not_quic() {
        // Typical DNS query bytes: id + 0x0100 flags…
        let dns = [0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00];
        assert!(!looks_like_quic(&dns));
    }

    #[test]
    fn wrong_version_not_recognized() {
        let mut d = Vec::new();
        initial(&mut d, &[1], 32);
        d[4] = 9; // version 9
        assert!(!looks_like_quic(&d));
    }

    #[test]
    fn truncated_rejected() {
        assert!(QuicLongHeader::parse(&[0xc3, 0, 0]).is_err());
        let mut d = Vec::new();
        initial(&mut d, &[9; 20], 0);
        d.truncate(10);
        assert!(QuicLongHeader::parse(&d).is_err());
    }
}
