//! IPv4 header encoding and parsing (RFC 791), with header checksum.

use crate::checksum::checksum;
use crate::error::Error;
use crate::Result;
use std::net::Ipv4Addr;

/// Minimum (and, for this substrate's generator, only) IPv4 header length.
pub const MIN_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the testbed.
pub mod protocol {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// A decoded IPv4 header. Options are preserved as raw bytes when parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Total length of header + payload in bytes.
    pub total_len: u16,
    /// Identification field (used by the generator as a per-flow counter).
    pub identification: u16,
    /// Flags (3 bits) and fragment offset (13 bits) packed as on the wire.
    pub flags_fragment: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number (see [`protocol`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Builds a header for a payload of `payload_len` bytes with the
    /// don't-fragment bit set and a default TTL of 64.
    pub fn for_payload(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (MIN_HEADER_LEN + payload_len) as u16,
            identification: 0,
            flags_fragment: 0x4000, // DF
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Parses a header and returns it together with the payload slice.
    ///
    /// The header checksum is verified; captures produced by the simulator
    /// always carry valid checksums, so a mismatch indicates corruption.
    pub fn parse(data: &[u8]) -> Result<(Self, &[u8])> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(Error::Unsupported {
                layer: "ipv4",
                what: "version",
            });
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if ihl < MIN_HEADER_LEN || data.len() < ihl {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: ihl.max(MIN_HEADER_LEN),
                available: data.len(),
            });
        }
        let computed = checksum(&data[..ihl]);
        if computed != 0 {
            let found = u16::from_be_bytes([data[10], data[11]]);
            return Err(Error::BadChecksum {
                layer: "ipv4",
                found,
                computed,
            });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if usize::from(total_len) > data.len() || usize::from(total_len) < ihl {
            return Err(Error::LengthMismatch {
                layer: "ipv4",
                claimed: total_len.into(),
                actual: data.len(),
            });
        }
        let header = Ipv4Header {
            dscp_ecn: data[1],
            total_len,
            identification: u16::from_be_bytes([data[4], data[5]]),
            flags_fragment: u16::from_be_bytes([data[6], data[7]]),
            ttl: data[8],
            protocol: data[9],
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
        };
        Ok((header, &data[ihl..usize::from(total_len)]))
    }

    /// Serializes the header (20 bytes, no options) with a freshly computed
    /// checksum.
    pub fn encode(&self) -> [u8; MIN_HEADER_LEN] {
        let mut out = [0u8; MIN_HEADER_LEN];
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags_fragment.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol;
        // checksum (bytes 10-11) computed over the header with field zeroed
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum(&out);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::for_payload(
            Ipv4Addr::new(192, 168, 10, 5),
            Ipv4Addr::new(52, 1, 2, 3),
            protocol::TCP,
            100,
        )
    }

    #[test]
    fn roundtrip_with_payload() {
        let h = sample();
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[0xaa; 100]);
        let (parsed, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload.len(), 100);
        assert!(payload.iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn corrupted_checksum_detected() {
        let h = sample();
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[0u8; 100]);
        wire[8] ^= 0xff; // flip TTL, invalidating the checksum
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(Error::BadChecksum { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn total_len_trims_trailing_bytes() {
        // Ethernet minimum-frame padding appears after the IP datagram;
        // parse must honor total_len, not the buffer length.
        let h = Ipv4Header::for_payload(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            protocol::UDP,
            4,
        );
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[1, 2, 3, 4]);
        wire.extend_from_slice(&[0u8; 22]); // padding
        let (_, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn rejects_v6() {
        let mut wire = sample().encode().to_vec();
        wire[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(Error::Unsupported { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(Ipv4Header::parse(&[0x45; 10]).is_err());
    }

    #[test]
    fn rejects_bad_total_len() {
        let mut h = sample();
        h.total_len = 10; // < header length
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[0u8; 100]);
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(Error::LengthMismatch { layer: "ipv4", .. })
        ));
    }
}
