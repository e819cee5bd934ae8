//! UDP header encoding and parsing with pseudo-header checksum.

use crate::checksum::Checksum;
use crate::error::Error;
use crate::Result;
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Parses a datagram, verifying length and checksum, and returns the
    /// header with the payload slice.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(Self, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "udp",
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let length = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if length < HEADER_LEN || length > data.len() {
            return Err(Error::LengthMismatch {
                layer: "udp",
                claimed: length,
                actual: data.len(),
            });
        }
        let datagram = &data[..length];
        let found = u16::from_be_bytes([data[6], data[7]]);
        if found != 0 {
            // Checksum 0 means "not computed" in UDP-over-IPv4.
            let mut ck = Checksum::new();
            ck.push_pseudo_header(src, dst, crate::ipv4::protocol::UDP, length as u16);
            ck.push(datagram);
            let computed = ck.finish();
            if computed != 0 {
                return Err(Error::BadChecksum {
                    layer: "udp",
                    found,
                    computed,
                });
            }
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
            },
            &datagram[HEADER_LEN..],
        ))
    }

    /// Appends header + payload to `out`, then back-patches the checksum,
    /// computed over the pseudo-header for `src`/`dst` and the bytes just
    /// written.
    pub fn write(&self, out: &mut Vec<u8>, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) {
        let start = out.len();
        let length = (HEADER_LEN + payload.len()) as u16;
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(payload);
        let datagram = &mut out[start..];
        let mut ck = Checksum::new();
        ck.push_pseudo_header(src, dst, crate::ipv4::protocol::UDP, length);
        ck.push(datagram);
        let mut sum = ck.finish();
        if sum == 0 {
            // RFC 768: a computed zero checksum is transmitted as all-ones.
            sum = 0xffff;
        }
        datagram[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Serializes header + payload into a fresh buffer (see
    /// [`UdpHeader::write`]).
    pub fn encode(&self, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        self.write(&mut out, payload, src, dst);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 8);
    const DST: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    #[test]
    fn roundtrip() {
        let h = UdpHeader {
            src_port: 53124,
            dst_port: 53,
        };
        let wire = h.encode(b"dns query bytes", SRC, DST);
        let (parsed, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"dns query bytes");
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let h = UdpHeader {
            src_port: 123,
            dst_port: 123,
        };
        let mut wire = h.encode(b"ntp", SRC, DST);
        wire[6] = 0;
        wire[7] = 0;
        assert!(UdpHeader::parse(&wire, SRC, DST).is_ok());
    }

    #[test]
    fn corrupted_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut wire = h.encode(b"payload", SRC, DST);
        wire[9] ^= 0x80;
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(Error::BadChecksum { layer: "udp", .. })
        ));
    }

    #[test]
    fn length_field_honored_with_trailing_padding() {
        let h = UdpHeader {
            src_port: 9,
            dst_port: 10,
        };
        let mut wire = h.encode(b"abcd", SRC, DST);
        wire.extend_from_slice(&[0u8; 16]);
        let (_, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(payload, b"abcd");
    }

    #[test]
    fn bad_length_rejected() {
        let h = UdpHeader {
            src_port: 9,
            dst_port: 10,
        };
        let mut wire = h.encode(b"abcd", SRC, DST);
        wire[4] = 0xff;
        wire[5] = 0xff;
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(Error::LengthMismatch { layer: "udp", .. })
        ));
    }
}
