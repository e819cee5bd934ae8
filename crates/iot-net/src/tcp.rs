//! TCP header encoding and parsing with pseudo-header checksum.

use crate::checksum::Checksum;
use crate::error::Error;
use crate::Result;
use std::fmt;
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// True if all flags in `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (bit, name) in [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::PSH, "PSH"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
        ] {
            if self.contains(bit) {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// A decoded TCP header (options are not generated and are skipped on parse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Parses a header, verifies the checksum against the pseudo-header, and
    /// returns it with the segment payload.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(Self, &[u8])> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                layer: "tcp",
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let data_offset = usize::from(data[12] >> 4) * 4;
        if data_offset < MIN_HEADER_LEN || data.len() < data_offset {
            return Err(Error::Truncated {
                layer: "tcp",
                needed: data_offset.max(MIN_HEADER_LEN),
                available: data.len(),
            });
        }
        let mut ck = Checksum::new();
        ck.push_pseudo_header(src, dst, crate::ipv4::protocol::TCP, data.len() as u16);
        ck.push(data);
        let computed = ck.finish();
        if computed != 0 {
            let found = u16::from_be_bytes([data[16], data[17]]);
            return Err(Error::BadChecksum {
                layer: "tcp",
                found,
                computed,
            });
        }
        let header = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((header, &data[data_offset..]))
    }

    /// Appends header + payload to `out`, then back-patches the checksum,
    /// computed over the pseudo-header for `src`/`dst` and the bytes just
    /// written.
    pub fn write(&self, out: &mut Vec<u8>, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(0x50); // data offset 5 words
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(payload);
        let segment = &mut out[start..];
        let mut ck = Checksum::new();
        ck.push_pseudo_header(src, dst, crate::ipv4::protocol::TCP, segment.len() as u16);
        ck.push(segment);
        segment[16..18].copy_from_slice(&ck.finish().to_be_bytes());
    }

    /// Serializes header + payload into a fresh buffer (see
    /// [`TcpHeader::write`]).
    pub fn encode(&self, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(MIN_HEADER_LEN + payload.len());
        self.write(&mut out, payload, src, dst);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 7);
    const DST: Ipv4Addr = Ipv4Addr::new(52, 84, 1, 9);

    fn sample() -> TcpHeader {
        TcpHeader {
            src_port: 49152,
            dst_port: 443,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let wire = h.encode(b"tls application data", SRC, DST);
        let (parsed, payload) = TcpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"tls application data");
    }

    #[test]
    fn checksum_binds_addresses() {
        let wire = sample().encode(b"x", SRC, DST);
        // Same bytes but claimed to be from a different source must fail.
        assert!(matches!(
            TcpHeader::parse(&wire, Ipv4Addr::new(1, 2, 3, 4), DST),
            Err(Error::BadChecksum { layer: "tcp", .. })
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut wire = sample().encode(b"hello world", SRC, DST);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(TcpHeader::parse(&wire, SRC, DST).is_err());
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn empty_payload() {
        let h = TcpHeader {
            flags: TcpFlags::SYN,
            ..sample()
        };
        let wire = h.encode(&[], SRC, DST);
        let (parsed, payload) = TcpHeader::parse(&wire, SRC, DST).unwrap();
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated() {
        assert!(TcpHeader::parse(&[0u8; 8], SRC, DST).is_err());
    }
}
