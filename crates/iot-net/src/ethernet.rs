//! Ethernet II framing.

use crate::error::Error;
use crate::mac::MacAddr;
use crate::Result;

/// Length of an Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;

/// EtherType values this substrate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806) — present in captures but ignored by the analyses.
    Arp,
    /// IPv6 (0x86DD) — parsed for completeness; the testbeds are IPv4-only.
    Ipv6,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => v,
        }
    }
}

/// A parsed Ethernet II frame borrowing its payload from the capture buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame<'a> {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Frame payload (the network-layer packet).
    pub payload: &'a [u8],
}

impl<'a> EthernetFrame<'a> {
    /// Parses a frame from raw bytes.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "ethernet",
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]).into();
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: &data[HEADER_LEN..],
        })
    }

    /// Serializes header + payload into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        write_header(&mut out, self.dst, self.src, self.ethertype);
        out.extend_from_slice(self.payload);
        out
    }
}

/// Appends an Ethernet II header to `out`.
pub fn write_header(out: &mut Vec<u8>, dst: MacAddr, src: MacAddr, ethertype: EtherType) {
    out.extend_from_slice(&dst.octets());
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&u16::from(ethertype).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(0, 1, 2, 3, 4, 5),
            ethertype: EtherType::Ipv4,
            payload: b"hello",
        };
        let bytes = frame.encode();
        let parsed = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EthernetFrame::parse(&[0u8; 13]),
            Err(Error::Truncated { layer: "ethernet", .. })
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800u16), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806u16), EtherType::Arp);
        assert_eq!(EtherType::from(0x86ddu16), EtherType::Ipv6);
        assert_eq!(EtherType::from(0x1234u16), EtherType::Other(0x1234));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn empty_payload_ok() {
        let frame = EthernetFrame {
            dst: MacAddr::new(1, 1, 1, 1, 1, 1),
            src: MacAddr::new(2, 2, 2, 2, 2, 2),
            ethertype: EtherType::Arp,
            payload: &[],
        };
        let parsed_bytes = frame.encode();
        assert_eq!(parsed_bytes.len(), HEADER_LEN);
        assert_eq!(EthernetFrame::parse(&parsed_bytes).unwrap().payload, &[] as &[u8]);
    }
}
