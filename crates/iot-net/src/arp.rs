//! ARP (RFC 826) over Ethernet for IPv4.
//!
//! Real gateway captures are full of ARP: devices announce themselves with
//! gratuitous ARP after association and resolve the gateway before their
//! first IP packet. The analyses ignore ARP (it never leaves the LAN), but
//! the capture layer must carry and skip it faithfully — a pipeline that
//! chokes on non-IP frames would not survive a real pcap.

use crate::error::Error;
use crate::mac::MacAddr;
use crate::Result;
use std::net::Ipv4Addr;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
}

/// An ARP packet for IPv4-over-Ethernet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// Wire length of an IPv4-over-Ethernet ARP packet.
pub const PACKET_LEN: usize = 28;

impl ArpPacket {
    /// A who-has request from `sender` for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr([0; 6]),
            target_ip,
        }
    }

    /// A gratuitous announcement: the sender claims its own address
    /// (devices broadcast this right after DHCP completes).
    pub fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr([0; 6]),
            target_ip: ip,
        }
    }

    /// An is-at reply answering `request`.
    pub fn reply_to(request: &ArpPacket, mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// True for gratuitous announcements (sender ip == target ip).
    pub fn is_gratuitous(&self) -> bool {
        self.op == ArpOp::Request && self.sender_ip == self.target_ip
    }

    /// Serializes to the 28-byte wire format.
    pub fn encode(&self) -> [u8; PACKET_LEN] {
        let mut out = [0u8; PACKET_LEN];
        out[0..2].copy_from_slice(&1u16.to_be_bytes()); // htype: ethernet
        out[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // ptype: ipv4
        out[4] = 6; // hlen
        out[5] = 4; // plen
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        out[6..8].copy_from_slice(&op.to_be_bytes());
        out[8..14].copy_from_slice(&self.sender_mac.octets());
        out[14..18].copy_from_slice(&self.sender_ip.octets());
        out[18..24].copy_from_slice(&self.target_mac.octets());
        out[24..28].copy_from_slice(&self.target_ip.octets());
        out
    }

    /// Parses an ARP packet.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < PACKET_LEN {
            return Err(Error::Truncated {
                layer: "arp",
                needed: PACKET_LEN,
                available: data.len(),
            });
        }
        let htype = u16::from_be_bytes([data[0], data[1]]);
        let ptype = u16::from_be_bytes([data[2], data[3]]);
        if htype != 1 || ptype != 0x0800 || data[4] != 6 || data[5] != 4 {
            return Err(Error::Unsupported {
                layer: "arp",
                what: "hardware or protocol type",
            });
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => {
                return Err(Error::Unsupported {
                    layer: "arp",
                    what: "op",
                })
            }
        };
        let mac = |at: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&data[at..at + 6]);
            MacAddr(m)
        };
        let ip = |at: usize| Ipv4Addr::new(data[at], data[at + 1], data[at + 2], data[at + 3]);
        Ok(ArpPacket {
            op,
            sender_mac: mac(8),
            sender_ip: ip(14),
            target_mac: mac(18),
            target_ip: ip(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC_A: MacAddr = MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 1);
    const MAC_GW: MacAddr = MacAddr::new(0x00, 0x16, 0x3e, 0, 0, 1);
    const IP_A: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 20);
    const IP_GW: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 1);

    #[test]
    fn request_reply_roundtrip() {
        let req = ArpPacket::request(MAC_A, IP_A, IP_GW);
        let parsed = ArpPacket::parse(&req.encode()).unwrap();
        assert_eq!(parsed, req);
        assert!(!parsed.is_gratuitous());

        let reply = ArpPacket::reply_to(&parsed, MAC_GW);
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_ip, IP_GW);
        assert_eq!(reply.target_mac, MAC_A);
        let parsed_reply = ArpPacket::parse(&reply.encode()).unwrap();
        assert_eq!(parsed_reply, reply);
    }

    #[test]
    fn gratuitous_detected() {
        let g = ArpPacket::gratuitous(MAC_A, IP_A);
        assert!(g.is_gratuitous());
        assert!(ArpPacket::parse(&g.encode()).unwrap().is_gratuitous());
    }

    #[test]
    fn rejects_non_ipv4_arp() {
        let mut bytes = ArpPacket::gratuitous(MAC_A, IP_A).encode();
        bytes[3] = 0xdd; // ptype
        assert!(ArpPacket::parse(&bytes).is_err());
        assert!(ArpPacket::parse(&[0u8; 10]).is_err());
    }
}
