//! DHCP (RFC 2131) — just enough to model Wi-Fi reconnects.
//!
//! §7.2 of the paper explains the flood of idle-time "power" detections as
//! devices dropping off Wi-Fi and re-associating, which the authors verified
//! through DHCP server logs. The simulator reproduces that mechanism: an
//! idle reconnect emits a DISCOVER/REQUEST exchange followed by the device's
//! power-on cloud handshake, and the analysis side can check DHCP activity
//! the same way the authors did.

use crate::error::ProtoError;
use crate::Result;
use iot_net::mac::MacAddr;
use std::net::Ipv4Addr;

/// DHCP server port.
pub const SERVER_PORT: u16 = 67;
/// DHCP client port.
pub const CLIENT_PORT: u16 = 68;

/// Option 53 message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// Client broadcast to locate servers.
    Discover,
    /// Server offer.
    Offer,
    /// Client lease request.
    Request,
    /// Server acknowledgment.
    Ack,
}

impl MessageType {
    fn to_byte(self) -> u8 {
        match self {
            MessageType::Discover => 1,
            MessageType::Offer => 2,
            MessageType::Request => 3,
            MessageType::Ack => 5,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        match b {
            1 => Ok(MessageType::Discover),
            2 => Ok(MessageType::Offer),
            3 => Ok(MessageType::Request),
            5 => Ok(MessageType::Ack),
            _ => Err(ProtoError::malformed("dhcp", "message type")),
        }
    }
}

/// The RFC 2131 magic cookie.
const MAGIC_COOKIE: [u8; 4] = [99, 130, 83, 99];
/// Fixed BOOTP header length up to the options field.
const FIXED_LEN: usize = 236;

/// A DHCP message (fixed BOOTP fields + the options we use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// Transaction id.
    pub xid: u32,
    /// Message type (option 53).
    pub mtype: MessageType,
    /// Client hardware address.
    pub chaddr: MacAddr,
    /// "Your" address (offer/ack) or requested address (request).
    pub yiaddr: Ipv4Addr,
}

impl DhcpMessage {
    /// Builds a client DISCOVER.
    pub fn discover(xid: u32, mac: MacAddr) -> Self {
        DhcpMessage {
            xid,
            mtype: MessageType::Discover,
            chaddr: mac,
            yiaddr: Ipv4Addr::UNSPECIFIED,
        }
    }

    /// Builds a client REQUEST for `addr`.
    pub fn request(xid: u32, mac: MacAddr, addr: Ipv4Addr) -> Self {
        DhcpMessage {
            xid,
            mtype: MessageType::Request,
            chaddr: mac,
            yiaddr: addr,
        }
    }

    /// Builds a server ACK granting `addr`.
    pub fn ack(xid: u32, mac: MacAddr, addr: Ipv4Addr) -> Self {
        DhcpMessage {
            xid,
            mtype: MessageType::Ack,
            chaddr: mac,
            yiaddr: addr,
        }
    }

    /// Appends the message in wire format to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + FIXED_LEN, 0);
        let fixed = &mut out[start..];
        let is_request = matches!(self.mtype, MessageType::Discover | MessageType::Request);
        fixed[0] = if is_request { 1 } else { 2 }; // op
        fixed[1] = 1; // htype: ethernet
        fixed[2] = 6; // hlen
        fixed[4..8].copy_from_slice(&self.xid.to_be_bytes());
        fixed[16..20].copy_from_slice(&self.yiaddr.octets());
        fixed[28..34].copy_from_slice(&self.chaddr.octets());
        out.extend_from_slice(&MAGIC_COOKIE);
        out.extend_from_slice(&[53, 1, self.mtype.to_byte()]); // option 53
        out.push(255); // end option
    }

    /// Parses a DHCP message.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < FIXED_LEN + 4 {
            return Err(ProtoError::truncated("dhcp", "fixed header"));
        }
        if data[FIXED_LEN..FIXED_LEN + 4] != MAGIC_COOKIE {
            return Err(ProtoError::malformed("dhcp", "magic cookie"));
        }
        let xid = u32::from_be_bytes(data[4..8].try_into().expect("len checked"));
        let yiaddr = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        let mut chaddr = [0u8; 6];
        chaddr.copy_from_slice(&data[28..34]);
        let mut mtype = None;
        let mut off = FIXED_LEN + 4;
        while off < data.len() {
            match data[off] {
                255 => break,
                0 => off += 1, // pad
                code => {
                    let len = *data
                        .get(off + 1)
                        .ok_or_else(|| ProtoError::truncated("dhcp", "option length"))?
                        as usize;
                    let value = data
                        .get(off + 2..off + 2 + len)
                        .ok_or_else(|| ProtoError::truncated("dhcp", "option value"))?;
                    if code == 53 && len == 1 {
                        mtype = Some(MessageType::from_byte(value[0])?);
                    }
                    off += 2 + len;
                }
            }
        }
        Ok(DhcpMessage {
            xid,
            mtype: mtype.ok_or_else(|| ProtoError::malformed("dhcp", "missing option 53"))?,
            chaddr: MacAddr(chaddr),
            yiaddr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAC: MacAddr = MacAddr::new(0xa4, 0xcf, 0x12, 0xaa, 0xbb, 0xcc);

    fn roundtrip(msg: &DhcpMessage) {
        let mut bytes = vec![0xEE]; // appends after what the buffer holds
        msg.encode(&mut bytes);
        assert_eq!(bytes[0], 0xEE);
        assert_eq!(&DhcpMessage::parse(&bytes[1..]).unwrap(), msg);
    }

    #[test]
    fn discover_roundtrip() {
        roundtrip(&DhcpMessage::discover(0xdeadbeef, MAC));
    }

    #[test]
    fn request_ack_roundtrip() {
        let addr = Ipv4Addr::new(192, 168, 10, 44);
        roundtrip(&DhcpMessage::request(1, MAC, addr));
        roundtrip(&DhcpMessage::ack(1, MAC, addr));
    }

    #[test]
    fn bad_cookie_rejected() {
        let mut bytes = Vec::new();
        DhcpMessage::discover(5, MAC).encode(&mut bytes);
        bytes[FIXED_LEN] = 0;
        assert!(DhcpMessage::parse(&bytes).is_err());
    }

    #[test]
    fn missing_option53_rejected() {
        let mut bytes = Vec::new();
        DhcpMessage::discover(5, MAC).encode(&mut bytes);
        let len = bytes.len();
        bytes.truncate(len - 4); // drop option 53 + end
        bytes.push(255);
        assert!(DhcpMessage::parse(&bytes).is_err());
    }

    #[test]
    fn short_rejected() {
        assert!(DhcpMessage::parse(&[0u8; 100]).is_err());
    }
}
