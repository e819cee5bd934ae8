//! Composed packets: capture records, full-frame building, and full-frame
//! parsing.
//!
//! A [`Packet`] is what the simulated gateway captures: a timestamp plus the
//! raw frame bytes, exactly like a tcpdump record. [`PacketBuilder`]
//! assembles valid frames layer by layer, and [`ParsedPacket`] decodes a
//! captured frame back into typed headers.

use crate::ethernet::{EtherType, EthernetFrame};
use crate::ipv4::{protocol, Ipv4Header};
use crate::mac::MacAddr;
use crate::pcap::Capture;
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;
use crate::Result;
use std::net::Ipv4Addr;

/// A captured packet: microsecond timestamp plus raw frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Capture time in microseconds since the simulation epoch.
    pub ts_micros: u64,
    /// Raw Ethernet frame bytes.
    pub data: Vec<u8>,
}

impl Packet {
    /// Creates a packet from raw frame bytes.
    pub fn new(ts_micros: u64, data: impl Into<Vec<u8>>) -> Self {
        Packet {
            ts_micros,
            data: data.into(),
        }
    }

    /// Capture time in (possibly fractional) seconds.
    pub fn ts_seconds(&self) -> f64 {
        self.ts_micros as f64 / 1e6
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the frame is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Decodes the frame into typed headers, rejecting non-IPv4 frames.
    pub fn parse(&self) -> Result<ParsedPacket<'_>> {
        ParsedPacket::parse(&self.data)
    }

    /// Decodes the frame as either IPv4 or ARP — the two frame kinds the
    /// simulated gateway captures.
    pub fn parse_frame(&self) -> Result<Frame<'_>> {
        let eth = EthernetFrame::parse(&self.data)?;
        match eth.ethertype {
            EtherType::Arp => Ok(Frame::Arp(crate::arp::ArpPacket::parse(eth.payload)?)),
            _ => Ok(Frame::Ip(ParsedPacket::parse(&self.data)?)),
        }
    }
}

/// A fully decoded frame: either an IPv4 packet or an ARP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// IPv4 over Ethernet.
    Ip(ParsedPacket<'a>),
    /// ARP over Ethernet (LAN-internal; ignored by the analyses).
    Arp(crate::arp::ArpPacket),
}

/// Transport-layer header of a parsed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportHeader {
    /// TCP segment header.
    Tcp(TcpHeader),
    /// UDP datagram header.
    Udp(UdpHeader),
    /// Some other IP protocol; the raw protocol number is preserved.
    Other(u8),
}

impl TransportHeader {
    /// Source port, when the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(t) => Some(t.src_port),
            TransportHeader::Udp(u) => Some(u.src_port),
            TransportHeader::Other(_) => None,
        }
    }

    /// Destination port, when the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(t) => Some(t.dst_port),
            TransportHeader::Udp(u) => Some(u.dst_port),
            TransportHeader::Other(_) => None,
        }
    }

    /// True for TCP.
    pub fn is_tcp(&self) -> bool {
        matches!(self, TransportHeader::Tcp(_))
    }
}

/// A fully decoded Ethernet/IPv4/{TCP,UDP} packet borrowing from the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// Source hardware address.
    pub src_mac: MacAddr,
    /// Destination hardware address.
    pub dst_mac: MacAddr,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// Transport header.
    pub transport: TransportHeader,
    /// Application payload bytes.
    pub payload: &'a [u8],
}

impl<'a> ParsedPacket<'a> {
    /// Parses a raw Ethernet frame carrying IPv4. Any other frame (ARP,
    /// say) is `Unsupported`, an error that touches no heap: flow
    /// reconstruction skips such frames by the thousand.
    pub fn parse(frame: &'a [u8]) -> Result<Self> {
        let eth = EthernetFrame::parse(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(crate::Error::Unsupported {
                layer: "ethernet",
                what: "ethertype",
            });
        }
        let (ip, ip_payload) = Ipv4Header::parse(eth.payload)?;
        let (transport, payload) = match ip.protocol {
            protocol::TCP => {
                let (tcp, p) = TcpHeader::parse(ip_payload, ip.src, ip.dst)?;
                (TransportHeader::Tcp(tcp), p)
            }
            protocol::UDP => {
                let (udp, p) = UdpHeader::parse(ip_payload, ip.src, ip.dst)?;
                (TransportHeader::Udp(udp), p)
            }
            other => (TransportHeader::Other(other), ip_payload),
        };
        Ok(ParsedPacket {
            src_mac: eth.src,
            dst_mac: eth.dst,
            ip,
            transport,
            payload,
        })
    }
}

/// Builder assembling valid full frames for the traffic generator.
///
/// [`PacketBuilder::write_tcp`] and [`PacketBuilder::write_udp`] encode a
/// frame once, in place, as the next record of a [`Capture`];
/// [`PacketBuilder::tcp`] and [`PacketBuilder::udp`] are thin wrappers
/// that return the same bytes as an owned [`Packet`].
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identification: u16,
    ttl: u8,
}

/// The transport header of the frame being written.
#[derive(Clone, Copy)]
enum Segment<'h> {
    Tcp(&'h TcpHeader),
    Udp(&'h UdpHeader),
}

impl Segment<'_> {
    /// The IP protocol number and the transport header length.
    fn protocol(self) -> (u8, usize) {
        match self {
            Segment::Tcp(_) => (protocol::TCP, crate::tcp::MIN_HEADER_LEN),
            Segment::Udp(_) => (protocol::UDP, crate::udp::HEADER_LEN),
        }
    }

    /// Length of the whole Ethernet frame around `payload_len` bytes.
    fn frame_len(self, payload_len: usize) -> usize {
        crate::ethernet::HEADER_LEN + crate::ipv4::MIN_HEADER_LEN + self.protocol().1 + payload_len
    }
}

impl PacketBuilder {
    /// Starts a builder for frames between the given endpoints.
    pub fn new(src_mac: MacAddr, dst_mac: MacAddr, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Self {
        PacketBuilder {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            identification: 1,
            ttl: 64,
        }
    }

    /// Overrides the IP TTL (the simulator lowers it for frames that have
    /// crossed the VPN tunnel).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Builds a TCP segment frame.
    pub fn tcp(&mut self, ts_micros: u64, header: &TcpHeader, payload: &[u8]) -> Packet {
        self.packet(ts_micros, Segment::Tcp(header), payload)
    }

    /// Builds a UDP datagram frame.
    pub fn udp(&mut self, ts_micros: u64, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
        let udp = UdpHeader { src_port, dst_port };
        self.packet(ts_micros, Segment::Udp(&udp), payload)
    }

    /// Writes a TCP segment frame as the next record of `cap`: the
    /// Ethernet, IPv4 and TCP headers, one copy of `payload`, then the
    /// TCP checksum back-patched over the bytes just written. Fails, and
    /// writes nothing, when `ts_micros` does not fit the pcap format.
    pub fn write_tcp(
        &mut self,
        cap: &mut Capture,
        ts_micros: u64,
        header: &TcpHeader,
        payload: &[u8],
    ) -> Result<()> {
        self.write(cap, ts_micros, Segment::Tcp(header), payload)
    }

    /// Writes a UDP datagram frame as the next record of `cap` (see
    /// [`PacketBuilder::write_tcp`]).
    pub fn write_udp(
        &mut self,
        cap: &mut Capture,
        ts_micros: u64,
        header: &UdpHeader,
        payload: &[u8],
    ) -> Result<()> {
        self.write(cap, ts_micros, Segment::Udp(header), payload)
    }

    fn write(
        &mut self,
        cap: &mut Capture,
        ts_micros: u64,
        seg: Segment<'_>,
        payload: &[u8],
    ) -> Result<()> {
        let len = seg.frame_len(payload.len());
        cap.write_record(ts_micros, len as u32, len, |out| {
            self.encode(out, seg, payload)
        })
    }

    fn packet(&mut self, ts_micros: u64, seg: Segment<'_>, payload: &[u8]) -> Packet {
        let mut frame = Vec::with_capacity(seg.frame_len(payload.len()));
        self.encode(&mut frame, seg, payload);
        Packet::new(ts_micros, frame)
    }

    /// Appends the whole frame to `out`; the one frame encoder.
    fn encode(&mut self, out: &mut Vec<u8>, seg: Segment<'_>, payload: &[u8]) {
        let (proto, transport_len) = seg.protocol();
        let mut ip = Ipv4Header::for_payload(
            self.src_ip,
            self.dst_ip,
            proto,
            transport_len + payload.len(),
        );
        ip.identification = self.identification;
        ip.ttl = self.ttl;
        self.identification = self.identification.wrapping_add(1);
        crate::ethernet::write_header(out, self.dst_mac, self.src_mac, EtherType::Ipv4);
        out.extend_from_slice(&ip.encode());
        match seg {
            Segment::Tcp(h) => h.write(out, payload, self.src_ip, self.dst_ip),
            Segment::Udp(h) => h.write(out, payload, self.src_ip, self.dst_ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(
            MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 1),
            MacAddr::new(0x00, 0x16, 0x3e, 0, 0, 2),
            Ipv4Addr::new(192, 168, 10, 21),
            Ipv4Addr::new(52, 84, 9, 9),
        )
    }

    #[test]
    fn tcp_frame_roundtrip() {
        let mut b = builder();
        let header = TcpHeader {
            src_port: 49152,
            dst_port: 443,
            seq: 7,
            ack: 0,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
        };
        let pkt = b.tcp(1_000_000, &header, b"application bytes");
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.src_mac, MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 1));
        assert_eq!(parsed.ip.dst, Ipv4Addr::new(52, 84, 9, 9));
        assert_eq!(parsed.transport.dst_port(), Some(443));
        assert!(parsed.transport.is_tcp());
        assert_eq!(parsed.payload, b"application bytes");
        assert_eq!(pkt.ts_seconds(), 1.0);
    }

    #[test]
    fn udp_frame_roundtrip() {
        let mut b = builder();
        let pkt = b.udp(42, 5353, 53, b"query");
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.transport.src_port(), Some(5353));
        assert_eq!(parsed.payload, b"query");
    }

    #[test]
    fn identification_increments() {
        let mut b = builder();
        let p1 = b.udp(0, 1, 2, b"a");
        let p2 = b.udp(1, 1, 2, b"a");
        let id1 = p1.parse().unwrap().ip.identification;
        let id2 = p2.parse().unwrap().ip.identification;
        assert_eq!(id2, id1 + 1);
    }

    #[test]
    fn ttl_override() {
        let mut b = builder().ttl(50);
        let pkt = b.udp(0, 1, 2, b"x");
        assert_eq!(pkt.parse().unwrap().ip.ttl, 50);
    }

    #[test]
    fn non_ip_frame_rejected_by_parse() {
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(1, 2, 3, 4, 5, 6),
            ethertype: EtherType::Arp,
            payload: &[0u8; 28],
        };
        let pkt = Packet::new(0, eth.encode());
        assert!(pkt.parse().is_err());
    }
}
