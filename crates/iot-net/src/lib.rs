//! # iot-net
//!
//! Packet-level network substrate for the `intl-iot` reproduction of
//! *Information Exposure From Consumer IoT Devices* (IMC 2019).
//!
//! The paper's testbeds capture every frame crossing a gateway with tcpdump.
//! This crate provides the equivalent byte-level machinery, built from
//! scratch in the style of typed wire representations:
//!
//! * [`mac::MacAddr`] — EUI-48 hardware addresses with vendor (OUI) prefixes.
//! * [`ethernet`], [`ipv4`], [`tcp`], [`udp`] — header encode/decode with
//!   real Internet checksums.
//! * [`packet`] — composed packets: build ([`packet::PacketBuilder`]) and
//!   parse ([`packet::ParsedPacket`]) full frames.
//! * [`pcap`] — classic libpcap capture files, byte-compatible with
//!   tcpdump output: one reader, the zero-copy [`pcap::PcapCursor`], and
//!   one writer, [`pcap::Capture`]. The cursor's lenient mode
//!   resynchronizes past corrupt records and torn tails instead of
//!   aborting, accounting every lost byte in [`pcap::SalvageStats`].
//! * [`flow`] — 5-tuple flow keys and per-flow payload reassembly, the unit
//!   of the paper's destination and encryption analyses.
//!
//! All parsing is bounds-checked and returns typed [`Error`]s; there is no
//! `unsafe` code in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use error::Error;
pub use ethernet::{EtherType, EthernetFrame};
pub use flow::{Direction, Flow, FlowKey, FlowTable};
pub use ipv4::Ipv4Header;
pub use mac::MacAddr;
pub use packet::{Frame, Packet, PacketBuilder, ParsedPacket, TransportHeader};
pub use pcap::{Capture, PacketView, PcapCursor, SalvageStats};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
