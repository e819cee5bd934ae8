//! # iot-protocols
//!
//! Application-layer protocol codecs for the `intl-iot` reproduction of
//! *Information Exposure From Consumer IoT Devices* (IMC 2019).
//!
//! The paper's analyses key off protocol content: DNS answers map
//! destination IPs to domains (§4.1), TLS SNI and HTTP `Host` headers
//! provide fallback domain labels, and a Wireshark-style protocol analyzer
//! decides which traffic is identifiably encrypted (§5.1). This crate
//! implements each of those wire formats from scratch. Each protocol has
//! writers that append a message to the caller's buffer, so the
//! simulator writes every message where its frame is built, and readers
//! that parse a message where it lies:
//!
//! * [`dns`] — DNS queries and answers, including compression-pointer
//!   decoding.
//! * [`tls`] — TLS record layer plus ClientHello/ServerHello handshakes with
//!   SNI and cipher-suite extensions.
//! * [`http`] — HTTP/1.1 request and response heads.
//! * [`ntp`] — NTPv4 packets (the background "noise" traffic the paper's
//!   classifier must tolerate).
//! * [`dhcp`] — DHCP DISCOVER/REQUEST, used to model Wi-Fi reconnects that
//!   explain spurious "power" detections in §7.2.
//! * [`mqtt`] — MQTT 3.1.1 control packets, a common IoT telemetry channel.
//! * [`quic`] — QUIC long-header recognition (identification only).
//! * [`analyzer`] — the protocol identifier: like Wireshark's, it recognizes
//!   standard protocols and *fails* on proprietary binary protocols, which
//!   is what forces the entropy analysis of §5.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod dhcp;
pub mod dns;
pub mod error;
pub mod http;
pub mod mqtt;
pub mod ntp;
pub mod quic;
pub mod tls;

pub use analyzer::{identify_flow, ProtocolId};
pub use error::ProtoError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ProtoError>;
