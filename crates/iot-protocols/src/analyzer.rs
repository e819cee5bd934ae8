//! Wireshark-style protocol identification.
//!
//! §5.1: "standard protocol analysis tools (e.g., Wireshark's protocol
//! analyzer) fail to classify nearly half (46%) of the network traffic" —
//! the identifier below has the same character. It recognizes the standard
//! protocols implemented in this crate by *content*, falling back to port
//! hints, and returns [`ProtocolId::Unknown`] for everything else
//! (vendor-proprietary framings), which downstream code must resolve with
//! entropy analysis.
//!
//! Every probe reads a borrowed view of the payload prefix and rejects
//! without building an error message, so identifying a flow touches no
//! heap, whatever the bytes.

use crate::{dhcp, dns, mqtt, ntp, quic, tls};

/// Identified application protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// Domain Name System.
    Dns,
    /// Plaintext HTTP/1.x.
    Http,
    /// TLS (any content type).
    Tls,
    /// QUIC v1.
    Quic,
    /// Network Time Protocol.
    Ntp,
    /// DHCP.
    Dhcp,
    /// MQTT 3.1.1.
    Mqtt,
    /// Unrecognized — proprietary or malformed traffic.
    Unknown,
}

impl ProtocolId {
    /// True when the protocol itself guarantees the payload is ciphertext,
    /// so the encryption analysis can mark the flow encrypted without
    /// entropy measurement.
    pub fn is_structurally_encrypted(self) -> bool {
        matches!(self, ProtocolId::Tls | ProtocolId::Quic)
    }

    /// True when the protocol's payload is structurally plaintext metadata
    /// (which does not preclude sensitive content).
    pub fn is_structurally_plaintext(self) -> bool {
        matches!(
            self,
            ProtocolId::Dns | ProtocolId::Http | ProtocolId::Ntp | ProtocolId::Dhcp
        )
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Dns => "dns",
            ProtocolId::Http => "http",
            ProtocolId::Tls => "tls",
            ProtocolId::Quic => "quic",
            ProtocolId::Ntp => "ntp",
            ProtocolId::Dhcp => "dhcp",
            ProtocolId::Mqtt => "mqtt",
            ProtocolId::Unknown => "unknown",
        }
    }
}

/// Transport of the flow under identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP stream.
    Tcp,
    /// UDP datagrams.
    Udp,
}

/// Identifies the application protocol of a flow from its transport, remote
/// port, and the payload prefix in each direction (device → cloud and
/// cloud → device).
pub fn identify_flow(
    transport: Transport,
    remote_port: u16,
    outbound: &[u8],
    inbound: &[u8],
) -> ProtocolId {
    match transport {
        Transport::Udp => identify_udp(remote_port, outbound, inbound),
        Transport::Tcp => identify_tcp(remote_port, outbound, inbound),
    }
}

fn identify_udp(remote_port: u16, outbound: &[u8], inbound: &[u8]) -> ProtocolId {
    let sample = if outbound.is_empty() { inbound } else { outbound };
    let dns = || dns::MessageView::parse(sample).is_ok();
    if remote_port == dns::PORT && dns() {
        return ProtocolId::Dns;
    }
    if remote_port == ntp::PORT && ntp::NtpPacket::parse(sample).is_ok() {
        return ProtocolId::Ntp;
    }
    if (remote_port == dhcp::SERVER_PORT || remote_port == dhcp::CLIENT_PORT)
        && dhcp::DhcpMessage::parse(sample).is_ok()
    {
        return ProtocolId::Dhcp;
    }
    if quic::looks_like_quic(sample) {
        return ProtocolId::Quic;
    }
    // Content-based fallbacks on non-standard ports.
    if dns() && sample.len() >= 17 {
        return ProtocolId::Dns;
    }
    ProtocolId::Unknown
}

fn identify_tcp(remote_port: u16, outbound: &[u8], inbound: &[u8]) -> ProtocolId {
    let client = if outbound.is_empty() { inbound } else { outbound };
    if is_tls_stream(client) || is_tls_stream(inbound) {
        return ProtocolId::Tls;
    }
    if is_http_request(outbound) || is_http_response(inbound) {
        return ProtocolId::Http;
    }
    if mqtt::looks_like_mqtt(outbound) {
        return ProtocolId::Mqtt;
    }
    // Port hints only help when content also plausibly matches; a
    // proprietary protocol on 443 stays Unknown, exactly like Wireshark
    // marking it as undissected data.
    let _ = remote_port;
    ProtocolId::Unknown
}

/// True when the stream prefix parses as at least one TLS record.
fn is_tls_stream(stream: &[u8]) -> bool {
    match tls::RecordView::parse(stream) {
        Ok(_) => true,
        // A capped prefix may cut the first record short: accept when the
        // 5-byte header is valid and claims more data than we kept.
        Err(_) if stream.len() >= 5 => {
            let plausible_type = (20..=23).contains(&stream[0]);
            let plausible_version = stream[1] == 0x03 && stream[2] <= 0x04;
            let claimed = usize::from(u16::from_be_bytes([stream[3], stream[4]]));
            plausible_type && plausible_version && claimed > stream.len() - 5
        }
        Err(_) => false,
    }
}

fn is_http_request(stream: &[u8]) -> bool {
    const METHODS: [&[u8]; 7] = [
        b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"PATCH ",
    ];
    METHODS.iter().any(|m| stream.starts_with(m))
}

fn is_http_response(stream: &[u8]) -> bool {
    stream.starts_with(b"HTTP/1.")
}

/// Magic-byte signatures for common media/compressed encodings.
///
/// §5.1: "Certain unclassified network traffic contains encoded or
/// compressed content (e.g., video, audio, gzip compression). We search for
/// encoding-specific bytes in headers of such flows, and mark any traffic
/// that contains them as unencrypted."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaEncoding {
    /// gzip/deflate stream.
    Gzip,
    /// JPEG image.
    Jpeg,
    /// PNG image.
    Png,
    /// MP4/ISO-BMFF container.
    Mp4,
    /// H.264 Annex-B elementary stream.
    H264,
    /// RIFF/WAV audio container.
    Riff,
}

impl MediaEncoding {
    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MediaEncoding::Gzip => "gzip",
            MediaEncoding::Jpeg => "jpeg",
            MediaEncoding::Png => "png",
            MediaEncoding::Mp4 => "mp4",
            MediaEncoding::H264 => "h264",
            MediaEncoding::Riff => "riff",
        }
    }
}

/// Detects a known encoding from the first bytes of a payload stream.
pub fn detect_media_encoding(stream: &[u8]) -> Option<MediaEncoding> {
    if stream.starts_with(&[0x1f, 0x8b]) {
        return Some(MediaEncoding::Gzip);
    }
    if stream.starts_with(&[0xff, 0xd8, 0xff]) {
        return Some(MediaEncoding::Jpeg);
    }
    if stream.starts_with(&[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a]) {
        return Some(MediaEncoding::Png);
    }
    if stream.len() >= 8 && &stream[4..8] == b"ftyp" {
        return Some(MediaEncoding::Mp4);
    }
    if stream.starts_with(&[0x00, 0x00, 0x00, 0x01]) && stream.len() >= 5 {
        return Some(MediaEncoding::H264);
    }
    if stream.starts_with(b"RIFF") {
        return Some(MediaEncoding::Riff);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;

    #[test]
    fn identifies_dns() {
        let mut q = Vec::new();
        dns::write_query(&mut q, 1, "example.com");
        assert_eq!(
            identify_flow(Transport::Udp, 53, &q, &[]),
            ProtocolId::Dns
        );
    }

    #[test]
    fn identifies_ntp() {
        let p = ntp::NtpPacket::client(123_456_789).encode();
        assert_eq!(
            identify_flow(Transport::Udp, 123, &p, &[]),
            ProtocolId::Ntp
        );
    }

    #[test]
    fn identifies_tls_by_content() {
        let mut stream = Vec::new();
        tls::write_client_hello(&mut stream, &[0u8; 32], "example.com");
        assert_eq!(
            identify_flow(Transport::Tcp, 443, &stream, &[]),
            ProtocolId::Tls
        );
        // Same content on a weird port is still TLS.
        assert_eq!(
            identify_flow(Transport::Tcp, 8883, &stream, &[]),
            ProtocolId::Tls
        );
    }

    #[test]
    fn identifies_truncated_tls_record() {
        let mut stream = Vec::new();
        tls::write_record_header(&mut stream, tls::ContentType::ApplicationData, 4000);
        stream.resize(100, 7); // capped prefix cuts the record short
        assert_eq!(
            identify_flow(Transport::Tcp, 443, &stream, &[]),
            ProtocolId::Tls
        );
    }

    #[test]
    fn identifies_http() {
        let mut req = Vec::new();
        http::write_request_head(&mut req, "GET", "example.com", "/index.html", &[], None);
        assert_eq!(
            identify_flow(Transport::Tcp, 80, &req, &[]),
            ProtocolId::Http
        );
        // Response-only evidence also suffices.
        let mut resp = Vec::new();
        http::write_response_head(&mut resp, 200, "OK", 1, &[]);
        resp.push(b'x');
        assert_eq!(
            identify_flow(Transport::Tcp, 8080, &[], &resp),
            ProtocolId::Http
        );
    }

    #[test]
    fn identifies_quic() {
        let mut d = Vec::new();
        quic::QuicLongHeader::write_initial_header(&mut d, &[1, 2, 3, 4]);
        d.resize(d.len() + 1000, 0xAB);
        assert_eq!(
            identify_flow(Transport::Udp, 443, &d, &[]),
            ProtocolId::Quic
        );
    }

    #[test]
    fn identifies_mqtt() {
        let mut c = Vec::new();
        mqtt::write_connect(&mut c, "dev1");
        assert_eq!(
            identify_flow(Transport::Tcp, 1883, &c, &[]),
            ProtocolId::Mqtt
        );
    }

    #[test]
    fn identifies_dhcp() {
        let mut d = Vec::new();
        dhcp::DhcpMessage::discover(7, iot_net::mac::MacAddr::new(1, 2, 3, 4, 5, 6)).encode(&mut d);
        assert_eq!(
            identify_flow(Transport::Udp, 67, &d, &[]),
            ProtocolId::Dhcp
        );
    }

    #[test]
    fn proprietary_binary_is_unknown_even_on_443() {
        let proprietary = [0x7e, 0x01, 0x55, 0xAA, 0x00, 0x10, 0x42, 0x42, 0x42, 0x42];
        assert_eq!(
            identify_flow(Transport::Tcp, 443, &proprietary, &[]),
            ProtocolId::Unknown
        );
        assert_eq!(
            identify_flow(Transport::Udp, 9999, &proprietary, &[]),
            ProtocolId::Unknown
        );
    }

    #[test]
    fn structural_encryption_flags() {
        assert!(ProtocolId::Tls.is_structurally_encrypted());
        assert!(ProtocolId::Quic.is_structurally_encrypted());
        assert!(!ProtocolId::Http.is_structurally_encrypted());
        assert!(ProtocolId::Http.is_structurally_plaintext());
        assert!(!ProtocolId::Unknown.is_structurally_plaintext());
        assert!(!ProtocolId::Unknown.is_structurally_encrypted());
    }

    #[test]
    fn media_signatures() {
        assert_eq!(detect_media_encoding(&[0x1f, 0x8b, 0x08]), Some(MediaEncoding::Gzip));
        assert_eq!(
            detect_media_encoding(&[0xff, 0xd8, 0xff, 0xe0]),
            Some(MediaEncoding::Jpeg)
        );
        assert_eq!(
            detect_media_encoding(&[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a, 1]),
            Some(MediaEncoding::Png)
        );
        assert_eq!(
            detect_media_encoding(&[0, 0, 0, 32, b'f', b't', b'y', b'p', b'm', b'p', b'4', b'2']),
            Some(MediaEncoding::Mp4)
        );
        assert_eq!(
            detect_media_encoding(&[0, 0, 0, 1, 0x67]),
            Some(MediaEncoding::H264)
        );
        assert_eq!(detect_media_encoding(b"RIFF\x24\x08\x00\x00WAVE"), Some(MediaEncoding::Riff));
        assert_eq!(detect_media_encoding(b"hello"), None);
        assert_eq!(detect_media_encoding(&[]), None);
    }
}
