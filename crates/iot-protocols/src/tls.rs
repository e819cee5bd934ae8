//! TLS record layer and handshake messages (RFC 5246 framing).
//!
//! The destination analysis uses the Server Name Indication extension of
//! ClientHello messages as a fallback domain label (§4.1), and the
//! encryption analysis counts TLS application-data bytes as encrypted
//! without entropy testing (§5.1). This module implements just enough of
//! TLS to generate and recognize those artifacts: record framing,
//! ClientHello/ServerHello with extensions, and opaque application-data
//! records. No cryptography is performed — payload bytes come from
//! `iot-entropy`'s calibrated generators. [`write_record_header`],
//! [`write_client_hello`] and [`write_server_hello`] append to the
//! caller's buffer; [`RecordView`] and [`ClientHelloView`] parse,
//! borrowing from the stream, so probing a flow's payload prefix copies
//! nothing.

use crate::error::ProtoError;
use crate::Result;

/// Standard HTTPS port.
pub const PORT: u16 = 443;

/// TLS record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// Change cipher spec (20).
    ChangeCipherSpec,
    /// Alert (21).
    Alert,
    /// Handshake (22).
    Handshake,
    /// Application data (23).
    ApplicationData,
}

impl TryFrom<u8> for ContentType {
    type Error = ProtoError;
    fn try_from(v: u8) -> Result<Self> {
        match v {
            20 => Ok(ContentType::ChangeCipherSpec),
            21 => Ok(ContentType::Alert),
            22 => Ok(ContentType::Handshake),
            23 => Ok(ContentType::ApplicationData),
            _ => Err(ProtoError::malformed("tls", "content type")),
        }
    }
}

impl From<ContentType> for u8 {
    fn from(c: ContentType) -> u8 {
        match c {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }
}

/// TLS 1.2 on the wire.
pub const VERSION_TLS12: u16 = 0x0303;

/// Appends the 5-byte header of a TLS 1.2 record whose `len`-byte
/// fragment the caller appends next, so a fragment can be generated
/// straight into the buffer that carries the record.
pub fn write_record_header(out: &mut Vec<u8>, content_type: ContentType, len: usize) {
    out.push(content_type.into());
    out.extend_from_slice(&VERSION_TLS12.to_be_bytes());
    out.extend_from_slice(&(len as u16).to_be_bytes());
}

/// One TLS record, borrowed from the stream it heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Record content type.
    pub content_type: ContentType,
    /// Protocol version field.
    pub version: u16,
    /// Record payload (fragment).
    pub payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Parses one whole record from the front of `data`; returns it and
    /// the rest.
    pub fn parse(data: &'a [u8]) -> Result<(Self, &'a [u8])> {
        if data.len() < 5 {
            return Err(ProtoError::truncated("tls", "record header"));
        }
        let content_type = ContentType::try_from(data[0])?;
        let version = u16::from_be_bytes([data[1], data[2]]);
        if version >> 8 != 0x03 {
            return Err(ProtoError::malformed("tls", "version"));
        }
        let len = usize::from(u16::from_be_bytes([data[3], data[4]]));
        if data.len() < 5 + len {
            return Err(ProtoError::truncated("tls", "record body"));
        }
        let record = RecordView {
            content_type,
            version,
            payload: &data[5..5 + len],
        };
        Ok((record, &data[5 + len..]))
    }
}

/// The cipher suites offered by simulated devices — the 14 suites the paper
/// exercised in its §5.1 calibration are representative TLS 1.2 suites.
pub const DEFAULT_CIPHER_SUITES: [u16; 14] = [
    0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013, 0xc014, 0x009c, 0x009d, 0x002f,
    0x0035, 0x000a, 0x009e,
];

/// Appends a handshake record holding a ClientHello that offers
/// [`DEFAULT_CIPHER_SUITES`] and names `sni` in a server-name extension.
pub fn write_client_hello(out: &mut Vec<u8>, random: &[u8; 32], sni: &str) {
    let host = sni.as_bytes();
    // The one server_name extension, then the body: version, random,
    // session id, suites, compression and extensions.
    let extensions = 9 + host.len();
    let body = 2 + 32 + 1 + 2 + 2 * DEFAULT_CIPHER_SUITES.len() + 2 + 2 + extensions;
    write_record_header(out, ContentType::Handshake, 4 + body);
    out.push(1); // handshake type: client_hello
    out.extend_from_slice(&(body as u32).to_be_bytes()[1..]); // 24-bit length
    out.extend_from_slice(&VERSION_TLS12.to_be_bytes()); // client_version
    out.extend_from_slice(random);
    out.push(0); // session id length
    out.extend_from_slice(&((DEFAULT_CIPHER_SUITES.len() * 2) as u16).to_be_bytes());
    for cs in DEFAULT_CIPHER_SUITES {
        out.extend_from_slice(&cs.to_be_bytes());
    }
    out.extend_from_slice(&[1, 0]); // one compression method: null
    out.extend_from_slice(&(extensions as u16).to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes()); // extension type: server_name
    out.extend_from_slice(&((host.len() + 5) as u16).to_be_bytes()); // extension length
    out.extend_from_slice(&((host.len() + 3) as u16).to_be_bytes()); // server_name_list length
    out.push(0); // name_type: host_name
    out.extend_from_slice(&(host.len() as u16).to_be_bytes());
    out.extend_from_slice(host);
}

/// A ClientHello handshake message, borrowed from its record's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHelloView<'a> {
    /// Client random.
    pub random: &'a [u8; 32],
    /// Server name indication: the host name's bytes, as sent.
    pub sni: Option<&'a [u8]>,
}

impl<'a> ClientHelloView<'a> {
    /// Parses a ClientHello from a handshake record payload. Every
    /// extension must be whole; the last server-name extension wins.
    pub fn parse(handshake: &'a [u8]) -> Result<Self> {
        if handshake.len() < 4 || handshake[0] != 1 {
            return Err(ProtoError::malformed("tls", "not a client hello"));
        }
        let body_len =
            usize::from(handshake[1]) << 16 | usize::from(handshake[2]) << 8 | usize::from(handshake[3]);
        let body = handshake
            .get(4..4 + body_len)
            .ok_or_else(|| ProtoError::truncated("tls", "client hello body"))?;
        if body.len() < 35 {
            return Err(ProtoError::truncated("tls", "client hello fixed fields"));
        }
        let random = body[2..34].try_into().expect("32 bytes");
        let session_len = usize::from(body[34]);
        let mut off = 35 + session_len;
        let cs_len = match body.get(off..off + 2) {
            Some(len) => usize::from(u16::from_be_bytes([len[0], len[1]])),
            None => return Err(ProtoError::truncated("tls", "cipher suites")),
        };
        off += 2;
        if body.len() < off + cs_len {
            return Err(ProtoError::truncated("tls", "cipher suites"));
        }
        off += cs_len;
        let comp_len = usize::from(
            *body
                .get(off)
                .ok_or_else(|| ProtoError::truncated("tls", "compression"))?,
        );
        off += 1 + comp_len;
        let mut sni = None;
        if let Some(ext_len_bytes) = body.get(off..off + 2) {
            let ext_total = usize::from(u16::from_be_bytes([ext_len_bytes[0], ext_len_bytes[1]]));
            off += 2;
            let mut ext_off = 0usize;
            let exts = body
                .get(off..off + ext_total)
                .ok_or_else(|| ProtoError::truncated("tls", "extensions"))?;
            while ext_off + 4 <= exts.len() {
                let etype = u16::from_be_bytes([exts[ext_off], exts[ext_off + 1]]);
                let elen = usize::from(u16::from_be_bytes([exts[ext_off + 2], exts[ext_off + 3]]));
                let edata = exts
                    .get(ext_off + 4..ext_off + 4 + elen)
                    .ok_or_else(|| ProtoError::truncated("tls", "extension body"))?;
                if etype == 0 && edata.len() >= 5 {
                    let name_len = usize::from(u16::from_be_bytes([edata[3], edata[4]]));
                    let name = edata
                        .get(5..5 + name_len)
                        .ok_or_else(|| ProtoError::truncated("tls", "sni host"))?;
                    sni = Some(name);
                }
                ext_off += 4 + elen;
            }
        }
        Ok(ClientHelloView { random, sni })
    }
}

/// The SNI host name's bytes in the client-side byte stream of a flow, if
/// the stream begins with a whole handshake record holding a valid
/// ClientHello.
pub fn sni_from_stream(stream: &[u8]) -> Option<&[u8]> {
    let (record, _) = RecordView::parse(stream).ok()?;
    if record.content_type != ContentType::Handshake {
        return None;
    }
    ClientHelloView::parse(record.payload).ok()?.sni
}

/// Appends the reply of a simulated cloud endpoint: a minimal
/// ServerHello choosing `cipher_suite`, then a ChangeCipherSpec record.
pub fn write_server_hello(out: &mut Vec<u8>, random: &[u8; 32], cipher_suite: u16) {
    // Version, random, session id, suite, compression, extensions.
    const BODY: usize = 2 + 32 + 1 + 2 + 1 + 2;
    write_record_header(out, ContentType::Handshake, 4 + BODY);
    out.extend_from_slice(&[2, 0, 0, BODY as u8]); // server_hello, 24-bit length
    out.extend_from_slice(&VERSION_TLS12.to_be_bytes());
    out.extend_from_slice(random);
    out.push(0); // session id length
    out.extend_from_slice(&cipher_suite.to_be_bytes());
    out.push(0); // null compression
    out.extend_from_slice(&0u16.to_be_bytes()); // no extensions
    write_record_header(out, ContentType::ChangeCipherSpec, 1);
    out.push(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends an application-data record of `len` bytes of `fill`.
    fn write_application_data(out: &mut Vec<u8>, fill: u8, len: usize) {
        write_record_header(out, ContentType::ApplicationData, len);
        out.resize(out.len() + len, fill);
    }

    #[test]
    fn record_roundtrip() {
        let mut bytes = Vec::new();
        write_application_data(&mut bytes, 9, 100);
        let (parsed, rest) = RecordView::parse(&bytes).unwrap();
        assert_eq!(parsed.content_type, ContentType::ApplicationData);
        assert_eq!(parsed.version, VERSION_TLS12);
        assert_eq!(parsed.payload, &[9; 100]);
        assert!(rest.is_empty());
    }

    #[test]
    fn client_hello_roundtrip_with_sni() {
        let mut bytes = Vec::new();
        write_client_hello(&mut bytes, &[7u8; 32], "dcape-na.amazon.com");
        let (parsed_rec, rest) = RecordView::parse(&bytes).unwrap();
        assert!(rest.is_empty());
        let parsed = ClientHelloView::parse(parsed_rec.payload).unwrap();
        assert_eq!(parsed.sni, Some(&b"dcape-na.amazon.com"[..]));
        assert_eq!(parsed.random, &[7u8; 32]);
    }

    #[test]
    fn sni_from_stream_extracts() {
        let mut stream = Vec::new();
        write_client_hello(&mut stream, &[1u8; 32], "updates.tplinkcloud.com");
        write_application_data(&mut stream, 0xAB, 64);
        assert_eq!(sni_from_stream(&stream), Some(&b"updates.tplinkcloud.com"[..]));
    }

    #[test]
    fn sni_absent_when_no_extension() {
        // A ClientHello offering one suite, with an empty extension block.
        let mut bytes = Vec::new();
        write_record_header(&mut bytes, ContentType::Handshake, 4 + 43);
        bytes.extend_from_slice(&[1, 0, 0, 43, 0x03, 0x03]);
        bytes.extend_from_slice(&[0u8; 32]);
        bytes.extend_from_slice(&[0, 0, 2, 0xc0, 0x2b, 1, 0, 0, 0]);
        let (rec, _) = RecordView::parse(&bytes).unwrap();
        assert_eq!(ClientHelloView::parse(rec.payload).unwrap().sni, None);
        assert_eq!(sni_from_stream(&bytes), None);
    }

    #[test]
    fn sni_from_application_data_is_none() {
        let mut stream = Vec::new();
        write_record_header(&mut stream, ContentType::ApplicationData, 3);
        stream.extend_from_slice(&[1, 2, 3]);
        assert_eq!(sni_from_stream(&stream), None);
    }

    #[test]
    fn partial_tail_record_is_truncated() {
        let mut stream = Vec::new();
        write_application_data(&mut stream, 5, 50);
        write_application_data(&mut stream, 6, 50);
        stream.truncate(stream.len() - 10); // second record incomplete
        let (first, rest) = RecordView::parse(&stream).unwrap();
        assert_eq!(first.payload, &[5; 50]);
        assert!(matches!(RecordView::parse(rest), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn server_hello_parses_as_records() {
        let mut bytes = Vec::new();
        write_server_hello(&mut bytes, &[3u8; 32], 0xc02f);
        let (hello, rest) = RecordView::parse(&bytes).unwrap();
        let (ccs, rest) = RecordView::parse(rest).unwrap();
        assert_eq!(hello.content_type, ContentType::Handshake);
        assert_eq!(hello.payload[0], 2, "server_hello");
        assert_eq!(hello.payload[6..38], [3u8; 32]);
        assert_eq!(hello.payload[39..41], 0xc02fu16.to_be_bytes());
        assert_eq!(ccs.content_type, ContentType::ChangeCipherSpec);
        assert_eq!(ccs.payload, [1]);
        assert!(rest.is_empty());
    }

    #[test]
    fn garbage_rejected() {
        assert!(RecordView::parse(&[0xff, 0x00, 0x00, 0x00, 0x01, 0x00]).is_err());
        assert!(RecordView::parse(&[23, 0x04, 0x03, 0x00, 0x01]).is_err()); // bad version
        assert!(ClientHelloView::parse(&[2, 0, 0, 0]).is_err()); // server hello type
    }
}
