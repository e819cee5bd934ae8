//! TLS record layer and handshake messages (RFC 5246 framing).
//!
//! The destination analysis uses the Server Name Indication extension of
//! ClientHello messages as a fallback domain label (§4.1), and the
//! encryption analysis counts TLS application-data bytes as encrypted
//! without entropy testing (§5.1). This module implements just enough of
//! TLS to generate and recognize those artifacts: record framing,
//! ClientHello/ServerHello with extensions, and opaque application-data
//! records. No cryptography is performed — payload bytes come from
//! `iot-entropy`'s calibrated generators. [`Record`] and [`ClientHello`]
//! encode; [`RecordView`] and [`ClientHelloView`] parse, borrowing from
//! the stream, so probing a flow's payload prefix copies nothing.

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

/// One TLS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record content type.
    pub content_type: ContentType,
    /// Protocol version field.
    pub version: u16,
    /// Record payload (fragment).
    pub payload: Vec<u8>,
}

impl Record {
    /// Encodes the record header + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.payload.len());
        Record::write_header(
            &mut out,
            self.content_type,
            self.version,
            self.payload.len(),
        );
        out.extend_from_slice(&self.payload);
        out
    }

    /// Appends the 5-byte header of a record whose `len`-byte fragment
    /// the caller appends next, so a fragment can be generated straight
    /// into the buffer that carries the record.
    pub fn write_header(out: &mut Vec<u8>, content_type: ContentType, version: u16, len: usize) {
        out.push(content_type.into());
        out.extend_from_slice(&version.to_be_bytes());
        out.extend_from_slice(&(len as u16).to_be_bytes());
    }
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

/// A ClientHello handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Client random (32 bytes).
    pub random: [u8; 32],
    /// Offered cipher suites.
    pub cipher_suites: Vec<u16>,
    /// Server name indication, when present.
    pub sni: Option<String>,
}

impl ClientHello {
    /// Builds a ClientHello offering [`DEFAULT_CIPHER_SUITES`] for `sni`.
    pub fn new(random: [u8; 32], sni: &str) -> Self {
        ClientHello {
            random,
            cipher_suites: DEFAULT_CIPHER_SUITES.to_vec(),
            sni: Some(sni.to_string()),
        }
    }

    /// Encodes the handshake body (type 1) and wraps it in a handshake
    /// record.
    pub fn to_record(&self) -> Record {
        let mut body = Vec::with_capacity(128);
        body.extend_from_slice(&VERSION_TLS12.to_be_bytes()); // client_version
        body.extend_from_slice(&self.random);
        body.push(0); // session id length
        body.extend_from_slice(&((self.cipher_suites.len() * 2) as u16).to_be_bytes());
        for cs in &self.cipher_suites {
            body.extend_from_slice(&cs.to_be_bytes());
        }
        body.push(1); // compression methods length
        body.push(0); // null compression
        let mut extensions = Vec::new();
        if let Some(sni) = &self.sni {
            let host = sni.as_bytes();
            let mut ext = Vec::with_capacity(host.len() + 9);
            ext.extend_from_slice(&0u16.to_be_bytes()); // extension type: server_name
            let list_len = host.len() + 3;
            ext.extend_from_slice(&((list_len + 2) as u16).to_be_bytes()); // ext length
            ext.extend_from_slice(&(list_len as u16).to_be_bytes()); // server_name_list length
            ext.push(0); // name_type: host_name
            ext.extend_from_slice(&(host.len() as u16).to_be_bytes());
            ext.extend_from_slice(host);
            extensions.extend_from_slice(&ext);
        }
        body.extend_from_slice(&(extensions.len() as u16).to_be_bytes());
        body.extend_from_slice(&extensions);

        let mut hs = Vec::with_capacity(body.len() + 4);
        hs.push(1); // handshake type: client_hello
        let len = body.len() as u32;
        hs.extend_from_slice(&len.to_be_bytes()[1..]); // 24-bit length
        hs.extend_from_slice(&body);
        Record {
            content_type: ContentType::Handshake,
            version: VERSION_TLS12,
            payload: hs,
        }
    }
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

/// Builds an opaque application-data record around pre-generated ciphertext.
pub fn application_data(ciphertext: Vec<u8>) -> Record {
    Record {
        content_type: ContentType::ApplicationData,
        version: VERSION_TLS12,
        payload: ciphertext,
    }
}

/// Builds a minimal ServerHello + ChangeCipherSpec reply used by simulated
/// cloud endpoints.
pub fn server_hello(random: [u8; 32], cipher_suite: u16) -> Vec<u8> {
    let mut body = Vec::with_capacity(48);
    body.extend_from_slice(&VERSION_TLS12.to_be_bytes());
    body.extend_from_slice(&random);
    body.push(0); // session id length
    body.extend_from_slice(&cipher_suite.to_be_bytes());
    body.push(0); // null compression
    body.extend_from_slice(&0u16.to_be_bytes()); // no extensions
    let mut hs = Vec::with_capacity(body.len() + 4);
    hs.push(2); // server_hello
    hs.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
    hs.extend_from_slice(&body);
    let mut out = Record {
        content_type: ContentType::Handshake,
        version: VERSION_TLS12,
        payload: hs,
    }
    .encode();
    out.extend_from_slice(
        &Record {
            content_type: ContentType::ChangeCipherSpec,
            version: VERSION_TLS12,
            payload: vec![1],
        }
        .encode(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let rec = Record {
            content_type: ContentType::ApplicationData,
            version: VERSION_TLS12,
            payload: vec![9; 100],
        };
        let bytes = rec.encode();
        let (parsed, rest) = RecordView::parse(&bytes).unwrap();
        assert_eq!(parsed.content_type, rec.content_type);
        assert_eq!(parsed.version, rec.version);
        assert_eq!(parsed.payload, &rec.payload[..]);
        assert!(rest.is_empty());
    }

    #[test]
    fn client_hello_roundtrip_with_sni() {
        let ch = ClientHello::new([7u8; 32], "dcape-na.amazon.com");
        let record = ch.to_record();
        let bytes = record.encode();
        let (parsed_rec, _) = RecordView::parse(&bytes).unwrap();
        let parsed = ClientHelloView::parse(parsed_rec.payload).unwrap();
        assert_eq!(parsed.sni, Some(&b"dcape-na.amazon.com"[..]));
        assert_eq!(parsed.random, &[7u8; 32]);
    }

    #[test]
    fn sni_from_stream_extracts() {
        let ch = ClientHello::new([1u8; 32], "updates.tplinkcloud.com");
        let mut stream = ch.to_record().encode();
        stream.extend_from_slice(&application_data(vec![0xAB; 64]).encode());
        assert_eq!(sni_from_stream(&stream), Some(&b"updates.tplinkcloud.com"[..]));
    }

    #[test]
    fn sni_absent_when_no_extension() {
        let ch = ClientHello {
            random: [0u8; 32],
            cipher_suites: vec![0xc02b],
            sni: None,
        };
        let bytes = ch.to_record().encode();
        let (rec, _) = RecordView::parse(&bytes).unwrap();
        assert_eq!(ClientHelloView::parse(rec.payload).unwrap().sni, None);
        assert_eq!(sni_from_stream(&bytes), None);
    }

    #[test]
    fn sni_from_application_data_is_none() {
        let stream = application_data(vec![1, 2, 3]).encode();
        assert_eq!(sni_from_stream(&stream), None);
    }

    #[test]
    fn partial_tail_record_is_truncated() {
        let mut stream = application_data(vec![5; 50]).encode();
        stream.extend_from_slice(&application_data(vec![6; 50]).encode());
        stream.truncate(stream.len() - 10); // second record incomplete
        let (first, rest) = RecordView::parse(&stream).unwrap();
        assert_eq!(first.payload, &[5; 50]);
        assert!(matches!(RecordView::parse(rest), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn server_hello_parses_as_records() {
        let bytes = server_hello([3u8; 32], 0xc02f);
        let (hello, rest) = RecordView::parse(&bytes).unwrap();
        let (ccs, rest) = RecordView::parse(rest).unwrap();
        assert_eq!(hello.content_type, ContentType::Handshake);
        assert_eq!(ccs.content_type, ContentType::ChangeCipherSpec);
        assert!(rest.is_empty());
    }

    #[test]
    fn garbage_rejected() {
        assert!(RecordView::parse(&[0xff, 0x00, 0x00, 0x00, 0x01, 0x00]).is_err());
        assert!(RecordView::parse(&[23, 0x04, 0x03, 0x00, 0x01]).is_err()); // bad version
        assert!(ClientHelloView::parse(&[2, 0, 0, 0]).is_err()); // server hello type
    }
}
