//! DNS message encoding and decoding (RFC 1035).
//!
//! The destination analysis (§4.1) labels an IP address with the second
//! level domain of the DNS lookup that produced it, so the pipeline needs a
//! faithful DNS codec: the simulated devices emit real query/response
//! messages and the analyzer decodes them, including compression pointers
//! in responses. [`Message`] builds and encodes messages; the one parser,
//! [`MessageView`], validates a message where it lies.

use crate::error::ProtoError;
use crate::Result;
use std::net::Ipv4Addr;

/// Standard DNS port.
pub const PORT: u16 = 53;

/// Query/record types this codec understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Canonical name record.
    Cname,
    /// IPv6 address record (recognized; rdata kept raw).
    Aaaa,
    /// Anything else, preserved by value.
    Other(u16),
}

impl From<u16> for RecordType {
    fn from(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            5 => RecordType::Cname,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(t: RecordType) -> u16 {
        match t {
            RecordType::A => 1,
            RecordType::Cname => 5,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name, lowercase, without trailing dot.
    pub name: String,
    /// Query type.
    pub qtype: RecordType,
}

/// Resource-record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A canonical-name target.
    Cname(String),
    /// Uninterpreted bytes for other record types.
    Raw(Vec<u8>),
}

/// An answer/authority/additional resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Record owner name.
    pub name: String,
    /// Record type.
    pub rtype: RecordType,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Record data.
    pub rdata: RData,
}

/// A DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// True for responses (QR bit).
    pub is_response: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Response code (0 = NOERROR, 3 = NXDOMAIN).
    pub rcode: u8,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
}

impl Message {
    /// Builds a standard recursive A query.
    pub fn query(id: u16, name: &str) -> Self {
        Message {
            id,
            is_response: false,
            recursion_desired: true,
            rcode: 0,
            questions: vec![Question {
                name: name.to_ascii_lowercase(),
                qtype: RecordType::A,
            }],
            answers: Vec::new(),
        }
    }

    /// Builds a response answering `query` with the given addresses.
    pub fn answer(query: &Message, addrs: &[Ipv4Addr], ttl: u32) -> Self {
        let name = query
            .questions
            .first()
            .map(|q| q.name.clone())
            .unwrap_or_default();
        Message {
            id: query.id,
            is_response: true,
            recursion_desired: true,
            rcode: 0,
            questions: query.questions.clone(),
            answers: addrs
                .iter()
                .map(|a| ResourceRecord {
                    name: name.clone(),
                    rtype: RecordType::A,
                    ttl,
                    rdata: RData::A(*a),
                })
                .collect(),
        }
    }

    /// Encodes to wire format. Names are emitted uncompressed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.is_response {
            flags |= 0x0080; // recursion available
        }
        flags |= u16::from(self.rcode & 0x0f);
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
        out.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
        for q in &self.questions {
            encode_name(&mut out, &q.name);
            out.extend_from_slice(&u16::from(q.qtype).to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        for rr in &self.answers {
            encode_name(&mut out, &rr.name);
            out.extend_from_slice(&u16::from(rr.rtype).to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes());
            out.extend_from_slice(&rr.ttl.to_be_bytes());
            match &rr.rdata {
                RData::A(addr) => {
                    out.extend_from_slice(&4u16.to_be_bytes());
                    out.extend_from_slice(&addr.octets());
                }
                RData::Cname(target) => {
                    let mut name_bytes = Vec::new();
                    encode_name(&mut name_bytes, target);
                    out.extend_from_slice(&(name_bytes.len() as u16).to_be_bytes());
                    out.extend_from_slice(&name_bytes);
                }
                RData::Raw(bytes) => {
                    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
                    out.extend_from_slice(bytes);
                }
            }
        }
        out
    }
}

/// A DNS message validated in place: [`MessageView::parse`] walks every
/// question and answer record, following compression pointers, without
/// copying a byte or touching the heap, and names decode on demand into
/// the caller's buffer ([`NameRef::decode_into`]). The flow-labeling
/// path probes every UDP payload with it, so a rejection costs nothing
/// but the walk.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    data: &'a [u8],
    /// Offset of the first answer record.
    answers_at: usize,
}

/// A (possibly compressed) domain name inside a validated message.
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    message: &'a [u8],
    offset: usize,
}

/// One answer record of a [`MessageView`].
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Record owner name.
    pub name: NameRef<'a>,
    /// Record type.
    pub rtype: RecordType,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Record data, uninterpreted.
    pub rdata: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Validates `data` as one message. Every question and answer must be
    /// whole, every name must resolve (at most 64 labels and pointer
    /// hops), an A record's data must be four bytes and a CNAME's a name;
    /// bytes after the last answer are ignored.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < 12 {
            return Err(ProtoError::truncated("dns", "header"));
        }
        let mut view = MessageView {
            data,
            answers_at: 12,
        };
        for _ in 0..view.count(4) {
            view.answers_at = question_at(data, view.answers_at)?.2;
        }
        let mut offset = view.answers_at;
        for _ in 0..view.count(6) {
            offset = record_at(data, offset)?.1;
        }
        Ok(view)
    }

    fn count(&self, at: usize) -> u16 {
        u16::from_be_bytes([self.data[at], self.data[at + 1]])
    }

    fn flags(&self) -> u16 {
        self.count(2)
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.count(0)
    }

    /// True for responses (QR bit).
    pub fn is_response(&self) -> bool {
        self.flags() & 0x8000 != 0
    }

    /// Recursion desired.
    pub fn recursion_desired(&self) -> bool {
        self.flags() & 0x0100 != 0
    }

    /// Response code (0 = NOERROR, 3 = NXDOMAIN).
    pub fn rcode(&self) -> u8 {
        (self.flags() & 0x000f) as u8
    }

    /// The question section: each queried name and type.
    pub fn questions(&self) -> impl Iterator<Item = (NameRef<'a>, RecordType)> + 'a {
        let data = self.data;
        (0..self.count(4)).scan(12, move |offset, _| {
            let (name, qtype, next) = question_at(data, *offset).ok()?;
            *offset = next;
            Some((name, qtype))
        })
    }

    /// The answer section, in wire order.
    pub fn answers(&self) -> impl Iterator<Item = RecordView<'a>> + 'a {
        let data = self.data;
        (0..self.count(6)).scan(self.answers_at, move |offset, _| {
            let (record, next) = record_at(data, *offset).ok()?;
            *offset = next;
            Some(record)
        })
    }

    /// Every A record of the answer section: owner name and address.
    pub fn a_records(&self) -> impl Iterator<Item = (NameRef<'a>, Ipv4Addr)> + 'a {
        self.answers().filter_map(|rr| match rr.rtype {
            RecordType::A => {
                let [a, b, c, d] = rr.rdata.try_into().ok()?;
                Some((rr.name, Ipv4Addr::new(a, b, c, d)))
            }
            _ => None,
        })
    }
}

impl NameRef<'_> {
    /// Decodes the name into `out`, replacing its contents: labels joined
    /// by dots, ASCII lowercased, bytes that are not UTF-8 replaced by
    /// U+FFFD as `String::from_utf8_lossy` does. Allocates only while
    /// `out` grows.
    pub fn decode_into<'o>(&self, out: &'o mut String) -> &'o str {
        out.clear();
        let mut first = true;
        // The message was validated, so the walk cannot fail.
        let _ = walk_name(self.message, self.offset, |label| {
            if !first {
                out.push('.');
            }
            first = false;
            let start = out.len();
            for chunk in label.utf8_chunks() {
                out.push_str(chunk.valid());
                if !chunk.invalid().is_empty() {
                    out.push(char::REPLACEMENT_CHARACTER);
                }
            }
            out[start..].make_ascii_lowercase();
        });
        out
    }
}

/// The question at `offset`: its name, its type and the offset after it.
fn question_at(data: &[u8], offset: usize) -> Result<(NameRef<'_>, RecordType, usize)> {
    let next = walk_name(data, offset, |_| {})?;
    if data.len() < next + 4 {
        return Err(ProtoError::truncated("dns", "question"));
    }
    let qtype = u16::from_be_bytes([data[next], data[next + 1]]).into();
    let name = NameRef {
        message: data,
        offset,
    };
    Ok((name, qtype, next + 4))
}

/// The resource record at `offset` and the offset after it.
fn record_at(data: &[u8], offset: usize) -> Result<(RecordView<'_>, usize)> {
    let next = walk_name(data, offset, |_| {})?;
    if data.len() < next + 10 {
        return Err(ProtoError::truncated("dns", "resource record"));
    }
    let rtype: RecordType = u16::from_be_bytes([data[next], data[next + 1]]).into();
    let ttl = u32::from_be_bytes([
        data[next + 4],
        data[next + 5],
        data[next + 6],
        data[next + 7],
    ]);
    let rdlen = usize::from(u16::from_be_bytes([data[next + 8], data[next + 9]]));
    let rdata_at = next + 10;
    let rdata = data
        .get(rdata_at..rdata_at + rdlen)
        .ok_or_else(|| ProtoError::truncated("dns", "rdata"))?;
    match rtype {
        RecordType::A if rdlen != 4 => {
            return Err(ProtoError::malformed("dns", "A rdata length"));
        }
        RecordType::Cname => {
            walk_name(data, rdata_at, |_| {})?;
        }
        _ => {}
    }
    let name = NameRef {
        message: data,
        offset,
    };
    let record = RecordView {
        name,
        rtype,
        ttl,
        rdata,
    };
    Ok((record, rdata_at + rdlen))
}

/// Encodes a domain name as length-prefixed labels.
fn encode_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        out.push(bytes.len().min(63) as u8);
        out.extend_from_slice(&bytes[..bytes.len().min(63)]);
    }
    out.push(0);
}

/// Walks the (possibly compressed) domain name at `offset`, handing each
/// label's bytes to `label`, and returns the offset just past the name in
/// the *original* stream. More than 64 labels and pointer hops together
/// is a compression loop.
fn walk_name(data: &[u8], mut offset: usize, mut label: impl FnMut(&[u8])) -> Result<usize> {
    let mut jumped = false;
    let mut end_offset = offset;
    let mut hops = 0usize;
    loop {
        if hops > 64 {
            return Err(ProtoError::malformed("dns", "compression loop"));
        }
        let len = *data
            .get(offset)
            .ok_or_else(|| ProtoError::truncated("dns", "name"))? as usize;
        if len == 0 {
            if !jumped {
                end_offset = offset + 1;
            }
            return Ok(end_offset);
        }
        if len & 0xc0 == 0xc0 {
            let lo = *data
                .get(offset + 1)
                .ok_or_else(|| ProtoError::truncated("dns", "compression pointer"))?
                as usize;
            if !jumped {
                end_offset = offset + 2;
            }
            offset = ((len & 0x3f) << 8) | lo;
            jumped = true;
            hops += 1;
            continue;
        }
        if len > 63 {
            return Err(ProtoError::malformed("dns", "label length"));
        }
        let start = offset + 1;
        let bytes = data
            .get(start..start + len)
            .ok_or_else(|| ProtoError::truncated("dns", "label"))?;
        label(bytes);
        offset = start + len;
        if !jumped {
            end_offset = offset + 1; // provisional; fixed when the 0 byte is hit
        }
        hops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(name: NameRef<'_>) -> String {
        name.decode_into(&mut String::new()).to_string()
    }

    #[test]
    fn wire_counts_are_claims_not_reservations() {
        // A 2 KB "datagram" claiming 65535 questions/answers: content-based
        // identification probes arbitrary UDP payloads, so the counts are
        // noise, and the walk rejects the body without reserving anything.
        let mut bytes = vec![0u8; 2048];
        bytes[4] = 0xff; // qdcount = 65535
        bytes[5] = 0xff;
        bytes[6] = 0xff; // ancount = 65535
        bytes[7] = 0xff;
        assert!(MessageView::parse(&bytes).is_err());
        let q = Message::query(9, "bounded.example.com").encode();
        assert_eq!(MessageView::parse(&q).unwrap().questions().count(), 1);
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, "Echo.Amazon.com");
        let bytes = q.encode();
        let parsed = MessageView::parse(&bytes).unwrap();
        assert_eq!(parsed.id(), 0x1234);
        assert!(!parsed.is_response());
        assert!(parsed.recursion_desired());
        let (name, qtype) = parsed.questions().next().unwrap();
        assert_eq!(decode(name), "echo.amazon.com");
        assert_eq!(qtype, RecordType::A);
    }

    #[test]
    fn answer_roundtrip() {
        let q = Message::query(7, "device.tuyaus.com");
        let a = Message::answer(&q, &[Ipv4Addr::new(47, 89, 1, 2), Ipv4Addr::new(47, 89, 1, 3)], 300);
        let bytes = a.encode();
        let parsed = MessageView::parse(&bytes).unwrap();
        assert!(parsed.is_response());
        assert_eq!(parsed.id(), 7);
        let records: Vec<_> = parsed.a_records().map(|(n, a)| (decode(n), a)).collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], ("device.tuyaus.com".to_string(), Ipv4Addr::new(47, 89, 1, 2)));
        assert_eq!(parsed.answers().next().unwrap().ttl, 300);
    }

    #[test]
    fn cname_roundtrip() {
        let mut msg = Message::query(1, "www.nest.com");
        msg.is_response = true;
        msg.answers.push(ResourceRecord {
            name: "www.nest.com".into(),
            rtype: RecordType::Cname,
            ttl: 60,
            rdata: RData::Cname("frontdoor.nest.com".into()),
        });
        msg.answers.push(ResourceRecord {
            name: "frontdoor.nest.com".into(),
            rtype: RecordType::A,
            ttl: 60,
            rdata: RData::A(Ipv4Addr::new(35, 1, 1, 1)),
        });
        let bytes = msg.encode();
        let parsed = MessageView::parse(&bytes).unwrap();
        let cname = parsed.answers().next().unwrap();
        assert_eq!(cname.rtype, RecordType::Cname);
        assert_eq!(cname.rdata, b"\x09frontdoor\x04nest\x03com\x00");
        let records: Vec<_> = parsed.a_records().map(|(n, a)| (decode(n), a)).collect();
        assert_eq!(records, [("frontdoor.nest.com".to_string(), Ipv4Addr::new(35, 1, 1, 1))]);
        // A CNAME whose target runs off the message is no message.
        let target = bytes.windows(10).position(|w| w == b"\x09frontdoor").unwrap();
        let mut broken = bytes.clone();
        broken[target] = 60;
        assert!(MessageView::parse(&broken).is_err());
    }

    #[test]
    fn compression_pointer_decoded() {
        // Hand-built response: question "a.example.com", answer name is a
        // pointer back to the question name at offset 12.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0042u16.to_be_bytes()); // id
        bytes.extend_from_slice(&0x8180u16.to_be_bytes()); // response flags
        bytes.extend_from_slice(&1u16.to_be_bytes()); // qdcount
        bytes.extend_from_slice(&1u16.to_be_bytes()); // ancount
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes());
        // question name at offset 12
        bytes.push(1);
        bytes.extend_from_slice(b"a");
        bytes.push(7);
        bytes.extend_from_slice(b"example");
        bytes.push(3);
        bytes.extend_from_slice(b"com");
        bytes.push(0);
        bytes.extend_from_slice(&1u16.to_be_bytes()); // qtype A
        bytes.extend_from_slice(&1u16.to_be_bytes()); // class IN
        // answer: pointer to offset 12
        bytes.extend_from_slice(&[0xc0, 0x0c]);
        bytes.extend_from_slice(&1u16.to_be_bytes()); // type A
        bytes.extend_from_slice(&1u16.to_be_bytes()); // class IN
        bytes.extend_from_slice(&120u32.to_be_bytes()); // ttl
        bytes.extend_from_slice(&4u16.to_be_bytes()); // rdlen
        bytes.extend_from_slice(&[93, 184, 216, 34]);
        let parsed = MessageView::parse(&bytes).unwrap();
        let records: Vec<_> = parsed.a_records().map(|(n, a)| (decode(n), a)).collect();
        assert_eq!(
            records,
            [("a.example.com".to_string(), Ipv4Addr::new(93, 184, 216, 34))]
        );
    }

    #[test]
    fn names_decode_lossily_and_lowercase() {
        let mut bytes = Message::query(5, "x.com").encode();
        // The one-byte label "x" becomes a byte that is not UTF-8.
        bytes[13] = 0xff;
        let parsed = MessageView::parse(&bytes).unwrap();
        let mut buf = String::from("stale contents");
        let (name, _) = parsed.questions().next().unwrap();
        assert_eq!(name.decode_into(&mut buf), "\u{fffd}.com");
        let upper = Message {
            questions: vec![Question {
                name: "A.B".into(),
                qtype: RecordType::A,
            }],
            ..Message::query(6, "")
        }
        .encode();
        let (name, _) = MessageView::parse(&upper).unwrap().questions().next().unwrap();
        assert_eq!(name.decode_into(&mut buf), "a.b");
    }

    #[test]
    fn compression_loop_rejected() {
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1; // one question
        bytes.extend_from_slice(&[0xc0, 0x0c]); // pointer to itself
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&1u16.to_be_bytes());
        assert!(MessageView::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(MessageView::parse(&[0u8; 5]).is_err());
        let q = Message::query(9, "x.com").encode();
        assert!(MessageView::parse(&q[..q.len() - 2]).is_err());
    }

    #[test]
    fn nxdomain_rcode_roundtrip() {
        let mut m = Message::query(3, "missing.example");
        m.is_response = true;
        m.rcode = 3;
        assert_eq!(MessageView::parse(&m.encode()).unwrap().rcode(), 3);
    }
}
