//! DNS message encoding and decoding (RFC 1035).
//!
//! The destination analysis (§4.1) labels an IP address with the second
//! level domain of the DNS lookup that produced it, so the pipeline needs a
//! faithful DNS codec: the simulated devices emit real query/response
//! messages and the analyzer decodes them, including compression pointers
//! in responses. [`write_query`] and [`write_answer`] append a message to
//! the caller's buffer; the one parser, [`MessageView`], validates a
//! message where it lies.

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

/// Appends a standard recursive A query for `name`, lowercased and
/// uncompressed.
pub fn write_query(out: &mut Vec<u8>, id: u16, name: &str) {
    write_header(out, id, 0x0100, 0); // recursion desired
    write_question(out, name);
}

/// Appends the response to [`write_query`]'s query: the question again,
/// then one A record per address, each owned by `name` and living `ttl`
/// seconds.
pub fn write_answer(out: &mut Vec<u8>, id: u16, name: &str, addrs: &[Ipv4Addr], ttl: u32) {
    // Response, recursion desired and available, NOERROR.
    write_header(out, id, 0x8180, addrs.len() as u16);
    write_question(out, name);
    for addr in addrs {
        write_record(out, name, RecordType::A, ttl, &addr.octets());
    }
}

/// Appends a header with one question and `answers` answers.
fn write_header(out: &mut Vec<u8>, id: u16, flags: u16, answers: u16) {
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&answers.to_be_bytes());
    out.extend_from_slice(&[0; 4]); // NSCOUNT, ARCOUNT
}

/// Appends an A question for `name`, class IN.
fn write_question(out: &mut Vec<u8>, name: &str) {
    write_name(out, name);
    out.extend_from_slice(&u16::from(RecordType::A).to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
}

/// Appends a resource record, class IN.
fn write_record(out: &mut Vec<u8>, name: &str, rtype: RecordType, ttl: u32, rdata: &[u8]) {
    write_name(out, name);
    out.extend_from_slice(&u16::from(rtype).to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out.extend_from_slice(&ttl.to_be_bytes());
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(rdata);
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

/// Appends `name` as length-prefixed labels, ASCII lowercased; a label
/// longer than 63 bytes is cut to 63.
fn write_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = &label.as_bytes()[..label.len().min(63)];
        out.push(bytes.len() as u8);
        out.extend(bytes.iter().map(u8::to_ascii_lowercase));
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
        let mut q = Vec::new();
        write_query(&mut q, 9, "bounded.example.com");
        assert_eq!(MessageView::parse(&q).unwrap().questions().count(), 1);
    }

    #[test]
    fn query_roundtrip() {
        let mut bytes = Vec::new();
        write_query(&mut bytes, 0x1234, "Echo.Amazon.com");
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
        let mut bytes = Vec::new();
        let addrs = [Ipv4Addr::new(47, 89, 1, 2), Ipv4Addr::new(47, 89, 1, 3)];
        write_answer(&mut bytes, 7, "device.tuyaus.com", &addrs, 300);
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
        let mut bytes = Vec::new();
        write_header(&mut bytes, 1, 0x8180, 2);
        write_question(&mut bytes, "www.nest.com");
        let mut target = Vec::new();
        write_name(&mut target, "frontdoor.nest.com");
        write_record(&mut bytes, "www.nest.com", RecordType::Cname, 60, &target);
        let addr = [35, 1, 1, 1];
        write_record(&mut bytes, "frontdoor.nest.com", RecordType::A, 60, &addr);
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
        let mut bytes = Vec::new();
        write_query(&mut bytes, 5, "x.com");
        // The one-byte label "x" becomes a byte that is not UTF-8.
        bytes[13] = 0xff;
        let parsed = MessageView::parse(&bytes).unwrap();
        let mut buf = String::from("stale contents");
        let (name, _) = parsed.questions().next().unwrap();
        assert_eq!(name.decode_into(&mut buf), "\u{fffd}.com");
        // The writer lowercases; upper-case the labels of "a.b" on the wire.
        let mut upper = Vec::new();
        write_query(&mut upper, 6, "a.b");
        upper[13..16].make_ascii_uppercase();
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
        let mut q = Vec::new();
        write_query(&mut q, 9, "x.com");
        assert!(MessageView::parse(&q[..q.len() - 2]).is_err());
    }

    #[test]
    fn nxdomain_rcode_roundtrip() {
        let mut bytes = Vec::new();
        write_answer(&mut bytes, 3, "missing.example", &[], 60);
        bytes[3] |= 3; // NXDOMAIN
        let parsed = MessageView::parse(&bytes).unwrap();
        assert!(parsed.is_response());
        assert_eq!(parsed.rcode(), 3);
    }
}
