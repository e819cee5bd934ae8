//! HTTP/1.1 request/response codec.
//!
//! Plaintext HTTP is where the paper found its PII leaks (§6.2): MAC
//! addresses and device metadata sent to support-party clouds, firmware
//! downloads, and unauthenticated device-action queries. The `Host` header
//! is also the second fallback (after DNS) for labeling destination IPs
//! with domains (§4.1). [`write_request_head`] and [`write_response_head`]
//! append what the simulated devices and clouds send, and the caller
//! appends the body; [`RequestView`] parses a request where it lies,
//! which is all the analyses read.

use crate::error::ProtoError;
use crate::Result;
use std::io::Write as _;

/// Standard HTTP port.
pub const PORT: u16 = 80;

/// Appends an HTTP/1.1 request head: the start line, `Host`,
/// `Connection: keep-alive`, `headers` in order, `Content-Length` when the
/// request has a body, and the blank line. The caller appends the
/// `content_length`-byte body next.
pub fn write_request_head(
    out: &mut Vec<u8>,
    method: &str,
    host: &str,
    path: &str,
    headers: &[(&str, &str)],
    content_length: Option<usize>,
) {
    // A `Vec` takes every write, so these results are all `Ok`.
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n"
    );
    for (name, value) in headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if let Some(len) = content_length {
        let _ = write!(out, "Content-Length: {len}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends an HTTP/1.1 response head: the status line, `Content-Length`,
/// `headers` in order, and the blank line. The caller appends the
/// `content_length`-byte body next.
pub fn write_response_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_length: usize,
    headers: &[(&str, &str)],
) {
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {content_length}\r\n"
    );
    for (name, value) in headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// An HTTP/1.x request borrowed from the front of a byte stream: method,
/// path and header lines stay where they are, and the body is whatever
/// follows the blank line, cut at `Content-Length` when that is present
/// (flow payload prefixes may be capped mid-body; the remainder is kept
/// as-is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    /// Method, e.g. `GET`.
    pub method: &'a str,
    /// Request target.
    pub path: &'a str,
    /// The head: start line and header lines, CRLF-separated.
    head: &'a str,
    /// Message body.
    pub body: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// Parses a request head: it must end in a blank line, be UTF-8, and
    /// every header line must hold a colon; the start line must be an
    /// upper-case method, a path and an `HTTP/1.x` version.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let head_end = find_subsequence(data, b"\r\n\r\n")
            .ok_or_else(|| ProtoError::truncated("http", "header terminator"))?;
        let head = std::str::from_utf8(&data[..head_end])
            .map_err(|_| ProtoError::malformed("http", "non-utf8 header"))?;
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or_default();
        if lines.any(|line| !line.contains(':')) {
            return Err(ProtoError::malformed("http", "header line"));
        }
        let mut parts = start_line.splitn(3, ' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
            .ok_or_else(|| ProtoError::malformed("http", "method"))?;
        let path = parts
            .next()
            .ok_or_else(|| ProtoError::malformed("http", "path"))?;
        let version = parts
            .next()
            .ok_or_else(|| ProtoError::malformed("http", "version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(ProtoError::malformed("http", "version"));
        }
        let mut view = RequestView {
            method,
            path,
            head,
            body: &data[head_end + 4..],
        };
        if let Some(cl) = view
            .header("content-length")
            .and_then(|v| v.parse::<usize>().ok())
        {
            view.body = &view.body[..view.body.len().min(cl)];
        }
        Ok(view)
    }

    /// Header name/value pairs in order of appearance, trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.head
            .split("\r\n")
            .skip(1)
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim(), value.trim()))
    }

    /// Case-insensitive header lookup: the first header so named.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The `Host` header value, if present.
    pub fn host(&self) -> Option<&'a str> {
        self.header("host")
    }
}

/// Finds the first occurrence of `needle` in `haystack`.
pub fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let body = b"mac=a4cf12000102&model=RF28";
        let (host, path) = ("api.samsungcloud.com", "/fridge/checkin");
        let user_agent = ("User-Agent", "SmartFridge/2.1");
        let mut bytes = Vec::new();
        let length = Some(body.len());
        write_request_head(&mut bytes, "POST", host, path, &[user_agent], length);
        bytes.extend_from_slice(body);
        let parsed = RequestView::parse(&bytes).unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, path);
        assert!(parsed.headers().eq([
            ("Host", host),
            ("Connection", "keep-alive"),
            user_agent,
            ("Content-Length", "27"),
        ]));
        assert_eq!(parsed.body, body);
        assert_eq!(parsed.host(), Some("api.samsungcloud.com"));
        assert_eq!(parsed.header("user-agent"), Some("SmartFridge/2.1"));
    }

    #[test]
    fn response_encodes_status_headers_and_body() {
        let mut resp = Vec::new();
        let content_type = ("Content-Type", "application/json");
        write_response_head(&mut resp, 200, "OK", 11, &[content_type]);
        resp.extend_from_slice(b"{\"ok\":true}");
        assert_eq!(
            resp,
            b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nContent-Type: application/json\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn content_length_truncates_pipelined_data() {
        let mut bytes = Vec::new();
        write_request_head(&mut bytes, "POST", "x", "/", &[], Some(3));
        bytes.extend_from_slice(b"abcEXTRA PIPELINED JUNK");
        assert_eq!(RequestView::parse(&bytes).unwrap().body, b"abc");
    }

    #[test]
    fn missing_terminator_is_truncated_error() {
        assert!(matches!(
            RequestView::parse(b"GET / HTTP/1.1\r\nHost: x"),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn non_http_rejected() {
        assert!(RequestView::parse(b"\x16\x03\x03\x00\x10aaaaaaaaaaaaaaaa\r\n\r\n").is_err());
        assert!(RequestView::parse(b"get / HTTP/1.1\r\n\r\n").is_err(), "lowercase method");
        assert!(RequestView::parse(b"GET / HTTP/1.1\r\nno colon\r\n\r\n").is_err());
        assert!(RequestView::parse(b"GET / ICY/1.0\r\n\r\n").is_err());
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let mut bytes = Vec::new();
        write_request_head(&mut bytes, "GET", "example.com", "/", &[], None);
        let req = RequestView::parse(&bytes).unwrap();
        assert_eq!(req.header("HOST"), Some("example.com"));
        assert_eq!(req.header("HoSt"), Some("example.com"));
        assert_eq!(req.header("nope"), None);
    }

    #[test]
    fn find_subsequence_cases() {
        assert_eq!(find_subsequence(b"abcdef", b"cd"), Some(2));
        assert_eq!(find_subsequence(b"abcdef", b"xy"), None);
        assert_eq!(find_subsequence(b"ab", b"abc"), None);
        assert_eq!(find_subsequence(b"", b""), None);
    }
}
