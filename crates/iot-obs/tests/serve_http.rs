//! HTTP endpoint integration test, driven over real sockets.
//!
//! The server, its `ACTIVE` flag, and the published documents are
//! process-global, so this file holds exactly one test: it starts one
//! server on an ephemeral localhost port and walks every route and
//! error path sequentially. Raw `TcpStream` requests (no HTTP client
//! dependency) assert on status line, headers, and body.

use iot_core::json::Json;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one raw request head and returns `(status_line, headers, body)`.
fn request(addr: SocketAddr, head: &str) -> (String, Vec<(String, String)>, String) {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(format!("{head}\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head_part, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let mut lines = head_part.lines();
    let status = lines.next().unwrap_or_default().to_string();
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (String, Vec<(String, String)>, String) {
    request(addr, &format!("GET {path} HTTP/1.1"))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn endpoint_serves_published_documents() {
    let addr = iot_obs::serve::start("127.0.0.1:0").expect("bind ephemeral port");
    assert!(iot_obs::serve::active(), "start must raise the active flag");

    let metrics_doc = "# TYPE iot_experiments_total counter\niot_experiments_total 7\n";
    let progress_doc = "{\"phase\":\"folded\",\"experiments\":7}";
    let profile_doc = "shard 40\nshard;ingest 60\n";
    iot_obs::serve::publish(
        metrics_doc.to_string(),
        progress_doc.to_string(),
        profile_doc.to_string(),
    );

    // /metrics: exact published bytes, scrape-ready content type,
    // accurate Content-Length.
    let (status, headers, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert_eq!(body, metrics_doc);
    assert_eq!(
        header(&headers, "content-length").and_then(|v| v.parse::<usize>().ok()),
        Some(body.len())
    );
    assert_eq!(header(&headers, "connection"), Some("close"));

    // /progress: the published ledger composed with the live process
    // totals at request time; a query string is ignored.
    let (status, headers, body) = get(addr, "/progress?window=1");
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let progress = Json::parse(body.trim()).expect("/progress body must be JSON");
    assert_eq!(
        progress
            .get("progress")
            .and_then(|p| p.get("phase"))
            .and_then(Json::as_str),
        Some("folded")
    );
    assert!(
        progress.get("process").is_some(),
        "live process totals must be composed in"
    );

    // /profile: the published folded stacks, byte for byte.
    let (status, headers, body) = get(addr, "/profile");
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "content-type"), Some("text/plain"));
    assert_eq!(body, profile_doc);

    // Error paths: unknown routes (the retired `/trace` among them),
    // non-GET method, empty request.
    for route in ["/nope", "/trace"] {
        let (status, _, body) = get(addr, route);
        assert!(status.contains("404"), "{route}: {status}");
        assert!(body.contains("/metrics"), "404 body lists routes: {body}");
        assert!(!body.contains("/trace"), "404 body lists routes: {body}");
    }
    let (status, _, _) = request(addr, "POST /metrics HTTP/1.1");
    assert!(status.contains("405"), "{status}");
    let status = {
        // A client that connects and hangs up without a request line.
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response.lines().next().unwrap_or_default().to_string()
    };
    assert!(status.contains("400"), "{status}");

    // Abuse paths. An oversized request line is refused with 431 and
    // the connection closed, whether the overflow arrives in one write…
    let long_path = "a".repeat(2 * iot_obs::serve::MAX_REQUEST_LINE_BYTES);
    let (status, _, _) = request(addr, &format!("GET /{long_path} HTTP/1.1"));
    assert!(status.contains("431"), "{status}");
    // …or with no newline at all (nothing to parse, cap still enforced).
    let status = {
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let blob = vec![b'x'; iot_obs::serve::MAX_REQUEST_BYTES + 64];
        stream.write_all(&blob).expect("write oversized head");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response.lines().next().unwrap_or_default().to_string()
    };
    assert!(status.contains("431"), "{status}");

    // A drip-feed client that never completes the request line is cut
    // off with 408 once the head-read deadline lapses, bounding how
    // long one connection can occupy the server.
    let status = {
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream
            .set_read_timeout(Some(iot_obs::serve::HEAD_READ_DEADLINE + Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"GET /met").expect("write partial line");
        // Hold the connection open without finishing the line; the
        // server must answer on its own initiative.
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response.lines().next().unwrap_or_default().to_string()
    };
    assert!(status.contains("408"), "{status}");

    // Before any publication after a reset, /progress falls back to a
    // well-formed empty document instead of an empty body.
    iot_obs::serve::publish(String::new(), String::new(), String::new());
    let (_, _, body) = get(addr, "/progress");
    let progress = Json::parse(body.trim()).expect("empty /progress still JSON");
    assert!(progress.get("progress").is_some());
}
