//! Live telemetry over HTTP, std-only.
//!
//! A minimal GET-only server on `std::net::TcpListener` exposing three
//! routes:
//!
//! * `/metrics` — the latest published registry snapshot in Prometheus
//!   text exposition format (scrapeable by a stock Prometheus).
//! * `/progress` — run progress as JSON: the published experiment
//!   count, ingest ledger and coverage manifest (rendered with the same
//!   `to_json` as the pipeline report, so a finished run's `/progress`
//!   equals its report's), composed at request time with the *live*
//!   process-wide allocator totals and peak RSS ([`crate::process`]).
//! * `/profile` — the published registry's span tree as folded stacks
//!   weighted by self time (see [`crate::export::folded_stacks`]), from
//!   the same snapshot as `/metrics`.
//!
//! ## Publication model
//!
//! The ingest hot path never touches the server: the pipeline publishes
//! rendered documents ([`publish`]) at fold boundaries (run start, each
//! unit's fold, finish), and the server only ever holds three strings
//! behind one mutex. A unit's fold runs on the worker that finished it,
//! under the driver's sink lock, so rendering and publishing land in
//! that worker's `shard/journal` span. Requests between
//! publications see the previous snapshot — a deliberate trade-off, not
//! a consistency bug — and worker spans reach `/metrics` and `/profile`
//! when the workers finish and their registries merge.
//!
//! ## Security posture
//!
//! Off by default; enabled only by an explicit [`start`] (`moniotr
//! campaign --serve ADDR` from the command line). Bind to
//! `127.0.0.1:<port>` unless you mean to expose it. The parser accepts
//! only `GET`, reads at most one small request head, never parses a
//! request body, and closes every connection after one response. There
//! is no TLS and no authentication — this is a lab-network diagnostic
//! port, not a public API.
//!
//! Abusive clients are bounded on three axes: the request line may not
//! exceed [`MAX_REQUEST_LINE_BYTES`] and the whole head may not exceed
//! [`MAX_REQUEST_BYTES`] (both answered with `431 Request Header Fields
//! Too Large`), and a connection that has not produced a full request
//! line within [`HEAD_READ_DEADLINE`] — however slowly it drips bytes —
//! is answered with `408 Request Timeout` and closed. One wedged or
//! malicious scraper therefore costs the accept loop at most the
//! deadline, never an unbounded buffer.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Largest request line (method + path + version) we will accept.
pub const MAX_REQUEST_LINE_BYTES: usize = 1024;

/// Largest request head we will buffer before answering 431.
pub const MAX_REQUEST_BYTES: usize = 4096;

/// Wall-clock budget for reading one request head. Applied as a total
/// deadline across reads, so a drip-feed client cannot hold a
/// connection by sending one byte per read timeout.
pub const HEAD_READ_DEADLINE: Duration = Duration::from_secs(2);

/// Why a request head could not be read.
enum HeadError {
    /// Request line or head exceeded its size cap → 431.
    TooLarge,
    /// The head did not arrive within [`HEAD_READ_DEADLINE`] → 408.
    Timeout,
    /// Connection closed early, I/O error, or non-UTF-8 line → 400.
    Bad,
}

#[derive(Default)]
struct Published {
    metrics: String,
    progress: String,
    profile: String,
}

static PUBLISHED: OnceLock<Mutex<Published>> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn published() -> &'static Mutex<Published> {
    PUBLISHED.get_or_init(|| Mutex::new(Published::default()))
}

/// Whether a server is running — pipelines use this to skip snapshot
/// rendering entirely when nobody is listening.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Publishes the three documents the routes serve. Cheap string swaps
/// under one mutex; call at fold boundaries, not per experiment.
pub fn publish(metrics: String, progress: String, profile: String) {
    let mut p = published().lock().unwrap_or_else(|e| e.into_inner());
    *p = Published {
        metrics,
        progress,
        profile,
    };
}

/// Starts the server on `addr` (e.g. `127.0.0.1:0` for an ephemeral
/// port) and returns the bound address. The accept loop runs on a
/// detached thread for the rest of the process lifetime.
pub fn start(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    ACTIVE.store(true, Ordering::Relaxed);
    std::thread::Builder::new()
        .name("iot-obs-serve".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if let Ok(stream) = conn {
                    // One wedged client must not hold the accept loop.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = handle(stream);
                }
            }
        })?;
    Ok(bound)
}

/// Reads the request head (first line is enough; we never read bodies)
/// under the size caps and the total wall-clock deadline.
fn read_request_line(stream: &mut TcpStream) -> Result<String, HeadError> {
    let deadline = Instant::now() + HEAD_READ_DEADLINE;
    // Short per-read timeout so the loop re-checks the total deadline
    // even against a client that drips one byte per read.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if Instant::now() >= deadline {
            return Err(HeadError::Timeout);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.contains(&b'\n') {
                    break;
                }
                // No newline yet: everything buffered is request line.
                if buf.len() > MAX_REQUEST_LINE_BYTES || buf.len() > MAX_REQUEST_BYTES {
                    return Err(HeadError::TooLarge);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue; // deadline re-checked at loop top
            }
            Err(_) => return Err(HeadError::Bad),
        }
    }
    let line_end = buf.iter().position(|&b| b == b'\n').ok_or(HeadError::Bad)?;
    if line_end > MAX_REQUEST_LINE_BYTES {
        return Err(HeadError::TooLarge);
    }
    String::from_utf8(buf[..line_end].to_vec())
        .map(|l| l.trim_end_matches('\r').to_string())
        .map_err(|_| HeadError::Bad)
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn handle(mut stream: TcpStream) -> std::io::Result<()> {
    let (status, content_type, body) = response_for(&mut stream);
    respond(&mut stream, status, content_type, &body);
    // Half-close and briefly drain whatever the client is still sending
    // (likely on the 431 path, where we refused mid-head): closing a
    // socket with unread receive-queue data sends RST, which can
    // destroy the response before the client reads it. Bounded in both
    // bytes and wall time so a hostile client cannot hold us here.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 512];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    Ok(())
}

fn response_for(stream: &mut TcpStream) -> (&'static str, &'static str, String) {
    let line = match read_request_line(stream) {
        Ok(line) => line,
        Err(HeadError::TooLarge) => {
            return (
                "431 Request Header Fields Too Large",
                "text/plain",
                "request head too large\n".to_string(),
            );
        }
        Err(HeadError::Timeout) => {
            return (
                "408 Request Timeout",
                "text/plain",
                "request head not received in time\n".to_string(),
            );
        }
        Err(HeadError::Bad) => {
            return ("400 Bad Request", "text/plain", "bad request\n".to_string());
        }
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        );
    }
    // Ignore any query string; the routes take no parameters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = {
                let p = published().lock().unwrap_or_else(|e| e.into_inner());
                p.metrics.clone()
            };
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/progress" => {
            let progress = {
                let p = published().lock().unwrap_or_else(|e| e.into_inner());
                if p.progress.is_empty() {
                    "{}".to_string()
                } else {
                    p.progress.clone()
                }
            };
            // Compose the published ledger with the live process
            // totals at request time — the latter tick during a run.
            let body = format!(
                "{{\"progress\":{progress},\"process\":{}}}\n",
                crate::process::snapshot_json().dump()
            );
            ("200 OK", "application/json", body)
        }
        "/profile" => {
            let body = {
                let p = published().lock().unwrap_or_else(|e| e.into_inner());
                p.profile.clone()
            };
            ("200 OK", "text/plain", body)
        }
        _ => (
            "404 Not Found",
            "text/plain",
            "routes: /metrics /progress /profile\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full request/response coverage lives in tests/serve_http.rs (one
    // process-global server per test binary); here only the pure pieces.
    #[test]
    fn publish_then_read_back() {
        publish("m".into(), "{\"x\":1}".into(), "a;b 1\n".into());
        let p = published().lock().unwrap();
        assert_eq!(p.metrics, "m");
        assert_eq!(p.progress, "{\"x\":1}");
        assert_eq!(p.profile, "a;b 1\n");
    }

    #[test]
    fn inactive_until_started() {
        // `start` is never called in this unit-test process before this
        // assertion unless another test raced it; both orders are legal,
        // so only assert the flag is readable.
        let _ = active();
    }
}
