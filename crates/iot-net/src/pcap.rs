//! Classic libpcap capture-file format (the format tcpdump writes).
//!
//! The Mon(IoT)r testbed stores one pcap file per device MAC, plus
//! per-experiment label files. This module implements the classic
//! microsecond-resolution format (magic `0xa1b2c3d4`) so simulated captures
//! are byte-compatible with tcpdump output and can be exchanged with
//! external tools.
//!
//! There is one reader and one writer. [`PcapCursor`] parses every
//! capture, in memory and zero-copy, either strictly (the first framing
//! violation is an error) or leniently (resynchronizing past damage and
//! accounting every lost byte in [`SalvageStats`]); files are bounded
//! per-device captures, so callers load the bytes and walk them.
//! [`Capture`] encodes every record, through [`Capture::push_record`].
//! [`to_bytes`], [`from_bytes`] and [`from_bytes_lenient`] are thin
//! conveniences over the two.

use crate::error::Error;
use crate::packet::Packet;
use crate::Result;

/// Native-order magic for microsecond timestamps.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Byte-swapped magic (file written on an opposite-endian machine).
pub const MAGIC_MICROS_SWAPPED: u32 = 0xd4c3_b2a1;
/// Link type for Ethernet frames.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Global header length.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Per-record header length.
pub const RECORD_HEADER_LEN: usize = 16;
/// Largest timestamp (in microseconds since the epoch) a classic pcap
/// record header can represent: `ts_sec` is a `u32`, so the format runs
/// out in February 2106.
pub const MAX_TS_MICROS: u64 = u32::MAX as u64 * 1_000_000 + 999_999;

/// Splits a microsecond timestamp into the record header's
/// `(ts_sec, ts_usec)` pair, rejecting values past [`MAX_TS_MICROS`].
fn split_ts(ts_micros: u64) -> Result<(u32, u32)> {
    if ts_micros > MAX_TS_MICROS {
        return Err(Error::TimestampOutOfRange { ts_micros });
    }
    Ok(((ts_micros / 1_000_000) as u32, (ts_micros % 1_000_000) as u32))
}

/// What the lenient cursor recovered — and what it had to give up — from
/// one degraded capture. Counts merge by addition across captures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageStats {
    /// Records recovered intact.
    pub records_ok: u64,
    /// Recovered records with `incl_len < orig_len` (snaplen truncation);
    /// these are also counted in [`SalvageStats::records_ok`].
    pub records_truncated: u64,
    /// Resynchronization events: positions where no plausible record
    /// header was found and the reader had to scan forward.
    pub resyncs: u64,
    /// Bytes discarded while scanning for the next plausible header.
    pub bytes_skipped: u64,
    /// Bytes lost to a torn tail (a final record cut off mid-data, or a
    /// trailing fragment shorter than a record header).
    pub torn_tail_bytes: u64,
}

impl SalvageStats {
    /// Folds another capture's salvage outcome into this one.
    pub fn merge(&mut self, other: &SalvageStats) {
        self.records_ok += other.records_ok;
        self.records_truncated += other.records_truncated;
        self.resyncs += other.resyncs;
        self.bytes_skipped += other.bytes_skipped;
        self.torn_tail_bytes += other.torn_tail_bytes;
    }

    /// True when the capture was recovered without losing anything.
    pub fn is_pristine(&self) -> bool {
        self.resyncs == 0 && self.bytes_skipped == 0 && self.torn_tail_bytes == 0
    }
}

/// Largest `incl_len`/`orig_len` a record header may claim and still be
/// considered plausible during resynchronization. Generous against the
/// 65535 snaplen the writer declares, but small enough that a random
/// 32-bit value is implausible with probability ≈ 0.99994.
const MAX_PLAUSIBLE_LEN: u32 = 256 * 1024;

/// Smallest `incl_len` a plausible record may claim: an Ethernet header.
/// Real captures never contain shorter frames, and requiring it prunes
/// most false resynchronization targets inside payload bytes.
const MIN_PLAUSIBLE_LEN: u32 = 14;

/// Field-sanity rules every record header must satisfy, in both cursor
/// modes, so strict and lenient reads can never disagree about which
/// headers are well-formed. Requires sub-second microseconds, frame
/// lengths between an Ethernet header and [`MAX_PLAUSIBLE_LEN`], and
/// `orig_len >= incl_len` (the writer guarantees it; tcpdump's snaplen
/// semantics imply it). Returns the violated rule, or `None`.
fn header_violation(ts_usec: u32, incl_len: u32, orig_len: u32) -> Option<&'static str> {
    if ts_usec >= 1_000_000 {
        return Some("ts_usec not sub-second");
    }
    if incl_len < MIN_PLAUSIBLE_LEN {
        return Some("incl_len below an Ethernet header");
    }
    if incl_len > MAX_PLAUSIBLE_LEN {
        return Some("incl_len implausibly large");
    }
    if orig_len < incl_len {
        return Some("incl_len exceeds orig_len");
    }
    if orig_len > MAX_PLAUSIBLE_LEN {
        return Some("orig_len implausibly large");
    }
    None
}

/// How the bytes at one position read as a record header.
enum HeaderVerdict {
    /// Sane header whose data fits: `(incl_len, orig_len)`.
    Record(u32, u32),
    /// Sane header but the data runs past EOF — a torn tail.
    Torn,
    /// Not a believable record header (which rule it broke).
    Corrupt(&'static str),
}

/// A borrowed view of one capture record: the timestamp, the on-wire
/// original length, and the captured bytes as a slice into the capture
/// buffer — no per-packet allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Timestamp in microseconds since the epoch.
    pub ts_micros: u64,
    /// Original length of the packet on the wire.
    pub orig_len: u32,
    /// Captured frame bytes, borrowed from the capture buffer.
    pub data: &'a [u8],
}

impl PacketView<'_> {
    /// Materializes an owned [`Packet`] (allocates; cold paths only).
    pub fn to_packet(&self) -> Packet {
        Packet::new(self.ts_micros, self.data.to_vec())
    }
}

/// Reading discipline for a [`PcapCursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CursorMode {
    /// Abort on the first framing violation.
    Strict,
    /// Resynchronize past corruption, accounting every lost byte in
    /// [`SalvageStats`].
    Lenient,
}

/// Zero-copy iterator over the records of an in-memory capture — the one
/// pcap record parser.
///
/// Yields [`PacketView`]s borrowing directly from the byte range — the
/// streaming ingest core walks captures packet-at-a-time through this
/// cursor instead of materializing a `Vec<Packet>`. Reads either byte
/// order. Both modes classify every header through the same
/// `header_violation` rules, so they agree on every clean capture and
/// differ only in what happens on a violation.
pub struct PcapCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    swapped: bool,
    mode: CursorMode,
    stats: SalvageStats,
    records_read: u64,
    done: bool,
}

impl<'a> PcapCursor<'a> {
    /// Strict cursor over a full capture (global header included).
    pub fn strict(bytes: &'a [u8]) -> Result<Self> {
        Self::with_mode(bytes, CursorMode::Strict)
    }

    /// Lenient (salvaging) cursor over a full capture. A corrupt record
    /// costs only the bytes between it and the next plausible record
    /// header, not the rest of the capture.
    pub fn lenient(bytes: &'a [u8]) -> Result<Self> {
        Self::with_mode(bytes, CursorMode::Lenient)
    }

    fn with_mode(bytes: &'a [u8], mode: CursorMode) -> Result<Self> {
        if bytes.len() < GLOBAL_HEADER_LEN {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "pcap buffer shorter than the global header",
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let swapped = match magic {
            MAGIC_MICROS => false,
            MAGIC_MICROS_SWAPPED => true,
            other => return Err(Error::BadMagic(other)),
        };
        Ok(Self::over_records(
            &bytes[GLOBAL_HEADER_LEN..],
            swapped,
            mode,
        ))
    }

    /// Cursor over a bare record region with known endianness (no global
    /// header present).
    fn over_records(buf: &'a [u8], swapped: bool, mode: CursorMode) -> Self {
        PcapCursor {
            buf,
            pos: 0,
            swapped,
            mode,
            stats: SalvageStats::default(),
            records_read: 0,
            done: false,
        }
    }

    /// Salvage accounting so far. Complete once the cursor returns `None`.
    pub fn stats(&self) -> SalvageStats {
        self.stats
    }

    /// Advances to the next record. In strict mode the first violation
    /// yields `Some(Err(..))` and ends the walk; in lenient mode errors
    /// never surface — lost bytes land in [`PcapCursor::stats`].
    pub fn next_view(&mut self) -> Option<Result<PacketView<'a>>> {
        if self.done {
            return None;
        }
        loop {
            let remaining = self.buf.len() - self.pos;
            if remaining == 0 {
                self.done = true;
                return None;
            }
            if remaining < RECORD_HEADER_LEN {
                // Trailing fragment too short to even hold a header.
                self.done = true;
                return match self.mode {
                    CursorMode::Strict => Some(Err(Error::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("pcap record header torn after {remaining} bytes"),
                    )))),
                    CursorMode::Lenient => {
                        self.stats.torn_tail_bytes += remaining as u64;
                        None
                    }
                };
            }
            match self.classify_header(self.pos) {
                HeaderVerdict::Record(incl_len, orig_len) => {
                    let start = self.pos + RECORD_HEADER_LEN;
                    let view = PacketView {
                        ts_micros: u64::from(self.field(self.pos)) * 1_000_000
                            + u64::from(self.field(self.pos + 4)),
                        orig_len,
                        data: &self.buf[start..start + incl_len as usize],
                    };
                    self.pos = start + incl_len as usize;
                    self.stats.records_ok += 1;
                    if incl_len < orig_len {
                        self.stats.records_truncated += 1;
                    }
                    self.records_read += 1;
                    return Some(Ok(view));
                }
                HeaderVerdict::Torn => {
                    self.done = true;
                    return match self.mode {
                        CursorMode::Strict => Some(Err(Error::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "pcap record data runs past EOF",
                        )))),
                        CursorMode::Lenient => {
                            self.stats.torn_tail_bytes += remaining as u64;
                            None
                        }
                    };
                }
                HeaderVerdict::Corrupt(what) => {
                    if self.mode == CursorMode::Strict {
                        self.done = true;
                        return Some(Err(Error::BadRecord {
                            record: self.records_read,
                            what,
                        }));
                    }
                    self.resync();
                    if self.done {
                        return None;
                    }
                }
            }
        }
    }

    /// Reads the header field at `buf[at..at + 4]` in the capture's byte
    /// order.
    fn field(&self, at: usize) -> u32 {
        let b = [
            self.buf[at],
            self.buf[at + 1],
            self.buf[at + 2],
            self.buf[at + 3],
        ];
        if self.swapped {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    /// Classifies the candidate record header at `buf[at..]` using
    /// [`header_violation`].
    fn classify_header(&self, at: usize) -> HeaderVerdict {
        if at + RECORD_HEADER_LEN > self.buf.len() {
            return HeaderVerdict::Corrupt("header extends past EOF");
        }
        let (ts_usec, incl_len, orig_len) =
            (self.field(at + 4), self.field(at + 8), self.field(at + 12));
        if let Some(what) = header_violation(ts_usec, incl_len, orig_len) {
            return HeaderVerdict::Corrupt(what);
        }
        if at + RECORD_HEADER_LEN + incl_len as usize > self.buf.len() {
            return HeaderVerdict::Torn;
        }
        HeaderVerdict::Record(incl_len, orig_len)
    }

    /// Scans forward from a corrupt header for the next *complete*
    /// record: a torn-looking candidate mid-payload must not re-anchor
    /// the framing, or salvage would end early and lose every intact
    /// record after it. If EOF arrives first, a trailing region that
    /// still reads as a sane-but-torn record is attributed to
    /// `torn_tail_bytes` — exactly as it would be without the preceding
    /// corruption — and only the rest to `bytes_skipped`.
    fn resync(&mut self) {
        self.stats.resyncs += 1;
        let scan_from = self.pos;
        let mut pos = self.pos + 1;
        let mut first_torn: Option<usize> = None;
        while pos + RECORD_HEADER_LEN <= self.buf.len() {
            match self.classify_header(pos) {
                HeaderVerdict::Record(..) => {
                    self.stats.bytes_skipped += (pos - scan_from) as u64;
                    self.pos = pos;
                    return;
                }
                HeaderVerdict::Torn => {
                    if first_torn.is_none() {
                        first_torn = Some(pos);
                    }
                    pos += 1;
                }
                HeaderVerdict::Corrupt(_) => pos += 1,
            }
        }
        // Nothing re-anchored before EOF: everything left is lost.
        match first_torn {
            Some(torn_at) => {
                self.stats.bytes_skipped += (torn_at - scan_from) as u64;
                self.stats.torn_tail_bytes += (self.buf.len() - torn_at) as u64;
            }
            None => self.stats.bytes_skipped += (self.buf.len() - scan_from) as u64,
        }
        self.pos = self.buf.len();
        self.done = true;
    }
}

impl<'a> Iterator for PcapCursor<'a> {
    type Item = Result<PacketView<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_view()
    }
}

/// An owned, always-writer-clean capture: classic pcap bytes plus the
/// record count — the one pcap writer. This is the streaming core's unit
/// of storage — the testbed generates experiments directly into a
/// `Capture`, and analysis walks it with a [`PcapCursor`] without
/// materializing per-packet `Vec<u8>`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    bytes: Vec<u8>,
    records: u32,
}

impl Default for Capture {
    fn default() -> Self {
        Self::new()
    }
}

impl Capture {
    /// An empty capture: just the global header.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty capture with room for `record_bytes` of records (headers
    /// included) after the global header, for callers that know the final
    /// size and want the buffer allocated once.
    pub fn with_capacity(record_bytes: usize) -> Self {
        let mut bytes = Vec::with_capacity(GLOBAL_HEADER_LEN + record_bytes);
        bytes.extend_from_slice(&MAGIC_MICROS.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes()); // version major
        bytes.extend_from_slice(&4u16.to_le_bytes()); // version minor
        bytes.extend_from_slice(&[0; 8]); // thiszone, sigfigs
        bytes.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        Capture { bytes, records: 0 }
    }

    /// Empties the capture back to its global header, keeping the
    /// buffer's capacity, so one buffer can hold capture after capture
    /// without regrowing.
    pub fn clear(&mut self) {
        self.bytes.truncate(GLOBAL_HEADER_LEN);
        self.records = 0;
    }

    /// Appends one record whose frame `write` encodes in place — the only
    /// code that encodes a record header. `write` gets the capture buffer
    /// just past the new record header and must append exactly `incl_len`
    /// frame bytes, touching nothing before them; a frame of any other
    /// length is rolled back and rejected with [`Error::LengthMismatch`],
    /// so the capture stays writer-clean. An `orig_len` above `incl_len`
    /// marks a snaplen-truncated record, as tcpdump writes them; one below
    /// it is raised to it. Fails with [`Error::TimestampOutOfRange`],
    /// writing nothing and never calling `write`, for timestamps the
    /// format's `u32` seconds field cannot hold, rather than wrapping past
    /// 2106 (chaos clock-skew can produce them). Grows the buffer in
    /// bounded (~1.25×) steps so slack stays proportional to the capture
    /// instead of Vec doubling.
    pub fn write_record(
        &mut self,
        ts_micros: u64,
        orig_len: u32,
        incl_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        let (ts_sec, ts_usec) = split_ts(ts_micros)?;
        let needed = RECORD_HEADER_LEN + incl_len;
        if self.bytes.capacity() - self.bytes.len() < needed {
            let target = (self.bytes.len() + needed)
                .max(self.bytes.len() + self.bytes.len() / 4)
                .max(1024);
            self.bytes.reserve_exact(target - self.bytes.len());
        }
        let start = self.bytes.len();
        let incl = incl_len as u32;
        self.bytes.extend_from_slice(&ts_sec.to_le_bytes());
        self.bytes.extend_from_slice(&ts_usec.to_le_bytes());
        self.bytes.extend_from_slice(&incl.to_le_bytes());
        self.bytes
            .extend_from_slice(&orig_len.max(incl).to_le_bytes());
        write(&mut self.bytes);
        let written = self.bytes.len().checked_sub(start + RECORD_HEADER_LEN);
        if written != Some(incl_len) {
            self.bytes.truncate(start);
            return Err(Error::LengthMismatch {
                layer: "pcap",
                claimed: incl_len,
                actual: written.unwrap_or(0),
            });
        }
        self.records += 1;
        Ok(())
    }

    /// Appends one record holding a copy of `frame` (see
    /// [`Capture::write_record`]).
    pub fn push_record(&mut self, ts_micros: u64, orig_len: u32, frame: &[u8]) -> Result<()> {
        self.write_record(ts_micros, orig_len, frame.len(), |out| {
            out.extend_from_slice(frame)
        })
    }

    /// Appends one whole frame (`orig_len` = captured length).
    pub fn push(&mut self, ts_micros: u64, frame: &[u8]) -> Result<()> {
        self.push_record(ts_micros, frame.len() as u32, frame)
    }

    /// Serializes a packet slice (equivalent to [`to_bytes`]) into a
    /// buffer allocated once, at its final size.
    pub fn from_packets(packets: &[Packet]) -> Result<Self> {
        let record_bytes = packets
            .iter()
            .map(|p| RECORD_HEADER_LEN + p.data.len())
            .sum();
        let mut cap = Capture::with_capacity(record_bytes);
        for p in packets {
            cap.push(p.ts_micros, &p.data)?;
        }
        Ok(cap)
    }

    /// Number of records in the capture.
    pub fn record_count(&self) -> usize {
        self.records as usize
    }

    /// True when the capture holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Serialized size in bytes, headers included.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Sum of captured frame bytes (excluding pcap framing).
    pub fn frame_bytes(&self) -> u64 {
        (self.bytes.len() - GLOBAL_HEADER_LEN) as u64
            - RECORD_HEADER_LEN as u64 * u64::from(self.records)
    }

    /// The raw pcap bytes (valid capture file contents).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the capture, returning the raw pcap bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Zero-copy strict cursor over the records. A `Capture` is only
    /// ever built through [`Capture::push_record`], so the views are
    /// infallible in practice.
    pub fn views(&self) -> PcapCursor<'_> {
        PcapCursor::over_records(&self.bytes[GLOBAL_HEADER_LEN..], false, CursorMode::Strict)
    }

    /// Materializes owned packets (cold paths and tests).
    pub fn to_packets(&self) -> Vec<Packet> {
        self.views()
            .map(|v| v.expect("writer-clean capture").to_packet())
            .collect()
    }
}

/// Serializes packets to an in-memory pcap byte buffer.
pub fn to_bytes(packets: &[Packet]) -> Result<Vec<u8>> {
    Capture::from_packets(packets).map(Capture::into_bytes)
}

/// Parses packets from an in-memory pcap byte buffer (strict cursor).
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<Packet>> {
    let mut out = Vec::new();
    for view in PcapCursor::strict(bytes)? {
        out.push(view?.to_packet());
    }
    Ok(out)
}

/// Parses as many packets as can be salvaged from a possibly-degraded
/// in-memory pcap buffer (lenient cursor). Still fails on an unreadable
/// global header (wrong magic / shorter than 24 bytes): with no known
/// endianness there is no framing to resynchronize to.
pub fn from_bytes_lenient(bytes: &[u8]) -> Result<(Vec<Packet>, SalvageStats)> {
    let mut cur = PcapCursor::lenient(bytes)?;
    let mut out = Vec::new();
    while let Some(view) = cur.next_view() {
        out.push(view?.to_packet());
    }
    Ok((out, cur.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::packet::PacketBuilder;
    use crate::tcp::{TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn sample_packets() -> Vec<Packet> {
        let mut b = PacketBuilder::new(
            MacAddr::new(1, 2, 3, 4, 5, 6),
            MacAddr::new(6, 5, 4, 3, 2, 1),
            Ipv4Addr::new(192, 168, 10, 2),
            Ipv4Addr::new(93, 184, 216, 34),
        );
        let syn = TcpHeader {
            src_port: 5000,
            dst_port: 443,
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
        };
        let data = TcpHeader {
            seq: 2,
            ack: 1,
            flags: TcpFlags::ACK,
            ..syn.clone()
        };
        vec![
            b.tcp(1_500_000, &syn, &[]),
            b.udp(2_250_000, 5001, 53, b"dns"),
            b.tcp(90_000_000_000, &data, b"data"),
        ]
    }

    #[test]
    fn roundtrip() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, packets);
    }

    /// Appends a copy of every packet as a record whose snaplen cut the
    /// last 40 wire bytes (`orig_len` = captured length + 40).
    fn snaplen_truncated(packets: &[Packet]) -> Vec<u8> {
        let mut cap = Capture::new();
        for p in packets {
            cap.push_record(p.ts_micros, p.data.len() as u32 + 40, &p.data)
                .unwrap();
        }
        cap.into_bytes()
    }

    /// Re-encodes a clean native capture the way a writer of the opposite
    /// endianness lays it out: every header field byte-swapped, frame
    /// bytes untouched.
    fn byte_swapped(native: &[u8]) -> Vec<u8> {
        let mut bytes = native.to_vec();
        bytes[0..4].copy_from_slice(&MAGIC_MICROS.to_be_bytes());
        for field in [4usize, 6] {
            bytes.swap(field, field + 1);
        }
        for field in [8usize, 12, 16, 20] {
            bytes[field..field + 4].reverse();
        }
        let mut offset = GLOBAL_HEADER_LEN;
        while offset < bytes.len() {
            for field in 0..4 {
                bytes[offset + field * 4..offset + field * 4 + 4].reverse();
            }
            let incl = u32::from_be_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
            offset += RECORD_HEADER_LEN + incl as usize;
        }
        bytes
    }

    #[test]
    fn global_header_layout() {
        let bytes = to_bytes(&[]).unwrap();
        assert_eq!(bytes.len(), GLOBAL_HEADER_LEN);
        assert_eq!(&bytes[0..4], &MAGIC_MICROS.to_le_bytes());
        assert_eq!(&bytes[4..8], &[2, 0, 4, 0], "version 2.4");
        assert_eq!(&bytes[8..16], &[0; 8], "thiszone and sigfigs");
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 65535);
        assert_eq!(u32::from_le_bytes(bytes[20..24].try_into().unwrap()), LINKTYPE_ETHERNET);
        assert_eq!(Capture::new().as_bytes(), &bytes[..]);
    }

    #[test]
    fn swapped_endianness_readable() {
        let packets = sample_packets();
        let clean = to_bytes(&packets).unwrap();
        assert_eq!(from_bytes(&byte_swapped(&clean)).unwrap(), packets);

        // Real tcpdump files are read leniently: salvage must not care
        // which byte order the damaged capture was written in.
        let torn = clean.len() - 2;
        let second = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + packets[0].data.len();
        let mut garbled = (clean.clone(), byte_swapped(&clean));
        garbled.0[second + 8..second + 12].copy_from_slice(&0xfeed_beefu32.to_le_bytes());
        garbled.1[second + 8..second + 12].copy_from_slice(&0xfeed_beefu32.to_be_bytes());
        let truncated = snaplen_truncated(&packets);
        for (what, native, swapped) in [
            ("clean", clean.clone(), byte_swapped(&clean)),
            (
                "torn tail",
                clean[..torn].to_vec(),
                byte_swapped(&clean)[..torn].to_vec(),
            ),
            ("garbled incl_len", garbled.0, garbled.1),
            (
                "snaplen-truncated",
                truncated.clone(),
                byte_swapped(&truncated),
            ),
        ] {
            let (want, want_stats) = from_bytes_lenient(&native).unwrap();
            let (got, got_stats) = from_bytes_lenient(&swapped).unwrap();
            assert!(!want.is_empty(), "{what}: nothing salvaged");
            assert_eq!(got, want, "{what}: packets differ");
            assert_eq!(got_stats, want_stats, "{what}: salvage stats differ");
        }
    }

    /// A cleared capture is a new one with the old buffer: refilled with
    /// fewer records, it holds exactly those, with no stale tail.
    #[test]
    fn clear_keeps_the_buffer_and_drops_every_record() {
        let packets = sample_packets();
        let mut cap = Capture::from_packets(&packets).unwrap();
        assert_eq!(cap.bytes.capacity(), cap.byte_len(), "sized once");
        let capacity = cap.bytes.capacity();
        cap.clear();
        assert_eq!(cap, Capture::new());
        assert_eq!(cap.bytes.capacity(), capacity);
        cap.push(packets[1].ts_micros, &packets[1].data).unwrap();
        assert_eq!(cap, Capture::from_packets(&packets[1..2]).unwrap());
        assert_eq!(cap.bytes.capacity(), capacity);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&[]).unwrap();
        bytes[0] = 0x00;
        assert!(matches!(from_bytes(&bytes), Err(Error::BadMagic(_))));
    }

    #[test]
    fn truncated_record_is_io_error() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(from_bytes(cut), Err(Error::Io(_))));
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets).unwrap();
        let (back, stats) = from_bytes_lenient(&bytes).unwrap();
        assert_eq!(back, packets);
        assert!(stats.is_pristine());
        assert_eq!(stats.records_ok, packets.len() as u64);
        assert_eq!(stats.records_truncated, 0);
    }

    #[test]
    fn lenient_resyncs_past_corrupt_record_header() {
        let packets = sample_packets();
        let mut bytes = to_bytes(&packets).unwrap();
        // Garble the second record's incl_len to an absurd value.
        let second = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + packets[0].data.len();
        bytes[second + 8..second + 12].copy_from_slice(&0xfeed_beefu32.to_le_bytes());
        assert!(from_bytes(&bytes).is_err(), "strict mode must still abort");
        let (back, stats) = from_bytes_lenient(&bytes).unwrap();
        // First and third packets survive; the corrupted one is skipped.
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], packets[0]);
        assert_eq!(back[1], packets[2]);
        assert_eq!(stats.records_ok, 2);
        assert_eq!(stats.resyncs, 1);
        // Exactly the garbled record is skipped: the resync lands on the
        // third record's header.
        assert_eq!(
            stats.bytes_skipped,
            (RECORD_HEADER_LEN + packets[1].data.len()) as u64
        );
        assert_eq!(stats.torn_tail_bytes, 0);
    }

    #[test]
    fn lenient_salvages_before_torn_tail() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets).unwrap();
        // Tear mid-way through the last record's data.
        let cut = &bytes[..bytes.len() - 2];
        let (back, stats) = from_bytes_lenient(cut).unwrap();
        assert_eq!(back.len(), packets.len() - 1);
        assert_eq!(back, packets[..2]);
        assert!(stats.torn_tail_bytes > 0);
    }

    #[test]
    fn lenient_preserves_snaplen_truncated_records() {
        let packets = sample_packets();
        let bytes = snaplen_truncated(&packets);
        let (back, stats) = from_bytes_lenient(&bytes).unwrap();
        assert_eq!(back, packets);
        assert_eq!(stats.records_truncated, packets.len() as u64);
        assert!(stats.is_pristine());
    }

    #[test]
    fn lenient_survives_random_garbage_between_records() {
        let packets = sample_packets();
        let clean = to_bytes(&packets).unwrap();
        // Splice 100 bytes of high-valued garbage between records 1 and 2.
        let splice_at = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + packets[0].data.len();
        let mut bytes = clean[..splice_at].to_vec();
        bytes.extend(std::iter::repeat_n(0xEEu8, 100));
        bytes.extend_from_slice(&clean[splice_at..]);
        let (back, stats) = from_bytes_lenient(&bytes).unwrap();
        assert!(back.len() >= 2, "salvaged {} records", back.len());
        assert_eq!(*back.last().unwrap(), packets[2]);
        assert!(stats.resyncs >= 1);
        assert!(stats.bytes_skipped >= 100);
    }

    #[test]
    fn lenient_empty_record_region_is_fine() {
        let (back, stats) = from_bytes_lenient(&to_bytes(&[]).unwrap()).unwrap();
        assert!(back.is_empty());
        assert!(stats.is_pristine());
    }

    #[test]
    fn lenient_still_rejects_bad_magic() {
        let mut bytes = to_bytes(&sample_packets()).unwrap();
        bytes[0] = 0x00;
        assert!(matches!(from_bytes_lenient(&bytes), Err(Error::BadMagic(_))));
    }

    #[test]
    fn strict_reader_does_not_overallocate_on_huge_incl_len() {
        let mut bytes = to_bytes(&sample_packets()).unwrap();
        bytes[GLOBAL_HEADER_LEN + 8..GLOBAL_HEADER_LEN + 12]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        // Must error (EOF), not abort on a 4 GiB allocation.
        assert!(from_bytes(&bytes).is_err());
    }

    // --- Regression tests for the three reader/writer divergence bugs ---

    /// Strict/lenient agreement: a record claiming `incl_len > orig_len`
    /// violates the writer invariant (tcpdump snaplen semantics imply
    /// `orig_len >= incl_len`). Lenient mode skips it, so strict mode must
    /// reject it rather than return a packet set lenient mode disagrees
    /// with.
    #[test]
    fn strict_rejects_incl_len_exceeding_orig_len() {
        let packets = sample_packets();
        let mut bytes = to_bytes(&packets).unwrap();
        // Shrink the first record's orig_len below its incl_len.
        let off = GLOBAL_HEADER_LEN + 12;
        bytes[off..off + 4].copy_from_slice(&1u32.to_le_bytes());
        let strict = from_bytes(&bytes);
        let (lenient, stats) = from_bytes_lenient(&bytes).unwrap();
        // The lenient reader resyncs past the bogus record.
        assert_eq!(lenient.len(), 2, "lenient salvages the intact records");
        assert!(stats.resyncs >= 1);
        // The strict reader must reject the same header the classifier
        // rejects — not silently return a packet set the lenient reader
        // disagrees with.
        assert!(
            matches!(strict, Err(Error::BadRecord { .. })),
            "strict must reject incl_len > orig_len, got {strict:?}"
        );
    }

    /// Salvage-ledger consistency: when corruption is followed only by a
    /// torn record before EOF, the torn region must be attributed to
    /// `torn_tail_bytes` (as it would be without the preceding
    /// corruption), not silently folded into `bytes_skipped`.
    #[test]
    fn eof_scan_attributes_torn_tail() {
        let packets = sample_packets();
        let clean = to_bytes(&packets).unwrap();
        // [record 0][64 bytes of garbage][record 2 torn mid-data]
        let r0_end = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + packets[0].data.len();
        let r2_start = clean.len() - RECORD_HEADER_LEN - packets[2].data.len();
        let mut bytes = clean[..r0_end].to_vec();
        bytes.extend(std::iter::repeat_n(0x00u8, 64));
        bytes.extend_from_slice(&clean[r2_start..clean.len() - 2]);
        let torn_len = (clean.len() - 2 - r2_start) as u64;
        let (back, stats) = from_bytes_lenient(&bytes).unwrap();
        assert_eq!(back.len(), 1, "only record 0 survives");
        assert_eq!(stats.resyncs, 1);
        // The torn record must be attributed to the torn tail (a scan
        // false-positive may start the tail a few bytes early inside the
        // garbage, so >=, with every byte conserved across the two
        // counters), never folded wholesale into bytes_skipped.
        assert!(
            stats.torn_tail_bytes >= torn_len,
            "the torn trailing record must be torn_tail_bytes, not \
             bytes_skipped: {stats:?}"
        );
        assert!(stats.bytes_skipped <= 64, "only the garbage is skipped: {stats:?}");
        assert_eq!(stats.bytes_skipped + stats.torn_tail_bytes, 64 + torn_len);
    }

    /// Timestamp wraparound: a second-splitting cast would wrap silently
    /// for timestamps past `u32::MAX` seconds (year 2106), which chaos
    /// clock-skew can produce; such a packet must be rejected with a
    /// typed error, not round-tripped with a mangled timestamp.
    #[test]
    fn writer_rejects_wrapping_timestamp() {
        let over = (u32::MAX as u64 + 1) * 1_000_000;
        let mut cap = Capture::new();
        let res = cap.push(over, &[0xAAu8; 64]);
        assert!(
            matches!(res, Err(Error::TimestampOutOfRange { .. })),
            "ts past 2106 must be a typed error, got {res:?}"
        );
        assert!(cap.is_empty(), "a rejected record writes nothing");
        assert_eq!(cap.byte_len(), GLOBAL_HEADER_LEN);
        // The largest representable timestamp still round-trips exactly.
        let max = MAX_TS_MICROS;
        let pkt = Packet::new(max, vec![0xAAu8; 64]);
        let back = from_bytes(&to_bytes(&[pkt]).unwrap()).unwrap();
        assert_eq!(back[0].ts_micros, max);
    }

    #[test]
    fn capture_bytes_match_writer_and_roundtrip() {
        let packets = sample_packets();
        let cap = Capture::from_packets(&packets).unwrap();
        // The first record header, encoded by hand: 1.5 s, incl_len =
        // orig_len = frame length, little-endian.
        let len = (packets[0].data.len() as u32).to_le_bytes();
        let header = [1u32.to_le_bytes(), 500_000u32.to_le_bytes(), len, len].concat();
        assert_eq!(
            &cap.as_bytes()[GLOBAL_HEADER_LEN..GLOBAL_HEADER_LEN + RECORD_HEADER_LEN],
            &header[..]
        );
        assert_eq!(cap.record_count(), packets.len());
        assert_eq!(
            cap.frame_bytes(),
            packets.iter().map(|p| p.data.len() as u64).sum::<u64>()
        );
        assert_eq!(cap.to_packets(), packets);
        assert!(Capture::new().is_empty());
        // An orig_len below the frame length is raised to it.
        let mut raised = Capture::new();
        raised.push_record(1_500_000, 0, &packets[0].data).unwrap();
        let first_record = GLOBAL_HEADER_LEN + RECORD_HEADER_LEN + packets[0].data.len();
        assert_eq!(raised.as_bytes(), &cap.as_bytes()[..first_record]);
    }

    #[test]
    fn timestamps_preserved_to_microsecond() {
        let packets = sample_packets();
        let bytes = to_bytes(&packets).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back[0].ts_micros, 1_500_000);
        assert_eq!(back[1].ts_micros, 2_250_000);
        assert_eq!(back[2].ts_micros, 90_000_000_000);
    }
}
