//! Campaign supervision: checkpoint journal, watchdog deadlines,
//! deterministic retry, and the degraded-run coverage manifest.
//!
//! Fleet-scale campaigns run for hours; a crash, kill, or hung
//! experiment must not throw away everything the run already finished.
//! This module provides the survival layer around the pipeline:
//!
//! - **Checkpoint journal** — an append-only, length-prefixed and
//!   checksummed binary log of completed per-work-unit accumulator
//!   deltas ([`UnitDelta`]), written at unit-fold boundaries by
//!   `Pipeline::run_campaign_supervised`. Resuming replays finished
//!   units from disk and re-runs only the remainder; because every
//!   pipeline accumulator merges associatively and commutatively (the
//!   same property that makes every worker count byte-identical), the
//!   resumed report is byte-identical to an uninterrupted run.
//! - **Watchdog deadlines** — a monitor thread ([`Watchdog`]) with a
//!   per-experiment soft deadline. Whether a stalled experiment is
//!   quarantined is decided by comparing the injected stall *value*
//!   against the deadline (never by racing wall clocks), so the
//!   quarantine set is byte-identical at any worker count; the watchdog's
//!   job is to bound how long the stalled worker actually sleeps.
//! - **Deterministic retry** — transient failures (injected panics,
//!   deadline-breaching stalls, total salvage loss) get up to N
//!   re-attempts. Every attempt's fault draws are keyed by
//!   `(seed, experiment identity, attempt)`, so retry schedules are
//!   seed-stable across worker counts, and every attempt is folded into the
//!   extended `ingest.*` ledger (see `crate::ingest`).
//! - **Coverage manifest** — [`Coverage`] counts completed / retried /
//!   quarantined / abandoned experiments per (lab × device) and flags
//!   degraded runs; it rides in the pipeline report's `"coverage"` key
//!   and is mirrored into the observability registry.
//!
//! # Journal format (v3)
//!
//! ```text
//! header:  magic "IOTJNL03" (8 bytes)
//!          fingerprint u64 LE   — digest of campaign config + fault
//!                                 plan + supervision knobs
//!          total_units u32 LE   — work units in the campaign grid
//!          total_units × u64 LE — per-unit identity digests, in grid
//!                                 order (FNV-1a of "site/device")
//! record:  marker 0xA5 (1 byte)
//!          len u32 LE           — payload length
//!          crc u64 LE           — FNV-1a over the payload
//!          payload              — one encoded UnitDelta
//! record:  marker 0xA6 (1 byte)  — compaction checkpoint
//!          len u32 LE / crc u64 LE as above
//!          payload              — u32 delta count, then per delta a
//!                                 u32 length + encoded UnitDelta
//! ```
//!
//! Records are self-delimiting, so a journal torn anywhere (a SIGKILL
//! mid-write) salvages exactly its clean prefix: [`read_journal`] stops
//! at the first bad marker, length, checksum, or undecodable payload
//! and reports what it dropped ([`JournalSalvage`]). Header-level
//! problems (wrong magic, short file) are typed errors instead — there
//! is nothing safe to replay.
//!
//! ## Rotation, compaction, and grid growth
//!
//! Multi-day runs cap per-file size with
//! [`SupervisorConfig::journal_roll_bytes`]: when an append would push
//! the active file past the threshold, the writer renames it to
//! `<journal>.N` (N counts up, never reused) and starts a fresh
//! headered file at the original path. [`read_journal_set`] replays the
//! rolled segments oldest-first and the active file last, first
//! occurrence of a unit winning, each segment salvaged independently.
//!
//! Resume always *compacts*: the replayed deltas are rewritten into a
//! fresh single journal as checkpoint records (marker `0xA6`, chunked
//! well under [`MAX_RECORD_BYTES`]) and the rolled segments are
//! deleted, so journal disk usage is bounded by live data, not run
//! length. Because the header carries per-unit *identities* rather than
//! a bare count, a resumed campaign may run against a **grown** grid: a
//! journaled unit is matched to its current index by identity digest
//! (units added to the catalog simply run fresh), and only a journaled
//! identity missing from the current grid refuses resume
//! ([`JournalError::ForeignUnit`]).

use crate::destinations::DestinationAnalysis;
use crate::encryption::EncryptionAnalysis;
use crate::ingest::IngestStats;
use crate::pii::{PiiFinding, PiiFindingKind};
use iot_chaos::FaultPlan;
use iot_core::json::{Json, ToJson};
use iot_geodb::geo::Country;
use iot_geodb::org::ORGS;
use iot_geodb::party::PartyType;
use iot_testbed::lab::LabSite;
use iot_testbed::schedule::CampaignConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Journal magic, versioned: bump the trailing digits on any codec
/// change so stale journals fail loudly instead of decoding garbage.
/// v2 added the per-unit identity table to the header; v3 added Table
/// 7's per-experiment samples to the encryption delta.
pub const JOURNAL_MAGIC: &[u8; 8] = b"IOTJNL03";

/// Record start marker; a cheap first line of defense against torn or
/// misaligned journals before the checksum is even consulted.
const RECORD_MARKER: u8 = 0xA5;

/// Marker of a compaction checkpoint record: many unit deltas folded
/// into one framed payload, written when a resume rewrites its replayed
/// prefix into a fresh journal.
const CHECKPOINT_MARKER: u8 = 0xA6;

/// Soft ceiling on one checkpoint record's payload; deltas are chunked
/// across several checkpoint records to stay comfortably under
/// [`MAX_RECORD_BYTES`] even at full campaign scale.
const CHECKPOINT_CHUNK_BYTES: usize = 4 * 1024 * 1024;

/// Upper bound on a single record's payload. A quick-scale unit delta
/// is a few KiB; anything claiming more than this is corruption, not
/// data.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the journal's record checksum and the
/// header fingerprint digest.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Byte codec primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for journal payloads.
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }
}

/// Decode failure inside a journal payload. Carries a static reason —
/// enough for salvage accounting; the byte offset of the failing record
/// is reported by [`read_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeErr(pub &'static str);

impl fmt::Display for DecodeErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal decode: {}", self.0)
    }
}

impl std::error::Error for DecodeErr {}

/// Bounds-checked little-endian reader over a journal payload. Every
/// read returns `Err` instead of panicking on truncation, which is what
/// lets the fuzz suite feed it arbitrary bytes.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeErr> {
        let end = self.pos.checked_add(n).ok_or(DecodeErr("length overflow"))?;
        if end > self.buf.len() {
            return Err(DecodeErr("truncated payload"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeErr> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, DecodeErr> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeErr("invalid bool")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeErr> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeErr> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn str(&mut self) -> Result<String, DecodeErr> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeErr("invalid utf-8"))
    }

    pub(crate) fn opt_str(&mut self) -> Result<Option<String>, DecodeErr> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(DecodeErr("invalid option tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Enum <-> byte mappings (re-interning &'static str on decode)
// ---------------------------------------------------------------------------

pub(crate) fn site_to_u8(site: LabSite) -> u8 {
    match site {
        LabSite::Us => 0,
        LabSite::Uk => 1,
    }
}

pub(crate) fn site_from_u8(v: u8) -> Result<LabSite, DecodeErr> {
    match v {
        0 => Ok(LabSite::Us),
        1 => Ok(LabSite::Uk),
        _ => Err(DecodeErr("invalid lab site")),
    }
}

pub(crate) fn party_to_u8(p: PartyType) -> u8 {
    match p {
        PartyType::First => 0,
        PartyType::Support => 1,
        PartyType::Third => 2,
    }
}

pub(crate) fn party_from_u8(v: u8) -> Result<PartyType, DecodeErr> {
    match v {
        0 => Ok(PartyType::First),
        1 => Ok(PartyType::Support),
        2 => Ok(PartyType::Third),
        _ => Err(DecodeErr("invalid party type")),
    }
}

pub(crate) fn country_to_code(c: Country) -> &'static str {
    c.code()
}

pub(crate) fn country_from_code(code: &str) -> Result<Country, DecodeErr> {
    for &c in Country::all() {
        if c.code() == code {
            return Ok(c);
        }
    }
    if code == Country::Other.code() {
        return Ok(Country::Other);
    }
    Err(DecodeErr("unknown country code"))
}

/// Re-interns a device name against the catalog — device names inside
/// accumulators are `&'static str` pointing at catalog specs.
pub(crate) fn intern_device(name: &str) -> Result<&'static str, DecodeErr> {
    iot_testbed::catalog::by_name(name)
        .map(|spec| spec.name)
        .ok_or(DecodeErr("unknown device name"))
}

/// Re-interns an organization name against the geodb registry.
pub(crate) fn intern_org(name: &str) -> Result<&'static str, DecodeErr> {
    ORGS.iter()
        .map(|o| o.name)
        .find(|n| *n == name)
        .ok_or(DecodeErr("unknown organization"))
}

/// Re-interns a PII encoding label.
pub(crate) fn intern_encoding(name: &str) -> Result<&'static str, DecodeErr> {
    match name {
        "plain" => Ok("plain"),
        "hex" => Ok("hex"),
        "base64" => Ok("base64"),
        _ => Err(DecodeErr("unknown pii encoding")),
    }
}

/// Re-interns a stage-error name against the known set.
pub(crate) fn intern_stage(name: &str) -> Result<&'static str, DecodeErr> {
    match name {
        "salvage" => Ok("salvage"),
        "salvage_loss" => Ok("salvage_loss"),
        "flows_parse" => Ok("flows_parse"),
        "ingest_panic" => Ok("ingest_panic"),
        "stall_deadline" => Ok("stall_deadline"),
        "worker_panic" => Ok("worker_panic"),
        _ => Err(DecodeErr("unknown stage error")),
    }
}

fn kind_to_u8(k: PiiFindingKind) -> u8 {
    match k {
        PiiFindingKind::MacAddress => 0,
        PiiFindingKind::DeviceId => 1,
        PiiFindingKind::Geolocation => 2,
        PiiFindingKind::DeviceName => 3,
    }
}

fn kind_from_u8(v: u8) -> Result<PiiFindingKind, DecodeErr> {
    match v {
        0 => Ok(PiiFindingKind::MacAddress),
        1 => Ok(PiiFindingKind::DeviceId),
        2 => Ok(PiiFindingKind::Geolocation),
        3 => Ok(PiiFindingKind::DeviceName),
        _ => Err(DecodeErr("invalid pii kind")),
    }
}

// ---------------------------------------------------------------------------
// Coverage manifest
// ---------------------------------------------------------------------------

/// Per-(lab × device) experiment outcome counters — one cell of the
/// report's coverage manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCell {
    /// Experiments ingested on their first attempt.
    pub completed: u64,
    /// Experiments ingested after at least one retry.
    pub retried: u64,
    /// Experiments quarantined with no retry budget spent.
    pub quarantined: u64,
    /// Experiments abandoned after exhausting every retry.
    pub abandoned: u64,
}

impl CoverageCell {
    /// Folds another cell into this one (plain addition).
    pub fn merge(&mut self, other: &CoverageCell) {
        self.completed += other.completed;
        self.retried += other.retried;
        self.quarantined += other.quarantined;
        self.abandoned += other.abandoned;
    }

    /// True when no experiment in this cell failed permanently.
    pub fn is_full(&self) -> bool {
        self.quarantined == 0 && self.abandoned == 0
    }
}

impl ToJson for CoverageCell {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("completed", self.completed.to_json());
        j.set("retried", self.retried.to_json());
        j.set("quarantined", self.quarantined.to_json());
        j.set("abandoned", self.abandoned.to_json());
        j
    }
}

/// The coverage manifest: what actually ran, per (lab × device), plus a
/// run-level degraded flag. Keys are `(site, device)`; the JSON emits
/// them as `"US/Echo Dot"`-style strings in sorted order, so coverage
/// bytes are deterministic like every other report member. Merging is
/// per-cell addition — associative and commutative, so the manifest
/// survives sharding, journal replay, and resume unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    cells: BTreeMap<(LabSite, &'static str), CoverageCell>,
}

/// How one experiment ended, for coverage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageOutcome {
    /// Ingested on the first attempt.
    Completed,
    /// Ingested after at least one retry.
    Retried,
    /// Failed permanently with no retries spent.
    Quarantined,
    /// Failed permanently after exhausting retries.
    Abandoned,
}

impl Coverage {
    /// An empty manifest.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records one experiment outcome.
    pub fn record(&mut self, site: LabSite, device: &'static str, outcome: CoverageOutcome) {
        let cell = self.cells.entry((site, device)).or_default();
        match outcome {
            CoverageOutcome::Completed => cell.completed += 1,
            CoverageOutcome::Retried => cell.retried += 1,
            CoverageOutcome::Quarantined => cell.quarantined += 1,
            CoverageOutcome::Abandoned => cell.abandoned += 1,
        }
    }

    /// Folds another manifest into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (key, cell) in &other.cells {
            self.cells.entry(*key).or_default().merge(cell);
        }
    }

    /// The cells, sorted by (site, device).
    pub fn cells(&self) -> impl Iterator<Item = (&(LabSite, &'static str), &CoverageCell)> {
        self.cells.iter()
    }

    /// Sum over every cell.
    pub fn totals(&self) -> CoverageCell {
        let mut t = CoverageCell::default();
        for cell in self.cells.values() {
            t.merge(cell);
        }
        t
    }

    /// True when any experiment failed permanently — the report-level
    /// degraded-run flag.
    pub fn is_degraded(&self) -> bool {
        !self.totals().is_full()
    }

    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.cells.len() as u32);
        for ((site, device), cell) in &self.cells {
            w.u8(site_to_u8(*site));
            w.str(device);
            w.u64(cell.completed);
            w.u64(cell.retried);
            w.u64(cell.quarantined);
            w.u64(cell.abandoned);
        }
    }

    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Coverage, DecodeErr> {
        let n = r.u32()?;
        let mut cov = Coverage::new();
        for _ in 0..n {
            let site = site_from_u8(r.u8()?)?;
            let device = intern_device(&r.str()?)?;
            let cell = CoverageCell {
                completed: r.u64()?,
                retried: r.u64()?,
                quarantined: r.u64()?,
                abandoned: r.u64()?,
            };
            cov.cells.entry((site, device)).or_default().merge(&cell);
        }
        Ok(cov)
    }
}

impl ToJson for Coverage {
    fn to_json(&self) -> Json {
        let mut units = Json::obj();
        for ((site, device), cell) in &self.cells {
            units.set(&format!("{}/{}", site.name(), device), cell.to_json());
        }
        let mut j = Json::obj();
        j.set("degraded", self.is_degraded().to_json());
        j.set("units", units);
        j
    }
}

// ---------------------------------------------------------------------------
// UnitDelta: the journal's unit of replay
// ---------------------------------------------------------------------------

/// Everything one completed work unit (one lab × device slot of the
/// campaign grid) contributed to the pipeline's result-bearing
/// accumulators. Journaled after the unit finishes; replayed by merging
/// into a fresh pipeline, which is exactly the fold a live unit goes
/// through — so replay cannot change the report.
///
/// Deliberately *not* included: worker-local caches (label interning,
/// compiled PII patterns, protocol memos) and the observability
/// registry. The caches are result-neutral by construction; metrics
/// describe work a process actually performed, so a resumed process
/// reports only its own.
pub struct UnitDelta {
    /// Work-unit index in the campaign grid (`0..unit_count`).
    pub unit: u32,
    /// Experiments successfully ingested by this unit.
    pub experiments: u64,
    /// The unit's slice of the ingest ledger.
    pub ingest: IngestStats,
    /// The unit's slice of the coverage manifest.
    pub coverage: Coverage,
    /// Destination observations.
    pub destinations: DestinationAnalysis,
    /// Encryption classifications.
    pub encryption: EncryptionAnalysis,
    /// PII findings, in the unit's deterministic ingestion order.
    pub pii: Vec<PiiFinding>,
}

fn encode_ingest(w: &mut ByteWriter, s: &IngestStats) {
    for v in [
        s.packets_generated,
        s.packets_duplicated,
        s.packets_dropped,
        s.packets_lost,
        s.packets_ingested,
        s.packets_quarantined,
        s.packets_truncated,
        s.packets_unparseable,
        s.records_corrupted,
        s.salvage_resyncs,
        s.salvage_bytes_skipped,
        s.torn_tail_bytes,
        s.experiments_ingested,
        s.experiments_quarantined,
        s.shards_quarantined,
        s.packets_reoffered,
        s.packets_retried,
        s.retry_attempts,
        s.experiments_retried,
        s.experiments_abandoned,
    ] {
        w.u64(v);
    }
    w.u32(s.stage_errors.len() as u32);
    for (stage, n) in &s.stage_errors {
        w.str(stage);
        w.u64(*n);
    }
}

fn decode_ingest(r: &mut ByteReader<'_>) -> Result<IngestStats, DecodeErr> {
    let mut s = IngestStats {
        packets_generated: r.u64()?,
        packets_duplicated: r.u64()?,
        packets_dropped: r.u64()?,
        packets_lost: r.u64()?,
        packets_ingested: r.u64()?,
        packets_quarantined: r.u64()?,
        packets_truncated: r.u64()?,
        packets_unparseable: r.u64()?,
        records_corrupted: r.u64()?,
        salvage_resyncs: r.u64()?,
        salvage_bytes_skipped: r.u64()?,
        torn_tail_bytes: r.u64()?,
        experiments_ingested: r.u64()?,
        experiments_quarantined: r.u64()?,
        shards_quarantined: r.u64()?,
        packets_reoffered: r.u64()?,
        packets_retried: r.u64()?,
        retry_attempts: r.u64()?,
        experiments_retried: r.u64()?,
        experiments_abandoned: r.u64()?,
        stage_errors: BTreeMap::new(),
    };
    let n = r.u32()?;
    for _ in 0..n {
        let stage = intern_stage(&r.str()?)?;
        let count = r.u64()?;
        *s.stage_errors.entry(stage).or_insert(0) += count;
    }
    Ok(s)
}

fn encode_finding(w: &mut ByteWriter, f: &PiiFinding) {
    w.str(&f.device_name);
    w.u8(site_to_u8(f.site));
    w.bool(f.vpn);
    w.u8(kind_to_u8(f.kind));
    w.str(f.encoding);
    w.opt_str(f.domain.as_deref());
    w.opt_str(f.org);
    match f.party {
        Some(p) => {
            w.u8(1);
            w.u8(party_to_u8(p));
        }
        None => w.u8(0),
    }
    w.str(&f.experiment_label);
}

fn decode_finding(r: &mut ByteReader<'_>) -> Result<PiiFinding, DecodeErr> {
    let device_name = r.str()?;
    let site = site_from_u8(r.u8()?)?;
    let vpn = r.bool()?;
    let kind = kind_from_u8(r.u8()?)?;
    let encoding = intern_encoding(&r.str()?)?;
    let domain = r.opt_str()?;
    let org = match r.opt_str()? {
        Some(name) => Some(intern_org(&name)?),
        None => None,
    };
    let party = match r.u8()? {
        0 => None,
        1 => Some(party_from_u8(r.u8()?)?),
        _ => return Err(DecodeErr("invalid option tag")),
    };
    let experiment_label = r.str()?;
    Ok(PiiFinding {
        device_name,
        site,
        vpn,
        kind,
        encoding,
        domain,
        org,
        party,
        experiment_label,
    })
}

impl UnitDelta {
    /// An empty delta for unit `unit`, ready to accumulate into.
    pub fn new(unit: u32) -> Self {
        UnitDelta {
            unit,
            experiments: 0,
            ingest: IngestStats::default(),
            coverage: Coverage::new(),
            destinations: DestinationAnalysis::new(),
            encryption: EncryptionAnalysis::default(),
            pii: Vec::new(),
        }
    }

    /// Serializes the delta to journal payload bytes. Accumulator map
    /// entries are emitted in sorted key order, so the same delta always
    /// produces the same bytes regardless of hash-map iteration order.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.unit);
        w.u64(self.experiments);
        encode_ingest(&mut w, &self.ingest);
        self.coverage.encode(&mut w);
        self.destinations.encode_journal(&mut w);
        self.encryption.encode_journal(&mut w);
        w.u32(self.pii.len() as u32);
        for f in &self.pii {
            encode_finding(&mut w, f);
        }
        w.into_bytes()
    }

    /// Decodes a delta from journal payload bytes. Never panics:
    /// truncated, oversized, or internally inconsistent payloads return
    /// a typed [`DecodeErr`]. Trailing bytes after a well-formed delta
    /// are rejected too — a length that does not match its payload is
    /// corruption.
    pub fn decode(bytes: &[u8]) -> Result<UnitDelta, DecodeErr> {
        let mut r = ByteReader::new(bytes);
        let unit = r.u32()?;
        let experiments = r.u64()?;
        let ingest = decode_ingest(&mut r)?;
        let coverage = Coverage::decode(&mut r)?;
        let destinations = DestinationAnalysis::decode_journal(&mut r)?;
        let encryption = EncryptionAnalysis::decode_journal(&mut r)?;
        let n = r.u32()?;
        if n > MAX_RECORD_BYTES {
            return Err(DecodeErr("finding count implausible"));
        }
        let mut pii = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            pii.push(decode_finding(&mut r)?);
        }
        if !r.done() {
            return Err(DecodeErr("trailing bytes"));
        }
        Ok(UnitDelta {
            unit,
            experiments,
            ingest,
            coverage,
            destinations,
            encryption,
            pii,
        })
    }
}

// ---------------------------------------------------------------------------
// Journal I/O
// ---------------------------------------------------------------------------

/// Why a journal could not be opened for replay. Record-level damage is
/// *not* an error — it is salvaged (see [`JournalSalvage`]); these are
/// the header-level conditions with nothing safe to replay, plus the
/// mismatches a resuming driver must refuse.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The file is shorter than a journal header.
    TruncatedHeader,
    /// The journal was written by a campaign with a different
    /// configuration, fault plan, or supervision knobs.
    ConfigMismatch {
        /// Fingerprint the resuming run computed.
        expected: u64,
        /// Fingerprint stored in the journal header.
        found: u64,
    },
    /// The journal records a work unit whose identity digest does not
    /// exist in the resuming campaign's grid — the journal belongs to a
    /// grid this campaign is not a superset of.
    ForeignUnit {
        /// The unmatched identity digest from the journal header.
        identity: u64,
    },
    /// A rolled segment's header disagrees with the first segment's —
    /// files from different runs were mixed under one journal name.
    SegmentMismatch {
        /// 1-based index of the offending segment file.
        segment: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::BadMagic => write!(f, "not a campaign journal (bad magic)"),
            JournalError::TruncatedHeader => write!(f, "journal shorter than its header"),
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            JournalError::ForeignUnit { identity } => write!(
                f,
                "journal records a work unit (identity {identity:#018x}) \
                 absent from this campaign's grid"
            ),
            JournalError::SegmentMismatch { segment } => write!(
                f,
                "rolled journal segment {segment} belongs to a different run"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`read_journal`] dropped while salvaging a damaged journal.
/// All-zero for a cleanly closed journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalSalvage {
    /// Records decoded and kept.
    pub records: u64,
    /// Bytes past the clean prefix that were discarded.
    pub dropped_bytes: u64,
    /// Records dropped for a bad marker, length, checksum, or payload.
    pub corrupt_dropped: u64,
    /// Duplicate unit records ignored (first occurrence wins).
    pub duplicate_units: u64,
}

/// A journal successfully opened for replay.
pub struct JournalContents {
    /// Header fingerprint (campaign config + fault plan + knobs).
    pub fingerprint: u64,
    /// Header unit count.
    pub total_units: u32,
    /// Per-unit identity digests from the header, in the writing
    /// campaign's grid order — `deltas[i].unit` indexes this table.
    pub identities: Vec<u64>,
    /// Decoded unit deltas, deduplicated (first occurrence per unit),
    /// in journal order.
    pub deltas: Vec<UnitDelta>,
    /// Salvage accounting for the read.
    pub salvage: JournalSalvage,
    /// Byte length of the clean prefix of the *active* file — the
    /// boundary at which a damaged tail was amputated.
    pub clean_len: u64,
}

/// Fixed header prefix: magic + fingerprint + unit count. The identity
/// table (8 bytes per unit) follows.
const HEADER_FIXED_LEN: usize = 8 + 8 + 4;

fn header_len(total_units: u32) -> usize {
    HEADER_FIXED_LEN + 8 * total_units as usize
}

/// Identity digest of one work unit: FNV-1a over the site name and
/// device name (length-prefixed, so `("a", "bc")` and `("ab", "c")`
/// cannot collide by concatenation). Stable across catalog growth —
/// the property that lets a resumed campaign absorb new devices.
pub fn unit_identity(site: &str, device: &str) -> u64 {
    let mut w = ByteWriter::new();
    w.str(site);
    w.str(device);
    fnv1a(&w.into_bytes())
}

/// The identity digests of every work unit in `campaign`'s grid, in
/// grid (lab × device) order — index `i` is work unit `i`.
pub fn unit_identities(campaign: &iot_testbed::schedule::Campaign) -> Vec<u64> {
    let mut ids = Vec::new();
    for lab in campaign.labs() {
        for device in &lab.devices {
            ids.push(unit_identity(lab.site.name(), device.spec().name));
        }
    }
    ids
}

/// Reads and salvages a checkpoint journal. Header problems are typed
/// errors; record-level damage ends the read at the last clean record
/// and is reported in [`JournalContents::salvage`]. Never panics on any
/// input — the property the fuzz suite pins.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_journal_bytes(&bytes)
}

/// Decodes the deltas inside a checkpoint payload: a u32 count, then
/// per delta a u32 length + encoded bytes.
fn decode_checkpoint(payload: &[u8]) -> Result<Vec<UnitDelta>, DecodeErr> {
    let mut r = ByteReader::new(payload);
    let n = r.u32()?;
    if n > MAX_RECORD_BYTES {
        return Err(DecodeErr("checkpoint count implausible"));
    }
    let mut deltas = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        let len = r.u32()? as usize;
        let bytes = r.take(len)?;
        deltas.push(UnitDelta::decode(bytes)?);
    }
    if !r.done() {
        return Err(DecodeErr("trailing bytes"));
    }
    Ok(deltas)
}

/// [`read_journal`] over an in-memory image (the fuzz-suite entry
/// point; also used by the file-backed reader).
pub fn read_journal_bytes(bytes: &[u8]) -> Result<JournalContents, JournalError> {
    if bytes.len() >= 8 && &bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    if bytes.len() < HEADER_FIXED_LEN {
        return Err(JournalError::TruncatedHeader);
    }
    let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().expect("sized slice"));
    let total_units = u32::from_le_bytes(bytes[16..20].try_into().expect("sized slice"));
    // The identity table's size is header-claimed; bound it by the bytes
    // actually present so a corrupt count cannot drive the allocation.
    let header = header_len(total_units);
    if bytes.len() < header {
        return Err(JournalError::TruncatedHeader);
    }
    let mut identities = Vec::with_capacity(total_units as usize);
    for i in 0..total_units as usize {
        let at = HEADER_FIXED_LEN + 8 * i;
        identities.push(u64::from_le_bytes(
            bytes[at..at + 8].try_into().expect("sized slice"),
        ));
    }
    let mut deltas: Vec<UnitDelta> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut salvage = JournalSalvage::default();
    let mut pos = header;
    loop {
        if pos == bytes.len() {
            break; // cleanly closed journal
        }
        let rest = &bytes[pos..];
        // Record framing: marker + len + crc + payload. Any framing or
        // integrity failure ends the clean prefix right here.
        if rest.len() < 1 + 4 + 8
            || (rest[0] != RECORD_MARKER && rest[0] != CHECKPOINT_MARKER)
        {
            salvage.corrupt_dropped += 1;
            break;
        }
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("sized slice"));
        if len > MAX_RECORD_BYTES || (len as usize) > rest.len() - 13 {
            salvage.corrupt_dropped += 1;
            break;
        }
        let crc = u64::from_le_bytes(rest[5..13].try_into().expect("sized slice"));
        let payload = &rest[13..13 + len as usize];
        if fnv1a(payload) != crc {
            salvage.corrupt_dropped += 1;
            break;
        }
        let decoded = if rest[0] == RECORD_MARKER {
            UnitDelta::decode(payload).map(|d| vec![d])
        } else {
            decode_checkpoint(payload)
        };
        let record_deltas = match decoded {
            Ok(d) => d,
            Err(_) => {
                salvage.corrupt_dropped += 1;
                break;
            }
        };
        if record_deltas.iter().any(|d| d.unit >= total_units) {
            salvage.corrupt_dropped += 1;
            break;
        }
        pos += 13 + len as usize;
        for delta in record_deltas {
            if seen.insert(delta.unit) {
                salvage.records += 1;
                deltas.push(delta);
            } else {
                salvage.duplicate_units += 1;
            }
        }
    }
    salvage.dropped_bytes = (bytes.len() - pos) as u64;
    Ok(JournalContents {
        fingerprint,
        total_units,
        identities,
        deltas,
        salvage,
        clean_len: pos as u64,
    })
}

/// The path of rolled segment `n` of `path`: `<path>.<n>`.
fn segment_path(path: &Path, n: u64) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{n}"));
    PathBuf::from(name)
}

/// The rolled segments of `path` that exist on disk, oldest first
/// (`<path>.1`, `<path>.2`, …, stopping at the first gap).
pub fn rolled_segments(path: &Path) -> Vec<PathBuf> {
    let mut segments = Vec::new();
    for n in 1.. {
        let seg = segment_path(path, n);
        if !seg.exists() {
            break;
        }
        segments.push(seg);
    }
    segments
}

/// Reads a rotated journal *set*: every rolled segment oldest-first,
/// then the active file, each salvaged independently. All segments must
/// share the first segment's fingerprint and identity table; the first
/// occurrence of a unit across the set wins (later re-appends count as
/// `duplicate_units`). `clean_len` reports the active file's clean
/// prefix.
pub fn read_journal_set(path: &Path) -> Result<JournalContents, JournalError> {
    let mut files = rolled_segments(path);
    files.push(path.to_path_buf());
    let mut merged: Option<JournalContents> = None;
    let mut seen = std::collections::BTreeSet::new();
    for (i, file) in files.iter().enumerate() {
        let part = read_journal(file)?;
        match &mut merged {
            None => {
                for d in &part.deltas {
                    seen.insert(d.unit);
                }
                merged = Some(part);
            }
            Some(m) => {
                if part.fingerprint != m.fingerprint {
                    return Err(JournalError::ConfigMismatch {
                        expected: m.fingerprint,
                        found: part.fingerprint,
                    });
                }
                if part.identities != m.identities {
                    return Err(JournalError::SegmentMismatch { segment: i as u64 + 1 });
                }
                m.salvage.dropped_bytes += part.salvage.dropped_bytes;
                m.salvage.corrupt_dropped += part.salvage.corrupt_dropped;
                m.salvage.duplicate_units += part.salvage.duplicate_units;
                for delta in part.deltas {
                    if seen.insert(delta.unit) {
                        m.salvage.records += 1;
                        m.deltas.push(delta);
                    } else {
                        m.salvage.duplicate_units += 1;
                    }
                }
                m.clean_len = part.clean_len;
            }
        }
    }
    Ok(merged.expect("at least the active path is always read"))
}

/// Append-side handle on a checkpoint journal. Every append is written
/// and flushed as one record, so a SIGKILL between appends loses at
/// most the record in flight — which salvage then amputates. With a
/// roll threshold set, the writer rotates the active file into a
/// numbered segment before an append would push it past the threshold.
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    fingerprint: u64,
    identities: Vec<u64>,
    roll_bytes: Option<u64>,
    written: u64,
}

fn write_header(path: &Path, fingerprint: u64, identities: &[u64]) -> std::io::Result<File> {
    let mut file = File::create(path)?;
    file.write_all(JOURNAL_MAGIC)?;
    file.write_all(&fingerprint.to_le_bytes())?;
    file.write_all(&(identities.len() as u32).to_le_bytes())?;
    for id in identities {
        file.write_all(&id.to_le_bytes())?;
    }
    file.flush()?;
    Ok(file)
}

impl JournalWriter {
    /// Creates (or truncates) a journal and writes its header: magic,
    /// fingerprint, and the grid's identity table. `roll_bytes` caps the
    /// active file's size; `None` never rotates.
    pub fn create(
        path: &Path,
        fingerprint: u64,
        identities: &[u64],
        roll_bytes: Option<u64>,
    ) -> std::io::Result<Self> {
        let file = write_header(path, fingerprint, identities)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            fingerprint,
            identities: identities.to_vec(),
            roll_bytes,
            written: header_len(identities.len() as u32) as u64,
        })
    }

    /// Rotates the active file into the next free numbered segment and
    /// starts a fresh headered file at the journal path. Numbering
    /// continues past any existing segments (a kill between rename and
    /// re-create must never clobber a previous segment).
    fn roll(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        let next = rolled_segments(&self.path).len() as u64 + 1;
        std::fs::rename(&self.path, segment_path(&self.path, next))?;
        self.file = write_header(&self.path, self.fingerprint, &self.identities)?;
        self.written = header_len(self.identities.len() as u32) as u64;
        Ok(())
    }

    fn write_record(&mut self, marker: u8, payload: &[u8]) -> std::io::Result<()> {
        let frame_len = (13 + payload.len()) as u64;
        if let Some(limit) = self.roll_bytes {
            // Roll only when the file already holds at least one record:
            // an oversized single record still lands somewhere.
            if self.written > header_len(self.identities.len() as u32) as u64
                && self.written + frame_len > limit
            {
                self.roll()?;
            }
        }
        let mut frame = Vec::with_capacity(13 + payload.len());
        frame.push(marker);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.written += frame_len;
        Ok(())
    }

    /// Appends one unit delta as a framed, checksummed record.
    pub fn append(&mut self, delta: &UnitDelta) -> std::io::Result<()> {
        let payload = delta.encode();
        self.write_record(RECORD_MARKER, &payload)
    }

    /// Writes `deltas` as compaction checkpoint records, chunked to stay
    /// well under the record size cap. Called by resume after replay to
    /// fold a whole journal set back into the fresh active file.
    pub fn checkpoint(&mut self, deltas: &[UnitDelta]) -> std::io::Result<()> {
        let mut chunk: Vec<u8> = Vec::new();
        let mut count: u32 = 0;
        let flush_chunk =
            |w: &mut Self, chunk: &mut Vec<u8>, count: &mut u32| -> std::io::Result<()> {
                if *count == 0 {
                    return Ok(());
                }
                let mut payload = Vec::with_capacity(4 + chunk.len());
                payload.extend_from_slice(&count.to_le_bytes());
                payload.extend_from_slice(chunk);
                w.write_record(CHECKPOINT_MARKER, &payload)?;
                chunk.clear();
                *count = 0;
                Ok(())
            };
        for delta in deltas {
            let bytes = delta.encode();
            if !chunk.is_empty() && chunk.len() + 4 + bytes.len() > CHECKPOINT_CHUNK_BYTES {
                flush_chunk(self, &mut chunk, &mut count)?;
            }
            chunk.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            chunk.extend_from_slice(&bytes);
            count += 1;
        }
        flush_chunk(self, &mut chunk, &mut count)
    }
}

/// Deletes the rolled segments of `path` — called after a resume has
/// compacted their contents into the fresh active journal.
pub fn remove_rolled_segments(path: &Path) -> std::io::Result<()> {
    for seg in rolled_segments(path) {
        std::fs::remove_file(seg)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Digest of everything that determines a campaign's *result bytes*:
/// the campaign config, the fault plan, and the supervision knobs that
/// change what the ledger records (deadline, retry budget). Knobs that
/// are report-neutral (throttle, journal path and roll size) are
/// deliberately excluded so operators can tune them between resume
/// sessions.
pub fn campaign_fingerprint(
    config: &CampaignConfig,
    fault: Option<&FaultPlan>,
    deadline_micros: Option<u64>,
    max_retries: u32,
) -> u64 {
    let mut w = ByteWriter::new();
    w.u32(config.automated_reps);
    w.u32(config.manual_reps);
    w.u32(config.power_reps);
    w.u64(config.idle_hours.to_bits());
    w.bool(config.include_vpn);
    match fault {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.u64(p.seed);
            for rate in [
                p.drop_rate,
                p.burst_rate,
                p.truncate_rate,
                p.duplicate_rate,
                p.reorder_rate,
                p.bitflip_rate,
                p.skew_rate,
                p.corrupt_header_rate,
                p.torn_tail_rate,
                p.panic_rate,
                p.stall_rate,
            ] {
                w.u64(rate.to_bits());
            }
            w.u32(p.burst_len.0);
            w.u32(p.burst_len.1);
            w.u64(p.snaplen as u64);
            w.u64(p.reorder_window as u64);
            w.u64(p.skew_max_micros);
            w.u64(p.stall_max_micros);
            w.bool(p.rep_invariant_fault_keys);
        }
    }
    match deadline_micros {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d);
        }
    }
    w.u32(max_retries);
    fnv1a(&w.into_bytes())
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

struct WatchSlot {
    busy: AtomicBool,
    started_micros: AtomicU64,
    cancel: AtomicBool,
}

struct WatchInner {
    slots: Vec<WatchSlot>,
    epoch: Instant,
    stop: AtomicBool,
    deadline: Duration,
    cancelled: AtomicU64,
}

/// Per-experiment soft-deadline monitor. One slot per worker; workers
/// stamp a slot busy when an experiment starts and clear it when it
/// ends. The monitor thread wakes a few times per deadline period and
/// raises the slot's cancel flag once an experiment has been busy past
/// the deadline — a stalled worker sleeping in
/// [`WatchHandle::wait_cancelled`] notices within one watchdog tick and
/// gives up on the experiment instead of wedging the pool.
///
/// The watchdog *never* decides report contents: whether an injected
/// stall breaches the deadline is a pure value comparison in the ingest
/// path. In safe Rust a genuinely runaway computation (not an injected
/// sleep) cannot be killed from outside; the watchdog still flags it
/// (`cancelled` count, surfaced as a gauge) so operators see the wedge.
pub struct Watchdog {
    inner: Arc<WatchInner>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts a monitor over `workers` slots with the given deadline.
    pub fn new(workers: usize, deadline: Duration) -> Self {
        let inner = Arc::new(WatchInner {
            slots: (0..workers.max(1))
                .map(|_| WatchSlot {
                    busy: AtomicBool::new(false),
                    started_micros: AtomicU64::new(0),
                    cancel: AtomicBool::new(false),
                })
                .collect(),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            deadline,
            cancelled: AtomicU64::new(0),
        });
        let tick = (deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                while !inner.stop.load(Ordering::Acquire) {
                    let now = inner.epoch.elapsed().as_micros() as u64;
                    for slot in &inner.slots {
                        if slot.busy.load(Ordering::Acquire)
                            && !slot.cancel.load(Ordering::Acquire)
                        {
                            let started = slot.started_micros.load(Ordering::Acquire);
                            if now.saturating_sub(started)
                                > inner.deadline.as_micros() as u64
                            {
                                slot.cancel.store(true, Ordering::Release);
                                inner.cancelled.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    }
                    std::thread::sleep(tick);
                }
            })
        };
        Watchdog {
            inner,
            monitor: Some(monitor),
        }
    }

    /// A worker-side handle on slot `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn handle(&self, slot: usize) -> WatchHandle {
        assert!(slot < self.inner.slots.len(), "watchdog slot out of range");
        WatchHandle {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    /// Experiments the monitor flagged past-deadline. Wall-clock
    /// dependent — surface as a gauge, never in the report.
    pub fn cancelled_total(&self) -> u64 {
        self.inner.cancelled.load(Ordering::Acquire)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

/// One worker's view of the watchdog: stamp experiments busy, observe
/// cancellation while sleeping out an injected stall.
pub struct WatchHandle {
    inner: Arc<WatchInner>,
    slot: usize,
}

impl WatchHandle {
    fn slot(&self) -> &WatchSlot {
        &self.inner.slots[self.slot]
    }

    /// Marks the slot busy, starting the deadline clock.
    pub fn begin(&self) {
        let slot = self.slot();
        slot.cancel.store(false, Ordering::Release);
        slot.started_micros
            .store(self.inner.epoch.elapsed().as_micros() as u64, Ordering::Release);
        slot.busy.store(true, Ordering::Release);
    }

    /// Marks the slot idle again.
    pub fn end(&self) {
        self.slot().busy.store(false, Ordering::Release);
    }

    /// Sleeps up to `stall`, returning early once the monitor cancels
    /// the slot. Returns `true` when the cancellation was observed.
    /// Wall-clock behavior only — callers must already have decided the
    /// experiment's fate from the stall *value*.
    pub fn wait_cancelled(&self, stall: Duration) -> bool {
        let slice = Duration::from_millis(1);
        let start = Instant::now();
        while start.elapsed() < stall {
            if self.slot().cancel.load(Ordering::Acquire) {
                return true;
            }
            std::thread::sleep(slice.min(stall - start.elapsed().min(stall)));
        }
        self.slot().cancel.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Supervisor configuration and summary
// ---------------------------------------------------------------------------

/// Knobs for `Pipeline::run_campaign_supervised`.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-experiment soft deadline. Injected stalls longer than this
    /// are quarantined (deterministically, by value comparison); the
    /// watchdog bounds how long the worker actually sleeps.
    pub deadline: Option<Duration>,
    /// Re-attempts granted to transient failures (injected panics,
    /// deadline-breaching stalls, total salvage loss). Zero disables
    /// retry and reproduces the un-supervised ledger exactly.
    pub max_retries: u32,
    /// Checkpoint journal path. `None` runs supervised (deadline,
    /// retry, coverage) without checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at `journal` before running; without
    /// this flag an existing journal file is truncated and restarted.
    pub resume: bool,
    /// Roll the active journal file into a numbered segment when an
    /// append would push it past this many bytes. Report-neutral (not
    /// part of the fingerprint), so the threshold can change between
    /// resume sessions. `None` never rotates.
    pub journal_roll_bytes: Option<u64>,
    /// Sleep inserted after each unit is journaled. Report-neutral;
    /// exists so kill-timing tests can reliably interrupt a quick
    /// campaign mid-journal.
    pub unit_throttle: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            max_retries: 0,
            journal: None,
            resume: false,
            journal_roll_bytes: None,
            unit_throttle: Duration::ZERO,
        }
    }
}

/// What a supervised run did, beyond the report itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperviseSummary {
    /// Work units in the campaign grid.
    pub units_total: usize,
    /// Units replayed from the journal instead of being re-run.
    pub units_replayed: usize,
    /// Units executed by this process.
    pub units_run: usize,
    /// Salvage accounting from the resumed journal, if any.
    pub salvage: Option<JournalSalvage>,
    /// Watchdog cancellations observed (wall-clock dependent; a gauge,
    /// not a report field).
    pub watchdog_cancelled: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_codec_roundtrips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.str("hello ∩ world");
        w.opt_str(None);
        w.opt_str(Some("x"));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.str().unwrap(), "hello ∩ world");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap().as_deref(), Some("x"));
        assert!(r.done());
        assert!(r.u8().is_err(), "reads past the end are typed errors");
    }

    #[test]
    fn enum_mappings_roundtrip() {
        for site in LabSite::all() {
            assert_eq!(site_from_u8(site_to_u8(site)).unwrap(), site);
        }
        for p in [PartyType::First, PartyType::Support, PartyType::Third] {
            assert_eq!(party_from_u8(party_to_u8(p)).unwrap(), p);
        }
        for &c in Country::all() {
            assert_eq!(country_from_code(country_to_code(c)).unwrap(), c);
        }
        assert_eq!(country_from_code("XX").unwrap(), Country::Other);
        assert!(country_from_code("ZZ").is_err());
        assert!(site_from_u8(9).is_err());
        assert_eq!(intern_device("Echo Dot").unwrap(), "Echo Dot");
        assert!(intern_device("Nonexistent Gadget").is_err());
        assert_eq!(intern_encoding("hex").unwrap(), "hex");
        assert!(intern_encoding("rot13").is_err());
        assert_eq!(intern_stage("stall_deadline").unwrap(), "stall_deadline");
        assert!(intern_stage("mystery").is_err());
    }

    #[test]
    fn coverage_records_merges_and_flags_degradation() {
        let mut a = Coverage::new();
        let dev = intern_device("Echo Dot").unwrap();
        a.record(LabSite::Us, dev, CoverageOutcome::Completed);
        a.record(LabSite::Us, dev, CoverageOutcome::Retried);
        assert!(!a.is_degraded());
        let mut b = Coverage::new();
        b.record(LabSite::Uk, dev, CoverageOutcome::Quarantined);
        assert!(b.is_degraded());
        a.merge(&b);
        assert!(a.is_degraded());
        let t = a.totals();
        assert_eq!(
            (t.completed, t.retried, t.quarantined, t.abandoned),
            (1, 1, 1, 0)
        );
        let json = a.to_json().dump();
        assert!(json.contains("US/Echo Dot"), "{json}");
        assert!(json.contains("UK/Echo Dot"));
        assert!(json.contains("\"degraded\":true"));
    }

    #[test]
    fn coverage_codec_roundtrips() {
        let mut cov = Coverage::new();
        let dev = intern_device("Echo Dot").unwrap();
        cov.record(LabSite::Us, dev, CoverageOutcome::Completed);
        cov.record(LabSite::Uk, dev, CoverageOutcome::Abandoned);
        let mut w = ByteWriter::new();
        cov.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Coverage::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, cov);
    }

    #[test]
    fn journal_header_errors_are_typed() {
        assert!(matches!(
            read_journal_bytes(b"short"),
            Err(JournalError::TruncatedHeader)
        ));
        assert!(matches!(
            read_journal_bytes(b"NOTAMAGICxxxxxxxxxxxx"),
            Err(JournalError::BadMagic)
        ));
        // Stale v1 and v2 journals must fail loudly, not decode garbage.
        for stale in [b"IOTJNL01", b"IOTJNL02"] {
            let mut old = stale.to_vec();
            old.extend_from_slice(&[0; 12]);
            assert!(matches!(
                read_journal_bytes(&old),
                Err(JournalError::BadMagic)
            ));
        }
        let mut ok = Vec::new();
        ok.extend_from_slice(JOURNAL_MAGIC);
        ok.extend_from_slice(&7u64.to_le_bytes());
        ok.extend_from_slice(&2u32.to_le_bytes());
        // Header claims two identities but carries only one: truncated,
        // and the implied allocation is bounded by the actual bytes.
        ok.extend_from_slice(&11u64.to_le_bytes());
        assert!(matches!(
            read_journal_bytes(&ok),
            Err(JournalError::TruncatedHeader)
        ));
        ok.extend_from_slice(&22u64.to_le_bytes());
        let contents = read_journal_bytes(&ok).unwrap();
        assert_eq!(contents.fingerprint, 7);
        assert_eq!(contents.total_units, 2);
        assert_eq!(contents.identities, vec![11, 22]);
        assert!(contents.deltas.is_empty());
        assert_eq!(contents.salvage, JournalSalvage::default());
    }

    #[test]
    fn unit_identities_are_stable_and_prefix_preserving() {
        let a = unit_identity("US", "Echo Dot");
        assert_eq!(a, unit_identity("US", "Echo Dot"));
        assert_ne!(a, unit_identity("UK", "Echo Dot"));
        // Length-prefixed hashing: shifting the boundary changes the digest.
        assert_ne!(unit_identity("US", "Echo Dot"), unit_identity("USEcho", " Dot"));
        let campaign =
            iot_testbed::schedule::Campaign::new(CampaignConfig::default());
        let ids = unit_identities(&campaign);
        assert_eq!(ids.len(), campaign.unit_count());
        let unique: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "identity digests must be distinct");
    }

    fn mini_delta(unit: u32) -> UnitDelta {
        UnitDelta {
            unit,
            experiments: u64::from(unit) + 1,
            ingest: IngestStats::default(),
            coverage: Coverage::new(),
            destinations: DestinationAnalysis::new(),
            encryption: EncryptionAnalysis::default(),
            pii: Vec::new(),
        }
    }

    #[test]
    fn unit_delta_round_trips_table7_samples() {
        let db = iot_geodb::registry::GeoDb::new();
        let lab = iot_testbed::lab::Lab::deploy(LabSite::Us);
        let dev = lab.device("TP-Link Plug").unwrap();
        let mut delta = mini_delta(5);
        for rep in 0..3 {
            delta
                .encryption
                .add_experiment(&iot_testbed::experiment::run_power(&db, dev, false, rep, 0));
        }
        let samples = delta.encryption.unencrypted_samples("TP-Link Plug", LabSite::Us, false);
        assert_eq!(samples.len(), 3, "one sample per experiment");
        let back = UnitDelta::decode(&delta.encode()).unwrap();
        assert_eq!(
            back.encryption.unencrypted_samples("TP-Link Plug", LabSite::Us, false),
            samples,
            "the journal must carry Table 7's samples"
        );
        assert_eq!(back.encode(), delta.encode());
    }

    #[test]
    fn journal_rolls_and_set_reader_merges_segments() {
        let dir = std::env::temp_dir().join(format!(
            "iot_supervise_roll_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let identities: Vec<u64> = (0..4).map(|u| 1000 + u).collect();
        // A tiny threshold forces a roll on nearly every append.
        let mut w = JournalWriter::create(&path, 42, &identities, Some(256)).unwrap();
        for unit in 0..4 {
            w.append(&mini_delta(unit)).unwrap();
        }
        drop(w);
        let segments = rolled_segments(&path);
        assert!(!segments.is_empty(), "tiny roll threshold must rotate");
        // Each segment is a well-formed journal on its own.
        for seg in &segments {
            let part = read_journal(seg).unwrap();
            assert_eq!(part.fingerprint, 42);
            assert_eq!(part.identities, identities);
        }
        let set = read_journal_set(&path).unwrap();
        assert_eq!(set.fingerprint, 42);
        assert_eq!(set.deltas.len(), 4);
        let units: Vec<u32> = set.deltas.iter().map(|d| d.unit).collect();
        assert_eq!(units, vec![0, 1, 2, 3]);
        assert_eq!(set.salvage.corrupt_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_records_round_trip_and_compact() {
        let dir = std::env::temp_dir().join(format!(
            "iot_supervise_ckpt_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let identities: Vec<u64> = (0..3).map(|u| 2000 + u).collect();
        let deltas: Vec<UnitDelta> = (0..3).map(mini_delta).collect();
        let mut w = JournalWriter::create(&path, 9, &identities, None).unwrap();
        w.checkpoint(&deltas).unwrap();
        // A later plain append coexists with the checkpoint record.
        w.append(&mini_delta(2)).unwrap();
        drop(w);
        let back = read_journal(&path).unwrap();
        assert_eq!(back.deltas.len(), 3, "checkpoint deltas replay");
        assert_eq!(back.salvage.duplicate_units, 1, "re-appended unit deduped");
        assert_eq!(
            back.deltas.iter().map(|d| d.experiments).sum::<u64>(),
            1 + 2 + 3
        );
        // Empty checkpoints write nothing.
        let empty = dir.join("empty.journal");
        let mut w = JournalWriter::create(&empty, 9, &identities, None).unwrap();
        w.checkpoint(&[]).unwrap();
        drop(w);
        assert_eq!(
            std::fs::metadata(&empty).unwrap().len(),
            header_len(3) as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_result_affecting_knobs_only() {
        let config = CampaignConfig {
            automated_reps: 1,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.05,
            include_vpn: false,
        };
        let base = campaign_fingerprint(&config, None, None, 0);
        assert_eq!(base, campaign_fingerprint(&config, None, None, 0));
        let plan = FaultPlan::uniform(1, 0.01);
        assert_ne!(base, campaign_fingerprint(&config, Some(&plan), None, 0));
        assert_ne!(base, campaign_fingerprint(&config, None, Some(10_000), 0));
        assert_ne!(base, campaign_fingerprint(&config, None, None, 3));
        let mut other = config;
        other.include_vpn = true;
        assert_ne!(base, campaign_fingerprint(&other, None, None, 0));
    }

    #[test]
    fn watchdog_cancels_a_stalled_slot() {
        let dog = Watchdog::new(2, Duration::from_millis(10));
        let h = dog.handle(0);
        h.begin();
        // A stall far past the deadline: wait_cancelled must return well
        // before the full stall elapses.
        let start = Instant::now();
        let cancelled = h.wait_cancelled(Duration::from_secs(5));
        h.end();
        assert!(cancelled, "watchdog must cancel a 5s stall at a 10ms deadline");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "cancellation took {:?}",
            start.elapsed()
        );
        assert!(dog.cancelled_total() >= 1);
        // An idle slot is never cancelled.
        let h1 = dog.handle(1);
        h1.begin();
        h1.end();
    }

    #[test]
    fn watchdog_leaves_fast_experiments_alone() {
        let dog = Watchdog::new(1, Duration::from_millis(200));
        let h = dog.handle(0);
        for _ in 0..3 {
            h.begin();
            let cancelled = h.wait_cancelled(Duration::from_millis(2));
            h.end();
            assert!(!cancelled, "a 2ms stall is within a 200ms deadline");
        }
        assert_eq!(dog.cancelled_total(), 0);
    }
}
