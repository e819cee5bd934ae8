//! Campaign supervision: the checkpoint journal, resume, and the
//! coverage manifest.
//!
//! A crash or kill must not throw away the work a campaign already
//! finished. This module provides that survival layer around the
//! pipeline:
//!
//! - **Checkpoint journal** — an append-only, length-prefixed and
//!   checksummed binary log of completed per-work-unit accumulator
//!   deltas ([`UnitDelta`]), one flushed record per unit, written by
//!   `Pipeline::run_campaign_supervised`. Resuming replays the finished
//!   units, cuts a torn tail back to the clean prefix, and appends the
//!   units it re-runs to the same file. Because every pipeline
//!   accumulator merges associatively and commutatively (the same
//!   property that makes every worker count byte-identical), the
//!   resumed report is byte-identical to an uninterrupted run.
//! - **Coverage manifest** — [`Coverage`] counts completed and
//!   quarantined experiments per (lab × device) and flags degraded
//!   runs; it rides in the pipeline report's `"coverage"` key and is
//!   mirrored into the observability registry.
//!
//! # Journal format (v4)
//!
//! ```text
//! header:  magic "IOTJNL04" (8 bytes)
//!          fingerprint u64 LE   — digest of campaign config + fault plan
//!          total_units u32 LE   — work units in the campaign grid
//!          total_units × u64 LE — per-unit identity digests, in grid
//!                                 order (FNV-1a of "site/device")
//! record:  marker 0xA5 (1 byte)
//!          len u32 LE           — payload length
//!          crc u64 LE           — FNV-1a over the payload
//!          payload              — one encoded UnitDelta
//! ```
//!
//! Records are self-delimiting, so a journal torn anywhere (a SIGKILL
//! mid-write) salvages exactly its clean prefix: [`read_journal`] stops
//! at the first bad marker, length, checksum, or undecodable payload,
//! reports what it dropped ([`JournalSalvage`]) and where the clean
//! prefix ends ([`JournalContents::clean_len`]). Header-level problems
//! (wrong magic, short file) are typed errors instead — there is
//! nothing safe to replay — and so is a journal whose fingerprint or
//! identity table is not the resuming campaign's.

use crate::destinations::DestinationAnalysis;
use crate::encryption::EncryptionAnalysis;
use crate::ingest::IngestStats;
use crate::pii::{PiiFinding, PiiFindingKind};
use iot_chaos::FaultPlan;
use iot_core::json::{Json, ToJson};
use iot_geodb::geo::Country;
use iot_geodb::org::ORGS;
use iot_geodb::party::PartyType;
use iot_geodb::registry::fnv1a;
use iot_testbed::lab::LabSite;
use iot_testbed::schedule::CampaignConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Journal magic, versioned: bump the trailing digits on any codec
/// change so stale journals fail loudly instead of decoding garbage.
/// v2 added the per-unit identity table to the header; v3 added Table
/// 7's per-experiment samples to the encryption delta; v4 dropped the
/// retry counters and the compaction checkpoint record.
pub const JOURNAL_MAGIC: &[u8; 8] = b"IOTJNL04";

/// Record start marker; a cheap first line of defense against torn or
/// misaligned journals before the checksum is even consulted.
const RECORD_MARKER: u8 = 0xA5;

/// Upper bound on a single record's payload. A quick-scale unit delta
/// is a few KiB; anything claiming more than this is corruption, not
/// data.
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

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
        "flows_parse" => Ok("flows_parse"),
        "ingest_panic" => Ok("ingest_panic"),
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
    /// Experiments whose analysis landed in the report.
    pub completed: u64,
    /// Experiments quarantined at the ingest boundary.
    pub quarantined: u64,
}

impl CoverageCell {
    /// Folds another cell into this one (plain addition).
    pub fn merge(&mut self, other: &CoverageCell) {
        self.completed += other.completed;
        self.quarantined += other.quarantined;
    }

    /// True when no experiment in this cell was quarantined.
    pub fn is_full(&self) -> bool {
        self.quarantined == 0
    }
}

impl ToJson for CoverageCell {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("completed", self.completed.to_json());
        j.set("quarantined", self.quarantined.to_json());
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
    /// Analyzed into the report.
    Completed,
    /// Quarantined at the ingest boundary.
    Quarantined,
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
            CoverageOutcome::Quarantined => cell.quarantined += 1,
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

    /// True when any experiment was quarantined — the report-level
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
            w.u64(cell.quarantined);
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
                quarantined: r.u64()?,
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
/// compiled PII patterns) and the observability registry. The caches
/// are result-neutral by construction; metrics describe work a process
/// actually performed, so a resumed process reports only its own.
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
    for (_, value) in s.counters() {
        w.u64(value);
    }
    w.u32(s.stage_errors.len() as u32);
    for (stage, n) in &s.stage_errors {
        w.str(stage);
        w.u64(*n);
    }
}

fn decode_ingest(r: &mut ByteReader<'_>) -> Result<IngestStats, DecodeErr> {
    let mut s = IngestStats::default();
    for (_, value) in s.counters_mut() {
        *value = r.u64()?;
    }
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
    /// configuration or fault plan.
    ConfigMismatch {
        /// Fingerprint the resuming run computed.
        expected: u64,
        /// Fingerprint stored in the journal header.
        found: u64,
    },
    /// The journal's identity table is not the resuming campaign's
    /// grid: the catalog changed since the journal was written, so its
    /// unit indices would land on the wrong devices.
    GridMismatch {
        /// Work units in the resuming campaign's grid.
        expected_units: usize,
        /// Work units in the journal's identity table.
        found_units: usize,
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
            JournalError::GridMismatch {
                expected_units,
                found_units,
            } => write!(
                f,
                "journal records a different work-unit grid \
                 ({found_units} units, this run has {expected_units})"
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
    /// Header fingerprint (campaign config + fault plan).
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
    /// Byte length of the clean prefix — the boundary at which a
    /// damaged tail was amputated, and where a resume appends.
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
/// cannot collide by concatenation).
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
        if rest.len() < 1 + 4 + 8 || rest[0] != RECORD_MARKER {
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
        let delta = match UnitDelta::decode(payload) {
            Ok(d) if d.unit < total_units => d,
            _ => {
                salvage.corrupt_dropped += 1;
                break;
            }
        };
        pos += 13 + len as usize;
        if seen.insert(delta.unit) {
            salvage.records += 1;
            deltas.push(delta);
        } else {
            salvage.duplicate_units += 1;
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

/// Append-side handle on a checkpoint journal. Every append is written
/// and flushed as one record, so a SIGKILL between appends loses at
/// most the record in flight — which salvage then amputates.
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (or truncates) a journal and writes its header: magic,
    /// fingerprint, and the grid's identity table.
    ///
    /// `roll_bytes` must be `None`; `Some` is an `InvalidInput` error,
    /// since journals do not rotate. The parameter stays only because
    /// `perfbench` calls this signature, and goes with the next
    /// benchmark-definition change (ROADMAP item 1).
    pub fn create(
        path: &Path,
        fingerprint: u64,
        identities: &[u64],
        roll_bytes: Option<u64>,
    ) -> std::io::Result<Self> {
        if roll_bytes.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "journals do not rotate: pass None",
            ));
        }
        let mut header = Vec::with_capacity(header_len(identities.len() as u32));
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&(identities.len() as u32).to_le_bytes());
        for id in identities {
            header.extend_from_slice(&id.to_le_bytes());
        }
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.flush()?;
        Ok(JournalWriter { file })
    }

    /// Reopens a salvaged journal for appending: cuts the file back to
    /// its clean prefix `clean_len` (dropping a torn trailing record)
    /// and appends after it. The bytes before `clean_len` are never
    /// rewritten, so a kill during a resume costs at most the record
    /// that resume was writing.
    pub fn append_to(path: &Path, clean_len: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(clean_len)?;
        Ok(JournalWriter { file })
    }

    /// Appends one unit delta as a framed, checksummed record.
    pub fn append(&mut self, delta: &UnitDelta) -> std::io::Result<()> {
        let payload = delta.encode();
        let mut frame = Vec::with_capacity(13 + payload.len());
        frame.push(RECORD_MARKER);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()
    }
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// Digest of everything that determines a campaign's *result bytes*:
/// the campaign config and the fault plan. Report-neutral settings
/// (the journal path, the worker count) are deliberately excluded so
/// operators can change them between a run and its resume.
///
/// `deadline_micros` and `max_retries` configure nothing;
/// `Pipeline::run_campaign_supervised` passes `None, 0`. They stay only
/// because `perfbench` calls this signature, and go with the next
/// benchmark-definition change (ROADMAP item 1).
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
            ] {
                w.u64(rate.to_bits());
            }
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
// Supervisor configuration and summary
// ---------------------------------------------------------------------------

/// Knobs for `Pipeline::run_campaign_supervised`.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Checkpoint journal path. `None` runs without checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay the journal at `journal` before running and append the
    /// remaining units to it. The journal must exist: a missing one
    /// fails the run with its `NotFound` I/O error before any unit runs.
    /// Without this flag an existing journal file is truncated and
    /// restarted.
    pub resume: bool,
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
        assert_eq!(intern_stage("worker_panic").unwrap(), "worker_panic");
        assert!(intern_stage("mystery").is_err());
    }

    #[test]
    fn coverage_records_merges_and_flags_degradation() {
        let mut a = Coverage::new();
        let dev = intern_device("Echo Dot").unwrap();
        a.record(LabSite::Us, dev, CoverageOutcome::Completed);
        a.record(LabSite::Us, dev, CoverageOutcome::Completed);
        assert!(!a.is_degraded());
        let mut b = Coverage::new();
        b.record(LabSite::Uk, dev, CoverageOutcome::Quarantined);
        assert!(b.is_degraded());
        a.merge(&b);
        assert!(a.is_degraded());
        let t = a.totals();
        assert_eq!((t.completed, t.quarantined), (2, 1));
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
        cov.record(LabSite::Uk, dev, CoverageOutcome::Quarantined);
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
        // Stale v1–v3 journals must fail loudly, not decode garbage.
        for stale in [b"IOTJNL01", b"IOTJNL02", b"IOTJNL03"] {
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
            let exp = iot_testbed::experiment::run_power(&db, dev, false, rep, 0);
            let flows = crate::flows::ExperimentFlows::from_experiment(&exp);
            delta.encryption.add_flows(&exp, &flows);
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
    fn resumed_writer_cuts_the_torn_tail_and_appends_after_it() {
        let path = std::env::temp_dir().join(format!(
            "iot_supervise_append_{}.jnl",
            std::process::id()
        ));
        let identities: Vec<u64> = (0..4).map(|u| 1000 + u).collect();
        assert_eq!(
            JournalWriter::create(&path, 42, &identities, Some(1 << 20))
                .err()
                .map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput),
            "journals do not rotate"
        );
        let mut w = JournalWriter::create(&path, 42, &identities, None).unwrap();
        for unit in 0..2 {
            w.append(&mini_delta(unit)).unwrap();
        }
        drop(w);
        // Tear the second record, as a kill mid-append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let torn = read_journal(&path).unwrap();
        assert_eq!(torn.deltas.len(), 1);
        assert_eq!(torn.salvage.corrupt_dropped, 1);
        let kept = torn.clean_len as usize;
        let mut w = JournalWriter::append_to(&path, torn.clean_len).unwrap();
        for unit in 1..4 {
            w.append(&mini_delta(unit)).unwrap();
        }
        drop(w);
        let after = std::fs::read(&path).unwrap();
        assert!(after[..kept] == bytes[..kept], "the clean prefix is never rewritten");
        let back = read_journal(&path).unwrap();
        let units: Vec<u32> = back.deltas.iter().map(|d| d.unit).collect();
        assert_eq!(units, vec![0, 1, 2, 3]);
        assert_eq!(back.salvage, JournalSalvage { records: 4, ..JournalSalvage::default() });
        let _ = std::fs::remove_file(&path);
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
        let mut other = config;
        other.include_vpn = true;
        assert_ne!(base, campaign_fingerprint(&other, None, None, 0));
    }
}
