//! Encryption analysis — RQ2 (§5, Tables 5–8).
//!
//! Per-flow classification follows §5.1's procedure:
//!
//! 1. Protocol analysis: TLS and QUIC flows are encrypted; HTTP, DNS, NTP,
//!    and DHCP are plaintext.
//! 2. Encoding signatures: flows carrying recognizable media magic bytes
//!    (JPEG, gzip, …) are *unencrypted* even when their entropy is high.
//! 3. Media-pattern exclusion: bulk unknown-protocol flows whose entropy
//!    sits in the ciphertext band are excluded from entropy classification
//!    (real A/V streams defeat the entropy test, H≈0.873).
//! 4. Everything else: byte-entropy thresholds (>0.8 encrypted, <0.4
//!    unencrypted, otherwise unknown).
//!
//! [`EncryptionAnalysis`] holds only what reaches the report. The entropy
//! term tables are a cache, so the caller owns them: the driver keeps one
//! `EntropyScratch` per worker for its whole run, and
//! [`EncryptionAnalysis::add_flows`] builds its own.

use crate::flows::ExperimentFlows;
use iot_entropy::{EncryptionClass, EntropyScratch, Thresholds};
use iot_protocols::analyzer::{detect_media_encoding, ProtocolId};
use iot_testbed::catalog;
use iot_testbed::device::{ActivityKind, Availability, Category};
use iot_testbed::experiment::{ExperimentKind, LabeledExperiment};
use iot_testbed::lab::LabSite;
use std::collections::HashMap;

/// Entropy measurement unit: flows are chunked into pseudo-packets of this
/// size (the retained payload prefix stands in for per-packet payloads).
pub const ENTROPY_CHUNK: usize = 160;

/// Unknown-protocol flows larger than this with ciphertext-band entropy
/// are treated as media streams and excluded (classified unknown).
pub const MEDIA_EXCLUSION_BYTES: u64 = 20_000;

/// Byte counters per encryption class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBytes {
    /// Bytes classified unencrypted (the paper's ✗ rows).
    pub unencrypted: u64,
    /// Bytes classified encrypted (✓).
    pub encrypted: u64,
    /// Bytes whose status is undetermined (?).
    pub unknown: u64,
}

impl ClassBytes {
    /// Total classified bytes.
    pub fn total(&self) -> u64 {
        self.unencrypted + self.encrypted + self.unknown
    }

    /// Fraction (0–100) of one class.
    pub fn percent(&self, class: EncryptionClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let v = match class {
            EncryptionClass::LikelyUnencrypted => self.unencrypted,
            EncryptionClass::LikelyEncrypted => self.encrypted,
            EncryptionClass::Unknown => self.unknown,
        };
        v as f64 * 100.0 / total as f64
    }

    pub(crate) fn add(&mut self, class: EncryptionClass, bytes: u64) {
        match class {
            EncryptionClass::LikelyUnencrypted => self.unencrypted += bytes,
            EncryptionClass::LikelyEncrypted => self.encrypted += bytes,
            EncryptionClass::Unknown => self.unknown += bytes,
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &ClassBytes) {
        self.unencrypted += other.unencrypted;
        self.encrypted += other.encrypted;
        self.unknown += other.unknown;
    }
}

/// Experiment-type rows of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table8Row {
    /// All controlled experiments.
    Control,
    /// Power experiments.
    Power,
    /// Voice interactions.
    Voice,
    /// Video interactions.
    Video,
    /// Other interactions.
    Others,
    /// Idle captures.
    Idle,
    /// Uncontrolled (user-study) captures.
    Uncontrolled,
}

impl Table8Row {
    /// Row order of Table 8.
    pub fn all() -> &'static [Table8Row] {
        &[
            Table8Row::Control,
            Table8Row::Power,
            Table8Row::Voice,
            Table8Row::Video,
            Table8Row::Others,
            Table8Row::Idle,
            Table8Row::Uncontrolled,
        ]
    }

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            Table8Row::Control => "Control",
            Table8Row::Power => "Power",
            Table8Row::Voice => "Voice",
            Table8Row::Video => "Video",
            Table8Row::Others => "Others",
            Table8Row::Idle => "Idle",
            Table8Row::Uncontrolled => "Uncontrol",
        }
    }
}

/// Classifies one labeled flow, returning the class its bytes count under.
pub fn classify_flow(
    flow: &crate::flows::LabeledFlow,
    thresholds: &Thresholds,
) -> EncryptionClass {
    classify_flow_with(flow, thresholds, &mut EntropyScratch::new())
}

/// [`classify_flow`] with a reusable [`EntropyScratch`], the hot-path
/// variant — the scratch's entropy is bit-identical to the naive
/// reference, so the classification is too.
pub fn classify_flow_with(
    flow: &crate::flows::LabeledFlow,
    thresholds: &Thresholds,
    scratch: &mut EntropyScratch,
) -> EncryptionClass {
    // 1. Protocol analysis.
    if flow.protocol.is_structurally_encrypted() {
        return EncryptionClass::LikelyEncrypted;
    }
    if flow.protocol.is_structurally_plaintext() {
        return EncryptionClass::LikelyUnencrypted;
    }
    // 2. Encoding magic bytes.
    if detect_media_encoding(&flow.flow.payload_out).is_some()
        || detect_media_encoding(&flow.flow.payload_in).is_some()
    {
        return EncryptionClass::LikelyUnencrypted;
    }
    // 3 + 4. Entropy, with media-pattern exclusion for bulk flows.
    let h = scratch.mean_packet_entropy(
        flow.flow
            .payload_out
            .chunks(ENTROPY_CHUNK)
            .chain(flow.flow.payload_in.chunks(ENTROPY_CHUNK)),
    );
    let class = thresholds.classify_value(h);
    if class == EncryptionClass::LikelyEncrypted
        && flow.protocol == ProtocolId::Unknown
        && flow.flow.total_bytes() > MEDIA_EXCLUSION_BYTES
    {
        // Probable A/V stream: entropy says "encrypted" but the paper
        // excludes such flows from the entropy analysis (§5.1).
        return EncryptionClass::Unknown;
    }
    class
}

/// Accumulates encryption classifications across experiments.
pub struct EncryptionAnalysis {
    thresholds: Thresholds,
    per_device: HashMap<(LabSite, bool, &'static str), ClassBytes>,
    per_row: HashMap<(LabSite, bool, Table8Row), ClassBytes>,
    /// Table 7's Welch samples: one unencrypted-byte percentage per
    /// experiment with traffic, per (site, vpn, device).
    unencrypted_samples: HashMap<(LabSite, bool, &'static str), Vec<f64>>,
}

impl Default for EncryptionAnalysis {
    fn default() -> Self {
        Self::new(Thresholds::default())
    }
}

impl EncryptionAnalysis {
    /// Creates an analysis with the given entropy thresholds.
    pub fn new(thresholds: Thresholds) -> Self {
        EncryptionAnalysis {
            thresholds,
            per_device: HashMap::new(),
            per_row: HashMap::new(),
            unencrypted_samples: HashMap::new(),
        }
    }

    /// Ingests pre-extracted flows: one experiment's worth, with entropy
    /// tables of its own.
    pub fn add_flows(&mut self, exp: &LabeledExperiment, flows: &ExperimentFlows) {
        let rows = Self::rows_of(exp);
        let mut scratch = EntropyScratch::new();
        let mut tally = ClassBytes::default();
        for lf in &flows.flows {
            self.add_flow(exp, rows, lf, &mut tally, &mut scratch);
        }
        self.add_sample(exp, &tally);
    }

    /// Ingests one labeled flow — the fused-pipeline entry point. The
    /// `rows` slice is [`Self::rows_of`] for the experiment, looked up once
    /// per experiment rather than per flow; `tally` sums the experiment's
    /// bytes for [`Self::add_sample`]; `scratch` is the caller's entropy
    /// tables.
    pub(crate) fn add_flow(
        &mut self,
        exp: &LabeledExperiment,
        rows: &[Table8Row],
        lf: &crate::flows::LabeledFlow,
        tally: &mut ClassBytes,
        scratch: &mut EntropyScratch,
    ) {
        let class = classify_flow_with(lf, &self.thresholds, scratch);
        let bytes = lf.flow.total_bytes();
        tally.add(class, bytes);
        self.per_device
            .entry((exp.site, exp.vpn, exp.device_name))
            .or_default()
            .add(class, bytes);
        for &row in rows {
            self.per_row
                .entry((exp.site, exp.vpn, row))
                .or_default()
                .add(class, bytes);
        }
    }

    /// Records one experiment's Table 7 sample from the byte `tally` of
    /// its flows, once per experiment, after the last flow. Experiments
    /// without traffic contribute no sample.
    pub(crate) fn add_sample(&mut self, exp: &LabeledExperiment, tally: &ClassBytes) {
        if tally.total() > 0 {
            self.unencrypted_samples
                .entry((exp.site, exp.vpn, exp.device_name))
                .or_default()
                .push(tally.percent(EncryptionClass::LikelyUnencrypted));
        }
    }

    /// Folds another analysis into this one. Byte counters are additive
    /// and keyed identically, and sample lists concatenate, so merging
    /// shards is equivalent to serial ingestion in any order (samples
    /// up to order, which [`Self::unencrypted_samples`] sorts away).
    /// Panics if thresholds differ — shards must classify with the same
    /// configuration for the merge to be sound.
    pub fn merge(&mut self, other: EncryptionAnalysis) {
        assert!(
            self.thresholds == other.thresholds,
            "merging encryption analyses with different thresholds"
        );
        for (key, cb) in other.per_device {
            self.per_device.entry(key).or_default().merge(&cb);
        }
        for (key, cb) in other.per_row {
            self.per_row.entry(key).or_default().merge(&cb);
        }
        for (key, mut samples) in other.unencrypted_samples {
            self.unencrypted_samples
                .entry(key)
                .or_default()
                .append(&mut samples);
        }
    }

    /// Total classified bytes across every (site, vpn, device) context —
    /// the corpus-wide byte mix, used by observability counters.
    pub fn total_bytes_by_class(&self) -> ClassBytes {
        let mut agg = ClassBytes::default();
        for cb in self.per_device.values() {
            agg.merge(cb);
        }
        agg
    }

    /// The Table 8 rows an experiment's bytes count under: one static
    /// slice per experiment kind, and per activity kind for interactions.
    pub(crate) fn rows_of(exp: &LabeledExperiment) -> &'static [Table8Row] {
        match exp.kind {
            ExperimentKind::Idle => &[Table8Row::Idle],
            ExperimentKind::Uncontrolled => &[Table8Row::Uncontrolled],
            ExperimentKind::Power => &[Table8Row::Control, Table8Row::Power],
            ExperimentKind::Interaction => {
                let kind = exp
                    .activity
                    .and_then(|a| catalog::by_name(exp.device_name)?.activity(a).map(|s| s.kind));
                match kind {
                    Some(ActivityKind::Voice) => &[Table8Row::Control, Table8Row::Voice],
                    Some(ActivityKind::Video) => &[Table8Row::Control, Table8Row::Video],
                    _ => &[Table8Row::Control, Table8Row::Others],
                }
            }
        }
    }

    /// Per-device byte counters in a (site, vpn) context.
    pub fn device_bytes(
        &self,
        site: LabSite,
        vpn: bool,
    ) -> Vec<(&'static str, ClassBytes)> {
        let mut out: Vec<_> = self
            .per_device
            .iter()
            .filter(|((s, v, _), _)| *s == site && *v == vpn)
            .map(|((_, _, d), cb)| (*d, *cb))
            .collect();
        out.sort_by_key(|(d, _)| *d);
        out
    }

    /// Per-device unencrypted percentage (Table 7).
    pub fn device_unencrypted_percent(&self, device: &str, site: LabSite, vpn: bool) -> Option<f64> {
        self.per_device
            .get(&(site, vpn, catalog::by_name(device)?.name))
            .map(|cb| cb.percent(EncryptionClass::LikelyUnencrypted))
    }

    /// Table 7's Welch samples for a device in a (site, vpn) context: the
    /// unencrypted-byte percentage of each of its experiments, sorted by
    /// value so the test's float sums cannot depend on merge or ingest
    /// order.
    pub fn unencrypted_samples(&self, device: &str, site: LabSite, vpn: bool) -> Vec<f64> {
        let mut samples = catalog::by_name(device)
            .and_then(|spec| self.unencrypted_samples.get(&(site, vpn, spec.name)))
            .cloned()
            .unwrap_or_default();
        samples.sort_by(f64::total_cmp);
        samples
    }

    /// Table 5: number of devices whose percentage of `class` bytes falls
    /// into each quartile bucket (>75, 50–75, 25–50, <25), for a context.
    pub fn quartile_histogram(
        &self,
        site: LabSite,
        vpn: bool,
        common_only: bool,
        class: EncryptionClass,
    ) -> [usize; 4] {
        let mut buckets = [0usize; 4];
        for ((s, v, device), cb) in &self.per_device {
            if *s != site || *v != vpn {
                continue;
            }
            if common_only
                && catalog::by_name(device).map(|d| d.availability) != Some(Availability::Both)
            {
                continue;
            }
            let pct = cb.percent(class);
            let bucket = if pct > 75.0 {
                0
            } else if pct > 50.0 {
                1
            } else if pct > 25.0 {
                2
            } else {
                3
            };
            buckets[bucket] += 1;
        }
        buckets
    }

    /// Table 6: per-category percentage of `class` bytes in a context.
    pub fn category_percent(
        &self,
        site: LabSite,
        vpn: bool,
        common_only: bool,
        category: Category,
        class: EncryptionClass,
    ) -> f64 {
        let mut agg = ClassBytes::default();
        for ((s, v, device), cb) in &self.per_device {
            if *s != site || *v != vpn {
                continue;
            }
            let spec = match catalog::by_name(device) {
                Some(sp) => sp,
                None => continue,
            };
            if spec.category != category {
                continue;
            }
            if common_only && spec.availability != Availability::Both {
                continue;
            }
            agg.merge(cb);
        }
        agg.percent(class)
    }

    /// Table 8: per-experiment-row percentage of `class` bytes.
    pub fn row_percent(
        &self,
        site: LabSite,
        vpn: bool,
        row: Table8Row,
        class: EncryptionClass,
    ) -> f64 {
        self.per_row
            .get(&(site, vpn, row))
            .map(|cb| cb.percent(class))
            .unwrap_or(0.0)
    }

    fn row_to_u8(row: Table8Row) -> u8 {
        match row {
            Table8Row::Control => 0,
            Table8Row::Power => 1,
            Table8Row::Voice => 2,
            Table8Row::Video => 3,
            Table8Row::Others => 4,
            Table8Row::Idle => 5,
            Table8Row::Uncontrolled => 6,
        }
    }

    fn row_from_u8(v: u8) -> Result<Table8Row, crate::supervise::DecodeErr> {
        Ok(match v {
            0 => Table8Row::Control,
            1 => Table8Row::Power,
            2 => Table8Row::Voice,
            3 => Table8Row::Video,
            4 => Table8Row::Others,
            5 => Table8Row::Idle,
            6 => Table8Row::Uncontrolled,
            _ => return Err(crate::supervise::DecodeErr("invalid table-8 row")),
        })
    }

    /// Serializes both counter maps and the Table 7 samples for the
    /// campaign checkpoint journal, in sorted key order for byte-stable
    /// output (samples keep their ingest order). Thresholds are not
    /// persisted: the pipeline always classifies with
    /// `Thresholds::default()`, and the journal header's campaign
    /// fingerprint already pins the configuration — decode rebuilds onto
    /// a default-thresholds analysis.
    pub(crate) fn encode_journal(&self, w: &mut crate::supervise::ByteWriter) {
        use crate::supervise as sup;
        let mut devices: Vec<&(LabSite, bool, &'static str)> = self.per_device.keys().collect();
        devices.sort();
        w.u32(devices.len() as u32);
        for key in devices {
            let cb = &self.per_device[key];
            w.u8(sup::site_to_u8(key.0));
            w.bool(key.1);
            w.str(key.2);
            w.u64(cb.unencrypted);
            w.u64(cb.encrypted);
            w.u64(cb.unknown);
        }
        let mut rows: Vec<&(LabSite, bool, Table8Row)> = self.per_row.keys().collect();
        rows.sort_by_key(|(s, v, r)| (sup::site_to_u8(*s), *v, Self::row_to_u8(*r)));
        w.u32(rows.len() as u32);
        for key in rows {
            let cb = &self.per_row[key];
            w.u8(sup::site_to_u8(key.0));
            w.bool(key.1);
            w.u8(Self::row_to_u8(key.2));
            w.u64(cb.unencrypted);
            w.u64(cb.encrypted);
            w.u64(cb.unknown);
        }
        let mut sampled: Vec<&(LabSite, bool, &'static str)> =
            self.unencrypted_samples.keys().collect();
        sampled.sort();
        w.u32(sampled.len() as u32);
        for key in sampled {
            let samples = &self.unencrypted_samples[key];
            w.u8(sup::site_to_u8(key.0));
            w.bool(key.1);
            w.str(key.2);
            w.u32(samples.len() as u32);
            for v in samples {
                w.u64(v.to_bits());
            }
        }
    }

    /// Decodes journaled counter maps and samples onto a
    /// default-thresholds analysis. Duplicate keys fold like
    /// [`EncryptionAnalysis::merge`]; malformed input is a typed error.
    pub(crate) fn decode_journal(
        r: &mut crate::supervise::ByteReader<'_>,
    ) -> Result<EncryptionAnalysis, crate::supervise::DecodeErr> {
        use crate::supervise as sup;
        let mut out = EncryptionAnalysis::default();
        let n = r.u32()?;
        for _ in 0..n {
            let site = sup::site_from_u8(r.u8()?)?;
            let vpn = r.bool()?;
            let device = sup::intern_device(&r.str()?)?;
            let cb = ClassBytes {
                unencrypted: r.u64()?,
                encrypted: r.u64()?,
                unknown: r.u64()?,
            };
            out.per_device
                .entry((site, vpn, device))
                .or_default()
                .merge(&cb);
        }
        let n = r.u32()?;
        for _ in 0..n {
            let site = sup::site_from_u8(r.u8()?)?;
            let vpn = r.bool()?;
            let row = Self::row_from_u8(r.u8()?)?;
            let cb = ClassBytes {
                unencrypted: r.u64()?,
                encrypted: r.u64()?,
                unknown: r.u64()?,
            };
            out.per_row.entry((site, vpn, row)).or_default().merge(&cb);
        }
        let n = r.u32()?;
        for _ in 0..n {
            let site = sup::site_from_u8(r.u8()?)?;
            let vpn = r.bool()?;
            let device = sup::intern_device(&r.str()?)?;
            let count = r.u32()?;
            let samples = out
                .unencrypted_samples
                .entry((site, vpn, device))
                .or_default();
            for _ in 0..count {
                samples.push(f64::from_bits(r.u64()?));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_geodb::registry::GeoDb;
    use iot_testbed::experiment::{run_interaction, run_power};
    use iot_testbed::lab::Lab;

    /// Every experiment's flows, ingested one experiment at a time.
    fn ingest(
        analysis: &mut EncryptionAnalysis,
        exps: impl IntoIterator<Item = LabeledExperiment>,
    ) {
        for exp in exps {
            analysis.add_flows(&exp, &ExperimentFlows::from_experiment(&exp));
        }
    }

    fn corpus(names: &[&str]) -> EncryptionAnalysis {
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Us);
        let mut analysis = EncryptionAnalysis::default();
        for name in names {
            let dev = lab.device(name).unwrap();
            ingest(
                &mut analysis,
                (0..2).map(|rep| run_power(&db, dev, false, rep, 0)),
            );
            let spec = dev.spec();
            for act in &spec.activities {
                ingest(
                    &mut analysis,
                    (0..2).map(|rep| run_interaction(&db, dev, act, act.methods[0], false, rep, 0)),
                );
            }
        }
        analysis
    }

    #[test]
    fn audio_mostly_encrypted() {
        let analysis = corpus(&["Echo Dot"]);
        let cb = analysis.device_bytes(LabSite::Us, false)[0].1;
        let enc = cb.percent(EncryptionClass::LikelyEncrypted);
        assert!(enc > 50.0, "Echo Dot should be mostly encrypted, got {enc:.1}%");
    }

    #[test]
    fn plaintext_camera_mostly_unencrypted() {
        let analysis = corpus(&["Microseven Cam"]);
        let cb = analysis.device_bytes(LabSite::Us, false)[0].1;
        let unenc = cb.percent(EncryptionClass::LikelyUnencrypted);
        assert!(
            unenc > 25.0,
            "Microseven streams plaintext JPEG video, got {unenc:.1}% unencrypted"
        );
    }

    #[test]
    fn proprietary_hub_mostly_unknown() {
        // UK-only device is absent from the US lab — use the UK lab.
        let db = GeoDb::new();
        let lab = Lab::deploy(LabSite::Uk);
        let dev = lab.device("Smarter iKettle").unwrap();
        let mut analysis2 = EncryptionAnalysis::default();
        ingest(&mut analysis2, [run_power(&db, dev, false, 0, 0)]);
        let spec = dev.spec();
        for act in &spec.activities {
            ingest(
                &mut analysis2,
                [run_interaction(&db, dev, act, act.methods[0], false, 0, 0)],
            );
        }
        let cb = analysis2.device_bytes(LabSite::Uk, false)[0].1;
        let unknown = cb.percent(EncryptionClass::Unknown);
        assert!(
            unknown > 40.0,
            "proprietary kettle protocol should be mostly unknown, got {unknown:.1}%"
        );
    }

    #[test]
    fn camera_video_streams_excluded_as_media() {
        let analysis = corpus(&["Wansview Cam"]);
        let cb = analysis.device_bytes(LabSite::Us, false)[0].1;
        let unknown = cb.percent(EncryptionClass::Unknown);
        assert!(
            unknown > 40.0,
            "bulk proprietary video should be media-excluded (unknown), got {unknown:.1}%"
        );
    }

    #[test]
    fn quartile_histogram_counts_devices() {
        let analysis = corpus(&["Echo Dot", "Microseven Cam"]);
        let hist = analysis.quartile_histogram(
            LabSite::Us,
            false,
            false,
            EncryptionClass::LikelyUnencrypted,
        );
        assert_eq!(hist.iter().sum::<usize>(), 2);
    }

    #[test]
    fn table8_rows_cover_experiments() {
        let analysis = corpus(&["Samsung TV"]);
        let control = analysis.row_percent(
            LabSite::Us,
            false,
            Table8Row::Control,
            EncryptionClass::LikelyEncrypted,
        );
        assert!(control > 0.0);
        let voice = analysis.row_percent(
            LabSite::Us,
            false,
            Table8Row::Voice,
            EncryptionClass::LikelyEncrypted,
        );
        assert!(voice > 0.0, "Samsung TV has a voice activity");
    }

    #[test]
    fn class_bytes_percent_math() {
        let cb = ClassBytes {
            unencrypted: 25,
            encrypted: 50,
            unknown: 25,
        };
        assert_eq!(cb.percent(EncryptionClass::LikelyUnencrypted), 25.0);
        assert_eq!(cb.percent(EncryptionClass::LikelyEncrypted), 50.0);
        assert_eq!(cb.total(), 100);
        assert_eq!(ClassBytes::default().percent(EncryptionClass::Unknown), 0.0);
    }
}
