//! Single-entry-point pipeline: run a campaign through every analysis and
//! collect a serializable report. `iot-bench`'s `tables` binary renders
//! the paper's corpus tables from the finished pipeline's accumulators.
//!
//! # One driver
//!
//! A campaign splits into work units, one per (lab × device) slot of the
//! grid ([`Campaign::lend_unit`]). A unit's experiments are synthesized
//! into one capture buffer and lent to the worker one at a time; the
//! worker analyzes each by reference, so only a faulted run copies an
//! experiment (its degraded capture).
//! [`Pipeline::run_campaign_supervised`] is the only campaign driver:
//! workers pull units from a shared queue, and each finished unit's
//! accumulator delta ([`UnitDelta`]) is journaled (when a checkpoint
//! journal is configured) and folded into the pipeline at once. The
//! calling thread runs worker 0, so a 1-worker run spawns no
//! thread; [`Pipeline::run_campaign`] is that 1-worker run with default
//! [`SupervisorConfig`] knobs. [`Pipeline::ingest_experiments`] feeds a
//! caller's experiment stream through the same worker and the same fold;
//! captures read back from disk (`iot_testbed::capture::read_experiments`,
//! `moniotr analyze`) take that path, so a file and a campaign run the
//! same analyses.
//!
//! Each experiment's analyses are flow reconstruction and then one
//! per-flow loop (`analyze_flows`) that feeds every flow to destination
//! mapping, encryption classification and the PII scan, with their
//! per-experiment context built once before it. It is the only place
//! those three stages see a flow, and the zero-allocation test runs it.
//!
//! A worker keeps its result-neutral state — the domain intern pool,
//! compiled PII patterns, entropy term tables, the flow pool in which it
//! rebuilds each experiment's flows, and its metric registry — for its
//! whole run, while the report-bearing accumulators live per unit, so no
//! lock sits on the hot path. Once a worker has met its largest
//! experiment, flow reconstruction and the per-flow loop allocate only to
//! intern a new name or build a PII finding. Experiment generation is
//! seeded per (device, activity, rep, site, vpn), and every accumulator
//! merge is order-independent, so the report is byte-identical at any
//! worker count; the oracle's differential pillar
//! (`iot_oracle::differential`) is the one place that checks it.
//!
//! # Observability
//!
//! A run is instrumented through `iot-obs` when its caller asks with
//! [`Pipeline::with_obs`]`(true)`: spans around campaign generation
//! and [`Pipeline::finish`]; one `shard` span per worker run, with
//! traffic synthesis (`shard/synth`), per-experiment ingest
//! (`shard/ingest`, with capture degradation, flow reconstruction,
//! destination mapping, encryption classification and the PII scan
//! under it, each named by its full `shard/ingest/…` path) and each
//! unit's commit (`shard/journal`: the sink lock, the journal append,
//! the fold and its live publication) under it — the tree
//! `iot_obs::folded_stacks` renders as a profile; counters for
//! experiments, packets, flows, total/per-[`EncryptionClass`] bytes, and
//! PII findings; histograms of per-experiment packet and per-flow byte
//! sizes; and per-worker load gauges (`worker.N.experiments`). Every
//! span is measured by the one stage meter, `iot_obs::Meter` (time, plus
//! heap traffic while the allocator counts): inside a guard for nested
//! regions, held by hand for `shard`, `shard/synth` and `shard/journal`,
//! and summed over an experiment's flows for the three per-flow stages,
//! each recorded once per experiment. Each worker records into its own
//! registry, and the registries merge into the pipeline's when the
//! workers end. [`Pipeline::finish_with_obs`]
//! returns the merged registry for report emission; the pipeline report
//! itself is byte-identical with observability on or off.
//!
//! # Degraded captures
//!
//! [`Pipeline::set_fault_plan`] inserts an `iot-chaos` fault injector
//! between experiment generation and analysis: each experiment's capture
//! is degraded (drops, truncation, bit-flips, corrupt record headers,
//! torn tails — see `iot_chaos::FaultPlan`), then re-read through the
//! lenient pcap salvage path. The fault key is derived from the
//! experiment's identity `(device, site, vpn, label, rep)`, never from
//! ingestion order, so a faulted campaign is still byte-identical across
//! worker counts. Analysis runs inside a `catch_unwind` boundary: a
//! panicking experiment is quarantined — its packets counted, its
//! accumulator contributions zero — instead of killing the run. A panic
//! that escapes that boundary costs its unit: the unit is neither
//! journaled nor folded, the ledger gains one `worker_panic` marker, and
//! the worker goes on with the next unit. The whole ledger is an
//! [`IngestStats`] in the report (`"ingest"` in the JSON), whose
//! conservation invariant the oracle checks at every fault rate it
//! sweeps.
//!
//! # Supervision
//!
//! [`SupervisorConfig`] arms a checkpoint journal of unit deltas
//! (DESIGN.md §15): `resume` replays it, re-runs only the remainder and
//! appends those units to the same file, and the report is
//! byte-identical to a straight-through run. Every run — including
//! resumed ones — also maintains a [`Coverage`] manifest (`"coverage"` in
//! the JSON): what completed and what was quarantined, per lab × device.

use crate::destinations::{ColumnCtx, DestCtx, DestinationAnalysis};
use crate::encryption::{ClassBytes, EncryptionAnalysis, Table8Row};
use crate::flows::{ExperimentFlows, LabelCtx, LabeledFlow};
use crate::ingest::IngestStats;
use crate::pii::{findings_for_flow, scan_flow, PatternCache, PiiFinding, PiiPatterns};
use crate::supervise::{
    campaign_fingerprint, read_journal, unit_identities, Coverage, CoverageOutcome, JournalError,
    JournalWriter, SuperviseSummary, SupervisorConfig, UnitDelta,
};
use iot_chaos::{stream_key, FaultInjector, FaultPlan};
use iot_core::json::{Json, ToJson};
use iot_entropy::{EncryptionClass, EntropyScratch};
use iot_geodb::party::PartyType;
use iot_geodb::registry::GeoDb;
use iot_net::pcap::{Capture, PcapCursor, GLOBAL_HEADER_LEN};
use iot_obs::{Meter, Registry};
use iot_testbed::catalog;
use iot_testbed::experiment::LabeledExperiment;
use iot_testbed::lab::{Lab, LabSite};
use iot_testbed::schedule::{Campaign, CampaignConfig};
use iot_testbed::traffic::{identity_of, DeviceIdentity};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Message carried by chaos-injected ingest panics, so logs can tell a
/// drill from a real defect.
pub const INJECTED_PANIC_MSG: &str = "chaos: injected ingest panic";

/// The fault key of one experiment: a digest of its identity tuple
/// `(device, site, vpn, label, rep)` — the same tuple that makes
/// experiments unique within a campaign. Crucially *not* a function of
/// ingestion order, so every worker count degrades every experiment
/// identically.
fn experiment_fault_key(exp: &LabeledExperiment) -> u64 {
    stream_key(
        exp.device_name,
        stream_key(&exp.label, u64::from(exp.rep))
            ^ ((exp.site as u64) << 32)
            ^ ((exp.vpn as u64) << 40),
    )
}

/// Rep-invariant variant of [`experiment_fault_key`]: the rep index is
/// dropped (salted as zero), so every repetition of the same
/// (device, site, vpn, label) identity draws the *same* faults. Enabled
/// by `FaultPlan::rep_invariant_fault_keys`, this makes faulted runs
/// comparable under the oracle's rep-relabel metamorphic relation while
/// staying byte-identical across worker counts.
fn experiment_fault_key_rep_invariant(exp: &LabeledExperiment) -> u64 {
    stream_key(
        exp.device_name,
        stream_key(&exp.label, 0) ^ ((exp.site as u64) << 32) ^ ((exp.vpn as u64) << 40),
    )
}

/// Device identities (the PII scan's ground truth) per (device, site).
type Identities = HashMap<(&'static str, LabSite), DeviceIdentity>;

fn identities_of(labs: &[Lab]) -> Identities {
    let mut identities = HashMap::new();
    for lab in labs {
        for d in &lab.devices {
            identities.insert((d.spec().name, d.site), identity_of(d));
        }
    }
    identities
}

/// What every worker of one run shares, read-only.
struct RunCtx<'a> {
    db: &'a GeoDb,
    identities: &'a Identities,
    fault: Option<&'a FaultInjector>,
    obs_enabled: bool,
}

/// Aggregate report over one campaign run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Experiments ingested.
    pub experiments: u64,
    /// Unique support-party destinations at native egress, per lab.
    pub support_destinations: HashMap<String, usize>,
    /// Unique third-party destinations at native egress, per lab.
    pub third_destinations: HashMap<String, usize>,
    /// Devices with at least one non-first-party destination, over total.
    pub devices_with_non_first: (usize, usize),
    /// Percent of bytes unencrypted / encrypted / unknown per lab.
    pub encryption_mix: HashMap<String, [f64; 3]>,
    /// All plaintext PII findings, sorted by [`PiiFinding::sort_key`].
    pub pii_findings: Vec<PiiFinding>,
    /// Ingest ledger: what was generated, salvaged, and quarantined.
    pub ingest: IngestStats,
    /// Coverage manifest: per-(lab × device) experiment outcomes and the
    /// degraded-run flag.
    pub coverage: Coverage,
}

impl ToJson for PipelineReport {
    /// Emits the report with deterministic bytes: map-backed members are
    /// sorted by key and findings are pre-sorted by `finish`, so the same
    /// campaign always yields the same JSON regardless of worker count
    /// and of hash-map iteration order.
    fn to_json(&self) -> Json {
        let sorted_map = |m: &HashMap<String, usize>| {
            let mut obj = Json::obj();
            let mut keys: Vec<&String> = m.keys().collect();
            keys.sort();
            for k in keys {
                obj.set(k, m[k].to_json());
            }
            obj
        };
        let mut mix = Json::obj();
        let mut mix_keys: Vec<&String> = self.encryption_mix.keys().collect();
        mix_keys.sort();
        for k in mix_keys {
            mix.set(k, self.encryption_mix[k].to_vec().to_json());
        }
        let mut j = Json::obj();
        j.set("experiments", self.experiments.to_json());
        j.set("ingest", self.ingest.to_json());
        j.set("coverage", self.coverage.to_json());
        j.set("support_destinations", sorted_map(&self.support_destinations));
        j.set("third_destinations", sorted_map(&self.third_destinations));
        j.set(
            "devices_with_non_first",
            Json::Arr(vec![
                self.devices_with_non_first.0.to_json(),
                self.devices_with_non_first.1.to_json(),
            ]),
        );
        j.set("encryption_mix", mix);
        j.set("pii_findings", self.pii_findings.to_json());
        j
    }
}

/// A worker's result-neutral state, kept from one experiment to the next:
/// which cache a value came from never reaches a result.
#[derive(Default)]
struct Caches {
    /// The domain intern pool: the flows this worker labels with one name
    /// share one allocation.
    label_ctx: LabelCtx,
    /// Compiled PII pattern sets per (device, site).
    pii_patterns: PatternCache,
    /// Entropy term tables, one per payload length seen.
    entropy: EntropyScratch,
    /// The flow pool: every experiment's flows are rebuilt in it, so its
    /// table and payload buffers grow to the worker's largest experiment
    /// (at most 16 KiB of payload per flow) and then stop.
    flows: ExperimentFlows,
}

/// One worker of a run. Its caches and metric registry are
/// result-neutral, so they live as long as the worker; everything that
/// reaches the report accumulates per unit in a [`UnitDelta`].
struct Worker {
    idx: usize,
    caches: Caches,
    /// Worker-local metrics, merged into the pipeline's registry when
    /// the worker ends.
    obs: Registry,
    /// Experiments ingested by this worker's folded units.
    experiments: u64,
    /// The worker's whole run: `shard`.
    shard: Meter,
}

impl Worker {
    /// Sets worker `idx` up on the calling thread.
    fn new(idx: usize, ctx: &RunCtx<'_>) -> Self {
        let obs = Registry::with_enabled(ctx.obs_enabled);
        Worker {
            idx,
            shard: Meter::started(&obs),
            caches: Caches::default(),
            obs,
            experiments: 0,
        }
    }

    /// Stamps the worker's run time and gauges, and hands back its
    /// registry for merging.
    fn finish(self) -> Registry {
        // A meter, not a guard: a guard cannot borrow the registry the
        // worker owns. Its children are recorded by full path, `shard/…`.
        self.shard.record(&self.obs, "shard");
        if self.obs.enabled() {
            let idx = self.idx;
            self.obs.set_gauge(
                &format!("worker.{idx}.experiments"),
                self.experiments as f64,
            );
            if iot_obs::alloc::enabled() {
                // Gauges max-merge, so every worker's peak survives.
                self.obs.set_gauge(
                    &format!("worker.{idx}.alloc_high_water_bytes"),
                    iot_obs::alloc::thread_high_water_bytes() as f64,
                );
            }
        }
        self.obs
    }

    /// The one path for a panic that escaped the per-experiment boundary
    /// (a defect in generation, degradation, or the worker itself): the
    /// unit is lost — its partial delta is dropped and nothing is
    /// journaled, so a resume re-runs it — and the worker starts over
    /// with fresh caches. Returns the `worker_panic` marker to fold.
    fn recover(&mut self, unit: u32, payload: &(dyn Any + Send)) -> UnitDelta {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        eprintln!(
            "pipeline: worker {} panicked in unit {unit} ({what}); the unit is lost \
             and stays resumable",
            self.idx
        );
        self.caches = Caches::default();
        let mut marker = UnitDelta::new(unit);
        marker.ingest.shards_quarantined = 1;
        marker.ingest.add_stage_error("worker_panic");
        marker
    }

    /// Ingests one experiment into the unit accumulator `acc`: fault
    /// injection, the quarantine boundary, and the ledger. The
    /// experiment is borrowed: only a faulted run builds a degraded copy
    /// to analyze instead.
    fn ingest(&mut self, ctx: &RunCtx<'_>, acc: &mut UnitDelta, exp: &LabeledExperiment) {
        // Split the borrow: the span guard pins `obs` (shared) for the
        // whole ingest while the quarantine closure below captures the
        // caches mutably.
        let Worker { caches, obs, .. } = self;
        let site = exp.site;
        let device = exp.device_name;
        let _ingest_span = obs.span("shard/ingest");
        acc.ingest.packets_generated += exp.packet_count() as u64;
        let mut inject_panic = false;
        let degraded;
        let exp = match ctx.fault {
            None => exp,
            Some(inj) => {
                // Fault draws are keyed by the experiment's identity
                // digest, optionally without the rep index (the oracle's
                // rep-relabel relation needs rep-invariant fault
                // schedules).
                let fkey = if inj.plan().rep_invariant_fault_keys {
                    experiment_fault_key_rep_invariant(exp)
                } else {
                    experiment_fault_key(exp)
                };
                inject_panic = inj.should_panic(fkey);
                degraded = degrade_capture(inj, fkey, exp, &mut acc.ingest, obs);
                &degraded
            }
        };
        let salvaged = exp.packet_count() as u64;
        // The quarantine boundary: a panic here — injected by the chaos
        // plan or real — costs this one experiment, not the run. The
        // injected panic fires before any accumulator or obs mutation,
        // so a quarantined experiment contributes exactly nothing and
        // the report stays deterministic.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("{INJECTED_PANIC_MSG}");
            }
            analyze_experiment(ctx, caches, acc, obs, exp);
        }));
        let ingest = &mut acc.ingest;
        let outcome = match ran {
            Ok(()) => {
                ingest.packets_ingested += salvaged;
                ingest.experiments_ingested += 1;
                acc.experiments += 1;
                CoverageOutcome::Completed
            }
            Err(_) => {
                ingest.add_stage_error("ingest_panic");
                ingest.packets_quarantined += salvaged;
                ingest.experiments_quarantined += 1;
                CoverageOutcome::Quarantined
            }
        };
        acc.coverage.record(site, device, outcome);
    }
}

/// Where finished units go, under one lock: the journal first, then the
/// fold, so what the journal holds is exactly what a resume replays.
struct Sink<'a> {
    pipeline: &'a mut Pipeline,
    journal: Option<JournalWriter>,
    /// The first journal failure; the run takes no units after it.
    error: Option<std::io::Error>,
}

impl Sink<'_> {
    /// Journals and folds one finished unit; `false` once the journal
    /// has failed.
    fn commit(&mut self, delta: UnitDelta) -> bool {
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.append(&delta) {
                self.error.get_or_insert(e);
                return false;
            }
        }
        self.pipeline.fold(delta);
        true
    }
}

/// Degrades one experiment's capture through the fault injector and
/// re-reads it through the lenient salvage path into an owned copy of the
/// experiment, keeping the ledger exact: every generated packet ends up
/// ingested, dropped, or lost.
fn degrade_capture(
    inj: &FaultInjector,
    key: u64,
    exp: &LabeledExperiment,
    ledger: &mut IngestStats,
    obs: &Registry,
) -> LabeledExperiment {
    let _s = obs.span("shard/ingest/degrade");
    // The injector borrows frames straight out of the pristine capture's
    // byte buffer — no packet materialization on either side of the
    // degradation.
    let (bytes, fstats) = inj.degrade_capture(key, &exp.capture);
    ledger.packets_dropped += fstats.packets_dropped;
    ledger.packets_duplicated += fstats.packets_duplicated;
    ledger.records_corrupted += fstats.headers_corrupted;
    // The injector writes a valid 24-byte global header and never
    // garbles or tears it (its byte faults start at `GLOBAL_HEADER_LEN`),
    // and the lenient reader fails only on that header.
    let mut cur =
        PcapCursor::lenient(&bytes).expect("the injector leaves the pcap global header intact");
    // Walk the degraded bytes once through the lenient salvage cursor,
    // folding surviving frames into a fresh writer-clean capture: one
    // contiguous buffer, not a Vec per packet, allocated once: salvage
    // keeps at most the degraded records. The salvage ledger reads off
    // the same walk.
    let mut salvaged = Capture::with_capacity(bytes.len() - GLOBAL_HEADER_LEN);
    while let Some(view) = cur.next_view() {
        let view = view.expect("lenient cursor surfaces no errors");
        salvaged
            .push(view.ts_micros, view.data)
            .expect("salvaged timestamps fit the pcap format");
    }
    let sstats = cur.stats();
    ledger.packets_lost += fstats.records_written - salvaged.record_count() as u64;
    ledger.packets_truncated += sstats.records_truncated;
    ledger.salvage_resyncs += sstats.resyncs;
    ledger.salvage_bytes_skipped += sstats.bytes_skipped;
    ledger.torn_tail_bytes += sstats.torn_tail_bytes;
    if !sstats.is_pristine() {
        ledger.add_stage_error("salvage");
    }
    LabeledExperiment {
        device_name: exp.device_name,
        site: exp.site,
        vpn: exp.vpn,
        kind: exp.kind,
        label: exp.label.clone(),
        activity: exp.activity,
        rep: exp.rep,
        capture: salvaged,
    }
}

/// One experiment's analyses into the unit accumulator `acc`: flow
/// reconstruction rebuilds the worker's flow pool with the experiment's
/// flows (several stages borrow each flow), then [`analyze_flows`] runs
/// the per-flow stages over them in one pass. A free function (not a
/// `Worker` method) so the quarantine closure can capture the worker's
/// caches disjointly from the live ingest span.
fn analyze_experiment(
    run: &RunCtx<'_>,
    caches: &mut Caches,
    acc: &mut UnitDelta,
    obs: &Registry,
    exp: &LabeledExperiment,
) {
    obs.add("experiments", 1);
    obs.add("packets", exp.packet_count() as u64);
    obs.observe("experiment_packets", exp.packet_count() as u64);
    let Caches {
        label_ctx,
        pii_patterns,
        entropy,
        flows,
    } = caches;
    {
        let _s = obs.span("shard/ingest/flows");
        flows.rebuild(exp, label_ctx);
    }
    if flows.unparsed_packets > 0 {
        // Frames salvage recovered but frame parsing rejected: still
        // ingested, classified as unparseable rather than erroring out.
        acc.ingest.packets_unparseable += flows.unparsed_packets;
        acc.ingest.add_stage_error("flows_parse");
    }
    obs.add("flows", flows.flows.len() as u64);
    obs.add("bytes", flows.total_bytes());
    if obs.enabled() {
        for lf in &flows.flows {
            obs.observe("flow_bytes", lf.flow.total_bytes());
        }
    }
    let ctx = FlowCtx::of(exp, run.identities, pii_patterns);
    let pii_before = acc.pii.len();
    let tally = analyze_flows(&ctx, run.db, &flows.flows, acc, entropy, obs);
    acc.encryption.add_sample(exp, &tally);
    if ctx.scan.is_some() {
        obs.add("pii_findings", (acc.pii.len() - pii_before) as u64);
    }
}

/// What the per-flow stages need of one experiment, built once before
/// its flow loop, without allocating: the destination labeling inputs,
/// the experiment's Table 8 rows, and the compiled PII patterns with the
/// manufacturer's organization (`None` for a device without an identity:
/// no scan).
struct FlowCtx<'a> {
    exp: &'a LabeledExperiment,
    dest: Option<DestCtx>,
    rows: &'static [Table8Row],
    scan: Option<(&'a PiiPatterns, &'static str)>,
}

impl<'a> FlowCtx<'a> {
    fn of(
        exp: &'a LabeledExperiment,
        identities: &Identities,
        pii_patterns: &'a mut PatternCache,
    ) -> Self {
        let identity = identities.get(&(exp.device_name, exp.site));
        let scan = match (identity, catalog::by_name(exp.device_name)) {
            (Some(identity), Some(spec)) => Some((
                pii_patterns.get(exp.device_name, exp.site, identity),
                spec.manufacturer_org,
            )),
            _ => None,
        };
        FlowCtx {
            exp,
            dest: DestCtx::of(exp),
            rows: EncryptionAnalysis::rows_of(exp),
            scan,
        }
    }
}

/// The one per-flow loop: feeds each flow to destination mapping,
/// encryption classification and the PII scan, in that order, and
/// returns the experiment's bytes per encryption class. DNS and DHCP
/// flows, LAN-side infrastructure chatter, skip destinations and PII
/// ([`LabeledFlow::is_internet`]). Each stage is timed on its own
/// meter, summed over the flows and recorded once per experiment under
/// its `shard/ingest/…` path. Once the caches and accumulator keys are
/// warm, the loop allocates only to build PII findings
/// (`fused_per_flow_loop_is_allocation_free_after_warmup`).
fn analyze_flows(
    ctx: &FlowCtx<'_>,
    db: &GeoDb,
    flows: &[LabeledFlow],
    acc: &mut UnitDelta,
    entropy: &mut EntropyScratch,
    obs: &Registry,
) -> ClassBytes {
    let mut dest_meter = Meter::new(obs);
    let mut enc_meter = Meter::new(obs);
    let mut pii_meter = Meter::new(obs);
    let mut tally = ClassBytes::default();
    for lf in flows {
        let internet = lf.is_internet();
        if let (true, Some(dest)) = (internet, &ctx.dest) {
            dest_meter.measure(|| acc.destinations.add_flow(ctx.exp, dest, lf));
        }
        enc_meter.measure(|| acc.encryption.add_flow(ctx.exp, ctx.rows, lf, &mut tally, entropy));
        if let (true, Some((patterns, manufacturer_org))) = (internet, ctx.scan) {
            pii_meter.measure(|| {
                let hits = scan_flow(patterns, lf);
                if !hits.is_empty() {
                    findings_for_flow(db, ctx.exp, manufacturer_org, lf, hits, &mut acc.pii);
                }
            });
        }
    }
    dest_meter.record(obs, "shard/ingest/destinations");
    enc_meter.record(obs, "shard/ingest/encryption");
    pii_meter.record(obs, "shard/ingest/pii");
    tally
}

/// The pipeline driver. Owns the registry and the accumulated analyses so
/// callers can also drill into them after a run.
pub struct Pipeline {
    /// Destination analysis (RQ1).
    pub destinations: DestinationAnalysis,
    /// Encryption analysis (RQ2).
    pub encryption: EncryptionAnalysis,
    /// PII findings (RQ3).
    pub pii: Vec<PiiFinding>,
    /// Ingest ledger across all units (salvage + quarantine accounting).
    pub ingest: IngestStats,
    /// Coverage manifest across all units.
    pub coverage: Coverage,
    experiments: u64,
    fault: Option<FaultInjector>,
    obs: Registry,
}

impl Pipeline {
    /// Creates an empty pipeline that records metrics when `obs_enabled`.
    /// The one constructor, so every caller decides whether it records;
    /// the overhead benchmark measures both modes in one process through
    /// it.
    pub fn with_obs(obs_enabled: bool) -> Self {
        Pipeline {
            destinations: DestinationAnalysis::new(),
            encryption: EncryptionAnalysis::default(),
            pii: Vec::new(),
            ingest: IngestStats::default(),
            coverage: Coverage::new(),
            experiments: 0,
            fault: None,
            obs: Registry::with_enabled(obs_enabled),
        }
    }

    /// Experiments successfully ingested so far.
    pub fn experiments(&self) -> u64 {
        self.experiments
    }

    /// Arms the fault injector: every capture ingested from now on is
    /// degraded per `plan` and re-read through the lenient salvage path.
    /// Faults are keyed by experiment identity, so runs of the same plan
    /// produce byte-identical reports at any worker count.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan));
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(FaultInjector::plan)
    }

    /// The one fold: merges a unit's delta — freshly computed, replayed
    /// from a journal, or a lost unit's marker — into the accumulators.
    fn fold(&mut self, delta: UnitDelta) {
        self.destinations.merge(delta.destinations);
        self.encryption.merge(delta.encryption);
        self.pii.extend(delta.pii);
        self.ingest.merge(&delta.ingest);
        self.coverage.merge(&delta.coverage);
        self.experiments += delta.experiments;
        self.publish_live("folding");
    }

    /// Renders and publishes the live-telemetry documents when an
    /// `iot_obs::serve` endpoint is running; no-op (no rendering, no locks)
    /// otherwise. Called at fold boundaries only, so the ingest hot path
    /// never pays for a listener.
    fn publish_live(&self, phase: &str) {
        if !iot_obs::serve::active() || !self.obs.enabled() {
            return;
        }
        let snapshot = self.obs.snapshot();
        let metrics = iot_obs::prometheus(&snapshot);
        let mut progress = Json::obj();
        progress.set("phase", phase.to_json());
        progress.set("experiments", self.experiments.to_json());
        progress.set("ingest", self.ingest.to_json());
        progress.set("coverage", self.coverage.to_json());
        if iot_obs::alloc::enabled() {
            let totals = iot_obs::alloc::process_totals();
            let mut alloc = Json::obj();
            alloc.set("bytes_total", totals.bytes_allocated.to_json());
            alloc.set("allocs_total", totals.allocs.to_json());
            alloc.set("live_bytes", iot_obs::alloc::process_live_bytes().to_json());
            progress.set("alloc", alloc);
        }
        iot_obs::serve::publish(metrics, progress.dump(), iot_obs::folded_stacks(&snapshot));
    }

    /// Runs a full campaign (controlled + idle) through every analysis:
    /// the one driver with a single worker on the calling thread and
    /// default [`SupervisorConfig`] knobs.
    pub fn run_campaign(&mut self, config: CampaignConfig) {
        self.run_campaign_supervised(config, 1, &SupervisorConfig::default())
            .expect("a run without a journal cannot fail to journal");
    }

    /// Ingests an arbitrary stream of experiments through the driver's
    /// worker and fold (fault plan, quarantine boundary, and ledger
    /// included), on the calling thread, pulling one experiment at a
    /// time. The stream is one unit. Device identities are resolved from
    /// both lab deployments, so any experiment a campaign could produce
    /// is accepted — in any order. This is the entry point the
    /// `iot-oracle` metamorphic relations use to replay permuted,
    /// relabeled, or filtered campaigns.
    pub fn ingest_experiments<I>(&mut self, experiments: I)
    where
        I: IntoIterator<Item = LabeledExperiment>,
    {
        let identities = {
            let _s = self.obs.span("identities");
            identities_of(&LabSite::all().map(Lab::deploy))
        };
        let fault = self.fault;
        let ctx = RunCtx {
            db: GeoDb::shared(),
            identities: &identities,
            fault: fault.as_ref(),
            obs_enabled: self.obs.enabled(),
        };
        let mut worker = Worker::new(0, &ctx);
        let mut delta = UnitDelta::new(0);
        for exp in experiments {
            worker.ingest(&ctx, &mut delta, &exp);
        }
        worker.experiments += delta.experiments;
        {
            let _journal = worker.obs.span("shard/journal");
            self.fold(delta);
        }
        self.obs.set_gauge("workers", 1.0);
        self.obs.merge(worker.finish());
        self.publish_live("folded");
    }

    /// Runs a full campaign under supervision (DESIGN.md §15): `workers`
    /// workers — the calling thread plus `workers − 1` spawned ones —
    /// pull (lab × device) work units from a shared queue; each finished
    /// unit's accumulator delta is appended to the checkpoint journal
    /// (when `sup.journal` is set) and folded at once.
    ///
    /// With `sup.resume`, the journal is replayed first — its completed
    /// units folded straight into the accumulators — then cut back to
    /// its clean prefix, and only the remaining units run, appending to
    /// the same file; a missing journal is its `NotFound` I/O error, and
    /// nothing runs. The resulting report is
    /// byte-identical to a straight-through run of the same
    /// configuration. A journal written by a different campaign config,
    /// fault plan or work-unit grid is refused with a typed error rather
    /// than silently producing a hybrid report.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn run_campaign_supervised(
        &mut self,
        config: CampaignConfig,
        workers: usize,
        sup: &SupervisorConfig,
    ) -> Result<SuperviseSummary, JournalError> {
        let campaign = {
            let _s = self.obs.span("campaign_new");
            Campaign::new(config)
        };
        self.run_units(&campaign, workers, sup, |db, unit, lend| {
            campaign.lend_unit(db, unit, lend)
        })
    }

    /// The driver behind [`Pipeline::run_campaign_supervised`]. `source`
    /// lends one unit's experiments; outside tests it is the campaign's
    /// own generator.
    fn run_units<S>(
        &mut self,
        campaign: &Campaign,
        workers: usize,
        sup: &SupervisorConfig,
        source: S,
    ) -> Result<SuperviseSummary, JournalError>
    where
        S: Fn(&GeoDb, usize, &mut dyn FnMut(&LabeledExperiment)) + Sync,
    {
        assert!(workers > 0, "workers must be positive");
        let identities = {
            let _s = self.obs.span("identities");
            identities_of(campaign.labs())
        };
        let unit_count = campaign.unit_count();
        let fingerprint = campaign_fingerprint(&campaign.config, self.fault_plan(), None, 0);
        let mut summary = SuperviseSummary {
            units_total: unit_count,
            ..SuperviseSummary::default()
        };
        let grid_identities = unit_identities(campaign);
        let mut done = std::collections::BTreeSet::new();
        let mut journal: Option<JournalWriter> = None;
        if let Some(path) = &sup.journal {
            if sup.resume {
                let contents = read_journal(path)?;
                if contents.fingerprint != fingerprint {
                    return Err(JournalError::ConfigMismatch {
                        expected: fingerprint,
                        found: contents.fingerprint,
                    });
                }
                if contents.identities != grid_identities {
                    return Err(JournalError::GridMismatch {
                        expected_units: grid_identities.len(),
                        found_units: contents.identities.len(),
                    });
                }
                summary.units_replayed = contents.deltas.len();
                summary.salvage = Some(contents.salvage);
                journal = Some(JournalWriter::append_to(path, contents.clean_len)?);
                // Metrics describe work this process performed, so
                // replayed units fold into the report but not the
                // registry.
                for delta in contents.deltas {
                    done.insert(delta.unit);
                    self.fold(delta);
                }
            } else {
                journal = Some(JournalWriter::create(path, fingerprint, &grid_identities, None)?);
            }
        }
        let remaining: Vec<u32> = (0..unit_count as u32)
            .filter(|u| !done.contains(u))
            .collect();
        summary.units_run = remaining.len();
        self.publish_live("generated");
        let workers = workers.min(remaining.len());
        let fault = self.fault;
        let ctx = RunCtx {
            db: GeoDb::shared(),
            identities: &identities,
            fault: fault.as_ref(),
            obs_enabled: self.obs.enabled(),
        };
        let queue = AtomicUsize::new(0);
        let sink = Mutex::new(Sink {
            pipeline: &mut *self,
            journal,
            error: None,
        });
        // The worker loop, run by the calling thread as worker 0 and by
        // every spawned thread.
        let work = |idx: usize| {
            let mut worker = Worker::new(idx, &ctx);
            // `shard/synth` and `shard/journal` are meters, not guards:
            // synthesis interleaves with `shard/ingest`, and a guard
            // cannot borrow `worker.obs` across `recover`.
            while let Some(&unit) = remaining.get(queue.fetch_add(1, Ordering::AcqRel)) {
                let mut delta = UnitDelta::new(unit);
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    // The source synthesizes each experiment before its
                    // callback; that is `shard/synth`.
                    let mut synth = Meter::started(&worker.obs);
                    source(ctx.db, unit as usize, &mut |exp| {
                        synth.record(&worker.obs, "shard/synth");
                        worker.ingest(&ctx, &mut delta, exp);
                        synth = Meter::started(&worker.obs);
                    });
                }));
                // The sink lock, the journal append, the fold and its live
                // publication: `shard/journal`, one call per unit run here.
                let journal = Meter::started(&worker.obs);
                // Poisoned only by a fold that panicked; the join below
                // re-raises that panic, so the others just drain the queue.
                let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
                match ran {
                    Ok(()) => {
                        let experiments = delta.experiments;
                        if sink.commit(delta) {
                            worker.experiments += experiments;
                        } else {
                            // The journal failed: empty the queue so every
                            // worker stops after its unit in flight.
                            queue.store(remaining.len(), Ordering::Release);
                        }
                    }
                    Err(payload) => sink.pipeline.fold(worker.recover(unit, payload.as_ref())),
                }
                drop(sink);
                journal.record(&worker.obs, "shard/journal");
            }
            worker.finish()
        };
        let registries: Vec<Registry> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|idx| scope.spawn(move || work(idx)))
                .collect();
            let mut registries = Vec::with_capacity(workers);
            if workers > 0 {
                registries.push(work(0));
            }
            for handle in spawned {
                // Panics inside a unit were recovered above; anything that
                // still unwinds is a defect in the fold itself.
                registries.push(
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                );
            }
            registries
        });
        let error = sink
            .into_inner()
            .expect("a panic under the sink lock was re-raised at the join")
            .error;
        self.obs.set_gauge("workers", workers as f64);
        for registry in registries {
            self.obs.merge(registry);
        }
        if let Some(e) = error {
            return Err(JournalError::Io(e));
        }
        self.publish_live("folded");
        Ok(summary)
    }

    /// Builds the aggregate report, discarding the metric registry.
    pub fn finish(self) -> PipelineReport {
        self.finish_with_obs().0
    }

    /// Builds the aggregate report from the current accumulator state
    /// *without* consuming the pipeline. This is the post-pass hook the
    /// `iot-oracle` correctness harness uses: the report and the live
    /// accumulators stay available side by side, so invariant checks can
    /// recompute every derived field and compare.
    pub fn build_report(&self) -> PipelineReport {
        let mut support_destinations = HashMap::new();
        let mut third_destinations = HashMap::new();
        let mut encryption_mix = HashMap::new();
        for site in LabSite::all() {
            let ctx = ColumnCtx {
                site,
                vpn: false,
                common_only: false,
            };
            support_destinations.insert(
                site.name().to_string(),
                self.destinations.unique_destinations_total(ctx, PartyType::Support),
            );
            third_destinations.insert(
                site.name().to_string(),
                self.destinations.unique_destinations_total(ctx, PartyType::Third),
            );
            let mut agg = ClassBytes::default();
            for (_, cb) in self.encryption.device_bytes(site, false) {
                agg.merge(&cb);
            }
            encryption_mix.insert(
                site.name().to_string(),
                [
                    agg.percent(EncryptionClass::LikelyUnencrypted),
                    agg.percent(EncryptionClass::LikelyEncrypted),
                    agg.percent(EncryptionClass::Unknown),
                ],
            );
        }
        // Findings accumulate in worker-dependent order; sort for stable
        // report bytes (see PiiFinding::sort_key).
        let mut pii_findings = self.pii.clone();
        pii_findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        PipelineReport {
            experiments: self.experiments,
            support_destinations,
            third_destinations,
            devices_with_non_first: self.destinations.devices_with_non_first_party(),
            encryption_mix,
            pii_findings,
            ingest: self.ingest.clone(),
            coverage: self.coverage.clone(),
        }
    }

    /// Builds the aggregate report and hands back the merged metric
    /// registry, from which callers emit an `iot_obs::RunReport`. Also
    /// records corpus-level counters (`bytes_unencrypted` / `_encrypted`
    /// / `_unknown`) so the byte mix survives into the run report.
    pub fn finish_with_obs(self) -> (PipelineReport, Registry) {
        let finish = self.obs.span("finish");
        if self.obs.enabled() {
            let ingest = &self.ingest;
            let mix = self.encryption.total_bytes_by_class();
            self.obs.add("bytes_unencrypted", mix.unencrypted);
            self.obs.add("bytes_encrypted", mix.encrypted);
            self.obs.add("bytes_unknown", mix.unknown);
            // Mirror the ingest ledger as counters, nonzero values only:
            // a clean run's metric report keeps exactly its pre-chaos
            // counter set, while any degradation becomes visible to the
            // same tooling that reads the rest of the metrics. The three
            // volume counters stay out: they are non-zero in every run.
            for (name, value) in ingest.counters() {
                let volume = matches!(
                    name,
                    "packets_generated" | "packets_ingested" | "experiments_ingested"
                );
                if value > 0 && !volume {
                    self.obs.add(&format!("ingest.{name}"), value);
                }
            }
            for (stage, n) in &ingest.stage_errors {
                self.obs.add(&format!("ingest.errors.{stage}"), *n);
            }
            // Coverage manifest mirror: deterministic totals (they fold
            // from the same accumulators the report does), nonzero only —
            // a clean run carries exactly `coverage.completed`.
            let totals = self.coverage.totals();
            for (name, value) in [
                ("coverage.completed", totals.completed),
                ("coverage.quarantined", totals.quarantined),
            ] {
                if value > 0 {
                    self.obs.add(name, value);
                }
            }
        }
        let report = self.build_report();
        drop(finish);
        // Campaign memory footprint, stamped once the report exists so
        // the gauges cover the whole run: the allocator's live bytes and
        // the kernel's VmHWM, the process's peak (each worker's own heap
        // peak is its `worker.N.alloc_high_water_bytes`). Gauges are
        // excluded from the deterministic subset, so worker-dependent
        // byte counts never threaten report identity.
        if self.obs.enabled() && iot_obs::alloc::enabled() {
            self.obs.set_gauge(
                "alloc.live_bytes",
                iot_obs::alloc::process_live_bytes() as f64,
            );
            if let Some(rss) = iot_obs::process::peak_rss_bytes() {
                self.obs.set_gauge("peak_rss_bytes", rss as f64);
            }
        }
        self.publish_live("finished");
        (report, self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            automated_reps: 1,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.02,
            include_vpn: false,
        }
    }

    /// Every experiment of the campaign, unit by unit.
    fn all_experiments(campaign: &Campaign, db: &GeoDb) -> Vec<LabeledExperiment> {
        let mut experiments = Vec::new();
        for unit in 0..campaign.unit_count() {
            campaign.run_unit(db, unit, |exp| experiments.push(exp));
        }
        experiments
    }

    #[test]
    fn pipeline_end_to_end() {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(CampaignConfig {
            idle_hours: 0.05,
            ..tiny_config()
        });
        let report = p.finish();
        assert!(report.experiments > 300);
        assert!(report.support_destinations["US"] > report.third_destinations["US"]);
        assert!(!report.pii_findings.is_empty());
        let mix = report.encryption_mix["US"];
        assert!((mix[0] + mix[1] + mix[2] - 100.0).abs() < 1e-6);
        // Report serializes for downstream tooling.
        let json = report.to_json().dump();
        assert!(json.contains("pii_findings"));
    }

    #[test]
    fn clean_run_ledger_is_clean_and_reconciles() {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(tiny_config());
        let report = p.finish();
        assert!(report.ingest.is_clean(), "{:?}", report.ingest);
        assert!(report.ingest.reconciles());
        assert!(report.ingest.packets_generated > 0);
        assert_eq!(report.ingest.experiments_ingested, report.experiments);
        assert!(report.to_json().dump().contains("\"ingest\""));
    }

    #[test]
    fn injected_panics_quarantine_experiments_not_the_run() {
        let plan = iot_chaos::FaultPlan {
            panic_rate: 0.2,
            ..iot_chaos::FaultPlan::clean(0xBAD5EED)
        };
        let mut with_panics = Pipeline::with_obs(false);
        with_panics.set_fault_plan(plan);
        with_panics.run_campaign(tiny_config());
        let report = with_panics.finish();
        let ingest = &report.ingest;
        assert!(ingest.experiments_quarantined > 0, "{ingest:?}");
        assert!(ingest.packets_quarantined > 0);
        assert!(ingest.reconciles(), "{ingest:?}");
        assert_eq!(ingest.stage_errors["ingest_panic"], ingest.experiments_quarantined);
        assert_eq!(
            report.experiments + ingest.experiments_quarantined,
            ingest.experiments_ingested + ingest.experiments_quarantined,
        );
        // The survivors were still analyzed.
        assert!(report.experiments > 0);
        assert!(!report.pii_findings.is_empty());
    }

    #[test]
    fn clean_fault_plan_leaves_report_unchanged() {
        let mut plain = Pipeline::with_obs(false);
        plain.run_campaign(tiny_config());
        let plain_json = plain.finish().to_json().dump();
        let mut armed = Pipeline::with_obs(false);
        armed.set_fault_plan(iot_chaos::FaultPlan::clean(1234));
        armed.run_campaign(tiny_config());
        let armed_json = armed.finish().to_json().dump();
        assert_eq!(
            plain_json, armed_json,
            "an all-zero-rate plan must be an exact identity"
        );
    }

    #[test]
    fn build_report_matches_finish_and_leaves_pipeline_usable() {
        let mut p = Pipeline::with_obs(false);
        p.run_campaign(tiny_config());
        let pre = p.build_report().to_json().dump();
        // The pipeline is still alive: accumulators remain inspectable
        // and a second build is identical.
        assert!(p.experiments() > 0);
        assert_eq!(p.build_report().to_json().dump(), pre);
        assert_eq!(p.finish().to_json().dump(), pre);
    }

    #[test]
    fn ingest_experiments_matches_run_campaign() {
        let config = tiny_config();
        let mut baseline = Pipeline::with_obs(false);
        baseline.run_campaign(config);
        let baseline_json = baseline.finish().to_json().dump();

        let experiments = all_experiments(&Campaign::new(config), &GeoDb::new());
        let mut replay = Pipeline::with_obs(false);
        replay.ingest_experiments(experiments);
        assert_eq!(replay.finish().to_json().dump(), baseline_json);
    }

    /// The hot-path invariant: once a worker's caches are warm (interned
    /// labels, compiled PII patterns, entropy term tables, the flow pool)
    /// and the accumulator tables have seen every key, a second pass over
    /// the same experiments builds each one's flow context, rebuilds its
    /// flows in the pool ([`ExperimentFlows::rebuild`]) and runs the
    /// per-flow loop ([`analyze_flows`]) with zero heap allocations, its
    /// stage meters included. Experiments whose scan produced PII
    /// findings run without the PII stage: constructing a finding
    /// allocates by design; that is per-finding work, not loop overhead.
    #[test]
    fn fused_per_flow_loop_is_allocation_free_after_warmup() {
        let db = GeoDb::new();
        let campaign = Campaign::new(tiny_config());
        let identities = identities_of(campaign.labs());
        let run = RunCtx {
            db: &db,
            identities: &identities,
            fault: None,
            obs_enabled: true,
        };
        let obs = Registry::with_enabled(true);
        let mut caches = Caches::default();
        let mut acc = UnitDelta::new(0);

        // Warm-up through the driver's own per-experiment analysis, which
        // warms every cache, the flow pool, every accumulator key and span
        // path; remember whether each experiment produced findings.
        let corpus = all_experiments(&campaign, &db);
        let mut had_findings = Vec::with_capacity(corpus.len());
        for exp in &corpus {
            let pii_before = acc.pii.len();
            analyze_experiment(&run, &mut caches, &mut acc, &obs, exp);
            had_findings.push(acc.pii.len() > pii_before);
        }
        assert!(had_findings.contains(&true), "corpus must exercise PII");

        // The measured pass, experiment by experiment as the worker runs
        // it. Its meters charge each stage's traffic to the registry.
        let Caches {
            label_ctx,
            pii_patterns,
            entropy,
            flows,
        } = &mut caches;
        let stages_before = obs.snapshot().span_allocs;
        let was = iot_obs::alloc::enabled();
        iot_obs::alloc::set_enabled(true);
        let mut measured = iot_obs::AllocStats::default();
        let (mut flows_measured, mut packets) = (0, 0);
        for (exp, &had_findings) in corpus.iter().zip(&had_findings) {
            let before = iot_obs::alloc::thread_snapshot();
            let mut ctx = FlowCtx::of(exp, &identities, pii_patterns);
            if had_findings {
                ctx.scan = None;
            }
            flows.rebuild(exp, label_ctx);
            analyze_flows(&ctx, &db, &flows.flows, &mut acc, entropy, &obs);
            measured.merge(&iot_obs::alloc::thread_snapshot().since(&before));
            flows_measured += flows.flows.len();
            packets += exp.packet_count();
        }
        iot_obs::alloc::set_enabled(was);
        assert!(flows_measured > 1000, "need a real corpus: {flows_measured}");
        assert_eq!(
            measured.allocs,
            0,
            "rebuilding flows and the per-flow loop must be allocation-free after \
             warm-up ({} experiments, {packets} packets, {flows_measured} flows): \
             {measured:?}\n stages before: {stages_before:?}\n stages after: {:?}",
            corpus.len(),
            obs.snapshot().span_allocs
        );
        assert_eq!(measured.bytes_allocated, 0);
    }

    /// The driver's source lends each experiment out of one capture
    /// buffer per unit, so walking a unit allocates fewer bytes than the
    /// captures it lends. A walk that grew every capture from empty in
    /// 1.25× steps allocated about six times their bytes.
    #[test]
    fn lending_walk_does_not_regrow_captures() {
        let db = GeoDb::new();
        let campaign = Campaign::new(CampaignConfig {
            automated_reps: 8,
            manual_reps: 3,
            power_reps: 3,
            idle_hours: 0.01,
            include_vpn: true,
        });
        let was = iot_obs::alloc::enabled();
        iot_obs::alloc::set_enabled(true);
        let mut capture_bytes = 0u64;
        let before = iot_obs::alloc::thread_snapshot();
        campaign.lend_unit(&db, 0, |exp| capture_bytes += exp.capture.byte_len() as u64);
        let walk = iot_obs::alloc::thread_snapshot().since(&before);
        iot_obs::alloc::set_enabled(was);
        assert!(
            capture_bytes > 1_000_000,
            "need a real unit: {capture_bytes} B"
        );
        assert!(
            walk.bytes_allocated < capture_bytes,
            "the walk allocated {} B for {capture_bytes} B of captures",
            walk.bytes_allocated
        );
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iot_pipeline_{tag}_{}.jnl", std::process::id()))
    }

    #[test]
    fn supervised_coverage_counts_every_experiment() {
        let mut p = Pipeline::with_obs(false);
        let summary = p
            .run_campaign_supervised(tiny_config(), 2, &SupervisorConfig::default())
            .unwrap();
        assert_eq!(summary.units_run, summary.units_total);
        assert_eq!(summary.units_replayed, 0);
        let report = p.finish();
        let totals = report.coverage.totals();
        assert_eq!(totals.completed, report.experiments);
        assert_eq!(totals.quarantined, 0);
        assert!(!report.coverage.is_degraded());
        let json = report.to_json().dump();
        assert!(json.contains("\"coverage\""), "{json}");
        assert!(json.contains("\"degraded\":false"));
    }

    #[test]
    fn worker_gauges_sum_to_the_report() {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(tiny_config(), 2, &SupervisorConfig::default())
            .unwrap();
        let (report, reg) = p.finish_with_obs();
        let per_worker: Vec<f64> = (0..2)
            .map(|w| {
                reg.gauge(&format!("worker.{w}.experiments"))
                    .unwrap_or_else(|| panic!("worker {w} has no load gauge"))
            })
            .collect();
        assert_eq!(reg.gauge("workers"), Some(2.0));
        assert_eq!(per_worker.iter().sum::<f64>(), report.experiments as f64);
    }

    #[test]
    fn folded_profile_renders_the_worker_span_tree() {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(tiny_config(), 2, &SupervisorConfig::default())
            .unwrap();
        let snap = p.finish_with_obs().1.snapshot();
        let folded = iot_obs::folded_stacks(&snap);
        let mut stacks = Vec::new();
        let mut weight_us = 0;
        for line in folded.lines() {
            let (stack, us) = line.rsplit_once(' ').unwrap();
            assert!(
                snap.spans.contains_key(&stack.replace(';', "/")),
                "{stack} is not a span path"
            );
            stacks.push(stack);
            weight_us += us.parse::<u64>().unwrap();
        }
        for want in ["shard;synth", "shard;ingest;flows", "shard;journal"] {
            assert!(stacks.contains(&want), "no {want} in:\n{folded}");
        }
        // Self times add up to the root spans' totals; each path drops
        // less than 1 µs to whole-microsecond weights.
        let roots_ns: u64 = snap
            .spans
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .map(|(_, h)| h.sum())
            .sum();
        let dropped_ns = roots_ns - weight_us * 1_000;
        assert!(
            dropped_ns < 1_000 * snap.spans.len() as u64,
            "{weight_us} µs of weights against {roots_ns} ns in root spans"
        );
    }

    /// `shard/journal` times each unit's commit on the worker that ran
    /// it: one call per unit run live, none for a unit a resume replays.
    #[test]
    fn shard_journal_records_one_call_per_live_unit() {
        let calls = |p: Pipeline| {
            let snap = p.finish_with_obs().1.snapshot();
            snap.spans.get("shard/journal").map_or(0, |h| h.count())
        };
        let path = temp_journal("journal_span");
        let _ = std::fs::remove_file(&path);
        let journal = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut straight = Pipeline::with_obs(true);
        let summary = straight
            .run_campaign_supervised(tiny_config(), 2, &journal)
            .unwrap();
        assert_eq!(calls(straight), summary.units_total as u64);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let resume = SupervisorConfig {
            resume: true,
            ..journal
        };
        let mut resumed = Pipeline::with_obs(true);
        let summary = resumed
            .run_campaign_supervised(tiny_config(), 2, &resume)
            .unwrap();
        assert!(summary.units_replayed > 0 && summary.units_run > 0, "{summary:?}");
        assert_eq!(calls(resumed), summary.units_run as u64);
        let _ = std::fs::remove_file(&path);
        // A caller's experiment stream is one unit.
        let mut fed = Pipeline::with_obs(true);
        let experiments = all_experiments(&Campaign::new(tiny_config()), &GeoDb::new());
        fed.ingest_experiments(experiments);
        assert_eq!(calls(fed), 1);
    }

    #[test]
    fn a_panic_escaping_the_experiment_boundary_costs_one_unit() {
        // Unit 3's generator dies midway; worker 0 (the calling thread)
        // runs it at 1 worker and possibly at 2.
        const LOST: usize = 3;
        let campaign = Campaign::new(tiny_config());
        let run = |workers: usize| {
            let mut p = Pipeline::with_obs(false);
            p.run_units(&campaign, workers, &SupervisorConfig::default(), |db, unit, lend| {
                let mut seen = 0;
                campaign.lend_unit(db, unit, |exp| {
                    if unit == LOST && seen == 2 {
                        panic!("synthetic generator defect");
                    }
                    seen += 1;
                    lend(exp);
                });
            })
            .unwrap();
            p.finish()
        };
        let mut lost_experiments = 0u64;
        campaign.run_unit(&GeoDb::new(), LOST, |_| lost_experiments += 1);
        let mut full = Pipeline::with_obs(false);
        full.run_campaign(tiny_config());
        let full = full.finish();

        let report = run(1);
        let ingest = &report.ingest;
        assert_eq!(ingest.shards_quarantined, 1, "{ingest:?}");
        assert_eq!(ingest.stage_errors.get("worker_panic"), Some(&1));
        assert!(ingest.reconciles(), "{ingest:?}");
        // Only the lost unit is missing: the worker went on after it.
        assert_eq!(report.experiments + lost_experiments, full.experiments);
        assert_eq!(run(2).to_json().dump(), report.to_json().dump());
    }

    #[test]
    fn journal_resume_is_byte_identical_to_straight_through() {
        let plan = iot_chaos::FaultPlan {
            panic_rate: 0.05,
            ..iot_chaos::FaultPlan::uniform(0x0B5E55ED, 0.01)
        };
        let mut reference = Pipeline::with_obs(false);
        reference.set_fault_plan(plan);
        reference.run_campaign(tiny_config());
        let reference_json = reference.finish().to_json().dump();

        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let sup_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut first = Pipeline::with_obs(false);
        first.set_fault_plan(plan);
        first
            .run_campaign_supervised(tiny_config(), 2, &sup_cfg)
            .unwrap();
        // Simulate a SIGKILL mid-campaign: amputate the journal tail at
        // an arbitrary byte (not a record boundary), keeping ~60%.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > 200, "journal must hold real records");
        std::fs::write(&path, &bytes[..bytes.len() * 6 / 10]).unwrap();
        let resume_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            resume: true,
        };
        let mut resumed = Pipeline::with_obs(false);
        resumed.set_fault_plan(plan);
        let summary = resumed
            .run_campaign_supervised(tiny_config(), 2, &resume_cfg)
            .unwrap();
        assert!(summary.units_replayed > 0, "truncated journal must replay");
        assert!(summary.units_run > 0, "and must leave work to re-run");
        assert_eq!(
            summary.units_replayed + summary.units_run,
            summary.units_total
        );
        assert_eq!(
            resumed.finish().to_json().dump(),
            reference_json,
            "resumed report must be byte-identical to straight-through"
        );
        // Resuming a *complete* journal replays everything and runs
        // nothing — still byte-identical.
        let mut replay_only = Pipeline::with_obs(false);
        replay_only.set_fault_plan(plan);
        let summary = replay_only
            .run_campaign_supervised(tiny_config(), 2, &resume_cfg)
            .unwrap();
        assert_eq!(summary.units_run, 0);
        assert_eq!(summary.units_replayed, summary.units_total);
        assert_eq!(replay_only.finish().to_json().dump(), reference_json);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_foreign_journals() {
        let path = temp_journal("mismatch");
        let _ = std::fs::remove_file(&path);
        let write_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut p = Pipeline::with_obs(false);
        p.run_campaign_supervised(tiny_config(), 1, &write_cfg).unwrap();
        // Same journal, different campaign config → ConfigMismatch.
        let resume_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            resume: true,
        };
        let mut other = Pipeline::with_obs(false);
        let different = CampaignConfig {
            automated_reps: 2,
            ..tiny_config()
        };
        match other.run_campaign_supervised(different, 1, &resume_cfg) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // A different fault plan is result-affecting too.
        let mut faulted = Pipeline::with_obs(false);
        faulted.set_fault_plan(iot_chaos::FaultPlan::uniform(7, 0.01));
        match faulted.run_campaign_supervised(tiny_config(), 1, &resume_cfg) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A resume continues the one journal file in place. Tear a faulted
    /// campaign's journal, resume it, tear the resumed file inside what
    /// the resume appended, and resume again: both reports equal the
    /// straight-through run, and neither resume rewrites the clean
    /// prefix it found.
    #[test]
    fn a_resumed_journal_torn_again_resumes_again() {
        let plan = iot_chaos::FaultPlan {
            panic_rate: 0.05,
            ..iot_chaos::FaultPlan::uniform(0x7EA2, 0.01)
        };
        let mut reference = Pipeline::with_obs(false);
        reference.set_fault_plan(plan);
        reference.run_campaign(tiny_config());
        let reference_json = reference.finish().to_json().dump();

        let path = temp_journal("retear");
        let _ = std::fs::remove_file(&path);
        let journal = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut first = Pipeline::with_obs(false);
        first.set_fault_plan(plan);
        first.run_campaign_supervised(tiny_config(), 2, &journal).unwrap();
        let resume = SupervisorConfig {
            resume: true,
            ..journal
        };
        // Tears the journal at `at`, resumes it at 2 workers, and checks
        // the report and the untouched clean prefix; returns the clean
        // prefix's length and the summary.
        let tear_and_resume = |at: usize| {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..at]).unwrap();
            let clean = read_journal(&path).unwrap().clean_len as usize;
            let mut resumed = Pipeline::with_obs(false);
            resumed.set_fault_plan(plan);
            let summary = resumed.run_campaign_supervised(tiny_config(), 2, &resume).unwrap();
            assert_eq!(resumed.finish().to_json().dump(), reference_json);
            let after = std::fs::read(&path).unwrap();
            assert!(after[..clean] == bytes[..clean], "resume rewrote the clean prefix");
            assert!(summary.units_run > 0, "the tear must leave work to re-run");
            (clean, summary)
        };
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let (clean, once) = tear_and_resume(len * 6 / 10);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let (_, twice) = tear_and_resume(clean + (len - clean) / 2);
        assert!(
            twice.units_replayed > once.units_replayed,
            "the second resume replays what the first appended ({} vs {})",
            twice.units_replayed,
            once.units_replayed
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_journal_of_another_grid() {
        let path = temp_journal("grid");
        let _ = std::fs::remove_file(&path);
        let sup_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut donor = Pipeline::with_obs(false);
        donor
            .run_campaign_supervised(tiny_config(), 1, &sup_cfg)
            .unwrap();
        let full = read_journal(&path).unwrap();
        assert_eq!(full.identities, unit_identities(&Campaign::new(tiny_config())));
        let resume_cfg = SupervisorConfig {
            resume: true,
            ..sup_cfg
        };
        // A smaller grid (the catalog gained a device since) and a grid
        // with one unit swapped for a stranger are both refused.
        let stranger = [0xDEAD_BEEF_0BAD_F00Du64]
            .into_iter()
            .chain(full.identities[1..].iter().copied())
            .collect::<Vec<_>>();
        for identities in [&full.identities[1..], &stranger[..]] {
            let mut w =
                JournalWriter::create(&path, full.fingerprint, identities, None).unwrap();
            for delta in full.deltas.iter().filter(|d| (d.unit as usize) < identities.len()) {
                w.append(delta).unwrap();
            }
            drop(w);
            let mut p = Pipeline::with_obs(false);
            match p.run_campaign_supervised(tiny_config(), 1, &resume_cfg) {
                Err(JournalError::GridMismatch {
                    expected_units,
                    found_units,
                }) => {
                    assert_eq!(expected_units, full.identities.len());
                    assert_eq!(found_units, identities.len());
                }
                other => panic!("expected GridMismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rep_invariant_fault_keys_fault_identically_across_reps() {
        // With rep-invariant keys armed, the key must not depend on rep;
        // with them off, it must.
        let campaign = Campaign::new(CampaignConfig {
            automated_reps: 3,
            ..tiny_config()
        });
        let exps = all_experiments(&campaign, &GeoDb::new());
        let mut reps_seen = HashMap::new();
        for e in &exps {
            reps_seen
                .entry((e.device_name, e.site, e.vpn, e.label.clone()))
                .or_insert_with(Vec::new)
                .push((e.rep, experiment_fault_key(e), experiment_fault_key_rep_invariant(e)));
        }
        let mut multi_rep = 0;
        for keys in reps_seen.values() {
            if keys.len() < 2 {
                continue;
            }
            multi_rep += 1;
            let variant: std::collections::HashSet<u64> =
                keys.iter().map(|(_, k, _)| *k).collect();
            let invariant: std::collections::HashSet<u64> =
                keys.iter().map(|(_, _, k)| *k).collect();
            assert_eq!(variant.len(), keys.len(), "legacy keys are per-rep");
            assert_eq!(invariant.len(), 1, "rep-invariant keys collapse reps");
        }
        assert!(multi_rep > 0, "corpus must contain repeated identities");
    }

}
