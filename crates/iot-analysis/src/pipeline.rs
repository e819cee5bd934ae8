//! Single-entry-point pipeline: run a campaign through every analysis and
//! collect a serializable report. `iot-bench`'s `tables` binary renders
//! the paper's corpus tables from the finished pipeline's accumulators.
//!
//! # One driver
//!
//! A campaign splits into work units, one per (lab × device) slot of the
//! grid ([`Campaign::run_unit`]). [`Pipeline::run_campaign_supervised`] is
//! the only campaign driver: workers pull units from a shared queue, and
//! each finished unit's accumulator delta ([`UnitDelta`]) is journaled
//! (when a checkpoint journal is configured) and folded into the pipeline
//! at once. The calling thread runs worker 0, so a 1-worker run spawns no
//! thread; [`Pipeline::run_campaign`] is that 1-worker run with default
//! [`SupervisorConfig`] knobs. [`Pipeline::ingest_experiments`] feeds a
//! caller's experiment stream through the same worker and the same fold.
//!
//! A worker keeps its result-neutral state — memo caches and its metric
//! registry — for its whole run, while the report-bearing accumulators
//! live per unit, so no lock sits on the hot path. Experiment generation
//! is seeded per (device, activity, rep, site, vpn), and every
//! accumulator merge is order-independent, so the report is
//! byte-identical at any worker count; `iot_oracle::differential::
//! check_worker_grid` is the one place that checks it.
//!
//! # Observability
//!
//! Every run is instrumented through `iot-obs` (gated on `IOT_OBS`, or
//! forced via [`Pipeline::with_obs`]): spans around campaign generation,
//! per-experiment traffic synthesis (`synth`), per-experiment ingest
//! stages (flow reconstruction, destination mapping, encryption
//! classification, PII scan), each worker's run (`shard`), and
//! [`Pipeline::finish`]; counters for experiments,
//! packets, flows, total/per-[`EncryptionClass`] bytes, and PII findings;
//! histograms of per-experiment packet and per-flow byte sizes; and
//! per-worker load gauges (`worker.N.experiments`). Each worker records
//! into its own registry, and the registries merge into the pipeline's
//! when the workers end. [`Pipeline::finish_with_obs`] returns the merged
//! registry for report emission; the pipeline report itself is
//! byte-identical with observability on or off.
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
//! conservation invariant `chaos_check` gates.
//!
//! # Supervision
//!
//! [`SupervisorConfig`] holds the knobs for hour-scale fleet campaigns
//! (DESIGN.md §15): a checkpoint journal of unit deltas (`resume` replays
//! it and re-runs only the remainder, byte-identically), a watchdog
//! deadline that bounds injected stalls, and deterministic,
//! identity-keyed retries of transient failures. Every run — including
//! resumed ones — also maintains a [`Coverage`] manifest (`"coverage"` in
//! the JSON): what completed, what needed retries, and what was
//! permanently lost, per lab × device.

use crate::destinations::{ColumnCtx, DestCtx, DestinationAnalysis};
use crate::encryption::{ClassBytes, EncryptionAnalysis};
use crate::flows::{ExperimentFlows, LabelCtx};
use crate::ingest::IngestStats;
use crate::pii::{findings_for_flow, scan_flow, PatternCache, PiiFinding};
use crate::supervise::{
    campaign_fingerprint, read_journal_set, remove_rolled_segments, unit_identities, Coverage,
    CoverageOutcome, JournalError, JournalWriter, SuperviseSummary, SupervisorConfig, UnitDelta,
    WatchHandle, Watchdog,
};
use iot_chaos::{stream_key, FaultInjector, FaultPlan};
use iot_core::json::{Json, ToJson};
use iot_entropy::EncryptionClass;
use iot_geodb::party::PartyType;
use iot_geodb::registry::GeoDb;
use iot_net::pcap::{Capture, PcapCursor};
use iot_obs::{AllocStats, Registry};
use iot_protocols::analyzer::ProtocolId;
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
use std::time::{Duration, Instant};

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
    /// Soft deadline in microseconds; injected stalls strictly greater
    /// are quarantined (by value comparison, never by clock).
    deadline_micros: Option<u64>,
    /// Retry budget for transient failures.
    max_retries: u32,
    /// The deadline monitor; running whenever a deadline is set.
    watchdog: Option<&'a Watchdog>,
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

/// One worker of a run. Its memo caches and metric registry are
/// result-neutral, so they live as long as the worker; everything that
/// reaches the report accumulates per unit in a [`UnitDelta`].
struct Worker {
    idx: usize,
    /// Cross-experiment labeling memos (protocol identify, domain intern
    /// pool, SNI/Host). Every cached value is keyed by the full content
    /// that produced it, so hit rates differ per worker but results
    /// never do.
    label_ctx: LabelCtx,
    /// Compiled PII pattern sets per (device, site); the same
    /// result-neutral caching story as `label_ctx`.
    pii_patterns: PatternCache,
    /// Worker-local metrics, merged into the pipeline's registry when
    /// the worker ends.
    obs: Registry,
    /// Experiments ingested by this worker's folded units.
    experiments: u64,
    /// This worker's watchdog slot, when a deadline is set.
    watch: Option<WatchHandle>,
    started: Instant,
    /// Registration with the span-stack sampling profiler — only when
    /// this run records observability AND the sampler is armed, so
    /// obs-off baseline runs contribute zero samples.
    _profile: Option<iot_obs::profile::ThreadGuard>,
}

impl Worker {
    /// Sets worker `idx` up on the calling thread.
    fn new(idx: usize, ctx: &RunCtx<'_>) -> Self {
        let obs = Registry::with_enabled(ctx.obs_enabled);
        // Event tracks start at 1; track 0 is the driver registry.
        obs.set_worker(idx as u32 + 1);
        Worker {
            idx,
            label_ctx: LabelCtx::new(),
            pii_patterns: PatternCache::new(),
            obs,
            experiments: 0,
            watch: ctx.watchdog.map(|w| w.handle(idx)),
            started: Instant::now(),
            _profile: (ctx.obs_enabled && iot_obs::profile::enabled())
                .then(|| iot_obs::profile::register_thread(&format!("worker-{idx}"))),
        }
    }

    /// Stamps the worker's run time and gauges, and hands back its
    /// registry for merging.
    fn finish(self) -> Registry {
        // Timed by hand: a span guard here would nest every `ingest` span
        // under `shard`.
        self.obs.record_ns("shard", self.started.elapsed());
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
        self.obs.end_stream();
        self.label_ctx = LabelCtx::new();
        self.pii_patterns = PatternCache::new();
        let mut marker = UnitDelta::new(unit);
        marker.ingest.shards_quarantined = 1;
        marker.ingest.add_stage_error("worker_panic");
        marker
    }

    /// Ingests one experiment into the unit accumulator `acc`: fault
    /// injection, the quarantine boundary, retries, and the ledger.
    fn ingest(&mut self, ctx: &RunCtx<'_>, acc: &mut UnitDelta, mut exp: LabeledExperiment) {
        let Worker {
            label_ctx,
            pii_patterns,
            obs,
            watch,
            ..
        } = self;
        // Split the borrow: the span guard pins `obs` (shared) for the
        // whole ingest while the quarantine closure below captures the
        // accumulators mutably.
        let UnitDelta {
            destinations,
            encryption,
            pii,
            ingest,
            coverage,
            experiments,
            ..
        } = acc;
        let watch = watch.as_ref();
        // The experiment's identity digest doubles as the flight-recorder
        // stream key: every event inside this scope is attributable to
        // this experiment regardless of which worker ran it. Fault draws
        // optionally drop the rep index from their key (the oracle's
        // rep-relabel relation needs rep-invariant fault schedules); the
        // obs stream key always keeps the full identity.
        let skey = experiment_fault_key(&exp);
        let fkey = match ctx.fault {
            Some(inj) if inj.plan().rep_invariant_fault_keys => {
                experiment_fault_key_rep_invariant(&exp)
            }
            _ => skey,
        };
        let site = exp.site;
        let device = exp.device_name;
        obs.begin_stream(skey);
        {
            let _ingest_span = obs.span("ingest");
            let n_generated = exp.packet_count() as u64;
            ingest.packets_generated += n_generated;
            // Pristine copy for re-attempts, taken before any degradation
            // so even a total salvage loss is retryable. Zero-cost when
            // retries or faults are off, preserving the allocation
            // profile of a plain run.
            let pristine =
                (ctx.max_retries > 0 && ctx.fault.is_some()).then(|| exp.capture.clone());
            let mut attempt: u32 = 0;
            loop {
                if attempt > 0 {
                    // The re-attempt replays the pristine capture through
                    // a fresh (attempt-salted) degradation pass.
                    ingest.packets_reoffered += n_generated;
                    ingest.retry_attempts += 1;
                }
                let mut inject_panic = false;
                let mut stall: Option<u64> = None;
                let mut total_loss = false;
                if let Some(inj) = ctx.fault {
                    inject_panic = inj.should_panic_at(fkey, attempt);
                    stall = inj.stall_micros(fkey, attempt);
                    total_loss = degrade_capture_at(inj, fkey, attempt, &mut exp, ingest, obs);
                }
                let salvaged = exp.packet_count() as u64;
                // Whether a stall is quarantined is this value comparison
                // — never a race between clocks — so the quarantine set is
                // byte-identical across worker counts and machines. The
                // watchdog below only bounds how long the worker sleeps.
                let stall_breached =
                    matches!((stall, ctx.deadline_micros), (Some(st), Some(d)) if st > d);
                if let Some(w) = watch {
                    w.begin();
                }
                let failure: Option<&'static str> = if total_loss {
                    // from_bytes_lenient salvaged nothing at all; with
                    // retries available this is transient, without them it
                    // is a permanent loss (of an already-empty capture).
                    Some("salvage_loss")
                } else if stall_breached {
                    // The experiment's fate is already sealed: sleep out
                    // the stall only until the watchdog, which runs
                    // whenever a deadline is set, cancels it.
                    if let Some(w) = watch {
                        w.wait_cancelled(Duration::from_micros(stall.unwrap_or(0)));
                    }
                    Some("stall_deadline")
                } else {
                    if let Some(st) = stall {
                        // Within-deadline stall (or no deadline at all):
                        // the experiment hangs, then completes normally.
                        std::thread::sleep(Duration::from_micros(st));
                    }
                    // The quarantine boundary: a panic here — injected by
                    // the chaos plan or real — costs this one experiment,
                    // not the run. The injected panic fires before any
                    // accumulator or obs mutation, so failed attempts
                    // contribute exactly nothing and the report stays
                    // deterministic.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if inject_panic {
                            panic!("{INJECTED_PANIC_MSG}");
                        }
                        analyze_experiment(
                            ctx.db,
                            ctx.identities,
                            destinations,
                            encryption,
                            pii,
                            label_ctx,
                            pii_patterns,
                            ingest,
                            obs,
                            &exp,
                        );
                    }));
                    match outcome {
                        Ok(()) => None,
                        Err(_) => Some("ingest_panic"),
                    }
                };
                if let Some(w) = watch {
                    w.end();
                }
                let stage = match failure {
                    None => {
                        ingest.packets_ingested += salvaged;
                        ingest.experiments_ingested += 1;
                        *experiments += 1;
                        if attempt > 0 {
                            ingest.experiments_retried += 1;
                            coverage.record(site, device, CoverageOutcome::Retried);
                        } else {
                            coverage.record(site, device, CoverageOutcome::Completed);
                        }
                        break;
                    }
                    Some(stage) => stage,
                };
                ingest.add_stage_error(stage);
                obs.mark("quarantine");
                // An *injected* panic fires before any mutation and is
                // transient; a real panic may have mutated accumulators
                // mid-analysis, so re-running it would double-count —
                // it stays permanent. Stalls and salvage losses never
                // reach the analyses, so they are always transient.
                let transient = stage != "ingest_panic" || inject_panic;
                let retry = transient && attempt < ctx.max_retries;
                if let Some(pristine) = pristine.as_ref().filter(|_| retry) {
                    ingest.packets_retried += salvaged;
                    exp.capture = pristine.clone();
                    attempt += 1;
                    continue;
                }
                ingest.packets_quarantined += salvaged;
                if attempt > 0 {
                    ingest.experiments_abandoned += 1;
                    coverage.record(site, device, CoverageOutcome::Abandoned);
                } else {
                    ingest.experiments_quarantined += 1;
                    coverage.record(site, device, CoverageOutcome::Quarantined);
                }
                break;
            }
        }
        obs.end_stream();
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

/// Degrades one experiment's capture through the fault injector (salted
/// by `attempt`, so re-attempts draw fresh faults deterministically) and
/// re-reads it through the lenient salvage path, keeping the ledger
/// exact: every generated packet ends up ingested, dropped, or lost.
///
/// Returns `true` on *total* salvage loss — the capture yielded nothing
/// at all — which the caller records as a `salvage_loss` failure
/// (retryable under supervision) instead of silently analyzing an empty
/// experiment. Unreachable with our injector (the global pcap header is
/// never touched), but a hard failure mode deserves an explicit path.
fn degrade_capture_at(
    inj: &FaultInjector,
    key: u64,
    attempt: u32,
    exp: &mut LabeledExperiment,
    ledger: &mut IngestStats,
    obs: &Registry,
) -> bool {
    let _s = obs.span("degrade");
    // The injector borrows frames straight out of the pristine capture's
    // byte buffer — no packet materialization on either side of the
    // degradation.
    let (bytes, fstats) = inj.degrade_capture(key, attempt, &exp.capture);
    ledger.packets_dropped += fstats.packets_dropped;
    ledger.packets_duplicated += fstats.packets_duplicated;
    ledger.records_corrupted += fstats.headers_corrupted;
    match PcapCursor::lenient(&bytes) {
        Ok(mut cur) => {
            // Walk the degraded bytes once through the lenient salvage
            // cursor, folding surviving frames into a fresh writer-clean
            // capture: one contiguous buffer, not a Vec per packet. The
            // salvage ledger reads off the same walk.
            let mut salvaged = Capture::new();
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
            exp.capture = salvaged;
            false
        }
        Err(_) => {
            ledger.packets_lost += fstats.records_written;
            true
        }
    }
}

/// The per-experiment analysis stages, operating on the worker's caches
/// and the unit's accumulators. A free function (not a `Worker` method)
/// so the quarantine closure can capture the fields disjointly from the
/// live ingest span.
///
/// Fused single pass: flow reconstruction still materializes the
/// experiment's `Vec<LabeledFlow>` once (several analyses borrow each
/// flow), but destination mapping, encryption classification, and the
/// PII scan then run per flow in one loop — no per-stage re-traversal,
/// and per-experiment stage context (destination labeling inputs, Table 8
/// rows, compiled PII patterns) hoisted out of the flow loop. Each
/// accumulator still sees exactly the flow subsequence, in exactly the
/// order, the staged loops fed it, so reports are byte-identical.
///
/// Stage timing moves from per-stage spans to per-flow accumulation
/// recorded once per experiment via `Registry::record_ns` under the same
/// `ingest/…` paths the nested spans produced. `record_ns` emits no
/// flight-recorder events, so the trace stays deterministic across
/// worker counts and the overhead gate unaffected.
#[allow(clippy::too_many_arguments)]
fn analyze_experiment(
    db: &GeoDb,
    identities: &Identities,
    destinations: &mut DestinationAnalysis,
    encryption: &mut EncryptionAnalysis,
    pii: &mut Vec<PiiFinding>,
    label_ctx: &mut LabelCtx,
    pii_patterns: &mut PatternCache,
    ledger: &mut IngestStats,
    obs: &Registry,
    exp: &LabeledExperiment,
) {
    obs.add("experiments", 1);
    obs.add("packets", exp.packet_count() as u64);
    obs.observe("experiment_packets", exp.packet_count() as u64);
    let flows = {
        let _s = obs.span("flows");
        ExperimentFlows::from_experiment_with(exp, label_ctx)
    };
    if flows.unparsed_packets > 0 {
        // Frames salvage recovered but frame parsing rejected: still
        // ingested, classified as unparseable rather than erroring out.
        ledger.packets_unparseable += flows.unparsed_packets;
        ledger.add_stage_error("flows_parse");
    }
    obs.add("flows", flows.flows.len() as u64);
    obs.add("bytes", flows.total_bytes());
    // Per-experiment stage context, hoisted out of the flow loop.
    let dest_ctx = DestCtx::of(exp);
    let enc_rows = EncryptionAnalysis::rows_of(exp);
    let identity = identities.get(&(exp.device_name, exp.site));
    let spec = catalog::by_name(exp.device_name);
    let scan = match (identity, spec) {
        (Some(identity), Some(spec)) => Some((
            pii_patterns.get(exp.device_name, exp.site, identity),
            spec.manufacturer_org,
        )),
        _ => None,
    };
    let pii_before = pii.len();
    let timing = obs.enabled();
    // Per-stage heap accounting rides the same accumulate-then-record
    // shape as the timers: snapshot the thread's allocator counters
    // around each stage call, sum the deltas, record once per
    // experiment. Only paid when the instrumented allocator is counting.
    let counting = timing && iot_obs::alloc::enabled();
    let mut dest_ns = Duration::ZERO;
    let mut enc_ns = Duration::ZERO;
    let mut pii_ns = Duration::ZERO;
    let mut dest_alloc = AllocStats::default();
    let mut enc_alloc = AllocStats::default();
    let mut pii_alloc = AllocStats::default();
    let mut enc_tally = ClassBytes::default();
    for lf in &flows.flows {
        if timing {
            obs.observe("flow_bytes", lf.flow.total_bytes());
        }
        // The paper's destination and PII analyses skip LAN-side
        // infrastructure chatter (ExperimentFlows::internet_flows).
        let internet = !matches!(lf.protocol, ProtocolId::Dns | ProtocolId::Dhcp);
        if internet {
            if let Some(ctx) = &dest_ctx {
                let t = timing.then(Instant::now);
                let a = counting.then(iot_obs::alloc::thread_snapshot);
                destinations.add_flow(exp, ctx, lf);
                if let Some(a) = a {
                    dest_alloc.merge(&iot_obs::alloc::thread_snapshot().since(&a));
                }
                if let Some(t) = t {
                    dest_ns += t.elapsed();
                }
            }
        }
        {
            let t = timing.then(Instant::now);
            let a = counting.then(iot_obs::alloc::thread_snapshot);
            encryption.add_flow(exp, &enc_rows, lf, &mut enc_tally);
            if let Some(a) = a {
                enc_alloc.merge(&iot_obs::alloc::thread_snapshot().since(&a));
            }
            if let Some(t) = t {
                enc_ns += t.elapsed();
            }
        }
        if internet {
            if let Some((patterns, manufacturer_org)) = scan {
                let t = timing.then(Instant::now);
                let a = counting.then(iot_obs::alloc::thread_snapshot);
                let hits = scan_flow(patterns, lf);
                if !hits.is_empty() {
                    findings_for_flow(db, exp, manufacturer_org, lf, hits, pii);
                }
                if let Some(a) = a {
                    pii_alloc.merge(&iot_obs::alloc::thread_snapshot().since(&a));
                }
                if let Some(t) = t {
                    pii_ns += t.elapsed();
                }
            }
        }
    }
    encryption.add_sample(exp, &enc_tally);
    if timing {
        obs.record_ns("ingest/destinations", dest_ns);
        obs.record_ns("ingest/encryption", enc_ns);
        obs.record_ns("ingest/pii", pii_ns);
    }
    if counting {
        obs.record_alloc("ingest/destinations", dest_alloc);
        obs.record_alloc("ingest/encryption", enc_alloc);
        obs.record_alloc("ingest/pii", pii_alloc);
    }
    if identity.is_some() {
        obs.add("pii_findings", (pii.len() - pii_before) as u64);
    }
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

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// Creates an empty pipeline; observability follows the `IOT_OBS`
    /// environment gate.
    pub fn new() -> Self {
        Self::with_obs(iot_obs::enabled())
    }

    /// Creates an empty pipeline with observability explicitly forced on
    /// or off, ignoring the environment. The overhead benchmark measures
    /// both modes in one process through this.
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

    /// The pipeline's metric registry (worker registries merge into it).
    pub fn obs(&self) -> &Registry {
        &self.obs
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
        // Live-heap counter track for the wall-clock Chrome trace,
        // sampled only at fold boundaries (outside any event stream, so
        // the deterministic trace subset never sees it).
        if iot_obs::alloc::enabled() {
            self.obs
                .counter_sample("alloc.live_bytes", iot_obs::alloc::process_live_bytes());
        }
        self.publish_live("folding");
    }

    /// Renders and publishes the live-telemetry documents when an
    /// `IOT_OBS_SERVE` server is running; no-op (no rendering, no locks)
    /// otherwise. Called at fold boundaries only, so the ingest hot path
    /// never pays for a listener.
    fn publish_live(&self, phase: &str) {
        if !iot_obs::serve::active() || !self.obs.enabled() {
            return;
        }
        let metrics = iot_obs::prometheus(&self.obs.snapshot());
        let trace = iot_obs::chrome_trace(&self.obs.timeline(), iot_obs::TraceMode::Wall).dump();
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
            alloc.set(
                "high_water_bytes",
                iot_obs::alloc::process_high_water_bytes().to_json(),
            );
            progress.set("alloc", alloc);
        }
        iot_obs::serve::publish(metrics, trace, progress.dump());
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
        iot_obs::serve::maybe_start_from_env();
        let identities = {
            let _s = self.obs.span("identities");
            identities_of(&LabSite::all().map(Lab::deploy))
        };
        let fault = self.fault;
        let ctx = RunCtx {
            db: GeoDb::shared(),
            identities: &identities,
            fault: fault.as_ref(),
            deadline_micros: None,
            max_retries: 0,
            watchdog: None,
            obs_enabled: self.obs.enabled(),
        };
        let mut worker = Worker::new(0, &ctx);
        let mut delta = UnitDelta::new(0);
        for exp in experiments {
            worker.ingest(&ctx, &mut delta, exp);
        }
        worker.experiments += delta.experiments;
        self.fold(delta);
        self.obs.set_gauge("workers", 1.0);
        self.obs.merge(worker.finish());
        self.publish_live("folded");
    }

    /// Runs a full campaign under supervision (DESIGN.md §15): `workers`
    /// workers — the calling thread plus `workers − 1` spawned ones —
    /// pull (lab × device) work units from a shared queue; each finished
    /// unit's accumulator delta is appended to the checkpoint journal
    /// (when `sup.journal` is set) and folded at once; injected stalls
    /// are bounded by a watchdog at `sup.deadline`; and transient
    /// failures are retried up to `sup.max_retries` times with
    /// identity-keyed determinism.
    ///
    /// With `sup.resume`, an existing journal is replayed first — its
    /// completed units folded straight into the accumulators — and only
    /// the remainder is run; the resulting report is byte-identical to a
    /// straight-through run of the same configuration. A journal written
    /// by a different configuration (campaign, fault plan, deadline, or
    /// retry budget) is refused with a typed error rather than silently
    /// producing a hybrid report.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn run_campaign_supervised(
        &mut self,
        config: CampaignConfig,
        workers: usize,
        sup: &SupervisorConfig,
    ) -> Result<SuperviseSummary, JournalError> {
        iot_obs::serve::maybe_start_from_env();
        let campaign = {
            let _s = self.obs.span("campaign_new");
            Campaign::new(config)
        };
        self.run_units(&campaign, workers, sup, |db, unit, consume| {
            campaign.run_unit(db, unit, consume)
        })
    }

    /// The driver behind [`Pipeline::run_campaign_supervised`]. `source`
    /// streams one unit's experiments; outside tests it is the campaign's
    /// own generator.
    fn run_units<S>(
        &mut self,
        campaign: &Campaign,
        workers: usize,
        sup: &SupervisorConfig,
        source: S,
    ) -> Result<SuperviseSummary, JournalError>
    where
        S: Fn(&GeoDb, usize, &mut dyn FnMut(LabeledExperiment)) + Sync,
    {
        assert!(workers > 0, "workers must be positive");
        let identities = {
            let _s = self.obs.span("identities");
            identities_of(campaign.labs())
        };
        let unit_count = campaign.unit_count();
        let deadline_micros = sup.deadline.map(|d| d.as_micros() as u64);
        let fingerprint = campaign_fingerprint(
            &campaign.config,
            self.fault_plan(),
            deadline_micros,
            sup.max_retries,
        );
        let mut summary = SuperviseSummary {
            units_total: unit_count,
            ..SuperviseSummary::default()
        };
        let grid_identities = unit_identities(campaign);
        let mut done = std::collections::BTreeSet::new();
        let mut journal: Option<JournalWriter> = None;
        if let Some(path) = &sup.journal {
            if sup.resume && path.exists() {
                let contents = read_journal_set(path)?;
                if contents.fingerprint != fingerprint {
                    return Err(JournalError::ConfigMismatch {
                        expected: fingerprint,
                        found: contents.fingerprint,
                    });
                }
                // Match journaled units to the current grid by identity
                // digest rather than index, so a grid that *grew* since
                // the journal was written still resumes (the new units
                // simply run fresh). A journaled identity missing from
                // the grid means the journal belongs elsewhere.
                let index_of: HashMap<u64, u32> = grid_identities
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, i as u32))
                    .collect();
                let mut replayed = Vec::with_capacity(contents.deltas.len());
                for mut delta in contents.deltas {
                    let identity = contents.identities[delta.unit as usize];
                    let unit = *index_of
                        .get(&identity)
                        .ok_or(JournalError::ForeignUnit { identity })?;
                    delta.unit = unit;
                    replayed.push(delta);
                }
                summary.units_replayed = replayed.len();
                summary.salvage = Some(contents.salvage);
                // Compact: rewrite the whole replayed prefix as
                // checkpoint records in a fresh single journal (with the
                // *current* grid's identity table), then delete the
                // rolled segments it superseded.
                let mut w = JournalWriter::create(
                    path,
                    fingerprint,
                    &grid_identities,
                    sup.journal_roll_bytes,
                )?;
                w.checkpoint(&replayed)?;
                remove_rolled_segments(path)?;
                journal = Some(w);
                // Metrics describe work this process performed, so
                // replayed units fold into the report but not the
                // registry.
                for delta in replayed {
                    done.insert(delta.unit);
                    self.fold(delta);
                }
            } else {
                journal = Some(JournalWriter::create(
                    path,
                    fingerprint,
                    &grid_identities,
                    sup.journal_roll_bytes,
                )?);
            }
        }
        let remaining: Vec<u32> = (0..unit_count as u32)
            .filter(|u| !done.contains(u))
            .collect();
        summary.units_run = remaining.len();
        self.publish_live("generated");
        let workers = workers.min(remaining.len());
        let watchdog = sup.deadline.map(|d| Watchdog::new(workers, d));
        let fault = self.fault;
        let ctx = RunCtx {
            db: GeoDb::shared(),
            identities: &identities,
            fault: fault.as_ref(),
            deadline_micros,
            max_retries: sup.max_retries,
            watchdog: watchdog.as_ref(),
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
            while let Some(&unit) = remaining.get(queue.fetch_add(1, Ordering::AcqRel)) {
                let mut delta = UnitDelta::new(unit);
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    // The source synthesizes each experiment before its
                    // callback; that time is the `synth` span. Timed by
                    // hand, like `shard`, because it interleaves with
                    // `ingest`, and only when obs is on.
                    let mut synth_from = ctx.obs_enabled.then(Instant::now);
                    source(ctx.db, unit as usize, &mut |exp| {
                        if let Some(from) = synth_from {
                            worker.obs.record_ns("synth", from.elapsed());
                        }
                        worker.ingest(&ctx, &mut delta, exp);
                        if synth_from.is_some() {
                            synth_from = Some(Instant::now());
                        }
                    });
                }));
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
                if !sup.unit_throttle.is_zero() {
                    // Kill-timing aid for tests; report-neutral.
                    std::thread::sleep(sup.unit_throttle);
                }
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
        if let Some(dog) = &watchdog {
            summary.watchdog_cancelled = dog.cancelled_total();
            if summary.watchdog_cancelled > 0 {
                // Wall-clock dependent count: gauge only, never a report
                // field or deterministic counter.
                self.obs
                    .set_gauge("watchdog.cancelled", summary.watchdog_cancelled as f64);
            }
        }
        drop(watchdog);
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
        let start = Instant::now();
        if self.obs.enabled() {
            let ingest = &self.ingest;
            let mix = self.encryption.total_bytes_by_class();
            self.obs.add("bytes_unencrypted", mix.unencrypted);
            self.obs.add("bytes_encrypted", mix.encrypted);
            self.obs.add("bytes_unknown", mix.unknown);
            // Mirror the ingest ledger as counters, nonzero values only:
            // a clean run's metric report keeps exactly its pre-chaos
            // counter set, while any degradation becomes visible to the
            // same tooling that reads the rest of the metrics.
            for (name, value) in [
                ("ingest.packets_dropped", ingest.packets_dropped),
                ("ingest.packets_duplicated", ingest.packets_duplicated),
                ("ingest.packets_lost", ingest.packets_lost),
                ("ingest.packets_quarantined", ingest.packets_quarantined),
                ("ingest.packets_truncated", ingest.packets_truncated),
                ("ingest.packets_unparseable", ingest.packets_unparseable),
                ("ingest.records_corrupted", ingest.records_corrupted),
                ("ingest.salvage_resyncs", ingest.salvage_resyncs),
                ("ingest.salvage_bytes_skipped", ingest.salvage_bytes_skipped),
                ("ingest.torn_tail_bytes", ingest.torn_tail_bytes),
                (
                    "ingest.experiments_quarantined",
                    ingest.experiments_quarantined,
                ),
                ("ingest.shards_quarantined", ingest.shards_quarantined),
                ("ingest.packets_reoffered", ingest.packets_reoffered),
                ("ingest.packets_retried", ingest.packets_retried),
                ("ingest.retry_attempts", ingest.retry_attempts),
                ("ingest.experiments_retried", ingest.experiments_retried),
                (
                    "ingest.experiments_abandoned",
                    ingest.experiments_abandoned,
                ),
            ] {
                if value > 0 {
                    self.obs.add(name, value);
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
                ("coverage.retried", totals.retried),
                ("coverage.quarantined", totals.quarantined),
                ("coverage.abandoned", totals.abandoned),
            ] {
                if value > 0 {
                    self.obs.add(name, value);
                }
            }
        }
        let report = self.build_report();
        self.obs.record_ns("finish", start.elapsed());
        // Campaign memory footprint, stamped once the report exists so
        // the gauges cover the whole run: the allocator's own live/peak
        // view plus the kernel's VmHWM upper bound. Gauges are excluded
        // from the deterministic subset, so worker-dependent byte counts
        // never threaten report identity.
        if self.obs.enabled() && iot_obs::alloc::enabled() {
            self.obs.set_gauge(
                "alloc.high_water_bytes",
                iot_obs::alloc::process_high_water_bytes() as f64,
            );
            self.obs.set_gauge(
                "alloc.live_bytes",
                iot_obs::alloc::process_live_bytes() as f64,
            );
            if let Some(rss) = iot_obs::process::peak_rss_bytes() {
                self.obs.set_gauge("peak_rss_bytes", rss as f64);
            }
            self.obs
                .counter_sample("alloc.live_bytes", iot_obs::alloc::process_live_bytes());
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
        let mut p = Pipeline::new();
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
        let mut p = Pipeline::new();
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
        let mut with_panics = Pipeline::new();
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
        let mut plain = Pipeline::new();
        plain.run_campaign(tiny_config());
        let plain_json = plain.finish().to_json().dump();
        let mut armed = Pipeline::new();
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
        let mut p = Pipeline::new();
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
        let mut baseline = Pipeline::new();
        baseline.run_campaign(config);
        let baseline_json = baseline.finish().to_json().dump();

        let experiments = all_experiments(&Campaign::new(config), &GeoDb::new());
        let mut replay = Pipeline::new();
        replay.ingest_experiments(experiments);
        assert_eq!(replay.finish().to_json().dump(), baseline_json);
    }

    /// The PR 6 hot-path invariant, pinned with the PR 7 instrument:
    /// once the memo caches are warm (interned labels, compiled PII
    /// patterns, protocol-ID memos, entropy term tables) and the
    /// accumulator tables have seen every key, the fused per-flow loop
    /// performs zero heap allocations per flow. Experiments whose scan
    /// produced PII findings are excluded from the measured PII stage —
    /// constructing a finding allocates by design; that is per-finding
    /// work, not loop overhead.
    #[test]
    fn fused_per_flow_loop_is_allocation_free_after_warmup() {
        let db = GeoDb::new();
        let campaign = Campaign::new(tiny_config());
        let identities = identities_of(campaign.labs());
        let experiments = all_experiments(&campaign, &db);

        let mut destinations = DestinationAnalysis::new();
        let mut encryption = EncryptionAnalysis::default();
        let mut pii: Vec<PiiFinding> = Vec::new();
        let mut label_ctx = LabelCtx::new();
        let mut pii_patterns = PatternCache::new();

        // Warmup pass through the driver's own per-experiment analysis,
        // which warms every memo and accumulator key; remember each
        // experiment's flows and whether it produced findings.
        let mut ledger = IngestStats::default();
        let obs = Registry::with_enabled(false);
        let mut corpus: Vec<(LabeledExperiment, ExperimentFlows, bool)> = Vec::new();
        for exp in experiments {
            let pii_before = pii.len();
            analyze_experiment(
                &db,
                &identities,
                &mut destinations,
                &mut encryption,
                &mut pii,
                &mut label_ctx,
                &mut pii_patterns,
                &mut ledger,
                &obs,
                &exp,
            );
            let flows = ExperimentFlows::from_experiment_with(&exp, &mut label_ctx);
            let had_findings = pii.len() > pii_before;
            corpus.push((exp, flows, had_findings));
        }
        assert!(corpus.iter().any(|(.., f)| *f), "corpus must exercise PII");

        // Measured pass over the very same flows: per-experiment stage
        // context is rebuilt *outside* the measurement window (it is
        // hoisted out of the flow loop in analyze_experiment too), then
        // the loop itself must not touch the heap.
        let was = iot_obs::alloc::enabled();
        iot_obs::alloc::set_enabled(true);
        let mut measured = AllocStats::default();
        let mut stage_dest = AllocStats::default();
        let mut stage_enc = AllocStats::default();
        let mut stage_pii = AllocStats::default();
        let mut flows_measured = 0u64;
        for (exp, flows, had_findings) in &corpus {
            let dest_ctx = DestCtx::of(exp);
            let enc_rows = EncryptionAnalysis::rows_of(exp);
            let scan = if *had_findings {
                None
            } else {
                match (
                    identities.get(&(exp.device_name, exp.site)),
                    catalog::by_name(exp.device_name),
                ) {
                    (Some(identity), Some(spec)) => Some((
                        pii_patterns.get(exp.device_name, exp.site, identity),
                        spec.manufacturer_org,
                    )),
                    _ => None,
                }
            };
            let mut tally = ClassBytes::default();
            let before = iot_obs::alloc::thread_snapshot();
            for lf in &flows.flows {
                let internet =
                    !matches!(lf.protocol, ProtocolId::Dns | ProtocolId::Dhcp);
                if internet {
                    if let Some(ctx) = &dest_ctx {
                        let a = iot_obs::alloc::thread_snapshot();
                        destinations.add_flow(exp, ctx, lf);
                        stage_dest.merge(&iot_obs::alloc::thread_snapshot().since(&a));
                    }
                }
                {
                    let a = iot_obs::alloc::thread_snapshot();
                    encryption.add_flow(exp, &enc_rows, lf, &mut tally);
                    stage_enc.merge(&iot_obs::alloc::thread_snapshot().since(&a));
                }
                if internet {
                    if let Some((patterns, manufacturer_org)) = scan {
                        let a = iot_obs::alloc::thread_snapshot();
                        let hits = scan_flow(patterns, lf);
                        if !hits.is_empty() {
                            findings_for_flow(
                                &db,
                                exp,
                                manufacturer_org,
                                lf,
                                hits,
                                &mut pii,
                            );
                        }
                        stage_pii.merge(&iot_obs::alloc::thread_snapshot().since(&a));
                    }
                }
                flows_measured += 1;
            }
            measured.merge(&iot_obs::alloc::thread_snapshot().since(&before));
        }
        iot_obs::alloc::set_enabled(was);
        assert!(flows_measured > 1000, "need a real corpus: {flows_measured}");
        assert_eq!(
            measured.allocs, 0,
            "fused per-flow loop must be allocation-free after warmup \
             ({flows_measured} flows): {measured:?}\n dest: {stage_dest:?}\n \
             enc: {stage_enc:?}\n pii: {stage_pii:?}"
        );
        assert_eq!(measured.bytes_allocated, 0);
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iot_pipeline_{tag}_{}.jnl", std::process::id()))
    }

    #[test]
    fn supervised_coverage_counts_every_experiment() {
        let mut p = Pipeline::new();
        let summary = p
            .run_campaign_supervised(tiny_config(), 2, &SupervisorConfig::default())
            .unwrap();
        assert_eq!(summary.units_run, summary.units_total);
        assert_eq!(summary.units_replayed, 0);
        let report = p.finish();
        let totals = report.coverage.totals();
        assert_eq!(totals.completed, report.experiments);
        assert_eq!(totals.retried + totals.quarantined + totals.abandoned, 0);
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
    fn a_panic_escaping_the_experiment_boundary_costs_one_unit() {
        // Unit 3's generator dies midway; worker 0 (the calling thread)
        // runs it at 1 worker and possibly at 2.
        const LOST: usize = 3;
        let campaign = Campaign::new(tiny_config());
        let run = |workers: usize| {
            let mut p = Pipeline::with_obs(false);
            p.run_units(&campaign, workers, &SupervisorConfig::default(), |db, unit, consume| {
                let mut seen = 0;
                campaign.run_unit(db, unit, |exp| {
                    if unit == LOST && seen == 2 {
                        panic!("synthetic generator defect");
                    }
                    seen += 1;
                    consume(exp);
                });
            })
            .unwrap();
            p.finish()
        };
        let mut lost_experiments = 0u64;
        campaign.run_unit(&GeoDb::new(), LOST, |_| lost_experiments += 1);
        let mut full = Pipeline::new();
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
        let mut reference = Pipeline::new();
        reference.set_fault_plan(plan);
        reference.run_campaign(tiny_config());
        let reference_json = reference.finish().to_json().dump();

        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let sup_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut first = Pipeline::new();
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
            ..SupervisorConfig::default()
        };
        let mut resumed = Pipeline::new();
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
        let mut replay_only = Pipeline::new();
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
        let mut p = Pipeline::new();
        p.run_campaign_supervised(tiny_config(), 1, &write_cfg).unwrap();
        // Same journal, different campaign config → ConfigMismatch.
        let resume_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            resume: true,
            ..SupervisorConfig::default()
        };
        let mut other = Pipeline::new();
        let different = CampaignConfig {
            automated_reps: 2,
            ..tiny_config()
        };
        match other.run_campaign_supervised(different, 1, &resume_cfg) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Different retry budget is result-affecting too.
        let retry_cfg = SupervisorConfig {
            max_retries: 3,
            ..resume_cfg.clone()
        };
        let mut third = Pipeline::new();
        match third.run_campaign_supervised(tiny_config(), 1, &retry_cfg) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_tolerates_grown_grid_via_identity_remap() {
        // A journal written against a smaller device grid must still
        // resume after the grid grows: units are matched by identity
        // digest, not by index, so replayed deltas land on the right
        // unit even though every index shifted.
        let reference_json = {
            let mut p = Pipeline::new();
            p.run_campaign(tiny_config());
            p.finish().to_json().dump()
        };

        // Run the full grid once to harvest genuine deltas.
        let path = temp_journal("grown");
        let _ = std::fs::remove_file(&path);
        let sup_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut donor = Pipeline::new();
        donor
            .run_campaign_supervised(tiny_config(), 1, &sup_cfg)
            .unwrap();
        let full = crate::supervise::read_journal(&path).unwrap();
        let grid = unit_identities(&Campaign::new(tiny_config()));
        assert_eq!(full.identities, grid);
        assert_eq!(full.deltas.len(), grid.len());

        // Synthesize the "older, smaller grid" journal: unit 0 did not
        // exist yet, so every surviving unit's index is shifted down by
        // one and unit 0's delta is absent.
        let small_grid = &grid[1..];
        let mut w =
            JournalWriter::create(&path, full.fingerprint, small_grid, None).unwrap();
        for delta in full.deltas.iter().filter(|d| d.unit != 0) {
            let mut shifted = UnitDelta::decode(&delta.encode()).unwrap();
            shifted.unit -= 1;
            w.append(&shifted).unwrap();
        }
        drop(w);

        // Resume on the grown grid: everything replays except unit 0.
        let resume_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            resume: true,
            ..SupervisorConfig::default()
        };
        let mut resumed = Pipeline::new();
        let summary = resumed
            .run_campaign_supervised(tiny_config(), 2, &resume_cfg)
            .unwrap();
        assert_eq!(summary.units_total, grid.len());
        assert_eq!(summary.units_replayed, grid.len() - 1);
        assert_eq!(summary.units_run, 1);
        assert_eq!(
            resumed.finish().to_json().dump(),
            reference_json,
            "grown-grid resume must match a straight-through run"
        );

        // Resume compacts: the rewritten journal carries the *current*
        // identity table and no rolled segments remain.
        assert!(crate::supervise::rolled_segments(&path).is_empty());
        let compacted = crate::supervise::read_journal(&path).unwrap();
        assert_eq!(compacted.identities, grid);
        assert_eq!(compacted.deltas.len(), grid.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_journal_units_missing_from_grid() {
        // The converse of grid growth: a journal naming a unit whose
        // identity is absent from the current grid must fail loudly
        // rather than silently dropping recorded work.
        let path = temp_journal("foreign_unit");
        let _ = std::fs::remove_file(&path);
        let sup_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            ..SupervisorConfig::default()
        };
        let mut donor = Pipeline::new();
        donor
            .run_campaign_supervised(tiny_config(), 1, &sup_cfg)
            .unwrap();
        let full = crate::supervise::read_journal(&path).unwrap();

        // Rewrite the journal with one identity replaced by a stranger.
        let mut identities = full.identities.clone();
        let stranger = 0xDEAD_BEEF_0BAD_F00Du64;
        identities[0] = stranger;
        let mut w =
            JournalWriter::create(&path, full.fingerprint, &identities, None).unwrap();
        for delta in &full.deltas {
            w.append(delta).unwrap();
        }
        drop(w);

        let resume_cfg = SupervisorConfig {
            journal: Some(path.clone()),
            resume: true,
            ..SupervisorConfig::default()
        };
        let mut p = Pipeline::new();
        match p.run_campaign_supervised(tiny_config(), 1, &resume_cfg) {
            Err(JournalError::ForeignUnit { identity }) => assert_eq!(identity, stranger),
            other => panic!("expected ForeignUnit, got {other:?}"),
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
