//! `moniotr` — a command-line front end to the simulated testbed and the
//! analysis pipeline, working through the same on-disk capture layout the
//! real Mon(IoT)r lab produced.
//!
//! ```text
//! moniotr devices                              list the 81-device catalog
//! moniotr capture <device> [uk] [vpn] [DIR]    run power + all interactions → pcap dir
//! moniotr analyze <device-dir>                 destinations / encryption / PII per label
//! moniotr idle <device> <hours>                idle capture + traffic-unit summary
//! moniotr campaign [quick|medium|full] [workers N] [--serve ADDR] [--trace-out PATH]
//!                  [--journal PATH | --resume PATH] [--deadline-ms N]
//!                  [--max-retries N] [--report-out PATH]
//!                                              full instrumented campaign + telemetry;
//!                                              supervision flags arm the checkpoint
//!                                              journal, watchdog, and retry loop
//! moniotr oracle [quick|medium|full]           correctness oracle: invariants,
//!                                              metamorphic relations, differential runs
//! ```
//!
//! Unknown subcommands or flags print the usage text and exit with
//! status 2; runtime failures exit with status 1.

use intl_iot::analysis::encryption::{classify_flow, ClassBytes};
use intl_iot::analysis::flows::ExperimentFlows;
use intl_iot::analysis::pii::PiiPatterns;
use intl_iot::analysis::unexpected::segment_units;
use intl_iot::entropy::{EncryptionClass, Thresholds};
use intl_iot::geodb::party::classify;
use intl_iot::geodb::registry::GeoDb;
use intl_iot::testbed::capture::{read_device_dir, slice_by_label, CaptureStore};
use intl_iot::testbed::experiment::{run_idle, run_interaction, run_power, LabeledExperiment};
use intl_iot::testbed::lab::{Lab, LabSite};
use intl_iot::testbed::traffic::identity_of;
use intl_iot::testbed::{catalog, device::Availability};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: moniotr devices\n       moniotr capture <device> [uk] [vpn] [out-dir]\n       \
     moniotr analyze <device-dir>\n       moniotr idle <device> <hours>\n       \
     moniotr campaign [quick|medium|full] [workers N] [--serve ADDR] [--trace-out PATH]\n                \
     [--journal PATH | --resume PATH] [--deadline-ms N] [--max-retries N]\n                \
     [--report-out PATH]\n       \
     moniotr oracle [quick|medium|full]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("devices") => cmd_devices(),
        Some("capture") => cmd_capture(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("idle") => cmd_idle(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("oracle") => cmd_oracle(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<UsageError>() => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// A command-line parse problem (unknown flag, missing or malformed
/// value). Distinguished from runtime failures so `main` can exit with
/// status 2 and print the usage text, matching what an unknown
/// subcommand does.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage_err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(UsageError(msg.into()))
}

fn cmd_devices() -> CliResult {
    for spec in catalog::all() {
        let flags = match spec.availability {
            Availability::UsOnly => "US   ",
            Availability::UkOnly => "   UK",
            Availability::Both => "US+UK",
        };
        println!(
            "{flags}  {:<16} {:<24} {}",
            spec.category.name(),
            spec.name,
            spec.activities
                .iter()
                .map(|a| a.name)
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    Ok(())
}

fn find_device<'a>(lab: &'a Lab, name: &str) -> Result<&'a intl_iot::testbed::lab::DeviceInstance, String> {
    lab.device(name).ok_or_else(|| {
        format!(
            "device {name:?} not deployed at {}; run `moniotr devices`",
            lab.site.name()
        )
    })
}

fn cmd_capture(args: &[String]) -> CliResult {
    let name = args.first().ok_or("capture: device name required")?;
    let site = if args.iter().any(|a| a == "uk") {
        LabSite::Uk
    } else {
        LabSite::Us
    };
    let vpn = args.iter().any(|a| a == "vpn");
    let out: PathBuf = args
        .iter()
        .skip(1)
        .find(|a| a.as_str() != "uk" && a.as_str() != "vpn")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("captures"));

    let db = GeoDb::new();
    let lab = Lab::deploy(site);
    let device = find_device(&lab, name)?;
    let spec = device.spec();

    let mut store = CaptureStore::new();
    let mut total = 0usize;
    let mut record = |exp: LabeledExperiment| {
        total += exp.packet_count();
        store.append(&exp);
    };
    for rep in 0..3 {
        record(run_power(&db, device, vpn, rep, 0));
    }
    for activity in &spec.activities {
        for &method in activity.methods {
            for rep in 0..3 {
                record(run_interaction(&db, device, activity, method, vpn, rep, 0));
            }
        }
    }
    let written = store.write_to(&out)?;
    println!(
        "captured {total} packets for {name} ({} lab{}) into:",
        site.name(),
        if vpn { ", VPN egress" } else { "" }
    );
    for path in written {
        println!("  {}", path.display());
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> CliResult {
    let dir = args.first().ok_or("analyze: device directory required")?;
    let dir = Path::new(dir);
    let device_id = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("analyze: bad path")?;
    let site = match dir.parent().and_then(|p| p.file_name()).and_then(|n| n.to_str()) {
        Some("uk") => LabSite::Uk,
        _ => LabSite::Us,
    };
    let spec = catalog::all()
        .iter()
        .find(|s| s.id() == device_id)
        .ok_or_else(|| format!("unknown device id {device_id:?}"))?;

    let (packets, labels, salvage) = read_device_dir(dir)?;
    println!(
        "{}: {} packets, {} labeled experiments\n",
        spec.name,
        packets.len(),
        labels.len()
    );
    if !salvage.is_pristine() {
        println!(
            "warning: degraded capture — {} resyncs, {} bytes skipped, {} torn tail bytes\n",
            salvage.resyncs, salvage.bytes_skipped, salvage.torn_tail_bytes
        );
    }

    let db = GeoDb::new();
    let lab = Lab::deploy(site);
    let identity = identity_of(find_device(&lab, spec.name)?);
    let patterns = PiiPatterns::for_identity(&identity);
    let thresholds = Thresholds::default();

    println!(
        "{:<22} {:>7} {:>8}  {:<40} {}",
        "label", "packets", "unenc%", "destinations (party)", "PII"
    );
    for span in &labels {
        let slice = slice_by_label(&packets, span);
        let pseudo = LabeledExperiment {
            device_name: spec.name,
            site,
            vpn: false,
            kind: intl_iot::testbed::experiment::ExperimentKind::Interaction,
            label: span.label.clone(),
            activity: None,
            rep: span.rep,
            capture: iot_net::pcap::Capture::from_packets(slice)
                .map_err(|e| e.to_string())?,
        };
        let flows = ExperimentFlows::from_experiment(&pseudo);
        let mut bytes = ClassBytes::default();
        let mut dests = std::collections::BTreeSet::new();
        let mut pii = std::collections::BTreeSet::new();
        for lf in &flows.flows {
            let class = classify_flow(lf, &thresholds);
            let n = lf.flow.total_bytes();
            match class {
                EncryptionClass::LikelyUnencrypted => bytes.unencrypted += n,
                EncryptionClass::LikelyEncrypted => bytes.encrypted += n,
                EncryptionClass::Unknown => bytes.unknown += n,
            }
            for (kind, enc) in patterns
                .search(&lf.flow.payload_out)
                .into_iter()
                .chain(patterns.search(&lf.flow.payload_in))
            {
                pii.insert(format!("{kind:?}/{enc}"));
            }
        }
        for lf in flows.internet_flows() {
            if let Some((org, role)) = lf.domain.as_deref().and_then(|d| db.org_for_domain(d)) {
                let party = classify(org, Some(role), spec.manufacturer_org);
                dests.insert(format!("{} ({party})", org.name));
            }
        }
        println!(
            "{:<22} {:>7} {:>7.1}%  {:<40} {}",
            format!("{}#{}", span.label, span.rep),
            slice.len(),
            bytes.percent(EncryptionClass::LikelyUnencrypted),
            dests.into_iter().collect::<Vec<_>>().join(", "),
            if pii.is_empty() {
                "-".to_string()
            } else {
                pii.into_iter().collect::<Vec<_>>().join(", ")
            }
        );
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> CliResult {
    use iot_bench::{campaign_config, Scale};
    use intl_iot::analysis::pipeline::Pipeline;
    use intl_iot::analysis::SupervisorConfig;
    use intl_iot::obs::{chrome_trace, RunReport, TraceMode};

    let mut scale = Scale::Quick;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut serve_addr: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_retries: u32 = 0;
    let mut report_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "quick" => scale = Scale::Quick,
            "medium" => scale = Scale::Medium,
            "full" => scale = Scale::Full,
            "workers" => {
                workers = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| usage_err("campaign: workers requires a positive count"))?;
            }
            "--serve" => {
                serve_addr = Some(
                    it.next().cloned().ok_or_else(|| {
                        usage_err("campaign: --serve requires an address, e.g. 127.0.0.1:9100")
                    })?,
                );
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| usage_err("campaign: --trace-out requires a path"))?,
                ));
            }
            "--journal" => {
                journal = Some(PathBuf::from(it.next().ok_or_else(|| {
                    usage_err("campaign: --journal requires a path to write checkpoints to")
                })?));
            }
            "--resume" => {
                resume = Some(PathBuf::from(it.next().ok_or_else(|| {
                    usage_err("campaign: --resume requires the journal path of the interrupted run")
                })?));
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|n| n.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            usage_err("campaign: --deadline-ms requires a positive millisecond count")
                        })?,
                );
            }
            "--max-retries" => {
                max_retries = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| usage_err("campaign: --max-retries requires a count"))?;
            }
            "--report-out" => {
                report_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| usage_err("campaign: --report-out requires a path"))?,
                ));
            }
            other => return Err(usage_err(format!("campaign: unknown argument {other:?}"))),
        }
    }
    if journal.is_some() && resume.is_some() {
        return Err(usage_err(
            "campaign: pass --journal to start a fresh journal or --resume to continue one, not both",
        ));
    }

    // An explicit --serve starts the endpoint before the run so every
    // fold-boundary publication is scrapeable; without it the pipeline
    // still honors IOT_OBS_SERVE.
    let held = match &serve_addr {
        Some(addr) => {
            let bound = intl_iot::obs::serve::start(addr)?;
            println!("telemetry: /metrics /trace /progress /profile on http://{bound}");
            true
        }
        None => false,
    };

    let config = campaign_config(scale);
    println!(
        "campaign: scale={} workers={workers} (obs on)",
        scale.name()
    );
    let mut sup = SupervisorConfig {
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        max_retries,
        ..SupervisorConfig::default()
    };
    if let Some(path) = resume {
        sup.journal = Some(path);
        sup.resume = true;
    } else {
        sup.journal = journal;
    }
    // Test hook: slow the unit loop down so an external killer can
    // reliably interrupt a quick campaign mid-journal.
    if let Some(ms) = std::env::var("IOT_SUPERVISE_THROTTLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        sup.unit_throttle = std::time::Duration::from_millis(ms);
    }
    // Roll the journal into numbered segments past this size; resume
    // reads the whole set and compacts it back to one file.
    if let Some(bytes) = std::env::var("IOT_JOURNAL_ROLL_BYTES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&b| b > 0)
    {
        sup.journal_roll_bytes = Some(bytes);
    }
    let mut p = Pipeline::with_obs(true);
    let s = p.run_campaign_supervised(config, workers, &sup)?;
    let (report, reg) = p.finish_with_obs();

    let salvage = s
        .salvage
        .as_ref()
        .map(|sv| {
            format!(
                " (journal salvage: {} records kept, {} bytes dropped, {} corrupt, {} duplicates)",
                sv.records, sv.dropped_bytes, sv.corrupt_dropped, sv.duplicate_units
            )
        })
        .unwrap_or_default();
    println!(
        "campaign: supervision — {} of {} units replayed from journal, {} run live{salvage}",
        s.units_replayed, s.units_total, s.units_run
    );
    if s.watchdog_cancelled > 0 {
        println!(
            "campaign: watchdog cancelled {} stalled experiment(s)",
            s.watchdog_cancelled
        );
    }

    let obs_report = RunReport::from_registry("campaign", &reg)
        .meta("scale", scale.name())
        .meta("workers", &workers.to_string());
    println!("{}", obs_report.stage_table());
    // Where the time went, when IOT_OBS_PROFILE armed the sampler: top
    // span stacks by share of wall-clock samples.
    if intl_iot::obs::profile::enabled() {
        let prof = intl_iot::obs::profile::snapshot();
        if !prof.is_empty() {
            let idle_pct = prof.idle_samples as f64 * 100.0 / prof.total_samples.max(1) as f64;
            println!(
                "campaign: profile ({} hz, {} samples, {idle_pct:.1}% idle):",
                prof.hz, prof.total_samples
            );
            for (path, samples, share) in prof.top(8) {
                println!("  {:>5.1}%  {path} ({samples} samples)", share * 100.0);
            }
        }
    }
    let ingest = &report.ingest;
    println!(
        "campaign: {} experiments ({} quarantined), {} packets generated, \
         {} ingested, ledger {}",
        report.experiments,
        ingest.experiments_quarantined,
        ingest.packets_generated,
        ingest.packets_ingested,
        if ingest.reconciles() { "reconciles" } else { "DOES NOT RECONCILE" }
    );
    let cov = report.coverage.totals();
    println!(
        "campaign: coverage {} completed / {} retried / {} quarantined / {} abandoned{}",
        cov.completed,
        cov.retried,
        cov.quarantined,
        cov.abandoned,
        if report.coverage.is_degraded() {
            " — DEGRADED"
        } else {
            ""
        }
    );
    let (d, total) = report.devices_with_non_first;
    println!("campaign: {d}/{total} devices contacted non-first parties");
    // Heap footprint, when IOT_OBS_ALLOC turned the instrumented
    // allocator on (the stage table above then also carries per-stage
    // alloc columns).
    if intl_iot::obs::alloc::enabled() {
        let totals = intl_iot::obs::alloc::process_totals();
        println!(
            "campaign: heap {:.1} MB allocated in {} allocations, high-water \
             {:.1} MB, kernel peak RSS {:.1} MB",
            totals.bytes_allocated as f64 / 1e6,
            totals.allocs,
            intl_iot::obs::alloc::process_high_water_bytes() as f64 / 1e6,
            intl_iot::obs::process::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
        );
    }

    if let Some(path) = report_out {
        use iot_core::json::ToJson;
        let json = report.to_json().dump();
        std::fs::write(&path, &json)?;
        println!(
            "campaign: wrote report JSON to {} ({} bytes)",
            path.display(),
            json.len()
        );
    }

    if let Some(path) = trace_out {
        let trace = chrome_trace(&reg.timeline(), TraceMode::Wall).dump();
        std::fs::write(&path, &trace)?;
        println!(
            "campaign: wrote Chrome trace to {} ({} bytes; load at ui.perfetto.dev)",
            path.display(),
            trace.len()
        );
    }

    if held {
        println!("campaign: done — final snapshots stay scrapeable; Ctrl-C to exit");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(())
}

fn cmd_oracle(args: &[String]) -> CliResult {
    use iot_bench::{campaign_config, Scale};

    let mut scale = Scale::Quick;
    for arg in args {
        match arg.as_str() {
            "quick" => scale = Scale::Quick,
            "medium" => scale = Scale::Medium,
            "full" => scale = Scale::Full,
            other => return Err(usage_err(format!("oracle: unknown argument {other:?}"))),
        }
    }
    println!(
        "oracle: scale={} (1-worker + differential + metamorphic runs)",
        scale.name()
    );
    let outcome = intl_iot::oracle::run_oracle(campaign_config(scale));
    println!("{}", outcome.summary());
    if !outcome.is_clean() {
        return Err(format!("{} correctness violations", outcome.total()).into());
    }
    println!("oracle: all invariants, metamorphic relations, and differential runs hold");
    Ok(())
}

fn cmd_idle(args: &[String]) -> CliResult {
    let name = args.first().ok_or("idle: device name required")?;
    let hours: f64 = args
        .get(1)
        .and_then(|h| h.parse().ok())
        .ok_or("idle: hours required, e.g. `moniotr idle \"Zmodo Doorbell\" 4`")?;
    let db = GeoDb::new();
    let lab = Lab::deploy(LabSite::Us);
    let device = find_device(&lab, name)?;
    let exp = run_idle(&db, device, false, hours, 0);
    let packets = exp.packets();
    let units = segment_units(&packets, 2.0);
    println!(
        "{name}: {} packets / {} bytes over {hours}h idle; {} traffic units (2s gap)",
        packets.len(),
        exp.total_bytes(),
        units.len()
    );
    let classifiable = units.iter().filter(|u| u.len() >= 4).count();
    println!("{classifiable} units large enough to classify (≥4 packets)");
    Ok(())
}
