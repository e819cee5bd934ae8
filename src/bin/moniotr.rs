//! `moniotr` — a command-line front end to the simulated testbed and the
//! analysis pipeline, working through the same on-disk capture layout the
//! real Mon(IoT)r lab produced.
//!
//! ```text
//! moniotr devices                              list the 81-device catalog
//! moniotr capture <device> [uk] [vpn] [DIR]    run power + all interactions → pcap dir
//! moniotr analyze <device-dir>                 the campaign driver's report JSON for
//!                                              one device directory
//! moniotr idle <device> <hours>                idle capture + traffic-unit summary
//! moniotr campaign [quick|medium|full] [workers N] [--serve ADDR]
//!                  [--journal PATH | --resume PATH] [--report-out PATH]
//!                                              full instrumented campaign + telemetry;
//!                                              --journal/--resume arm the checkpoint
//!                                              journal
//! ```
//!
//! Unknown subcommands or flags print the usage text and exit with
//! status 2; runtime failures exit with status 1.

use intl_iot::analysis::unexpected::segment_units;
use intl_iot::geodb::registry::GeoDb;
use intl_iot::testbed::capture::{read_experiments, CaptureStore};
use intl_iot::testbed::experiment::{run_idle, run_interaction, run_power, LabeledExperiment};
use intl_iot::testbed::lab::{Lab, LabSite};
use intl_iot::testbed::{catalog, device::Availability};
use iot_core::json::ToJson;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: moniotr devices\n       moniotr capture <device> [uk] [vpn] [out-dir]\n       \
     moniotr analyze <device-dir>\n       moniotr idle <device> <hours>\n       \
     moniotr campaign [quick|medium|full] [workers N] [--serve ADDR]\n                \
     [--journal PATH | --resume PATH] [--report-out PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("devices") => cmd_devices(),
        Some("capture") => cmd_capture(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("idle") => cmd_idle(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
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
    let name = args
        .first()
        .ok_or_else(|| usage_err("capture: device name required"))?;
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

/// Reads a device directory back into its labeled experiments, runs
/// them through the campaign driver, and prints the report JSON — the
/// bytes `campaign --report-out` writes.
fn cmd_analyze(args: &[String]) -> CliResult {
    use intl_iot::analysis::pipeline::Pipeline;

    let dir = args
        .first()
        .ok_or_else(|| usage_err("analyze: device directory required"))?;
    // The layout does not record the egress; a lab's own captures leave
    // through its native one.
    let (experiments, salvage) = read_experiments(Path::new(dir), false)?;
    if !salvage.is_pristine() {
        eprintln!(
            "warning: degraded capture — {} resyncs, {} bytes skipped, {} torn tail bytes",
            salvage.resyncs, salvage.bytes_skipped, salvage.torn_tail_bytes
        );
    }
    let mut p = Pipeline::with_obs(false);
    p.ingest_experiments(experiments);
    let mut out = std::io::stdout().lock();
    out.write_all(p.finish().to_json().dump().as_bytes())?;
    out.flush()?;
    Ok(())
}

fn cmd_campaign(args: &[String]) -> CliResult {
    use iot_bench::{campaign_config, Scale};
    use intl_iot::analysis::pipeline::Pipeline;
    use intl_iot::analysis::SupervisorConfig;
    use intl_iot::obs::RunReport;

    let mut scale = Scale::Quick;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut serve_addr: Option<String> = None;
    let mut journal: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut report_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            "--report-out" => {
                report_out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| usage_err("campaign: --report-out requires a path"))?,
                ));
            }
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("campaign: unknown argument {flag:?}")))
            }
            word => {
                scale = word
                    .parse()
                    .map_err(|e: String| usage_err(format!("campaign: {e}")))?
            }
        }
    }
    if journal.is_some() && resume.is_some() {
        return Err(usage_err(
            "campaign: pass --journal to start a fresh journal or --resume to continue one, not both",
        ));
    }

    // --serve starts the endpoint before the run so every fold-boundary
    // publication is scrapeable.
    let held = match &serve_addr {
        Some(addr) => {
            let bound = intl_iot::obs::serve::start(addr)?;
            println!("telemetry: /metrics /progress /profile on http://{bound}");
            true
        }
        None => false,
    };

    let config = campaign_config(scale);
    println!(
        "campaign: scale={} workers={workers} (obs on)",
        scale.name()
    );
    let sup = SupervisorConfig {
        resume: resume.is_some(),
        journal: resume.or(journal),
    };
    // Heap counting too, so `/metrics` and `/progress` carry heap.
    let _counting = intl_iot::obs::alloc::counting(true);
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

    let obs_report = RunReport::from_registry("campaign", &reg)
        .meta("scale", scale.name())
        .meta("workers", &workers.to_string());
    println!("{}", obs_report.stage_table());
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
        "campaign: coverage {} completed / {} quarantined{}",
        cov.completed,
        cov.quarantined,
        if report.coverage.is_degraded() {
            " — DEGRADED"
        } else {
            ""
        }
    );
    let (d, total) = report.devices_with_non_first;
    println!("campaign: {d}/{total} devices contacted non-first parties");

    if let Some(path) = report_out {
        let json = report.to_json().dump();
        std::fs::write(&path, &json)?;
        println!(
            "campaign: wrote report JSON to {} ({} bytes)",
            path.display(),
            json.len()
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

fn cmd_idle(args: &[String]) -> CliResult {
    let name = args
        .first()
        .ok_or_else(|| usage_err("idle: device name required"))?;
    let hours: f64 = args
        .get(1)
        .and_then(|h| h.parse().ok())
        .filter(|h: &f64| h.is_finite() && *h > 0.0)
        .ok_or_else(|| {
            usage_err("idle: positive hours required, e.g. `moniotr idle \"Zmodo Doorbell\" 4`")
        })?;
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
