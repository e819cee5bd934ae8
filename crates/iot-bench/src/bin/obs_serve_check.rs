//! Live-telemetry endpoint smoke test, run by `verify.sh`.
//!
//! Starts the `iot-obs` HTTP server on an ephemeral localhost port,
//! drives a small instrumented 2-worker campaign through the pipeline on
//! a worker thread, and — while and after it runs — probes the endpoint
//! with raw `TcpStream` requests (the in-tree equivalent of `curl`):
//!
//! 1. `/progress` responds live during the campaign;
//! 2. `/metrics` is Prometheus text exposition with `# TYPE` lines,
//!    counter/histogram series, and the pipeline's stage counters;
//! 3. `/trace` parses as Chrome trace-event JSON with a non-empty
//!    `traceEvents` array;
//! 4. the final `/progress` ledger satisfies the `IngestStats`
//!    conservation invariant (`generated + duplicated == ingested +
//!    dropped + lost + quarantined`) even under an armed fault plan,
//!    and — with the instrumented allocator counting — carries a live
//!    `alloc` block while `/metrics` carries the per-span memory series;
//! 5. with the sampling profiler armed for the campaign, `/profile`
//!    serves non-empty collapsed-stack text whose lines are well-formed
//!    `frames count` pairs, and `/metrics` carries the
//!    `iot_profile_samples_total` series;
//! 6. unknown routes answer 404 and non-GET methods answer 405.
//!
//! Exits non-zero on any failure, so `verify.sh` can gate on it.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_core::json::Json;
use iot_testbed::schedule::CampaignConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

/// Sends one raw HTTP request and returns `(status_line, body)`.
fn request(addr: SocketAddr, head: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{head}\r\nHost: localhost\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response
        .lines()
        .next()
        .unwrap_or_default()
        .to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| format!("no header/body separator in response to {head:?}"))?;
    Ok((status, body))
}

fn get(addr: SocketAddr, path: &str) -> Result<(String, String), String> {
    request(addr, &format!("GET {path} HTTP/1.1"))
}

fn expect_status(head: &str, status: &str, want: &str) -> Result<(), String> {
    if status.contains(want) {
        Ok(())
    } else {
        Err(format!("{head}: expected {want}, got {status:?}"))
    }
}

/// Extracts `progress.ingest.<field>` from a `/progress` body.
fn ingest_field(progress: &Json, field: &str) -> Result<u64, String> {
    progress
        .get("progress")
        .and_then(|p| p.get("ingest"))
        .and_then(|i| i.get(field))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("/progress: missing progress.ingest.{field}"))
}

fn check() -> Result<(), String> {
    let addr = iot_obs::serve::start("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    println!("obs_serve_check: endpoint on {addr}");
    // Heap counting on, so the live surfaces must carry the allocator
    // series: per-span memory counters in /metrics, the alloc block in
    // /progress.
    iot_obs::alloc::set_enabled(true);
    // Sampling profiler armed, so /profile has stacks to serve and
    // /metrics carries the sample series.
    iot_obs::profile::start(997);

    // A small campaign, instrumented and lightly faulted so quarantine
    // accounting is exercised, on a worker thread so the endpoint can be
    // probed while the run is in flight.
    let campaign = std::thread::spawn(move || {
        let mut p = Pipeline::with_obs(true);
        p.set_fault_plan(iot_chaos::FaultPlan {
            panic_rate: 0.01,
            ..iot_chaos::FaultPlan::uniform(0x5EEDED, 0.01)
        });
        p.run_campaign_supervised(
            CampaignConfig {
                automated_reps: 1,
                manual_reps: 1,
                power_reps: 1,
                idle_hours: 0.05,
                include_vpn: false,
            },
            2,
            &SupervisorConfig::default(),
        )
        .expect("a run without a journal cannot fail to journal");
        p.finish()
    });

    // 1. The endpoint must answer while the campaign runs (the very
    // first probes may race the first publication; any well-formed
    // response counts as live).
    let (status, _) = get(addr, "/progress")?;
    expect_status("live /progress", &status, "200")?;
    println!("obs_serve_check: /progress live during campaign ({status})");

    let report = campaign
        .join()
        .map_err(|_| "campaign thread panicked".to_string())?;

    // 2. /metrics: Prometheus exposition of the folded registry.
    let (status, metrics) = get(addr, "/metrics")?;
    expect_status("/metrics", &status, "200")?;
    for needle in [
        "# TYPE iot_experiments_total counter",
        "iot_flows_total ",
        "# TYPE iot_experiment_packets histogram",
        "iot_experiment_packets_bucket{le=",
        "_sum ",
        "_count ",
        "iot_span_duration_ns_bucket{span=\"ingest\",le=",
        "iot_span_alloc_bytes_total{span=",
        "# TYPE iot_profile_samples_total counter",
    ] {
        if !metrics.contains(needle) {
            return Err(format!("/metrics: missing {needle:?} in:\n{metrics}"));
        }
    }
    println!("obs_serve_check: /metrics OK ({} bytes)", metrics.len());

    // 3. /trace: Chrome trace-event JSON, non-empty.
    let (status, trace) = get(addr, "/trace")?;
    expect_status("/trace", &status, "200")?;
    let trace = Json::parse(&trace).map_err(|e| format!("/trace: not JSON: {e}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(Json::items)
        .ok_or("/trace: no traceEvents array")?;
    if events.is_empty() {
        return Err("/trace: traceEvents is empty".to_string());
    }
    println!("obs_serve_check: /trace OK ({} events)", events.len());

    // 4. Final /progress must carry the reconciled ingest ledger.
    let (status, progress) = get(addr, "/progress")?;
    expect_status("final /progress", &status, "200")?;
    let progress = Json::parse(&progress).map_err(|e| format!("/progress: not JSON: {e}"))?;
    let generated = ingest_field(&progress, "packets_generated")?;
    let duplicated = ingest_field(&progress, "packets_duplicated")?;
    let ingested = ingest_field(&progress, "packets_ingested")?;
    let dropped = ingest_field(&progress, "packets_dropped")?;
    let lost = ingest_field(&progress, "packets_lost")?;
    let quarantined = ingest_field(&progress, "packets_quarantined")?;
    if generated + duplicated != ingested + dropped + lost + quarantined {
        return Err(format!(
            "/progress ledger does not reconcile: {generated} + {duplicated} != \
             {ingested} + {dropped} + {lost} + {quarantined}"
        ));
    }
    if !report.ingest.reconciles() {
        return Err("pipeline ledger does not reconcile".to_string());
    }
    if generated != report.ingest.packets_generated {
        return Err(format!(
            "/progress ledger diverges from the pipeline report: \
             {generated} != {}",
            report.ingest.packets_generated
        ));
    }
    println!(
        "obs_serve_check: /progress ledger reconciles \
         ({generated} generated, {quarantined} quarantined)"
    );
    // With counting on, the publication must include live heap facts.
    let alloc_bytes = progress
        .get("progress")
        .and_then(|p| p.get("alloc"))
        .and_then(|a| a.get("bytes_total"))
        .and_then(Json::as_u64)
        .ok_or("/progress: missing progress.alloc.bytes_total")?;
    if alloc_bytes == 0 {
        return Err("/progress: alloc.bytes_total is zero with counting on".to_string());
    }
    println!("obs_serve_check: /progress alloc block OK ({alloc_bytes} bytes allocated)");

    // 5. /profile: collapsed-stack text from the armed sampler.
    let (status, folded) = get(addr, "/profile")?;
    expect_status("/profile", &status, "200")?;
    if folded.trim().is_empty() {
        return Err("/profile: empty body with the sampler armed".to_string());
    }
    for line in folded.lines() {
        let (frames, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("/profile: malformed line {line:?}"))?;
        if frames.is_empty() || count.parse::<u64>().is_err() {
            return Err(format!("/profile: malformed line {line:?}"));
        }
    }
    println!(
        "obs_serve_check: /profile OK ({} stack line(s))",
        folded.lines().count()
    );
    iot_obs::profile::set_enabled(false);

    // 6. Error paths.
    let (status, _) = get(addr, "/nope")?;
    expect_status("/nope", &status, "404")?;
    let (status, _) = request(addr, "POST /metrics HTTP/1.1")?;
    expect_status("POST /metrics", &status, "405")?;
    println!("obs_serve_check: 404/405 paths OK");
    Ok(())
}

fn main() -> ExitCode {
    match check() {
        Ok(()) => {
            println!("obs_serve_check: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_serve_check: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
