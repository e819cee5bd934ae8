//! Streaming-ingest smoke test: proves the zero-copy cursor pipeline
//! keeps its promises at quick scale, cheaply enough to gate every
//! `verify.sh` run.
//!
//! Gates (any failure exits non-zero):
//!
//! 1. **Worker-count identity, clean:** the report is identical at 1, 2,
//!    and 8 workers (`iot_oracle::differential::check_worker_grid`).
//! 2. **Worker-count identity, faulted:** the same identity holds with a
//!    fault plan armed, so the degrade → lenient-salvage → re-encode
//!    path is deterministic across worker counts too.
//! 3. **Bounded heap:** a counting-on `run_campaign` (the one driver, one
//!    worker on this thread) keeps its heap high-water under
//!    `IOT_STREAMING_HW_CEILING` bytes (default 2,161,492 —
//!    half the materializing pipeline's committed 4,322,984-byte
//!    baseline, so a regression back to packet-vector ingest fails
//!    loudly).
//! 4. **Bounded RSS:** the kernel's `VmHWM` for this process stays
//!    under `IOT_STREAMING_RSS_CEILING` bytes (default 64 MB).

use iot_analysis::pipeline::Pipeline;
use iot_bench::{campaign_config, Scale};
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_oracle::differential::{check_worker_grid, run};
use iot_testbed::schedule::CampaignConfig;

const DEFAULT_HW_CEILING: u64 = 2_161_492;
const DEFAULT_RSS_CEILING: u64 = 64 * 1024 * 1024;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn report(config: CampaignConfig) -> String {
    let mut p = Pipeline::with_obs(false);
    p.run_campaign(config);
    p.finish().to_json().dump()
}

fn main() {
    let config = campaign_config(Scale::Quick);
    let hw_ceiling = env_u64("IOT_STREAMING_HW_CEILING", DEFAULT_HW_CEILING);
    let rss_ceiling = env_u64("IOT_STREAMING_RSS_CEILING", DEFAULT_RSS_CEILING);
    let mut failures = 0u32;

    // Gate 1+2: worker-count identity, clean and faulted.
    for (label, plan) in [
        ("clean", None),
        ("faulted", Some(FaultPlan::uniform(1009, 0.08))),
    ] {
        let (_, violations) =
            check_worker_grid("streaming_workers", |workers| run(config, plan, workers));
        if violations.is_empty() {
            println!("streaming_smoke: {label} report identical at 1/2/8 workers");
        } else {
            eprintln!(
                "streaming_smoke: FAIL — {label} report diverged across worker counts \
                 ({} fields; first: {})",
                violations.len(),
                violations[0].render()
            );
            failures += 1;
        }
    }

    // Gate 3: heap high-water of one counting-on run. Reset the ratchet
    // first so the measurement covers exactly this campaign, not the
    // identity runs above.
    iot_obs::alloc::set_enabled(true);
    iot_obs::alloc::reset_high_water();
    let counted = report(config);
    let high_water = iot_obs::alloc::process_high_water_bytes();
    iot_obs::alloc::set_enabled(false);
    if counted != report(config) {
        eprintln!("streaming_smoke: FAIL — counting-on report diverged from baseline");
        failures += 1;
    }
    if high_water <= hw_ceiling {
        println!(
            "streaming_smoke: heap high-water {high_water} B <= ceiling {hw_ceiling} B"
        );
    } else {
        eprintln!(
            "streaming_smoke: FAIL — heap high-water {high_water} B exceeds \
             ceiling {hw_ceiling} B (streaming ingest no longer bounded?)"
        );
        failures += 1;
    }

    // Gate 4: kernel-observed peak RSS for the whole process.
    match iot_obs::process::peak_rss_bytes() {
        Some(rss) if rss <= rss_ceiling => {
            println!("streaming_smoke: peak RSS {rss} B <= ceiling {rss_ceiling} B");
        }
        Some(rss) => {
            eprintln!(
                "streaming_smoke: FAIL — peak RSS {rss} B exceeds ceiling {rss_ceiling} B"
            );
            failures += 1;
        }
        None => {
            // /proc/self/status unavailable (non-Linux): high-water gate
            // above still holds the line.
            println!("streaming_smoke: peak RSS unavailable on this platform (skipped)");
        }
    }

    if failures > 0 {
        eprintln!("streaming_smoke: {failures} gate(s) failed");
        std::process::exit(1);
    }
    println!("streaming_smoke: OK");
}
