//! Identity of pipeline reports with the sampling profiler armed.
//!
//! Sampling is observational only: nothing the sampler accumulates may
//! feed back into the analysis report. This test arms the sampler at an
//! aggressive rate and demands that 1/2/8-worker runs still produce
//! identical reports — the same gate `bench_pipeline` enforces in CI,
//! kept here so `cargo test` alone catches a violation.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_oracle::differential::check_worker_grid;
use iot_oracle::Violation;
use iot_testbed::schedule::CampaignConfig;

fn tiny() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: false,
    }
}

#[test]
fn reports_stay_identical_with_sampler_armed() {
    let _g = iot_obs::profile::test_lock();
    iot_obs::profile::start(997);

    let (_, v) = check_worker_grid("profile_identity", |workers| {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(tiny(), workers, &SupervisorConfig::default())
            .expect("a run without a journal cannot fail to journal");
        p.finish()
    });
    // The sampler did observe the work: every worker registers with it,
    // so an armed profiler accumulates samples.
    let snap = iot_obs::profile::snapshot();
    iot_obs::profile::set_enabled(false);
    iot_obs::profile::reset();

    let rendered: Vec<String> = v.iter().map(Violation::render).collect();
    assert!(
        v.is_empty(),
        "sampling perturbed a report:\n{}",
        rendered.join("\n")
    );
    assert!(
        !snap.is_empty(),
        "armed sampler saw registered workers run a campaign"
    );
}
