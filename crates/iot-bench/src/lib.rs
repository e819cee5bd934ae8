//! Shared harness for the `tables` binary and the in-tree benchmarks.
//!
//! `tables` (see [`tables`]) regenerates every paper artifact under
//! `results/`. It reads the `IOT_SCALE` environment variable:
//!
//! * `quick` — a minimal grid for smoke runs.
//! * `medium` *(default)* — enough repetitions for stable numbers.
//! * `full` — the paper-scale grid (§3.3's ~34,586 controlled
//!   experiments); Tables 9–11 and §7.3 together take ~21 s on a
//!   2-vCPU host.
//!
//! Results are printed as text tables and also written as JSON under
//! `results/` (override with `IOT_RESULTS_DIR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod profile_diff;
pub mod tables;

use iot_testbed::schedule::{Campaign, CampaignConfig};
use std::path::PathBuf;

/// Where artifacts are written: `IOT_RESULTS_DIR`, default `results`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("IOT_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

/// Selected run scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-run grid.
    Quick,
    /// Default grid.
    Medium,
    /// Paper-scale grid.
    Full,
}

impl Scale {
    /// Lower-case name matching the `IOT_SCALE` value.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Full => "full",
        }
    }
}

/// Reads the scale from `IOT_SCALE`.
pub fn scale() -> Scale {
    match std::env::var("IOT_SCALE").as_deref() {
        Ok("quick") => Scale::Quick,
        Ok("full") => Scale::Full,
        _ => Scale::Medium,
    }
}

/// Campaign configuration for a scale.
pub fn campaign_config(scale: Scale) -> CampaignConfig {
    match scale {
        Scale::Quick => CampaignConfig {
            automated_reps: 2,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.5,
            include_vpn: true,
        },
        Scale::Medium => CampaignConfig {
            automated_reps: 8,
            manual_reps: 3,
            power_reps: 3,
            idle_hours: 4.0,
            include_vpn: true,
        },
        Scale::Full => CampaignConfig::default(),
    }
}

/// Cross-validation / forest settings per scale.
pub fn inference_config(scale: Scale) -> iot_analysis::inference::InferenceConfig {
    use iot_ml::forest::RandomForestConfig;
    match scale {
        Scale::Quick => iot_analysis::inference::InferenceConfig {
            cv_repeats: 2,
            forest: RandomForestConfig {
                n_trees: 8,
                ..RandomForestConfig::default()
            },
        },
        Scale::Medium => iot_analysis::inference::InferenceConfig {
            cv_repeats: 5,
            forest: RandomForestConfig {
                n_trees: 20,
                ..RandomForestConfig::default()
            },
        },
        Scale::Full => iot_analysis::inference::InferenceConfig::default(),
    }
}

/// Campaign used when training per-device classifiers (no VPN dimension;
/// that is chosen by the caller).
pub fn training_campaign(scale: Scale) -> Campaign {
    let mut config = campaign_config(scale);
    config.automated_reps = config.automated_reps.max(match scale {
        Scale::Quick => 6,
        Scale::Medium => 12,
        Scale::Full => 30,
    });
    config.manual_reps = config.manual_reps.max(4);
    config.power_reps = config.power_reps.max(4);
    Campaign::new(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_configs_ordered() {
        let q = campaign_config(Scale::Quick);
        let m = campaign_config(Scale::Medium);
        let f = campaign_config(Scale::Full);
        assert!(q.automated_reps < m.automated_reps);
        assert!(m.automated_reps < f.automated_reps);
    }
}
