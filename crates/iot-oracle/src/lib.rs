//! Paper-fidelity correctness oracle for the analysis pipeline.
//!
//! The pipeline reproduces tables from a measurement paper; nothing in
//! the pipeline itself independently checks that the numbers it emits
//! still *mean* what the paper says they mean. This crate is that
//! check — a harness of three pillars, each catching a different class
//! of silent drift:
//!
//! 1. **Invariant checks** ([`invariants`]) — conservation laws run as a
//!    post-pass over a finished [`PipelineReport`], and cross-checks of
//!    every derived report field against the live accumulators
//!    (via [`Pipeline::build_report`], which leaves the pipeline
//!    inspectable). Examples: the ingest ledger reconciles, per-class
//!    byte percentages sum to 100, every PII finding names a cataloged
//!    device deployed at its site, Table 11 counts equal the sum of
//!    per-label detections.
//! 2. **Metamorphic relations** ([`metamorphic`]) — transformations of
//!    the *input* with a known effect on the *output*: permuting
//!    experiment order or relabeling repetition indices leaves the
//!    report byte-identical; removing one device removes exactly that
//!    device's rows; adding the VPN dimension leaves every
//!    native-egress field untouched.
//! 3. **Differential runs** ([`differential`]) — the same campaign at
//!    1/2/8 workers and under an armed chaos-clean plan, compared field
//!    by field with a structured diff ([`diff`]), so a divergence names
//!    the table, row, and field rather than just "bytes differ".
//!    [`differential::check_worker_grid`] is the worker-count identity
//!    check every other gate reuses.
//!
//! [`run_oracle`] composes all three into the gate `verify.sh` runs via
//! the `oracle_check` binary and the CLI exposes as `moniotr oracle`.
//!
//! [`PipelineReport`]: iot_analysis::pipeline::PipelineReport
//! [`Pipeline::build_report`]: iot_analysis::pipeline::Pipeline::build_report

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod differential;
pub mod harness;
pub mod invariants;
pub mod metamorphic;
pub mod results;

pub use harness::{run_oracle, OracleOutcome};

use iot_core::json::{Json, ToJson};

/// One violated correctness property, located precisely enough to act
/// on: which invariant class fired, and which table / row / field of
/// the report it fired in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant class slug, e.g. `ledger_conservation`, `mix_recount`,
    /// `order_permutation`, `differential_workers`.
    pub invariant: &'static str,
    /// Report table/section, e.g. `ingest`, `encryption_mix`,
    /// `pii_findings`.
    pub table: String,
    /// Row within the table: a lab name, device, label, or index.
    pub row: String,
    /// Field that violated the property.
    pub field: String,
    /// Human-readable explanation with the offending values.
    pub detail: String,
}

impl Violation {
    /// Builds a violation; `table`/`row`/`field` accept anything
    /// string-like.
    pub fn new(
        invariant: &'static str,
        table: impl Into<String>,
        row: impl Into<String>,
        field: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Violation {
            invariant,
            table: table.into(),
            row: row.into(),
            field: field.into(),
            detail: detail.into(),
        }
    }

    /// One-line rendering: `class @ table/row/field: detail`.
    pub fn render(&self) -> String {
        format!(
            "{} @ {}/{}/{}: {}",
            self.invariant, self.table, self.row, self.field, self.detail
        )
    }
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("invariant", self.invariant.to_json());
        j.set("table", self.table.to_json());
        j.set("row", self.row.to_json());
        j.set("field", self.field.to_json());
        j.set("detail", self.detail.to_json());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_renders_and_serializes() {
        let v = Violation::new(
            "mix_sum",
            "encryption_mix",
            "US",
            "sum",
            "sums to 104.2, expected 100",
        );
        assert_eq!(
            v.render(),
            "mix_sum @ encryption_mix/US/sum: sums to 104.2, expected 100"
        );
        let dump = v.to_json().dump();
        assert!(dump.contains("\"invariant\":\"mix_sum\""), "{dump}");
        assert!(dump.contains("\"row\":\"US\""), "{dump}");
    }
}
