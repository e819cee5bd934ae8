//! # iot-analysis
//!
//! The core contribution of the reproduction: the multidimensional,
//! network-informed analysis pipeline of *Information Exposure From
//! Consumer IoT Devices* (IMC 2019), §4–§7.
//!
//! Given labeled captures from the (simulated) testbeds, the pipeline
//! answers the paper's research questions:
//!
//! * [`flows`] — rebuild flows from raw frames; label each with the domain
//!   learned from DNS answers, TLS SNI, or HTTP `Host` (§4.1's hierarchy).
//! * [`destinations`] — RQ1: party / organization / country of every
//!   destination (Tables 2–4, Figure 2).
//! * [`encryption`] — RQ2: protocol- and entropy-based encryption
//!   classification per flow, aggregated by device, category, and
//!   experiment type (Tables 5–8).
//! * [`pii`] — RQ3: plaintext PII scanning across encodings (§6.2).
//! * [`features`], [`inference`] — RQ4: per-device random-forest activity
//!   inference with the paper's validation protocol (Tables 9–10).
//! * [`unexpected`] — RQ5: traffic-unit segmentation and high-confidence
//!   models applied to idle / user-study traffic (Table 11, §7.3).
//! * [`regional`] — RQ6: statistical comparison of exposure across labs
//!   and egress points (Table 7's significance marks).
//! * [`report`] — text/JSON rendering used by the `iot-bench` binaries.
//! * [`ingest`] — salvage accounting and quarantine: the ledger kept when
//!   captures arrive degraded (see `iot-chaos` and DESIGN.md §10).
//! * [`supervise`] — campaign supervision: checkpoint/resume journal,
//!   per-experiment deadlines, deterministic retry, and the coverage
//!   manifest (DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod destinations;
pub mod encryption;
pub mod features;
pub mod flows;
pub mod inference;
pub mod ingest;
pub mod pii;
pub mod pipeline;
pub mod regional;
pub mod report;
pub mod supervise;
pub mod unexpected;

pub use destinations::DestinationAnalysis;
pub use encryption::EncryptionAnalysis;
pub use flows::ExperimentFlows;
pub use ingest::IngestStats;
pub use pipeline::{Pipeline, PipelineReport};
pub use supervise::{Coverage, JournalError, SupervisorConfig, SuperviseSummary};
