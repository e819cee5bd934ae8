//! # iot-obs
//!
//! Zero-dependency observability layer for the analysis pipeline:
//! tracing spans, metrics, and machine-readable run reports.
//!
//! The design mirrors the pipeline's worker pattern: every worker owns
//! a private [`Registry`] and records into it without any locking;
//! registries [`merge`](Registry::merge) order-independently when the
//! workers end, so a run accumulates exactly the same metrics at any
//! worker count. Concretely:
//!
//! * [`registry`] — the [`Registry`]: shard-local counters, gauges,
//!   fixed-bucket histograms, and spans. A span is named by its full
//!   `parent/…/label` path and measured by the one stage meter,
//!   [`Meter`] (time, plus heap traffic while the allocator counts),
//!   either inside the RAII [`SpanGuard`] that [`Registry::span`]
//!   returns or held by the caller and recorded with
//!   [`Meter::record`]; each path keeps one duration [`Histogram`]:
//!   calls, total, min, max and quantiles all come from it.
//! * [`alloc`] — the instrumented global allocator, switched on by its
//!   caller with [`alloc::set_enabled`]: thread-local
//!   byte/count/live/high-water accounting whose span deltas the
//!   registry attributes to the open span's path.
//! * [`metrics`] — the deterministic power-of-two-bucket [`Histogram`].
//! * [`export`] — [`prometheus`] (text exposition 0.0.4) and
//!   [`folded_stacks`], the span tree as a collapsed-stack profile
//!   weighted by self time.
//! * [`serve`] — an optional std-only HTTP endpoint, started with
//!   [`serve::start`], serving `/metrics`, `/progress`, and `/profile`
//!   live during a run.
//! * [`report`] — [`RunReport`]: a snapshot of a registry rendered as
//!   deterministic JSON (via `iot_core::json`) or as a human-readable
//!   stage table.
//! * [`process`] — process-wide facts: the allocator's totals and the
//!   kernel's peak RSS, which the run report and `/progress` carry.
//!
//! ## Enablement
//!
//! The layer reads no environment: every switch is an argument of the
//! code that wants it. A registry records only when built with
//! [`Registry::with_enabled`]`(true)`, and compiles down to a branch
//! per call site otherwise: no clocks are read, no strings are
//! allocated. The allocator counts only between
//! [`alloc::set_enabled`] calls, and the endpoint listens only once
//! [`serve::start`] is called. Benches use this to measure
//! instrumentation overhead inside one process.
//!
//! ## Determinism
//!
//! Counter and histogram merges are associative and commutative, so the
//! merged values are byte-identical across any worker count — that
//! subset is exposed as [`RunReport::deterministic_json`] and gated by
//! `iot-analysis`'s determinism tests. Span timings and per-worker
//! gauges are intrinsically run-dependent and only appear in the full
//! [`RunReport::to_json`].

// `deny` rather than `forbid`: the one exception is `alloc`, whose
// `GlobalAlloc` impl is unavoidably unsafe and carries its own
// module-level `#![allow(unsafe_code)]` plus SAFETY argument. Every
// other module still rejects unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod export;
pub mod metrics;
pub mod process;
pub mod registry;
pub mod report;
pub mod serve;

pub use alloc::AllocStats;
pub use export::{folded_stacks, prometheus};
pub use metrics::Histogram;
pub use registry::{Meter, Registry, SpanGuard};
pub use report::RunReport;
