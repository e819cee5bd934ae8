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
//!   fixed-bucket histograms, and hierarchical spans.
//! * [`alloc`] — the instrumented global allocator (`IOT_OBS_ALLOC`):
//!   thread-local byte/count/live/high-water accounting whose span
//!   deltas the registry attributes to the current span path.
//! * [`span`] — [`SpanStats`] and the RAII [`SpanGuard`] returned by
//!   [`Registry::span`]: wall-clock plus call counts aggregated per
//!   `parent/child` label path.
//! * [`metrics`] — the deterministic power-of-two-bucket [`Histogram`].
//! * [`events`] — the flight recorder: a fixed-capacity, shard-local
//!   [`EventRing`] of span begin/end and counter-delta [`Event`]s,
//!   folded at merge time into one [`Timeline`].
//! * [`profile`] — the span-stack sampling profiler (`IOT_OBS_PROFILE`):
//!   a lock-free per-thread seqlock slot publishes the current interned
//!   span path; a sampler thread folds slot contents into flamegraph
//!   counts at a fixed rate, observational-only.
//! * [`export`] — [`chrome_trace`] (Perfetto-loadable trace-event JSON),
//!   [`prometheus`] (text exposition 0.0.4), and the profiler's
//!   [`folded_stacks`] / [`speedscope_json`] renderers.
//! * [`serve`] — an optional std-only HTTP endpoint (`IOT_OBS_SERVE`)
//!   serving `/metrics`, `/trace`, `/progress`, and `/profile` live
//!   during a run.
//! * [`report`] — [`RunReport`]: a snapshot of a registry rendered as
//!   deterministic JSON (via `iot_core::json`) or as a human-readable
//!   stage table, written to `results/obs_run.json` by default.
//! * [`config`] — the `IOT_OBS` / `IOT_OBS_OUT` / `IOT_OBS_SERVE` /
//!   `IOT_OBS_EVENTS` environment gates, parsed once into a cached
//!   [`config::ObsConfig`].
//! * [`process`] — process-wide atomic counters for layers (like the
//!   testbed generators) that have no registry in scope.
//! * [`log`] — the [`progress!`](crate::progress) macro: stderr progress
//!   lines that only print at `IOT_OBS=2`.
//!
//! ## Enablement
//!
//! The layer is off by default and compiles down to a branch per call
//! site when disabled: no clocks are read, no strings are allocated,
//! nothing is written. `IOT_OBS=1` turns recording (and report writing)
//! on; `IOT_OBS=2` additionally prints progress lines. Registries can
//! also be forced on or off programmatically with
//! [`Registry::with_enabled`] — benches use this to measure
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
pub mod config;
pub mod events;
pub mod export;
pub mod log;
pub mod metrics;
pub mod process;
pub mod profile;
pub mod registry;
pub mod report;
pub mod serve;
pub mod span;

pub use alloc::AllocStats;
pub use config::{enabled, verbose};
pub use events::{Event, EventKind, EventRing, Timeline};
pub use export::{chrome_trace, folded_stacks, prometheus, speedscope_json, TraceMode};
pub use metrics::Histogram;
pub use profile::ProfileSnapshot;
pub use registry::{Registry, SpanGuard};
pub use report::RunReport;
pub use span::SpanStats;
