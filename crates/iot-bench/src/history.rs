//! Bench-history trajectory: append-only JSONL of `bench_pipeline` runs.
//!
//! `BENCH_pipeline.json` is a frozen snapshot — one run, no memory. This
//! module gives the benchmark a trajectory: every run appends one line to
//! `BENCH_history.jsonl` (a [`HistoryEntry`]: host fingerprint, scale,
//! workers, serial/parallel median and p95), and [`trend_gate`] compares
//! a fresh run against the recorded history so a PR that regresses the
//! pipeline median by more than 15% fails `verify.sh` instead of slipping
//! through as "numbers look different, machines differ".
//!
//! ## Comparability
//!
//! Absolute times from different machines say nothing about each other,
//! so the gate is **hard only against entries with the same host
//! fingerprint, scale, and worker count**; with no comparable history the
//! verdict passes and merely seeds the trajectory. The fingerprint is
//! `hostname/<hw-threads>t` — coarse on purpose: it distinguishes "same
//! box" from "someone else's laptop" without trying to fingerprint
//! microarchitecture.

use iot_core::json::{Json, ToJson};
use std::io::Write as _;
use std::path::Path;

/// Hard ceiling on fresh-median / baseline before the gate fails.
pub const MAX_REGRESSION_RATIO: f64 = 1.15;

/// Absolute slack: regressions above the ratio still pass when the
/// median delta is below this, so scheduler noise cannot flake the gate.
/// Sized to the reference host's observed *same-code* spread: on the
/// 1-thread shared VM, back-to-back runs of identical code measured
/// serial medians of 248–371 ms (CPU steal arrives in multi-minute
/// windows, so even the median of 3 iterations swings ~50%). The
/// window-**minimum** baseline compares a noisy fresh median against the
/// luckiest recorded run, so the slack must cover that spread or clean
/// verifies flake. The regressions this gate exists to catch are far
/// larger: losing the PR 6 fused-ingest/PII-search win puts the median
/// back at ~780 ms, +530 ms over baseline.
pub const ABS_TOLERANCE_MS: f64 = 140.0;

/// How many most-recent comparable entries form the baseline window.
pub const BASELINE_WINDOW: usize = 8;

/// Hard ceiling on fresh allocations-per-experiment / baseline before
/// the allocation ratchet fails. Much tighter than the timing gate:
/// serial allocation counts are exactly deterministic for a given corpus
/// (the determinism suite byte-compares them), so the only legitimate
/// same-host variance is a code change.
pub const MAX_ALLOC_REGRESSION_RATIO: f64 = 1.10;

/// Absolute slack for the allocation ratchet, in allocations per
/// experiment: a hash-map resize landing on the other side of a
/// threshold after a corpus tweak moves the count by a handful, not by
/// the hundreds a real hot-path regression (e.g. re-introducing
/// per-flow label formatting) costs.
pub const ALLOC_ABS_TOLERANCE: f64 = 64.0;

/// One recorded benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Seconds since the Unix epoch at record time.
    pub unix_secs: u64,
    /// `hostname/<hw-threads>t` — see [`host_fingerprint`].
    pub host: String,
    /// Campaign scale (`quick` / `medium` / `full`).
    pub scale: String,
    /// Parallel worker count the run used.
    pub workers: u64,
    /// 1-worker median, milliseconds.
    pub serial_median_ms: f64,
    /// 1-worker p95, milliseconds.
    pub serial_p95_ms: f64,
    /// `workers`-worker median, milliseconds.
    pub parallel_median_ms: f64,
    /// `workers`-worker p95, milliseconds.
    pub parallel_p95_ms: f64,
    /// Instrumented-over-baseline serial median ratio.
    pub obs_overhead_ratio: f64,
    /// Memory facts fingerprint (`pg<page-size>/ram<bucket>g`) — a
    /// *separate* axis from [`HistoryEntry::host`] so entries recorded
    /// before it existed stay comparable for the timing gate; only the
    /// allocation ratchet keys on it. Empty on pre-allocation entries.
    pub mem: String,
    /// Heap allocations per experiment from the counting-on serial run
    /// (`alloc.allocs_per_experiment` in the bench JSON). Zero on
    /// pre-allocation entries, which exempts them from the ratchet.
    pub allocs_per_exp: f64,
}

/// This machine's coarse identity: `hostname/<hw-threads>t`.
pub fn host_fingerprint() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("{host}/{threads}t")
}

/// The kernel's page size, from the ELF auxiliary vector
/// (`/proc/self/auxv`, `AT_PAGESZ` = 6); 4096 when unreadable. Read
/// directly rather than via libc so the crate stays std-only.
pub fn page_size() -> u64 {
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 4096;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().unwrap());
        let val = u64::from_ne_bytes(pair[8..].try_into().unwrap());
        if key == 6 && val > 0 {
            return val;
        }
    }
    4096
}

/// Total system RAM bucketed to the enclosing power-of-two GiB range
/// (`"4-8"`, `"8-16"`, `"0-1"` under a gigabyte, `"?"` when
/// `/proc/meminfo` is unreadable). Buckets, not exact kilobytes: the
/// fingerprint should distinguish "same class of box", and survive a few
/// MB of firmware-reserved drift across reboots of the same machine.
pub fn ram_bucket() -> String {
    let Some(kb) = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("MemTotal:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
    else {
        return "?".to_string();
    };
    let gib = kb / (1 << 20);
    if gib == 0 {
        return "0-1".to_string();
    }
    let lower = 1u64 << (63 - gib.leading_zeros());
    format!("{lower}-{}", lower * 2)
}

/// This machine's memory-facts identity: `pg<page-size>/ram<bucket>g`,
/// e.g. `pg4096/ram4-8g`. Keyed separately from [`host_fingerprint`]
/// because allocation counts care about allocator-visible geometry
/// (page size, memory class), not thread count.
pub fn mem_fingerprint() -> String {
    format!("pg{}/ram{}g", page_size(), ram_bucket())
}

impl HistoryEntry {
    /// Builds an entry from a `bench_pipeline` output JSON, stamped with
    /// the current time and this machine's fingerprint.
    pub fn from_bench_json(bench: &Json) -> Result<HistoryEntry, String> {
        let num = |section: &str, field: &str| -> Result<f64, String> {
            bench
                .get(section)
                .and_then(|s| s.get(field))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("bench json: missing {section}.{field}"))
        };
        Ok(HistoryEntry {
            unix_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            host: host_fingerprint(),
            scale: bench
                .get("scale")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            workers: bench.get("workers").and_then(Json::as_u64).unwrap_or(0),
            serial_median_ms: num("serial", "median_ms")?,
            serial_p95_ms: num("serial", "p95_ms")?,
            parallel_median_ms: num("parallel", "median_ms")?,
            parallel_p95_ms: num("parallel", "p95_ms")?,
            obs_overhead_ratio: bench
                .get("obs_overhead_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            mem: mem_fingerprint(),
            allocs_per_exp: bench
                .get("alloc")
                .and_then(|a| a.get("allocs_per_experiment"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }

    /// Parses one JSONL line back into an entry (`None` on malformed
    /// lines, so a corrupted history degrades instead of failing).
    pub fn parse(line: &str) -> Option<HistoryEntry> {
        let j = Json::parse(line.trim()).ok()?;
        Some(HistoryEntry {
            unix_secs: j.get("unix_secs")?.as_u64()?,
            host: j.get("host")?.as_str()?.to_string(),
            scale: j.get("scale")?.as_str()?.to_string(),
            workers: j.get("workers")?.as_u64()?,
            serial_median_ms: j.get("serial_median_ms")?.as_f64()?,
            serial_p95_ms: j.get("serial_p95_ms")?.as_f64()?,
            parallel_median_ms: j.get("parallel_median_ms")?.as_f64()?,
            parallel_p95_ms: j.get("parallel_p95_ms")?.as_f64()?,
            obs_overhead_ratio: j.get("obs_overhead_ratio")?.as_f64()?,
            // Added after the first recorded entries: default rather
            // than reject, or the committed history resets to zero the
            // day a field lands.
            mem: j
                .get("mem")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            allocs_per_exp: j
                .get("allocs_per_exp")
                .and_then(Json::as_f64)
                .unwrap_or_default(),
        })
    }

    /// Whether `other` is a valid regression baseline for this run.
    pub fn comparable_to(&self, other: &HistoryEntry) -> bool {
        self.host == other.host && self.scale == other.scale && self.workers == other.workers
    }

    /// Whether `other` can baseline this run's *allocation* ratchet:
    /// timing-comparable, same memory fingerprint, and both sides
    /// actually measured (pre-allocation entries carry zero).
    pub fn alloc_comparable_to(&self, other: &HistoryEntry) -> bool {
        self.comparable_to(other)
            && !self.mem.is_empty()
            && self.mem == other.mem
            && self.allocs_per_exp > 0.0
            && other.allocs_per_exp > 0.0
    }
}

impl ToJson for HistoryEntry {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("unix_secs", self.unix_secs.to_json());
        j.set("host", self.host.to_json());
        j.set("scale", self.scale.to_json());
        j.set("workers", self.workers.to_json());
        j.set("serial_median_ms", self.serial_median_ms.to_json());
        j.set("serial_p95_ms", self.serial_p95_ms.to_json());
        j.set("parallel_median_ms", self.parallel_median_ms.to_json());
        j.set("parallel_p95_ms", self.parallel_p95_ms.to_json());
        j.set("obs_overhead_ratio", self.obs_overhead_ratio.to_json());
        j.set("mem", self.mem.to_json());
        j.set("allocs_per_exp", self.allocs_per_exp.to_json());
        j
    }
}

/// Loads every parseable entry from a JSONL history file, oldest first.
/// A missing file is an empty history, not an error.
pub fn load(path: &Path) -> Vec<HistoryEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(HistoryEntry::parse)
        .collect()
}

/// Appends one entry as a JSONL line, creating the file (and parents)
/// as needed.
pub fn append(path: &Path, entry: &HistoryEntry) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", entry.to_json().dump())
}

/// Outcome of comparing a fresh run against the recorded trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendVerdict {
    /// Comparable baseline entries found (same host/scale/workers).
    pub baseline_runs: usize,
    /// The *fastest* serial median in the baseline window (0 when
    /// empty) — the ratchet: once a speedup is recorded, the bar stays
    /// there until it ages out of the window.
    pub baseline_ms: f64,
    /// The fresh run's serial median.
    pub current_median_ms: f64,
    /// `current / baseline` (1.0 when no baseline exists).
    pub ratio: f64,
    /// Whether the gate passes.
    pub pass: bool,
}

impl TrendVerdict {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.baseline_runs == 0 {
            return format!(
                "no comparable history; seeding trajectory at {:.1} ms",
                self.current_median_ms
            );
        }
        format!(
            "serial median {:.1} ms vs ratchet baseline {:.1} ms (window \
             best of {} run(s), {:.2}x, limit {MAX_REGRESSION_RATIO}x) — {}",
            self.current_median_ms,
            self.baseline_ms,
            self.baseline_runs,
            self.ratio,
            if self.pass { "ok" } else { "REGRESSION" }
        )
    }
}

/// Gates `fresh` against `history`: fails when the fresh serial median
/// exceeds the baseline by more than [`MAX_REGRESSION_RATIO`] *and*
/// more than [`ABS_TOLERANCE_MS`]. The baseline is the **minimum**
/// serial median over the most recent [`BASELINE_WINDOW`] comparable
/// entries — a ratchet: the moment an optimization PR lands one fast
/// run, every later PR is held to that bar (a window *median* would let
/// a sequence of small regressions walk the baseline back up).
/// Incomparable or empty history always passes — it seeds the
/// trajectory rather than guessing across machines.
pub fn trend_gate(history: &[HistoryEntry], fresh: &HistoryEntry) -> TrendVerdict {
    let mut window: Vec<f64> = history
        .iter()
        .filter(|e| fresh.comparable_to(e))
        .map(|e| e.serial_median_ms)
        .collect();
    if window.len() > BASELINE_WINDOW {
        window.drain(..window.len() - BASELINE_WINDOW);
    }
    let baseline_runs = window.len();
    if baseline_runs == 0 {
        return TrendVerdict {
            baseline_runs: 0,
            baseline_ms: 0.0,
            current_median_ms: fresh.serial_median_ms,
            ratio: 1.0,
            pass: true,
        };
    }
    let baseline = window
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let ratio = if baseline > 0.0 {
        fresh.serial_median_ms / baseline
    } else {
        1.0
    };
    let delta = fresh.serial_median_ms - baseline;
    TrendVerdict {
        baseline_runs,
        baseline_ms: baseline,
        current_median_ms: fresh.serial_median_ms,
        ratio,
        pass: ratio <= MAX_REGRESSION_RATIO || delta <= ABS_TOLERANCE_MS,
    }
}

/// Outcome of the allocation ratchet.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocVerdict {
    /// Alloc-comparable baseline entries found (same host/scale/workers
    /// *and* memory fingerprint, measurement present on both sides).
    pub baseline_runs: usize,
    /// Fewest allocations-per-experiment in the baseline window.
    pub baseline_allocs_per_exp: f64,
    /// The fresh run's allocations per experiment.
    pub current_allocs_per_exp: f64,
    /// `current / baseline` (1.0 when no baseline exists).
    pub ratio: f64,
    /// Whether the gate passes.
    pub pass: bool,
}

impl AllocVerdict {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.baseline_runs == 0 {
            return format!(
                "no alloc-comparable history; seeding trajectory at {:.1} allocs/experiment",
                self.current_allocs_per_exp
            );
        }
        format!(
            "{:.1} allocs/experiment vs ratchet baseline {:.1} (window best \
             of {} run(s), {:.2}x, limit {MAX_ALLOC_REGRESSION_RATIO}x) — {}",
            self.current_allocs_per_exp,
            self.baseline_allocs_per_exp,
            self.baseline_runs,
            self.ratio,
            if self.pass { "ok" } else { "ALLOC REGRESSION" }
        )
    }
}

/// The allocation analogue of [`trend_gate`]: fails when the fresh run's
/// allocations-per-experiment exceed the window-minimum baseline by more
/// than [`MAX_ALLOC_REGRESSION_RATIO`] *and* more than
/// [`ALLOC_ABS_TOLERANCE`]. Same ratchet semantics — one lean run holds
/// the bar — but keyed additionally on the memory fingerprint, and
/// exempting entries recorded before allocation accounting existed.
pub fn alloc_trend_gate(history: &[HistoryEntry], fresh: &HistoryEntry) -> AllocVerdict {
    let mut window: Vec<f64> = history
        .iter()
        .filter(|e| fresh.alloc_comparable_to(e))
        .map(|e| e.allocs_per_exp)
        .collect();
    if window.len() > BASELINE_WINDOW {
        window.drain(..window.len() - BASELINE_WINDOW);
    }
    let baseline_runs = window.len();
    if baseline_runs == 0 {
        return AllocVerdict {
            baseline_runs: 0,
            baseline_allocs_per_exp: 0.0,
            current_allocs_per_exp: fresh.allocs_per_exp,
            ratio: 1.0,
            pass: true,
        };
    }
    let baseline = window.iter().copied().fold(f64::INFINITY, f64::min);
    let ratio = if baseline > 0.0 {
        fresh.allocs_per_exp / baseline
    } else {
        1.0
    };
    let delta = fresh.allocs_per_exp - baseline;
    AllocVerdict {
        baseline_runs,
        baseline_allocs_per_exp: baseline,
        current_allocs_per_exp: fresh.allocs_per_exp,
        ratio,
        pass: ratio <= MAX_ALLOC_REGRESSION_RATIO || delta <= ALLOC_ABS_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(host: &str, serial_ms: f64) -> HistoryEntry {
        HistoryEntry {
            unix_secs: 1,
            host: host.to_string(),
            scale: "quick".to_string(),
            workers: 2,
            serial_median_ms: serial_ms,
            serial_p95_ms: serial_ms * 1.1,
            parallel_median_ms: serial_ms / 2.0,
            parallel_p95_ms: serial_ms / 1.8,
            obs_overhead_ratio: 1.01,
            mem: "pg4096/ram4-8g".to_string(),
            allocs_per_exp: 400.0,
        }
    }

    fn alloc_entry(host: &str, allocs_per_exp: f64) -> HistoryEntry {
        HistoryEntry {
            allocs_per_exp,
            ..entry(host, 250.0)
        }
    }

    #[test]
    fn entry_roundtrips_through_jsonl() {
        let e = entry("box/4t", 123.5);
        let line = e.to_json().dump();
        assert_eq!(HistoryEntry::parse(&line), Some(e));
        assert_eq!(HistoryEntry::parse("not json"), None);
        assert_eq!(HistoryEntry::parse("{\"host\":\"x\"}"), None);
    }

    #[test]
    fn append_and_load_roundtrip_and_skip_garbage() {
        let dir = std::env::temp_dir().join("iot_bench_history_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("hist.jsonl");
        let a = entry("box/4t", 100.0);
        let b = entry("box/4t", 110.0);
        append(&path, &a).unwrap();
        // A torn/corrupt line must not poison the rest of the file.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{\"torn\":").unwrap();
        }
        append(&path, &b).unwrap();
        assert_eq!(load(&path), vec![a, b]);
        assert!(load(&dir.join("missing.jsonl")).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_passes_with_no_comparable_history() {
        let fresh = entry("box/4t", 500.0);
        let v = trend_gate(&[], &fresh);
        assert!(v.pass);
        assert_eq!(v.baseline_runs, 0);
        // Another machine's entries are not a baseline.
        let other = entry("elsewhere/64t", 10.0);
        let v = trend_gate(&[other], &fresh);
        assert!(v.pass);
        assert_eq!(v.baseline_runs, 0);
    }

    #[test]
    fn gate_fails_on_large_regression_only() {
        let history = vec![entry("box/4t", 1000.0), entry("box/4t", 1020.0)];
        let ok = trend_gate(&history, &entry("box/4t", 1100.0));
        assert!(ok.pass, "{:?}", ok);
        let bad = trend_gate(&history, &entry("box/4t", 1400.0));
        assert!(!bad.pass, "{:?}", bad);
        assert!(bad.ratio > MAX_REGRESSION_RATIO);
        assert!(bad.summary().contains("REGRESSION"));
    }

    #[test]
    fn tiny_absolute_deltas_never_fail() {
        // 2 ms -> 3 ms is a 1.5x ratio but far under the absolute slack.
        let history = vec![entry("box/4t", 2.0)];
        let v = trend_gate(&history, &entry("box/4t", 3.0));
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn baseline_is_recent_window_minimum() {
        let mut history: Vec<HistoryEntry> =
            (0..20).map(|i| entry("box/4t", 2000.0 - i as f64 * 50.0)).collect();
        // The old slow entries (2000, 1950, …) fall outside the window;
        // the recent ones (1400 down to 1050) set the bar at their
        // *fastest* run, so a 1500 ms run is a regression against the
        // recent trend even though it beats the oldest entries.
        let fresh = entry("box/4t", 1500.0);
        let v = trend_gate(&history, &fresh);
        assert_eq!(v.baseline_runs, BASELINE_WINDOW);
        assert_eq!(v.baseline_ms, 1050.0, "{v:?}");
        assert!(!v.pass, "{v:?}");
        history.truncate(2); // only 2000/1950 remain -> fresh is faster
        assert!(trend_gate(&history, &fresh).pass);
    }

    #[test]
    fn ratchet_holds_after_one_fast_run() {
        // A speedup PR lands one 300 ms run among older 800 ms entries;
        // the bar immediately ratchets to 300 ms and a return to 800 ms
        // fails even though the window *median* is still ~800.
        let history = vec![
            entry("box/4t", 810.0),
            entry("box/4t", 790.0),
            entry("box/4t", 805.0),
            entry("box/4t", 300.0),
        ];
        let v = trend_gate(&history, &entry("box/4t", 800.0));
        assert_eq!(v.baseline_ms, 300.0);
        assert!(!v.pass, "{v:?}");
        assert!(trend_gate(&history, &entry("box/4t", 330.0)).pass);
    }

    #[test]
    fn fingerprint_shape() {
        let fp = host_fingerprint();
        assert!(fp.contains('/'), "{fp}");
        assert!(fp.ends_with('t'), "{fp}");
    }

    #[test]
    fn mem_fingerprint_shape() {
        let fp = mem_fingerprint();
        assert!(fp.starts_with("pg"), "{fp}");
        assert!(fp.contains("/ram"), "{fp}");
        assert!(fp.ends_with('g') || fp.ends_with('?'), "{fp}");
        assert!(page_size() >= 4096, "{}", page_size());
        assert!(page_size().is_power_of_two());
    }

    #[test]
    fn pre_allocation_lines_parse_with_defaults() {
        // A committed line from before the mem/alloc fields existed must
        // keep parsing (defaulted), or landing the fields would silently
        // reset every recorded trajectory.
        let old_line = "{\"unix_secs\":1,\"host\":\"box/4t\",\"scale\":\"quick\",\
                        \"workers\":2,\"serial_median_ms\":100.0,\
                        \"serial_p95_ms\":110.0,\"parallel_median_ms\":50.0,\
                        \"parallel_p95_ms\":55.0,\"obs_overhead_ratio\":1.01}";
        let parsed = HistoryEntry::parse(old_line).expect("old line must parse");
        assert_eq!(parsed.serial_median_ms, 100.0);
        assert_eq!(parsed.mem, "");
        assert_eq!(parsed.allocs_per_exp, 0.0);
        // And such entries never baseline the allocation ratchet…
        let fresh = entry("box/4t", 100.0);
        assert!(!fresh.alloc_comparable_to(&parsed));
        // …but still baseline the timing gate.
        assert!(fresh.comparable_to(&parsed));
    }

    #[test]
    fn alloc_gate_requires_matching_mem_and_measurement() {
        let fresh = alloc_entry("box/4t", 450.0);
        // Different memory fingerprint: not a baseline.
        let mut other_mem = alloc_entry("box/4t", 100.0);
        other_mem.mem = "pg16384/ram4-8g".to_string();
        // Unmeasured (pre-allocation) entry: not a baseline.
        let unmeasured = alloc_entry("box/4t", 0.0);
        let v = alloc_trend_gate(&[other_mem, unmeasured], &fresh);
        assert!(v.pass, "{v:?}");
        assert_eq!(v.baseline_runs, 0);
    }

    #[test]
    fn alloc_ratchet_holds_after_one_lean_run() {
        let history = vec![
            alloc_entry("box/4t", 900.0),
            alloc_entry("box/4t", 880.0),
            alloc_entry("box/4t", 400.0), // the lean run sets the bar
        ];
        let bad = alloc_trend_gate(&history, &alloc_entry("box/4t", 900.0));
        assert_eq!(bad.baseline_allocs_per_exp, 400.0);
        assert!(!bad.pass, "{bad:?}");
        assert!(bad.summary().contains("ALLOC REGRESSION"));
        let ok = alloc_trend_gate(&history, &alloc_entry("box/4t", 430.0));
        assert!(ok.pass, "{ok:?}");
        // Small absolute creep under the slack passes even over-ratio.
        let tiny = alloc_trend_gate(&[alloc_entry("box/4t", 50.0)], &alloc_entry("box/4t", 90.0));
        assert!(tiny.pass, "{tiny:?}");
    }
}
