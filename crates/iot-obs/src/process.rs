//! Process-wide facts: the instrumented allocator's cumulative totals,
//! summed over every thread's ledger, and the kernel's peak resident set
//! size, the one process-wide peak.
//!
//! They describe the whole process, not one run: concurrent pipelines
//! (parallel tests, or the runs of one bench process) share them. The
//! run report includes them as its `process` block and `/progress`
//! composes them at request time, so the latter moves while workers
//! are mid-shard; both are deliberately excluded from the deterministic
//! report subset.

use iot_core::json::{Json, ToJson};

/// The process's peak resident set size in bytes, from the kernel's
/// `VmHWM` accounting (`/proc/self/status`). Measures a different thing
/// than a thread's allocator high-water: RSS includes code, stacks, and
/// allocator slack, but only counts pages actually *touched* — a large
/// `Vec::with_capacity` reservation or calloc-backed zero pages raise
/// the requested high-water without ever becoming resident, so neither
/// number bounds the other. Returns `None` off Linux or if the field is
/// missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Cumulative totals since process start, in a stable order. The
/// allocator totals are zero unless a [`crate::alloc::counting`] guard
/// turned counting on; `peak_rss_bytes` is zero on platforms without
/// `/proc`.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let alloc = crate::alloc::process_totals();
    vec![
        ("alloc_bytes_total", alloc.bytes_allocated),
        ("allocs_total", alloc.allocs),
        ("alloc_live_bytes", crate::alloc::process_live_bytes()),
        ("peak_rss_bytes", peak_rss_bytes().unwrap_or(0)),
    ]
}

/// The snapshot as a JSON object (keys in stable order).
pub fn snapshot_json() -> Json {
    let mut j = Json::obj();
    for (k, v) in snapshot() {
        j.set(k, v.to_json());
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_stable_keys() {
        let snap = snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "alloc_bytes_total",
                "allocs_total",
                "alloc_live_bytes",
                "peak_rss_bytes",
            ]
        );
        let j = snapshot_json().dump();
        assert!(j.starts_with("{\"alloc_bytes_total\":"), "{j}");
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // A running Rust test binary surely holds over 1 MB and
            // under 1 TB resident.
            assert!(rss > 1 << 20, "{rss}");
            assert!(rss < 1 << 40, "{rss}");
        }
    }
}
