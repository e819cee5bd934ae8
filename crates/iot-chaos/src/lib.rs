//! # iot-chaos
//!
//! Seeded fault injection for capture streams — the degradations a real
//! gateway deployment (§3.2's two live labs, tcpdump per device MAC)
//! inflicts on captures before analysis ever sees them:
//!
//! * packet **drops**, uniform and bursty (interface drop counters);
//! * **snaplen truncation** (`incl_len < orig_len` records);
//! * packet **duplication** (switch mirroring artifacts);
//! * bounded **reordering**;
//! * payload **bit-flips** (storage/transfer corruption);
//! * timestamp **skew and regression** (clock steps on the gateway);
//! * corrupted **pcap record headers** and **torn file tails**
//!   (interrupted tcpdump, full disks).
//!
//! Everything is driven by a [`FaultPlan`] and a per-stream key through
//! [`FaultInjector`]: the same `(plan seed, stream key)` pair always
//! produces the same degraded bytes, no matter in which order streams
//! are degraded or on how many threads. That determinism is what lets
//! the analysis pipeline assert byte-identical faulted reports at
//! every worker count (`chaos_check`).
//!
//! The crate is intentionally low-level: it knows about [`iot_net`]
//! packets and pcap framing, nothing above. The salvage counterpart —
//! reading the degraded bytes back — lives in `iot_net::pcap`
//! (`from_bytes_lenient`), and the accounting that reconciles generated
//! vs. ingested vs. lost packets lives in `iot_analysis::ingest`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{FaultInjector, FaultStats};
pub use plan::FaultPlan;

/// Stable FNV-1a mixing of a name and salt into a per-stream fault key,
/// so every (device, experiment, repetition) stream gets an independent
/// but reproducible fault pattern regardless of ingestion order.
pub fn stream_key(name: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.rotate_left(23);
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_key_stable_and_salted() {
        assert_eq!(stream_key("echo-dot/power", 3), stream_key("echo-dot/power", 3));
        assert_ne!(stream_key("echo-dot/power", 3), stream_key("echo-dot/power", 4));
        assert_ne!(stream_key("echo-dot/power", 3), stream_key("echo-dot/on", 3));
    }
}
