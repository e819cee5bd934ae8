//! Feature extraction for activity inference (§6.1, §6.3).
//!
//! "The set of features we use to train our classifier are *timing*
//! statistics of the traffic with respect to packet sizes and
//! inter-arrival times … min, max, mean, deciles of the distribution,
//! skewness, and kurtosis. We focused on features that avoid dependencies
//! on text- or size-based features that can easily vary across deployment
//! location."

use iot_ml::stats::{append_distribution_stats, STATS_PER_DISTRIBUTION};
use iot_net::packet::Packet;

/// Features per sample: 14 statistics over packet sizes + 14 over
/// inter-arrival times.
pub const FEATURES_PER_SAMPLE: usize = 2 * STATS_PER_DISTRIBUTION;

/// Extracts the paper's feature vector from a time-ordered packet slice.
///
/// Sizes are full frame lengths; inter-arrival times are successive
/// timestamp deltas in milliseconds. Empty or single-packet inputs yield
/// well-defined (zero-padded) features.
pub fn extract_features(packets: &[Packet]) -> Vec<f64> {
    timing_features(
        packets.len(),
        packets.iter().map(|p| (p.ts_micros, p.len())),
    )
}

/// [`extract_features`] over `n` packets given as `(timestamp in µs,
/// captured length)` pairs in capture order. Those two values are all the
/// features read, so a capture's views need not be materialized as
/// [`Packet`]s. A timestamp that runs backwards gives a zero
/// inter-arrival time.
pub(crate) fn timing_features(n: usize, packets: impl Iterator<Item = (u64, usize)>) -> Vec<f64> {
    let mut sizes: Vec<f64> = Vec::with_capacity(n);
    let mut iats: Vec<f64> = Vec::with_capacity(n.saturating_sub(1));
    let mut prev: Option<u64> = None;
    for (ts_micros, len) in packets {
        sizes.push(len as f64);
        if let Some(prev) = prev {
            iats.push(ts_micros.saturating_sub(prev) as f64 / 1000.0);
        }
        prev = Some(ts_micros);
    }
    let mut out = Vec::with_capacity(FEATURES_PER_SAMPLE);
    append_distribution_stats(&sizes, &mut out);
    append_distribution_stats(&iats, &mut out);
    out
}

/// Human-readable feature names, aligned with [`extract_features`] output.
pub fn feature_names() -> Vec<String> {
    let stat_names = [
        "min", "max", "mean", "d10", "d20", "d30", "d40", "d50", "d60", "d70", "d80", "d90",
        "skew", "kurt",
    ];
    let mut out = Vec::with_capacity(FEATURES_PER_SAMPLE);
    for family in ["size", "iat"] {
        for s in stat_names {
            out.push(format!("{family}_{s}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_net::mac::MacAddr;
    use iot_net::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn packets(sizes_and_ts: &[(usize, u64)]) -> Vec<Packet> {
        let mut b = PacketBuilder::new(
            MacAddr::new(1, 2, 3, 4, 5, 6),
            MacAddr::new(6, 5, 4, 3, 2, 1),
            Ipv4Addr::new(192, 168, 10, 5),
            Ipv4Addr::new(52, 1, 1, 1),
        );
        sizes_and_ts
            .iter()
            .map(|&(size, ts)| b.udp(ts, 4000, 443, &vec![0u8; size]))
            .collect()
    }

    #[test]
    fn feature_vector_length() {
        let pkts = packets(&[(100, 0), (200, 1000), (300, 3000)]);
        assert_eq!(extract_features(&pkts).len(), FEATURES_PER_SAMPLE);
        assert_eq!(feature_names().len(), FEATURES_PER_SAMPLE);
    }

    #[test]
    fn empty_input_zero_features() {
        let f = extract_features(&[]);
        assert_eq!(f.len(), FEATURES_PER_SAMPLE);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn size_stats_reflect_frames() {
        let pkts = packets(&[(58, 0), (58, 1000)]);
        let f = extract_features(&pkts);
        // Frame length = 14 (eth) + 20 (ip) + 8 (udp) + payload.
        assert_eq!(f[0], 100.0, "min frame size");
        assert_eq!(f[1], 100.0, "max frame size");
    }

    #[test]
    fn iat_stats_in_milliseconds() {
        let pkts = packets(&[(10, 0), (10, 2_000), (10, 6_000)]);
        let f = extract_features(&pkts);
        let iat_min = f[STATS_PER_DISTRIBUTION];
        let iat_max = f[STATS_PER_DISTRIBUTION + 1];
        assert_eq!(iat_min, 2.0);
        assert_eq!(iat_max, 4.0);
    }

    #[test]
    fn different_traffic_shapes_differ() {
        let burst = packets(&[(1000, 0), (1000, 10), (1000, 20), (1000, 30)]);
        let trickle = packets(&[(60, 0), (60, 5_000_000), (60, 10_000_000)]);
        assert_ne!(extract_features(&burst), extract_features(&trickle));
    }

    #[test]
    fn all_features_finite() {
        let pkts = packets(&[(1, 0)]);
        assert!(extract_features(&pkts).iter().all(|v| v.is_finite()));
    }
}
