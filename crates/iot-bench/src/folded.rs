//! Folded-stack profile parsing.
//!
//! A folded profile is the collapsed-stack text format flamegraph tools
//! consume: one line per distinct stack, `frame;frame;frame <count>`.
//! [`iot_obs::folded_stacks`] writes a registry's span tree in it, each
//! span path weighted by its self time in microseconds, and
//! [`FoldedProfile::parse`] reads it back for
//! [`crate::gates::folded_matches_spans`].

use std::collections::BTreeMap;

/// A parsed folded-stack profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedProfile {
    /// Total weight across every line.
    pub total: u64,
    /// Per-stack weights, keyed by the semicolon-joined frames.
    pub counts: BTreeMap<String, u64>,
}

impl FoldedProfile {
    /// Parses collapsed-stack text. Every non-empty line must be
    /// `frames <count>` with a positive integer count; anything else is
    /// a hard error — a malformed profile artifact means the emitting
    /// pipeline is broken, not that the profile is merely stale. A stack
    /// listed twice sums its counts.
    pub fn parse(text: &str) -> Result<FoldedProfile, String> {
        let mut profile = FoldedProfile::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (frames, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no `frames count` split", lineno + 1))?;
            if frames.is_empty() {
                return Err(format!("line {}: empty frame list", lineno + 1));
            }
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: count {count:?} is not an integer", lineno + 1))?;
            if count == 0 {
                return Err(format!("line {}: zero count", lineno + 1));
            }
            *profile.counts.entry(frames.to_string()).or_insert(0) += count;
            profile.total += count;
        }
        if profile.total == 0 {
            return Err("profile is empty".to_string());
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_folded_and_rejects_malformed() {
        let p = FoldedProfile::parse("shard;ingest 6\nshard;ingest;flows 3\nshard 1\nshard 1\n")
            .unwrap();
        assert_eq!(p.total, 11);
        assert_eq!(p.counts["shard;ingest"], 6);
        assert_eq!(p.counts["shard"], 2, "a repeated stack sums its counts");
        assert!(FoldedProfile::parse("").is_err(), "empty");
        assert!(FoldedProfile::parse("shard;ingest\n").is_err(), "no count");
        assert!(
            FoldedProfile::parse("shard;ingest x\n").is_err(),
            "bad count"
        );
        assert!(FoldedProfile::parse(" 5\n").is_err(), "empty frames");
        assert!(FoldedProfile::parse("shard 0\n").is_err(), "zero count");
    }
}
