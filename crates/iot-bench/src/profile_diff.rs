//! Folded-stack profile parsing and differential comparison.
//!
//! A folded profile is the collapsed-stack text format flamegraph tools
//! consume: one line per distinct stack, `frame;frame;frame <count>`.
//! [`iot_obs::folded_stacks`] writes a registry's span tree in it, each
//! span path weighted by its self time in microseconds. This module
//! parses that format for every reader (`obs_check`, `obs_serve_check`,
//! `profile_diff`), and compares two profiles — a fresh HEAD profile and
//! a committed baseline — by how the *share* of weight per stack
//! shifted between them.
//!
//! Shares, not raw weights: the two profiles were almost certainly taken
//! on different machines, so absolute times are incomparable, but the
//! fraction of time a stack accounts for is. The `profile_diff` binary
//! prints the largest shifts; they are informational.

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

    /// The fraction of the total weight on `frames` (0 when the stack
    /// never appears).
    pub fn share(&self, frames: &str) -> f64 {
        *self.counts.get(frames).unwrap_or(&0) as f64 / self.total.max(1) as f64
    }
}

/// One stack's share movement between two profiles. Positive `delta`
/// means HEAD spends a larger fraction of its time there than the
/// baseline did — a (relative) regression for that stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareShift {
    /// Semicolon-joined stack frames.
    pub frames: String,
    /// Share of weight in the HEAD profile.
    pub head_share: f64,
    /// Share of weight in the baseline profile.
    pub base_share: f64,
    /// `head_share - base_share`.
    pub delta: f64,
}

/// Compares two folded profiles stack by stack (union of both key
/// sets), returning every shift sorted by absolute delta descending,
/// ties broken by frames for stable output.
pub fn diff(head: &FoldedProfile, base: &FoldedProfile) -> Vec<ShareShift> {
    let mut frames: Vec<&String> = head.counts.keys().collect();
    for k in base.counts.keys() {
        if !head.counts.contains_key(k) {
            frames.push(k);
        }
    }
    let mut shifts: Vec<ShareShift> = frames
        .into_iter()
        .map(|f| {
            let head_share = head.share(f);
            let base_share = base.share(f);
            ShareShift {
                frames: f.clone(),
                head_share,
                base_share,
                delta: head_share - base_share,
            }
        })
        .collect();
    shifts.sort_by(|a, b| {
        b.delta
            .abs()
            .partial_cmp(&a.delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.frames.cmp(&b.frames))
    });
    shifts
}

/// Renders the top `n` shifts as an aligned text block, one line per
/// stack: signed share delta, head vs baseline percentages, frames.
pub fn render(shifts: &[ShareShift], n: usize) -> String {
    let mut out = String::new();
    for s in shifts.iter().take(n) {
        out.push_str(&format!(
            "{:>+7.2}%  head {:>6.2}%  base {:>6.2}%  {}\n",
            s.delta * 100.0,
            s.head_share * 100.0,
            s.base_share * 100.0,
            s.frames
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_folded_and_rejects_malformed() {
        let p = FoldedProfile::parse("shard;ingest 6\nshard;ingest;flows 3\nshard 1\n").unwrap();
        assert_eq!(p.total, 10);
        assert_eq!(p.counts["shard;ingest"], 6);
        assert!((p.share("shard") - 0.1).abs() < 1e-12);
        assert!(FoldedProfile::parse("").is_err(), "empty");
        assert!(FoldedProfile::parse("shard;ingest\n").is_err(), "no count");
        assert!(
            FoldedProfile::parse("shard;ingest x\n").is_err(),
            "bad count"
        );
        assert!(FoldedProfile::parse(" 5\n").is_err(), "empty frames");
        assert!(FoldedProfile::parse("shard 0\n").is_err(), "zero count");
    }

    #[test]
    fn diff_orders_by_absolute_shift_and_covers_both_sides() {
        let head = FoldedProfile::parse("shard;a 8\nshard;b 2\n").unwrap();
        let base = FoldedProfile::parse("shard;a 5\nshard;c 5\n").unwrap();
        let shifts = diff(&head, &base);
        assert_eq!(shifts.len(), 3, "union of stacks");
        // c vanished (-50%), a grew (+30%), b appeared (+20%).
        assert_eq!(shifts[0].frames, "shard;c");
        assert!((shifts[0].delta + 0.5).abs() < 1e-12);
        assert_eq!(shifts[1].frames, "shard;a");
        assert!((shifts[1].delta - 0.3).abs() < 1e-12);
        assert_eq!(shifts[2].frames, "shard;b");
        let rendered = render(&shifts, 2);
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.contains("shard;c"), "{rendered}");
    }

    #[test]
    fn identical_profiles_have_zero_shift() {
        let p = FoldedProfile::parse("shard;a 4\nshard 6\n").unwrap();
        for s in diff(&p, &p) {
            assert_eq!(s.delta, 0.0, "{s:?}");
        }
    }
}
