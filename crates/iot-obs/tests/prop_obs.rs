//! Property-style tests for the observability layer: registry merge is
//! associative and commutative over randomized shard splits, nested
//! spans aggregate per full path, and report JSON round-trips through
//! the in-tree parser.

use iot_core::json::Json;
use iot_core::rng::StdRng;
use iot_obs::{Registry, RunReport};
use std::time::Duration;

/// Applies `n` seeded random operations to `reg`, returning each op so a
/// split run can replay disjoint slices.
fn random_ops(seed: u64, n: usize) -> Vec<(u8, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0u64..4) as u8, rng.gen_range(0u64..100_000)))
        .collect()
}

fn apply(reg: &Registry, ops: &[(u8, u64)]) {
    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
    for &(kind, v) in ops {
        let name = NAMES[(v % 3) as usize];
        match kind {
            0 => reg.add(name, v),
            1 => reg.observe(name, v),
            2 => reg.record_ns(name, Duration::from_nanos(v)),
            _ => reg.set_gauge(name, v as f64),
        }
    }
}

#[test]
fn merge_equals_serial_over_random_shardings() {
    for seed in 0..16u64 {
        let ops = random_ops(seed, 200);
        let serial = Registry::with_enabled(true);
        apply(&serial, &ops);
        let serial_snap = serial.snapshot();
        for num_shards in [2usize, 3, 7] {
            // Deal ops round-robin, apply each shard to its own registry,
            // then fold in a rotated (non-serial) order.
            let mut shards: Vec<Registry> = Vec::new();
            for s in 0..num_shards {
                let reg = Registry::with_enabled(true);
                let slice: Vec<(u8, u64)> = ops
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % num_shards == s)
                    .map(|(_, op)| op)
                    .collect();
                apply(&reg, &slice);
                shards.push(reg);
            }
            shards.rotate_left(seed as usize % num_shards);
            let folded = Registry::with_enabled(true);
            for shard in shards {
                folded.merge(shard);
            }
            assert_eq!(
                folded.snapshot(),
                serial_snap,
                "seed {seed}, {num_shards} shards"
            );
        }
    }
}

#[test]
fn alloc_merge_is_associative_and_commutative() {
    // 64 seeded cases: a random stream of per-span allocation records,
    // dealt across 2/3/7 shards and folded in a rotated order, must
    // reproduce the serial registry's snapshot exactly — the law that
    // lets worker threads account heap traffic independently.
    const PATHS: [&str; 4] = ["ingest", "ingest/destinations", "ingest/pii", "finish"];
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xA110C + seed);
        let ops: Vec<(usize, iot_obs::AllocStats)> = (0..150)
            .map(|_| {
                let bytes = rng.gen_range(0u64..1 << 20);
                let n = rng.gen_range(0u64..64);
                (
                    rng.gen_range(0u64..PATHS.len() as u64) as usize,
                    iot_obs::AllocStats {
                        bytes_allocated: bytes,
                        allocs: n,
                        bytes_freed: bytes / 2,
                        frees: n / 2,
                    },
                )
            })
            .collect();
        let serial = Registry::with_enabled(true);
        for &(p, a) in &ops {
            serial.record_alloc(PATHS[p], a);
        }
        let serial_snap = serial.snapshot();
        assert!(!serial_snap.span_allocs.is_empty(), "seed {seed}");
        for num_shards in [2usize, 3, 7] {
            let mut shards: Vec<Registry> = (0..num_shards)
                .map(|s| {
                    let reg = Registry::with_enabled(true);
                    for (i, &(p, a)) in ops.iter().enumerate() {
                        if i % num_shards == s {
                            reg.record_alloc(PATHS[p], a);
                        }
                    }
                    reg
                })
                .collect();
            shards.rotate_left(seed as usize % num_shards);
            let folded = Registry::with_enabled(true);
            for shard in shards {
                folded.merge(shard);
            }
            assert_eq!(
                folded.snapshot(),
                serial_snap,
                "seed {seed}, {num_shards} shards"
            );
        }
    }
}

#[test]
fn nested_spans_aggregate_per_path() {
    let reg = Registry::with_enabled(true);
    {
        let _campaign = reg.span("campaign");
        for _ in 0..5 {
            let _ingest = reg.span("campaign/ingest");
            let _flows = reg.span("campaign/ingest/flows");
        }
        for _ in 0..2 {
            let _finish = reg.span("campaign/finish");
        }
    }
    let snap = reg.snapshot();
    assert_eq!(snap.spans["campaign"].count(), 1);
    assert_eq!(snap.spans["campaign/ingest"].count(), 5);
    assert_eq!(snap.spans["campaign/ingest/flows"].count(), 5);
    assert_eq!(snap.spans["campaign/finish"].count(), 2);
    // Wall-clock is hierarchical: the parent covers all children.
    let children = snap.spans["campaign/ingest"].sum() + snap.spans["campaign/finish"].sum();
    assert!(snap.spans["campaign"].sum() >= children);
}

#[test]
fn disabled_layer_is_inert_and_merges_clean() {
    let off = Registry::with_enabled(false);
    apply(&off, &random_ops(1, 50));
    let on = Registry::with_enabled(true);
    on.add("kept", 7);
    on.merge(off);
    let snap = on.snapshot();
    assert_eq!(snap.counters.len(), 1);
    assert_eq!(snap.counters["kept"], 7);
    assert!(snap.spans.is_empty());
}

#[test]
fn report_json_round_trips_through_parser() {
    let reg = Registry::with_enabled(true);
    apply(&reg, &random_ops(3, 100));
    let report = RunReport::from_registry("prop", &reg).meta("k", "v");
    // Serialize ONCE: the process section carries live values (peak RSS,
    // live heap bytes) that may move between two to_json() calls.
    let j = report.to_json();
    for text in [j.pretty(), j.dump()] {
        let parsed = Json::parse(&text).expect("report JSON must parse");
        assert_eq!(
            parsed.get("report"),
            Some(&Json::Str("prop".into())),
            "{text}"
        );
        // Re-serializing the parsed tree reproduces the compact bytes.
        assert_eq!(parsed.dump(), j.dump());
    }
}

#[test]
fn deterministic_json_is_stable_across_merge_orders() {
    let ops = random_ops(9, 120);
    let (a_ops, b_ops) = ops.split_at(60);
    let build = |first: &[(u8, u64)], second: &[(u8, u64)]| {
        let target = Registry::with_enabled(true);
        let a = Registry::with_enabled(true);
        apply(&a, first);
        let b = Registry::with_enabled(true);
        apply(&b, second);
        target.merge(a);
        target.merge(b);
        RunReport::from_registry("det", &target).deterministic_json().dump()
    };
    assert_eq!(build(a_ops, b_ops), build(b_ops, a_ops));
}
