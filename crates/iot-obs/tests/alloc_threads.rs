//! The counting allocator across threads, checked exactly.
//!
//! This binary has no test harness (`harness = false`): the harness's
//! own threads would allocate while counting is on and blur the totals.
//! Here the only threads are this `main` and the ones it spawns, so the
//! process totals must equal the threads' own counts to the byte.

use iot_obs::alloc::{process_totals, set_enabled, thread_snapshot};
use iot_obs::AllocStats;
use std::hint::black_box;
use std::sync::Barrier;

/// Allocates and frees `n` buffers of sizes fixed by `seed`, and returns
/// the traffic that must have been counted.
fn pattern(seed: u64, n: u64) -> AllocStats {
    let mut bytes = 0;
    for i in 0..n {
        let size = 16 + (seed * 97 + i * 31) % 4_000;
        drop(black_box(Vec::<u8>::with_capacity(size as usize)));
        bytes += size;
    }
    AllocStats {
        bytes_allocated: bytes,
        allocs: n,
        bytes_freed: bytes,
        frees: n,
    }
}

/// Four scoped threads, joined: the process delta is the sum of each
/// thread's own count and the caller's. A new thread's ledger starts at
/// zero, so its snapshot is all it counted, its start-up included. Only
/// allocations are compared: std frees each thread's boxed entry closure
/// after the closure returns, past the thread's last snapshot.
fn joined_threads_sum_to_the_process_totals() {
    let before = process_totals();
    let caller_before = thread_snapshot();
    set_enabled(true);
    let threads: Vec<AllocStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=4u64)
            .map(|t| {
                s.spawn(move || {
                    pattern(t, 1_000 * t);
                    thread_snapshot()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a counting thread panicked"))
            .collect()
    });
    set_enabled(false);
    let mut sum = thread_snapshot().since(&caller_before);
    for t in &threads {
        assert!(
            t.allocs >= 1_000,
            "a thread's own traffic is missing: {t:?}"
        );
        sum.merge(t);
    }
    let process = process_totals().since(&before);
    assert_eq!(
        (process.allocs, process.bytes_allocated),
        (sum.allocs, sum.bytes_allocated),
        "process delta {process:?} against the threads' sum {sum:?}"
    );
}

/// Two threads allocate at the same time: each one's delta is exactly
/// its own traffic, none of the other's.
fn concurrent_threads_count_only_their_own_traffic() {
    let start = Barrier::new(2);
    set_enabled(true);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..=2u64)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let before = thread_snapshot();
                    let want = pattern(t, 20_000);
                    (want, thread_snapshot().since(&before))
                })
            })
            .collect();
        for h in handles {
            let (want, got) = h.join().expect("a counting thread panicked");
            assert_eq!(got, want, "a thread's delta is not its own traffic");
        }
    });
    set_enabled(false);
}

/// With counting off, neither the thread's nor the process's counts
/// move, on this thread or on another.
fn counting_off_moves_nothing() {
    set_enabled(false);
    let (process, mine) = (process_totals(), thread_snapshot());
    pattern(3, 1_000);
    let other = std::thread::scope(|s| {
        s.spawn(|| {
            pattern(4, 1_000);
            thread_snapshot()
        })
        .join()
        .expect("a thread panicked")
    });
    assert_eq!(thread_snapshot(), mine);
    assert_eq!(
        other,
        AllocStats::default(),
        "a thread that never counted reads zeros"
    );
    assert_eq!(process_totals(), process);
}

fn main() {
    let checks: [(&str, fn()); 3] = [
        (
            "joined_threads_sum_to_the_process_totals",
            joined_threads_sum_to_the_process_totals,
        ),
        (
            "concurrent_threads_count_only_their_own_traffic",
            concurrent_threads_count_only_their_own_traffic,
        ),
        ("counting_off_moves_nothing", counting_off_moves_nothing),
    ];
    for (name, check) in checks {
        check();
        println!("alloc_threads: {name} ... ok");
    }
}
