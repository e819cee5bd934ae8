//! Instrumented global allocator: per-thread and process-wide heap
//! accounting, switched on by its caller and near-zero-cost when off.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and is registered as
//! the crate's `#[global_allocator]`, so every binary that links
//! `iot-obs` routes its heap traffic through it. When disabled (the
//! default) each allocation pays exactly one relaxed atomic load and a
//! predictable branch; no other state is touched. When enabled with
//! [`set_enabled`] (the benches do, around the runs they measure) it
//! maintains:
//!
//! * **thread-local counters** — bytes/count allocated and freed, live
//!   bytes, and a high-water mark, in const-initialized `Cell`s (no
//!   lazy init, no destructor, therefore no recursion into the
//!   allocator and no TLS-teardown hazard);
//! * **process-wide atomics** — the same totals summed across threads,
//!   plus a process live/high-water pair maintained with `fetch_max`.
//!
//! Attribution to pipeline stages does **not** happen here: the
//! allocator only counts. [`Registry::span`](crate::Registry::span)
//! snapshots the thread counters when a span opens and charges the
//! delta to the span's interned path when it closes, so every stage
//! gets an allocation profile alongside its time profile, flowing
//! through the same associative/commutative shard merge.
//!
//! ## Invariants the design leans on
//!
//! * The counting path never allocates: `Cell` arithmetic plus relaxed
//!   atomics only. Enablement is a single `AtomicBool` flipped by
//!   [`set_enabled`].
//! * A thread that frees memory after its TLS is torn down (possible
//!   during thread exit) falls back to the process-wide atomics via
//!   `try_with`, so process totals stay conserved.
//! * `realloc` counts as free(old) + alloc(new) — total bytes measure
//!   traffic, not peak; peak is what `live`/`high_water` capture.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Whether the allocator is currently counting.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide totals (monotonic while enabled).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
/// Process-wide live bytes (allocs minus frees; may transiently skew
/// negative if counting was enabled after memory was already live).
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Process-wide high-water of `LIVE` since enablement (or the last
/// [`reset_high_water`]).
static HIGH_WATER: AtomicI64 = AtomicI64::new(0);

struct ThreadCounters {
    bytes_allocated: Cell<u64>,
    allocs: Cell<u64>,
    bytes_freed: Cell<u64>,
    frees: Cell<u64>,
    live: Cell<i64>,
    high_water: Cell<i64>,
}

// Const-initialized: no lazy-init allocation inside the allocator, and
// no interior Drop, so the thread_local has no destructor to run at
// thread exit.
thread_local! {
    static COUNTERS: ThreadCounters = const {
        ThreadCounters {
            bytes_allocated: Cell::new(0),
            allocs: Cell::new(0),
            bytes_freed: Cell::new(0),
            frees: Cell::new(0),
            live: Cell::new(0),
            high_water: Cell::new(0),
        }
    };
}

#[inline]
fn count_alloc(size: usize) {
    let size = size as u64;
    TOTAL_BYTES.fetch_add(size, Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    HIGH_WATER.fetch_max(live, Relaxed);
    let _ = COUNTERS.try_with(|c| {
        c.bytes_allocated.set(c.bytes_allocated.get() + size);
        c.allocs.set(c.allocs.get() + 1);
        let live = c.live.get() + size as i64;
        c.live.set(live);
        if live > c.high_water.get() {
            c.high_water.set(live);
        }
    });
}

#[inline]
fn count_dealloc(size: usize) {
    let size = size as u64;
    TOTAL_FREED_BYTES.fetch_add(size, Relaxed);
    TOTAL_FREES.fetch_add(1, Relaxed);
    LIVE.fetch_sub(size as i64, Relaxed);
    let _ = COUNTERS.try_with(|c| {
        c.bytes_freed.set(c.bytes_freed.get() + size);
        c.frees.set(c.frees.get() + 1);
        c.live.set(c.live.get() - size as i64);
    });
}

/// The instrumented allocator. Forwards every operation to
/// [`System`]; counts only when [`enabled`] is true.
pub struct CountingAlloc;

// SAFETY: all four methods delegate directly to `System`, which
// upholds the `GlobalAlloc` contract; the counting side never
// allocates (Cell writes + relaxed atomics) and never dereferences the
// returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            count_dealloc(layout.size());
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            count_dealloc(layout.size());
            count_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether allocation counting is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns allocation counting on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Cumulative allocation counters — either a point-in-time thread
/// snapshot or a delta between two snapshots. All fields are
/// monotonic totals, so deltas subtract field-wise and merge by
/// field-wise addition (associative and commutative, mirroring the
/// registry's counter laws).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes requested from the allocator.
    pub bytes_allocated: u64,
    /// Number of allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Bytes returned to the allocator.
    pub bytes_freed: u64,
    /// Number of frees (including the free half of reallocs).
    pub frees: u64,
}

impl AllocStats {
    /// Field-wise sum (the registry merge law).
    pub fn merge(&mut self, other: &AllocStats) {
        self.bytes_allocated += other.bytes_allocated;
        self.allocs += other.allocs;
        self.bytes_freed += other.bytes_freed;
        self.frees += other.frees;
    }

    /// True when no traffic was recorded.
    pub fn is_zero(&self) -> bool {
        self.bytes_allocated == 0 && self.allocs == 0 && self.bytes_freed == 0 && self.frees == 0
    }

    /// The delta from an earlier snapshot of the same thread to this
    /// one (saturating, in case counting was toggled in between).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes_freed: self.bytes_freed.saturating_sub(earlier.bytes_freed),
            frees: self.frees.saturating_sub(earlier.frees),
        }
    }
}

/// Snapshot of the calling thread's cumulative counters.
pub fn thread_snapshot() -> AllocStats {
    COUNTERS
        .try_with(|c| AllocStats {
            bytes_allocated: c.bytes_allocated.get(),
            allocs: c.allocs.get(),
            bytes_freed: c.bytes_freed.get(),
            frees: c.frees.get(),
        })
        .unwrap_or_default()
}

/// The calling thread's current live bytes (allocated minus freed on
/// this thread; cross-thread frees make this approximate per thread —
/// process totals stay exact).
pub fn thread_live_bytes() -> i64 {
    COUNTERS.try_with(|c| c.live.get()).unwrap_or(0)
}

/// The calling thread's live-bytes high-water mark.
pub fn thread_high_water_bytes() -> i64 {
    COUNTERS.try_with(|c| c.high_water.get()).unwrap_or(0)
}

/// Process-wide cumulative totals across all threads.
pub fn process_totals() -> AllocStats {
    AllocStats {
        bytes_allocated: TOTAL_BYTES.load(Relaxed),
        allocs: TOTAL_ALLOCS.load(Relaxed),
        bytes_freed: TOTAL_FREED_BYTES.load(Relaxed),
        frees: TOTAL_FREES.load(Relaxed),
    }
}

/// Process-wide live bytes (clamped at zero: counting enabled mid-run
/// can observe more frees than allocs).
pub fn process_live_bytes() -> u64 {
    LIVE.load(Relaxed).max(0) as u64
}

/// Process-wide live-bytes high-water mark since enablement or the
/// last [`reset_high_water`].
pub fn process_high_water_bytes() -> u64 {
    HIGH_WATER.load(Relaxed).max(0) as u64
}

/// Resets the process and calling-thread high-water marks to the
/// current live level, so a bench can measure the peak of *its own*
/// run rather than inherit the process's startup peak.
pub fn reset_high_water() {
    let live = LIVE.load(Relaxed);
    HIGH_WATER.store(live, Relaxed);
    let _ = COUNTERS.try_with(|c| c.high_water.set(c.live.get()));
}

/// Serializes tests that toggle the process-wide `ENABLED` flag — the
/// test harness is multi-threaded and a concurrent toggle would corrupt
/// another test's counts. Shared with the registry's attribution tests.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_counting<R>(f: impl FnOnce() -> R) -> R {
        let _g = test_lock();
        let was = enabled();
        set_enabled(true);
        let r = f();
        set_enabled(was);
        r
    }

    #[test]
    fn disabled_by_default_until_configured() {
        // The raw flag defaults to off; other tests may have toggled
        // it, so only assert the programmatic toggle round-trips.
        with_counting(|| assert!(enabled()));
    }

    #[test]
    fn counts_an_observable_allocation() {
        with_counting(|| {
            let before = thread_snapshot();
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
            let mid = thread_snapshot();
            drop(v);
            let after = thread_snapshot();
            let grow = mid.since(&before);
            assert!(grow.allocs >= 1, "expected ≥1 alloc, got {grow:?}");
            assert!(grow.bytes_allocated >= 4096, "expected ≥4096 B, got {grow:?}");
            let freed = after.since(&mid);
            assert!(freed.frees >= 1, "expected ≥1 free, got {freed:?}");
            assert!(freed.bytes_freed >= 4096, "expected ≥4096 B freed, got {freed:?}");
        });
    }

    #[test]
    fn disabled_counting_is_inert() {
        let _g = test_lock();
        let was = enabled();
        set_enabled(false);
        let before = thread_snapshot();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        drop(v);
        let after = thread_snapshot();
        set_enabled(was);
        assert_eq!(before, after, "disabled allocator must not count");
    }

    #[test]
    fn high_water_tracks_live_peak() {
        with_counting(|| {
            reset_high_water();
            let base = thread_live_bytes();
            let v: Vec<u8> = std::hint::black_box(vec![0u8; 1 << 16]);
            let peak_live = thread_live_bytes();
            drop(v);
            assert!(peak_live >= base + (1 << 16));
            assert!(thread_high_water_bytes() >= peak_live);
            // After the drop, live recedes but high-water holds.
            assert!(thread_live_bytes() < peak_live);
        });
    }

    #[test]
    fn realloc_counts_both_sides() {
        with_counting(|| {
            let before = thread_snapshot();
            let mut v: Vec<u8> = vec![0; 64];
            // Force growth reallocation(s).
            for i in 0..4096u32 {
                v.push(i as u8);
            }
            std::hint::black_box(&v);
            drop(v);
            let d = thread_snapshot().since(&before);
            assert!(d.allocs >= 2, "growth must re-allocate: {d:?}");
            assert_eq!(
                d.bytes_allocated - d.bytes_freed,
                0,
                "everything dropped ⇒ traffic balances: {d:?}"
            );
        });
    }

    #[test]
    fn stats_merge_is_field_wise_sum() {
        let mut a = AllocStats {
            bytes_allocated: 10,
            allocs: 2,
            bytes_freed: 4,
            frees: 1,
        };
        let b = AllocStats {
            bytes_allocated: 7,
            allocs: 1,
            bytes_freed: 6,
            frees: 3,
        };
        a.merge(&b);
        assert_eq!(
            a,
            AllocStats {
                bytes_allocated: 17,
                allocs: 3,
                bytes_freed: 10,
                frees: 4
            }
        );
        assert!(!a.is_zero());
        assert!(AllocStats::default().is_zero());
    }

    #[test]
    fn process_totals_are_monotonic_while_counting() {
        with_counting(|| {
            let before = process_totals();
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(512));
            drop(v);
            let after = process_totals();
            assert!(after.bytes_allocated >= before.bytes_allocated + 512);
            assert!(after.allocs > before.allocs);
            assert!(after.frees > before.frees);
        });
    }
}
