//! Instrumented global allocator: one heap ledger per thread, summed
//! on read; switched on by its caller and near-zero-cost when off.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and is registered as
//! the crate's `#[global_allocator]`, so every binary that links
//! `iot-obs` routes its heap traffic through it. When disabled (the
//! default) each allocation pays exactly one relaxed atomic load and a
//! predictable branch; no other state is touched. When enabled with
//! [`set_enabled`] each thread counts into a ledger of its own (bytes and
//! count allocated and freed, and a live-bytes high-water mark), made
//! from [`System`] on its first counted event so counting cannot
//! recurse. Only that thread writes it, with a relaxed load and store
//! and no read-modify-write, and ledgers are 128-byte aligned, so workers
//! never contend on a cache line. Ledgers sit on a push-only list and
//! are never freed: [`process_totals`] sums them, joined threads
//! included. The process's peak is the kernel's,
//! [`crate::process::peak_rss_bytes`].
//!
//! Attribution to pipeline stages does **not** happen here: the
//! allocator only counts. [`Registry::span`](crate::Registry::span)
//! snapshots the thread's ledger when a span opens and charges the
//! delta to the span's interned path when it closes, so every stage
//! gets an allocation profile alongside its time profile, flowing
//! through the same associative/commutative shard merge.
//!
//! `realloc` counts as free(old) + alloc(new): the totals measure
//! traffic, not peak; peak is what live/high-water capture.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64};

/// Whether the allocator is currently counting.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread's heap counts. Only the owning thread writes them; any
/// thread may read them. All-zero bytes are a valid, empty ledger.
#[repr(align(128))]
struct Ledger {
    bytes_allocated: AtomicU64,
    allocs: AtomicU64,
    bytes_freed: AtomicU64,
    frees: AtomicU64,
    /// The peak of [`Ledger::live`] since the ledger was made or the
    /// thread's last [`reset_high_water`].
    high_water: AtomicI64,
    /// The ledger published before this one; fixed once published.
    next: *const Ledger,
}

impl Ledger {
    fn stats(&self) -> AllocStats {
        AllocStats {
            bytes_allocated: self.bytes_allocated.load(Relaxed),
            allocs: self.allocs.load(Relaxed),
            bytes_freed: self.bytes_freed.load(Relaxed),
            frees: self.frees.load(Relaxed),
        }
    }

    /// Allocated minus freed on this thread: negative when the thread
    /// frees memory another thread allocated.
    fn live(&self) -> i64 {
        self.bytes_allocated
            .load(Relaxed)
            .wrapping_sub(self.bytes_freed.load(Relaxed)) as i64
    }
}

/// The head of the push-only list of every ledger ever made.
static LEDGERS: AtomicPtr<Ledger> = AtomicPtr::new(ptr::null_mut());

// The calling thread's ledger, null until its first counted event.
// Const-initialized and without Drop: no lazy-init allocation inside the
// allocator, and no destructor to run at thread exit.
thread_local! {
    static MINE: Cell<*const Ledger> = const { Cell::new(ptr::null()) };
}

/// Makes an empty ledger from [`System`] and pushes it onto `LEDGERS`;
/// null if `System` has no memory for it.
#[cold]
fn publish() -> *const Ledger {
    // SAFETY: `Ledger` has a non-zero size.
    let fresh = unsafe { System.alloc_zeroed(Layout::new::<Ledger>()) }.cast::<Ledger>();
    if !fresh.is_null() {
        // Release: a reader that acquires the head sees `next` written.
        let _ = LEDGERS.fetch_update(Release, Relaxed, |head| {
            // SAFETY: `fresh` is a zeroed, so valid, `Ledger` that no
            // other thread can see until this exchange succeeds.
            unsafe { (*fresh).next = head };
            Some(fresh)
        });
    }
    fresh
}

/// The calling thread's ledger; with `make`, made on first use.
#[inline]
fn own(make: bool) -> Option<&'static Ledger> {
    MINE.try_with(|mine| {
        if make && mine.get().is_null() {
            mine.set(publish());
        }
        // SAFETY: `MINE` is null or a ledger `publish` made, and ledgers
        // are never freed.
        unsafe { mine.get().as_ref() }
    })
    .ok()
    .flatten()
}

/// Adds `by` to a counter that only the calling thread writes.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

#[inline]
fn count_alloc(size: usize) {
    let Some(ledger) = own(true) else { return };
    bump(&ledger.bytes_allocated, size as u64);
    bump(&ledger.allocs, 1);
    let live = ledger.live();
    if live > ledger.high_water.load(Relaxed) {
        ledger.high_water.store(live, Relaxed);
    }
}

#[inline]
fn count_dealloc(size: usize) {
    let Some(ledger) = own(true) else { return };
    bump(&ledger.bytes_freed, size as u64);
    bump(&ledger.frees, 1);
}

/// The instrumented allocator. Forwards every operation to
/// [`System`]; counts only when [`enabled`] is true.
pub struct CountingAlloc;

// SAFETY: all four methods delegate directly to `System`, which
// upholds the `GlobalAlloc` contract; the counting side allocates only
// from `System` (one ledger per thread) and never dereferences the
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

/// Snapshot of the calling thread's cumulative counters (zeros for a
/// thread that never counted).
pub fn thread_snapshot() -> AllocStats {
    own(false).map(Ledger::stats).unwrap_or_default()
}

/// The calling thread's live-bytes high-water mark.
pub fn thread_high_water_bytes() -> i64 {
    own(false).map_or(0, |ledger| ledger.high_water.load(Relaxed))
}

/// Cumulative totals across every thread that has counted, joined
/// threads included.
pub fn process_totals() -> AllocStats {
    let mut total = AllocStats::default();
    let mut next = LEDGERS.load(Acquire).cast_const();
    // SAFETY: every pointer on the list is a ledger whose `next` was
    // written before the release that published it (the exchanges form
    // one release sequence), and none is freed.
    while let Some(ledger) = unsafe { next.as_ref() } {
        total.merge(&ledger.stats());
        next = ledger.next;
    }
    total
}

/// Process-wide live bytes (clamped at zero: counting enabled mid-run
/// can observe more frees than allocs).
pub fn process_live_bytes() -> u64 {
    let totals = process_totals();
    totals.bytes_allocated.saturating_sub(totals.bytes_freed)
}

/// Resets the calling thread's high-water mark to its current live
/// bytes, so a bench can measure the peak of *its own* run rather than
/// inherit the thread's earlier peak.
pub fn reset_high_water() {
    if let Some(ledger) = own(false) {
        ledger.high_water.store(ledger.live(), Relaxed);
    }
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
            let base = thread_high_water_bytes();
            let v: Vec<u8> = std::hint::black_box(vec![0u8; 1 << 16]);
            drop(v);
            // After the drop, live recedes but high-water holds ...
            assert!(thread_high_water_bytes() >= base + (1 << 16));
            // ... until a reset brings it back to live.
            reset_high_water();
            assert!(thread_high_water_bytes() < base + (1 << 16));
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
