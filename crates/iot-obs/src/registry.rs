//! The shard-local metric registry.
//!
//! A [`Registry`] is owned by exactly one worker (it is deliberately not
//! `Sync`): recording never takes a lock, mirroring how each pipeline
//! worker owns its private caches. When the workers end, the
//! registries [`merge`](Registry::merge); counter, histogram, and span
//! merges are associative and commutative, so the merged registry is
//! independent of worker count and fold order. Gauges merge by maximum
//! (they record high-water marks / topology facts, not sums).
//!
//! A span is named by its full `parent/…/label` path, whichever way it
//! is recorded: a [`SpanGuard`], a [`Meter`], or the fixture primitives
//! [`Registry::record_ns`] and [`Registry::record_alloc`]. Nesting is
//! spelled in the path, never inferred from which guards are open, so
//! each path has exactly one slot.
//!
//! A [`Meter`] is the one stage meter: it marks a start (the clock, plus
//! the thread's heap counters while the allocator counts), sums any
//! number of short calls, and records the sum under a span path in one
//! call. A guard is a meter that records into its slot when it drops;
//! code that cannot hold a guard across a borrow, or that times a stage
//! interleaved with others call by call, keeps a meter instead. A meter
//! built from a disabled registry is inert: it reads no clock.
//!
//! Paths are interned into a slot arena on first use with a short
//! linear scan over the run's dozen-odd paths; after that, recording
//! allocates nothing. This keeps per-experiment instrumentation
//! overhead in the low microseconds (`bench_pipeline` gates it).
//!
//! Each span path keeps one aggregate, its duration [`Histogram`]:
//! calls are its count, the total its sum, and min/max its extremes, so
//! the run report's p50/p95 come from exactly the bucket bounds the
//! Prometheus exporter emits.

use crate::alloc::{self, AllocStats};
use crate::metrics::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Interned span arena: full path and duration histogram per slot.
    span_paths: Vec<String>,
    span_hists: Vec<Histogram>,
    /// Heap traffic charged to each slot while its span was open (only
    /// populated when the instrumented allocator is counting; all-zero
    /// entries are dropped from snapshots so reports stay clean when
    /// memory profiling is off).
    span_allocs: Vec<AllocStats>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_paths: Vec::new(),
            span_hists: Vec::new(),
            span_allocs: Vec::new(),
        }
    }

    /// Resolves a full span path to its slot, interning it on first use.
    fn intern(&mut self, path: &str) -> usize {
        if let Some(slot) = self.span_paths.iter().position(|p| p == path) {
            return slot;
        }
        self.span_paths.push(path.to_string());
        self.span_hists.push(Histogram::default());
        self.span_allocs.push(AllocStats::default());
        self.span_paths.len() - 1
    }

    /// Per-span heap traffic keyed by full path; all-zero entries are
    /// omitted so the map is empty (and serializes to nothing) whenever
    /// the allocator never counted.
    fn span_allocs_by_path(&self) -> BTreeMap<String, AllocStats> {
        self.span_paths
            .iter()
            .zip(&self.span_allocs)
            .filter(|(_, a)| !a.is_zero())
            .map(|(p, a)| (p.clone(), *a))
            .collect()
    }

    /// Span-duration histograms keyed by full path.
    fn spans_by_path(&self) -> BTreeMap<String, Histogram> {
        self.span_paths
            .iter()
            .cloned()
            .zip(self.span_hists.iter().cloned())
            .collect()
    }
}

/// A shard-local collection of counters, gauges, histograms, and spans.
pub struct Registry {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Registry {
    /// Creates a registry that records when `enabled` and is inert
    /// otherwise; the caller decides, so the overhead benchmark can
    /// measure both modes inside one process.
    pub fn with_enabled(enabled: bool) -> Self {
        Registry {
            enabled,
            inner: RefCell::new(Inner::new()),
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        match inner.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the gauge `name`. Gauges are high-water marks: re-setting
    /// (and merging) keeps the maximum value seen.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        match inner.gauges.get_mut(name) {
            Some(g) => *g = g.max(value),
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Opens a span at the full path `path` (`parent/…/label`). The
    /// returned guard records its wall-clock (and heap traffic, while
    /// the allocator counts) into that path's slot when it drops. A
    /// guard opened inside another records under its own path only:
    /// nesting is spelled in the path, so a guard shares its slot with a
    /// [`Meter`] or [`Registry::record_ns`] on the same path.
    pub fn span(&self, path: &str) -> SpanGuard<'_> {
        // Interned before the meter starts, so first-use interning is
        // not charged to the span. A span opened inside another is
        // charged to both, exactly as wall-clock is.
        let slot = if self.enabled {
            self.inner.borrow_mut().intern(path)
        } else {
            0
        };
        SpanGuard {
            reg: self,
            slot,
            meter: Meter::started(self),
        }
    }

    /// Records a duration against a span path as one call. Fixtures use
    /// it to build registries with known figures; measured code records
    /// through a [`Meter`].
    pub fn record_ns(&self, path: &str, d: Duration) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let slot = inner.intern(path);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        inner.span_hists[slot].observe(ns);
    }

    /// Charges heap traffic to a span path without adding a call — the
    /// allocation analogue of [`Registry::record_ns`]; all-zero traffic
    /// records nothing.
    pub fn record_alloc(&self, path: &str, stats: AllocStats) {
        if !self.enabled || stats.is_zero() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let slot = inner.intern(path);
        inner.span_allocs[slot].merge(&stats);
    }

    /// Folds `other` into `self`. Merged data combines regardless of
    /// either registry's enablement (enablement only gates recording).
    pub fn merge(&self, other: Registry) {
        let other = other.inner.into_inner();
        let mut inner = self.inner.borrow_mut();
        for (k, v) in other.counters {
            *inner.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            inner
                .gauges
                .entry(k)
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (k, v) in other.histograms {
            match inner.histograms.get_mut(&k) {
                Some(h) => h.merge(&v),
                None => {
                    inner.histograms.insert(k, v);
                }
            }
        }
        let other_slots = other.span_hists.iter().zip(&other.span_allocs);
        for (path, (hist, stats)) in other.span_paths.iter().zip(other_slots) {
            let slot = inner.intern(path);
            inner.span_hists[slot].merge(hist);
            inner.span_allocs[slot].merge(stats);
        }
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans_by_path(),
            span_allocs: inner.span_allocs_by_path(),
        }
    }

    fn close_span(&self, slot: usize, meter: &Meter) {
        let mut inner = self.inner.borrow_mut();
        if !meter.heap.is_zero() {
            inner.span_allocs[slot].merge(&meter.heap);
        }
        let ns = u64::try_from(meter.time.as_nanos()).unwrap_or(u64::MAX);
        inner.span_hists[slot].observe(ns);
    }
}

/// A stage meter: wall-clock time and, while the allocator counts, the
/// calling thread's heap traffic, summed over one or many calls and
/// recorded under a span path at once. Built from a disabled registry
/// it is inert: [`Meter::start`] and [`Meter::stop`] read no clock and
/// no counter, and [`Meter::record`] records nothing.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    on: bool,
    /// The open call's clock and, while the allocator counted at its
    /// start, the thread's heap counters.
    from: Option<(Instant, Option<AllocStats>)>,
    time: Duration,
    heap: AllocStats,
}

impl Meter {
    /// A stopped meter that measures only if `reg` records.
    pub fn new(reg: &Registry) -> Self {
        Meter {
            on: reg.enabled,
            from: None,
            time: Duration::ZERO,
            heap: AllocStats::default(),
        }
    }

    /// A meter whose first call is already open.
    pub fn started(reg: &Registry) -> Self {
        let mut meter = Meter::new(reg);
        meter.start();
        meter
    }

    /// Opens a call: marks the clock and, while the allocator counts,
    /// the thread's heap counters.
    #[inline]
    pub fn start(&mut self) {
        if self.on {
            self.from = Some((
                Instant::now(),
                alloc::enabled().then(alloc::thread_snapshot),
            ));
        }
    }

    /// Closes the open call, if any, adding its time and heap traffic.
    #[inline]
    pub fn stop(&mut self) {
        if let Some((at, heap)) = self.from.take() {
            self.time += at.elapsed();
            if let Some(heap) = heap {
                self.heap.merge(&alloc::thread_snapshot().since(&heap));
            }
        }
    }

    /// Runs `f` as one call.
    #[inline]
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.start();
        let out = f();
        self.stop();
        out
    }

    /// Closes the open call and records the sum under `path` as one
    /// call, with its heap traffic when there was any.
    pub fn record(mut self, reg: &Registry, path: &str) {
        self.stop();
        if self.on {
            reg.record_ns(path, self.time);
            reg.record_alloc(path, self.heap);
        }
    }
}

/// RAII guard returned by [`Registry::span`]: a running [`Meter`] that
/// records into its span's slot on drop.
pub struct SpanGuard<'a> {
    reg: &'a Registry,
    slot: usize,
    meter: Meter,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.meter.on {
            self.meter.stop();
            self.reg.close_span(self.slot, &self.meter);
        }
    }
}

/// Owned copy of a registry's contents, consumed by report building.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span duration histograms (nanoseconds) keyed by `parent/…/label`
    /// path: calls are the count, the total wall-clock the sum. They
    /// share bucket bounds with every other [`Histogram`], so table
    /// quantiles and the Prometheus exposition can never disagree.
    pub spans: BTreeMap<String, Histogram>,
    /// Heap traffic attributed to each span path (empty unless the
    /// instrumented allocator was counting — see [`crate::alloc`]).
    /// Allocation counts depend on sharding, so this section lives with
    /// spans in the run-dependent report, never in the deterministic
    /// subset.
    pub span_allocs: BTreeMap<String, AllocStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::with_enabled(false);
        r.add("c", 5);
        r.set_gauge("g", 1.0);
        r.observe("h", 7);
        {
            let _s = r.span("outer");
        }
        r.record_ns("manual", Duration::from_millis(1));
        let mut meter = Meter::started(&r);
        meter.measure(|| ());
        meter.record(&r, "metered");
        assert_eq!(r.snapshot(), Snapshot::default());
    }

    #[test]
    fn a_meter_records_its_calls_as_one() {
        let counting = alloc::counting(true);
        let r = Registry::with_enabled(true);
        let mut meter = Meter::new(&r);
        for _ in 0..3 {
            meter.measure(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1024))));
            // Between calls: not charged.
            drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
        }
        meter.record(&r, "stage");
        drop(counting);
        let snap = r.snapshot();
        assert_eq!(snap.spans["stage"].count(), 1);
        let heap = snap.span_allocs["stage"];
        assert_eq!(
            (heap.allocs, heap.bytes_allocated),
            (3, 3 * 1024),
            "{heap:?}"
        );
    }

    #[test]
    fn counters_and_gauges() {
        let r = Registry::with_enabled(true);
        r.add("c", 2);
        r.add("c", 3);
        r.add("zero", 0);
        r.set_gauge("g", 2.0);
        r.set_gauge("g", 1.0); // high-water mark keeps 2.0
        assert_eq!(r.counter("c"), 5);
        assert_eq!(r.counter("zero"), 0);
        assert!(r.snapshot().counters.contains_key("zero"));
        assert_eq!(r.gauge("g"), Some(2.0));
    }

    #[test]
    fn a_guard_records_under_its_full_path_only() {
        let r = Registry::with_enabled(true);
        r.record_ns("shard/ingest/flows", Duration::from_millis(2));
        {
            let _ingest = r.span("shard/ingest");
            let _flows = r.span("shard/ingest/flows");
        }
        let snap = r.snapshot();
        // Opened inside `shard/ingest`, the inner guard adds no path of
        // its own ...
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, ["shard/ingest", "shard/ingest/flows"]);
        assert_eq!(snap.spans["shard/ingest"].count(), 1);
        // ... and shares one slot with `record_ns` on the same path.
        let flows = &snap.spans["shard/ingest/flows"];
        assert_eq!(flows.count(), 2);
        assert!(flows.sum() >= 2_000_000);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let build = |counts: &[(&str, u64)], span_ns: &[(&str, u64)]| {
            let r = Registry::with_enabled(true);
            for &(k, v) in counts {
                r.add(k, v);
                r.observe("values", v);
            }
            for &(p, ns) in span_ns {
                r.record_ns(p, Duration::from_nanos(ns));
            }
            r
        };
        // Per registry: its counters, then its span times.
        type Spec<'a> = (&'a [(&'a str, u64)], &'a [(&'a str, u64)]);
        let specs: [Spec<'_>; 3] = [
            (&[("x", 1), ("y", 10)], &[("s", 100)]),
            (&[("x", 2)], &[("s", 50), ("t", 5)]),
            (&[("y", 3), ("z", 7)], &[("t", 9)]),
        ];
        // ((a ⊕ b) ⊕ c)
        let left = build(specs[0].0, specs[0].1);
        left.merge(build(specs[1].0, specs[1].1));
        left.merge(build(specs[2].0, specs[2].1));
        // (c ⊕ (b ⊕ a)) — different order and grouping.
        let inner = build(specs[1].0, specs[1].1);
        inner.merge(build(specs[0].0, specs[0].1));
        let right = build(specs[2].0, specs[2].1);
        right.merge(inner);
        assert_eq!(left.snapshot(), right.snapshot());
        assert_eq!(left.counter("x"), 3);
        assert_eq!(left.counter("y"), 13);
        let s = &left.snapshot().spans["s"];
        assert_eq!((s.count(), s.sum(), s.min(), s.max()), (2, 150, Some(50), Some(100)));
    }

    #[test]
    fn span_allocs_attribute_heap_traffic_to_the_open_span() {
        let counting = alloc::counting(true);
        let r = Registry::with_enabled(true);
        {
            let _outer = r.span("outer");
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(8192));
            drop(v);
            {
                let _inner = r.span("outer/leaf");
                let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(2048));
                drop(v);
            }
        }
        drop(counting);
        let snap = r.snapshot();
        let outer = snap.span_allocs["outer"];
        let leaf = snap.span_allocs["outer/leaf"];
        assert!(leaf.bytes_allocated >= 2048, "leaf: {leaf:?}");
        // The parent includes its child's traffic, as wall-clock does.
        assert!(
            outer.bytes_allocated >= 8192 + leaf.bytes_allocated,
            "outer: {outer:?} leaf: {leaf:?}"
        );
        assert!(outer.frees >= 2);
    }

    #[test]
    fn snapshot_omits_zero_alloc_spans() {
        // Allocator off: spans record time but span_allocs stays empty,
        // so reports of a run without heap counting serialize no alloc
        // fields.
        let counting = alloc::counting(false);
        let r = Registry::with_enabled(true);
        {
            let _s = r.span("quiet");
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
            drop(v);
        }
        drop(counting);
        let snap = r.snapshot();
        assert_eq!(snap.spans["quiet"].count(), 1);
        assert!(snap.span_allocs.is_empty());
    }

    #[test]
    fn record_alloc_merges_by_path_like_record_ns() {
        let a = Registry::with_enabled(true);
        let b = Registry::with_enabled(true);
        let stats = |bytes, n| AllocStats {
            bytes_allocated: bytes,
            allocs: n,
            bytes_freed: bytes / 2,
            frees: n / 2,
        };
        a.record_alloc("ingest/pii", stats(100, 4));
        b.record_alloc("ingest/pii", stats(60, 2));
        b.record_alloc("ingest/destinations", stats(8, 2));
        b.record_alloc("zero", AllocStats::default()); // no-op
        a.merge(b);
        let snap = a.snapshot();
        assert_eq!(snap.span_allocs["ingest/pii"], stats(160, 6));
        assert_eq!(snap.span_allocs["ingest/destinations"], stats(8, 2));
        assert!(!snap.span_allocs.contains_key("zero"));
    }
}
