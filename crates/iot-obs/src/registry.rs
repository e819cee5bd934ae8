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
//! Span paths are interned into a slot arena on first use: opening a
//! span peeks the stack, resolves `(parent, label)` to a slot with a
//! short linear scan, and closing records into `span_hists[slot]` — after
//! the first occurrence of a path, the hot path allocates nothing and
//! never compares full path strings. This keeps per-experiment
//! instrumentation overhead in the low microseconds (`bench_pipeline`
//! gates it).
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
    /// `children[0]` holds slots opened at the root; `children[s + 1]`
    /// holds slots opened while slot `s` was the innermost open span.
    /// Entries are `(label, slot)`; the lists are short (one per distinct
    /// child label), so a linear scan beats any map here.
    children: Vec<Vec<(String, usize)>>,
    /// Slots of currently open spans, outermost first.
    stack: Vec<usize>,
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
            children: vec![Vec::new()],
            stack: Vec::new(),
        }
    }

    /// Resolves `(parent, label)` to a slot, interning on first use.
    fn intern_child(&mut self, parent: Option<usize>, label: &str) -> usize {
        let ci = parent.map_or(0, |p| p + 1);
        if let Some(&(_, slot)) = self.children[ci].iter().find(|(l, _)| l == label) {
            return slot;
        }
        let path = match parent {
            Some(p) => format!("{}/{label}", self.span_paths[p]),
            None => label.to_string(),
        };
        let slot = self.span_paths.len();
        self.span_paths.push(path);
        self.span_hists.push(Histogram::default());
        self.span_allocs.push(AllocStats::default());
        self.children.push(Vec::new());
        self.children[ci].push((label.to_string(), slot));
        slot
    }

    /// Resolves a full path to a slot, interning a root-level entry on
    /// first use — for externally recorded durations and merges, where
    /// the path arrives pre-composed. Cold relative to `intern_child`.
    fn intern_full(&mut self, path: &str) -> usize {
        if let Some(slot) = self.span_paths.iter().position(|p| p == path) {
            return slot;
        }
        let slot = self.span_paths.len();
        self.span_paths.push(path.to_string());
        self.span_hists.push(Histogram::default());
        self.span_allocs.push(AllocStats::default());
        self.children.push(Vec::new());
        self.children[0].push((path.to_string(), slot));
        slot
    }

    /// Aggregated per-span heap traffic keyed by full path; all-zero
    /// entries are omitted so the map is empty (and serializes to
    /// nothing) whenever the allocator never counted.
    fn span_allocs_by_path(&self) -> BTreeMap<String, AllocStats> {
        let mut allocs: BTreeMap<String, AllocStats> = BTreeMap::new();
        for (p, a) in self.span_paths.iter().zip(&self.span_allocs) {
            if a.is_zero() {
                continue;
            }
            match allocs.get_mut(p) {
                Some(e) => e.merge(a),
                None => {
                    allocs.insert(p.clone(), *a);
                }
            }
        }
        allocs
    }

    /// Aggregated span-duration histograms keyed by full path. Duplicate
    /// slots for one path can exist (a path may be interned both via
    /// nesting and via `intern_full`); aggregation folds them.
    fn spans_by_path(&self) -> BTreeMap<String, Histogram> {
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        for (p, h) in self.span_paths.iter().zip(&self.span_hists) {
            match hists.get_mut(p) {
                Some(e) => e.merge(h),
                None => {
                    hists.insert(p.clone(), h.clone());
                }
            }
        }
        hists
    }
}

/// A shard-local collection of counters, gauges, histograms, and spans.
pub struct Registry {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a registry whose enablement follows the `IOT_OBS`
    /// environment gate.
    pub fn new() -> Self {
        Self::with_enabled(crate::config::enabled())
    }

    /// Creates a registry with recording explicitly forced on or off,
    /// ignoring the environment — used by tests and by the overhead
    /// benchmark, which measures both modes inside one process.
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

    /// Opens a span named `label`, nested under any span currently open
    /// on this registry. The returned guard records its wall-clock into
    /// the `parent/…/label` path's histogram when it drops. A label may
    /// itself be a `/`-joined path, which places the span under a parent
    /// timed with [`Registry::record_ns`].
    pub fn span(&self, label: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                reg: self,
                start: None,
                depth: 0,
                slot: 0,
                alloc_start: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let slot = inner.intern_child(parent, label);
        inner.stack.push(slot);
        let depth = inner.stack.len();
        let start = Instant::now();
        // Snapshot the thread's allocation counters *after* the span's
        // own bookkeeping above, so first-use path interning is not
        // charged to the span. Nested spans include their children's
        // traffic, exactly as wall-clock does.
        let alloc_start = alloc::enabled().then(alloc::thread_snapshot);
        SpanGuard {
            reg: self,
            start: Some(start),
            depth,
            slot,
            alloc_start,
        }
    }

    /// Records an externally timed duration against a span path — for
    /// regions where an RAII guard cannot live (e.g. around a closure
    /// that needs exclusive access to the structure owning the registry).
    pub fn record_ns(&self, path: &str, d: Duration) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let slot = inner.intern_full(path);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        inner.span_hists[slot].observe(ns);
    }

    /// Records externally measured heap traffic against a span path —
    /// the allocation analogue of [`Registry::record_ns`], for fused
    /// regions that accumulate per-stage deltas manually instead of
    /// opening one guard per stage.
    pub fn record_alloc(&self, path: &str, stats: AllocStats) {
        if !self.enabled || stats.is_zero() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let slot = inner.intern_full(path);
        inner.span_allocs[slot].merge(&stats);
    }

    /// Folds `other` into `self`. Merged data combines regardless of
    /// either registry's enablement (enablement only gates recording).
    pub fn merge(&self, other: Registry) {
        let other = other.inner.into_inner();
        let other_spans = other.spans_by_path();
        let other_allocs = other.span_allocs_by_path();
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
        for (path, hist) in other_spans {
            let slot = inner.intern_full(&path);
            inner.span_hists[slot].merge(&hist);
        }
        for (path, stats) in other_allocs {
            let slot = inner.intern_full(&path);
            inner.span_allocs[slot].merge(&stats);
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

    fn close_span(
        &self,
        depth: usize,
        slot: usize,
        elapsed: Duration,
        alloc_delta: Option<AllocStats>,
    ) {
        let mut inner = self.inner.borrow_mut();
        if let Some(d) = alloc_delta {
            if !d.is_zero() {
                inner.span_allocs[slot].merge(&d);
            }
        }
        // Guards normally drop innermost-first; truncating below this
        // guard's depth also closes any leaked inner spans, and a guard
        // outliving its parent still records under the slot resolved at
        // open time — out-of-order drops cannot corrupt the stack.
        inner.stack.truncate(depth.saturating_sub(1));
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        inner.span_hists[slot].observe(ns);
    }
}

/// RAII guard returned by [`Registry::span`]; records on drop.
pub struct SpanGuard<'a> {
    reg: &'a Registry,
    start: Option<Instant>,
    depth: usize,
    slot: usize,
    /// Thread allocation counters at open time, captured only when the
    /// instrumented allocator was counting; the close charges the delta
    /// to this span's path.
    alloc_start: Option<AllocStats>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            let alloc_delta = self
                .alloc_start
                .map(|s| alloc::thread_snapshot().since(&s));
            self.reg
                .close_span(self.depth, self.slot, elapsed, alloc_delta);
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
        assert_eq!(r.snapshot(), Snapshot::default());
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
    fn span_nesting_builds_paths() {
        let r = Registry::with_enabled(true);
        {
            let _a = r.span("a");
            for _ in 0..3 {
                let _b = r.span("b");
                let _c = r.span("c");
            }
        }
        {
            let _a = r.span("a");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["a"].count(), 2);
        assert_eq!(snap.spans["a/b"].count(), 3);
        assert_eq!(snap.spans["a/b/c"].count(), 3);
        assert!(!snap.spans.contains_key("b"), "nesting must use full paths");
        // Parent wall-clock covers its children.
        assert!(snap.spans["a"].sum() >= snap.spans["a/b"].sum());
        assert!(snap.spans["a/b"].sum() >= snap.spans["a/b/c"].sum());
    }

    #[test]
    fn same_label_under_different_parents_stays_distinct() {
        let r = Registry::with_enabled(true);
        {
            let _a = r.span("a");
            let _w = r.span("work");
        }
        {
            let _b = r.span("b");
            let _w = r.span("work");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["a/work"].count(), 1);
        assert_eq!(snap.spans["b/work"].count(), 1);
        assert!(!snap.spans.contains_key("work"));
    }

    #[test]
    fn record_ns_and_nested_spans_share_one_path() {
        let r = Registry::with_enabled(true);
        r.record_ns("shard", Duration::from_millis(2));
        {
            let _s = r.span("shard");
        }
        let shard = &r.snapshot().spans["shard"];
        assert_eq!(shard.count(), 2);
        assert!(shard.sum() >= 2_000_000);
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
        let specs: [(&[(&str, u64)], &[(&str, u64)]); 3] = [
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
    fn out_of_order_guard_drop_keeps_stack_sane() {
        let r = Registry::with_enabled(true);
        let a = r.span("a");
        let b = r.span("b");
        drop(a); // closes a (and truncates the leaked b)
        drop(b); // still records under the slot resolved at open time
        let snap = r.snapshot();
        assert_eq!(snap.spans["a"].count(), 1);
        assert_eq!(snap.spans["a/b"].count(), 1);
        let _after = r.span("after");
        drop(_after);
        assert!(r.snapshot().spans.contains_key("after"));
    }

    #[test]
    fn span_allocs_attribute_heap_traffic_to_the_open_span() {
        let _g = alloc::test_lock();
        let was = alloc::enabled();
        alloc::set_enabled(true);
        let r = Registry::with_enabled(true);
        {
            let _outer = r.span("outer");
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(8192));
            drop(v);
            {
                let _inner = r.span("leaf");
                let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(2048));
                drop(v);
            }
        }
        alloc::set_enabled(was);
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
        // so reports with IOT_OBS_ALLOC=0 serialize no alloc fields.
        let _g = alloc::test_lock();
        let was = alloc::enabled();
        alloc::set_enabled(false);
        let r = Registry::with_enabled(true);
        {
            let _s = r.span("quiet");
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
            drop(v);
        }
        alloc::set_enabled(was);
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
