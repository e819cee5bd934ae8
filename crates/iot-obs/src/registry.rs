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
//! short linear scan, and closing records into `stats[slot]` — after the
//! first occurrence of a path, the hot path allocates nothing and never
//! compares full path strings. This keeps per-experiment instrumentation
//! overhead in the low microseconds (gated <5% end to end by
//! `obs_check`).
//!
//! Each enabled registry also owns a fixed-capacity
//! [`EventRing`](crate::events::EventRing): span opens/closes and
//! counter increments additionally append timestamped events, and
//! [`Registry::merge`] folds the shards' rings into a single global
//! [`Timeline`] retrievable via [`Registry::timeline`]. Span durations
//! are recorded into per-path [`Histogram`]s alongside the aggregate
//! [`SpanStats`], so reports can derive p50/p95 from exactly the same
//! bucket bounds the Prometheus exporter emits.

use crate::alloc::{self, AllocStats};
use crate::events::{Event, EventKind, EventRing, Timeline};
use crate::metrics::Histogram;
use crate::span::SpanStats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn intern_label(labels: &mut Vec<String>, label: &str) -> u32 {
    if let Some(i) = labels.iter().position(|l| l == label) {
        return i as u32;
    }
    labels.push(label.to_string());
    (labels.len() - 1) as u32
}

struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Interned span arena: full path, aggregate stats, and duration
    /// histogram per slot.
    span_paths: Vec<String>,
    span_stats: Vec<SpanStats>,
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
    /// Lazily resolved global profiler-arena id per slot (`u32::MAX`
    /// until first published). Purely a cache for the sampling
    /// profiler's publication path; never merged, never serialized.
    profile_ids: Vec<u32>,
    /// Flight recorder (None when events are disabled).
    events: Option<EventRing>,
    /// Events folded in from merged shard registries, indices into
    /// `merged_labels`.
    merged_events: Vec<Event>,
    merged_labels: Vec<String>,
    merged_overwritten: u64,
}

impl Inner {
    fn new(events: Option<EventRing>) -> Self {
        Inner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_paths: Vec::new(),
            span_stats: Vec::new(),
            span_hists: Vec::new(),
            span_allocs: Vec::new(),
            children: vec![Vec::new()],
            stack: Vec::new(),
            profile_ids: Vec::new(),
            events,
            merged_events: Vec::new(),
            merged_labels: Vec::new(),
            merged_overwritten: 0,
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
        self.span_stats.push(SpanStats::default());
        self.span_hists.push(Histogram::default());
        self.span_allocs.push(AllocStats::default());
        self.profile_ids.push(u32::MAX);
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
        self.span_stats.push(SpanStats::default());
        self.span_hists.push(Histogram::default());
        self.span_allocs.push(AllocStats::default());
        self.profile_ids.push(u32::MAX);
        self.children.push(Vec::new());
        self.children[0].push((path.to_string(), slot));
        slot
    }

    /// Resolves a slot's global profiler-arena id, interning the full
    /// path on first publication. Span paths are hierarchical, so the
    /// leaf id alone reconstructs the whole stack at fold time.
    fn profile_id(&mut self, slot: usize) -> u32 {
        let cached = self.profile_ids[slot];
        if cached != u32::MAX {
            return cached;
        }
        let id = crate::profile::intern_path(&self.span_paths[slot]);
        self.profile_ids[slot] = id;
        id
    }

    /// Aggregated spans keyed by full path. Duplicate slots for one path
    /// can exist (a path may be interned both via nesting and via
    /// `intern_full`); aggregation folds them.
    fn spans_by_path(&self) -> BTreeMap<String, SpanStats> {
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        for (p, s) in self.span_paths.iter().zip(&self.span_stats) {
            match spans.get_mut(p) {
                Some(e) => e.merge(s),
                None => {
                    spans.insert(p.clone(), *s);
                }
            }
        }
        spans
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

    /// Aggregated span-duration histograms keyed by full path.
    fn span_hists_by_path(&self) -> BTreeMap<String, Histogram> {
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

    /// Folds `(labels, events)` into the merged-event store, remapping
    /// label indices into `merged_labels`.
    fn fold_events(&mut self, labels: &[String], events: Vec<Event>, overwritten: u64) {
        if events.is_empty() && overwritten == 0 {
            return;
        }
        let remap: Vec<u32> = labels
            .iter()
            .map(|l| intern_label(&mut self.merged_labels, l))
            .collect();
        self.merged_events.extend(events.into_iter().map(|mut e| {
            e.label = remap[e.label as usize];
            e
        }));
        self.merged_overwritten += overwritten;
    }
}

/// A shard-local collection of counters, gauges, histograms, spans, and
/// flight-recorder events.
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
    /// benchmark, which measures both modes inside one process. The
    /// event-ring capacity still follows `IOT_OBS_EVENTS`.
    pub fn with_enabled(enabled: bool) -> Self {
        Self::with_event_capacity(enabled, crate::config::global().event_capacity)
    }

    /// Creates a registry with both recording and the flight-recorder
    /// ring capacity forced (0 disables events while keeping aggregate
    /// metrics).
    pub fn with_event_capacity(enabled: bool, event_capacity: usize) -> Self {
        let events = (enabled && event_capacity > 0)
            .then(|| EventRing::with_capacity(event_capacity));
        Registry {
            enabled,
            inner: RefCell::new(Inner::new(events)),
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether this registry records flight-recorder events.
    pub fn events_enabled(&self) -> bool {
        self.enabled && self.inner.borrow().events.is_some()
    }

    /// Sets the worker track stamped on this registry's events (0 =
    /// driver; shard workers use 1..).
    pub fn set_worker(&self, worker: u32) {
        if let Some(ring) = self.inner.borrow_mut().events.as_mut() {
            ring.set_worker(worker);
        }
    }

    /// Enters a deterministic event stream (see `crate::events`); all
    /// events until [`Registry::end_stream`] carry `stream` and a
    /// logical per-stream sequence number.
    pub fn begin_stream(&self, stream: u64) {
        if let Some(ring) = self.inner.borrow_mut().events.as_mut() {
            ring.begin_stream(stream);
        }
    }

    /// Leaves the current event stream.
    pub fn end_stream(&self) {
        if let Some(ring) = self.inner.borrow_mut().events.as_mut() {
            ring.end_stream();
        }
    }

    /// Records an instantaneous mark event (e.g. `quarantine`).
    pub fn mark(&self, label: &str) {
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.inner.borrow_mut().events.as_mut() {
            ring.record(EventKind::Mark, label, 0);
        }
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let Inner {
            counters, events, ..
        } = &mut *inner;
        match counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
        if let Some(ring) = events.as_mut() {
            ring.record(EventKind::Counter, name, delta);
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
    /// on this registry. The returned guard records wall-clock and call
    /// count into the `parent/…/label` path when it drops.
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
        // Publish the new innermost span to this thread's sampler slot:
        // a cached-id lookup plus a couple of relaxed stores (no-op when
        // the sampler is off or the thread never registered).
        if crate::profile::enabled() {
            let id = inner.profile_id(slot);
            crate::profile::publish(id);
        }
        let Inner {
            span_paths, events, ..
        } = &mut *inner;
        // One clock read serves both the aggregate timer and the begin
        // event's timestamp.
        let start = Instant::now();
        if let Some(ring) = events.as_mut() {
            ring.record_at(
                crate::events::ts_ns_at(start),
                EventKind::SpanBegin,
                &span_paths[slot],
                0,
            );
        }
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
    /// No flight-recorder events are emitted: the region's begin time is
    /// unknown by construction.
    pub fn record_ns(&self, path: &str, d: Duration) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let slot = inner.intern_full(path);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        inner.span_stats[slot].record(ns);
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

    /// Emits a counter-sample flight-recorder event *without* touching
    /// the counters map — for run-dependent quantities (live heap
    /// bytes) that belong on a Chrome-trace counter track but must stay
    /// out of the deterministic counter subset. Callers only sample at
    /// stream-free boundaries (shard start/end, fold points), so the
    /// deterministic trace view — stream events only — never sees one.
    pub fn counter_sample(&self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.inner.borrow_mut().events.as_mut() {
            ring.record(EventKind::Counter, name, value);
        }
    }

    /// Folds `other` into `self`. Merged data combines regardless of
    /// either registry's enablement (enablement only gates recording).
    pub fn merge(&self, other: Registry) {
        let mut other = other.inner.into_inner();
        let other_spans = other.spans_by_path();
        let other_hists = other.span_hists_by_path();
        let other_allocs = other.span_allocs_by_path();
        let other_ring = other.events.take().map(EventRing::into_parts);
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
        for (path, stats) in other_spans {
            let slot = inner.intern_full(&path);
            inner.span_stats[slot].merge(&stats);
        }
        for (path, hist) in other_hists {
            let slot = inner.intern_full(&path);
            inner.span_hists[slot].merge(&hist);
        }
        for (path, stats) in other_allocs {
            let slot = inner.intern_full(&path);
            inner.span_allocs[slot].merge(&stats);
        }
        // Fold the shard's ring (and anything it had itself merged) into
        // the unbounded merged-event store; the global timeline is the
        // union of every worker's surviving window.
        if let Some((labels, events, overwritten)) = other_ring {
            inner.fold_events(&labels, events, overwritten);
        }
        let merged_labels = std::mem::take(&mut other.merged_labels);
        let merged_events = std::mem::take(&mut other.merged_events);
        inner.fold_events(&merged_labels, merged_events, other.merged_overwritten);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Aggregate stats of a span path.
    pub fn span_stats(&self, path: &str) -> Option<SpanStats> {
        let inner = self.inner.borrow();
        let mut acc: Option<SpanStats> = None;
        for (p, s) in inner.span_paths.iter().zip(&inner.span_stats) {
            if p == path {
                match &mut acc {
                    Some(a) => a.merge(s),
                    None => acc = Some(*s),
                }
            }
        }
        acc
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans_by_path(),
            span_durations: inner.span_hists_by_path(),
            span_allocs: inner.span_allocs_by_path(),
        }
    }

    /// The global event timeline: this registry's own ring plus every
    /// ring folded in through [`Registry::merge`], label-resolved and
    /// sorted by `(timestamp, worker, seq)`.
    pub fn timeline(&self) -> Timeline {
        let inner = self.inner.borrow();
        let mut labels = inner.merged_labels.clone();
        let mut events = inner.merged_events.clone();
        let mut overwritten = inner.merged_overwritten;
        if let Some(ring) = inner.events.as_ref() {
            let (own_labels, own_events, own_overwritten) = ring.parts();
            let remap: Vec<u32> = own_labels
                .iter()
                .map(|l| intern_label(&mut labels, l))
                .collect();
            events.extend(own_events.into_iter().map(|mut e| {
                e.label = remap[e.label as usize];
                e
            }));
            overwritten += own_overwritten;
        }
        Timeline::new(labels, events, overwritten)
    }

    fn close_span(
        &self,
        depth: usize,
        slot: usize,
        start: Instant,
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
        // Re-publish the span we fell back to (or idle at the root) so
        // the sampler never attributes time to a closed span.
        if crate::profile::enabled() {
            match inner.stack.last().copied() {
                Some(top) => {
                    let id = inner.profile_id(top);
                    crate::profile::publish(id);
                }
                None => crate::profile::publish_idle(),
            }
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        inner.span_stats[slot].record(ns);
        inner.span_hists[slot].observe(ns);
        let Inner {
            span_paths, events, ..
        } = &mut *inner;
        if let Some(ring) = events.as_mut() {
            // End timestamp derived from begin + elapsed: closing a span
            // costs no additional clock read.
            let end_ts = crate::events::ts_ns_at(start).saturating_add(ns);
            ring.record_at(end_ts, EventKind::SpanEnd, &span_paths[slot], 0);
        }
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
                .close_span(self.depth, self.slot, start, elapsed, alloc_delta);
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
    /// Aggregated spans keyed by `parent/…/label` path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per-path span duration histograms (nanoseconds), sharing bucket
    /// bounds with every other [`Histogram`] so table quantiles and the
    /// Prometheus exposition can never disagree.
    pub span_durations: BTreeMap<String, Histogram>,
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
        r.mark("m");
        assert_eq!(r.snapshot(), Snapshot::default());
        assert!(r.timeline().events.is_empty());
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
        assert_eq!(snap.spans["a"].calls, 2);
        assert_eq!(snap.spans["a/b"].calls, 3);
        assert_eq!(snap.spans["a/b/c"].calls, 3);
        assert!(!snap.spans.contains_key("b"), "nesting must use full paths");
        // Parent wall-clock covers its children.
        assert!(snap.spans["a"].total_ns >= snap.spans["a/b"].total_ns);
        assert!(snap.spans["a/b"].total_ns >= snap.spans["a/b/c"].total_ns);
        // Duration histograms track the same paths and call counts.
        assert_eq!(snap.span_durations["a"].count(), 2);
        assert_eq!(snap.span_durations["a/b"].count(), 3);
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
        assert_eq!(snap.spans["a/work"].calls, 1);
        assert_eq!(snap.spans["b/work"].calls, 1);
        assert!(!snap.spans.contains_key("work"));
    }

    #[test]
    fn record_ns_and_nested_spans_share_one_path() {
        let r = Registry::with_enabled(true);
        r.record_ns("shard", Duration::from_millis(2));
        {
            let _s = r.span("shard");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["shard"].calls, 2);
        assert_eq!(snap.span_durations["shard"].count(), 2);
        assert_eq!(r.span_stats("shard").unwrap().calls, 2);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let build = |counts: &[(&str, u64)], span_ns: &[(&str, u64)]| {
            // Event capacity 0: wall-clock event timestamps are
            // run-dependent, so only the aggregate sections take part in
            // the snapshot-equality check.
            let r = Registry::with_event_capacity(true, 0);
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
        assert_eq!(left.snapshot().spans["s"].calls, 2);
        assert_eq!(left.snapshot().span_durations["s"].count(), 2);
    }

    #[test]
    fn out_of_order_guard_drop_keeps_stack_sane() {
        let r = Registry::with_enabled(true);
        let a = r.span("a");
        let b = r.span("b");
        drop(a); // closes a (and truncates the leaked b)
        drop(b); // still records under the slot resolved at open time
        let snap = r.snapshot();
        assert_eq!(snap.spans["a"].calls, 1);
        assert_eq!(snap.spans["a/b"].calls, 1);
        let _after = r.span("after");
        drop(_after);
        assert!(r.snapshot().spans.contains_key("after"));
    }

    #[test]
    fn spans_and_counters_emit_events() {
        let r = Registry::with_event_capacity(true, 64);
        assert!(r.events_enabled());
        r.set_worker(3);
        r.begin_stream(77);
        {
            let _s = r.span("work");
            r.add("n", 5);
        }
        r.end_stream();
        r.mark("done");
        let t = r.timeline();
        let kinds: Vec<(EventKind, &str)> = t
            .events
            .iter()
            .map(|e| (e.kind, t.label(e)))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::SpanBegin, "work"),
                (EventKind::Counter, "n"),
                (EventKind::SpanEnd, "work"),
                (EventKind::Mark, "done"),
            ]
        );
        assert!(t.events.iter().all(|e| e.worker == 3));
        assert_eq!(t.events[0].stream, 77);
        assert_eq!(t.events[3].stream, 0, "mark is outside the stream");
    }

    #[test]
    fn merge_folds_event_rings_into_one_timeline() {
        let target = Registry::with_event_capacity(true, 16);
        target.set_worker(0);
        target.mark("driver");
        for w in 1..=2u32 {
            let shard = Registry::with_event_capacity(true, 16);
            shard.set_worker(w);
            shard.begin_stream(u64::from(w) * 100);
            let _s = shard.span("ingest");
            drop(_s);
            shard.end_stream();
            target.merge(shard);
        }
        let t = target.timeline();
        assert_eq!(t.events.len(), 5, "1 driver mark + 2×(begin+end)");
        let workers: std::collections::BTreeSet<u32> =
            t.events.iter().map(|e| e.worker).collect();
        assert_eq!(workers.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Chained merges preserve already-folded events.
        let outer = Registry::with_event_capacity(true, 16);
        outer.merge(target);
        assert_eq!(outer.timeline().events.len(), 5);
    }

    #[test]
    fn span_allocs_attribute_heap_traffic_to_the_open_span() {
        let _g = alloc::test_lock();
        let was = alloc::enabled();
        alloc::set_enabled(true);
        let r = Registry::with_event_capacity(true, 0);
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
        let r = Registry::with_event_capacity(true, 0);
        {
            let _s = r.span("quiet");
            let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
            drop(v);
        }
        alloc::set_enabled(was);
        let snap = r.snapshot();
        assert_eq!(snap.spans["quiet"].calls, 1);
        assert!(snap.span_allocs.is_empty());
    }

    #[test]
    fn record_alloc_merges_by_path_like_record_ns() {
        let a = Registry::with_event_capacity(true, 0);
        let b = Registry::with_event_capacity(true, 0);
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

    #[test]
    fn counter_sample_emits_event_without_counter() {
        let r = Registry::with_event_capacity(true, 16);
        r.counter_sample("alloc.live_bytes", 12345);
        assert_eq!(r.counter("alloc.live_bytes"), 0);
        assert!(!r.snapshot().counters.contains_key("alloc.live_bytes"));
        let t = r.timeline();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].kind, EventKind::Counter);
        assert_eq!(t.events[0].delta, 12345);
        assert_eq!(t.events[0].stream, 0, "samples live outside streams");
        // With events disabled it is a complete no-op.
        let quiet = Registry::with_event_capacity(true, 0);
        quiet.counter_sample("alloc.live_bytes", 1);
        assert!(quiet.timeline().events.is_empty());
    }

    #[test]
    fn event_capacity_zero_disables_events_only() {
        let r = Registry::with_event_capacity(true, 0);
        assert!(!r.events_enabled());
        r.add("c", 1);
        {
            let _s = r.span("a");
        }
        assert!(r.timeline().events.is_empty());
        assert_eq!(r.counter("c"), 1);
        assert_eq!(r.snapshot().spans["a"].calls, 1);
    }
}
