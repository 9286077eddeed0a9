#![warn(missing_docs)]

//! Telemetry/observability subsystem for the provenance-compression
//! workspace.
//!
//! Every layer of the system — the network simulator, the declarative
//! networking engine, and the provenance recorders — reports into one
//! shared [`Telemetry`] registry:
//!
//! * **Counters, gauges and histograms**, keyed by `(metric, node)`.
//!   Counters are monotone `u64`s (rules fired, bytes sent, `htequi`
//!   hits); gauges are last-write-wins values (DB rows); histograms
//!   aggregate distributions (per-link queueing delay) into count / sum /
//!   min / max plus power-of-two buckets.
//! * **Time series on the simulated clock** (the [`timeseries`] module):
//!   the engine offers the [`Sampler`] each event's virtual time; each
//!   due tick copies every gauge plus the derived hit ratios into
//!   per-key series that export as JSON-lines `series` records or CSV
//!   (hand-rolled serializer, no serde — the build is dependency-free).
//!   [`Telemetry::snapshot`] reads the whole registry at one instant.
//!
//! The registry is shared as a [`TelemetryHandle`]
//! (`Arc<Telemetry>` over an internal `std::sync::Mutex`), cheap to clone
//! into the simulator, the runtime and the recorders. All time is plain
//! `u64` nanoseconds of simulated time: this crate sits below
//! `dpc-netsim`, so it cannot (and need not) name `SimTime`.
//!
//! On top of the flat metrics sits **causal span tracing** (the [`span`]
//! module): head-sampled trees of timed spans whose [`SpanContext`] rides
//! every simulated message, with critical-path analysis and a Chrome
//! trace-event export ([`chrome`]) loadable in Perfetto.

pub mod chrome;
pub mod json;
pub mod span;
pub mod timeseries;

/// Well-known counter names emitted by the engine's evaluation hot path.
///
/// Counters are dynamically keyed strings; this module pins down the names
/// shared between the emitting side (`dpc-engine`) and the reading side
/// (`dpc-bench` run records, CI assertions) so they cannot drift apart.
pub mod counters {
    /// Join probes served by a secondary `(relation, positions)` hash
    /// index during compiled-plan evaluation.
    pub const INDEX_HITS: &str = "engine.index_hits";
    /// Join probes that fell back to a full table scan (no bound
    /// positions, or a degenerate index).
    pub const INDEX_MISSES: &str = "engine.index_misses";
    /// Rule plans compiled at runtime construction; emitted once when
    /// telemetry attaches.
    pub const PLANS_COMPILED: &str = "engine.plans_compiled";
    /// Static-analysis warnings accepted at runtime construction (the
    /// program built, but `dpc_ndlog::analyze` flagged W-codes); emitted
    /// once when telemetry attaches.
    pub const LINT_WARNINGS: &str = "engine.lint_warnings";
}

pub use chrome::chrome_trace;
pub use json::Json;
pub use span::{
    check_well_formed, critical_path, duration_histograms, spans_by_trace, AttrValue, Breakdown,
    Category, SpanContext, SpanId, SpanRecord, TraceId,
};
pub use timeseries::{Sampler, Series, SeriesStore, DEFAULT_SERIES_CAPACITY};

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A cloneable shared reference to a [`Telemetry`] registry.
pub type TelemetryHandle = Arc<Telemetry>;

/// Aggregated distribution: count/sum/min/max plus power-of-two buckets
/// (bucket `i` counts values `v` with `2^(i-1) <= v < 2^i`; bucket 0
/// counts zeros).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// 65 power-of-two buckets.
    pub buckets: Vec<u64>,
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; 65];
        }
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Metric key: a static metric name plus an optional node scope.
type Key = (&'static str, Option<u32>);

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    hists: BTreeMap<Key, Histogram>,
    /// All recorded spans, open ones with `end_ns == None`.
    spans: Vec<SpanRecord>,
    /// Span id -> index into `spans` (open and closed).
    span_index: HashMap<u64, usize>,
    /// Next span/trace id (ids are nonzero; 0 is `SpanContext::NONE`).
    next_span_id: u64,
    /// Head-based sampling period for root spans: 0 = tracing off,
    /// 1 = every root, N = one in N.
    span_sample_every: u64,
    /// Root spans requested so far (sampled or not), drives sampling.
    span_roots_seen: u64,
    /// Hard cap on stored spans: new *roots* are unsampled once reached
    /// (children of already-sampled traces still record, so no sampled
    /// tree is ever truncated mid-way).
    span_cap: usize,
    /// Time-series sampling state (see [`Telemetry::set_timeseries`]);
    /// `None` until enabled.
    sampler: Option<Sampler>,
}

/// A point-in-time copy of the metrics registry (see
/// [`Telemetry::snapshot`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated time of the snapshot, nanoseconds.
    pub at_nanos: u64,
    /// Counter values.
    pub counters: BTreeMap<(String, Option<u32>), u64>,
    /// Gauge values.
    pub gauges: BTreeMap<(String, Option<u32>), i64>,
    /// Derived ratio gauges computed from the counters at read time
    /// (e.g. `engine.index_hit_ratio`); only present when their
    /// denominators are nonzero.
    pub derived: BTreeMap<String, f64>,
    /// Histogram aggregates.
    pub hists: BTreeMap<(String, Option<u32>), Histogram>,
}

fn render_key(name: &str, node: Option<u32>) -> String {
    match node {
        None => name.to_string(),
        Some(n) => format!("{name}#{n}"),
    }
}

/// The shared metrics registry + span store + time-series sampler.
///
/// Construct one per run, wrap it in a [`TelemetryHandle`] with
/// [`Telemetry::handle`] (or `Arc::new`), and hand clones to the
/// simulator, runtime and recorder.
#[derive(Debug)]
pub struct Telemetry {
    inner: Mutex<Inner>,
    /// Lock-free fast path for [`Telemetry::span_root`]: mirrors
    /// `span_sample_every > 0`. Unsampled contexts make every child-span
    /// call a no-op without consulting the registry at all.
    spans_enabled: AtomicBool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// Default hard cap on stored spans (see `Inner::span_cap`).
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

impl Telemetry {
    /// A registry with span tracing and time-series sampling disabled.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Mutex::new(Inner {
                next_span_id: 1,
                span_cap: DEFAULT_SPAN_CAP,
                ..Inner::default()
            }),
            spans_enabled: AtomicBool::new(false),
        }
    }

    /// A shareable handle to a fresh registry.
    pub fn handle() -> TelemetryHandle {
        Arc::new(Telemetry::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Add `delta` to counter `(name, node)`.
    pub fn count(&self, name: &'static str, node: Option<u32>, delta: u64) {
        let mut g = self.lock();
        *g.counters.entry((name, node)).or_insert(0) += delta;
    }

    /// Set gauge `(name, node)` to `value`.
    pub fn gauge(&self, name: &'static str, node: Option<u32>, value: i64) {
        self.lock().gauges.insert((name, node), value);
    }

    /// Record `value` into histogram `(name, node)`.
    pub fn observe(&self, name: &'static str, node: Option<u32>, value: u64) {
        self.lock()
            .hists
            .entry((name, node))
            .or_default()
            .observe(value);
    }

    /// The current value of counter `name` summed over all node scopes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Per-node values of counter `name` (global entries excluded).
    pub fn counter_by_node(&self, name: &str) -> BTreeMap<u32, u64> {
        self.lock()
            .counters
            .iter()
            .filter_map(|((n, node), v)| (*n == name).then_some((*node, *v)))
            .filter_map(|(node, v)| node.map(|nd| (nd, v)))
            .collect()
    }

    /// Read every counter, gauge, derived ratio and histogram as of
    /// simulated time `at_nanos`. Nothing is retained: trajectories over
    /// time come from the time-series sampler.
    pub fn snapshot(&self, at_nanos: u64) -> Snapshot {
        let g = self.lock();
        Snapshot {
            at_nanos,
            counters: g
                .counters
                .iter()
                .map(|(&(n, nd), &v)| ((n.to_string(), nd), v))
                .collect(),
            gauges: g
                .gauges
                .iter()
                .map(|(&(n, nd), &v)| ((n.to_string(), nd), v))
                .collect(),
            derived: derived_from_counters(&g.counters),
            hists: g
                .hists
                .iter()
                .map(|(&(n, nd), h)| ((n.to_string(), nd), h.clone()))
                .collect(),
        }
    }

    // --- Causal span tracing -------------------------------------------

    /// Enable head-based span sampling: one in `every` root spans is
    /// sampled (1 = all); 0 disables span tracing entirely. The sampling
    /// decision is made once per root and inherited by the whole tree.
    pub fn set_span_sampling(&self, every: u64) {
        let mut g = self.lock();
        g.span_sample_every = every;
        self.spans_enabled.store(every > 0, Ordering::Release);
    }

    /// Start a root span (a new trace). Applies the sampling decision;
    /// an unsampled root returns [`SpanContext::NONE`] and records
    /// nothing. When tracing is disabled this returns on a lock-free
    /// atomic check.
    pub fn span_root(&self, name: &'static str, node: Option<u32>, at_nanos: u64) -> SpanContext {
        if !self.spans_enabled.load(Ordering::Acquire) {
            return SpanContext::NONE;
        }
        let mut g = self.lock();
        if g.span_sample_every == 0 {
            return SpanContext::NONE;
        }
        let seq = g.span_roots_seen;
        g.span_roots_seen += 1;
        if !seq.is_multiple_of(g.span_sample_every) || g.spans.len() >= g.span_cap {
            return SpanContext::NONE;
        }
        let id = g.next_span_id;
        g.next_span_id += 1;
        let ctx = SpanContext {
            trace: TraceId(id),
            span: SpanId(id),
            sampled: true,
        };
        let idx = g.spans.len();
        g.spans.push(SpanRecord {
            trace: ctx.trace,
            id: ctx.span,
            parent: None,
            name,
            node,
            start_ns: at_nanos,
            end_ns: None,
            attrs: Vec::new(),
        });
        g.span_index.insert(id, idx);
        ctx
    }

    /// Start a child span under `parent`. A no-op (returning
    /// [`SpanContext::NONE`]) when the parent is unsampled.
    pub fn span_child(
        &self,
        name: &'static str,
        node: Option<u32>,
        parent: SpanContext,
        at_nanos: u64,
    ) -> SpanContext {
        if !parent.sampled {
            return SpanContext::NONE;
        }
        let mut g = self.lock();
        let id = g.next_span_id;
        g.next_span_id += 1;
        let ctx = SpanContext {
            trace: parent.trace,
            span: SpanId(id),
            sampled: true,
        };
        let idx = g.spans.len();
        g.spans.push(SpanRecord {
            trace: parent.trace,
            id: ctx.span,
            parent: Some(parent.span),
            name,
            node,
            start_ns: at_nanos,
            end_ns: None,
            attrs: Vec::new(),
        });
        g.span_index.insert(id, idx);
        ctx
    }

    /// End span `ctx` at `at_nanos`. No-op on unsampled contexts or
    /// already-ended spans.
    pub fn span_end(&self, ctx: SpanContext, at_nanos: u64) {
        if !ctx.sampled {
            return;
        }
        let mut g = self.lock();
        if let Some(&idx) = g.span_index.get(&ctx.span.0) {
            let s = &mut g.spans[idx];
            if s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// End the (open) root span of `trace` at `at_nanos` — used when the
    /// closer only knows the trace it belongs to, not the root's id
    /// (e.g. the engine closing an execution's root at output
    /// derivation).
    pub fn span_end_root(&self, trace: TraceId, at_nanos: u64) {
        if trace.0 == 0 {
            return;
        }
        let mut g = self.lock();
        // Root spans carry the trace id as their span id by construction.
        if let Some(&idx) = g.span_index.get(&trace.0) {
            let s = &mut g.spans[idx];
            if s.parent.is_none() && s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// Attach a typed attribute to span `ctx` (open or closed).
    pub fn span_attr(&self, ctx: SpanContext, key: &'static str, value: AttrValue) {
        if !ctx.sampled {
            return;
        }
        let mut g = self.lock();
        if let Some(&idx) = g.span_index.get(&ctx.span.0) {
            g.spans[idx].attrs.push((key, value));
        }
    }

    /// Close every still-open span at `at_nanos`. Called when a run
    /// drains: executions killed by message loss can never close their
    /// own roots, and a trace with an open span is not well-formed.
    pub fn close_open_spans(&self, at_nanos: u64) {
        let mut g = self.lock();
        for s in g.spans.iter_mut() {
            if s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// Number of spans still open.
    pub fn open_span_count(&self) -> usize {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.end_ns.is_none())
            .count()
    }

    /// A copy of every recorded span, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    // --- Time-series sampling ------------------------------------------

    /// Enable time-series sampling every `every_nanos` of simulated time
    /// with per-series point capacity `capacity` (see
    /// [`timeseries::Sampler`]). Replaces any existing sampler and its
    /// accumulated series.
    pub fn set_timeseries(&self, every_nanos: u64, capacity: usize) {
        self.lock().sampler = Some(Sampler::new(every_nanos, capacity));
    }

    /// Is time-series sampling enabled?
    pub fn timeseries_enabled(&self) -> bool {
        self.lock().sampler.is_some()
    }

    /// Offer the sampler the current simulated time. If a sampling tick
    /// is due, copies every registry gauge (keyed `name` / `name#node`)
    /// plus the derived ratio gauges into the series store at the aligned
    /// tick timestamp and returns that stamp so callers can record their
    /// own layer-specific series at the same instant. Returns `None` when
    /// sampling is disabled or no tick is due.
    pub fn sample_tick(&self, now_nanos: u64) -> Option<u64> {
        let mut g = self.lock();
        let stamp = g.sampler.as_mut()?.due(now_nanos)?;
        sample_registry(&mut g, stamp);
        Some(stamp)
    }

    /// Sample the registry unconditionally at `now_nanos` (used for the
    /// final drain sample at the end of a run, so the series always end
    /// at the terminal state). Idempotent when it coincides with the last
    /// periodic tick: an equal-timestamp push replaces the last value.
    /// Returns the stamp, or `None` when sampling is disabled.
    pub fn sample_now(&self, now_nanos: u64) -> Option<u64> {
        let mut g = self.lock();
        g.sampler.as_ref()?;
        sample_registry(&mut g, now_nanos);
        Some(now_nanos)
    }

    /// Record one layer-specific sample at `stamp` (no-op when sampling
    /// is disabled). `stamp` should come from [`Telemetry::sample_tick`]
    /// / [`Telemetry::sample_now`] so all series share timestamps.
    pub fn ts_record(&self, stamp: u64, key: &str, value: f64) {
        if let Some(s) = self.lock().sampler.as_mut() {
            s.store_mut().record(key, stamp, value);
        }
    }

    /// Record a batch of layer-specific samples at `stamp` (no-op when
    /// sampling is disabled).
    pub fn ts_record_all(&self, stamp: u64, entries: impl IntoIterator<Item = (String, f64)>) {
        let mut g = self.lock();
        if let Some(s) = g.sampler.as_mut() {
            let store = s.store_mut();
            for (key, value) in entries {
                store.record(&key, stamp, value);
            }
        }
    }

    /// A copy of every recorded series as `(key, points)`, sorted by key.
    pub fn timeseries(&self) -> Vec<(String, Vec<(u64, f64)>)> {
        match self.lock().sampler.as_ref() {
            Some(s) => s
                .store()
                .iter()
                .map(|(k, series)| (k.to_string(), series.points().to_vec()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The points of the series named `key`, if recorded.
    pub fn timeseries_get(&self, key: &str) -> Option<Vec<(u64, f64)>> {
        self.lock()
            .sampler
            .as_ref()?
            .store()
            .get(key)
            .map(|s| s.points().to_vec())
    }

    /// Serialize every series as JSON-lines (see
    /// [`timeseries::SeriesStore::to_json_lines`]); empty when sampling
    /// is disabled.
    pub fn timeseries_json_lines(&self) -> String {
        match self.lock().sampler.as_ref() {
            Some(s) => s.store().to_json_lines(),
            None => String::new(),
        }
    }

    /// Serialize every series as CSV (see
    /// [`timeseries::SeriesStore::to_csv`]); empty when sampling is
    /// disabled.
    pub fn timeseries_csv(&self) -> String {
        match self.lock().sampler.as_ref() {
            Some(s) => s.store().to_csv(),
            None => String::new(),
        }
    }
}

/// Copy every registry gauge plus the derived ratio gauges into the
/// sampler's store at `stamp`. Caller has checked the sampler exists.
fn sample_registry(g: &mut Inner, stamp: u64) {
    let gauges: Vec<(String, f64)> = g
        .gauges
        .iter()
        .map(|(&(n, nd), &v)| (render_key(n, nd), v as f64))
        .collect();
    let derived = derived_from_counters(&g.counters);
    let Some(sampler) = g.sampler.as_mut() else {
        return;
    };
    let store = sampler.store_mut();
    for (key, v) in gauges {
        store.record(&key, stamp, v);
    }
    for (key, v) in derived {
        store.record(&key, stamp, v);
    }
}

/// Ratio gauges derived from raw hit/miss counter pairs, summed over all
/// node scopes. A ratio is present only when its denominator is nonzero,
/// so consumers can distinguish "no index activity" from "0% hits".
fn derived_from_counters(counters: &BTreeMap<Key, u64>) -> BTreeMap<String, f64> {
    let total = |name: &str| -> u64 {
        counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    };
    let mut out = BTreeMap::new();
    let mut ratio = |key: &str, hits_name: &str, misses_name: &str| {
        let hits = total(hits_name);
        let misses = total(misses_name);
        if hits + misses > 0 {
            out.insert(key.to_string(), hits as f64 / (hits + misses) as f64);
        }
    };
    ratio(
        "engine.index_hit_ratio",
        counters::INDEX_HITS,
        counters::INDEX_MISSES,
    );
    ratio(
        "recorder.htequi_hit_rate",
        "recorder.htequi_hits",
        "recorder.htequi_misses",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_key() {
        let t = Telemetry::new();
        t.count("rules", None, 2);
        t.count("rules", None, 3);
        t.count("rules", Some(1), 7);
        assert_eq!(t.counter_total("rules"), 12);
        assert_eq!(t.counter_by_node("rules").get(&1), Some(&7));
        assert!(!t.counter_by_node("rules").contains_key(&0));
    }

    #[test]
    fn histogram_aggregates() {
        let t = Telemetry::new();
        for v in [0u64, 1, 2, 3, 1000] {
            t.observe("delay", None, v);
        }
        let snap = t.snapshot(5);
        let h = &snap.hists[&("delay".to_string(), None)];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 512 <= 1000 < 1024
    }

    #[test]
    fn derived_index_hit_ratio() {
        let t = Telemetry::new();
        t.set_timeseries(1000, 64);
        // No index activity: ratio absent, not 0/0.
        assert!(t.snapshot(1).derived.is_empty());
        assert_eq!(t.sample_tick(1000), Some(1000));
        assert_eq!(t.timeseries_get("engine.index_hit_ratio"), None);
        t.count(counters::INDEX_HITS, Some(0), 3);
        t.count(counters::INDEX_HITS, Some(1), 3);
        t.count(counters::INDEX_MISSES, Some(0), 2);
        let ratio = t.snapshot(2000).derived["engine.index_hit_ratio"];
        assert!((ratio - 0.75).abs() < 1e-12, "got {ratio}");
        // The sampler records the same ratio.
        assert_eq!(t.sample_tick(2000), Some(2000));
        assert_eq!(
            t.timeseries_get("engine.index_hit_ratio").unwrap(),
            vec![(2000, 0.75)]
        );
    }

    #[test]
    fn sampler_copies_gauges_and_derived_on_tick() {
        let t = Telemetry::new();
        t.set_timeseries(1000, 64);
        t.gauge("engine.db_rows", Some(3), 7);
        t.count(counters::INDEX_HITS, None, 1);
        t.count(counters::INDEX_MISSES, None, 1);
        assert_eq!(t.sample_tick(999), None, "not due yet");
        assert_eq!(t.sample_tick(1234), Some(1000), "aligned stamp");
        t.ts_record(1000, "net.heap_depth", 5.0);
        t.gauge("engine.db_rows", Some(3), 9);
        assert_eq!(t.sample_tick(2000), Some(2000));
        assert_eq!(
            t.timeseries_get("engine.db_rows#3").unwrap(),
            vec![(1000, 7.0), (2000, 9.0)]
        );
        assert_eq!(
            t.timeseries_get("engine.index_hit_ratio").unwrap(),
            vec![(1000, 0.5), (2000, 0.5)]
        );
        assert_eq!(
            t.timeseries_get("net.heap_depth").unwrap(),
            vec![(1000, 5.0)]
        );
    }

    #[test]
    fn sample_now_is_idempotent_on_tick_boundary() {
        let t = Telemetry::new();
        t.set_timeseries(1000, 64);
        t.gauge("g", None, 1);
        assert_eq!(t.sample_tick(1000), Some(1000));
        t.gauge("g", None, 2);
        // A forced final sample at the same virtual instant replaces the
        // tick's value rather than duplicating the timestamp.
        assert_eq!(t.sample_now(1000), Some(1000));
        assert_eq!(t.timeseries_get("g").unwrap(), vec![(1000, 2.0)]);
    }

    #[test]
    fn timeseries_disabled_is_inert() {
        let t = Telemetry::new();
        assert!(!t.timeseries_enabled());
        t.gauge("g", None, 1);
        assert_eq!(t.sample_tick(5000), None);
        assert_eq!(t.sample_now(5000), None);
        t.ts_record(5000, "k", 1.0);
        t.ts_record_all(5000, [("k2".to_string(), 2.0)]);
        assert!(t.timeseries().is_empty());
        assert_eq!(t.timeseries_json_lines(), "");
        assert_eq!(t.timeseries_csv(), "");
    }

    #[test]
    fn spans_disabled_by_default() {
        let t = Telemetry::new();
        let ctx = t.span_root("exec", Some(0), 10);
        assert!(!ctx.sampled);
        assert_eq!(ctx, SpanContext::NONE);
        assert!(t.spans().is_empty());
        // Child calls off an unsampled context record nothing either.
        let c = t.span_child("net.hop", Some(0), ctx, 20);
        t.span_end(c, 30);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_tree_records_and_closes() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", Some(0), 100);
        assert!(root.sampled);
        let child = t.span_child("net.hop", Some(1), root, 150);
        t.span_attr(child, "link", AttrValue::Str("0->1".into()));
        t.span_end(child, 250);
        t.span_end_root(root.trace, 300);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "exec");
        assert_eq!(spans[0].end_ns, Some(300));
        assert_eq!(spans[1].parent, Some(root.span));
        assert_eq!(spans[1].end_ns, Some(250));
        assert_eq!(spans[1].attr("link"), Some(&AttrValue::Str("0->1".into())));
        let groups = spans_by_trace(&spans);
        assert_eq!(groups.len(), 1);
        assert!(check_well_formed(&groups[&root.trace]).is_ok());
    }

    #[test]
    fn head_sampling_takes_one_in_n() {
        let t = Telemetry::new();
        t.set_span_sampling(4);
        let sampled: Vec<bool> = (0..8)
            .map(|i| t.span_root("exec", None, i).sampled)
            .collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 2);
        assert!(sampled[0] && sampled[4]);
    }

    #[test]
    fn close_open_spans_closes_everything() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", None, 0);
        let _child = t.span_child("net.hop", None, root, 10);
        assert_eq!(t.open_span_count(), 2);
        t.close_open_spans(99);
        assert_eq!(t.open_span_count(), 0);
        assert!(t.spans().iter().all(|s| s.end_ns == Some(99)));
    }

    #[test]
    fn span_end_never_precedes_start() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", None, 50);
        t.span_end(root, 10); // clock confusion: clamp, don't invert
        assert_eq!(t.spans()[0].end_ns, Some(50));
    }
}
