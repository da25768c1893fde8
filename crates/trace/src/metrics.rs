//! The metrics registry: named counters, max-gauges, and histograms.
//!
//! Naming convention (see DESIGN.md §9): dotted lowercase paths whose
//! *prefix* is the subsystem and whose *last* segment is the instance,
//! e.g. `engine.queries`, `engine.phase_us.execute`,
//! `source.calls.billing`, `view.cost_us.hot_leads`. Putting the
//! variable part last lets consumers strip a constant prefix instead of
//! parsing.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The metric `name` in `map`, made by `make` on first use. A name that
/// is there already is found by lookup: no key is allocated for it.
fn handle<T>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    let mut map = map.lock();
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    let made = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&made));
    made
}

/// A process-wide or per-subsystem collection of named metrics.
///
/// Handles returned by [`MetricsRegistry::counter`] and
/// [`MetricsRegistry::histogram`] are `Arc`s: hot paths should look a
/// metric up once and keep the handle.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-global registry (for code without an engine handle,
    /// e.g. the cleaning pipeline's exception counters).
    pub fn global() -> Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())))
    }

    /// Handle to a monotonic counter, created on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        handle(&self.counters, name, || AtomicU64::new(0))
    }

    /// Increment a counter by `n`.
    pub fn incr(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Handle to a max-gauge, created on first use. Hot paths (e.g.
    /// the simulated-link publisher) look the gauge up once and
    /// `fetch_max` on the handle.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        handle(&self.gauges, name, || AtomicU64::new(0))
    }

    /// Raise a max-gauge to at least `v` (e.g. high-water marks, sizes).
    pub fn gauge_max(&self, name: &str, v: u64) {
        self.gauge(name).fetch_max(v, Ordering::Relaxed);
    }

    /// Handle to a histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        handle(&self.histograms, name, Histogram::new)
    }

    /// Record one observation into a histogram by name.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// An immutable, diffable, mergeable copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self.gauges.lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self.histograms.lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drop every metric whose name starts with `prefix` (a fresh
    /// observation window for one subsystem). Existing handles keep
    /// working but are detached from the registry.
    pub fn remove_prefix(&self, prefix: &str) {
        self.counters.lock().retain(|k, _| !k.starts_with(prefix));
        self.gauges.lock().retain(|k, _| !k.starts_with(prefix));
        self.histograms.lock().retain(|k, _| !k.starts_with(prefix));
    }
}

/// Point-in-time copy of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// What happened between `earlier` and `self`: counters and
    /// histogram buckets subtract; gauges keep their later value.
    /// Metrics absent from `earlier` appear whole.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let empty_hist = HistogramSnapshot::default();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counter(k)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let base = earlier.histograms.get(k).unwrap_or(&empty_hist);
                    (k.clone(), v.diff(base))
                })
                .collect(),
        }
    }

    /// Fold another instance's snapshot in: counters and histograms add,
    /// gauges take the max (cluster-wide aggregation).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Aligned text rendering (the management console embeds this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<44}{:>12}", "counter", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{:<44}{:>12}", k, v);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<44}{:>12}", "gauge", "value");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "{:<44}{:>12}", k, v);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<44}{:>8}{:>12}{:>10}{:>10}{:>10}{:>10}",
                "histogram", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<44}{:>8}{:>12.1}{:>10}{:>10}{:>10}{:>10}",
                    k,
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.incr("engine.queries", 1);
        r.incr("engine.queries", 2);
        r.gauge_max("view.size_nodes.v1", 10);
        r.gauge_max("view.size_nodes.v1", 7);
        let s = r.snapshot();
        assert_eq!(s.counter("engine.queries"), 3);
        assert_eq!(s.gauge("view.size_nodes.v1"), 10);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn snapshot_diff_windows() {
        let r = MetricsRegistry::new();
        r.incr("c", 5);
        r.observe("h", 100);
        let before = r.snapshot();
        r.incr("c", 2);
        r.incr("new", 1);
        r.observe("h", 300);
        let window = r.snapshot().diff(&before);
        assert_eq!(window.counter("c"), 2);
        assert_eq!(window.counter("new"), 1);
        let h = &window.histograms["h"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 300);
    }

    #[test]
    fn snapshot_merge_aggregates_instances() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.incr("engine.queries", 3);
        b.incr("engine.queries", 4);
        b.incr("engine.query.error", 1);
        a.gauge_max("g", 5);
        b.gauge_max("g", 9);
        a.observe("lat", 10);
        b.observe("lat", 20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("engine.queries"), 7);
        assert_eq!(m.counter("engine.query.error"), 1);
        assert_eq!(m.gauge("g"), 9);
        assert_eq!(m.histograms["lat"].count, 2);
        assert_eq!(m.histograms["lat"].sum, 30);
    }

    #[test]
    fn remove_prefix_opens_fresh_window() {
        let r = MetricsRegistry::new();
        r.incr("view.queries.v1", 2);
        r.incr("engine.queries", 1);
        r.observe("view.cost_us.v1", 50);
        r.remove_prefix("view.");
        let s = r.snapshot();
        assert_eq!(s.counter("view.queries.v1"), 0);
        assert!(!s.histograms.contains_key("view.cost_us.v1"));
        assert_eq!(s.counter("engine.queries"), 1);
    }

    #[test]
    fn global_is_shared() {
        let a = MetricsRegistry::global();
        let b = MetricsRegistry::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn render_mentions_every_metric() {
        let r = MetricsRegistry::new();
        r.incr("c1", 1);
        r.gauge_max("g1", 2);
        r.observe("h1", 3);
        let text = r.snapshot().render();
        assert!(text.contains("c1") && text.contains("g1") && text.contains("h1"));
    }
}
