//! Availability and latency simulation.
//!
//! The paper's §3.4: "they may be offline, or network connectivity may not
//! be available … In the worst case, there may be so many data sources
//! that the probability that they are all available simultaneously is
//! nearly zero." [`SimulatedLink`] wraps any adapter and injects exactly
//! those conditions — deterministically (seeded), so experiments E1/E3
//! are repeatable, and with optional *real* sleeping so latency sweeps
//! measure true wall-clock effects.

use crate::error::SourceError;
use crate::query::{CollectionInfo, SourceQuery};
use crate::{Capabilities, SourceAdapter, SourceKind};
use nimble_trace::rng::Rng;
use nimble_trace::sync::Mutex;
use nimble_trace::{MetricsRegistry, QueryCtx, SourceCall};
use nimble_xml::Document;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Link configuration. All fields can be changed at run time through the
/// [`SimulatedLink`] handles.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Round-trip latency added to every call, in milliseconds.
    pub latency_ms: u64,
    /// Probability each call fails transiently even when the source is
    /// "up" (a flaky network), in [0, 1].
    pub fail_probability: f64,
    /// When false, latency is only *accounted* (for fast deterministic
    /// tests); when true the calling thread actually sleeps (for
    /// wall-clock benchmarks).
    pub real_sleep: bool,
    /// RNG seed for the failure coin flips.
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency_ms: 0,
            fail_probability: 0.0,
            real_sleep: false,
            seed: 7,
        }
    }
}

/// Per-link observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Calls attempted (execute + fetch).
    pub calls: u64,
    /// Calls refused because the source was down or the coin flip failed.
    pub failures: u64,
    /// Total latency charged, in milliseconds (whether or not slept).
    pub charged_latency_ms: u64,
}

/// An adapter wrapped with a simulated (un)reliable link.
pub struct SimulatedLink {
    inner: Arc<dyn SourceAdapter>,
    up: AtomicBool,
    latency_ms: AtomicU64,
    /// fail probability ×1e6, stored atomically.
    fail_ppm: AtomicU64,
    real_sleep: AtomicBool,
    rng: Mutex<Rng>,
    calls: AtomicU64,
    failures: AtomicU64,
    charged_latency_ms: AtomicU64,
    /// Handles into [`MetricsRegistry::global`], cached at construction
    /// so the hot gate path never does a name lookup. The counters are
    /// monotone, so `fetch_max` mirrors them correctly as gauges.
    gauge_calls: Arc<AtomicU64>,
    gauge_failures: Arc<AtomicU64>,
    gauge_charged: Arc<AtomicU64>,
}

impl SimulatedLink {
    pub fn new(inner: Arc<dyn SourceAdapter>, config: LinkConfig) -> Arc<SimulatedLink> {
        let global = MetricsRegistry::global();
        let name = inner.name().to_string();
        Arc::new(SimulatedLink {
            up: AtomicBool::new(true),
            latency_ms: AtomicU64::new(config.latency_ms),
            fail_ppm: AtomicU64::new((config.fail_probability * 1e6) as u64),
            real_sleep: AtomicBool::new(config.real_sleep),
            rng: Mutex::new(Rng::new(config.seed)),
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            charged_latency_ms: AtomicU64::new(0),
            gauge_calls: global.gauge(&format!("link.calls.{}", name)),
            gauge_failures: global.gauge(&format!("link.failures.{}", name)),
            gauge_charged: global.gauge(&format!("link.charged_latency_ms.{}", name)),
            inner,
        })
    }

    /// Take the source offline / bring it back.
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::SeqCst);
    }

    /// True when the simulated source is online.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Change the added latency.
    pub fn set_latency_ms(&self, ms: u64) {
        self.latency_ms.store(ms, Ordering::SeqCst);
    }

    /// Change the per-call transient failure probability.
    pub fn set_fail_probability(&self, p: f64) {
        self.fail_ppm
            .store((p.clamp(0.0, 1.0) * 1e6) as u64, Ordering::SeqCst);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            calls: self.calls.load(Ordering::SeqCst),
            failures: self.failures.load(Ordering::SeqCst),
            charged_latency_ms: self.charged_latency_ms.load(Ordering::SeqCst),
        }
    }

    /// Mirror the current counters into `registry` as `link.*` gauges
    /// (the gate keeps [`MetricsRegistry::global`] current on its own;
    /// this surfaces the same numbers into an engine-local registry so
    /// one Prometheus scrape covers engine and link health together).
    pub fn publish_stats(&self, registry: &MetricsRegistry) {
        let name = self.inner.name();
        let stats = self.stats();
        registry.gauge_max(&format!("link.calls.{}", name), stats.calls);
        registry.gauge_max(&format!("link.failures.{}", name), stats.failures);
        registry.gauge_max(
            &format!("link.charged_latency_ms.{}", name),
            stats.charged_latency_ms,
        );
    }

    /// Record a refused call against the current query context, so the
    /// failure shows up in that query's flight record with the link's
    /// charged latency. (Successful calls are recorded by the caller,
    /// which also knows the decoded row count.)
    fn note_refusal(&self, charged_ms: u64, reason: &str) {
        if let Some(qctx) = QueryCtx::current() {
            qctx.record_source_call(SourceCall {
                source: self.inner.name().to_string(),
                kind: "link".to_string(),
                ok: false,
                latency_ms: charged_ms as f64,
                rows: 0,
                error: Some(reason.to_string()),
            });
        }
    }

    /// Gate every call: count it, charge latency, and decide failure.
    fn gate(&self) -> Result<(), SourceError> {
        let calls = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        self.gauge_calls.fetch_max(calls, Ordering::Relaxed);
        let ms = self.latency_ms.load(Ordering::SeqCst);
        let charged = self.charged_latency_ms.fetch_add(ms, Ordering::SeqCst) + ms;
        self.gauge_charged.fetch_max(charged, Ordering::Relaxed);
        if ms > 0 && self.real_sleep.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if !self.up.load(Ordering::SeqCst) {
            let failures = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
            self.gauge_failures.fetch_max(failures, Ordering::Relaxed);
            self.note_refusal(ms, "source is offline");
            return Err(SourceError::unavailable(
                self.inner.name(),
                "source is offline",
            ));
        }
        let ppm = self.fail_ppm.load(Ordering::SeqCst);
        if ppm > 0 {
            let roll = self.rng.lock().f64();
            if roll < ppm as f64 / 1e6 {
                let failures = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
                self.gauge_failures.fetch_max(failures, Ordering::Relaxed);
                self.note_refusal(ms, "transient network failure");
                return Err(SourceError::unavailable(
                    self.inner.name(),
                    "transient network failure",
                ));
            }
        }
        Ok(())
    }
}

impl SourceAdapter for SimulatedLink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn collections(&self) -> Vec<CollectionInfo> {
        // Metadata is served from the mediator's catalog even when the
        // link is down, matching how real deployments cache schemas.
        self.inner.collections()
    }

    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        self.gate()?;
        self.inner.execute(query)
    }

    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.gate()?;
        self.inner.fetch_collection(name)
    }

    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmldoc::XmlDocAdapter;

    fn base() -> Arc<dyn SourceAdapter> {
        Arc::new(
            XmlDocAdapter::new("feed")
                .add_xml("d", "<d><x>1</x></d>")
                .unwrap(),
        )
    }

    #[test]
    fn offline_source_fails_with_unavailable() {
        let link = SimulatedLink::new(base(), LinkConfig::default());
        assert!(link.fetch_collection("d").is_ok());
        link.set_up(false);
        let err = link.fetch_collection("d").unwrap_err();
        assert!(err.is_unavailable());
        link.set_up(true);
        assert!(link.fetch_collection("d").is_ok());
        assert_eq!(link.stats().failures, 1);
        assert_eq!(link.stats().calls, 3);
    }

    #[test]
    fn flaky_link_fails_deterministically() {
        let link = SimulatedLink::new(
            base(),
            LinkConfig {
                fail_probability: 0.5,
                seed: 42,
                ..LinkConfig::default()
            },
        );
        let outcomes: Vec<bool> = (0..20)
            .map(|_| link.fetch_collection("d").is_ok())
            .collect();
        let failures = outcomes.iter().filter(|ok| !**ok).count();
        assert!(failures > 3 && failures < 17, "got {} failures", failures);

        // Same seed → same outcome sequence.
        let link2 = SimulatedLink::new(
            base(),
            LinkConfig {
                fail_probability: 0.5,
                seed: 42,
                ..LinkConfig::default()
            },
        );
        let outcomes2: Vec<bool> = (0..20)
            .map(|_| link2.fetch_collection("d").is_ok())
            .collect();
        assert_eq!(outcomes, outcomes2);
    }

    #[test]
    fn latency_charged_without_sleeping() {
        let link = SimulatedLink::new(
            base(),
            LinkConfig {
                latency_ms: 50,
                ..LinkConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            link.fetch_collection("d").unwrap();
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(link.stats().charged_latency_ms, 500);
    }

    #[test]
    fn stats_publish_as_link_gauges() {
        let link = SimulatedLink::new(
            base(),
            LinkConfig {
                latency_ms: 5,
                ..LinkConfig::default()
            },
        );
        link.fetch_collection("d").unwrap();
        link.set_up(false);
        assert!(link.fetch_collection("d").is_err());
        let reg = MetricsRegistry::new();
        link.publish_stats(&reg);
        let s = reg.snapshot();
        assert_eq!(s.gauge("link.calls.feed"), 2);
        assert_eq!(s.gauge("link.failures.feed"), 1);
        assert_eq!(s.gauge("link.charged_latency_ms.feed"), 10);
        // The gate mirrors into the global registry on its own.
        let g = MetricsRegistry::global().snapshot();
        assert!(g.gauge("link.calls.feed") >= 2);
    }

    #[test]
    fn refused_calls_land_in_the_query_ctx() {
        let link = SimulatedLink::new(base(), LinkConfig::default());
        link.set_up(false);
        let ctx = QueryCtx::new("engine-0");
        {
            let _g = ctx.enter();
            assert!(link.fetch_collection("d").is_err());
        }
        let calls = ctx.source_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].source, "feed");
        assert!(!calls[0].ok);
        assert_eq!(calls[0].error.as_deref(), Some("source is offline"));
    }

    #[test]
    fn metadata_survives_downtime() {
        let link = SimulatedLink::new(base(), LinkConfig::default());
        link.set_up(false);
        assert_eq!(link.collections().len(), 1);
        assert_eq!(link.estimated_rows("d"), Some(1));
    }
}
