//! The management console.
//!
//! "Configuration and management tools that make it possible for
//! administrators to set up, monitor, and understand, the system." The
//! console aggregates everything an administrator needs into one
//! inventory: registered sources with their kinds, capabilities, and
//! collections; mediated views and their materialization state; and the
//! lens registry. It renders as a plain-text report the way the era's
//! admin consoles did.

use crate::lens::LensRegistry;
use nimble_core::Engine;
use nimble_store::Freshness;
use nimble_trace::{
    Alert, AlertEngine, AlertRule, BurnRateRule, MetricsSnapshot, ServeReport,
};
use nimble_trace::sync::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;

/// One row of the source inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceInfo {
    pub name: String,
    pub kind: String,
    /// Capability tag, e.g. `spjaol` (see `Capabilities::tag`).
    pub capabilities: String,
    /// `(collection, estimated_rows)` pairs.
    pub collections: Vec<(String, Option<u64>)>,
}

/// One row of the view inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewInfo {
    pub name: String,
    pub materialized: bool,
    /// Fresh at the engine's current logical time?
    pub fresh: Option<bool>,
    pub hits: u64,
    pub size_nodes: usize,
    /// How the last refresh got the stored document: `full (<reason>)`,
    /// or `delta <collection> <from>..<upto>` — the rows one source
    /// gained, appended. Empty when not materialized by the engine.
    pub refreshed_by: String,
    /// For an append: whether it went into the stored document in place
    /// or into a copy, because a reader held the stored one.
    pub appended_in_place: Option<bool>,
}

/// One row of the source-health report, derived from the engine's
/// `source.*` metrics (calls, availability failures, other errors,
/// stale-cache substitutions, latency).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceHealth {
    pub name: String,
    /// Adapter calls the engine made against this source.
    pub calls: u64,
    /// Calls that failed because the source was unavailable.
    pub failures: u64,
    /// Calls the source rejected or failed internally.
    pub errors: u64,
    /// Queries answered from a stale cached copy of this source's data.
    pub stale_served: u64,
    pub mean_latency_ms: f64,
    pub p95_latency_ms: f64,
}

/// One row of the plan-quality report: how well the planner's
/// cardinality estimates tracked measured actuals for one operator
/// kind, from the engine's `plan.qerror.*` histograms. Q-errors are
/// recorded as centi-Q (100 = perfect estimate, 200 = off by 2×), and
/// reported here as plain Q factors.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanQualityRow {
    /// Operator kind (the `plan.qerror.<kind>` suffix, e.g. `hashjoin`,
    /// `sort`, `scan`).
    pub kind: String,
    /// Estimates scored for this kind.
    pub count: u64,
    /// Median Q-error.
    pub median_q: f64,
    /// 99th-percentile Q-error.
    pub p99_q: f64,
    /// Worst Q-error seen.
    pub max_q: f64,
}

/// One row of the provenance report: how many answers a named source
/// (or mediated view) contributed to across all lineage-tracked
/// queries, next to how often the engine substituted stale cached data
/// for it. Derived from the `engine.provenance.source_answers.*` and
/// `source.stale_served.*` counter families.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRow {
    pub name: String,
    /// Answers whose lineage touches this unit (lineage-tracked
    /// queries only).
    pub answers: u64,
    /// Queries answered from a stale cached copy of this unit's data.
    pub stale_served: u64,
}

/// Aggregated administrative view over one engine.
pub struct ManagementConsole {
    engine: Arc<Engine>,
    lenses: Option<Arc<LensRegistry>>,
    alerts: Mutex<AlertEngine>,
}

impl ManagementConsole {
    pub fn new(engine: Arc<Engine>) -> ManagementConsole {
        ManagementConsole {
            engine,
            lenses: None,
            alerts: Mutex::new(AlertEngine::new()),
        }
    }

    /// Attach a lens registry so lenses appear in the inventory.
    pub fn with_lenses(mut self, lenses: Arc<LensRegistry>) -> ManagementConsole {
        self.lenses = Some(lenses);
        self
    }

    /// Install a threshold alert rule (evaluated on each [`Self::tick`]).
    pub fn add_alert_rule(&self, rule: AlertRule) {
        self.alerts.lock().add_rule(rule);
    }

    /// Install a burn-rate rule (evaluated on each [`Self::tick`]).
    pub fn add_burn_rate_rule(&self, rule: BurnRateRule) {
        self.alerts.lock().add_burn_rate(rule);
    }

    /// One monitoring tick: snapshot the engine's metrics, evaluate
    /// every installed rule over the window since the previous tick,
    /// and return the alerts that fired now. Fired alerts are also
    /// counted into the engine's registry (`alert.fired.<rule>`) so
    /// they show up in scrapes and merged cluster snapshots.
    pub fn tick(&self) -> Vec<Alert> {
        let snap = self.engine.metrics_snapshot();
        let fired = self.alerts.lock().eval(&snap);
        for a in &fired {
            self.engine
                .metrics()
                .incr(&format!("alert.fired.{}", a.rule), 1);
        }
        fired
    }

    /// Rules currently in breach (fired and not yet recovered).
    pub fn active_alerts(&self) -> Vec<String> {
        self.alerts.lock().active()
    }

    /// Every alert fired so far, oldest first (bounded history).
    pub fn alert_history(&self) -> Vec<Alert> {
        self.alerts.lock().history().to_vec()
    }

    /// The engine's most recent flight records (slow, partial, or
    /// failed queries with full evidence), newest last.
    pub fn flight_records(&self, n: usize) -> Vec<ServeReport> {
        let mut records = self.engine.flight_recorder().records();
        if records.len() > n {
            records.drain(..records.len() - n);
        }
        records
    }

    /// Inventory of registered sources.
    pub fn sources(&self) -> Vec<SourceInfo> {
        let catalog = self.engine.catalog();
        catalog
            .source_names()
            .into_iter()
            .filter_map(|name| {
                let adapter = catalog.source(&name)?;
                Some(SourceInfo {
                    name,
                    kind: format!("{:?}", adapter.kind()),
                    capabilities: adapter.capabilities().tag(),
                    collections: adapter
                        .collections()
                        .into_iter()
                        .map(|c| (c.name, c.estimated_rows))
                        .collect(),
                })
            })
            .collect()
    }

    /// Inventory of mediated views with materialization state.
    pub fn views(&self) -> Vec<ViewInfo> {
        let now = self.engine.clock().now();
        self.engine
            .catalog()
            .view_names()
            .into_iter()
            .map(|name| match self.engine.views().peek(&name) {
                Some(m) => ViewInfo {
                    name,
                    materialized: true,
                    fresh: Some(m.freshness(now) == Freshness::Fresh),
                    hits: m.hits,
                    size_nodes: m.size_nodes,
                    refreshed_by: m.refreshed_by,
                    appended_in_place: m.appended_in_place,
                },
                None => ViewInfo {
                    name,
                    materialized: false,
                    fresh: None,
                    hits: 0,
                    size_nodes: 0,
                    refreshed_by: String::new(),
                    appended_in_place: None,
                },
            })
            .collect()
    }

    /// Point-in-time copy of the engine's metrics registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// The slowest queries this engine has served, slowest first.
    pub fn slow_queries(&self, n: usize) -> Vec<ServeReport> {
        self.engine.query_log().slow(n)
    }

    /// Per-source health derived from the engine's metrics, one row per
    /// registered source (sources never called report zeros).
    pub fn source_health(&self) -> Vec<SourceHealth> {
        let snap = self.engine.metrics_snapshot();
        self.engine
            .catalog()
            .source_names()
            .into_iter()
            .map(|name| {
                let latency = snap.histograms.get(&format!("source.latency_us.{}", name));
                SourceHealth {
                    calls: snap.counter(&format!("source.calls.{}", name)),
                    failures: snap.counter(&format!("source.failures.{}", name)),
                    errors: snap.counter(&format!("source.errors.{}", name)),
                    stale_served: snap.counter(&format!("source.stale_served.{}", name)),
                    mean_latency_ms: latency.map(|h| h.mean() / 1e3).unwrap_or(0.0),
                    p95_latency_ms: latency.map(|h| h.p95() as f64 / 1e3).unwrap_or(0.0),
                    name,
                }
            })
            .collect()
    }

    /// Plan-quality rows derived from the engine's `plan.qerror.*`
    /// histograms, one per operator kind that had estimates scored,
    /// worst median first. Also surfaces the estimate-direction flip
    /// counters so an administrator can see not just *how far off* the
    /// estimates were but whether they changed a decision.
    pub fn plan_quality(&self) -> Vec<PlanQualityRow> {
        let snap = self.engine.metrics_snapshot();
        let mut rows: Vec<PlanQualityRow> = snap
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let kind = name.strip_prefix("plan.qerror.")?;
                Some(PlanQualityRow {
                    kind: kind.to_string(),
                    count: h.count,
                    median_q: h.p50() as f64 / 100.0,
                    p99_q: h.p99() as f64 / 100.0,
                    max_q: h.max as f64 / 100.0,
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.median_q
                .partial_cmp(&a.median_q)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.kind.cmp(&b.kind))
        });
        rows
    }

    /// Per-source contribution table from lineage-tracked queries, most
    /// answers first. Scans the dynamic `source_answers` counter family
    /// rather than the catalog so mediated views that contributed also
    /// get a row; empty when no query ran with lineage tracking on.
    pub fn provenance(&self) -> Vec<ProvenanceRow> {
        let snap = self.engine.metrics_snapshot();
        let mut rows: Vec<ProvenanceRow> = snap
            .counters
            .iter()
            .filter_map(|(name, &answers)| {
                let unit = name.strip_prefix("engine.provenance.source_answers.")?;
                Some(ProvenanceRow {
                    name: unit.to_string(),
                    answers,
                    stale_served: snap.counter(&format!("source.stale_served.{}", unit)),
                })
            })
            .collect();
        rows.sort_by(|a, b| b.answers.cmp(&a.answers).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// The whole inventory as an aligned text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== sources ==");
        let _ = writeln!(out, "{:<14}{:<14}{:<8}collections", "name", "kind", "caps");
        for s in self.sources() {
            let cols: Vec<String> = s
                .collections
                .iter()
                .map(|(c, n)| match n {
                    Some(n) => format!("{}({})", c, n),
                    None => c.clone(),
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<14}{:<14}{:<8}{}",
                s.name,
                s.kind,
                s.capabilities,
                cols.join(", ")
            );
        }
        let _ = writeln!(out, "\n== mediated views ==");
        let _ = writeln!(
            out,
            "{:<20}{:<14}{:<7}{:>6}{:>8}  last refresh",
            "name", "materialized", "fresh", "hits", "nodes"
        );
        for v in self.views() {
            let road = match v.appended_in_place {
                Some(true) => ", in place",
                Some(false) => ", to a copy",
                None => "",
            };
            let _ = writeln!(
                out,
                "{:<20}{:<14}{:<7}{:>6}{:>8}  {}{}",
                v.name,
                v.materialized,
                v.fresh.map(|f| f.to_string()).unwrap_or_else(|| "-".into()),
                v.hits,
                v.size_nodes,
                if v.refreshed_by.is_empty() { "-" } else { &v.refreshed_by },
                road
            );
        }
        // A refresh that failed left its view as it was; only the
        // counters know.
        let metrics = self.engine.metrics_snapshot();
        let failed: Vec<String> = metrics
            .counters
            .iter()
            .filter_map(|(k, n)| Some(format!("{} {}", n, k.strip_prefix("engine.view.refresh.failed.")?)))
            .collect();
        let _ = writeln!(
            out,
            "refreshes: {} delta, {} full, failed: {}",
            metrics.counter("engine.view.refresh.delta"),
            metrics.counter("engine.view.refresh.full"),
            if failed.is_empty() { "none".to_string() } else { failed.join(", ") }
        );
        let _ = writeln!(
            out,
            "statistics: generation {}, samples after source mutations: {} appended, {} resampled",
            metrics.gauge("stats.generation"),
            metrics.gauge("stats.sample.appended"),
            metrics.gauge("stats.sample.resampled")
        );
        if let Some(lenses) = &self.lenses {
            let _ = writeln!(out, "\n== lenses ==");
            for name in lenses.names() {
                let _ = writeln!(out, "{}", name);
            }
        }
        let _ = writeln!(out, "\n== source health ==");
        let _ = writeln!(
            out,
            "{:<14}{:>8}{:>10}{:>8}{:>8}{:>12}{:>12}",
            "name", "calls", "failures", "errors", "stale", "mean_ms", "p95_ms"
        );
        for h in self.source_health() {
            let _ = writeln!(
                out,
                "{:<14}{:>8}{:>10}{:>8}{:>8}{:>12.2}{:>12.2}",
                h.name, h.calls, h.failures, h.errors, h.stale_served, h.mean_latency_ms,
                h.p95_latency_ms
            );
        }
        let quality = self.plan_quality();
        if !quality.is_empty() {
            let snap = self.metrics_snapshot();
            let _ = writeln!(out, "\n== plan quality ==");
            let _ = writeln!(
                out,
                "{:<16}{:>8}{:>10}{:>10}{:>10}",
                "operator", "scored", "median_q", "p99_q", "max_q"
            );
            for row in quality {
                let _ = writeln!(
                    out,
                    "{:<16}{:>8}{:>10.2}{:>10.2}{:>10.2}",
                    row.kind, row.count, row.median_q, row.p99_q, row.max_q
                );
            }
            let _ = writeln!(
                out,
                "decision flips: build_side={} gross_feedback={}",
                snap.counter("plan.flips.build_side"),
                snap.counter("plan.feedback.gross"),
            );
        }
        let provenance = self.provenance();
        if !provenance.is_empty() {
            let snap = self.metrics_snapshot();
            let _ = writeln!(out, "\n== provenance ==");
            let _ = writeln!(out, "{:<20}{:>10}{:>14}", "source", "answers", "stale_served");
            for row in provenance {
                let _ = writeln!(
                    out,
                    "{:<20}{:>10}{:>14}",
                    row.name, row.answers, row.stale_served
                );
            }
            let _ = writeln!(
                out,
                "tracked queries: {}  answers: {}  stale answers: {}",
                snap.counter("engine.provenance.tracked"),
                snap.counter("engine.provenance.answers"),
                snap.counter("engine.provenance.stale_answers"),
            );
        }
        let slow = self.slow_queries(5);
        if !slow.is_empty() {
            let _ = writeln!(out, "\n== slowest queries ==");
            for q in slow {
                let _ = writeln!(
                    out,
                    "{:>10.2}ms  {:>6} tuples  {}",
                    q.elapsed_ms,
                    q.tuples,
                    q.text.split_whitespace().collect::<Vec<_>>().join(" ")
                );
            }
        }
        let history = self.alert_history();
        if !history.is_empty() {
            let active = self.active_alerts();
            let _ = writeln!(out, "\n== alerts ==");
            for a in history {
                let state = if active.contains(&a.rule) { "ACTIVE" } else { "resolved" };
                let _ = writeln!(out, "[tick {:>4}] {:<9} {}", a.tick, state, a.message);
            }
        }
        let flights = self.flight_records(5);
        if !flights.is_empty() {
            let _ = writeln!(out, "\n== flight recorder ==");
            for r in flights {
                let outcome = match &r.error {
                    Some(e) => format!("FAILED ({})", e),
                    None if !r.complete => "partial".to_string(),
                    None => "slow".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}  {:>10.2}ms  {:>3} calls  {:<10}  {}",
                    r.trace_id,
                    r.elapsed_ms,
                    r.source_calls,
                    outcome,
                    r.text.split_whitespace().collect::<Vec<_>>().join(" ")
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_core::Catalog;
    use nimble_sources::csv::CsvAdapter;
    use nimble_sources::xmldoc::XmlDocAdapter;

    fn engine() -> Arc<Engine> {
        let catalog = Catalog::new();
        catalog
            .register_source(Arc::new(
                CsvAdapter::new("files")
                    .add_csv("leads", "name,score\na,1\nb,2\n")
                    .unwrap(),
            ))
            .unwrap();
        catalog
            .register_source(Arc::new(
                XmlDocAdapter::new("docs").add_xml("feed", "<feed/>").unwrap(),
            ))
            .unwrap();
        catalog
            .define_view(
                "hot_leads",
                r#"WHERE <row><name>$n</name><score>$s</score></row> IN "leads", $s > 1
                   CONSTRUCT <lead>$n</lead>"#,
                Some(10),
            )
            .unwrap();
        Arc::new(Engine::new(Arc::new(catalog)))
    }

    #[test]
    fn inventories_reflect_state() {
        let engine = engine();
        let console = ManagementConsole::new(Arc::clone(&engine));
        let sources = console.sources();
        assert_eq!(sources.len(), 2);
        let files = sources.iter().find(|s| s.name == "files").unwrap();
        assert_eq!(files.kind, "FlatFile");
        assert_eq!(files.collections, vec![("leads".to_string(), Some(2))]);

        // Before materialization.
        let views = console.views();
        assert_eq!(views.len(), 1);
        assert!(!views[0].materialized);
        assert_eq!(views[0].fresh, None);

        // After materialization + TTL lapse.
        engine.materialize_view("hot_leads", Some(10)).unwrap();
        assert_eq!(console.views()[0].fresh, Some(true));
        assert_eq!(console.views()[0].refreshed_by, "full (first)");
        engine.clock().advance(11);
        assert_eq!(console.views()[0].fresh, Some(false));

        // A CSV file says nothing of how far it was read: every refresh
        // recomputes, and the report says why.
        assert_eq!(engine.refresh_stale_views(), ["hot_leads"]);
        assert_eq!(console.views()[0].refreshed_by, "full (unstamped)");
        assert!(console.render().contains("refreshes: 0 delta, 2 full, failed: none"));
        // A CSV file stamps no sample either: a mutation re-samples it.
        engine.catalog().note_source_mutation("files");
        assert!(
            console.render().contains("samples after source mutations: 0 appended, 1 resampled"),
            "{}",
            console.render()
        );
        // A refresh that fails leaves the view as it was — and a trace.
        engine.clock().advance(11);
        engine.catalog().unregister_source("files");
        assert!(engine.refresh_stale_views().is_empty());
        let report = console.render();
        assert!(report.contains("full (unstamped)"), "{}", report);
        assert!(report.contains("refreshes: 0 delta, 2 full, failed: 1 unknown_collection"), "{}", report);
    }

    #[test]
    fn report_renders() {
        let console = ManagementConsole::new(engine());
        let report = console.render();
        assert!(report.contains("== sources =="));
        assert!(report.contains("files"));
        assert!(report.contains("leads(2)"));
        assert!(report.contains("hot_leads"));
        assert!(report.contains("== source health =="));
    }

    #[test]
    fn alerts_fire_once_and_render_with_flight_records() {
        let engine = engine();
        let console = ManagementConsole::new(Arc::clone(&engine));
        console.add_alert_rule(AlertRule {
            name: "err_spike".into(),
            metric: "engine.query.error".into(),
            op: nimble_trace::AlertOp::Gt,
            threshold: 0.0,
            window: 1,
        });
        assert!(console.tick().is_empty(), "first tick is the baseline");

        // A failing query breaches the windowed error counter...
        assert!(engine.query("not xml-ql at all").is_err());
        let fired = console.tick();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "err_spike");
        assert_eq!(console.active_alerts(), vec!["err_spike".to_string()]);
        assert_eq!(
            engine.metrics_snapshot().counter("alert.fired.err_spike"),
            1
        );
        // ...and a clean window recovers it without re-firing.
        assert!(console.tick().is_empty());
        assert!(console.active_alerts().is_empty());

        // The failed query was flight-recorded; both sections render.
        assert_eq!(console.flight_records(8).len(), 1);
        let report = console.render();
        assert!(report.contains("== alerts =="));
        assert!(report.contains("err_spike"));
        assert!(report.contains("== flight recorder =="));
        assert!(report.contains("FAILED"));
    }

    #[test]
    fn plan_quality_reports_scored_estimates() {
        let engine = engine();
        let console = ManagementConsole::new(Arc::clone(&engine));
        engine
            .query(
                r#"WHERE <row><name>$n</name><score>$s</score></row> IN "leads"
                   CONSTRUCT <l>$n</l>"#,
            )
            .unwrap();
        // The scan layer scores its estimate on every cost-based query.
        let rows = console.plan_quality();
        let scan = rows.iter().find(|r| r.kind == "scan").expect("scan row");
        assert!(scan.count >= 1);
        assert!(scan.median_q >= 1.0);
        let report = console.render();
        assert!(report.contains("== plan quality =="));
        assert!(report.contains("decision flips: build_side="));
    }

    #[test]
    fn provenance_report_counts_contributions() {
        let engine = engine();
        let console = ManagementConsole::new(Arc::clone(&engine));
        assert!(console.provenance().is_empty(), "no tracked queries yet");
        assert!(!console.render().contains("== provenance =="));

        engine.set_optimizer(nimble_core::OptimizerConfig {
            track_lineage: true,
            ..nimble_core::OptimizerConfig::default()
        });
        engine
            .query(
                r#"WHERE <row><name>$n</name><score>$s</score></row> IN "leads"
                   CONSTRUCT <l>$n</l>"#,
            )
            .unwrap();
        let rows = console.provenance();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "files");
        assert_eq!(rows[0].answers, 2);
        assert_eq!(rows[0].stale_served, 0);

        let report = console.render();
        assert!(report.contains("== provenance =="));
        assert!(report.contains("tracked queries: 1"));
    }

    #[test]
    fn source_health_tracks_engine_metrics() {
        let engine = engine();
        let console = ManagementConsole::new(Arc::clone(&engine));
        engine
            .query(
                r#"WHERE <row><name>$n</name><score>$s</score></row> IN "leads"
                   CONSTRUCT <l>$n</l>"#,
            )
            .unwrap();
        let health = console.source_health();
        assert_eq!(health.len(), 2);
        let files = health.iter().find(|h| h.name == "files").unwrap();
        assert_eq!(files.calls, 1);
        assert_eq!(files.failures, 0);
        let docs = health.iter().find(|h| h.name == "docs").unwrap();
        assert_eq!(docs.calls, 0);

        let snap = console.metrics_snapshot();
        assert_eq!(snap.counter("engine.queries"), 1);
        assert_eq!(snap.histograms["engine.query_us"].count, 1);
    }
}
