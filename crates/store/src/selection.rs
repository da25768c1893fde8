//! View-selection policies and the workload monitor feeding them.
//!
//! The paper names this its central §3.3 research challenge: which views
//! over the mediated schema to materialize, given that (1) sources are
//! autonomous and overlapping, (2) the query load shifts, and (3) remote
//! cost estimates are poor. The [`WorkloadMonitor`] observes the actual
//! load (frequencies and *measured* fragment costs — sidestepping the
//! estimation problem), and [`select_views`] turns those observations
//! into a materialization set under a storage budget. Experiment E2
//! compares the policies.

use nimble_trace::{Alert, AlertEngine, MetricsRegistry};
use std::sync::Arc;

/// A candidate view with the observed statistics the selector needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateView {
    pub name: String,
    /// Queries answered by this view in the observation window.
    pub frequency: u64,
    /// Measured mean cost of answering virtually (milliseconds).
    pub virtual_cost_ms: f64,
    /// Materialized size in nodes.
    pub size_nodes: usize,
}

impl CandidateView {
    /// Benefit rate: latency saved per unit of storage if materialized.
    /// (Answering from the store is charged ~zero; refresh cost is the
    /// policy user's concern via TTLs.)
    pub fn benefit_per_node(&self) -> f64 {
        if self.size_nodes == 0 {
            return 0.0;
        }
        (self.frequency as f64 * self.virtual_cost_ms) / self.size_nodes as f64
    }
}

/// Materialization policies compared in experiment E2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Pure virtual integration: nothing materialized.
    None,
    /// Greedy knapsack by benefit-per-node under the budget.
    Greedy,
    /// Materialize every candidate that fits cumulatively (the emulated
    /// "warehouse" arm: everything local, freshness via TTL refresh).
    All,
}

/// Choose which views to materialize under `budget_nodes`.
pub fn select_views(
    policy: SelectionPolicy,
    candidates: &[CandidateView],
    budget_nodes: usize,
) -> Vec<String> {
    match policy {
        SelectionPolicy::None => Vec::new(),
        SelectionPolicy::All => {
            let mut used = 0usize;
            candidates
                .iter()
                .filter(|c| {
                    if used + c.size_nodes <= budget_nodes {
                        used += c.size_nodes;
                        true
                    } else {
                        false
                    }
                })
                .map(|c| c.name.clone())
                .collect()
        }
        SelectionPolicy::Greedy => {
            let mut sorted: Vec<&CandidateView> = candidates.iter().collect();
            sorted.sort_by(|a, b| {
                b.benefit_per_node()
                    .total_cmp(&a.benefit_per_node())
                    .then_with(|| a.name.cmp(&b.name))
            });
            let mut used = 0usize;
            let mut out = Vec::new();
            for c in sorted {
                if c.frequency == 0 {
                    continue;
                }
                if used + c.size_nodes <= budget_nodes {
                    used += c.size_nodes;
                    out.push(c.name.clone());
                }
            }
            out
        }
    }
}

/// Observes the live query load per view: frequencies and measured
/// virtual costs. "We may need to adjust the set of materialized views
/// over time depending on the query load" — re-running selection over a
/// fresh window does exactly that.
///
/// Observations live in a [`MetricsRegistry`] under the `view.` prefix
/// (`view.cost_us.<name>` histograms, `view.size_nodes.<name>`
/// max-gauges), so when the monitor shares the engine's registry the
/// workload statistics appear in the same management-console snapshot
/// as every other metric.
pub struct WorkloadMonitor {
    registry: Arc<MetricsRegistry>,
}

impl Default for WorkloadMonitor {
    fn default() -> Self {
        WorkloadMonitor::new()
    }
}

impl WorkloadMonitor {
    pub fn new() -> WorkloadMonitor {
        WorkloadMonitor::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Record observations into a shared registry (the engine passes its
    /// own, so `view.*` metrics ride along in engine snapshots).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> WorkloadMonitor {
        WorkloadMonitor { registry }
    }

    /// The registry observations land in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one virtually-answered query against a view: its measured
    /// cost and the result size.
    pub fn record(&self, view: &str, cost_ms: f64, size_nodes: usize) {
        self.registry
            .observe(&format!("view.cost_us.{}", view), (cost_ms * 1e3).max(0.0) as u64);
        self.registry
            .gauge_max(&format!("view.size_nodes.{}", view), size_nodes as u64);
    }

    /// Snapshot candidates with mean costs, sorted by name.
    pub fn candidates(&self) -> Vec<CandidateView> {
        let snap = self.registry.snapshot();
        snap.histograms
            .iter()
            .filter_map(|(metric, hist)| {
                let name = metric.strip_prefix("view.cost_us.")?;
                Some(CandidateView {
                    name: name.to_string(),
                    frequency: hist.count,
                    virtual_cost_ms: if hist.count > 0 { hist.mean() / 1e3 } else { 0.0 },
                    size_nodes: snap.gauge(&format!("view.size_nodes.{}", name)) as usize,
                })
            })
            .collect()
    }

    /// Start a new observation window (drops only `view.` metrics, so a
    /// shared registry keeps its other subsystems' history).
    pub fn reset(&self) {
        self.registry.remove_prefix("view.");
    }

    /// One alert-evaluation tick over this monitor's registry: snapshot
    /// it and let `alerts` judge the window since its previous tick.
    /// Background monitoring loops that already own a [`WorkloadMonitor`]
    /// get alerting without also holding an engine handle.
    pub fn eval_alerts(&self, alerts: &mut AlertEngine) -> Vec<Alert> {
        alerts.eval(&self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands() -> Vec<CandidateView> {
        vec![
            CandidateView {
                name: "hot_small".into(),
                frequency: 100,
                virtual_cost_ms: 50.0,
                size_nodes: 10,
            },
            CandidateView {
                name: "hot_big".into(),
                frequency: 100,
                virtual_cost_ms: 50.0,
                size_nodes: 1000,
            },
            CandidateView {
                name: "cold".into(),
                frequency: 1,
                virtual_cost_ms: 50.0,
                size_nodes: 10,
            },
            CandidateView {
                name: "unused".into(),
                frequency: 0,
                virtual_cost_ms: 0.0,
                size_nodes: 5,
            },
        ]
    }

    #[test]
    fn none_materializes_nothing() {
        assert!(select_views(SelectionPolicy::None, &cands(), 10_000).is_empty());
    }

    #[test]
    fn greedy_prefers_benefit_per_node() {
        let picked = select_views(SelectionPolicy::Greedy, &cands(), 30);
        // hot_small (500/node) then cold (5/node); hot_big doesn't fit.
        assert_eq!(picked, vec!["hot_small", "cold"]);
    }

    #[test]
    fn greedy_skips_unused() {
        let picked = select_views(SelectionPolicy::Greedy, &cands(), 10_000);
        assert!(!picked.contains(&"unused".to_string()));
    }

    #[test]
    fn all_fills_in_order_until_budget() {
        let picked = select_views(SelectionPolicy::All, &cands(), 25);
        // Takes hot_small (10), skips hot_big (1000), takes cold (10),
        // takes unused (5).
        assert_eq!(picked, vec!["hot_small", "cold", "unused"]);
    }

    #[test]
    fn monitor_records_into_shared_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = WorkloadMonitor::with_registry(Arc::clone(&reg));
        m.record("v1", 2.0, 5);
        let s = reg.snapshot();
        assert_eq!(s.histograms["view.cost_us.v1"].count, 1);
        assert_eq!(s.histograms["view.cost_us.v1"].sum, 2000);
        assert_eq!(s.gauge("view.size_nodes.v1"), 5);
        // A reset only clears the monitor's own prefix.
        reg.incr("engine.queries", 1);
        m.reset();
        let s = reg.snapshot();
        assert!(s.histograms.is_empty());
        assert_eq!(s.counter("engine.queries"), 1);
    }

    #[test]
    fn monitor_drives_alert_evaluation() {
        use nimble_trace::{AlertOp, AlertRule};
        let m = WorkloadMonitor::new();
        let mut alerts = AlertEngine::new();
        alerts.add_rule(AlertRule {
            name: "hot_view".into(),
            metric: "view.cost_us.v1:count".into(),
            op: AlertOp::Ge,
            threshold: 2.0,
            window: 1,
        });
        assert!(m.eval_alerts(&mut alerts).is_empty(), "baseline tick");
        m.record("v1", 1.0, 5);
        m.record("v1", 1.0, 5);
        let fired = m.eval_alerts(&mut alerts);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "hot_view");
    }

    #[test]
    fn monitor_aggregates() {
        let m = WorkloadMonitor::new();
        m.record("v1", 10.0, 100);
        m.record("v1", 20.0, 90);
        m.record("v2", 5.0, 10);
        let c = m.candidates();
        assert_eq!(c.len(), 2);
        let v1 = c.iter().find(|c| c.name == "v1").unwrap();
        assert_eq!(v1.frequency, 2);
        assert!((v1.virtual_cost_ms - 15.0).abs() < 1e-9);
        assert_eq!(v1.size_nodes, 100);
        m.reset();
        assert!(m.candidates().is_empty());
    }
}
