//! System monitoring: the administrator's view.
//!
//! "Configuration and management tools that make it possible for
//! administrators to set up, monitor, and understand, the system." Per
//! lens: request counts, failure-annotated responses, and latency
//! aggregates (mean and max).

use nimble_trace::sync::Mutex;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default, PartialEq)]
struct LensStats {
    requests: u64,
    incomplete: u64,
    total_ms: f64,
    max_ms: f64,
}

/// One aggregated monitoring row.
#[derive(Debug, Clone, PartialEq)]
pub struct LensReport {
    pub lens: String,
    pub requests: u64,
    pub incomplete: u64,
    pub mean_ms: f64,
    pub max_ms: f64,
}

/// The shared monitor.
#[derive(Default)]
pub struct SystemMonitor {
    lenses: Mutex<BTreeMap<String, LensStats>>,
}

impl SystemMonitor {
    pub fn new() -> SystemMonitor {
        SystemMonitor::default()
    }

    /// Record one lens invocation.
    pub fn record_lens(&self, lens: &str, elapsed_ms: f64, complete: bool) {
        let mut lenses = self.lenses.lock();
        let s = lenses.entry(lens.to_string()).or_default();
        s.requests += 1;
        if !complete {
            s.incomplete += 1;
        }
        s.total_ms += elapsed_ms;
        s.max_ms = s.max_ms.max(elapsed_ms);
    }

    /// Aggregated rows, alphabetical by lens.
    pub fn report(&self) -> Vec<LensReport> {
        self.lenses
            .lock()
            .iter()
            .map(|(name, s)| LensReport {
                lens: name.clone(),
                requests: s.requests,
                incomplete: s.incomplete,
                mean_ms: if s.requests > 0 {
                    s.total_ms / s.requests as f64
                } else {
                    0.0
                },
                max_ms: s.max_ms,
            })
            .collect()
    }

    /// Render the report as an aligned text table (the admin console).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "lens                            requests  incomplete  mean_ms   max_ms\n",
        );
        for r in self.report() {
            out.push_str(&format!(
                "{:<32}{:>8}{:>12}{:>9.2}{:>9.2}\n",
                r.lens, r.requests, r.incomplete, r.mean_ms, r.max_ms
            ));
        }
        out
    }

    /// Start a fresh observation window.
    pub fn reset(&self) {
        self.lenses.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_lens() {
        let m = SystemMonitor::new();
        m.record_lens("a", 10.0, true);
        m.record_lens("a", 30.0, false);
        m.record_lens("b", 5.0, true);
        let report = m.report();
        assert_eq!(report.len(), 2);
        let a = &report[0];
        assert_eq!((a.requests, a.incomplete), (2, 1));
        assert!((a.mean_ms - 20.0).abs() < 1e-9);
        assert!((a.max_ms - 30.0).abs() < 1e-9);
        assert!(m.render_table().contains("a"));
        m.reset();
        assert!(m.report().is_empty());
    }
}
