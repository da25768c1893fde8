//! The flight recorder: retained evidence for the serves that matter.
//!
//! The query log tells you *that* a query was slow or failed; the
//! flight recorder keeps enough to reconstruct *why*, offline: the
//! whole [`ServeReport`] — span tree, physical plan, per-source call
//! records — under the query's trace id. It tail-samples: the keep
//! decision ([`FlightRecorder::should_keep`]) is made *after* the serve
//! finishes, from its outcome, so the always-on cost for the
//! overwhelming majority of healthy serves is a single float compare;
//! the evidence is only gathered for serves that are kept.
//!
//! The buffer is a hard-bounded ring of the most recent kept reports;
//! [`FlightRecorder::dump`] renders them as JSONL for offline analysis
//! next to the Chrome-trace and query-log exports.

use crate::report::ServeReport;
use crate::sync::Mutex;
use std::collections::VecDeque;

/// Bounded tail-sampling recorder. Keep policy and capacity are fixed
/// at construction; `admit` never blocks query progress on anything
/// heavier than one short mutex.
pub struct FlightRecorder {
    capacity: usize,
    slow_ms: f64,
    inner: Mutex<VecDeque<ServeReport>>,
}

impl FlightRecorder {
    /// `capacity` bounds retained reports; serves at or above `slow_ms`,
    /// incomplete, or failed are kept.
    pub fn new(capacity: usize, slow_ms: f64) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_ms,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// The tail-sampling predicate. Callers check this *before*
    /// gathering the evidence, so healthy fast serves pay only this
    /// compare.
    pub fn should_keep(&self, elapsed_ms: f64, complete: bool, failed: bool) -> bool {
        failed || !complete || elapsed_ms >= self.slow_ms
    }

    /// Retain one report, evicting the oldest past capacity.
    pub fn admit(&self, report: ServeReport) {
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(report);
    }

    /// Retained reports, oldest first.
    pub fn records(&self) -> Vec<ServeReport> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained reports.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Everything as JSONL, oldest first: one report per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in self.inner.lock().iter() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{SourceCall, TraceId};
    use crate::report::{Phases, SourceCalls, Stage};
    use crate::span::SpanView;

    fn record(id: u64, elapsed_ms: f64, error: Option<&str>) -> ServeReport {
        let mut phases = Phases::default();
        phases.add(Stage::Execute, elapsed_ms);
        ServeReport {
            elapsed_ms,
            tuples: 3,
            complete: error.is_none(),
            missing_sources: vec!["press".into()],
            affected_answers: vec![0, 2],
            error: error.map(String::from),
            plan: "-- pushed\nValues [a]".into(),
            spans: SpanView::tree(elapsed_ms, &phases),
            phases,
            source_calls: SourceCalls {
                count: 1,
                records: vec![SourceCall {
                    source: "crm".into(),
                    kind: "execute".into(),
                    ok: error.is_none(),
                    latency_ms: 0.4,
                    rows: 10,
                    error: error.map(String::from),
                }],
            },
            alloc_bytes: 2048,
            alloc_peak_bytes: 1024,
            worst_qerror_op: Some("hash join".into()),
            worst_qerror: 3.5,
            ..ServeReport::new(id, &"engine-0".into(), "WHERE … CONSTRUCT …")
        }
    }

    #[test]
    fn keep_policy_is_slow_or_failed_or_incomplete() {
        let fr = FlightRecorder::new(8, 100.0);
        assert!(!fr.should_keep(5.0, true, false));
        assert!(fr.should_keep(100.0, true, false));
        assert!(fr.should_keep(5.0, false, false));
        assert!(fr.should_keep(5.0, true, true));
    }

    #[test]
    fn ring_retains_last_n() {
        let fr = FlightRecorder::new(2, 0.0);
        for i in 0..5 {
            fr.admit(record(i, 1.0, None));
        }
        let kept = fr.records();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].trace_id, 3);
        assert_eq!(kept[1].trace_id, 4);
    }

    #[test]
    fn dump_is_jsonl_with_full_evidence() {
        let fr = FlightRecorder::new(8, 0.0);
        fr.admit(record(1, 150.0, None));
        fr.admit(record(2, 1.0, Some("source: crm offline")));
        let dump = fr.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"plan\":"));
            assert!(line.contains("\"spans\":["));
            assert!(line.contains("\"source_calls\":["));
            assert!(line.contains("\"resource\":{\"alloc_bytes\":2048"));
            assert!(line.contains("\"worst_qerror_op\":\"hash join\""));
            assert!(line.contains("\"stale\":false"));
            assert!(line.contains("\"missing_sources\":[\"press\"]"));
            assert!(line.contains("\"affected_answers\":[0,2]"));
        }
        assert!(lines[0].contains(&TraceId(1).to_string()));
        assert!(lines[1].contains("crm offline"));
    }
}
