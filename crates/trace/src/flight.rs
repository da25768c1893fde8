//! The flight recorder: retained evidence for the queries that matter.
//!
//! The query log tells you *that* a query was slow or failed; the
//! flight recorder keeps enough to reconstruct *why*, offline: the
//! full span tree, the physical plan, and the per-source call records,
//! all tagged with the query's trace id. It tail-samples — the keep
//! decision ([`FlightRecorder::should_keep`]) is made *after* the
//! query finishes, from its outcome — so the always-on cost for the
//! overwhelming majority of healthy queries is a single float compare;
//! the expensive part (cloning plan text and spans) only happens for
//! queries that are kept.
//!
//! The buffer is a hard-bounded ring of the most recent kept records;
//! [`FlightRecorder::dump`] renders everything as JSONL for offline
//! analysis next to the Chrome-trace and query-log exports.

use crate::ctx::{SourceCall, TraceId};
use crate::export::{json_escape, json_num, source_call_json, span_json};
use crate::sync::Mutex;
use crate::span::SpanView;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Everything retained about one kept query.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    pub trace_id: TraceId,
    /// Engine instance that served the query.
    pub instance: String,
    /// Query text (truncated by the producer's own policy).
    pub text: String,
    pub elapsed_ms: f64,
    pub tuples: usize,
    pub complete: bool,
    /// At least one unavailable source was answered from stale cache.
    pub stale: bool,
    /// Sources that contributed nothing (sorted, deduplicated).
    pub missing_sources: Vec<String>,
    /// Indices (in document order) of the answers whose lineage touches
    /// a stale-served source — empty when lineage tracking was off or
    /// nothing was stale.
    pub affected_answers: Vec<usize>,
    /// Error-kind and message when the query failed outright.
    pub error: Option<String>,
    /// EXPLAIN rendering of the physical plan (empty when the query
    /// failed before planning).
    pub plan: String,
    /// The full span tree.
    pub spans: Vec<SpanView>,
    /// Every adapter call made on the query's behalf.
    pub source_calls: Vec<SourceCall>,
    /// Heap bytes allocated while serving the query (0 when the
    /// `profile-alloc` feature is off).
    pub alloc_bytes: u64,
    /// High-water mark of live bytes above the query's entry level.
    pub alloc_peak_bytes: u64,
    /// Operator kind of the worst estimate-vs-actual offender, when
    /// plan-quality scoring ran (profiled queries).
    pub worst_qerror_op: Option<String>,
    /// That offender's Q-error (`max(est/act, act/est)`, ≥ 1); 0 when
    /// no scoring happened.
    pub worst_qerror: f64,
}

impl FlightRecord {
    /// Single-line JSON rendering (one dump line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"instance\":\"{}\",\"text\":\"{}\",\
             \"elapsed_ms\":{},\"tuples\":{},\"complete\":{},",
            self.trace_id,
            json_escape(&self.instance),
            json_escape(&self.text),
            json_num(self.elapsed_ms),
            self.tuples,
            self.complete,
        );
        let _ = write!(out, "\"stale\":{},\"missing_sources\":[", self.stale);
        for (i, s) in self.missing_sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        out.push_str("],\"affected_answers\":[");
        for (i, a) in self.affected_answers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", a);
        }
        out.push_str("],");
        match &self.error {
            Some(e) => {
                let _ = write!(out, "\"error\":\"{}\",", json_escape(e));
            }
            None => out.push_str("\"error\":null,"),
        }
        let _ = write!(out, "\"plan\":\"{}\",\"spans\":[", json_escape(&self.plan));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("],\"source_calls\":[");
        for (i, c) in self.source_calls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&source_call_json(c));
        }
        out.push_str("],\"resource\":{");
        let _ = write!(
            out,
            "\"alloc_bytes\":{},\"alloc_peak_bytes\":{},",
            self.alloc_bytes, self.alloc_peak_bytes
        );
        match &self.worst_qerror_op {
            Some(op) => {
                let _ = write!(
                    out,
                    "\"worst_qerror_op\":\"{}\",\"worst_qerror\":{}",
                    json_escape(op),
                    json_num(self.worst_qerror)
                );
            }
            None => out.push_str("\"worst_qerror_op\":null,\"worst_qerror\":0"),
        }
        out.push_str("}}");
        out
    }
}

/// Bounded tail-sampling recorder. Keep policy and capacity are fixed
/// at construction; `admit` never blocks query progress on anything
/// heavier than one short mutex.
pub struct FlightRecorder {
    capacity: usize,
    slow_ms: f64,
    inner: Mutex<VecDeque<FlightRecord>>,
}

impl FlightRecorder {
    /// `capacity` bounds retained records; queries at or above
    /// `slow_ms`, incomplete, or failed are kept.
    pub fn new(capacity: usize, slow_ms: f64) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_ms,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// The tail-sampling predicate. Callers check this *before*
    /// materializing a record so healthy fast queries pay only this
    /// compare.
    pub fn should_keep(&self, elapsed_ms: f64, complete: bool, failed: bool) -> bool {
        failed || !complete || elapsed_ms >= self.slow_ms
    }

    /// Retain one record, evicting the oldest past capacity.
    pub fn admit(&self, record: FlightRecord) {
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slow-query threshold of the keep policy.
    pub fn slow_ms(&self) -> f64 {
        self.slow_ms
    }

    /// Everything as JSONL, oldest first: one record per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, elapsed_ms: f64, error: Option<&str>) -> FlightRecord {
        FlightRecord {
            trace_id: TraceId(id),
            instance: "engine-0".into(),
            text: "WHERE … CONSTRUCT …".into(),
            elapsed_ms,
            tuples: 3,
            complete: error.is_none(),
            stale: false,
            missing_sources: vec!["press".into()],
            affected_answers: vec![0, 2],
            error: error.map(String::from),
            plan: "-- pushed\nValues [a]".into(),
            spans: vec![SpanView {
                name: "query".into(),
                depth: 0,
                start_ms: 0.0,
                ms: elapsed_ms,
            }],
            source_calls: vec![SourceCall {
                source: "crm".into(),
                kind: "execute".into(),
                ok: error.is_none(),
                latency_ms: 0.4,
                rows: 10,
                error: error.map(String::from),
            }],
            alloc_bytes: 2048,
            alloc_peak_bytes: 1024,
            worst_qerror_op: Some("hash join".into()),
            worst_qerror: 3.5,
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
        assert_eq!(kept[0].trace_id, TraceId(3));
        assert_eq!(kept[1].trace_id, TraceId(4));
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
