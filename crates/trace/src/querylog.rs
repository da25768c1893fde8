//! The query log: a bounded ring of recent queries plus a bounded
//! capture of the slowest ones.
//!
//! The ring answers "what is the system doing right now"; the slow list
//! answers "what should I look at" and survives ring eviction — a slow
//! query from an hour ago is still visible even after thousands of fast
//! ones. Both are hard-bounded, so the log can stay enabled under
//! production load.

use crate::sync::Mutex;
use std::collections::VecDeque;

/// One logged query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogEntry {
    /// Monotone admission number (a logical timestamp).
    pub seq: u64,
    /// Correlation id shared with spans, flight records, and exports
    /// (0 when the recorder had no query context).
    pub trace_id: u64,
    /// Query text, truncated to [`QueryLog::MAX_TEXT`] characters.
    pub text: String,
    pub elapsed_ms: f64,
    /// Binding tuples that reached CONSTRUCT.
    pub tuples: usize,
    /// False when sources failed to contribute (§3.4 partial results).
    pub complete: bool,
    /// At least one unavailable source was answered from stale cached
    /// data (§3.4 stale-fallback).
    pub stale: bool,
    /// Sources that contributed nothing (unavailable and not served
    /// stale), sorted and deduplicated by the recorder.
    pub missing_sources: Vec<String>,
    /// Error-kind string when the query failed outright (failed
    /// queries are logged too — they are exactly the ones an operator
    /// needs to find later).
    pub error: Option<String>,
}

/// What [`QueryLog::record_event`] admits (the log assigns `seq`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryEvent {
    pub trace_id: u64,
    pub text: String,
    pub elapsed_ms: f64,
    pub tuples: usize,
    pub complete: bool,
    pub stale: bool,
    pub missing_sources: Vec<String>,
    pub error: Option<String>,
}

struct LogInner {
    next_seq: u64,
    ring: VecDeque<QueryLogEntry>,
    /// Slowest entries, descending by elapsed time, length ≤ slow_cap.
    slow: Vec<QueryLogEntry>,
}

/// Bounded query log. All bounds are fixed at construction.
pub struct QueryLog {
    capacity: usize,
    slow_cap: usize,
    slow_threshold_ms: f64,
    inner: Mutex<LogInner>,
}

impl QueryLog {
    /// Longest query text stored per entry.
    pub const MAX_TEXT: usize = 240;

    /// `capacity` bounds the ring; queries at or above
    /// `slow_threshold_ms` also enter the slow list (its size is bounded
    /// by `slow_cap`).
    pub fn new(capacity: usize, slow_cap: usize, slow_threshold_ms: f64) -> QueryLog {
        QueryLog {
            capacity: capacity.max(1),
            slow_cap: slow_cap.max(1),
            slow_threshold_ms,
            inner: Mutex::new(LogInner {
                next_seq: 0,
                ring: VecDeque::new(),
                slow: Vec::new(),
            }),
        }
    }

    /// Admit one finished query; returns its sequence number.
    pub fn record(&self, text: &str, elapsed_ms: f64, tuples: usize, complete: bool) -> u64 {
        self.record_event(QueryEvent {
            trace_id: 0,
            text: text.to_string(),
            elapsed_ms,
            tuples,
            complete,
            stale: false,
            missing_sources: Vec::new(),
            error: None,
        })
    }

    /// Admit one finished (or failed) query with full correlation
    /// detail; returns its sequence number.
    pub fn record_event(&self, event: QueryEvent) -> u64 {
        let text: String = event.text.chars().take(Self::MAX_TEXT).collect();
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let entry = QueryLogEntry {
            seq,
            trace_id: event.trace_id,
            text,
            elapsed_ms: event.elapsed_ms,
            tuples: event.tuples,
            complete: event.complete,
            stale: event.stale,
            missing_sources: event.missing_sources,
            error: event.error,
        };
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(entry.clone());
        if event.elapsed_ms >= self.slow_threshold_ms {
            let at = inner
                .slow
                .partition_point(|e| e.elapsed_ms >= event.elapsed_ms);
            inner.slow.insert(at, entry);
            inner.slow.truncate(self.slow_cap);
        }
        seq
    }

    /// The latest `n` entries, newest first.
    pub fn recent(&self, n: usize) -> Vec<QueryLogEntry> {
        let inner = self.inner.lock();
        inner.ring.iter().rev().take(n).cloned().collect()
    }

    /// The slowest captured entries, slowest first.
    pub fn slow(&self, n: usize) -> Vec<QueryLogEntry> {
        let inner = self.inner.lock();
        inner.slow.iter().take(n).cloned().collect()
    }

    /// Total queries admitted over the log's lifetime.
    pub fn total(&self) -> u64 {
        self.inner.lock().next_seq
    }

    pub fn slow_threshold_ms(&self) -> f64 {
        self.slow_threshold_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let log = QueryLog::new(3, 8, f64::INFINITY);
        for i in 0..5 {
            log.record(&format!("q{}", i), 1.0, 0, true);
        }
        let recent = log.recent(10);
        let texts: Vec<&str> = recent.iter().map(|e| e.text.as_str()).collect();
        assert_eq!(texts, vec!["q4", "q3", "q2"]);
        assert_eq!(log.total(), 5);
        // Sequence numbers keep counting across evictions.
        assert_eq!(recent[0].seq, 4);
    }

    #[test]
    fn slow_capture_survives_ring_eviction() {
        let log = QueryLog::new(2, 8, 50.0);
        log.record("slow one", 120.0, 9, true);
        for i in 0..10 {
            log.record(&format!("fast{}", i), 1.0, 0, true);
        }
        assert!(log.recent(10).iter().all(|e| e.text.starts_with("fast")));
        let slow = log.slow(5);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].text, "slow one");
    }

    #[test]
    fn slow_list_is_bounded_and_sorted() {
        let log = QueryLog::new(16, 3, 0.0);
        for ms in [10.0, 50.0, 30.0, 40.0, 20.0] {
            log.record("q", ms, 0, true);
        }
        let slow = log.slow(10);
        let times: Vec<f64> = slow.iter().map(|e| e.elapsed_ms).collect();
        assert_eq!(times, vec![50.0, 40.0, 30.0]);
    }

    #[test]
    fn failed_queries_carry_error_and_trace_id() {
        let log = QueryLog::new(4, 4, f64::INFINITY);
        log.record_event(QueryEvent {
            trace_id: 42,
            text: "broken".into(),
            elapsed_ms: 0.3,
            tuples: 0,
            complete: false,
            stale: true,
            missing_sources: vec!["billing".into()],
            error: Some("compile".into()),
        });
        let e = &log.recent(1)[0];
        assert_eq!(e.trace_id, 42);
        assert_eq!(e.error.as_deref(), Some("compile"));
        assert!(!e.complete);
        assert!(e.stale);
        assert_eq!(e.missing_sources, ["billing"]);
    }

    #[test]
    fn text_is_truncated() {
        let log = QueryLog::new(2, 2, f64::INFINITY);
        let long = "x".repeat(1000);
        log.record(&long, 1.0, 0, true);
        assert_eq!(log.recent(1)[0].text.len(), QueryLog::MAX_TEXT);
    }
}
