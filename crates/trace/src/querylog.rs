//! The query log: a bounded ring of recent serves plus a bounded
//! capture of the slowest ones.
//!
//! The ring answers "what is the system doing right now"; the slow list
//! answers "what should I look at" and survives ring eviction — a slow
//! query from an hour ago is still visible even after thousands of fast
//! ones. Both are hard-bounded and hold [`ServeReport`] summaries (no
//! plan text, spans, or call records), so the log can stay enabled under
//! production load.

use crate::report::ServeReport;
use crate::sync::Mutex;
use std::collections::VecDeque;

struct LogInner {
    next_seq: u64,
    ring: VecDeque<ServeReport>,
    /// Slowest entries, descending by elapsed time, length ≤ slow_cap.
    slow: Vec<ServeReport>,
}

/// Bounded query log. All bounds are fixed at construction.
pub struct QueryLog {
    capacity: usize,
    slow_cap: usize,
    slow_threshold_ms: f64,
    inner: Mutex<LogInner>,
}

impl QueryLog {
    /// Longest query text a [`ServeReport`] keeps.
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

    /// Admit one finished (or failed) serve, stripped to its summary;
    /// returns its sequence number, which the entry carries as `seq`.
    pub fn admit(&self, mut report: ServeReport) -> u64 {
        report.strip_evidence();
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        report.seq = seq;
        if report.elapsed_ms >= self.slow_threshold_ms {
            let at = inner
                .slow
                .partition_point(|e| e.elapsed_ms >= report.elapsed_ms);
            inner.slow.insert(at, report.clone());
            inner.slow.truncate(self.slow_cap);
        }
        let evicted = match inner.ring.len() == self.capacity {
            true => inner.ring.pop_front(),
            false => None,
        };
        inner.ring.push_back(report);
        drop(inner);
        drop(evicted);
        seq
    }

    /// The latest `n` entries, newest first.
    pub fn recent(&self, n: usize) -> Vec<ServeReport> {
        let inner = self.inner.lock();
        inner.ring.iter().rev().take(n).cloned().collect()
    }

    /// The slowest captured entries, slowest first.
    pub fn slow(&self, n: usize) -> Vec<ServeReport> {
        let inner = self.inner.lock();
        inner.slow.iter().take(n).cloned().collect()
    }

    /// Total serves admitted over the log's lifetime.
    pub fn total(&self) -> u64 {
        self.inner.lock().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(text: &str, elapsed_ms: f64) -> ServeReport {
        ServeReport {
            elapsed_ms,
            complete: true,
            ..ServeReport::new(0, &"engine-0".into(), text)
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = QueryLog::new(3, 8, f64::INFINITY);
        for i in 0..5 {
            log.admit(serve(&format!("q{}", i), 1.0));
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
        log.admit(serve("slow one", 120.0));
        for i in 0..10 {
            log.admit(serve(&format!("fast{}", i), 1.0));
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
            log.admit(serve("q", ms));
        }
        let slow = log.slow(10);
        let times: Vec<f64> = slow.iter().map(|e| e.elapsed_ms).collect();
        assert_eq!(times, vec![50.0, 40.0, 30.0]);
    }

    #[test]
    fn failed_queries_carry_error_and_trace_id() {
        let log = QueryLog::new(4, 4, f64::INFINITY);
        log.admit(ServeReport {
            elapsed_ms: 0.3,
            stale: true,
            missing_sources: vec!["billing".into()],
            error: Some("compile".into()),
            plan: "Values []".into(),
            ..ServeReport::new(42, &"engine-0".into(), "broken")
        });
        let e = &log.recent(1)[0];
        assert_eq!(e.trace_id, 42);
        assert_eq!(e.error.as_deref(), Some("compile"));
        assert!(!e.complete);
        assert!(e.stale);
        assert_eq!(e.missing_sources, ["billing"]);
        assert!(e.plan.is_empty());
    }

    #[test]
    fn text_is_truncated() {
        let log = QueryLog::new(2, 2, f64::INFINITY);
        log.admit(serve(&"x".repeat(1000), 1.0));
        assert_eq!(log.recent(1)[0].text.len(), QueryLog::MAX_TEXT);
    }
}
