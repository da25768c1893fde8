//! Span trees: where one query spends its time.
//!
//! A [`Trace`] is built single-writer per query: opening a span with
//! [`Trace::span`] returns a [`SpanGuard`] that records the elapsed wall
//! time when dropped; spans opened while another guard is live nest under
//! it. Phases measured externally can be attached with [`Trace::add_ms`].
//! Interior mutability keeps the API ergonomic around `?`-heavy code (the
//! guard borrows the trace immutably).

use crate::sync::Mutex;
use std::time::Instant;

struct SpanRecord {
    name: String,
    parent: Option<usize>,
    /// Offset from the trace's epoch at which the span began.
    start_ms: f64,
    ms: f64,
    finished: bool,
}

struct TraceInner {
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
}

/// A per-query span tree.
pub struct Trace {
    /// Creation time; span start offsets are measured against it.
    epoch: Instant,
    inner: Mutex<TraceInner>,
}

/// One rendered span: name, nesting depth, start offset from the
/// trace's creation, and elapsed milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanView {
    pub name: String,
    pub depth: usize,
    /// Milliseconds between trace creation and the span opening (for
    /// externally measured phases attached with [`Trace::add_ms`],
    /// back-dated by their duration).
    pub start_ms: f64,
    pub ms: f64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            inner: Mutex::new(TraceInner {
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// Milliseconds since the trace was created.
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Open a span; it closes (and records its duration) when the
    /// returned guard drops. Spans opened before this guard drops become
    /// its children.
    #[must_use = "the span records its duration when the guard drops"]
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let start_ms = self.now_ms();
        let mut inner = self.inner.lock();
        let parent = inner.stack.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.into(),
            parent,
            start_ms,
            ms: 0.0,
            finished: false,
        });
        inner.stack.push(idx);
        SpanGuard {
            trace: self,
            idx,
            start: Instant::now(),
        }
    }

    /// Attach an already-measured phase as a completed child of the
    /// innermost open span (or as a root span if none is open).
    pub fn add_ms(&self, name: impl Into<String>, ms: f64) {
        // The phase just finished; back-date its start by its duration.
        let start_ms = (self.now_ms() - ms).max(0.0);
        let mut inner = self.inner.lock();
        let parent = inner.stack.last().copied();
        inner.spans.push(SpanRecord {
            name: name.into(),
            parent,
            start_ms,
            ms,
            finished: true,
        });
    }

    fn finish_span(&self, idx: usize, ms: f64) {
        let mut inner = self.inner.lock();
        if let Some(s) = inner.spans.get_mut(idx) {
            s.ms = ms;
            s.finished = true;
        }
        // Pop this span (and, defensively, anything opened after it that
        // leaked without dropping).
        if let Some(pos) = inner.stack.iter().position(|&i| i == idx) {
            inner.stack.truncate(pos);
        }
    }

    /// The spans in creation (pre-)order with computed depths.
    pub fn report(&self) -> Vec<SpanView> {
        let inner = self.inner.lock();
        let mut depths: Vec<usize> = Vec::with_capacity(inner.spans.len());
        inner
            .spans
            .iter()
            .map(|s| {
                let depth = match s.parent {
                    Some(p) => depths.get(p).copied().unwrap_or(0) + 1,
                    None => 0,
                };
                depths.push(depth);
                SpanView {
                    name: s.name.clone(),
                    depth,
                    start_ms: s.start_ms,
                    ms: s.ms,
                }
            })
            .collect()
    }

    /// Indented text rendering of the span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in self.report() {
            out.push_str(&"  ".repeat(v.depth));
            out.push_str(&format!("{}: {:.3}ms\n", v.name, v.ms));
        }
        out
    }
}

/// Closes its span on drop, recording the elapsed time.
pub struct SpanGuard<'a> {
    trace: &'a Trace,
    idx: usize,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.trace.finish_span(self.idx, ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_parent_child() {
        let t = Trace::new();
        {
            let _q = t.span("query");
            {
                let _p = t.span("parse");
            }
            {
                let _e = t.span("execute");
                t.add_ms("plan", 1.5);
            }
        }
        let r = t.report();
        let shape: Vec<(&str, usize)> =
            r.iter().map(|v| (v.name.as_str(), v.depth)).collect();
        assert_eq!(
            shape,
            vec![("query", 0), ("parse", 1), ("execute", 1), ("plan", 2)]
        );
        // The pre-measured child kept its externally supplied duration.
        assert!((r[3].ms - 1.5).abs() < 1e-9);
        // Real spans recorded non-negative wall time and start offsets,
        // and children never start before their trace's root.
        assert!(r.iter().all(|v| v.ms >= 0.0 && v.start_ms >= 0.0));
        assert!(r[1].start_ms >= r[0].start_ms);
    }

    #[test]
    fn sequential_roots_do_not_nest() {
        let t = Trace::new();
        drop(t.span("a"));
        drop(t.span("b"));
        let r = t.report();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|v| v.depth == 0));
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        let t = Trace::new();
        let a = t.span("a");
        let b = t.span("b");
        // Dropping the outer guard first pops the leaked inner one too.
        drop(a);
        drop(b);
        let r = t.report();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].depth, 1);
        // A new span after the unwind is a root again.
        drop(t.span("c"));
        assert_eq!(t.report()[2].depth, 0);
    }

    #[test]
    fn render_indents() {
        let t = Trace::new();
        {
            let _q = t.span("query");
            t.add_ms("parse", 0.25);
        }
        let text = t.render();
        assert!(text.contains("query:"));
        assert!(text.contains("  parse: 0.250ms"));
    }
}
