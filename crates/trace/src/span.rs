//! Spans: where one serve spent its time, as a tree.
//!
//! A serve's stages are laps of one clock ([`ServeReport::phases`]); a
//! profiled or kept serve renders them as a `query` root span with one
//! child per stage ([`SpanView::tree`]), the shape the Chrome-trace
//! export and EXPLAIN ANALYZE show.
//!
//! [`ServeReport::phases`]: crate::ServeReport::phases

use crate::report::Stage;
use std::fmt::Write as _;

/// One rendered span: name, nesting depth, start offset from the serve's
/// admission, and elapsed milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanView {
    pub name: String,
    pub depth: usize,
    pub start_ms: f64,
    pub ms: f64,
}

impl SpanView {
    /// A serve of `elapsed_ms` whose `stages` ran in order: a `query`
    /// root, its stages beneath it laid end to end.
    pub fn tree(elapsed_ms: f64, stages: &[(Stage, f64)]) -> Vec<SpanView> {
        let mut spans = Vec::with_capacity(stages.len() + 1);
        spans.push(SpanView {
            name: "query".into(),
            depth: 0,
            start_ms: 0.0,
            ms: elapsed_ms,
        });
        let mut start_ms = 0.0;
        for (stage, ms) in stages {
            spans.push(SpanView {
                name: stage.as_str().into(),
                depth: 1,
                start_ms,
                ms: *ms,
            });
            start_ms += ms;
        }
        spans
    }

    /// Indented text rendering, one span a line.
    pub fn render(spans: &[SpanView]) -> String {
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(out, "{}{}: {:.3}ms", "  ".repeat(s.depth), s.name, s.ms);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_parent_child() {
        let spans = SpanView::tree(2.0, &[(Stage::Plan, 0.5), (Stage::Execute, 1.0), (Stage::Construct, 0.25)]);
        let shape: Vec<(&str, usize, f64)> =
            spans.iter().map(|s| (s.name.as_str(), s.depth, s.start_ms)).collect();
        assert_eq!(
            shape,
            vec![("query", 0, 0.0), ("plan", 1, 0.0), ("execute", 1, 0.5), ("construct", 1, 1.5)]
        );
        assert!((spans[0].ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_indents() {
        let text = SpanView::render(&SpanView::tree(1.0, &[(Stage::Parse, 0.25)]));
        assert!(text.starts_with("query: 1.000ms\n"));
        assert!(text.contains("  parse: 0.250ms"));
    }
}
