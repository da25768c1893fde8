//! Trace and log exporters: Chrome trace-event JSON and JSONL.
//!
//! Operators consume observability through tools, not through our
//! in-process structs. This module renders them into two widely
//! readable formats, with a hand-rolled JSON writer so the crate stays
//! dependency-free:
//!
//! * [`chrome_trace`] — a span tree as Chrome trace-event JSON
//!   (complete `"X"` events), loadable in `about:tracing` or Perfetto.
//!   Every event carries the query's trace id and engine instance in
//!   its `args`, so traces from several queries or instances can be
//!   concatenated and still told apart.
//! * [`query_log_jsonl`] — serve reports (query-log entries, flight
//!   records) as one JSON object per line ([`ServeReport::to_json`]),
//!   the grep-able structured event stream.

use crate::ctx::TraceId;
use crate::report::ServeReport;
use crate::span::SpanView;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite JSON number (NaN/∞ have no JSON spelling; they
/// become 0 rather than corrupting the document).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "0".to_string()
    }
}

/// A span tree as Chrome trace-event JSON: one complete (`"ph":"X"`)
/// event per span, timestamps in microseconds relative to the trace's
/// start. Load the output in `about:tracing` or Perfetto.
pub fn chrome_trace(spans: &[SpanView], trace_id: TraceId, instance: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"trace_id\":\"{}\",\"instance\":\"{}\",\
             \"depth\":{}}}}}",
            json_escape(&s.name),
            json_num(s.start_ms * 1e3),
            json_num(s.ms * 1e3),
            trace_id,
            json_escape(instance),
            s.depth,
        );
    }
    out.push_str("]}");
    out
}

/// Serve reports as JSONL: one JSON object per line.
pub fn query_log_jsonl(entries: &[ServeReport]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Stage;

    #[test]
    fn escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_has_one_x_event_per_span() {
        let spans = SpanView::tree(1.0, &[(Stage::Parse, 0.5)]);
        let json = chrome_trace(&spans, TraceId(7), "engine-0");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains(&TraceId(7).to_string()));
        // Structurally balanced (cheap sanity; real parsing happens in
        // the integration suite with `json::from_str`).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let log = crate::QueryLog::new(4, 4, f64::INFINITY);
        log.admit(ServeReport {
            tuples: 3,
            complete: true,
            ..ServeReport::new(1, &"engine-0".into(), "q1")
        });
        log.admit(ServeReport {
            stale: true,
            missing_sources: vec!["billing".into(), "crm".into()],
            error: Some("source".into()),
            ..ServeReport::new(9, &"engine-0".into(), "q2 \"quoted\"")
        });
        let entries = log.recent(10);
        let jsonl = query_log_jsonl(&entries);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\"error\":\"source\""));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(lines[0].contains("\"stale\":true"));
        assert!(lines[0].contains("\"missing_sources\":[\"billing\",\"crm\"]"));
        assert!(lines[1].contains("\"error\":null"));
        assert!(lines[1].contains("\"stale\":false"));
        assert!(lines[1].contains("\"missing_sources\":[]"));
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
        assert_eq!(json_num(1.25), "1.25");
    }
}
