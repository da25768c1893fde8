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
//! * [`query_log_jsonl`] — query-log entries as one JSON object per
//!   line, the grep-able structured event stream.

use crate::ctx::{SourceCall, TraceId};
use crate::querylog::QueryLogEntry;
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

/// One query-log entry as a single-line JSON object.
pub fn query_log_entry_json(e: &QueryLogEntry) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"seq\":{},\"trace_id\":\"{}\",\"text\":\"{}\",\"elapsed_ms\":{},\
         \"tuples\":{},\"complete\":{}",
        e.seq,
        TraceId(e.trace_id),
        json_escape(&e.text),
        json_num(e.elapsed_ms),
        e.tuples,
        e.complete,
    );
    let _ = write!(out, ",\"stale\":{},\"missing_sources\":[", e.stale);
    for (i, s) in e.missing_sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(s));
    }
    out.push(']');
    match &e.error {
        Some(err) => {
            let _ = write!(out, ",\"error\":\"{}\"}}", json_escape(err));
        }
        None => out.push_str(",\"error\":null}"),
    }
    out
}

/// Query-log entries as JSONL: one JSON object per line.
pub fn query_log_jsonl(entries: &[QueryLogEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&query_log_entry_json(e));
        out.push('\n');
    }
    out
}

/// A span as a JSON object (shared by the flight recorder's dump).
pub(crate) fn span_json(s: &SpanView) -> String {
    format!(
        "{{\"name\":\"{}\",\"depth\":{},\"start_ms\":{},\"ms\":{}}}",
        json_escape(&s.name),
        s.depth,
        json_num(s.start_ms),
        json_num(s.ms),
    )
}

/// A source-call record as a JSON object (shared by the flight
/// recorder's dump).
pub(crate) fn source_call_json(c: &SourceCall) -> String {
    let error = match &c.error {
        Some(e) => format!("\"{}\"", json_escape(e)),
        None => "null".to_string(),
    };
    format!(
        "{{\"source\":\"{}\",\"kind\":\"{}\",\"ok\":{},\"latency_ms\":{},\"rows\":{},\
         \"error\":{}}}",
        json_escape(&c.source),
        json_escape(&c.kind),
        c.ok,
        json_num(c.latency_ms),
        c.rows,
        error,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_has_one_x_event_per_span() {
        let t = Trace::new();
        {
            let _q = t.span("query");
            t.add_ms("parse", 0.5);
        }
        let spans = t.report();
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
        log.record("q1", 1.0, 3, true);
        log.record_event(crate::querylog::QueryEvent {
            trace_id: 9,
            text: "q2 \"quoted\"".into(),
            elapsed_ms: 2.0,
            tuples: 0,
            complete: false,
            stale: true,
            missing_sources: vec!["billing".into(), "crm".into()],
            error: Some("source".into()),
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
