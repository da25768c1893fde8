//! The serve report: one record per serve.
//!
//! A [`ServeReport`] describes one serve of one query, whichever way it
//! answered — a result envelope, a streamed document, or an error. The
//! engine fills it as the serve's [`Stage`]s end and records it at one
//! site: its metrics are derived from the report, the
//! [`QueryLog`](crate::QueryLog) admits the report's summary, and the
//! [`FlightRecorder`](crate::FlightRecorder) keeps the whole report when
//! the serve was slow, partial, or failed. The query's result envelope
//! carries the same report, so the stats a caller reads, the log line,
//! the flight record and the JSONL export ([`ServeReport::to_json`])
//! cannot disagree.
//!
//! The summary is what every serve has: ids, text, timings, counts and
//! the §3.4 completeness verdict. The evidence — plan text, spans, the
//! per-call records — is filled only where someone can read it: a
//! profiled serve, a result envelope (the plan), or a kept one.

use crate::ctx::SourceCall;
use crate::span::SpanView;
use crate::export::{json_escape, json_num};
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

/// A serve's stages, in the order they run. A plan-cache hit runs no
/// `Parse`/`Analyze` of its own: its `Plan` stage is everything between
/// the text and a plan ready to run (the parse and the cache lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Analyze,
    Plan,
    Verify,
    Execute,
    Construct,
}

impl Stage {
    /// The stage's name: the last segment of its `engine.phase_us.*`
    /// metric and its span's name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Analyze => "analyze",
            Stage::Plan => "plan",
            Stage::Verify => "verify",
            Stage::Execute => "execute",
            Stage::Construct => "construct",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for Stage {
    fn eq(&self, name: &str) -> bool {
        self.as_str() == name
    }
}

/// A serve's stage times, in the order the stages ran, one entry per
/// stage at most — held inline, so recording them allocates nothing.
/// Reads as a slice of `(Stage, ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    len: usize,
    entries: [(Stage, f64); 6],
}

impl Default for Phases {
    fn default() -> Phases {
        Phases {
            len: 0,
            entries: [(Stage::Parse, 0.0); 6],
        }
    }
}

impl Phases {
    /// Add `ms` to `stage`: to its entry when it has one, else as the
    /// next entry.
    pub fn add(&mut self, stage: Stage, ms: f64) {
        match self.entries[..self.len].iter_mut().find(|(s, _)| *s == stage) {
            Some((_, total)) => *total += ms,
            None => {
                self.entries[self.len] = (stage, ms);
                self.len += 1;
            }
        }
    }
}

impl Deref for Phases {
    type Target = [(Stage, f64)];

    fn deref(&self) -> &[(Stage, f64)] {
        &self.entries[..self.len]
    }
}

impl<'a> IntoIterator for &'a Phases {
    type Item = &'a (Stage, f64);
    type IntoIter = std::slice::Iter<'a, (Stage, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The adapter calls a serve made: how many, always, and the record of
/// each when the serve was profiled or kept. It compares and prints as
/// the count — two serves are equal here when they made as many calls,
/// since no two calls share a latency — and reads as the list of
/// records.
#[derive(Debug, Clone, Default)]
pub struct SourceCalls {
    pub count: u64,
    pub records: Vec<SourceCall>,
}

impl Deref for SourceCalls {
    type Target = [SourceCall];

    fn deref(&self) -> &[SourceCall] {
        &self.records
    }
}

impl PartialEq for SourceCalls {
    fn eq(&self, other: &SourceCalls) -> bool {
        self.count == other.count
    }
}

impl PartialEq<u64> for SourceCalls {
    fn eq(&self, count: &u64) -> bool {
        self.count == *count
    }
}

impl PartialOrd<u64> for SourceCalls {
    fn partial_cmp(&self, count: &u64) -> Option<std::cmp::Ordering> {
        self.count.partial_cmp(count)
    }
}

impl fmt::Display for SourceCalls {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.count.fmt(f)
    }
}

/// How one fetch round of two or more independent tasks ran — each an
/// unsharded unit or one shard of a sharded one — and what it was priced
/// at: on the task pool, or inline on the serving thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFork {
    /// `fetch`, the one round site.
    pub site: &'static str,
    pub tasks: usize,
    pub pooled: bool,
    /// The tasks' expected total and largest time, when every task's was
    /// known.
    pub expected: Option<(Duration, Duration)>,
    /// The wake-up the round was priced against, when a pool could take
    /// it (none on one core, or for a round nested in a pool task).
    pub wake: Option<Duration>,
}

impl fmt::Display for RoundFork {
    /// EXPLAIN ANALYZE's line: `round: fetch 2 units inline, expected 4.2
    /// µs (1.9 beside the largest) against a 25.0 µs wake-up`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let way = if self.pooled { "pooled" } else { "inline" };
        write!(f, "round: {} {} units {}, ", self.site, self.tasks, way)?;
        let Some((total, largest)) = self.expected else {
            return f.write_str("cost unknown");
        };
        write!(f, "expected {:.1} µs ({:.1} beside the largest)", us(total), us(total - largest))?;
        match self.wake {
            Some(wake) => write!(f, " against a {:.1} µs wake-up", us(wake)),
            None => f.write_str(", no pool to take it"),
        }
    }
}

/// Everything recorded about one serve. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Admission number in the engine's query log (a logical timestamp;
    /// 0 before the log admitted the report).
    pub seq: u64,
    /// The serve's correlation id (`TraceId`'s number): the same id tags
    /// its source calls, spans, and every export.
    pub trace_id: u64,
    /// Engine instance that served the query.
    pub instance: Arc<str>,
    /// Query text, cut to [`QueryLog::MAX_TEXT`](crate::QueryLog::MAX_TEXT)
    /// characters.
    pub text: String,
    /// Wall time from admission to the recording site.
    pub elapsed_ms: f64,
    /// Wall time of each stage that ran, in order. The stages are laps
    /// of one clock, so they sum to all but the serve's bookkeeping.
    pub phases: Phases,
    /// Binding tuples that reached CONSTRUCT.
    pub tuples: usize,
    /// Adapter calls made (fragment executions and collection fetches).
    pub source_calls: SourceCalls,
    /// Fragments pushed down to sources.
    pub fragments_pushed: usize,
    /// Rows shipped from sources into the mediator (fragment rows plus
    /// pattern matches over fetched collections).
    pub rows_fetched: u64,
    /// False when a source did not contribute, or the serve failed
    /// (§3.4 partial results).
    pub complete: bool,
    /// An unavailable source was answered from stale cached data.
    pub stale: bool,
    /// Sources that contributed nothing (sorted, deduplicated).
    pub missing_sources: Vec<String>,
    /// Indices (document order) of the answers whose lineage touches a
    /// stale-served source — empty unless lineage tracking was on.
    pub affected_answers: Vec<usize>,
    /// `kind: message` when the serve failed.
    pub error: Option<String>,
    /// EXPLAIN of the physical plan and the optimizer's notes, when the
    /// serve had a reader for it (a result envelope).
    pub plan: String,
    /// The serve as a span tree — a `query` root over its stages — when
    /// kept.
    pub spans: Vec<SpanView>,
    /// Heap bytes allocated while serving (0 unless the `profile-alloc`
    /// feature is compiled in).
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes above the serve's entry level.
    pub alloc_peak_bytes: u64,
    /// Operator kind whose cardinality estimate missed its measured
    /// actual by the largest factor.
    pub worst_qerror_op: Option<String>,
    /// That operator's Q-error, `max(est/act, act/est)` — 1.0 is a
    /// perfect estimate; 0 when no scoring ran.
    pub worst_qerror: f64,
    /// Each round of two or more tasks the serve ran, in the order they
    /// ran: on the pool or inline.
    pub rounds: Vec<RoundFork>,
}

impl ServeReport {
    /// A report for a serve of `text` just admitted: the text is cut to
    /// [`QueryLog::MAX_TEXT`](crate::QueryLog::MAX_TEXT) characters here,
    /// once.
    pub fn new(trace_id: u64, instance: &Arc<str>, text: &str) -> ServeReport {
        const MAX: usize = crate::QueryLog::MAX_TEXT;
        // A text of at most MAX bytes has at most MAX chars.
        let cut = match text.len() <= MAX {
            true => text.len(),
            false => text.char_indices().nth(MAX).map_or(text.len(), |(at, _)| at),
        };
        ServeReport {
            trace_id,
            instance: Arc::clone(instance),
            text: text[..cut].to_string(),
            ..ServeReport::default()
        }
    }

    /// The summary every serve has, without the evidence: no plan text,
    /// spans, or per-call records.
    pub fn summary(&self) -> ServeReport {
        let mut summary = self.clone();
        summary.strip_evidence();
        summary
    }

    /// Drop the evidence in place, keeping the summary.
    pub fn strip_evidence(&mut self) {
        self.plan = String::new();
        self.spans = Vec::new();
        self.source_calls.records = Vec::new();
    }

    /// Single-line JSON: one line of the query-log JSONL and of the
    /// flight recorder's dump.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"trace_id\":\"{}\",\"instance\":\"{}\",\"text\":\"{}\",\
             \"elapsed_ms\":{},\"tuples\":{},\"complete\":{},\"stale\":{},",
            self.seq,
            crate::TraceId(self.trace_id),
            json_escape(&self.instance),
            json_escape(&self.text),
            json_num(self.elapsed_ms),
            self.tuples,
            self.complete,
            self.stale,
        );
        let quoted: Vec<String> = self
            .missing_sources
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect();
        let answers: Vec<String> = self.affected_answers.iter().map(usize::to_string).collect();
        let _ = write!(
            out,
            "\"missing_sources\":[{}],\"affected_answers\":[{}],\"error\":{},\"plan\":\"{}\",",
            quoted.join(","),
            answers.join(","),
            json_opt(self.error.as_deref()),
            json_escape(&self.plan),
        );
        let spans: Vec<String> = self.spans.iter().map(span_json).collect();
        let calls: Vec<String> = self.source_calls.iter().map(source_call_json).collect();
        let rounds: Vec<String> = self.rounds.iter().map(round_json).collect();
        let _ = write!(
            out,
            "\"spans\":[{}],\"source_calls\":[{}],\"rounds\":[{}],\"resource\":{{\"alloc_bytes\":{},\
             \"alloc_peak_bytes\":{},\"worst_qerror_op\":{},\"worst_qerror\":{}}}}}",
            spans.join(","),
            calls.join(","),
            rounds.join(","),
            self.alloc_bytes,
            self.alloc_peak_bytes,
            json_opt(self.worst_qerror_op.as_deref()),
            json_num(self.worst_qerror),
        );
        out
    }
}

/// A JSON string, or `null`.
fn json_opt(s: Option<&str>) -> String {
    s.map_or_else(|| "null".to_string(), |s| format!("\"{}\"", json_escape(s)))
}

fn span_json(s: &SpanView) -> String {
    format!(
        "{{\"name\":\"{}\",\"depth\":{},\"start_ms\":{},\"ms\":{}}}",
        json_escape(&s.name),
        s.depth,
        json_num(s.start_ms),
        json_num(s.ms),
    )
}

fn round_json(r: &RoundFork) -> String {
    let us = |d: Option<Duration>| d.map_or_else(|| "null".to_string(), |d| json_num(d.as_secs_f64() * 1e6));
    format!(
        "{{\"site\":\"{}\",\"tasks\":{},\"pooled\":{},\"expected_us\":{},\"largest_us\":{},\"wake_us\":{}}}",
        r.site,
        r.tasks,
        r.pooled,
        us(r.expected.map(|(total, _)| total)),
        us(r.expected.map(|(_, largest)| largest)),
        us(r.wake),
    )
}

fn source_call_json(c: &SourceCall) -> String {
    format!(
        "{{\"source\":\"{}\",\"kind\":\"{}\",\"ok\":{},\"latency_ms\":{},\"rows\":{},\"error\":{}}}",
        json_escape(&c.source),
        json_escape(&c.kind),
        c.ok,
        json_num(c.latency_ms),
        c.rows,
        json_opt(c.error.as_deref()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report(error: Option<&str>) -> ServeReport {
        let mut r = ServeReport {
            seq: 3,
            trace_id: 9,
            instance: "engine-0".into(),
            text: "q \"quoted\"".into(),
            elapsed_ms: 2.0,
            tuples: 3,
            complete: error.is_none(),
            missing_sources: vec!["billing".into(), "crm".into()],
            affected_answers: vec![0, 2],
            error: error.map(String::from),
            plan: "-- pushed\nValues [a]".into(),
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
            ..ServeReport::default()
        };
        r.phases.add(Stage::Plan, 0.5);
        r.phases.add(Stage::Execute, 1.0);
        r.phases.add(Stage::Construct, 0.25);
        r
    }

    #[test]
    fn the_text_is_cut_once_at_a_char_boundary() {
        let long = "é".repeat(1000);
        let r = ServeReport::new(1, &"engine-0".into(), &long);
        assert_eq!(r.text.chars().count(), crate::QueryLog::MAX_TEXT);
        assert_eq!(ServeReport::new(1, &"engine-0".into(), "short").text, "short");
    }

    #[test]
    fn a_stage_met_twice_is_one_entry_in_first_order() {
        let mut phases = Phases::default();
        phases.add(Stage::Plan, 1.0);
        phases.add(Stage::Verify, 0.5);
        phases.add(Stage::Execute, 2.0);
        phases.add(Stage::Verify, 0.25);
        assert_eq!(phases[..], [(Stage::Plan, 1.0), (Stage::Verify, 0.75), (Stage::Execute, 2.0)]);
        assert!(phases.iter().any(|(s, _)| s == "verify"));
    }

    #[test]
    fn the_json_line_carries_summary_and_evidence() {
        let mut r = report(Some("source: crm offline"));
        r.spans = SpanView::tree(r.elapsed_ms, &r.phases);
        r.rounds = vec![ROUND, RoundFork { pooled: true, expected: None, ..ROUND }];
        let line = r.to_json();
        let parsed: json::Value = json::from_str(&line).expect("one JSON object");
        assert_eq!(parsed["trace_id"], crate::TraceId(9).to_string().as_str());
        assert_eq!(parsed["text"], "q \"quoted\"");
        assert_eq!(parsed["missing_sources"].as_array().map(Vec::len), Some(2));
        assert_eq!(parsed["error"], "source: crm offline");
        assert_eq!(parsed["spans"].as_array().map(Vec::len), Some(4));
        assert_eq!(parsed["source_calls"].as_array().map(|c| c[0]["source"] == "crm"), Some(true));
        assert_eq!(parsed["resource"]["alloc_bytes"].as_u64(), Some(2048));
        assert!(line.contains("\"affected_answers\":[0,2]"));
        assert!(line.contains("\"worst_qerror_op\":\"hash join\""));
        let rounds = parsed["rounds"].as_array().expect("the rounds");
        assert_eq!((rounds[0]["pooled"].as_bool(), rounds[0]["wake_us"].as_f64()), (Some(false), Some(30.0)));
        assert_eq!((rounds[1]["pooled"].as_bool(), &rounds[1]["expected_us"]), (Some(true), &json::Value::Null));

        let summary = report(None).summary().to_json();
        assert!(summary.contains("\"error\":null"));
        assert!(summary.contains("\"plan\":\"\",\"spans\":[],\"source_calls\":[]"));
    }

    const ROUND: RoundFork = RoundFork {
        site: "fetch",
        tasks: 2,
        pooled: false,
        expected: Some((Duration::from_micros(4), Duration::from_micros(3))),
        wake: Some(Duration::from_micros(30)),
    };

    #[test]
    fn a_round_prints_its_fork_and_its_price() {
        assert_eq!(ROUND.to_string(), "round: fetch 2 units inline, expected 4.0 µs (1.0 beside the largest) against a 30.0 µs wake-up");
        let unknown = RoundFork { tasks: 5, pooled: true, expected: None, ..ROUND };
        assert_eq!(unknown.to_string(), "round: fetch 5 units pooled, cost unknown");
        let nested = RoundFork { wake: None, ..ROUND };
        assert!(nested.to_string().ends_with("(1.0 beside the largest), no pool to take it"));
    }

    #[test]
    fn source_calls_compare_and_print_as_their_count() {
        let calls = report(None).source_calls;
        assert!(calls == 1 && calls > 0 && calls.len() == 1);
        assert_eq!(calls, SourceCalls { count: 1, records: Vec::new() });
        assert_eq!(format!("{:>3}", calls), "  1");
    }
}
