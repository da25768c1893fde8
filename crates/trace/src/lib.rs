//! # nimble-trace
//!
//! The workspace's std-only leaf: observability primitives for the Nimble
//! reproduction, and the three modules every other crate shares so that
//! the workspace needs no external crate — [`sync`] (locks whose guards
//! come back without a `Result`), [`rng`] (the seeded generator and the
//! `sweep` runner) and [`json`] (values, a strict reader, writers).
//!
//! The paper's product ships "management tools [that] support system
//! monitoring" and reports fine-grained usage; §3.4 promises partial
//! results whose quality an operator must be able to see. This crate is
//! the substrate those promises stand on:
//!
//! * [`ServeReport`] — the one record of one serve: ids, text, the
//!   [`Stage`] times (`parse → analyze → plan → verify → execute →
//!   construct`), counts, the §3.4 completeness verdict and — when
//!   profiled or kept — the evidence (plan, [`SpanView`]s, per-call
//!   records). The engine's metrics, query log and flight recorder are
//!   all fed from it, at one site.
//! * [`Histogram`] — lock-free log-bucketed latency histograms with
//!   p50/p95/p99, exact count/sum/min/max, and mergeable snapshots.
//! * [`MetricsRegistry`] — a named collection of monotonic counters,
//!   max-gauges, and histograms with [`MetricsRegistry::snapshot`],
//!   snapshot [`MetricsSnapshot::diff`]/[`MetricsSnapshot::merge`], and a
//!   process-global instance ([`MetricsRegistry::global`]).
//! * [`QueryLog`] — a bounded ring of recent serve reports' summaries
//!   plus a bounded capture of the slowest ones.
//! * [`QueryCtx`] / [`TraceId`] — per-query correlation context,
//!   propagated through a thread-local stack so adapters and the
//!   cleaning pipeline tag their work with the query's trace id.
//! * [`chrome_trace`] / [`query_log_jsonl`] / [`prometheus_text`] —
//!   exporters into formats external tools read directly
//!   (`about:tracing`/Perfetto, JSONL streams, Prometheus scrapes).
//! * [`FlightRecorder`] — a bounded tail-sampling ring that retains
//!   whole reports (span tree, plan, source calls) for slow, partial,
//!   or failed serves only.
//! * [`AlertEngine`] — declarative threshold and burn-rate rules
//!   evaluated over snapshot diffs, firing once per sustained breach.
//! * [`AllocScope`] — scope-based allocation deltas (count, bytes,
//!   peak) over a thread-aware counting global allocator, gated on the
//!   `profile-alloc` feature (on for tests and benches).
//!
//! Everything here is `std`-only (no external dependencies) so every
//! crate in the workspace can depend on it without widening the
//! dependency tree. All types are `Send + Sync` and cheap enough to
//! leave enabled in production: counters and histograms are atomics, and
//! the registry's name lookup is amortized by caching the returned
//! `Arc` handles at call sites.

pub mod alert;
pub mod alloc;
pub mod ctx;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod querylog;
pub mod report;
pub mod rng;
pub mod span;
pub mod sync;

pub use alert::{Alert, AlertEngine, AlertOp, AlertRule, BurnRateRule};
pub use alloc::{AllocScope, AllocStats};
pub use ctx::{CtxGuard, QueryCtx, SourceCall, TraceId};
pub use export::{chrome_trace, json_escape, query_log_jsonl};
pub use flight::FlightRecorder;
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use prom::prometheus_text;
pub use querylog::QueryLog;
pub use report::{Phases, RoundFork, ServeReport, SourceCalls, Stage};
pub use span::SpanView;
