//! The integration engine: end-to-end query service.

use crate::catalog::Catalog;
use crate::construct;
use crate::error::CoreError;
use crate::matcher::{self, BindPatternOp};
use crate::plan_cache::{Observed, PlanCache, PlanStamp, Prepared};
use crate::planner::{self, cost, AtomExec, BindStage, Bound, Plan, Scope, ShardPlan};
use crate::shard::ShardRuntime;
use nimble_algebra::ops::{
    EmptyOp, FilterOp, HashJoinOp, JoinType, NestedLoopJoinOp, Operator, ProjectOp,
    SortKey, SortOp, ValuesOp,
};
use nimble_algebra::{
    explain as explain_ops, par_tasks, run_to_vec_batched, Costs, ExecError,
    FunctionRegistry, LineageMask, ScalarExpr, Schema, Tuple,
};
use nimble_sources::query::{cursor_field, FieldRef, SourceQuery, Watermark};
use nimble_store::{LogicalClock, ResultCache, ViewStore, WorkloadMonitor};
use nimble_trace::{
    AllocScope, AllocStats, FlightRecorder, Histogram, MetricsRegistry, MetricsSnapshot, QueryCtx,
    QueryLog, RoundFork, ServeReport, SourceCall, SpanView, Stage,
};
use nimble_xml::{Atomic, AtomicKey, Document, DocumentBuilder, Sym, Value, XmlWriter};
use nimble_xmlql::ast::{Query, TagPattern};
use nimble_trace::sync::RwLock;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod refresh;

/// Maximum nesting of view evaluation / subqueries, guarding against
/// transitively cyclic view definitions.
const MAX_DEPTH: u32 = 16;

/// A scan estimate that undershoots the actual row count by more than
/// this factor is a *gross* misestimate: the observed count is fed back
/// into the statistics catalog instead of waiting for the next
/// unfiltered fetch to correct it.
const GROSS_QERROR: u64 = 16;

/// Optimizer switches. Each one changes what the sources are asked or
/// what the caller is promised, and its off arm is a skipped phase, not
/// a second implementation (experiment E5 flips the first two; the
/// differential suites use `pushdown: false` and `prune_unsat: false`
/// as their reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Push selections/projections into capable sources.
    pub pushdown: bool,
    /// Merge same-source fragments into pushed joins.
    pub capability_joins: bool,
    /// Prune statically-unsatisfiable queries (`$x > 5 AND $x < 3`, or
    /// predicates outside exhaustive-sample statistics bounds) to an
    /// annotated empty relation without contacting any source, and
    /// eliminate always-true residual predicates.
    pub prune_unsat: bool,
    /// Statically verify every planned query (`nimble-planck`: structure,
    /// type/nullability inference) before opening the operator tree, and
    /// re-plan a sample of plan-cache hits to check the cached template.
    /// Defaults to on in debug builds (and therefore in tests), off in
    /// release builds. The rewrite audit runs regardless.
    pub verify_plans: bool,
    /// Per-tuple data provenance: tag every fetched unit with a compact
    /// [`LineageMask`], propagate masks through the physical pipeline,
    /// and attribute every constructed answer to the exact set of
    /// source fragments it was derived from ([`QueryResult::provenance`],
    /// `why()`, and the flight recorder's `affected_answers`). Off by
    /// default: the executor then allocates no lineage state at all.
    pub track_lineage: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            pushdown: true,
            capability_joins: true,
            prune_unsat: true,
            verify_plans: cfg!(debug_assertions),
            track_lineage: false,
        }
    }
}

impl OptimizerConfig {
    /// Stable fingerprint over every flag, folded into the result-cache
    /// and plan-cache keys so toggling any optimizer switch can never
    /// serve an entry produced under a different configuration.
    pub fn fingerprint(&self) -> u64 {
        let flags = [
            self.pushdown,
            self.capability_joins,
            self.prune_unsat,
            self.verify_plans,
            self.track_lineage,
        ];
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for b in flags {
            fp ^= u64::from(b) + 1;
            fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fp
    }
}

/// What to do when a source is unavailable mid-query (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnavailablePolicy {
    /// Propagate the failure (the behavior the paper calls "often not
    /// acceptable").
    Fail,
    /// Contribute no tuples for the failed fragment and annotate the
    /// result as incomplete.
    SkipAndAnnotate,
    /// Like `SkipAndAnnotate`, but first fall back to the most recent
    /// cached copy of the failed fragment, marking the result stale.
    StaleCache,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub optimizer: OptimizerConfig,
    pub unavailable: UnavailablePolicy,
    /// Node budget of the stale-fragment cache (the
    /// [`UnavailablePolicy::StaleCache`] fallback). 0 disables it.
    pub cache_nodes: usize,
    /// Queries at or above this wall time enter the slow-query capture
    /// of the engine's query log. The flight recorder uses the same
    /// threshold for its keep decision.
    pub slow_query_ms: f64,
    /// Compiled-plan cache capacity (distinct query shapes: texts that
    /// differ only in their equality parameters share one). Repeated
    /// shapes skip analyze/plan/planck-verify while the catalog epoch,
    /// optimizer fingerprint, and statistics generation are unchanged.
    /// 0 disables plan caching: every text is planned.
    pub plan_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            optimizer: OptimizerConfig::default(),
            unavailable: UnavailablePolicy::Fail,
            cache_nodes: 200_000,
            slow_query_ms: 100.0,
            plan_cache_capacity: 128,
        }
    }
}

/// One contributing unit in a query's provenance table: a source
/// fragment, a fetched collection, or a mediated view, as it answered
/// *this* query. The table index is the unit's per-query lineage id —
/// the bit position [`LineageMask`]s refer to.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvSource {
    /// Source (or view) name.
    pub name: String,
    /// What was fetched: `fragment`, `collection:<name>`, or `view`.
    pub detail: String,
    /// This unit was served from a stale cached copy after the live
    /// source failed (§3.4 stale-fallback).
    pub stale: bool,
    /// Age of the served cached copy, for stale-served units.
    pub cache_age_ms: Option<f64>,
    /// The unit is a mediated view rather than a direct source.
    pub view: bool,
}

/// Per-answer data provenance: which source fragments each constructed
/// answer was derived from. Populated when
/// [`OptimizerConfig::track_lineage`] is on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    /// The query's contributing units, indexed by lineage id.
    pub sources: Vec<ProvSource>,
    /// One mask per top-level answer element, in document order.
    pub answers: Vec<LineageMask>,
    /// Sources that contributed nothing (sorted, deduplicated) — the
    /// aggregated completeness report next to the per-answer masks.
    pub missing: Vec<String>,
}

impl Provenance {
    /// The contributing units of answer `i` ("why is this answer in the
    /// result?"), in lineage-id order. Empty for an out-of-range index.
    pub fn why(&self, i: usize) -> Vec<&ProvSource> {
        self.answers
            .get(i)
            .map(|mask| {
                mask.ids()
                    .into_iter()
                    .filter_map(|id| self.sources.get(id as usize))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Indices (document order) of answers whose lineage touches a
    /// stale-served unit.
    pub fn stale_answers(&self) -> Vec<usize> {
        self.answers
            .iter()
            .enumerate()
            .filter(|(_, mask)| {
                mask.ids()
                    .into_iter()
                    .any(|id| self.sources.get(id as usize).is_some_and(|s| s.stale))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-source contribution counts: how many answers each named
    /// source (or view) contributed to, in first-contribution order.
    pub fn contributions(&self) -> Vec<(String, usize)> {
        let mut rows: Vec<(String, usize)> = self
            .sources
            .iter()
            .map(|s| (s.name.clone(), 0))
            .collect();
        // Merge duplicate names (several fragments of one source).
        rows.dedup_by(|b, a| b.0 == a.0);
        for mask in &self.answers {
            let mut touched: Vec<&str> = Vec::new();
            for id in mask.ids() {
                if let Some(s) = self.sources.get(id as usize) {
                    if !touched.contains(&s.name.as_str()) {
                        touched.push(&s.name);
                    }
                }
            }
            for name in touched {
                if let Some(row) = rows.iter_mut().find(|(n, _)| n == name) {
                    row.1 += 1;
                }
            }
        }
        rows
    }
}

/// A query answer: the constructed document plus the completeness
/// annotations of §3.4 ("providing partial results, and indicating to
/// the user that the results were not complete").
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub document: Arc<Document>,
    /// False when any source could not contribute.
    pub complete: bool,
    /// Sources that failed to contribute (sorted, deduplicated).
    pub missing_sources: Vec<String>,
    /// True when stale cached data substituted for a live source.
    pub stale: bool,
    /// Per-answer lineage, when [`OptimizerConfig::track_lineage`] was
    /// on for this query.
    pub provenance: Option<Provenance>,
    /// The serve's report: the record the query log and flight recorder
    /// were given, with the EXPLAIN text of its plan.
    pub stats: ServeReport,
}

impl QueryResult {
    /// The contributing units of answer `i` — `None` when lineage
    /// tracking was off.
    pub fn why(&self, i: usize) -> Option<Vec<&ProvSource>> {
        self.provenance.as_ref().map(|p| p.why(i))
    }
}

/// One instance of the integration engine.
pub struct Engine {
    catalog: Arc<Catalog>,
    views: ViewStore,
    cache: ResultCache,
    clock: Arc<LogicalClock>,
    monitor: WorkloadMonitor,
    config: RwLock<EngineConfig>,
    funcs: RwLock<Arc<FunctionRegistry>>,
    in_flight: AtomicU64,
    queries_served: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    /// The serve-level metric handles [`Engine::record`] moves.
    serve_metrics: ServeMetrics,
    query_log: QueryLog,
    /// Process-unique instance name (`engine-N`), carried in every
    /// trace export so merged cluster records stay attributable.
    instance: Arc<str>,
    flight: FlightRecorder,
    /// Compiled plans keyed by query shape + validity stamp.
    plans: PlanCache,
    /// Monotone counter of plan-cache hits, driving the sampled
    /// differential re-plan (every [`DIFFERENTIAL_SAMPLE`]-th hit,
    /// starting with the first).
    differential_seq: AtomicU64,
    /// Shard runtime for partitioned collections, when this engine acts
    /// as the coordinator of a sharded cluster. Plans compiled while one
    /// is attached route scans over its partitions to one fetch task per
    /// shard, and the plan-cache stamp folds in its map epoch.
    shards: RwLock<Option<Arc<ShardRuntime>>>,
    /// Each source's `source.*` metric handles, looked up on first use.
    source_metrics: RwLock<HashMap<String, Arc<SourceMetrics>>>,
}

/// The `source.*` metrics of one source. Each is looked up in the
/// registry the first time it moves, so a fetch formats no metric name
/// and a metric that never moved is not in the registry.
struct SourceMetrics {
    registry: Arc<MetricsRegistry>,
    source: String,
    calls: OnceLock<Arc<AtomicU64>>,
    latency_us: OnceLock<Arc<Histogram>>,
    errors: OnceLock<Arc<AtomicU64>>,
    failures: OnceLock<Arc<AtomicU64>>,
    stale_served: OnceLock<Arc<AtomicU64>>,
}

impl SourceMetrics {
    fn new(registry: Arc<MetricsRegistry>, source: &str) -> SourceMetrics {
        SourceMetrics {
            registry,
            source: source.to_string(),
            calls: OnceLock::new(),
            latency_us: OnceLock::new(),
            errors: OnceLock::new(),
            failures: OnceLock::new(),
            stale_served: OnceLock::new(),
        }
    }

    /// Count one on the counter `family` + the source's name, held in
    /// `cell`.
    fn count(&self, cell: &OnceLock<Arc<AtomicU64>>, family: &str) {
        cell.get_or_init(|| self.registry.counter(&format!("{}{}", family, self.source)))
            .fetch_add(1, Ordering::Relaxed);
    }

    fn latency(&self, call_ms: f64) {
        self.latency_us
            .get_or_init(|| self.registry.histogram(&format!("source.latency_us.{}", self.source)))
            .record(us(call_ms));
    }
}

/// The engine-wide metrics every serve moves. Each is looked up in the
/// registry the first time it moves, as [`SourceMetrics`] are, so a
/// serve formats no metric name and takes no registry lock.
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    counters: [OnceLock<Arc<AtomicU64>>; 8],
    histograms: [OnceLock<Arc<Histogram>>; 3],
    /// `engine.phase_us.*`, by [`Stage`].
    phase_us: [OnceLock<Arc<Histogram>>; 6],
    /// `engine.phase_alloc.bytes.*`, by [`Stage`].
    phase_alloc: [OnceLock<Arc<Histogram>>; 6],
}

/// A counter of [`ServeMetrics`].
#[derive(Clone, Copy)]
enum Count {
    Queries,
    Errors,
    PlanCacheHits,
    PlanCacheMisses,
    Batches,
    BatchRows,
    Streamed,
    TreeFallback,
}

/// A histogram of [`ServeMetrics`].
#[derive(Clone, Copy)]
enum Hist {
    QueryUs,
    PipelineUs,
    ScanQerror,
}

impl ServeMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> ServeMetrics {
        ServeMetrics {
            registry,
            counters: Default::default(),
            histograms: Default::default(),
            phase_us: Default::default(),
            phase_alloc: Default::default(),
        }
    }

    fn incr(&self, count: Count, n: u64) {
        let name = match count {
            Count::Queries => "engine.queries",
            Count::Errors => "engine.query.error",
            Count::PlanCacheHits => "engine.plan_cache.hits",
            Count::PlanCacheMisses => "engine.plan_cache.misses",
            Count::Batches => "engine.exec.batches",
            Count::BatchRows => "engine.exec.batch_rows",
            Count::Streamed => "engine.construct.streamed",
            Count::TreeFallback => "engine.construct.tree_fallback",
        };
        self.counters[count as usize]
            .get_or_init(|| self.registry.counter(name))
            .fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, v: u64) {
        let name = match hist {
            Hist::QueryUs => "engine.query_us",
            Hist::PipelineUs => "engine.exec.pipeline_us",
            Hist::ScanQerror => "plan.qerror.scan",
        };
        self.histograms[hist as usize].get_or_init(|| self.registry.histogram(name)).record(v);
    }

    fn stage<'a>(&self, cell: &'a OnceLock<Arc<Histogram>>, family: &str, stage: Stage) -> &'a Histogram {
        cell.get_or_init(|| self.registry.histogram(&format!("{}{}", family, stage)))
    }

    /// One serve recorded: counted, timed, and its stages timed.
    fn served(&self, report: &ServeReport) {
        self.incr(Count::Queries, 1);
        self.observe(Hist::QueryUs, us(report.elapsed_ms));
        for &(stage, ms) in &report.phases {
            self.stage(&self.phase_us[stage as usize], "engine.phase_us.", stage).record(us(ms));
        }
    }

    /// One failed serve, by its error's kind.
    fn failed(&self, kind: &str) {
        self.incr(Count::Errors, 1);
        self.registry.incr(&format!("engine.query.error.{}", kind), 1);
    }

    /// The bytes one stage allocated. A no-op when the `profile-alloc`
    /// feature is compiled out, so its histograms never exist there.
    fn stage_alloc(&self, stage: Stage, stats: AllocStats) {
        if nimble_trace::alloc::enabled() {
            let cell = &self.phase_alloc[stage as usize];
            self.stage(cell, "engine.phase_alloc.bytes.", stage).record(stats.bytes);
        }
    }
}

/// Which way a serve came by its plan, as EXPLAIN's first line says it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanPath {
    /// Planned for the text (a plan-cache miss).
    Planned,
    /// The cached plan of the text's shape, served with the text's
    /// values.
    Shape,
    /// A cached plan that routes shards on the text's values, and so
    /// serves those values alone.
    Routed,
    /// The caller's ([`Engine::query_planned`]).
    Given,
}

impl PlanPath {
    /// The line EXPLAIN opens with, for a serve of `params` parameter
    /// values.
    fn explain(self, params: usize) -> Cow<'static, str> {
        match self {
            PlanPath::Planned => "plan: planned".into(),
            PlanPath::Shape => format!("plan: cached shape, {} parameters bound", params).into(),
            PlanPath::Routed => "plan: cached for these values only (shard routing)".into(),
            PlanPath::Given => "plan: given".into(),
        }
    }
}

/// One in how many plan-cache hits is differentially re-planned under
/// `verify_plans` (the first hit is always sampled, so a test
/// exercising the path needs exactly one hit).
const DIFFERENTIAL_SAMPLE: u64 = 16;

/// Ring-buffer capacity of each engine's query log.
const QUERY_LOG_CAPACITY: usize = 256;
/// Slowest-query entries retained past ring eviction.
const SLOW_QUERY_CAPACITY: usize = 32;
/// Flight-recorder ring capacity: how many slow, partial or failed
/// serves keep their whole evidence (span tree, plan, source calls).
const FLIGHT_CAPACITY: usize = 64;

/// A query ready to execute: what [`Engine::compile`] makes of a text.
/// The prepared plan is served with `params`, the text's own values of
/// its equality parameters ([`Query::eq_params`]).
struct Compiled {
    prepared: Arc<Prepared>,
    params: Vec<Atomic>,
    /// False when the plan's operator shape verified clean when it was
    /// cached.
    planck_verify: bool,
    path: PlanPath,
}

/// Where a serve's answer goes — the one way the serve methods differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A result envelope ([`QueryResult`]): the answer as a document
    /// (built through a [`DocumentBuilder`]), its report with the EXPLAIN
    /// text, and its provenance.
    Tree,
    /// The answer's bytes alone, streamed through an [`XmlWriter`] when
    /// the template nests no subquery (and serialized from a document
    /// when it does); no EXPLAIN text is rendered.
    Xml,
}

/// What a serve produced, before it is recorded.
struct Answered {
    prepared: Arc<Prepared>,
    /// Nodes of the answer document; 0 for a streamed one, which has
    /// no node count.
    nodes: usize,
    answer: Answer,
}

enum Answer {
    Document(Arc<Document>, Option<Provenance>),
    Xml(String),
}

/// A serve's stage clock. Each stage is a lap of it, timed and
/// allocation-scoped from where the previous stage ended, inside one
/// scope for the whole serve — so the stages cover the serve.
struct Laps {
    started: Instant,
    serve: AllocScope,
    at: Instant,
    lap: Option<AllocScope>,
}

impl Laps {
    /// The clock of a serve admitted at `started`.
    fn start(started: Instant) -> Laps {
        Laps {
            started,
            serve: AllocScope::enter(),
            at: started,
            lap: Some(AllocScope::enter()),
        }
    }

    /// End the running lap: its milliseconds and allocations.
    fn lap(&mut self) -> (f64, AllocStats) {
        let now = Instant::now();
        let ms = now.duration_since(self.at).as_secs_f64() * 1e3;
        self.at = now;
        let stats = self.lap.take().map(AllocScope::finish).unwrap_or_default();
        self.lap = Some(AllocScope::enter());
        (ms, stats)
    }

    /// The whole serve's milliseconds and allocations.
    fn finish(mut self) -> (f64, AllocStats) {
        if let Some(lap) = self.lap.take() {
            lap.finish();
        }
        (ms_since(self.started), self.serve.finish())
    }
}

/// Mutable context threaded through one query's evaluation: the one
/// thing every stage of a serve is handed.
struct ExecCtx {
    /// The settings the serve (or refresh) started with, read once: a
    /// change that lands mid-serve reaches the next serve.
    config: EngineConfig,
    /// Views and subqueries this evaluation is nested in ([`Engine::nested`]).
    depth: u32,
    /// What the evaluation found: missing sources, staleness, counts,
    /// EXPLAIN text, the worst Q-error. A serve's top-level context
    /// carries the serve's report, its stages filled as they end.
    report: ServeReport,
    /// The serve's stage clock (top-level context only).
    laps: Option<Laps>,
    /// Of the running stage's time, what a stage nested in it took
    /// (verification inside execute, [`ExecCtx::lend`]): [`Engine::end_stage`]
    /// gives it back.
    lent_ms: f64,
    /// Whether anyone can read the EXPLAIN text: a result envelope or
    /// EXPLAIN. A streamed serve returns the answer's bytes alone and
    /// clears it, and then no EXPLAIN text — the sources' SQL included —
    /// is rendered, and no operator tree is walked for its Q-errors.
    /// A fetch task's context inherits it.
    want_plan_text: bool,
    /// EXPLAIN's first line: [`Compiled::path`] of the top-level query.
    plan_path: Option<PlanPath>,
    /// Lineage tracking enabled for this evaluation scope. Starts true;
    /// view materialization internals clear it (a view contributes as
    /// one unit, not per underlying source). Read through
    /// [`ExecCtx::tracking`].
    track: bool,
    /// Per-query provenance table, indexed by lineage id. Interning is
    /// always sequential (fetch tasks never intern; the join loop does),
    /// so ids are dense and in plan order.
    prov: Vec<ProvSource>,
    /// Per-tuple masks of the relation the most recent
    /// `eval_planned`/`eval_pruned` run produced, aligned with its
    /// tuples; `None` when that run did not track.
    last_lin: Option<Vec<LineageMask>>,
    /// The watermark of every stamped fragment answer a source gave this
    /// evaluation, under its `source.collection` (a view refresh reads
    /// them; no other fragment asks for one).
    marks: Vec<(String, Watermark)>,
}

impl ExecCtx {
    /// A context under `config`, at the top level, that has found nothing.
    fn new(config: EngineConfig) -> ExecCtx {
        ExecCtx {
            config,
            depth: 0,
            report: ServeReport::default(),
            laps: None,
            lent_ms: 0.0,
            want_plan_text: true,
            plan_path: None,
            track: true,
            prov: Vec::new(),
            last_lin: None,
            marks: Vec::new(),
        }
    }

    /// The top-level context of the serve `report` describes, admitted
    /// at `started` under `config`: its stage clock runs from there.
    fn serving(config: EngineConfig, report: ServeReport, started: Instant) -> ExecCtx {
        ExecCtx {
            report,
            laps: Some(Laps::start(started)),
            ..ExecCtx::new(config)
        }
    }

    /// A context with this one's settings and scope that has found
    /// nothing yet: one run of a refresh. (A fetch task's is made the
    /// same way, from copies, on the thread that runs it.)
    fn fresh(&self) -> ExecCtx {
        ExecCtx {
            depth: self.depth,
            track: self.track,
            want_plan_text: self.want_plan_text,
            ..ExecCtx::new(self.config.clone())
        }
    }

    /// Whether this scope tags what it fetches with lineage: the serve's
    /// `track_lineage`, outside a view's evaluation.
    fn tracking(&self) -> bool {
        self.config.optimizer.track_lineage && self.track
    }

    /// Register one contributing unit in the provenance table, handing
    /// back its singleton lineage mask.
    fn intern_source(&mut self, p: ProvSource) -> LineageMask {
        let id = self.prov.len() as u32;
        self.prov.push(p);
        LineageMask::single(id)
    }

    fn miss(&mut self, source: &str) {
        if !self.report.missing_sources.iter().any(|s| s == source) {
            self.report.missing_sources.push(source.to_string());
        }
    }

    /// Attribute `ms` of the running stage to `stage`, which ran nested
    /// in it — verification inside execute — when this is a serve's
    /// top-level context.
    fn lend(&mut self, stage: Stage, ms: f64) {
        if self.laps.is_some() {
            self.report.phases.add(stage, ms);
            self.lent_ms += ms;
        }
    }

    /// Note the Q-error of `op`'s estimate, when it is the worst yet.
    fn qerror(&mut self, q: f64, op: &str) {
        if q > self.report.worst_qerror {
            self.report.worst_qerror = q;
            self.report.worst_qerror_op = Some(op.to_string());
        }
    }

    /// Fold a fetch task's context back into the query's context.
    fn merge(&mut self, other: ExecCtx) {
        let ExecCtx { report, marks, .. } = other;
        for m in &report.missing_sources {
            self.miss(m);
        }
        let mine = &mut self.report;
        mine.rounds.extend(report.rounds);
        mine.stale |= report.stale;
        mine.source_calls.count += report.source_calls.count;
        mine.fragments_pushed += report.fragments_pushed;
        mine.rows_fetched += report.rows_fetched;
        if mine.plan.is_empty() {
            mine.plan = report.plan;
        }
        if report.worst_qerror > mine.worst_qerror {
            mine.worst_qerror = report.worst_qerror;
            mine.worst_qerror_op = report.worst_qerror_op;
        }
        self.marks.extend(marks);
        // `prov`/`last_lin` are deliberately not merged: fetch tasks
        // never intern (the caller interns sequentially after the join)
        // and view-internal evaluations run with tracking suppressed.
    }
}

impl Engine {
    pub fn new(catalog: Arc<Catalog>) -> Engine {
        Engine::with_config(catalog, EngineConfig::default())
    }

    pub fn with_config(catalog: Arc<Catalog>, config: EngineConfig) -> Engine {
        static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);
        let metrics = Arc::new(MetricsRegistry::new());
        let instance = format!("engine-{}", INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed));
        Engine {
            instance: instance.into(),
            serve_metrics: ServeMetrics::new(Arc::clone(&metrics)),
            flight: FlightRecorder::new(FLIGHT_CAPACITY, config.slow_query_ms),
            plans: PlanCache::new(config.plan_cache_capacity),
            differential_seq: AtomicU64::new(0),
            shards: RwLock::new(None),
            source_metrics: RwLock::new(HashMap::new()),
            catalog,
            views: ViewStore::new(),
            cache: ResultCache::new(config.cache_nodes),
            clock: Arc::new(LogicalClock::new()),
            monitor: WorkloadMonitor::with_registry(Arc::clone(&metrics)),
            query_log: QueryLog::new(
                QUERY_LOG_CAPACITY,
                SLOW_QUERY_CAPACITY,
                config.slow_query_ms,
            ),
            config: RwLock::new(config),
            funcs: RwLock::new(Arc::new(FunctionRegistry::with_builtins())),
            in_flight: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            metrics,
        }
    }

    /// The shared metadata server.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The materialized-view store.
    pub fn views(&self) -> &ViewStore {
        &self.views
    }

    /// The logical clock driving freshness.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// The workload monitor feeding view selection.
    pub fn monitor(&self) -> &WorkloadMonitor {
        &self.monitor
    }

    /// The stale-fragment cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The compiled-plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// This instance's metrics registry (counters, gauges, latency
    /// histograms). The workload monitor records into the same registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Point-in-time copy of every metric (diff two for a window).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.export_stats_activity();
        self.metrics.snapshot()
    }

    /// The bounded log of recent queries.
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// This instance's process-unique name (`engine-N`).
    pub fn instance(&self) -> &str {
        &self.instance
    }

    /// The always-on flight recorder: full evidence (span tree, plan,
    /// per-source calls) for recent slow, partial, or failed queries.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Snapshot the configuration.
    pub fn config(&self) -> EngineConfig {
        self.config.read().clone()
    }

    /// Replace the unavailability policy.
    pub fn set_unavailable_policy(&self, policy: UnavailablePolicy) {
        self.config.write().unavailable = policy;
    }

    /// Replace the optimizer switches.
    pub fn set_optimizer(&self, optimizer: OptimizerConfig) {
        self.config.write().optimizer = optimizer;
    }

    /// Attach a shard runtime, making this engine the coordinator of a
    /// sharded cluster: scans over its partitioned collections fan out
    /// to the shard-local engines, one fetch task per shard, and compiled
    /// plans are stamped with the shard-map epoch so re-sharding
    /// invalidates them.
    pub fn attach_shards(&self, rt: Arc<ShardRuntime>) {
        *self.shards.write() = Some(rt);
    }

    /// The attached shard runtime, if any.
    pub fn shard_runtime(&self) -> Option<Arc<ShardRuntime>> {
        self.shards.read().clone()
    }

    /// `source`'s metric handles.
    fn source_metrics(&self, source: &str) -> Arc<SourceMetrics> {
        if let Some(found) = self.source_metrics.read().get(source) {
            return Arc::clone(found);
        }
        let made = Arc::new(SourceMetrics::new(Arc::clone(&self.metrics), source));
        Arc::clone(self.source_metrics.write().entry(source.to_string()).or_insert(made))
    }

    /// Plan `query` in `scope` under `config`, shard-aware when a
    /// runtime is attached (the scope's own runtime is not read), and
    /// verify the plan statically under `verify_plans`. Every planning
    /// site goes through here — a serve's ([`Engine::compile`]: fresh or
    /// its sampled re-plan), a view's or subquery's ([`Engine::nested`]),
    /// a view refresh's — so cached and fresh plans always see the same
    /// routing.
    fn plan(&self, query: &Query, config: &OptimizerConfig, scope: Scope<'_>) -> Result<Plan, CoreError> {
        let plan = {
            let guard = self.shards.read();
            let shards = guard.as_deref();
            planner::plan_scoped(&self.catalog, query, config, Scope { shards, ..scope })?
        };
        if config.verify_plans {
            planner::verify_plan(&plan, scope.outer)?;
        }
        Ok(plan)
    }

    /// Register a custom scalar function usable from XML-QL predicates
    /// (the extensibility hook data cleaning uses).
    pub fn register_function(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value, nimble_algebra::ExecError> + Send + Sync + 'static,
    ) {
        let mut guard = self.funcs.write();
        let mut next = (**guard).clone();
        next.register(name, f);
        *guard = Arc::new(next);
    }

    /// Queries currently executing (used by least-loaded dispatch).
    pub fn load(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Total queries served.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::SeqCst)
    }

    /// Answer an XML-QL query.
    pub fn query(&self, text: &str) -> Result<QueryResult, CoreError> {
        self.serve_result(text, Sink::Tree, None)
    }

    /// Answer a query and return the compact serialized `<results>`
    /// document directly.
    ///
    /// When the CONSTRUCT template nests no subquery, rendering streams
    /// through an [`XmlWriter`] — no result `Document` tree is ever
    /// materialized — and the output is byte-identical to
    /// `to_string(&query(text)?.document.root())`. Templates with
    /// subqueries construct a tree and serialize it (subquery evaluation
    /// appends into a builder).
    ///
    /// The serve is recorded as every other is (its report is in the
    /// query log, and in the flight recorder when kept), but no
    /// [`QueryResult`] envelope comes back and no EXPLAIN text is
    /// rendered; callers that need those should use [`query`](Self::query).
    pub fn query_serialized(&self, text: &str) -> Result<String, CoreError> {
        match self.serve(text, Sink::Xml, None)? {
            (Answer::Xml(xml), _) => Ok(xml),
            (Answer::Document(document, _), _) => Ok(nimble_xml::to_string(&document.root())),
        }
    }

    /// Answer `text` with `plan` — one the caller made for it, or changed
    /// (a differential's reference) — instead of the plan compiling the
    /// text gives, served with the text's values. The plan cache is
    /// neither read nor filled; the plan is verified and audited as a
    /// freshly made one is, before any source is called.
    pub fn query_planned(&self, text: &str, plan: Plan) -> Result<QueryResult, CoreError> {
        self.serve_result(text, Sink::Tree, Some(plan))
    }

    /// A serve into a result envelope.
    fn serve_result(&self, text: &str, sink: Sink, given: Option<Plan>) -> Result<QueryResult, CoreError> {
        match self.serve(text, sink, given)? {
            (Answer::Document(document, provenance), Some(stats)) => Ok(QueryResult {
                document,
                complete: stats.complete,
                missing_sources: stats.missing_sources.clone(),
                stale: stats.stale,
                provenance,
                stats,
            }),
            _ => Err(CoreError::Internal("a result envelope's serve came back without a document".into())),
        }
    }

    /// The one serve path. It mints the query's correlation context and
    /// makes it current on this thread — everything downstream (adapter
    /// wrappers, fetch workers, the cleaning pipeline) tags its records
    /// with the same trace id — then compiles, executes and constructs
    /// into `sink`, and records the serve once, answered or failed
    /// ([`Engine::record`]). The report comes back for a result envelope.
    fn serve(&self, text: &str, sink: Sink, given: Option<Plan>) -> Result<(Answer, Option<ServeReport>), CoreError> {
        let qctx = QueryCtx::new(Arc::clone(&self.instance));
        let _ctx_guard = qctx.enter();
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let report = ServeReport::new(qctx.trace_id.0, &self.instance, text);
        let mut ctx = ExecCtx::serving(self.config(), report, qctx.started);
        ctx.want_plan_text = sink != Sink::Xml;
        let served = self.serve_stages(text, sink, given, &mut ctx);
        self.record(ctx, &qctx, served, sink)
    }

    /// Compile, execute and construct: the serve's stages, each ended
    /// into the report `ctx` carries as it finishes.
    fn serve_stages(
        &self,
        text: &str,
        sink: Sink,
        given: Option<Plan>,
        ctx: &mut ExecCtx,
    ) -> Result<Answered, CoreError> {
        let Compiled {
            prepared,
            params,
            planck_verify,
            path,
        } = self.compile(text, given, ctx)?;
        ctx.plan_path = Some(path);
        let (plan, query) = (&prepared.plan, &prepared.query);
        let params: Vec<&Atomic> = params.iter().collect();
        let (schema, tuples) =
            self.eval_planned(plan, &params, None, ctx, planck_verify, Some(&prepared.observed))?;
        self.end_stage(ctx, Stage::Execute);
        ctx.report.tuples = tuples.len();

        if sink == Sink::Xml && prepared.streams {
            // This shape's last answer sizes the buffer: no doubling, and
            // no old copy held beside the new one at the peak.
            let mut w = XmlWriter::with_capacity("results", plan.answer_bytes.load(Ordering::Relaxed));
            construct::append_instances_stream(&mut w, &query.construct, &schema, &tuples, None)?;
            let xml = w.finish();
            plan.answer_bytes.store(xml.len(), Ordering::Relaxed);
            self.end_stage(ctx, Stage::Construct);
            self.serve_metrics.incr(Count::Streamed, 1);
            return Ok(Answered {
                prepared,
                nodes: 0,
                answer: Answer::Xml(xml),
            });
        }
        // Per-tuple masks of the top-level relation (tracking on) move
        // out of the context before CONSTRUCT; the answer accumulator
        // is shared with nested-subquery evaluation through a cell so
        // subquery lineage folds into the answer being built.
        let tuple_lin = ctx.last_lin.take();
        let answer_cell = tuple_lin.as_ref().map(|_| RefCell::new(Vec::new()));
        let lineage = answer_cell.as_ref().map(|answers| AnswerLineage {
            tuple_masks: tuple_lin.as_deref(),
            answers,
        });
        let mut builder = DocumentBuilder::new("results");
        self.construct_into(&mut builder, &query.construct, &schema, &tuples, ctx, lineage)?;
        let document = builder.finish();
        let nodes = document.len();
        let answer = if sink == Sink::Xml {
            self.serve_metrics.incr(Count::TreeFallback, 1);
            Answer::Xml(nimble_xml::to_string(&document.root()))
        } else {
            let provenance = answer_cell.map(|cell| self.provenance(ctx, cell.into_inner()));
            Answer::Document(document, provenance)
        };
        self.end_stage(ctx, Stage::Construct);
        Ok(Answered { prepared, nodes, answer })
    }

    /// The provenance report of a tracked serve whose answers carry
    /// `answers`, and its metrics.
    fn provenance(&self, ctx: &mut ExecCtx, answers: Vec<LineageMask>) -> Provenance {
        let mut missing = ctx.report.missing_sources.clone();
        missing.sort();
        let prov = Provenance {
            sources: std::mem::take(&mut ctx.prov),
            answers,
            missing,
        };
        self.metrics.incr("engine.provenance.tracked", 1);
        self.metrics
            .incr("engine.provenance.answers", prov.answers.len() as u64);
        ctx.report.affected_answers = prov.stale_answers();
        let stale_answers = ctx.report.affected_answers.len() as u64;
        if stale_answers > 0 {
            self.metrics
                .incr("engine.provenance.stale_answers", stale_answers);
        }
        for (name, count) in prov.contributions() {
            if count > 0 {
                self.metrics.incr(
                    &format!("engine.provenance.source_answers.{}", name),
                    count as u64,
                );
            }
        }
        prov
    }

    /// End the running stage of the serve `ctx` carries as `stage`: its
    /// wall time since the previous stage ended — less what a stage
    /// nested in it took — goes into the report, and its allocations
    /// into `engine.phase_alloc.*`. A no-op below the top level.
    fn end_stage(&self, ctx: &mut ExecCtx, stage: Stage) {
        let Some(laps) = ctx.laps.as_mut() else {
            return;
        };
        let (ms, alloc) = laps.lap();
        let lent = std::mem::take(&mut ctx.lent_ms);
        ctx.report.phases.add(stage, (ms - lent).max(0.0));
        self.serve_metrics.stage_alloc(stage, alloc);
    }

    /// The one site every serve is recorded at, once, whether it
    /// answered or failed. It closes the report — elapsed time,
    /// allocations, the completeness verdict, the error — updates
    /// `in_flight`, the served count and every serve-level metric
    /// (`engine.queries`, `engine.query_us`, `engine.query.error.*`,
    /// `engine.phase_us.*`), shares the serve's cost among the names it
    /// read in the workload monitor, and hands the report to the query
    /// log and — when the keep policy holds — the flight recorder, the
    /// evidence (spans, per-call records) gathered only then. A result
    /// envelope gets the report back.
    fn record(
        &self,
        ctx: ExecCtx,
        qctx: &QueryCtx,
        served: Result<Answered, CoreError>,
        sink: Sink,
    ) -> Result<(Answer, Option<ServeReport>), CoreError> {
        let ExecCtx { mut report, laps, .. } = ctx;
        if let Some(laps) = laps {
            let (elapsed_ms, alloc) = laps.finish();
            report.elapsed_ms = elapsed_ms;
            report.alloc_bytes = alloc.bytes;
            report.alloc_peak_bytes = alloc.peak_bytes;
        }
        // The miss list deduplicates on insert, but arrival order depends
        // on fetch scheduling: one canonical order for every consumer.
        report.missing_sources.sort();
        report.complete = served.is_ok() && report.missing_sources.is_empty();
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.queries_served.fetch_add(1, Ordering::SeqCst);
        self.serve_metrics.served(&report);
        match &served {
            Ok(served) => self.feed_monitor(&served.prepared.names, report.elapsed_ms, served.nodes),
            Err(e) => {
                self.serve_metrics.failed(e.kind());
                report.error = Some(format!("{}: {}", e.kind(), e));
            }
        }
        // Tail-sampled: the keep decision is one compare, and the
        // evidence is gathered only for kept serves.
        let keep = self
            .flight
            .should_keep(report.elapsed_ms, report.complete, report.error.is_some());
        if keep {
            report.spans = SpanView::tree(report.elapsed_ms, &report.phases);
            report.source_calls.records = qctx.take_source_calls();
        }
        let kept = keep.then(|| report.clone());
        let (seq, report) = match sink {
            Sink::Tree => (self.query_log.admit(report.summary()), Some(report)),
            Sink::Xml => (self.query_log.admit(report), None),
        };
        if let Some(mut kept) = kept {
            kept.seq = seq;
            self.flight.admit(kept);
        }
        served.map(|served| (served.answer, report.map(|report| ServeReport { seq, ..report })))
    }

    /// Text to executable plan, the one way every serve takes. The
    /// text's shape key and its values of the shape's equality
    /// parameters are cut from its tokens ([`nimble_xmlql::lex_keyed`]),
    /// and the plan cache is probed with the key. A hit is served as it
    /// is, shared, with the query it was planned from and these values
    /// beside it ([`Bound`]): the text is neither parsed nor analyzed,
    /// and nothing walks its query. On a miss the text is parsed,
    /// analyzed, planned, verified and audited, and the plan is cached
    /// under the key only when the parser cuts the same key and values
    /// from the text ([`nimble_xmlql::parse_keyed`]): a text the two
    /// cuts read apart is served as planned, uncached, every time. A plan
    /// the caller `given` ([`Engine::query_planned`]) is verified as a
    /// fresh one is, and neither looked up nor cached.
    ///
    /// A plan serves the whole shape unless it routes shards on the
    /// values ([`Plan::shards`]); such a plan is cached under — and, on
    /// an engine with a shard runtime, a query with parameters is also
    /// looked up under — the text itself. A query without equality
    /// parameters is its own shape.
    ///
    /// A hit skips parsing, analysis, planning and, because the plan's
    /// fold order makes the assembled operator shape deterministic,
    /// planck re-verification; its one stage is `plan`: lex, key and
    /// lookup. Under `verify_plans` every [`DIFFERENTIAL_SAMPLE`]-th hit
    /// parses its text, is planned afresh and compared with the plan
    /// about to be served, under the values cut from the text.
    fn compile(&self, text: &str, given: Option<Plan>, ctx: &mut ExecCtx) -> Result<Compiled, CoreError> {
        fn compile_error(e: impl ToString) -> CoreError {
            CoreError::Compile(e.to_string())
        }
        let parsed = |text: &str| nimble_xmlql::parse_query(text).map_err(compile_error);
        let analyzed = |query: &Query| nimble_xmlql::analyze(query).map_err(compile_error);
        if let Some(plan) = given {
            let query = parsed(text)?;
            self.end_stage(ctx, Stage::Parse);
            if ctx.config.optimizer.verify_plans {
                planner::verify_plan(&plan, None)?;
            }
            self.end_stage(ctx, Stage::Verify);
            return Ok(Compiled {
                params: query.eq_params().into_iter().cloned().collect(),
                prepared: Arc::new(Prepared::new(plan, query)),
                planck_verify: true,
                path: PlanPath::Given,
            });
        }
        let lexed = nimble_xmlql::lex_keyed(text).map_err(compile_error)?;
        let shape = lexed.key.as_ref();

        // Only a coordinator's plans route shards, so only there is the
        // text itself a second key worth probing — when it is not the
        // shape already, that is, when the text has parameters.
        let (shard_epoch, routes) = match &*self.shards.read() {
            Some(rt) => (rt.epoch(), true),
            None => (0, false),
        };
        let spelled = (routes && shape != text).then_some(text);
        let key_of = |plan: &Plan| match spelled {
            Some(spelled) if !plan.shards.is_empty() => spelled,
            _ => shape,
        };
        let optimizer = ctx.config.optimizer;
        let stamp = PlanStamp {
            config_fp: optimizer.fingerprint(),
            catalog_epoch: self.catalog.epoch(),
            stats_generation: self.catalog.stats().generation(),
            shard_epoch,
        };
        let keys = [shape, text];
        let lookup = self.plans.get(&keys[..1 + usize::from(spelled.is_some())], stamp);
        if lookup.invalidated > 0 {
            self.metrics
                .incr("engine.plan_cache.invalidations", lookup.invalidated);
        }

        if let Some(prepared) = lookup.value {
            self.serve_metrics.incr(Count::PlanCacheHits, 1);
            let path = if spelled.is_some() && !prepared.plan.shards.is_empty() {
                PlanPath::Routed
            } else {
                PlanPath::Shape
            };
            // Sampled differential re-plan (semantic pass 3 applied to
            // cache reuse): the stamp guarantees the same
            // config/epoch/statistics, so planning is deterministic and
            // any divergence means the cache is about to serve a plan
            // the planner would not make for this query.
            let seq = self.differential_seq.fetch_add(1, Ordering::Relaxed);
            if optimizer.verify_plans && seq.is_multiple_of(DIFFERENTIAL_SAMPLE) {
                self.metrics.incr("engine.plan_cache.differential", 1);
                let query = parsed(text)?;
                analyzed(&query)?;
                let fresh = self.plan(&query, &optimizer, Scope::default())?;
                let params: Vec<&Atomic> = lexed.params.iter().collect();
                let served = Bound::new(&prepared.plan, &params)?;
                let served_sig =
                    plan_semantic_signature(served, served.verdict(&self.catalog, &optimizer).as_deref());
                let fresh_sig = plan_semantic_signature(Bound::own(&fresh), fresh.pruned.as_deref());
                if served_sig != fresh_sig {
                    self.metrics
                        .incr("engine.plan_cache.differential_mismatch", 1);
                    // Self-heal: replace the divergent entry so the next
                    // execution runs the freshly planned shape.
                    let key = key_of(&fresh);
                    self.plans.put(key, stamp, Arc::new(Prepared::new(fresh, query)));
                    return Err(CoreError::PlanVerify(format!(
                        "plan-cache differential mismatch: the cached plan, served with this \
                         query's values, does not match a fresh plan under the same stamp\n  cached: {}\n  fresh:  {}",
                        served_sig, fresh_sig
                    )));
                }
            }
            self.end_stage(ctx, Stage::Plan);
            return Ok(Compiled {
                prepared,
                params: lexed.params,
                planck_verify: false,
                path,
            });
        }

        self.serve_metrics.incr(Count::PlanCacheMisses, 1);
        let (query, keyed) = nimble_xmlql::parse_keyed(text).map_err(compile_error)?;
        self.end_stage(ctx, Stage::Parse);
        analyzed(&query)?;
        self.end_stage(ctx, Stage::Analyze);
        let plan = self.plan(&query, &optimizer, Scope::default())?;
        self.end_stage(ctx, Stage::Plan);
        // Audited before it is cached: a plan that fails is never served.
        planner::audit(&plan)?;
        self.end_stage(ctx, Stage::Verify);
        let prepared = Arc::new(Prepared::new(plan, query));
        // A hit finds its values where the lexer finds them: only a text
        // the lexer cuts as the parser does may be found that way.
        if keyed == lexed {
            self.plans.put(key_of(&prepared.plan), stamp, Arc::clone(&prepared));
        }
        Ok(Compiled {
            prepared,
            params: keyed.params,
            planck_verify: true,
            path: PlanPath::Planned,
        })
    }

    /// Share a query's measured cost among its named references. A
    /// streamed answer has no node count: its 0 leaves each view's size
    /// (a max-gauge) as it was.
    fn feed_monitor(&self, names: &[String], elapsed_ms: f64, result_nodes: usize) {
        if !names.is_empty() {
            let share = elapsed_ms / names.len() as f64;
            for n in names {
                self.monitor.record(n, share, result_nodes);
            }
        }
    }

    /// Compile and plan, returning the EXPLAIN text (plan notes + the
    /// physical operator tree with row counts from an actual run).
    pub fn explain(&self, text: &str) -> Result<String, CoreError> {
        let result = self.query(text)?;
        Ok(result.stats.plan)
    }

    /// EXPLAIN ANALYZE: a plain serve of the query, rendered — its
    /// stages as a span tree, one `-- round:` line for each round of
    /// tasks it ran, and its plan, every operator annotated with what
    /// it emitted and buffered. Rounds stay out of the plan text: how a
    /// round ran changes from one serve to the next, the plan's notes do
    /// not.
    pub fn explain_analyze(&self, text: &str) -> Result<String, CoreError> {
        let stats = self.query(text)?.stats;
        let mut out = SpanView::render(&SpanView::tree(stats.elapsed_ms, &stats.phases));
        for round in &stats.rounds {
            out.push_str(&format!("-- {}\n", round));
        }
        Ok(out + &stats.plan)
    }

    /// The document backing a view reference: fresh materialization if
    /// present, otherwise virtual evaluation (with stale fallback under
    /// the `StaleCache` policy).
    fn view_document(&self, name: &str, ctx: &mut ExecCtx) -> Result<Arc<Document>, CoreError> {
        let now = self.clock.now();
        let cached = self.views.lookup(name, now);
        if let Some((doc, nimble_store::Freshness::Fresh)) = &cached {
            return Ok(Arc::clone(doc));
        }
        let def = self
            .catalog
            .view(name)
            .ok_or_else(|| CoreError::UnknownCollection(name.to_string()))?;
        let mut b = DocumentBuilder::new("results");
        match (self.nested(name, &def.query, None, &mut b, ctx, None), cached) {
            (Ok(()), _) => Ok(b.finish()),
            (Err(CoreError::Source(_)), Some((doc, _))) if ctx.config.unavailable == UnavailablePolicy::StaleCache => {
                ctx.report.stale = true;
                Ok(doc)
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Plan and evaluate `query` — view `entered`'s definition, or a
    /// subquery (`<subquery>`) under its `outer` row — one level below
    /// `ctx`, and construct its answer into `b`; with `answers`, its
    /// lineage folds into the answer being built (the top-level query is
    /// planned by [`Engine::compile`]). The one place evaluation nests:
    /// the depth is raised here, checked against [`MAX_DEPTH`] (a
    /// transitively cyclic view, named by `entered`), and restored after.
    fn nested(
        &self,
        entered: &str,
        query: &Query,
        outer: Option<(&Schema, &Tuple)>,
        b: &mut DocumentBuilder,
        ctx: &mut ExecCtx,
        answers: Option<&RefCell<Vec<LineageMask>>>,
    ) -> Result<(), CoreError> {
        if ctx.depth + 1 >= MAX_DEPTH {
            return Err(CoreError::CyclicView(entered.to_string()));
        }
        ctx.depth += 1;
        let scope = Scope {
            outer: outer.map(|(s, _)| s),
            ..Scope::default()
        };
        let evaluated = self
            .plan(query, &ctx.config.optimizer, scope)
            .and_then(|plan| self.eval_planned(&plan, &query.eq_params(), outer, ctx, true, None));
        let built = evaluated.and_then(|(schema, tuples)| {
            if let Some(cell) = answers {
                if let (Some(sub_lin), Some(ans)) = (ctx.last_lin.take(), cell.borrow_mut().last_mut()) {
                    for m in &sub_lin {
                        ans.merge(*m);
                    }
                }
            }
            let lineage = answers.map(|answers| AnswerLineage {
                tuple_masks: None,
                answers,
            });
            self.construct_into(b, &query.construct, &schema, &tuples, ctx, lineage)
        });
        ctx.depth -= 1;
        built
    }

    /// Execute an already-decomposed plan with `params`, the values of
    /// its query's equality parameters ([`Query::eq_params`]), in three
    /// stages: fetch the independent units ([`Engine::fetch_units`]),
    /// assemble the operator tree over them ([`Engine::assemble`]), and
    /// drive it ([`Engine::drive`]). The plan is only read — a cached
    /// one is shared by every serve of its shape — and each value is
    /// read at its site ([`Bound`]). `planck_verify` is false when the
    /// operator shape already verified clean (a plan-cache hit: the
    /// plan's fold order makes the assembled shape deterministic).
    /// `observed` is what the plan's earlier serves observed its units
    /// take, when it is a prepared plan's: it prices the fetch rounds,
    /// and this serve's times go into it.
    fn eval_planned(
        &self,
        plan: &Plan,
        params: &[&Atomic],
        outer: Option<(&Schema, &Tuple)>,
        ctx: &mut ExecCtx,
        planck_verify: bool,
        observed: Option<&Observed>,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        // A plan's own rewrites are audited once — the plan keeps the
        // verdict — before its first serve, and so before any source is
        // called.
        planner::audit(plan)?;
        let bound = Bound::new(plan, params)?;
        // A statically-pruned serve (unsatisfiable WHERE clause) skips
        // the entire pipeline: no source is contacted, no join is
        // folded — the measurable win of satisfiability analysis.
        if let Some(reason) = bound.verdict(&self.catalog, &ctx.config.optimizer) {
            return self.eval_pruned(bound, &reason, outer, ctx);
        }
        let units = self.fetch_units(bound, outer, observed, ctx)?;
        let tree = self.assemble(bound, units)?;
        self.drive(bound, tree, None, planck_verify, ctx)
    }

    /// The scan layer: fetch every independent unit of the plan and hand
    /// the units over as the join fold's inputs, in the plan's fold
    /// order, behind a subquery's `outer` row. The fetch runs in two
    /// rounds (DESIGN.md §18): a plan with a bind stage fetches its
    /// driver first and sends the targets the keys the driver bound; a
    /// plan without one has an empty first round. Each unit is interned
    /// for lineage, and its row estimate scored against what it shipped
    /// ([`Engine::score_scans`]).
    fn fetch_units(
        &self,
        bound: Bound<'_>,
        outer: Option<(&Schema, &Tuple)>,
        observed: Option<&Observed>,
        ctx: &mut ExecCtx,
    ) -> Result<Units, CoreError> {
        let plan = bound.plan;
        let mut inputs: Vec<Input> = Vec::new();
        if let Some((schema, tuple)) = outer {
            // The outer row carries the empty mask: its own sources are
            // already attributed to the enclosing answer.
            inputs.push(Input {
                schema: schema.clone(),
                tuples: vec![tuple.clone()],
                masks: if ctx.tracking() {
                    ScanMasks::One(LineageMask::EMPTY)
                } else {
                    ScanMasks::None
                },
            });
        }
        // A failure waits in its slot until both rounds are through, so
        // the error reported is the first in atom order whichever round
        // met it.
        let n = plan.independents.len();
        let mut fetched: Vec<Option<Result<Fetched, CoreError>>> = Vec::new();
        fetched.resize_with(n, || None);
        let driver = plan.bind.as_ref().map(|stage| stage.driver);
        self.fetch_round(bound, driver.into_iter(), None, observed, ctx, &mut fetched);
        let (keys, bind_note) = match &plan.bind {
            Some(stage) => self.bind_keys(stage, fetched[stage.driver].as_ref()),
            None => (None, None),
        };
        let rest = (0..n).filter(|&i| Some(i) != driver);
        self.fetch_round(bound, rest, keys.as_ref(), observed, ctx, &mut fetched);
        // What EXPLAIN says of the fetch — the bind stage's keys, each
        // probed match — where it is read.
        let explained = ctx.depth == 0 && ctx.want_plan_text;
        let mut notes: Vec<String> = Vec::new();
        notes.extend(bind_note.filter(|_| explained));
        for (atom, slot) in plan.independents.iter().zip(fetched) {
            let unit = slot.ok_or_else(|| {
                CoreError::Internal("independent unit left unfetched".into())
            })??;
            ctx.report.rows_fetched += unit.tuples.len() as u64;
            if let (Some((pruned, candidates)), true) = (unit.probed, explained) {
                notes.push(format!(
                    "probe: pruned {} of {} candidates of {}",
                    pruned,
                    candidates,
                    atom.label()
                ));
            }
            // Interning is sequential, in atom order, whatever order
            // the units were fetched in: workers only describe their
            // unit, ids are assigned here.
            let masks = intern_masks(ctx, unit.prov);
            inputs.push(Input {
                schema: unit_schema(unit.vars)?,
                tuples: unit.tuples,
                masks,
            });
        }
        if inputs.is_empty() {
            return Err(CoreError::Exec("query has no inputs".into()));
        }
        let start = usize::from(outer.is_some());
        let covered = [plan.est_rows.len(), plan.fold_order.len(), plan.fold_rows.len(), plan.swaps.len()];
        if covered.iter().any(|&len| len != n) {
            return Err(uncovered());
        }
        self.score_scans(plan, &inputs[start..], ctx);

        // The plan's fold order, behind the outer row, so that correlated
        // variables bind early.
        let mut tail: Vec<Option<Input>> = inputs.drain(start..).map(Some).collect();
        for &i in &plan.fold_order {
            inputs.push(tail.get_mut(i).and_then(Option::take).ok_or_else(uncovered)?);
        }
        Ok(Units {
            inputs,
            outer: start == 1,
            notes,
        })
    }

    /// Score the planner's per-unit cardinality estimates against the
    /// rows each unit actually shipped (`units`, in atom order). This
    /// runs on every serve, streamed or not — the scan layer is where
    /// estimates are cheapest to check — and a gross miss on a filtered
    /// fragment feeds the observed count back into the statistics
    /// catalog as a sound lower bound on the collection's cardinality.
    fn score_scans(&self, plan: &Plan, units: &[Input], ctx: &mut ExecCtx) {
        let scored = plan.independents.iter().zip(&plan.est_rows).zip(units);
        for (i, ((atom, &est), unit)) in scored.enumerate() {
            let act = unit.tuples.len() as u64;
            let q = qerror(est, act);
            self.serve_metrics.observe(Hist::ScanQerror, centi_q(q));
            ctx.qerror(q, "Scan");
            // A bind target's estimate is for the rows its keys leave;
            // what it shipped — keyed, or whole when the stage was
            // declined — says nothing about the collection.
            let keyed = plan.bind.as_ref().is_some_and(|b| b.target(i).is_some());
            if act <= est.saturating_mul(GROSS_QERROR) || keyed {
                continue;
            }
            // Only a filtered single-collection fragment: its filtered
            // row count is a certain lower bound on the base collection
            // (unfiltered fetches already feed exact counts through
            // `note_stats_rows`). A bound raises the count and never
            // lowers it: below the rows sampled, a partial sample would
            // pass for exhaustive and its min/max for exact bounds.
            if let AtomExec::Fragment { source, query, .. } = atom {
                if let ([collection], false) = (query.collections.as_slice(), query.selections.is_empty()) {
                    let key = format!("{}.{}", source, collection.collection);
                    if self.catalog.stats().rows(&key).is_none_or(|rows| act > rows) {
                        self.note_stats_rows(&key, act);
                        self.metrics.incr("plan.feedback.gross", 1);
                    }
                }
            }
        }
    }

    /// Fold the units into the physical join tree, then navigate the
    /// dependent atoms, drop duplicate join columns, filter on the
    /// residual predicates as this serve reads them, and sort. Every
    /// estimate and every build side is the plan's: assembly only reads
    /// them. From here to the end of the drive is the executor pipeline,
    /// timed apart from the fetch as `engine.exec.pipeline_us`.
    fn assemble(&self, bound: Bound<'_>, units: Units) -> Result<Assembled, CoreError> {
        let plan = bound.plan;
        let Units { inputs, outer, notes } = units;
        let started = Instant::now();
        let funcs = self.funcs.read().clone();
        let mut inputs = inputs.into_iter();
        let first = inputs
            .next()
            .ok_or_else(|| CoreError::Internal("join fold over zero inputs".into()))?;
        // The rows flowing out of the subtree folded so far: the outer
        // row's one, or the first unit's estimate.
        let first_unit = plan.fold_order.first().and_then(|&i| plan.est_rows.get(i));
        let mut est = if outer { 1 } else { first_unit.copied().ok_or_else(uncovered)? };
        let mut op: Box<dyn Operator> = Box::new(first.scan(est));
        // Every other input folds in at its step of the plan's fold (the
        // first unit's is step 0, the outer row's has none).
        for (input, k) in inputs.zip(usize::from(!outer)..) {
            let step = plan.fold_order.get(k).and_then(|&i| plan.est_rows.get(i));
            let (Some(&unit), Some(&rows), Some(&swap)) = (step, plan.fold_rows.get(k), plan.swaps.get(k)) else {
                return Err(uncovered());
            };
            let scan: Box<dyn Operator> = Box::new(input.scan(unit));
            let mut join: Box<dyn Operator> = if !op.schema().vars().iter().any(|v| scan.schema().contains(v)) {
                Box::new(NestedLoopJoinOp::new(op, scan, None, JoinType::Inner, Arc::clone(&funcs)))
            } else if swap {
                // `HashJoinOp` builds on its right operand: here, the
                // rows folded so far, and the unit streams as the probe.
                Box::new(HashJoinOp::natural(scan, op, JoinType::Inner))
            } else {
                Box::new(HashJoinOp::natural(op, scan, JoinType::Inner))
            };
            join.set_est_rows(rows);
            op = join;
            est = rows;
        }

        // Dependent navigation atoms, in syntactic order.
        for dep in &plan.dependents {
            op = Box::new(BindPatternOp::new(op, &dep.on_var, dep.pattern.clone())?);
        }

        // Drop duplicate join columns (`var#2` …).
        if op.schema().vars().iter().any(|v| v.contains('#')) {
            let keep = plain_columns(op.schema().vars().iter());
            let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
            let mut project = ProjectOp::keep(op, &keep_refs, Arc::clone(&funcs))?;
            project.set_est_rows(est);
            op = Box::new(project);
        }

        // Residual predicates, as this serve reads them.
        if !plan.residual_predicates.is_empty() {
            let translated: Vec<ScalarExpr> = (0..plan.residual_predicates.len())
                .filter_map(|i| bound.residual(i))
                .map(|e| planner::translate_expr(&e, op.schema()))
                .collect::<Result<_, _>>()?;
            let mut filter = FilterOp::new(op, ScalarExpr::conjunction(translated), Arc::clone(&funcs));
            filter.set_est_rows(plan.filter_rows);
            est = plan.filter_rows;
            op = Box::new(filter);
        }

        // ORDER-BY.
        if !plan.order_by.is_empty() {
            let keys: Vec<SortKey> = plan
                .order_by
                .iter()
                .map(|k| {
                    op.schema()
                        .index_of(&k.var)
                        .map(|column| SortKey {
                            column,
                            descending: k.descending,
                        })
                        .ok_or_else(|| {
                            CoreError::Exec(format!("ORDER-BY ${} not bound", k.var))
                        })
                })
                .collect::<Result<_, _>>()?;
            let mut sort = SortOp::new(op, keys);
            sort.set_est_rows(est);
            op = Box::new(sort);
        }
        Ok(Assembled { op, notes, started })
    }

    /// Drive an assembled tree: verify it, run it, and read off what the
    /// run says — the pipeline's metrics, the rows' lineage, the plan's
    /// quality and, for the top-level query where someone reads it, the
    /// EXPLAIN text. A `pruned` tree is one satisfiability analysis
    /// proved empty, for the reason given.
    fn drive(
        &self,
        bound: Bound<'_>,
        tree: Assembled,
        pruned: Option<&str>,
        planck_verify: bool,
        ctx: &mut ExecCtx,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        let Assembled { mut op, notes, started } = tree;
        // Verification of the assembled tree, timed apart from the
        // pipeline it sits in.
        let mut verify_ms = 0.0;
        // Static verification of the assembled physical plan: every
        // operator's schema/expression/ordering contract must hold before
        // we open anything. A plan-cache hit (`planck_verify` false)
        // skips this: the plan's fold order drives assembly, so a hit
        // assembles the shape verified at cache-fill time.
        if ctx.config.optimizer.verify_plans && planck_verify {
            let t_verify = Instant::now();
            // The structural pass plus bottom-up type/nullability
            // inference (planck pass 1).
            nimble_planck::verify_semantic(op.as_ref())
                .map_err(|report| CoreError::PlanVerify(report.to_string()))?;
            verify_ms += ms_since(t_verify);
        }

        let (tuples, batches) =
            run_to_vec_batched(op.as_mut(), nimble_algebra::ops::DEFAULT_BATCH_SIZE)?;
        self.serve_metrics.incr(Count::Batches, batches);
        self.serve_metrics.incr(Count::BatchRows, tuples.len() as u64);
        self.serve_metrics
            .observe(Hist::PipelineUs, us((ms_since(started) - verify_ms).max(0.0)));
        // Harvest per-tuple lineage from the root operator (operators
        // keep their masks across close, so the drained run above left
        // them intact). `None` when any leaf lacked a mask; a pruned
        // tree's is the empty list, so a tracked serve still gets a
        // (vacuously complete) provenance report.
        ctx.last_lin = if ctx.tracking() {
            op.lineage().map(<[LineageMask]>::to_vec)
        } else {
            None
        };
        let schema = op.schema().clone();
        // Plan-quality telemetry over the finished operator tree:
        // per-kind Q-error histograms and build-side flips, wherever the
        // report has a reader (a streamed serve scores its scans alone).
        // A pruned tree's row count is a proof, not an estimate.
        if ctx.want_plan_text && pruned.is_none() {
            self.plan_quality_walk(op.as_ref(), ctx);
        }
        if ctx.depth == 0 && verify_ms > 0.0 {
            ctx.lend(Stage::Verify, verify_ms);
        }
        // Record the plan (top-level query only).
        if ctx.depth == 0 && ctx.want_plan_text && ctx.report.plan.is_empty() {
            let of_values = bound.value_notes(&self.catalog, pruned);
            let mut text = explain_notes(
                ctx.plan_path.map(|path| path.explain(bound.param_count())),
                bound.plan.notes.iter().chain(&of_values).chain(&notes),
            );
            text.push_str(&explain_ops(op.as_ref()));
            ctx.report.plan = text;
        }
        Ok((schema, tuples))
    }

    /// Assemble a plan satisfiability analysis proved statically empty:
    /// an annotated [`EmptyOp`] over the schema the normal pipeline
    /// would have produced (so CONSTRUCT and correlated subqueries still
    /// resolve every variable), driven as any tree is. No adapter is
    /// called and no rows are fetched.
    fn eval_pruned(
        &self,
        bound: Bound<'_>,
        reason: &str,
        outer: Option<(&Schema, &Tuple)>,
        ctx: &mut ExecCtx,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        let plan = bound.plan;
        let started = Instant::now();
        let mut vars: Vec<String> = outer
            .map(|(s, _)| s.vars().to_vec())
            .unwrap_or_default();
        let atom_vars = plan.independents.iter().flat_map(AtomExec::vars);
        for v in atom_vars.chain(plan.dependents.iter().flat_map(|dep| &dep.vars)) {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let tree = Assembled {
            op: Box::new(EmptyOp::new(unit_schema(vars)?, format!("pruned: {}", reason))),
            notes: Vec::new(),
            started,
        };
        // Its one node is verified on every serve, cached or not.
        let driven = self.drive(bound, tree, Some(reason), true, ctx)?;
        self.metrics.incr("engine.plan.pruned", 1);
        Ok(driven)
    }

    /// Walk a finished operator tree recording plan-quality telemetry:
    ///
    /// * `plan.qerror.<kind>` — Q-error (`max(est/act, act/est)`, stored
    ///   as centi-Q so near-1 estimates stay distinguishable in the
    ///   log₂ buckets) of every node that carried an estimate, against
    ///   the rows it emitted.
    /// * `plan.flips.build_side` — hash joins whose chosen build side
    ///   turned out more than [`cost::BUILD_SWAP_RATIO`] times larger
    ///   than the probe side: the estimates picked one side, the actuals
    ///   say the other (the assembled tree always encodes the
    ///   estimate-preferred side, so the reversed inequality is exactly a
    ///   flipped decision).
    fn plan_quality_walk(&self, op: &dyn Operator, ctx: &mut ExecCtx) {
        let info = op.introspect();
        if let Some(est) = op.est_rows() {
            let q = qerror(est, op.rows_out());
            self.metrics
                .observe(&format!("plan.qerror.{}", metric_slug(&info.name)), centi_q(q));
            ctx.qerror(q, &info.name);
        }
        if info.name == "HashJoin" {
            let children = op.children();
            if let [probe, build] = children[..] {
                // The plan estimated both sides and chose on them.
                if probe.est_rows().is_some()
                    && build.est_rows().is_some()
                    && build.rows_out() > probe.rows_out().saturating_mul(cost::BUILD_SWAP_RATIO)
                {
                    self.metrics.incr("plan.flips.build_side", 1);
                }
            }
        }
        for child in op.children() {
            self.plan_quality_walk(child, ctx);
        }
    }

    /// Feed an observed row count back into the statistics catalog (the
    /// sampling-seeded estimates drift as sources mutate out of band). A
    /// material change bumps the statistics generation, which changes
    /// the [`PlanStamp`] and so invalidates compiled plans built from
    /// the stale estimate on their next lookup.
    fn note_stats_rows(&self, key: &str, rows: u64) {
        if self.catalog.stats().observe_rows(key, rows) {
            self.metrics.incr("stats.invalidations", 1);
        }
        self.export_stats_activity();
    }

    /// Mirror the statistics catalog's activity into the registry: its
    /// generation, and how source mutations brought samples up to date.
    fn export_stats_activity(&self) {
        let activity = self.catalog.stats().activity();
        for (name, value) in [
            ("stats.generation", activity.generation),
            ("stats.sample.appended", activity.appended),
            ("stats.sample.resampled", activity.resampled),
        ] {
            self.metrics.gauge(name).store(value, Ordering::Relaxed);
        }
    }

    /// Fetch the independent units listed in `round` into their slots,
    /// in one round of fetch tasks ([`par_tasks`]): one per unsharded
    /// unit, and one per surviving shard of a sharded unit, which reads
    /// that shard's slice ([`ShardScan::run`]). The round goes to the pool
    /// when it pays for a wake-up, so latency tracks the slowest task,
    /// not the sum, and runs inline otherwise. Each task is priced at
    /// what it took at the plan's earlier serves (`observed`; unknown
    /// without one), and what it takes now is folded in. A sharded unit's
    /// shards are folded into its answer after the round
    /// ([`Engine::fold_shards`]). Every unit is fetched; a failure waits
    /// in its slot. `keys` is the bind stage's key list, for the units
    /// that are its targets.
    fn fetch_round(
        &self,
        bound: Bound<'_>,
        round: impl Iterator<Item = usize>,
        keys: Option<&BoundKeys>,
        observed: Option<&Observed>,
        ctx: &mut ExecCtx,
        fetched: &mut [Option<Result<Fetched, CoreError>>],
    ) {
        let plan = bound.plan;
        let mut scans: Vec<ShardScan<'_>> = Vec::new();
        let mut tasks: Vec<FetchTask> = Vec::new();
        for i in round {
            let sharded = match &plan.independents[i] {
                AtomExec::FetchMatch { source, collection, pattern, vars } => {
                    shard_plan_for(plan, i).map(|sp| (sp, source, collection, pattern, vars))
                }
                _ => None,
            };
            let Some((sp, source, collection, pattern, vars)) = sharded else {
                tasks.push(FetchTask { unit: i, shard: None });
                continue;
            };
            let Some(rt) = self.shards.read().clone() else {
                let missing = CoreError::Internal("sharded plan without a shard runtime".into());
                fetched[i] = Some(Err(missing));
                continue;
            };
            let scan = scans.len();
            let shard = |k| FetchTask {
                unit: i,
                shard: Some((scan, k)),
            };
            tasks.extend(sp.survivors.iter().copied().map(shard));
            scans.push(ShardScan {
                unit: i,
                rt,
                sp,
                source,
                collection,
                pattern,
                vars,
                metrics: &self.metrics,
                memo_hits: AtomicU64::new(0),
            });
        }
        // Each task fetches into a context of its own, made on the thread
        // that runs it from copies of this one's settings and scope, and
        // the query context — thread-local — re-entered, so source calls
        // on a worker stay attributed to the query.
        let (config, depth, track, want_plan_text) = (ctx.config.clone(), ctx.depth, ctx.track, ctx.want_plan_text);
        let qctx = QueryCtx::current();
        // A shard's adapter may record its own call during the round: the
        // records are searched for one from here (`note_source_call`).
        let calls_before = qctx.as_ref().map(|c| c.calls_len());
        // A round of one task is never priced, and its task is in no
        // other round of the plan, so only a round of two or more keeps
        // its tasks' times.
        let priced = observed.filter(|_| tasks.len() > 1);
        let run = par_tasks(RoundCosts { tasks: &tasks, observed: priced }, |k| {
            let _g = qctx.as_ref().map(|c| c.enter());
            let task = tasks[k];
            let started = Instant::now();
            let done = match task.shard {
                Some((scan, shard)) => TaskDone::Shard(scan, scans[scan].run(shard)),
                None => {
                    let mut local = ExecCtx {
                        depth,
                        track,
                        want_plan_text,
                        ..ExecCtx::new(config.clone())
                    };
                    let bind = plan
                        .bind
                        .as_ref()
                        .zip(keys)
                        .and_then(|(stage, keys)| Some((&stage.target(task.unit)?.field, keys)));
                    let unit = self.fetch_atom(bound, task.unit, bind, &mut local);
                    TaskDone::Unit(unit, local)
                }
            };
            (done, started.elapsed())
        });
        let fork = run.fork();
        if tasks.len() > 1 {
            let way = if fork.pooled { "engine.fetch.pool" } else { "engine.fetch.serial" };
            self.metrics.incr(way, 1);
            ctx.report.rounds.push(round_fork("fetch", tasks.len(), fork));
        }
        let mut gathered: Vec<Vec<ShardTook>> = scans.iter().map(|_| Vec::new()).collect();
        for (task, (done, took)) in tasks.iter().zip(run) {
            if let Some(slot) = priced.and_then(|o| o.task(task.unit, task.shard_number())) {
                slot.note(took);
            }
            match done {
                TaskDone::Unit(unit, local) => {
                    ctx.merge(local);
                    fetched[task.unit] = Some(unit);
                }
                TaskDone::Shard(scan, rows) => gathered[scan].push((rows, took)),
            }
        }
        for (scan, shards) in scans.iter().zip(gathered) {
            let unit = self.fold_shards(scan, shards, fork.pooled, calls_before, ctx);
            fetched[scan.unit] = Some(unit);
        }
    }

    /// Run-time half of the bind stage: read the key list off the
    /// fetched driver, or decline. Returns the list and the line EXPLAIN
    /// prints about it.
    ///
    /// §3.4 comes first: a driver that failed or was skipped binds
    /// nothing, and one served from the stale cache yields a list that
    /// is *not sent* — the targets are asked exactly what they would be
    /// asked without a stage — and only names the cached documents a
    /// target that is down as well may be served from. A value that
    /// cannot stand in a key list ([`BindStage::admits`]) or more keys
    /// than [`cost::BIND_MAX_KEYS`] (the estimate was wrong) decline the
    /// stage too. Zero keys from a healthy driver is a list like any
    /// other; `fetch_atom` answers it without calling the target.
    fn bind_keys(
        &self,
        stage: &BindStage,
        driver: Option<&Result<Fetched, CoreError>>,
    ) -> (Option<BoundKeys>, Option<String>) {
        let decline = |why: String| {
            self.metrics.incr("engine.bind.declined", 1);
            (None, Some(format!("bind ${}: no keys sent, {}", stage.var, why)))
        };
        let unit = match driver {
            Some(Ok(unit)) if unit.served != Served::Missing => unit,
            Some(Ok(_)) => return decline("the driver was skipped".into()),
            _ => return decline("the driver failed".into()),
        };
        let Some(col) = unit.vars.iter().position(|v| v == &stage.var) else {
            return decline("the driver does not bind the variable".into());
        };
        let mut seen: HashSet<AtomicKey> = HashSet::new();
        for tuple in &unit.tuples {
            match tuple.get(col) {
                Some(Value::Atomic(key)) if stage.admits(key) => {
                    seen.insert(AtomicKey(key.clone()));
                }
                other => {
                    return decline(format!(
                        "the driver bound {:?}, which is not a {:?} key",
                        other, stage.key_type
                    ))
                }
            }
            // The estimate was wrong; stop counting.
            if seen.len() as u64 > cost::BIND_MAX_KEYS {
                self.metrics.observe("engine.bind.keys", seen.len() as u64);
                return decline(format!(
                    "more than {} keys (est ~{})",
                    cost::BIND_MAX_KEYS,
                    stage.est_keys
                ));
            }
        }
        self.metrics.observe("engine.bind.keys", seen.len() as u64);
        // One order per set of keys, whatever order the driver's rows
        // came in: the digest names the cached documents.
        let mut keys: Vec<AtomicKey> = seen.into_iter().collect();
        keys.sort();
        let mut digest = std::collections::hash_map::DefaultHasher::new();
        keys.hash(&mut digest);
        let bound = BoundKeys {
            keys: keys.into_iter().map(|k| k.0).collect(),
            digest: digest.finish(),
            send: unit.served == Served::Fresh,
        };
        if !bound.send {
            let (_, note) = decline("the driver was served stale".into());
            return (Some(bound), note);
        }
        self.metrics.incr("engine.bind.reduced", 1);
        let note = format!(
            "bind ${}: {} keys sent (est ~{})",
            stage.var,
            bound.keys.len(),
            stage.est_keys
        );
        (Some(bound), Some(note))
    }

    /// Fetch independent unit `i`'s tuples under the unavailability
    /// policy. With lineage tracking on, the unit is described for the
    /// query's provenance table — the *caller* interns (sequentially, so
    /// ids stay dense even under parallel fetch). A FetchMatch atom
    /// matched here skips the candidates its probes rule out; a sharded
    /// one is never fetched here, its shards are tasks of the round
    /// ([`Engine::fetch_round`]). `bind` is the bind stage's key list and
    /// this unit's field for it, when the unit is a target.
    fn fetch_atom(
        &self,
        bound: Bound<'_>,
        i: usize,
        bind: Option<(&FieldRef, &BoundKeys)>,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let track = ctx.tracking();
        let plan = bound.plan;
        match &plan.independents[i] {
            AtomExec::Fragment { source, vars, .. } => {
                let adapter = self
                    .catalog
                    .source(source)
                    .ok_or_else(|| CoreError::UnknownCollection(source.clone()))?;
                let unit = Unit::Fragment;
                let keyed = bind.filter(|(_, keys)| keys.send);
                if keyed.is_some_and(|(_, keys)| keys.keys.is_empty()) {
                    // A healthy driver bound no key, so the inner join
                    // is empty whatever this source holds: it is not
                    // asked (and never sent `IN ()`).
                    return Ok(Fetched::fresh(vars.clone(), Vec::new(), unit.prov(track, source)));
                }
                ctx.report.fragments_pushed += 1;
                // What this serve sends: the plan's fragment with this
                // serve's values, and the bind stage's keys when it has
                // them. The stale cache is keyed by what is sent, so that
                // it answers each value with its own document. A keyed
                // answer is stored under its keys' digest, so the stale
                // cache can serve it for these keys only. With a list
                // that is not sent (the driver was served stale) the
                // document cached for these keys still answers, as
                // second choice; with one that is, the whole fragment
                // does — a superset the join filters.
                let query = bound
                    .fragment_query(i)
                    .ok_or_else(|| CoreError::Internal(format!("unit {} is not a fragment", i)))?;
                let whole_key = fragment_key(source, &query);
                let keyed_key = bind.map(|(_, keys)| {
                    format!("{}:bind={}:{:016x}", whole_key, keys.keys.len(), keys.digest)
                });
                let mut cache_keys: Vec<&str> = vec![&whole_key];
                cache_keys.extend(keyed_key.as_deref());
                if keyed.is_some() {
                    cache_keys.reverse();
                }
                let query = match keyed {
                    Some((field, keys)) => {
                        Cow::Owned(query.into_owned().with_key_set(field.clone(), Arc::clone(&keys.keys)))
                    }
                    None => query,
                };
                let kind = || match keyed {
                    Some((_, keys)) => format!("execute bind={}", keys.keys.len()),
                    None => "execute".to_string(),
                };
                let to_tuples = |doc: &Arc<Document>| fragment_tuples(doc, vars);
                let fallback = Fallback {
                    cache_keys: &cache_keys,
                    unit,
                    vars,
                    to_tuples: &to_tuples,
                };
                let call = Call::run(|| Ok(adapter.execute(&query)?));
                self.call_source(source, kind, fallback, ctx, call, |doc, ctx| {
                    // A floored answer is a refresh's, and no one reads
                    // it back: a refresh takes no stale answer, and its
                    // floor is in the key, out of every query's reach.
                    if query.after_row.is_none() {
                        self.cache.put(cache_keys[0], Arc::clone(&doc));
                    }
                    let tuples = to_tuples(&doc);
                    if let Some(mark) = Watermark::of(&doc) {
                        let collection = &query.collections[0].collection;
                        ctx.marks.push((format!("{}.{}", source, collection), mark));
                    }
                    // Only an unfiltered single-collection fragment
                    // observes the collection's true cardinality.
                    if query.limit.is_none()
                        && query.selections.is_empty()
                        && query.key_sets.is_empty()
                        && query.after_row.unwrap_or(0) == 0
                        && query.collections.len() == 1
                    {
                        self.note_stats_rows(
                            &format!("{}.{}", source, query.collections[0].collection),
                            tuples.len() as u64,
                        );
                    }
                    (Fetched::fresh(vars.clone(), tuples, unit.prov(track, source)), None)
                })
            }
            AtomExec::FetchMatch {
                source,
                collection,
                pattern,
                vars,
            } => {
                let adapter = self
                    .catalog
                    .source(source)
                    .ok_or_else(|| CoreError::UnknownCollection(source.clone()))?;
                let key = format!("coll:{}:{}", source, collection);
                let unit = Unit::Collection(collection);
                let fallback = Fallback {
                    cache_keys: &[&key],
                    unit,
                    vars,
                    to_tuples: &|doc| match_tuples(doc, pattern, vars, None),
                };
                let call = Call::run(|| Ok(adapter.fetch_collection(collection)?));
                self.call_source(source, || "fetch".to_string(), fallback, ctx, call, |doc, _| {
                    self.cache.put(&key, Arc::clone(&doc));
                    let mut filter = self.candidate_filter(bound, i);
                    let tuples = match_tuples(&doc, pattern, vars, Some(&mut filter));
                    // Row count = the collection's top-level elements (the
                    // same measure sampling seeds), not pattern matches.
                    self.note_stats_rows(
                        &format!("{}.{}", source, collection),
                        doc.root_cursor().child_element_count() as u64,
                    );
                    let fetched = Fetched::fresh(vars.clone(), tuples, unit.prov(track, source));
                    (fetched.probed(self.note_probed(&filter)), None)
                })
            }
            AtomExec::ViewMatch {
                view,
                pattern,
                vars,
            } => {
                // A view contributes as one unit: suppress tracking
                // inside its (possibly virtual) evaluation so its
                // underlying sources don't intern ids of their own, and
                // note whether the evaluation fell back to stale data.
                let stale_before = ctx.report.stale;
                let saved_track = ctx.track;
                ctx.track = false;
                let fetched = self.view_document(view, ctx);
                ctx.track = saved_track;
                let doc = fetched?;
                let mut filter = self.candidate_filter(bound, i);
                let tuples = match_tuples(&doc, pattern, vars, Some(&mut filter));
                // Row count = the view result's top-level elements,
                // mirroring the FetchMatch measure. The per-pattern match
                // count would make the estimate oscillate between queries
                // with different patterns over the same view, bumping the
                // stats generation (and flushing the plan cache) on every
                // alternation.
                self.note_stats_rows(
                    &format!("view:{}", view),
                    doc.root_cursor().child_element_count() as u64,
                );
                let prov = track.then(|| ProvSource {
                    name: view.clone(),
                    detail: "view".to_string(),
                    stale: ctx.report.stale && !stale_before,
                    cache_age_ms: None,
                    view: true,
                });
                Ok(Fetched::fresh(vars.clone(), tuples, FetchProv::from_opt(prov)).probed(self.note_probed(&filter)))
            }
        }
    }

    /// The candidate filter of independent unit `i`: its probes, each
    /// with the conjunct it reads — holding this serve's values —
    /// compiled for a one-column row.
    fn candidate_filter(&self, bound: Bound<'_>, i: usize) -> matcher::CandidateFilter {
        matcher::CandidateFilter::new(bound.plan.probes.iter().filter(|p| p.atom == i).filter_map(|p| {
            let conjunct = bound.residual(p.conjunct)?;
            Some((p, planner::probe_test(&conjunct, &p.var)?))
        }))
    }

    /// Count what a candidate filter tested and ruled out; `(pruned,
    /// candidates)` for EXPLAIN ANALYZE, when it had probes.
    fn note_probed(&self, filter: &matcher::CandidateFilter) -> Option<(u64, u64)> {
        if filter.is_empty() {
            return None;
        }
        self.metrics.incr("engine.match.candidates", filter.candidates);
        self.metrics.incr("engine.match.pruned", filter.pruned);
        Some((filter.pruned, filter.candidates))
    }

    /// Fold a sharded FetchMatch unit's shards, each fetched by a task of
    /// its round (`shards`, in survivor order), into the unit: restore
    /// original document order from the hidden origin column, so the
    /// answer is byte-identical to the unsharded scan's.
    ///
    /// The unit is one source call ([`Engine::call_source`]) that took
    /// its slowest shard's time: one count, and one failure however many
    /// shards it lost. A dead or failing shard degrades by policy exactly
    /// like a dead source: under `Fail` the serve fails with the first
    /// lost shard's error, otherwise the shard is skipped and annotated
    /// as `{source}#shard{k}` in `missing_sources` and — under tracking —
    /// as a missing provenance unit (`StaleCache` keeps no per-shard
    /// cache, so for shards it degrades to skip-and-annotate). A unit
    /// whose every shard was pruned makes no call.
    ///
    /// Deliberately skips `note_stats_rows`: a survivor-only row count
    /// would corrupt the whole-collection statistics the planner's
    /// estimates come from.
    fn fold_shards(
        &self,
        scan: &ShardScan<'_>,
        shards: Vec<ShardTook>,
        pooled: bool,
        calls_before: Option<usize>,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let ShardScan { sp, source, collection, vars, .. } = *scan;
        let track = ctx.tracking();
        self.metrics
            .incr("engine.shard.pruned", (sp.shards - sp.survivors.len()) as u64);
        if sp.survivors.is_empty() {
            // Every shard statically pruned: an empty scan. Tracking
            // still interns the unit so lineage stays alive above it.
            let prov = track.then(|| ProvSource {
                name: source.to_string(),
                detail: format!("collection:{} (all shards pruned)", collection),
                stale: false,
                cache_age_ms: None,
                view: false,
            });
            return Ok(Fetched::fresh(vars.to_vec(), Vec::new(), FetchProv::from_opt(prov)));
        }
        self.metrics
            .incr("engine.shard.fanout", sp.survivors.len() as u64);
        let way = if pooled {
            "engine.exchange.gather.parallel"
        } else {
            "engine.exchange.gather.serial"
        };
        self.metrics.incr(way, 1);
        let slowest = shards.iter().map(|(_, took)| *took).max().unwrap_or_default();
        let mut lost: Vec<(String, ExecError)> = Vec::new();
        let mut rows: Vec<(Tuple, u32)> = Vec::new();
        for (s, (&k, (slice, _))) in sp.survivors.iter().zip(shards).enumerate() {
            match slice {
                Ok(slice) => rows.extend(slice.into_iter().map(|t| (t, s as u32))),
                Err(e) => lost.push((format!("{}#shard{}", source, k), e)),
            }
        }
        let outcome = if ctx.config.unavailable == UnavailablePolicy::Fail && !lost.is_empty() {
            Err(CallError::Unavailable(lost.swap_remove(0).1.into()))
        } else {
            Ok(rows)
        };
        let call = Call {
            outcome,
            ms: slowest.as_secs_f64() * 1e3,
            calls_before,
        };
        let kind = || {
            let hits = scan.memo_hits.load(Ordering::Relaxed);
            format!("fetch-sharded memo={}/{}", hits, sp.survivors.len())
        };
        let unit = Unit::Collection(collection);
        let fallback = Fallback {
            cache_keys: &[],
            unit,
            vars,
            to_tuples: &|_| Vec::new(),
        };
        self.call_source(source, kind, fallback, ctx, call, |mut rows, ctx| {
            for (label, _) in &lost {
                ctx.miss(label);
            }
            self.metrics
                .gauge("engine.shard.memo.values")
                .store(scan.rt.memo_values() as u64, Ordering::Relaxed);

            // Restore original document order: stable-sort by the origin
            // column, the shard attribution riding along, then strip the
            // column.
            rows.sort_by_key(|(t, _)| origin_of(t));
            let mut tuples: Vec<Tuple> = Vec::with_capacity(rows.len());
            let mut tuple_src: Vec<u32> = Vec::with_capacity(rows.len());
            for (mut t, s) in rows {
                t.remove(0);
                tuples.push(t);
                tuple_src.push(s);
            }
            self.metrics.incr("engine.shard.rows", tuples.len() as u64);

            let prov = if track {
                let sources: Vec<ProvSource> = sp
                    .survivors
                    .iter()
                    .map(|&k| {
                        let name = format!("{}#shard{}", source, k);
                        match lost.iter().any(|(label, _)| *label == name) {
                            true => unit.missing(name),
                            false => unit.source(name),
                        }
                    })
                    .collect();
                FetchProv::Per { sources, tuple_src }
            } else {
                FetchProv::None
            };
            let lost = lost.first().map(|(_, e)| e.to_string());
            (Fetched::fresh(vars.to_vec(), tuples, prov), lost)
        })
    }

    /// The one site a serve accounts a source call at: a pushed fragment,
    /// a whole collection, or a sharded unit's shards. It counts the call
    /// in the serve's report and in `source.calls.<s>`, times it into
    /// `source.latency_us.<s>`, and writes the call's one record into the
    /// query's context — unless a [`nimble_sources::sim::SimulatedLink`]
    /// under the adapter wrote it during the call. `answer` makes the
    /// unit of what the call returned, untimed; with it comes the error of
    /// a sharded unit's first lost shard, if it lost one.
    ///
    /// A call fails at most once: an unavailable source, or a sharded
    /// unit that lost a shard, counts in `source.failures.<s>` — a source
    /// that did not answer then goes to [`Engine::handle_unavailable`]'s
    /// policy, `fallback` standing in — and any other error in
    /// `source.errors.<s>`.
    fn call_source<R>(
        &self,
        source: &str,
        kind: impl FnOnce() -> String,
        fallback: Fallback<'_>,
        ctx: &mut ExecCtx,
        call: Call<R>,
        answer: impl FnOnce(R, &mut ExecCtx) -> (Fetched, Option<String>),
    ) -> Result<Fetched, CoreError> {
        ctx.report.source_calls.count += 1;
        let metrics = self.source_metrics(source);
        metrics.count(&metrics.calls, "source.calls.");
        metrics.latency(call.ms);
        let (outcome, error) = match call.outcome {
            Ok(reply) => {
                let (fetched, lost) = answer(reply, ctx);
                (Ok(fetched), lost)
            }
            Err(e) => {
                let error = match &e {
                    CallError::Unavailable(e) | CallError::Failed(e) => e.to_string(),
                };
                (Err(e), Some(error))
            }
        };
        match (&outcome, &error) {
            (Err(CallError::Failed(_)), _) => metrics.count(&metrics.errors, "source.errors."),
            (_, Some(_)) => metrics.count(&metrics.failures, "source.failures."),
            _ => {}
        }
        let rows = outcome.as_ref().map_or(0, |f| f.tuples.len() as u64);
        note_source_call(call.calls_before, source, kind, error.is_none(), call.ms, rows, error);
        match outcome {
            Ok(fetched) => Ok(fetched),
            Err(CallError::Unavailable(e)) => self.handle_unavailable(source, fallback, e, ctx),
            Err(CallError::Failed(e)) => Err(e),
        }
    }

    /// Apply the unavailability policy to a source that did not answer,
    /// `fallback` standing in for its unit: under `StaleCache`, the first
    /// of its cached documents the cache still holds, made into tuples;
    /// else — and under `SkipAndAnnotate` — no tuples, the source named
    /// missing. The policy is the serve's, and with lineage tracking on,
    /// the unit is described in the provenance table; a stale-served one
    /// reports its copy's age.
    fn handle_unavailable(
        &self,
        source: &str,
        fallback: Fallback<'_>,
        err: CoreError,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let Fallback {
            cache_keys,
            unit,
            vars,
            to_tuples,
        } = fallback;
        let track = ctx.tracking();
        let fetched = |tuples, prov: Option<ProvSource>, served| Fetched {
            vars: vars.to_vec(),
            tuples,
            prov: FetchProv::from_opt(prov),
            served,
            probed: None,
        };
        match ctx.config.unavailable {
            UnavailablePolicy::Fail => return Err(err),
            UnavailablePolicy::SkipAndAnnotate => {}
            UnavailablePolicy::StaleCache => {
                if let Some((doc, age)) = cache_keys.iter().find_map(|key| self.cache.get_with_age(key)) {
                    ctx.report.stale = true;
                    let metrics = self.source_metrics(source);
                    metrics.count(&metrics.stale_served, "source.stale_served.");
                    let prov = track.then(|| ProvSource {
                        stale: true,
                        cache_age_ms: Some(age.as_secs_f64() * 1e3),
                        ..unit.source(source.to_string())
                    });
                    return Ok(fetched(to_tuples(&doc), prov, Served::Stale));
                }
            }
        }
        ctx.miss(source);
        // A missing unit is still interned: it keeps tracking alive
        // through the pipeline — an untagged scan would disable it for
        // every operator above — and surfaces the hole in the provenance
        // table.
        let prov = track.then(|| unit.missing(source.to_string()));
        Ok(fetched(Vec::new(), prov, Served::Missing))
    }

    /// Construct template instances into an open builder, recursively
    /// evaluating nested subqueries ([`Engine::nested`]).
    ///
    /// With lineage tracking on, `lineage` carries the answer cells — one
    /// per answer, pushed by the template module *before* it renders the
    /// answer — through every nesting level, so a subquery's lineage, at
    /// any depth, ORs into the answer it is rendered inside; at the top
    /// level it also carries the relation's per-tuple masks.
    fn construct_into(
        &self,
        b: &mut DocumentBuilder,
        template: &nimble_xmlql::ast::ElementTemplate,
        schema: &Schema,
        tuples: &[Tuple],
        ctx: &mut ExecCtx,
        lineage: Option<AnswerLineage<'_>>,
    ) -> Result<(), CoreError> {
        let answers = lineage.map(|l| l.answers);
        let mut cb = |q: &Query, s: &Schema, t: &Tuple, b2: &mut DocumentBuilder| {
            self.nested("<subquery>", q, Some((s, t)), b2, ctx, answers)
        };
        let sink = lineage.and_then(|l| {
            Some(construct::LineageSink {
                tuple_masks: l.tuple_masks?,
                answers: l.answers,
            })
        });
        construct::append_instances_traced(b, template, schema, tuples, &mut cb, sink)
    }
}

/// A tracked answer's lineage as CONSTRUCT builds it: the answers' cells
/// and, at the top level, the masks of the tuples they are made of.
#[derive(Clone, Copy)]
struct AnswerLineage<'a> {
    tuple_masks: Option<&'a [LineageMask]>,
    answers: &'a RefCell<Vec<LineageMask>>,
}

/// What [`Engine::fetch_units`] hands [`Engine::assemble`].
struct Units {
    /// The join fold's inputs, in fold order.
    inputs: Vec<Input>,
    /// The first input is a subquery's outer row.
    outer: bool,
    /// What EXPLAIN says of the fetch: the bind stage's keys and each
    /// probed match.
    notes: Vec<String>,
}

/// One input of the join fold: a fetched unit, or a subquery's outer row.
struct Input {
    schema: Schema,
    tuples: Vec<Tuple>,
    masks: ScanMasks,
}

impl Input {
    /// The scan that reads this input, estimated at `est` rows.
    fn scan(self, est: u64) -> ValuesOp {
        let scan = ValuesOp::new(self.schema, self.tuples).labeled("Scan");
        let mut scan = match self.masks {
            ScanMasks::One(m) => scan.with_lineage(m),
            ScanMasks::Per(v) => scan.with_lineage_masks(v),
            ScanMasks::None => scan,
        };
        scan.set_est_rows(est);
        scan
    }
}

/// A plan whose estimates or fold order do not cover its units.
fn uncovered() -> CoreError {
    CoreError::Internal("plan estimates and fold order do not cover its units".into())
}

/// An operator tree ready for [`Engine::drive`].
struct Assembled {
    op: Box<dyn Operator>,
    /// What EXPLAIN says of this run beyond the plan's notes.
    notes: Vec<String>,
    /// When the pipeline's clock started: assembly is in it, the fetch
    /// is not.
    started: Instant,
}

/// `vars` without the duplicate join columns (`var#2` …), each once.
fn plain_columns<'a>(vars: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    for v in vars {
        if !v.contains('#') && !cols.contains(v) {
            cols.push(v.clone());
        }
    }
    cols
}

/// What a fetched unit is, as its provenance entry's `detail` names it.
#[derive(Clone, Copy)]
enum Unit<'a> {
    /// A pushed fragment: `fragment`.
    Fragment,
    /// A whole collection, matched centrally: `collection:<name>`.
    Collection(&'a str),
}

impl Unit<'_> {
    /// The provenance entry of `name` answering as this unit.
    fn source(self, name: String) -> ProvSource {
        ProvSource {
            name,
            detail: match self {
                Unit::Fragment => "fragment".to_string(),
                Unit::Collection(c) => format!("collection:{}", c),
            },
            stale: false,
            cache_age_ms: None,
            view: false,
        }
    }

    /// The provenance entry of `name`, which contributed nothing to this
    /// unit: `missing:<detail>`.
    fn missing(self, name: String) -> ProvSource {
        let mut p = self.source(name);
        p.detail = format!("missing:{}", p.detail);
        p
    }

    /// `source`'s provenance as this unit, when tracking.
    fn prov(self, track: bool, source: &str) -> FetchProv {
        FetchProv::from_opt(track.then(|| self.source(source.to_string())))
    }
}

/// What stands in for a unit whose source did not answer (§3.4).
struct Fallback<'a> {
    /// The cached documents that may answer under `StaleCache`, best
    /// first (a bind target has two: the answer for its keys, and the
    /// whole fragment — a superset the join filters).
    cache_keys: &'a [&'a str],
    unit: Unit<'a>,
    vars: &'a [String],
    /// A cached document made into the unit's tuples (fragment rows and
    /// collection documents decode differently).
    to_tuples: &'a dyn Fn(&Arc<Document>) -> Vec<Tuple>,
}

/// A source call as [`Engine::call_source`] accounts it: what it
/// returned, what it took, and the query's call-record count read
/// before it ran (`note_source_call`).
struct Call<R> {
    outcome: Result<R, CallError>,
    ms: f64,
    calls_before: Option<usize>,
}

impl<R> Call<R> {
    /// Run `call` now, timed.
    fn run(call: impl FnOnce() -> Result<R, CallError>) -> Call<R> {
        let calls_before = QueryCtx::current().map(|c| c.calls_len());
        let started = Instant::now();
        let outcome = call();
        Call {
            outcome,
            ms: ms_since(started),
            calls_before,
        }
    }
}

/// How a source call failed, as [`Engine::call_source`] counts it.
enum CallError {
    /// The source — or a shard of it — did not answer: counted in
    /// `source.failures.<s>`, and the unavailability policy decides.
    Unavailable(CoreError),
    /// Any other error: counted in `source.errors.<s>`, and the serve
    /// fails with it.
    Failed(CoreError),
}

impl From<nimble_sources::SourceError> for CallError {
    fn from(e: nimble_sources::SourceError) -> CallError {
        if e.is_unavailable() {
            CallError::Unavailable(CoreError::Source(e))
        } else {
            CallError::Failed(CoreError::Source(e))
        }
    }
}

/// One independent unit as fetched.
struct Fetched {
    vars: Vec<String>,
    tuples: Vec<Tuple>,
    prov: FetchProv,
    served: Served,
    /// `(pruned, candidates)` of a match whose candidates were probed.
    probed: Option<(u64, u64)>,
}

/// Where a fetched unit's tuples came from (§3.4).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Served {
    /// The source (or view) answered.
    Fresh,
    /// The source was unavailable; the stale cache answered.
    Stale,
    /// The source was unavailable; the unit was skipped and annotated.
    Missing,
}

impl Fetched {
    fn fresh(vars: Vec<String>, tuples: Vec<Tuple>, prov: FetchProv) -> Fetched {
        Fetched {
            vars,
            tuples,
            prov,
            served: Served::Fresh,
            probed: None,
        }
    }

    fn probed(self, probed: Option<(u64, u64)>) -> Fetched {
        Fetched { probed, ..self }
    }
}

/// The key list the bind stage's driver bound at run time.
struct BoundKeys {
    /// Distinct, in `total_cmp` order.
    keys: Arc<[Atomic]>,
    /// Digest of `keys`, for the names of cached keyed answers.
    digest: u64,
    /// False when the driver was served stale: the targets are then
    /// asked without the list, which only names cached documents.
    send: bool,
}

/// Lineage annotation of one fetched scan, as handed to the operator
/// tree: nothing (tracking off), one mask for the whole unit, or a
/// per-tuple mask vector — the shape of a sharded scan, where one
/// merged buffer carries rows attributed to different per-shard
/// provenance units.
enum ScanMasks {
    None,
    One(LineageMask),
    Per(Vec<LineageMask>),
}

/// Provenance description a fetch returns to the sequential interning
/// loop: at most one entry for ordinary units, or one entry per
/// contacted shard plus a per-tuple shard attribution for sharded
/// scans (`tuple_src[i]` indexes `sources`).
enum FetchProv {
    None,
    One(ProvSource),
    Per {
        sources: Vec<ProvSource>,
        tuple_src: Vec<u32>,
    },
}

impl FetchProv {
    fn from_opt(p: Option<ProvSource>) -> FetchProv {
        match p {
            Some(p) => FetchProv::One(p),
            None => FetchProv::None,
        }
    }
}

/// Intern a fetch's provenance into the query context (sequentially,
/// in atom order, so lineage ids stay dense) and produce the scan's
/// mask annotation.
fn intern_masks(ctx: &mut ExecCtx, prov: FetchProv) -> ScanMasks {
    match prov {
        FetchProv::None => ScanMasks::None,
        FetchProv::One(p) => ScanMasks::One(ctx.intern_source(p)),
        FetchProv::Per { sources, tuple_src } => {
            let masks: Vec<LineageMask> =
                sources.into_iter().map(|p| ctx.intern_source(p)).collect();
            ScanMasks::Per(
                tuple_src
                    .into_iter()
                    .map(|s| masks.get(s as usize).copied().unwrap_or(LineageMask::EMPTY))
                    .collect(),
            )
        }
    }
}

/// One task of a fetch round: unsharded unit `unit`'s fetch, or, with
/// `shard` = `(scan, k)`, shard `k`'s scan of sharded unit `unit` through
/// the round's `scans[scan]`.
#[derive(Clone, Copy)]
struct FetchTask {
    unit: usize,
    shard: Option<(usize, usize)>,
}

impl FetchTask {
    /// The task's slot among its unit's in [`Observed::task`].
    fn shard_number(self) -> usize {
        self.shard.map_or(0, |(_, k)| k)
    }
}

/// What a fetch task brought back. Not boxed: a round holds one per
/// task, and a box would be one more allocation per unit fetched.
#[allow(clippy::large_enum_variant)]
enum TaskDone {
    /// An unsharded unit, and the context it was fetched in.
    Unit(Result<Fetched, CoreError>, ExecCtx),
    /// The rows of a shard scanned through the round's `scans[i]` that
    /// pass its pushed test, origin column first.
    Shard(usize, Result<Vec<Tuple>, ExecError>),
}

/// A shard's rows, and what its task took.
type ShardTook = (Result<Vec<Tuple>, ExecError>, Duration);

/// A fetch round's tasks, each priced at what it took at its plan's
/// earlier serves (unknown without one).
struct RoundCosts<'a> {
    tasks: &'a [FetchTask],
    observed: Option<&'a Observed>,
}

impl Costs for RoundCosts<'_> {
    fn tasks(&self) -> usize {
        self.tasks.len()
    }

    fn cost(&self, k: usize) -> Option<Duration> {
        let task = self.tasks.get(k)?;
        self.observed?.task(task.unit, task.shard_number())?.get()
    }
}

/// The serve report's record of a round of `tasks` at `site` that took
/// `fork`.
fn round_fork(site: &'static str, tasks: usize, fork: nimble_algebra::Fork) -> RoundFork {
    RoundFork {
        site,
        tasks,
        pooled: fork.pooled,
        expected: fork.expected,
        wake: fork.poolable.then_some(nimble_algebra::WAKE),
    }
}

/// The plan's shard routing for independent atom `i`, if any.
pub(crate) fn shard_plan_for(plan: &Plan, i: usize) -> Option<&ShardPlan> {
    plan.shards.iter().find(|s| s.atom == i)
}

/// A shard row's hidden leading column: the row's index in the
/// *unsharded* document. The fold stable-sorts its unit's rows by it and
/// strips it, restoring original document order so sharded and
/// unsharded answers are byte-identical (malformed tuples sort last
/// instead of panicking).
fn origin_of(t: &Tuple) -> i64 {
    match t.first() {
        Some(Value::Atomic(Atomic::Int(v))) => *v,
        _ => i64::MAX,
    }
}

/// A sharded FetchMatch unit's scan, shared by its shards' tasks in
/// the fetch round (one [`ShardScan::run`] per surviving shard).
struct ShardScan<'a> {
    /// Index into [`Plan::independents`].
    unit: usize,
    rt: Arc<ShardRuntime>,
    sp: &'a ShardPlan,
    source: &'a str,
    collection: &'a str,
    pattern: &'a nimble_xmlql::ast::Pattern,
    vars: &'a [String],
    metrics: &'a MetricsRegistry,
    /// Scans of this unit that were served from a node's memo.
    memo_hits: AtomicU64,
}

impl ShardScan<'_> {
    /// Fetch shard `k`'s slice from the shard-local catalog, take its
    /// rows from the node's scan memo — building them on the first scan
    /// of this slice document — and copy out, prefixed with the row's
    /// original document index, those the pushed test keeps.
    ///
    /// Liveness, the adapter call and the origin-map check all come
    /// before the memo, so a dead shard, a failing adapter and a slice
    /// that no longer is the one the partition was cut from fail the
    /// same way warm and cold. Nothing after them fails: a predicate
    /// that can is not pushed here.
    fn run(&self, k: usize) -> Result<Vec<Tuple>, ExecError> {
        let shard_err = |message: String| ExecError::Source {
            source: format!("{}#shard{}", self.source, k),
            message,
        };
        if !self.rt.alive(k) {
            return Err(shard_err("shard node down".into()));
        }
        let node = self
            .rt
            .node(k)
            .ok_or_else(|| shard_err("no such shard node".into()))?;
        let part = self
            .rt
            .partition(&self.sp.collection)
            .ok_or_else(|| shard_err("collection not partitioned".into()))?;
        let origins = part
            .origins
            .get(k)
            .ok_or_else(|| shard_err("no origin map for shard".into()))?;
        let adapter = node
            .catalog
            .source(self.source)
            .ok_or_else(|| shard_err("unknown source on shard".into()))?;
        let doc = adapter
            .fetch_collection(self.collection)
            .map_err(|e| shard_err(e.to_string()))?;
        // A row without an origin would sort wherever its made-up index
        // put it; a slice of another length is not this partition's.
        let slice_rows = doc.root_cursor().child_element_count();
        if slice_rows != origins.len() {
            return Err(shard_err(format!(
                "slice has {} rows, origin map has {}",
                slice_rows,
                origins.len()
            )));
        }
        let (rows, hit) = node.scan_rows(&self.sp.collection, &doc, self.pattern, self.vars, || {
            shred_slice(&doc, origins, self.pattern, self.vars)
        });
        if hit {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.incr("engine.shard.memo.hit", 1);
        } else {
            self.metrics.incr("engine.shard.memo.miss", 1);
        }
        Ok(match &self.sp.pushed {
            Some(test) => test.select(rows.rows()),
            None => rows.rows().map(<[Value]>::to_vec).collect(),
        })
    }
}

/// Match the row pattern against each row element of a shard slice,
/// into one row-major block: per binding, the row's original document
/// index and then the value of each of `vars`.
///
/// Per-row matching reproduces the unsharded match set exactly for the
/// row-routable patterns the planner admits: a `Name(n)` pattern binds
/// a row iff the row element is named `n` (the unsharded matcher
/// enumerates the root's children of that name), and a `Descendant(n)`
/// pattern binds the row itself plus its descendants named `n` — the
/// union over all rows is the root's descendant set, since the planner
/// rejects patterns naming the collection root.
fn shred_slice(
    doc: &Arc<Document>,
    origins: &[usize],
    pattern: &nimble_xmlql::ast::Pattern,
    vars: &[String],
) -> Vec<Value> {
    let mut values = Vec::with_capacity(origins.len() * (vars.len() + 1));
    for (row, &origin) in doc.root_cursor().child_elements().zip(origins) {
        if matches!(&pattern.tag, TagPattern::Name(n) if row.name() != Some(n.as_str())) {
            continue;
        }
        // `vars` are distinct, so each value moves out of its binding.
        for mut b in matcher::match_pattern_at(doc, row, pattern) {
            values.push(Value::from(origin as i64));
            values.extend(vars.iter().map(|v| b.remove(v).unwrap_or_else(Value::null)));
        }
    }
    values
}

/// Record one adapter call into the current query context, unless a
/// `SimulatedLink` under the adapter already recorded it during the
/// call — `calls_before` is the context's call count read before
/// invoking the adapter, and the records added since are searched for
/// one of *this* source: the list is shared with the query's other
/// fetches, which run beside this one.
fn note_source_call(
    calls_before: Option<usize>,
    source: &str,
    kind: impl FnOnce() -> String,
    ok: bool,
    latency_ms: f64,
    rows: u64,
    error: Option<String>,
) {
    if let Some(qctx) = QueryCtx::current() {
        let recorded_inside = calls_before.is_some_and(|n| qctx.recorded_since(n, source));
        if !recorded_inside {
            qctx.record_source_call(SourceCall {
                source: source.to_string(),
                kind: kind(),
                ok,
                latency_ms,
                rows,
                error,
            });
        }
    }
}

/// Canonical rendering of a plan's *semantic* content as one serve
/// reads it — the fragments it sends and the predicates it filters with
/// holding the serve's values, and `pruned`, its verdict — for the
/// sampled plan-cache differential. Cost annotations (`est_rows`,
/// `fold_order`, notes) are deliberately excluded: row-count feedback
/// may drift them within one statistics generation without making the
/// cached plan wrong, whereas a difference in the execution units, the
/// pushed or residual predicates, the ORDER-BY keys, or the prune
/// verdict means the cache is serving a query the planner would now
/// decompose differently.
fn plan_semantic_signature(bound: Bound<'_>, pruned: Option<&str>) -> String {
    let plan = bound.plan;
    let independents: Vec<Cow<'_, AtomExec>> = plan
        .independents
        .iter()
        .enumerate()
        .map(|(i, atom)| match (atom, bound.fragment_query(i)) {
            (AtomExec::Fragment { source, vars, .. }, Some(Cow::Owned(query))) => Cow::Owned(AtomExec::Fragment {
                source: source.clone(),
                query,
                vars: vars.clone(),
            }),
            _ => Cow::Borrowed(atom),
        })
        .collect();
    let residuals: Vec<_> = (0..plan.residual_predicates.len()).filter_map(|i| bound.residual(i)).collect();
    format!(
        "independents: {:?}; dependents: {:?}; residuals: {:?}; order_by: {:?}; pruned: {:?}; \
         shards: {:?}; probes: {:?}; bind: {:?}",
        independents,
        plan.dependents,
        residuals,
        plan.order_by,
        pruned,
        plan.shards,
        plan.probes,
        // The stage's shape; its key estimate is a cost annotation.
        plan.bind
            .as_ref()
            .map(|b| (b.driver, &b.var, b.key_type, &b.targets))
    )
}

/// The `-- ` lines EXPLAIN opens with: which path the plan came by (the
/// top-level query's; none below it), then the planner's notes.
fn explain_notes<'a>(path: Option<Cow<'_, str>>, notes: impl Iterator<Item = &'a String>) -> String {
    let mut text = String::new();
    let mut line = |note: &str| {
        text.push_str("-- ");
        text.push_str(note);
        text.push('\n');
    };
    if let Some(path) = path {
        line(&path);
    }
    notes.for_each(|note| line(note));
    text
}

/// The Q-error of a cardinality estimate: `max(est/act, act/est)`,
/// always ≥ 1, symmetric in over- and under-estimation. Zero rows on
/// either side are clamped to 1 so empty relations score against
/// "estimated one row" instead of dividing by zero.
fn qerror(est: u64, act: u64) -> f64 {
    let est = est.max(1) as f64;
    let act = act.max(1) as f64;
    (est / act).max(act / est)
}

/// Q-error → centi-Q for histogram recording: `round(q × 100)`. The
/// metrics histograms bucket by powers of two, so recording raw Q
/// (almost always in [1, 4)) would collapse every decent estimate into
/// two buckets; centi-Q spreads the interesting range (100 = perfect,
/// 200 = off by 2×, …) across distinct buckets while keeping the
/// recorded value integral.
fn centi_q(q: f64) -> u64 {
    (q * 100.0).round().max(0.0).min(u64::MAX as f64) as u64
}

/// Operator-kind → metric-name segment: lowercased, non-alphanumerics
/// folded to `_` (metric names are dot-separated, so an embedded space
/// or dot from an opaque describe string must not split the name).
fn metric_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds → whole microseconds, for histogram recording.
fn us(ms: f64) -> u64 {
    (ms * 1e3).max(0.0) as u64
}

/// Convert a `<rows>` fragment result into binding tuples over `vars`
/// (output names equal variable names by the fragment contract).
/// Build the schema of one execution unit's output, rejecting duplicate
/// variables (a planner bug) with context instead of panicking.
fn unit_schema(vars: Vec<String>) -> Result<Schema, CoreError> {
    Schema::try_new(vars)
        .map_err(|e| CoreError::Internal(format!("execution unit schema: {}", e)))
}

/// The stale cache's key for a fragment sent to `source`: `frag:`, the
/// source, then every field of the fragment — its selections with the
/// values bound for this serve — each string length-prefixed, each list
/// counted and each number terminated, so that two fragments share a key
/// exactly when they are equal and no key is the beginning of another.
/// (`{:?}` of the fragment said the same and cost over a microsecond a
/// fetch.)
fn fragment_key(source: &str, query: &SourceQuery) -> String {
    use std::fmt::Write;
    // A count and the character that ends it (`write!` costs more than
    // the digits do, and a key is mostly counts).
    fn count(key: &mut String, n: usize, end: char) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        key.extend(digits[at..].iter().map(|&d| char::from(d)));
        key.push(end);
    }
    fn text(key: &mut String, s: &str) {
        count(key, s.len(), '\'');
        key.push_str(s);
    }
    fn field(key: &mut String, f: &FieldRef) {
        text(key, &f.alias);
        text(key, &f.field);
    }
    fn atom(key: &mut String, a: &Atomic) {
        match a {
            Atomic::Null => key.push('n'),
            Atomic::Bool(b) => key.push_str(if *b { "b1" } else { "b0" }),
            Atomic::Int(i) => {
                let _ = write!(key, "i{};", i);
            }
            Atomic::Float(f) => {
                let _ = write!(key, "f{:x};", f.to_bits());
            }
            Atomic::Str(_) | Atomic::Sym(_) => {
                key.push('s');
                text(key, a.as_str().unwrap_or(""));
            }
        }
    }
    // Every field by name: one added to the fragment is one added here.
    let SourceQuery {
        collections,
        join_conds,
        selections,
        outputs,
        limit,
        key_sets,
        after_row,
    } = query;
    let mut key = String::with_capacity(192);
    key.push_str("frag:");
    text(&mut key, source);
    key.push_str(":c");
    count(&mut key, collections.len(), ';');
    for c in collections {
        text(&mut key, &c.alias);
        text(&mut key, &c.collection);
    }
    key.push('j');
    count(&mut key, join_conds.len(), ';');
    for (l, r) in join_conds {
        field(&mut key, l);
        field(&mut key, r);
    }
    key.push('s');
    count(&mut key, selections.len(), ';');
    for s in selections {
        field(&mut key, &s.field);
        // One byte an operator, in `CmpOp`'s order.
        key.push(char::from(b"=!<{>}~"[s.op as usize]));
        atom(&mut key, &s.value);
    }
    key.push('o');
    count(&mut key, outputs.len(), ';');
    for (name, f) in outputs {
        text(&mut key, name);
        field(&mut key, f);
    }
    key.push('l');
    match limit {
        Some(n) => count(&mut key, *n, ';'),
        None => key.push('-'),
    }
    key.push('k');
    count(&mut key, key_sets.len(), ';');
    for (f, keys) in key_sets {
        field(&mut key, f);
        count(&mut key, keys.len(), ';');
        for k in keys.iter() {
            atom(&mut key, k);
        }
    }
    // A ten-row delta cached under the whole fragment's key would answer
    // the next whole fetch.
    key.push('a');
    match after_row {
        Some(n) => count(&mut key, usize::try_from(*n).unwrap_or(usize::MAX), ';'),
        None => key.push('-'),
    }
    key
}

/// The tuples over `vars` that a `<rows>` document holds. A row whose
/// children arrive as the `vars` elements in `vars` order — what an
/// adapter that writes its outputs in fragment order sends — is read by
/// position; any other row is read name by name.
fn fragment_tuples(doc: &Arc<Document>, vars: &[String]) -> Vec<Tuple> {
    let names: Vec<Option<Sym>> = vars.iter().map(|v| Sym::find(v)).collect();
    // By name, a repeated name reads its first element both times.
    let positional = names
        .iter()
        .enumerate()
        .all(|(i, name)| name.is_some() && !names[..i].contains(name));
    doc.root_cursor()
        .children_named("row")
        .map(|row| {
            if positional {
                let mut tuple = Tuple::with_capacity(vars.len());
                for (cell, name) in row.children().zip(&names) {
                    if cell.name_sym() != *name {
                        break;
                    }
                    tuple.push(Value::Atomic(cell.typed_value()));
                }
                if tuple.len() == vars.len() {
                    return tuple;
                }
            }
            vars.iter()
                .map(|v| Value::Atomic(cursor_field(row, v)))
                .collect()
        })
        .collect()
}

/// Match a pattern against a document and project bindings to `vars`:
/// each binding becomes its tuple as soon as it is found, on the
/// candidates `filter` admits. `vars` are distinct, so each value moves
/// out of its binding.
fn match_tuples(
    doc: &Arc<Document>,
    pattern: &nimble_xmlql::ast::Pattern,
    vars: &[String],
    mut filter: Option<&mut matcher::CandidateFilter>,
) -> Vec<Tuple> {
    let mut tuples = Vec::new();
    matcher::match_each(
        doc,
        doc.root_cursor(),
        pattern,
        |c| filter.as_mut().is_none_or(|f| f.admits(c)),
        |mut b| tuples.push(vars.iter().map(|v| b.remove(v).unwrap_or_else(Value::null)).collect()),
    );
    tuples
}

#[cfg(test)]
mod qerror_tests {
    use super::{centi_q, metric_slug, qerror};

    #[test]
    fn qerror_is_symmetric_and_at_least_one() {
        assert_eq!(qerror(100, 100), 1.0);
        assert_eq!(qerror(100, 400), 4.0);
        assert_eq!(qerror(400, 100), 4.0);
        assert!(qerror(1, 1_000_000) >= 1.0);
        // Zero clamps to one instead of dividing by zero.
        assert_eq!(qerror(0, 0), 1.0);
        assert_eq!(qerror(0, 50), 50.0);
        assert_eq!(qerror(50, 0), 50.0);
    }

    #[test]
    fn centi_q_spreads_the_near_one_range_across_log2_buckets() {
        // Raw Q in [1, 4) would land in two power-of-two buckets; the
        // centi encoding keeps perfect / 1.5× / 2× / 3× distinguishable.
        assert_eq!(centi_q(1.0), 100);
        assert_eq!(centi_q(1.5), 150);
        assert_eq!(centi_q(2.0), 200);
        assert_eq!(centi_q(3.0), 300);
        let bucket = |v: u64| 64 - u64::leading_zeros(v.max(1));
        assert_ne!(bucket(centi_q(1.0)), bucket(centi_q(2.0)));
        assert_ne!(bucket(centi_q(2.0)), bucket(centi_q(4.0)));
        // Perfect (100) and off-by-20% (120) share a bucket — noise
        // stays compressed, real misses separate.
        assert_eq!(bucket(centi_q(1.0)), bucket(centi_q(1.2)));
    }

    #[test]
    fn centi_q_is_clamped_and_integral() {
        assert_eq!(centi_q(-1.0), 0);
        assert_eq!(centi_q(f64::INFINITY), u64::MAX);
        assert_eq!(centi_q(1.004), 100);
        assert_eq!(centi_q(1.006), 101);
    }

    #[test]
    fn metric_slug_folds_to_metric_safe_segments() {
        assert_eq!(metric_slug("HashJoin"), "hashjoin");
        assert_eq!(metric_slug("Sort"), "sort");
        assert_eq!(metric_slug("Source crm"), "source_crm");
        assert_eq!(metric_slug("Values [a, b]"), "values__a__b_");
    }
}

#[cfg(test)]
mod correlated_probe_tests {
    use super::{Engine, EngineConfig, ExecCtx, OptimizerConfig};
    use crate::{planner, Catalog};
    use nimble_algebra::Schema;
    use nimble_sources::xmldoc::XmlDocAdapter;
    use nimble_xml::{to_string, Atomic, DocumentBuilder, Value};
    use std::sync::Arc;

    /// `$x` on both sides of the correlation, spelled as numbers, text,
    /// both zeros, a NaN and a word.
    fn engine() -> Engine {
        let mut coll = DocumentBuilder::new("coll");
        for (x, v) in [
            (Atomic::Int(995), "a"),
            (Atomic::Float(995.0), "b"),
            (Atomic::Str(" 995 ".into()), "c"),
            (Atomic::Int(5), "d"),
            (Atomic::Str("abc".into()), "e"),
            (Atomic::Float(f64::NAN), "f"),
            (Atomic::Str("-0".into()), "g"),
            (Atomic::Float(0.0), "h"),
            (Atomic::Int(999), "i"),
        ] {
            coll.start_element("rec");
            coll.leaf("x", x);
            coll.leaf("v", Atomic::Str(v.into()));
            coll.end_element();
        }
        let mut outer = DocumentBuilder::new("outer");
        for x in OUTER {
            outer.start_element("o");
            outer.leaf("x", x);
            outer.end_element();
        }
        let catalog = Catalog::new();
        catalog
            .register_source(Arc::new(
                XmlDocAdapter::new("src")
                    .add_document("coll", coll.finish())
                    .add_document("outer", outer.finish()),
            ))
            .unwrap();
        let config = EngineConfig {
            optimizer: OptimizerConfig {
                verify_plans: true,
                ..OptimizerConfig::default()
            },
            ..EngineConfig::default()
        };
        Engine::with_config(Arc::new(catalog), config)
    }

    const OUTER: [Atomic; 5] = [
        Atomic::Int(995),
        Atomic::Str(String::new()),
        Atomic::Float(-0.0),
        Atomic::Int(999),
        Atomic::Float(f64::NAN),
    ];

    /// A subquery's match on the variable its outer row binds keeps its
    /// probe, guarded: under every outer row it prunes the numbers the
    /// conjunct rules out — EXPLAIN ANALYZE of the subquery's plan counts
    /// them — and answers as the same plan with its probes cleared.
    #[test]
    fn a_subquery_probes_the_variable_its_outer_row_binds() {
        let engine = engine();
        let inner = nimble_xmlql::parse_query(
            r#"WHERE <rec><x>$x</x><v>$v</v></rec> IN "coll", $x > 990 CONSTRUCT <i>$v</i>"#,
        )
        .unwrap();
        let outer = Schema::try_new(vec!["x".to_string()]).unwrap();
        let config = engine.config();
        let scope = planner::Scope {
            outer: Some(&outer),
            ..planner::Scope::default()
        };
        let plan = engine.plan(&inner, &config.optimizer, scope).unwrap();
        let [probe] = plan.probes.as_slice() else {
            panic!("{:?}", plan.probes);
        };
        assert!(probe.joined && probe.var == "x");
        planner::verify_plan(&plan, Some(&outer)).unwrap();
        let mut cleared = plan.clone();
        cleared.probes.clear();
        let run = |plan: &planner::Plan, row: &Atomic| {
            let mut ctx = ExecCtx::new(config.clone());
            let tuple = vec![Value::Atomic(row.clone())];
            let (schema, tuples) = engine
                .eval_planned(plan, &[], Some((&outer, &tuple)), &mut ctx, true, None)
                .unwrap();
            (format!("{:?} {:?}", schema, tuples), ctx.report.plan)
        };
        for row in &OUTER {
            let (got, explained) = run(&plan, row);
            assert_eq!(got, run(&cleared, row).0, "outer $x = {:?}", row);
            // 5, "-0" and 0.0 are numbers at most 990; "abc", the NaN
            // and the 995s and 999 stay.
            assert!(
                explained.contains("-- probe: $x > 990 on src.coll at rec/x, join variable: numbers only")
                    && explained.contains("-- probe: pruned 3 of 9 candidates of src.coll"),
                "{}",
                explained
            );
        }
        // The query that correlates them prunes as much per outer row.
        let before = engine.metrics_snapshot().counter("engine.match.pruned");
        let answer = engine
            .query(
                r#"WHERE <o><x>$x</x></o> IN "outer"
                   CONSTRUCT <r>{ WHERE <rec><x>$x</x><v>$v</v></rec> IN "coll", $x > 990 CONSTRUCT <i>$v</i> }</r>"#,
            )
            .unwrap();
        assert_eq!(
            engine.metrics_snapshot().counter("engine.match.pruned") - before,
            3 * OUTER.len() as u64
        );
        assert_eq!(
            to_string(&answer.document.root()),
            "<results><r><i>a</i><i>b</i><i>c</i></r><r/><r/><r><i>i</i></r><r><i>f</i></r></results>"
        );
    }
}

#[cfg(test)]
mod fragment_tests {
    use super::{fragment_key, fragment_tuples};
    use nimble_sources::query::{FieldRef, PredOp, RowsBuilder, SourceQuery};
    use nimble_xml::{Atomic, Value};
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fragment_keys_differ_wherever_fragments_do() {
        let base = SourceQuery::scan("customers", &[("n", "name"), ("i", "id")])
            .with_selection("id", PredOp::Eq, Atomic::Int(12));
        let keys: Arc<[Atomic]> = vec![Atomic::Int(1), Atomic::Int(2)].into();
        let mut variants = vec![base.clone()];
        // One field at a time, including the changes a writer that only
        // concatenated would lose.
        variants.push(SourceQuery::scan("customer", &[("sn", "name"), ("i", "id")])
            .with_selection("id", PredOp::Eq, Atomic::Int(12)));
        variants.push(SourceQuery::scan("customers", &[("n", "namei"), ("", "id")])
            .with_selection("id", PredOp::Eq, Atomic::Int(12)));
        for value in [
            Atomic::Int(1),
            Atomic::Int(-12),
            Atomic::Float(12.0),
            Atomic::Str("12".into()),
            Atomic::Str("12;".into()),
            Atomic::Str(String::new()),
            Atomic::Bool(true),
            Atomic::Null,
        ] {
            let mut q = base.clone();
            q.selections[0].value = value;
            variants.push(q);
        }
        for op in [PredOp::Ne, PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge, PredOp::Like] {
            let mut q = base.clone();
            q.selections[0].op = op;
            variants.push(q);
        }
        let mut q = base.clone();
        q.limit = Some(12);
        variants.push(q);
        let mut q = base.clone();
        q.selections.clear();
        variants.push(q.clone());
        q.limit = Some(1);
        variants.push(q);
        let mut q = base.clone();
        q.collections.push(nimble_sources::CollectionRef {
            alias: "o".into(),
            collection: "orders".into(),
        });
        variants.push(q.clone());
        q.join_conds.push((FieldRef::new("o", "cust_id"), FieldRef::new("t", "id")));
        variants.push(q);
        variants.push(base.clone().with_key_set(FieldRef::new("t", "id"), Arc::clone(&keys)));
        variants.push(base.clone().with_key_set(FieldRef::new("t", "id"), keys[..1].into()));
        // A floor, its absence and its value — beside a key set too, the
        // last field written before it.
        for floor in [0, 7, 70] {
            let mut q = base.clone();
            q.after_row = Some(floor);
            variants.push(q.clone());
            variants.push(q.with_key_set(FieldRef::new("t", "id"), Arc::clone(&keys)));
        }
        let distinct: HashSet<String> = variants.iter().map(|q| fragment_key("crm", q)).collect();
        assert_eq!(distinct.len(), variants.len());
        // The source is part of the key, and an interned string is the
        // string it spells.
        assert_ne!(fragment_key("crm", &base), fragment_key("crm2", &base));
        let spelled = base.clone().with_selection("name", PredOp::Eq, Atomic::Str("x".into()));
        let interned = base.clone().with_selection(
            "name",
            PredOp::Eq,
            Atomic::Sym(nimble_xml::Sym::intern("x")),
        );
        assert_eq!(fragment_key("crm", &spelled), fragment_key("crm", &interned));
        // No key begins another, so `…:bind=<n>:<digest>` appended to
        // one is no fragment's key.
        let all: Vec<&String> = distinct.iter().collect();
        for a in &all {
            assert!(all.iter().all(|b| a == b || !b.starts_with(a.as_str())), "{}", a);
        }
    }

    #[test]
    fn rows_are_read_by_position_or_by_name_alike() {
        let vars: Vec<String> = ["a", "b", "c"].iter().map(|v| v.to_string()).collect();
        let mut rows = RowsBuilder::new();
        // In `vars` order (read by position), with a null cell.
        rows.row(&[("a", Atomic::Int(1)), ("b", Atomic::Null), ("c", Atomic::Str("x".into()))]);
        // Out of order, short, long, and with a stranger in the way: by name.
        rows.row(&[("c", Atomic::Int(3)), ("a", Atomic::Int(1)), ("b", Atomic::Int(2))]);
        rows.row(&[("a", Atomic::Int(1)), ("c", Atomic::Int(3))]);
        rows.row(&[("a", Atomic::Int(1)), ("b", Atomic::Int(2)), ("c", Atomic::Int(3)), ("d", Atomic::Int(4))]);
        rows.row(&[("a", Atomic::Int(1)), ("z", Atomic::Int(9)), ("b", Atomic::Int(2)), ("c", Atomic::Int(3))]);
        let doc = rows.finish();
        let int = |i: i64| Value::Atomic(Atomic::Int(i));
        let null = || Value::Atomic(Atomic::Null);
        assert_eq!(
            fragment_tuples(&doc, &vars),
            vec![
                vec![int(1), null(), Value::Atomic(Atomic::Str("x".into()))],
                vec![int(1), int(2), int(3)],
                vec![int(1), null(), int(3)],
                vec![int(1), int(2), int(3)],
                vec![int(1), int(2), int(3)],
            ]
        );
        // A variable named twice reads the first element of that name
        // both times, as reading by name always did.
        let mut rows = RowsBuilder::new();
        rows.row(&[("a", Atomic::Int(1)), ("a", Atomic::Int(2))]);
        let twice: Vec<String> = vec!["a".into(), "a".into()];
        assert_eq!(fragment_tuples(&rows.finish(), &twice), vec![vec![int(1), int(1)]]);
        // A variable no document ever named is null in every row.
        let mut rows = RowsBuilder::new();
        rows.row(&[("a", Atomic::Int(1))]);
        let unknown: Vec<String> = vec!["a".into(), "never_interned_anywhere_q".into()];
        assert_eq!(fragment_tuples(&rows.finish(), &unknown), vec![vec![int(1), null()]]);
    }

    /// The cursor walk against the reading it replaced: every `<row>`
    /// through an owned handle, every variable looked up by name
    /// (`rows_of` + `row_field`). Rows in fragment order take the
    /// positional path, the rest the by-name one; both must be that
    /// reading, value for value and type for type.
    #[test]
    fn cursor_read_tuples_are_the_owned_handle_reading() {
        use nimble_sources::query::{row_field, rows_of};
        use nimble_trace::rng::{sweep, SWEEP_SEED};
        eprintln!("fragment_tuples sweep seed {:#x}", SWEEP_SEED);
        const FIELDS: [&str; 5] = ["a", "b", "c", "d", "e"];
        sweep(256, |rng| {
            let mut vars: Vec<String> = FIELDS.iter().map(|f| f.to_string()).collect();
            rng.shuffle(&mut vars);
            vars.truncate(1 + rng.below(4));
            if rng.chance(0.1) {
                vars.push(vars[0].clone());
            }
            let mut rows = RowsBuilder::new();
            for _ in 0..rng.below(40) {
                // Mostly what an adapter sends: the fragment's outputs
                // in order. Otherwise shuffled, short, or with strangers.
                let mut fields: Vec<&str> = vars.iter().map(String::as_str).collect();
                if rng.chance(0.3) {
                    fields.extend(["z", FIELDS[rng.below(5)]]);
                    rng.shuffle(&mut fields);
                    fields.truncate(rng.below(fields.len() + 1));
                }
                let row: Vec<(&str, Atomic)> = fields
                    .into_iter()
                    .map(|f| {
                        let value = match rng.below(5) {
                            0 => Atomic::Null,
                            1 => Atomic::Int(rng.any_i64()),
                            2 => Atomic::Float(rng.range(-40..40) as f64 / 4.0),
                            3 => Atomic::Bool(rng.chance(0.5)),
                            _ => Atomic::Str(rng.string("ab<&1 ", 0..5)),
                        };
                        (f, value)
                    })
                    .collect();
                rows.row(&row);
            }
            let doc = rows.finish();
            let want: Vec<Vec<Value>> = rows_of(&doc)
                .iter()
                .map(|row| vars.iter().map(|v| Value::Atomic(row_field(row, v))).collect())
                .collect();
            let got = fragment_tuples(&doc, &vars);
            assert_eq!(got, want);
            // `==` equates `Str` with `Sym` and `Int 2` with nothing
            // else; the variants must be the same ones too.
            assert_eq!(format!("{:?}", got), format!("{:?}", want));
        });
    }
}
