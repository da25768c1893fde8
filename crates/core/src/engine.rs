//! The integration engine: end-to-end query service.

use crate::catalog::Catalog;
use crate::construct;
use crate::error::CoreError;
use crate::matcher;
use crate::plan_cache::{PlanCache, PlanStamp};
use crate::planner::{self, cost, AtomExec, BindPatternOp, BindStage, Plan, ShardPlan};
use crate::shard::ShardRuntime;
use nimble_algebra::ops::{
    BoxedOp, EmptyOp, ExchangeOp, FilterOp, HashJoinOp, JoinType, LazySourceOp, MeteredOp,
    NestedLoopJoinOp, Operator, ProjectOp, SortKey, SortOp, ValuesOp,
};
use nimble_planck::{Fingerprint, RewriteRecord};
use nimble_algebra::{
    explain as explain_ops, explain_analyze as explain_analyze_ops, lineage, par_tasks,
    run_to_vec, run_to_vec_batched, ExecError, FunctionRegistry, LineageMask, ScalarExpr, Schema,
    Tuple,
};
use nimble_sources::query::{cursor_field, FieldRef, SourceQuery, Watermark};
use nimble_store::{LogicalClock, ResultCache, ViewStore, WorkloadMonitor};
use nimble_trace::{
    AllocScope, AllocStats, FlightRecord, FlightRecorder, MetricsRegistry, MetricsSnapshot,
    QueryCtx, QueryEvent, QueryLog, QueryLogEntry, SourceCall, SpanView, Trace,
};
use nimble_xml::{Atomic, AtomicKey, Document, DocumentBuilder, Sym, Value, XmlWriter};
use nimble_xmlql::ast::{Query, TagPattern};
use nimble_xmlql::QueryShape;
use nimble_trace::sync::RwLock;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod refresh;

/// Maximum nesting of view evaluation / subqueries, guarding against
/// transitively cyclic view definitions.
const MAX_DEPTH: usize = 16;

/// Estimated build-side rows below which the parallel hash-join build
/// is skipped (matches the operator's own internal serial cutoff, but
/// decided from statistics before any work is submitted). The morsel
/// pool keeps persistent workers, so a round costs two condvar signals
/// instead of thread spawns and the bar sits much lower than the old
/// spawn-per-operator gate.
const PARALLEL_EST_THRESHOLD: u64 = 512;

/// A scan estimate that undershoots the actual row count by more than
/// this factor is a *gross* misestimate: the observed count is fed back
/// into the statistics catalog instead of waiting for the next
/// unfiltered fetch to correct it.
const GROSS_QERROR: u64 = 16;

/// Hidden leading column of a sharded scan's per-shard streams: the
/// row's index in the *unsharded* document. The coordinator stable-sorts
/// the merged stream by it and strips it, restoring original document
/// order so sharded and unsharded answers are byte-identical.
const ORIGIN_COL: &str = "__shard_origin";

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
    /// Fetch independent fragments concurrently, as one round of tasks on
    /// the process-wide worker pool (serially when no pool exists). Query
    /// latency then tracks the slowest source instead of the sum of all
    /// sources.
    pub parallel_fetch: bool,
    /// Wrap every physical operator in a [`MeteredOp`] so EXPLAIN
    /// ANALYZE annotations (actual rows, open/next time) are collected
    /// for every query. Off by default: plans then carry no wrappers
    /// and pay no per-tuple cost. `Engine::explain_analyze` profiles a
    /// single query regardless of this switch.
    pub profile: bool,
    /// Queries at or above this wall time enter the slow-query capture
    /// of the engine's query log. The flight recorder uses the same
    /// threshold for its keep decision.
    pub slow_query_ms: f64,
    /// Flight-recorder ring capacity: how many slow/partial/failed
    /// queries retain their full evidence (span tree, plan, source
    /// calls).
    pub flight_capacity: usize,
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
            parallel_fetch: true,
            profile: false,
            slow_query_ms: 100.0,
            flight_capacity: 64,
            plan_cache_capacity: 128,
        }
    }
}

/// Per-query statistics.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Adapter calls made (fragment executions + collection fetches).
    pub source_calls: u64,
    /// Fragments pushed down to sources.
    pub fragments_pushed: usize,
    /// Binding tuples that reached CONSTRUCT.
    pub tuples: usize,
    /// Rows shipped from sources into the mediator (fragment rows plus
    /// pattern matches over fetched collections).
    pub rows_fetched: u64,
    /// Wall-clock time.
    pub elapsed_ms: f64,
    /// EXPLAIN rendering of the physical plan (with row counts) and the
    /// optimizer's decomposition notes.
    pub plan: String,
    /// Per-phase wall time, in pipeline order: parse, analyze, plan,
    /// verify, execute, construct.
    pub phases: Vec<(String, f64)>,
    /// Rendered span tree (phase nesting). Populated when profiling.
    pub span_tree: String,
    /// The query's correlation id (see `nimble_trace::TraceId`); the
    /// same id tags the query-log entry, every flight record, and the
    /// Chrome-trace export.
    pub trace_id: u64,
    /// Engine instance that served the query.
    pub instance: String,
    /// The span tree as structured views (exportable via
    /// `nimble_trace::chrome_trace`). Populated when profiling.
    pub spans: Vec<SpanView>,
    /// Heap bytes allocated while serving the query (0 unless the
    /// `profile-alloc` feature of `nimble-trace` is compiled in).
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes above the query's entry
    /// level (0 unless `profile-alloc` is on).
    pub alloc_peak_bytes: u64,
    /// Operator kind whose cardinality estimate missed the measured
    /// actual by the largest factor (profiled queries only).
    pub worst_qerror_op: Option<String>,
    /// That operator's Q-error, `max(est/act, act/est)` — 1.0 is a
    /// perfect estimate; 0 when no plan-quality scoring ran.
    pub worst_qerror: f64,
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
    /// on for this query (`None` on cache hits, which skip execution).
    pub provenance: Option<Provenance>,
    pub stats: QueryStats,
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
    query_log: QueryLog,
    /// Process-unique instance name (`engine-N`), carried in every
    /// trace export so merged cluster records stay attributable.
    instance: String,
    flight: FlightRecorder,
    /// Compiled plans keyed by query shape + validity stamp.
    plans: PlanCache,
    /// Monotone counter of plan-cache hits, driving the sampled
    /// differential re-plan (every [`DIFFERENTIAL_SAMPLE`]-th hit,
    /// starting with the first).
    differential_seq: AtomicU64,
    /// Shard runtime for partitioned collections, when this engine acts
    /// as the coordinator of a sharded cluster. Plans compiled while one
    /// is attached route scans over its partitions through an Exchange,
    /// and the plan-cache stamp folds in its map epoch.
    shards: RwLock<Option<Arc<ShardRuntime>>>,
}

/// One in how many plan-cache hits is differentially re-planned under
/// `verify_plans` (the first hit is always sampled, so a test
/// exercising the path needs exactly one hit).
const DIFFERENTIAL_SAMPLE: u64 = 16;

/// Ring-buffer capacity of each engine's query log.
const QUERY_LOG_CAPACITY: usize = 256;
/// Slowest-query entries retained past ring eviction.
const SLOW_QUERY_CAPACITY: usize = 32;

/// A query ready to execute: what [`Engine::compile`] makes of a text.
struct Compiled {
    query: Query,
    plan: Arc<Plan>,
    /// `parse` and `analyze`, when they ran as phases of their own (a
    /// plan-cache miss). On a hit there are none and `plan_ms` is
    /// everything between the text and the bound plan.
    pre_phases: Vec<(String, f64)>,
    plan_ms: f64,
    verify_ms: f64,
    /// False when the plan's operator shape verified clean when it was
    /// cached.
    planck_verify: bool,
    /// Which path the plan came by, as EXPLAIN says it.
    path: String,
}

/// Mutable context threaded through one query's evaluation.
struct ExecCtx {
    missing: Vec<String>,
    stale: bool,
    source_calls: u64,
    fragments: usize,
    rows_fetched: u64,
    plan_text: String,
    /// Whether anyone can read `plan_text`: a result envelope, EXPLAIN or
    /// a flight record. [`Engine::query_serialized`] returns the answer's
    /// bytes alone and clears it, and then no EXPLAIN text — the sources'
    /// SQL included — is rendered.
    want_plan_text: bool,
    /// EXPLAIN's first line: [`Compiled::path`] of the top-level query.
    plan_path: String,
    /// Wrap assembled operators in `MeteredOp` for EXPLAIN ANALYZE.
    profile: bool,
    /// Top-level phase timings (plan/verify/execute), in order.
    phases: Vec<(&'static str, f64)>,
    /// Operator kind of the worst estimate-vs-actual offender seen by
    /// plan-quality scoring during this query.
    worst_qerror_op: Option<String>,
    /// That offender's Q-error (0 until scoring runs).
    worst_qerror: f64,
    /// Lineage tracking enabled for this evaluation scope. Starts true;
    /// view materialization internals clear it (a view contributes as
    /// one unit, not per underlying source). Only effective when
    /// `OptimizerConfig::track_lineage` is also on.
    track: bool,
    /// Per-query provenance table, indexed by lineage id. Interning is
    /// always sequential (the parallel fetch path interns in the join
    /// loop), so ids are dense and in plan order.
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
    fn new() -> ExecCtx {
        ExecCtx {
            missing: Vec::new(),
            stale: false,
            source_calls: 0,
            fragments: 0,
            rows_fetched: 0,
            plan_text: String::new(),
            want_plan_text: true,
            plan_path: String::new(),
            profile: false,
            phases: Vec::new(),
            worst_qerror_op: None,
            worst_qerror: 0.0,
            track: true,
            prov: Vec::new(),
            last_lin: None,
            marks: Vec::new(),
        }
    }

    /// Register one contributing unit in the provenance table, handing
    /// back its singleton lineage mask.
    fn intern_source(&mut self, p: ProvSource) -> LineageMask {
        let id = self.prov.len() as u32;
        self.prov.push(p);
        LineageMask::single(id)
    }

    fn miss(&mut self, source: &str) {
        if !self.missing.iter().any(|s| s == source) {
            self.missing.push(source.to_string());
        }
    }

    /// Fold a per-thread context back into the query's context.
    fn merge(&mut self, other: ExecCtx) {
        for m in other.missing {
            self.miss(&m);
        }
        self.stale |= other.stale;
        self.source_calls += other.source_calls;
        self.fragments += other.fragments;
        self.rows_fetched += other.rows_fetched;
        if self.plan_text.is_empty() {
            self.plan_text = other.plan_text;
        }
        self.phases.extend(other.phases);
        self.marks.extend(other.marks);
        if other.worst_qerror > self.worst_qerror {
            self.worst_qerror = other.worst_qerror;
            self.worst_qerror_op = other.worst_qerror_op;
        }
        // `prov`/`last_lin` are deliberately not merged: fetch workers
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
            instance,
            flight: FlightRecorder::new(config.flight_capacity, config.slow_query_ms),
            plans: PlanCache::new(config.plan_cache_capacity),
            differential_seq: AtomicU64::new(0),
            shards: RwLock::new(None),
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

    /// The slowest queries seen so far (slowest first), surviving ring
    /// eviction.
    pub fn slow_queries(&self, n: usize) -> Vec<QueryLogEntry> {
        self.query_log.slow(n)
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
    /// to the shard-local engines through an Exchange, and compiled
    /// plans are stamped with the shard-map epoch so re-sharding
    /// invalidates them.
    pub fn attach_shards(&self, rt: Arc<ShardRuntime>) {
        *self.shards.write() = Some(rt);
    }

    /// The attached shard runtime, if any.
    pub fn shard_runtime(&self) -> Option<Arc<ShardRuntime>> {
        self.shards.read().clone()
    }

    /// Shard-map epoch of the attached runtime (0 when none); part of
    /// the plan-cache validity stamp.
    pub fn shard_epoch(&self) -> u64 {
        self.shards.read().as_ref().map_or(0, |rt| rt.epoch())
    }

    /// Plan a query against the catalog, shard-aware when a runtime is
    /// attached. Every planning site (fresh, subquery, differential
    /// re-plan) goes through here so cached and fresh plans always see
    /// the same routing. `outer` is the row schema a correlated subquery
    /// runs under.
    fn plan(&self, query: &Query, config: &OptimizerConfig, outer: Option<&Schema>) -> Result<Plan, CoreError> {
        let guard = self.shards.read();
        match outer {
            Some(outer) => planner::plan_subquery(&self.catalog, query, config, guard.as_deref(), outer),
            None => planner::plan_query_sharded(&self.catalog, query, config, guard.as_deref()),
        }
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
        self.query_with(text, false, None)
    }

    /// Answer a query with per-operator profiling forced on for this one
    /// execution, regardless of `EngineConfig::profile`.
    pub fn query_profiled(&self, text: &str) -> Result<QueryResult, CoreError> {
        self.query_with(text, true, None)
    }

    /// Answer a query and return the compact serialized `<results>`
    /// document directly.
    ///
    /// When the CONSTRUCT template nests no subquery, rendering streams
    /// through an [`XmlWriter`] — no result `Document` tree is ever
    /// materialized — and the output is byte-identical to
    /// `to_string(&query(text)?.document.root())`. Templates with
    /// subqueries fall back to [`query`](Self::query) plus tree
    /// serialization (subquery evaluation appends into a builder).
    ///
    /// This path reports no [`QueryResult`] envelope (stats,
    /// provenance, staleness); callers that need those should use
    /// [`query`](Self::query).
    pub fn query_serialized(&self, text: &str) -> Result<String, CoreError> {
        let qctx = QueryCtx::new(self.instance.clone());
        let _ctx_guard = qctx.enter();
        let config = self.config();
        let compiled = self.compile(text, &config, None)?;
        if construct::template_has_subquery(&compiled.query.construct) {
            self.metrics.incr("engine.construct.tree_fallback", 1);
            let result = self.query_with(text, false, Some(compiled))?;
            return Ok(nimble_xml::to_string(&result.document.root()));
        }
        let Compiled { query, plan, path, .. } = compiled;
        let mut ctx = ExecCtx::new();
        ctx.profile = config.profile;
        ctx.want_plan_text = false;
        ctx.plan_path = path;
        let (schema, tuples) = self.eval_planned(&plan, None, 0, &mut ctx, 0.0, 0.0, false)?;
        let a_construct = AllocScope::enter();
        let t_construct = Instant::now();
        // This shape's last answer sizes the buffer: no doubling, and no
        // old copy held beside the new one at the peak.
        let mut w = XmlWriter::with_capacity("results", plan.answer_bytes.load(Ordering::Relaxed));
        construct::append_instances_stream(&mut w, &query.construct, &schema, &tuples, None)?;
        let xml = w.finish();
        plan.answer_bytes.store(xml.len(), Ordering::Relaxed);
        self.phase_alloc("construct", a_construct.finish());
        self.metrics
            .observe("engine.phase_us.construct", us(ms_since(t_construct)));
        self.metrics.incr("engine.construct.streamed", 1);
        self.queries_served.fetch_add(1, Ordering::SeqCst);
        Ok(xml)
    }

    /// Answer `text` with `plan` — one the caller made for it, or changed
    /// (a differential's reference) — instead of the plan compiling the
    /// text gives. The plan cache is neither read nor filled; the plan is
    /// verified as a freshly made one is.
    pub fn query_planned(&self, text: &str, plan: Plan) -> Result<QueryResult, CoreError> {
        let query = nimble_xmlql::parse_query(text).map_err(|e| CoreError::Compile(e.to_string()))?;
        if self.config().optimizer.verify_plans {
            planner::verify_plan(&plan, None)?;
        }
        let compiled = Compiled {
            query,
            plan: Arc::new(plan),
            pre_phases: Vec::new(),
            plan_ms: 0.0,
            verify_ms: 0.0,
            planck_verify: true,
            path: "plan: given".to_string(),
        };
        self.query_with(text, false, Some(compiled))
    }

    /// `compiled` is the text's plan when the caller already has it
    /// ([`Engine::query_serialized`] falling back to the tree path), so
    /// that a serve is compiled — and counted by the plan cache — once.
    fn query_with(
        &self,
        text: &str,
        force_profile: bool,
        compiled: Option<Compiled>,
    ) -> Result<QueryResult, CoreError> {
        // Mint the query's correlation context and make it current on
        // this thread: everything downstream (adapter wrappers, fetch
        // worker threads, the cleaning pipeline) tags its records with
        // the same trace id.
        let qctx = QueryCtx::new(self.instance.clone());
        let _ctx_guard = qctx.enter();
        let in_flight = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.gauge_max("engine.in_flight", in_flight);
        let result = self.query_inner(text, force_profile, &qctx, compiled);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.queries_served.fetch_add(1, Ordering::SeqCst);
        if let Err(e) = &result {
            let elapsed_ms = qctx.elapsed_ms();
            let error = format!("{}: {}", e.kind(), e);
            self.metrics.incr("engine.query.error", 1);
            self.metrics
                .incr(&format!("engine.query.error.{}", e.kind()), 1);
            self.query_log.record_event(QueryEvent {
                trace_id: qctx.trace_id.0,
                text: text.to_string(),
                elapsed_ms,
                tuples: 0,
                complete: false,
                stale: false,
                missing_sources: Vec::new(),
                error: Some(error.clone()),
            });
            // Failed queries are always kept, however fast they died.
            self.flight.admit(FlightRecord {
                trace_id: qctx.trace_id,
                instance: self.instance.clone(),
                text: text.to_string(),
                elapsed_ms,
                tuples: 0,
                complete: false,
                stale: false,
                missing_sources: Vec::new(),
                affected_answers: Vec::new(),
                error: Some(error),
                plan: String::new(),
                spans: Vec::new(),
                source_calls: qctx.source_calls(),
                // Failed queries abandon their allocation scope mid-query,
                // so no per-query footprint is reported for them.
                alloc_bytes: 0,
                alloc_peak_bytes: 0,
                worst_qerror_op: None,
                worst_qerror: 0.0,
            });
        }
        result
    }

    fn query_inner(
        &self,
        text: &str,
        force_profile: bool,
        qctx: &QueryCtx,
        compiled: Option<Compiled>,
    ) -> Result<QueryResult, CoreError> {
        let started = Instant::now();
        let config = self.config();
        let profile = force_profile || config.profile;

        // Whole-query allocation scope: deltas feed `QueryStats` and the
        // flight recorder. Free when `profile-alloc` is off (the scope
        // collapses to a unit struct).
        let query_scope = AllocScope::enter();
        let trace = Trace::new();
        let total_span = trace.span("query");

        let Compiled {
            query,
            plan,
            pre_phases,
            plan_ms,
            verify_ms: plan_verify_ms,
            planck_verify,
            path,
        } = match compiled {
            Some(compiled) => {
                for (name, phase_ms) in &compiled.pre_phases {
                    trace.add_ms(name.as_str(), *phase_ms);
                }
                compiled
            }
            None => self.compile(text, &config, Some(&trace))?,
        };

        let mut ctx = ExecCtx::new();
        ctx.profile = profile;
        ctx.plan_path = path;
        let (schema, tuples) = self.eval_planned(
            &plan,
            None,
            0,
            &mut ctx,
            plan_ms,
            plan_verify_ms,
            planck_verify,
        )?;
        for (name, phase_ms) in &ctx.phases {
            trace.add_ms(*name, *phase_ms);
        }
        let tuple_count = tuples.len();
        // Per-tuple masks of the top-level relation (tracking on) move
        // out of the context before CONSTRUCT; the answer accumulator
        // is shared with nested-subquery evaluation through a cell so
        // subquery lineage folds into the answer being built.
        let tuple_lin = ctx.last_lin.take();
        let answer_cell = tuple_lin.as_ref().map(|_| RefCell::new(Vec::new()));

        let a_construct = AllocScope::enter();
        let t_construct = Instant::now();
        let mut builder = DocumentBuilder::new("results");
        self.construct_into(
            &mut builder,
            &query.construct,
            &schema,
            &tuples,
            0,
            &mut ctx,
            tuple_lin.as_deref(),
            answer_cell.as_ref(),
        )?;
        let document = builder.finish();
        let construct_ms = ms_since(t_construct);
        self.phase_alloc("construct", a_construct.finish());
        trace.add_ms("construct", construct_ms);
        drop(total_span);
        let query_alloc = query_scope.finish();

        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        // Plan-cache hits skip parse/analyze, so `pre_phases` is empty
        // and the phase list starts at `plan` (the cache lookup time).
        let mut phases: Vec<(String, f64)> = pre_phases;
        phases.extend(ctx.phases.iter().map(|(n, p)| (n.to_string(), *p)));
        phases.push(("construct".into(), construct_ms));
        for (name, phase_ms) in &phases {
            self.metrics
                .observe(&format!("engine.phase_us.{}", name), us(*phase_ms));
        }
        self.metrics.incr("engine.queries", 1);
        self.metrics.observe("engine.query_us", us(elapsed_ms));

        // Feed the workload monitor: every named reference shares the
        // measured cost (used by view selection, E2).
        self.feed_monitor(&query, elapsed_ms, document.len());

        let complete = ctx.missing.is_empty();
        // The miss list deduplicates on insert but arrival order depends
        // on fetch scheduling; sort so every consumer (result, log
        // exports, flight records) sees one canonical rendering.
        ctx.missing.sort();
        ctx.missing.dedup();

        // Assemble the provenance report and its metrics.
        let provenance = answer_cell.map(|cell| {
            let answers: Vec<LineageMask> = cell.into_inner();
            let prov = Provenance {
                sources: std::mem::take(&mut ctx.prov),
                answers,
                missing: ctx.missing.clone(),
            };
            self.metrics.incr("engine.provenance.tracked", 1);
            self.metrics
                .incr("engine.provenance.answers", prov.answers.len() as u64);
            let stale_answers = prov.stale_answers().len() as u64;
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
            self.metrics
                .gauge("engine.provenance.spilled_sets")
                .store(lineage::spilled_sets() as u64, Ordering::Relaxed);
            prov
        });
        let affected_answers = provenance
            .as_ref()
            .map(|p| p.stale_answers())
            .unwrap_or_default();
        self.query_log.record_event(QueryEvent {
            trace_id: qctx.trace_id.0,
            text: text.to_string(),
            elapsed_ms,
            tuples: tuple_count,
            complete,
            stale: ctx.stale,
            missing_sources: ctx.missing.clone(),
            error: None,
        });
        // Tail-sample into the flight recorder: the keep decision is
        // one compare; evidence is only materialized for kept queries.
        let keep = self.flight.should_keep(elapsed_ms, complete, false);
        let spans = if profile || keep {
            trace.report()
        } else {
            Vec::new()
        };
        if keep {
            self.flight.admit(FlightRecord {
                trace_id: qctx.trace_id,
                instance: self.instance.clone(),
                text: text.to_string(),
                elapsed_ms,
                tuples: tuple_count,
                complete,
                stale: ctx.stale,
                missing_sources: ctx.missing.clone(),
                affected_answers: affected_answers.clone(),
                error: None,
                plan: ctx.plan_text.clone(),
                spans: spans.clone(),
                source_calls: qctx.source_calls(),
                alloc_bytes: query_alloc.bytes,
                alloc_peak_bytes: query_alloc.peak_bytes,
                worst_qerror_op: ctx.worst_qerror_op.clone(),
                worst_qerror: ctx.worst_qerror,
            });
        }
        Ok(QueryResult {
            document,
            complete,
            missing_sources: ctx.missing,
            stale: ctx.stale,
            provenance,
            stats: QueryStats {
                source_calls: ctx.source_calls,
                fragments_pushed: ctx.fragments,
                tuples: tuple_count,
                rows_fetched: ctx.rows_fetched,
                elapsed_ms,
                plan: ctx.plan_text,
                phases,
                span_tree: if profile { trace.render() } else { String::new() },
                trace_id: qctx.trace_id.0,
                instance: self.instance.clone(),
                spans: if profile { spans } else { Vec::new() },
                alloc_bytes: query_alloc.bytes,
                alloc_peak_bytes: query_alloc.peak_bytes,
                worst_qerror_op: ctx.worst_qerror_op,
                worst_qerror: ctx.worst_qerror,
            },
        })
    }

    /// Text to executable plan, the one way every serve takes: parse,
    /// lift the equality parameters out ([`QueryShape`]), probe the plan
    /// cache for the shape, then bind the cached plan to this query's
    /// values — or, on a miss, analyze, plan, verify and cache.
    ///
    /// A plan serves the whole shape unless it routes shards on the
    /// values ([`Plan::shards`]); such a plan is cached under — and, on
    /// an engine with a shard runtime, a query with parameters is also
    /// looked up under — the query's own spelling. A query without
    /// equality parameters is its own shape.
    ///
    /// A hit skips analysis, planning and, because the plan's fold order
    /// makes the assembled operator shape deterministic, planck
    /// re-verification. Under `verify_plans` every
    /// [`DIFFERENTIAL_SAMPLE`]-th hit is planned afresh and compared
    /// with the plan about to be served. `trace`, when given, receives
    /// the front-end phases as they end.
    fn compile(
        &self,
        text: &str,
        config: &EngineConfig,
        trace: Option<&Trace>,
    ) -> Result<Compiled, CoreError> {
        let t_compile = Instant::now();
        let a_parse = AllocScope::enter();
        let query =
            nimble_xmlql::parse_query(text).map_err(|e| CoreError::Compile(e.to_string()))?;
        let parse_ms = ms_since(t_compile);
        let parse_alloc = a_parse.finish();

        let params = query.eq_params();
        let shape = QueryShape(&query).to_string();
        // Only a coordinator's plans route shards, so only there is a
        // query's own spelling a key worth printing.
        let (shard_epoch, routes) = match &*self.shards.read() {
            Some(rt) => (rt.epoch(), true),
            None => (0, false),
        };
        let spelled = (routes && !params.is_empty()).then(|| query.to_string());
        let key_of = |plan: &Plan| match &spelled {
            Some(spelled) if !plan.shards.is_empty() => spelled.as_str(),
            _ => shape.as_str(),
        };
        let stamp = PlanStamp {
            config_fp: config.optimizer.fingerprint(),
            catalog_epoch: self.catalog.epoch(),
            stats_generation: self.catalog.stats().generation(),
            shard_epoch,
        };
        let keys: Vec<&str> = std::iter::once(shape.as_str())
            .chain(spelled.as_deref())
            .collect();
        let lookup = self.plans.get(&keys, stamp);
        if lookup.invalidated > 0 {
            self.metrics
                .incr("engine.plan_cache.invalidations", lookup.invalidated);
        }
        let analyzed = |query: &Query| {
            nimble_xmlql::analyze(query).map_err(|e| CoreError::Compile(e.to_string()))
        };

        if let Some(cached) = lookup.value {
            self.metrics.incr("engine.plan_cache.hits", 1);
            let (plan, path) = if !params.is_empty() && !cached.shards.is_empty() {
                (cached, "plan: cached for these values only (shard routing)".to_string())
            } else {
                let plan = if params.is_empty() {
                    cached
                } else {
                    Arc::new(planner::bind(&self.catalog, &cached, &params, &config.optimizer)?)
                };
                (plan, format!("plan: cached shape, {} parameters bound", params.len()))
            };
            // Sampled differential re-plan (semantic pass 3 applied to
            // cache reuse): the stamp guarantees the same
            // config/epoch/statistics, so planning is deterministic and
            // any divergence means the cache is about to serve a plan
            // the planner would not make for this query.
            let seq = self.differential_seq.fetch_add(1, Ordering::Relaxed);
            if config.optimizer.verify_plans && seq % DIFFERENTIAL_SAMPLE == 0 {
                self.metrics.incr("engine.plan_cache.differential", 1);
                analyzed(&query)?;
                let fresh = self.plan(&query, &config.optimizer, None)?;
                let served_sig = plan_semantic_signature(&plan);
                let fresh_sig = plan_semantic_signature(&fresh);
                if served_sig != fresh_sig {
                    self.metrics
                        .incr("engine.plan_cache.differential_mismatch", 1);
                    // Self-heal: replace the divergent entry so the next
                    // execution runs the freshly planned shape.
                    self.plans.put(key_of(&fresh), stamp, Arc::new(fresh));
                    return Err(CoreError::PlanVerify(format!(
                        "plan-cache differential mismatch: the cached plan, bound to this \
                         query, does not match a fresh plan under the same stamp\n  cached: {}\n  fresh:  {}",
                        served_sig, fresh_sig
                    )));
                }
            }
            return Ok(Compiled {
                query,
                plan,
                pre_phases: Vec::new(),
                plan_ms: ms_since(t_compile),
                verify_ms: 0.0,
                planck_verify: false,
                path,
            });
        }

        self.metrics.incr("engine.plan_cache.misses", 1);
        let mut pre_phases: Vec<(String, f64)> = Vec::new();
        let mut phase = |name: &str, ms: f64| {
            if let Some(trace) = trace {
                trace.add_ms(name, ms);
            }
            pre_phases.push((name.to_string(), ms));
        };
        self.phase_alloc("parse", parse_alloc);
        phase("parse", parse_ms);

        let a_analyze = AllocScope::enter();
        let t_analyze = Instant::now();
        analyzed(&query)?;
        self.phase_alloc("analyze", a_analyze.finish());
        phase("analyze", ms_since(t_analyze));

        let a_plan = AllocScope::enter();
        let t_plan = Instant::now();
        let plan = self.plan(&query, &config.optimizer, None)?;
        let plan_ms = ms_since(t_plan);
        self.phase_alloc("plan", a_plan.finish());
        let mut verify_ms = 0.0;
        if config.optimizer.verify_plans {
            let a_verify = AllocScope::enter();
            let t_verify = Instant::now();
            planner::verify_plan(&plan, None)?;
            verify_ms = ms_since(t_verify);
            self.phase_alloc("verify", a_verify.finish());
        }
        let plan = Arc::new(plan);
        if self.plans.put(key_of(&plan), stamp, Arc::clone(&plan)) {
            self.metrics.incr("engine.plan_cache.evictions", 1);
        }
        Ok(Compiled {
            query,
            plan,
            pre_phases,
            plan_ms,
            verify_ms,
            planck_verify: true,
            path: "plan: planned".to_string(),
        })
    }

    /// Record one phase's allocation deltas into the
    /// `engine.phase_alloc.*` histograms. A no-op when the
    /// `profile-alloc` feature is compiled out, so profiling-off builds
    /// never even format the metric names.
    fn phase_alloc(&self, name: &str, stats: AllocStats) {
        if !nimble_trace::alloc::enabled() {
            return;
        }
        self.metrics
            .observe(&format!("engine.phase_alloc.bytes.{}", name), stats.bytes);
        self.metrics
            .observe(&format!("engine.phase_alloc.allocs.{}", name), stats.allocs);
        self.metrics
            .observe(&format!("engine.phase_alloc.peak.{}", name), stats.peak_bytes);
    }

    /// Share a query's measured cost among its named references.
    fn feed_monitor(&self, query: &Query, elapsed_ms: f64, result_nodes: usize) {
        let names = crate::catalog::referenced_names(query);
        if !names.is_empty() {
            let share = elapsed_ms / names.len() as f64;
            for n in &names {
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

    /// EXPLAIN ANALYZE: execute the query with per-operator profiling
    /// forced on, returning the phase span tree followed by the plan
    /// with each operator annotated with its actual row count and
    /// measured open/next time.
    pub fn explain_analyze(&self, text: &str) -> Result<String, CoreError> {
        let result = self.query_profiled(text)?;
        let mut out = result.stats.span_tree;
        out.push_str(&result.stats.plan);
        Ok(out)
    }

    /// Evaluate a view definition virtually and construct its document.
    fn eval_view_virtually(
        &self,
        query: &Query,
        depth: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Arc<Document>, CoreError> {
        let (schema, tuples) = self.eval(query, None, depth, ctx)?;
        let mut b = DocumentBuilder::new("results");
        self.construct_into(&mut b, &query.construct, &schema, &tuples, depth, ctx, None, None)?;
        Ok(b.finish())
    }

    /// The document backing a view reference: fresh materialization if
    /// present, otherwise virtual evaluation (with stale fallback under
    /// the `StaleCache` policy).
    fn view_document(
        &self,
        name: &str,
        depth: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Arc<Document>, CoreError> {
        if depth >= MAX_DEPTH {
            return Err(CoreError::CyclicView(name.to_string()));
        }
        let now = self.clock.now();
        let cached = self.views.lookup(name, now);
        if let Some((doc, nimble_store::Freshness::Fresh)) = &cached {
            return Ok(Arc::clone(doc));
        }
        let def = self
            .catalog
            .view(name)
            .ok_or_else(|| CoreError::UnknownCollection(name.to_string()))?;
        match self.eval_view_virtually(&def.query, depth + 1, ctx) {
            Ok(doc) => Ok(doc),
            Err(CoreError::Source(e)) => {
                if self.config().unavailable == UnavailablePolicy::StaleCache {
                    if let Some((doc, _)) = cached {
                        ctx.stale = true;
                        return Ok(doc);
                    }
                }
                Err(CoreError::Source(e))
            }
            Err(other) => Err(other),
        }
    }

    /// Evaluate a query's WHERE clause to a binding-tuple relation,
    /// planning it first. Subqueries and view expansion enter here; the
    /// top-level query plans (or takes a plan-cache hit) in
    /// `query_inner` and calls [`Engine::eval_planned`] directly.
    fn eval(
        &self,
        query: &Query,
        outer: Option<(&Schema, &Tuple)>,
        depth: usize,
        ctx: &mut ExecCtx,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        if depth >= MAX_DEPTH {
            return Err(CoreError::CyclicView("<subquery>".to_string()));
        }
        let config = self.config();
        let t_plan = Instant::now();
        let plan = self.plan(query, &config.optimizer, outer.map(|(s, _)| s))?;
        let plan_ms = ms_since(t_plan);
        let mut verify_ms = 0.0;
        if config.optimizer.verify_plans {
            let t_verify = Instant::now();
            planner::verify_plan(&plan, outer.map(|(s, _)| s))?;
            verify_ms += ms_since(t_verify);
        }
        self.eval_planned(&plan, outer, depth, ctx, plan_ms, verify_ms, true)
    }

    /// Execute an already-decomposed plan: fetch the independent units,
    /// fold the mediator-side join tree, run dependents/residuals/sort,
    /// and drive the pipeline. `plan_ms`/`plan_verify_ms` report how the
    /// plan was obtained (fresh planning or a cache lookup) for the
    /// phase breakdown; `planck_verify` is false when the operator shape
    /// already verified clean (a plan-cache hit: the plan's fold order
    /// makes the assembled shape deterministic).
    #[allow(clippy::too_many_arguments)]
    fn eval_planned(
        &self,
        plan: &Plan,
        outer: Option<(&Schema, &Tuple)>,
        depth: usize,
        ctx: &mut ExecCtx,
        plan_ms: f64,
        plan_verify_ms: f64,
        planck_verify: bool,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        let config = self.config();
        // A statically-pruned plan (unsatisfiable WHERE clause) skips
        // the entire pipeline: no source is contacted, no join is
        // folded — the measurable win of satisfiability analysis.
        if let Some(reason) = &plan.pruned {
            return self.eval_pruned(plan, reason, outer, depth, ctx, plan_ms, plan_verify_ms);
        }
        let mut verify_ms = plan_verify_ms;
        let a_execute = AllocScope::enter();
        let t_execute = Instant::now();
        let verify_pre_ms = verify_ms;

        // Lineage tracking for this run: tag every fetched unit's scan
        // with its interned mask; the outer context (a subquery's
        // correlated tuple) carries the empty mask — its own sources
        // are already attributed to the enclosing answer.
        let track = config.optimizer.track_lineage && ctx.track;

        // Fetch every independent unit (the Scan layer). Each slot is
        // `(schema, tuples, lineage masks, unit label)`; the masks are
        // empty when tracking is off and the label feeds the rewrite
        // audit's source-set fingerprints.
        let mut inputs: Vec<(Schema, Vec<Tuple>, ScanMasks, String)> = Vec::new();
        if let Some((schema, tuple)) = outer {
            inputs.push((
                schema.clone(),
                vec![tuple.clone()],
                if track {
                    ScanMasks::One(LineageMask::EMPTY)
                } else {
                    ScanMasks::None
                },
                "<outer>".to_string(),
            ));
        }
        // The Scan layer, in two rounds (DESIGN.md §18). A plan with a
        // bind stage fetches its driver first and sends the targets the
        // keys the driver bound; a plan without one has an empty first
        // round. A failure waits in its slot until both rounds are
        // through, so the error reported is the first in atom order
        // whichever round met it.
        let n = plan.independents.len();
        let mut fetched: Vec<Option<Result<Fetched, CoreError>>> = Vec::new();
        fetched.resize_with(n, || None);
        let first: Vec<usize> = plan.bind.iter().map(|stage| stage.driver).collect();
        self.fetch_round(plan, &first, None, depth, ctx, &mut fetched);
        let (bound, bind_note) = match &plan.bind {
            Some(stage) => self.bind_keys(stage, fetched[stage.driver].as_ref()),
            None => (None, None),
        };
        let rest: Vec<usize> = (0..n).filter(|i| !first.contains(i)).collect();
        self.fetch_round(plan, &rest, bound.as_ref(), depth, ctx, &mut fetched);
        // What EXPLAIN ANALYZE says of each probed match.
        let mut probed_notes: Vec<String> = Vec::new();
        for (atom, slot) in plan.independents.iter().zip(fetched) {
            let unit = slot.ok_or_else(|| {
                CoreError::Internal("independent unit left unfetched".into())
            })??;
            ctx.rows_fetched += unit.tuples.len() as u64;
            if let (Some((pruned, candidates)), true) = (unit.probed, ctx.profile) {
                probed_notes.push(format!(
                    "probe: pruned {} of {} candidates of {}",
                    pruned,
                    candidates,
                    atom_name(atom)
                ));
            }
            // Interning is sequential, in atom order, whatever order
            // the units were fetched in: workers only describe their
            // unit, ids are assigned here.
            let masks = intern_masks(ctx, unit.prov);
            inputs.push((unit_schema(unit.vars)?, unit.tuples, masks, atom_name(atom)));
        }
        if inputs.is_empty() {
            return Err(CoreError::Exec("query has no inputs".into()));
        }

        // Join ordering. The plan carries a fold order computed from
        // collection statistics (estimated output cardinality of each
        // intermediate join). The outer context always stays first so
        // correlated variables bind early.
        let start = usize::from(outer.is_some());
        if plan.est_rows.len() != n || plan.fold_order.len() != n || plan.fold_rows.len() != n {
            return Err(CoreError::Internal(
                "plan estimates and fold order do not cover its units".into(),
            ));
        }

        // Score the planner's per-unit cardinality estimates against the
        // rows each unit actually shipped (inputs are still in atom
        // order here). This runs on every query, profiled or not — the
        // scan layer is where estimates are cheapest to check — and a
        // gross miss on a filtered fragment feeds the observed count
        // back into the statistics catalog as a sound lower bound on the
        // collection's cardinality.
        for (i, atom) in plan.independents.iter().enumerate() {
            let Some((_, fetched, _, _)) = inputs.get(start + i) else {
                continue;
            };
            let est = plan.est_rows[i];
            let act = fetched.len() as u64;
            let q = qerror(est, act);
            self.metrics.observe("plan.qerror.scan", centi_q(q));
            if q > ctx.worst_qerror {
                ctx.worst_qerror = q;
                ctx.worst_qerror_op = Some("Scan".to_string());
            }
            // A bind target's estimate is for the rows its keys leave;
            // what it shipped — keyed, or whole when the stage was
            // declined — says nothing about the collection.
            let keyed = plan.bind.as_ref().is_some_and(|b| b.target(i).is_some());
            if act > est.saturating_mul(GROSS_QERROR) && !keyed {
                // Only a filtered single-collection fragment: its
                // filtered row count is a certain lower bound on the
                // base collection (unfiltered fetches already feed
                // exact counts through `note_stats_rows`). A bound
                // raises the count and never lowers it: below the rows
                // sampled, a partial sample would pass for exhaustive and
                // its min/max for exact bounds.
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
        // Estimated rows per input slot (post-permutation), for operator
        // annotations and build-side/parallelism decisions.
        let mut input_est: Vec<Option<u64>> = vec![None; inputs.len()];
        let mut tail: Vec<Option<(Schema, Vec<Tuple>, ScanMasks, String)>> =
            inputs.drain(start..).map(Some).collect();
        for (k, &i) in plan.fold_order.iter().enumerate() {
            if let Some(input) = tail.get_mut(i).and_then(Option::take) {
                inputs.push(input);
                input_est[start + k] = Some(plan.est_rows[i]);
            }
        }
        // Defensive: a malformed permutation never drops inputs.
        for input in tail.into_iter().flatten() {
            inputs.push(input);
        }
        if start == 1 {
            input_est[0] = Some(1);
        }

        // Fold into a physical join tree. From here to the end of the
        // drive is the executor pipeline, timed separately from atom
        // fetch as `engine.exec.pipeline_us`.
        let t_pipeline = Instant::now();
        let funcs = self.funcs.read().clone();
        // Execution-time rewrites (build-side swaps) recorded for the
        // rewrite audit.
        let mut exec_rewrites: Vec<RewriteRecord> = Vec::new();
        let mut iter = inputs.into_iter().enumerate();
        let (_, (first_schema, first_tuples, first_mask, first_name)) = iter
            .next()
            .ok_or_else(|| CoreError::Internal("join fold over zero inputs".into()))?;
        let profile = ctx.profile;
        let meter = move |op: Box<dyn Operator>| -> Box<dyn Operator> {
            if profile {
                Box::new(MeteredOp::new(op))
            } else {
                op
            }
        };
        // The batch drive pulls each scan exactly once, so scans move
        // their tuples out instead of cloning.
        let scan = |values: ValuesOp| values.labeled("Scan").drain_on_batch();
        let mut first_scan = scan(ValuesOp::new(first_schema, first_tuples));
        first_scan = match first_mask {
            ScanMasks::One(m) => first_scan.with_lineage(m),
            ScanMasks::Per(v) => first_scan.with_lineage_masks(v),
            ScanMasks::None => first_scan,
        };
        if let Some(e) = input_est.first().copied().flatten() {
            first_scan.set_est_rows(e);
        }
        let mut op: Box<dyn Operator> = meter(Box::new(first_scan));
        // Source labels of every unit folded in so far, for the rewrite
        // audit's source-set fingerprints (a faithful execution rewrite
        // must not change where the joined rows come from).
        let mut cur_srcs: Vec<String> = vec![first_name];
        // Estimated rows flowing out of the current accumulated subtree.
        let mut cur_est: Option<u64> = input_est.first().copied().flatten();
        for (idx, (schema, tuples, mask, unit_name)) in iter {
            if !cur_srcs.contains(&unit_name) {
                cur_srcs.push(unit_name);
            }
            let this_est = input_est.get(idx).copied().flatten();
            // Estimated size after this fold step (from the planner's
            // greedy cost walk; index is offset by the outer slot).
            let next_est = idx
                .checked_sub(start)
                .and_then(|k| plan.fold_rows.get(k).copied());
            let mut right_scan = scan(ValuesOp::new(schema.clone(), tuples));
            right_scan = match mask {
                ScanMasks::One(m) => right_scan.with_lineage(m),
                ScanMasks::Per(v) => right_scan.with_lineage_masks(v),
                ScanMasks::None => right_scan,
            };
            if let Some(e) = this_est {
                right_scan.set_est_rows(e);
            }
            let right: Box<dyn Operator> = meter(Box::new(right_scan));
            let has_common = !op.schema().common_vars(&schema).is_empty();
            op = if has_common {
                // Build side: `HashJoinOp` builds its table on the right
                // operand. When the statistics say the accumulated side
                // is much smaller than the incoming unit, swap so the
                // small side is built and the large side streams as the
                // probe.
                let swap = matches!(
                    (cur_est, this_est),
                    (Some(acc), Some(next)) if next > acc.saturating_mul(4)
                );
                // Fingerprint the operand schemas before they move into
                // the join: a faithful swap keeps the (deduplicated,
                // `#`-free) column set and the natural-join key set.
                let swap_before = if swap {
                    let mut cols: Vec<String> = Vec::new();
                    for v in op.schema().vars().iter().chain(schema.vars()) {
                        if !v.contains('#') && !cols.iter().any(|x| x == v) {
                            cols.push(v.clone());
                        }
                    }
                    Some((cols, op.schema().common_vars(&schema)))
                } else {
                    None
                };
                let build_est = if swap { cur_est } else { this_est };
                let (probe, build) = if swap { (right, op) } else { (op, right) };
                let join = HashJoinOp::natural(probe, build, JoinType::Inner);
                if let Some((before_cols, keys)) = swap_before {
                    let after_cols: Vec<String> = join
                        .schema()
                        .vars()
                        .iter()
                        .filter(|v| !v.contains('#'))
                        .cloned()
                        .collect();
                    // A swap exchanges the operands, never the unit set:
                    // record the folded source labels on both sides so
                    // the audit's source-set check pins that down.
                    exec_rewrites.push(RewriteRecord::new(
                        "build-side-swap",
                        false,
                        Fingerprint::new(before_cols)
                            .with_keys(keys.clone())
                            .with_sources(cur_srcs.clone()),
                        Fingerprint::new(after_cols)
                            .with_keys(keys)
                            .with_sources(cur_srcs.clone()),
                    ));
                }
                // Parallel build pays for itself only on large builds;
                // with estimates in hand, gate it instead of always
                // submitting a pool round.
                let parallel_join = build_est.map_or(true, |e| e >= PARALLEL_EST_THRESHOLD);
                let mut join = join.vectorized(parallel_join);
                if let Some(e) = next_est {
                    join.set_est_rows(e);
                }
                meter(Box::new(join))
            } else {
                let mut join = NestedLoopJoinOp::new(
                    op,
                    right,
                    None,
                    JoinType::Inner,
                    Arc::clone(&funcs),
                );
                if let Some(e) = next_est {
                    join.set_est_rows(e);
                }
                meter(Box::new(join))
            };
            cur_est = next_est;
        }

        // Dependent navigation atoms, in syntactic order.
        for dep in &plan.dependents {
            op = meter(Box::new(BindPatternOp::new(op, &dep.on_var, dep.pattern.clone())?));
        }

        // Drop duplicate join columns (`var#2` …).
        if op.schema().vars().iter().any(|v| v.contains('#')) {
            let keep: Vec<String> = op
                .schema()
                .vars()
                .iter()
                .filter(|v| !v.contains('#'))
                .cloned()
                .collect();
            let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
            let mut project = ProjectOp::keep(op, &keep_refs, Arc::clone(&funcs));
            if let Some(e) = cur_est {
                project.set_est_rows(e);
            }
            op = meter(Box::new(project));
        }

        // Residual predicates.
        if !plan.residual_predicates.is_empty() {
            let translated: Vec<ScalarExpr> = plan
                .residual_predicates
                .iter()
                .map(|e| planner::translate_expr(e, op.schema()))
                .collect::<Result<_, _>>()?;
            let mut filter = FilterOp::new(op, ScalarExpr::conjunction(translated), Arc::clone(&funcs));
            if let Some(e) = cur_est {
                // Default 1/3 selectivity per central predicate (matching
                // the planner's cost model for unstated selections) — but
                // a probed one, which the scan's estimate applied already.
                let mut probed: Vec<usize> = plan.probes.iter().map(|p| p.conjunct).collect();
                probed.sort_unstable();
                probed.dedup();
                let preds = plan.residual_predicates.len().saturating_sub(probed.len());
                let preds = preds.min(u32::MAX as usize) as u32;
                let est = (e / 3u64.saturating_pow(preds)).max(1);
                filter.set_est_rows(est);
                cur_est = Some(est);
            }
            op = meter(Box::new(filter));
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
            if let Some(e) = cur_est {
                sort.set_est_rows(e);
            }
            op = meter(Box::new(sort));
        }

        // Static verification of the assembled physical plan: every
        // operator's schema/expression/ordering contract must hold before
        // we open anything. (`MeteredOp` wrappers delegate `introspect`,
        // so the verifier sees the identical plan.) A plan-cache hit
        // (`planck_verify` false) skips this: the plan's fold order
        // drives assembly, so a hit assembles the shape verified at
        // cache-fill time.
        if config.optimizer.verify_plans && planck_verify {
            let t_verify = Instant::now();
            // The structural pass plus bottom-up type/nullability
            // inference (planck pass 1).
            nimble_planck::verify_semantic(op.as_ref())
                .map_err(|report| CoreError::PlanVerify(report.to_string()))?;
            verify_ms += ms_since(t_verify);
        }

        // Semantic pass 3: audit every rewrite the optimizer applied to
        // this query — plan-level (pushdown, fold reorder) and
        // execution-level (build-side swap) — for schema, key-set, and
        // cardinality-bound preservation.
        if !(plan.rewrites.is_empty() && exec_rewrites.is_empty()) {
            let t_verify = Instant::now();
            let mut records = plan.rewrites.clone();
            records.append(&mut exec_rewrites);
            let issues = nimble_planck::audit(&records);
            if !issues.is_empty() {
                let details: Vec<String> = issues
                    .iter()
                    .map(|i| format!("{}: {}", i.operator, i.detail))
                    .collect();
                return Err(CoreError::PlanVerify(format!(
                    "rewrite audit failed:\n  {}",
                    details.join("\n  ")
                )));
            }
            verify_ms += ms_since(t_verify);
        }

        let (tuples, batches) =
            run_to_vec_batched(op.as_mut(), nimble_algebra::ops::DEFAULT_BATCH_SIZE)?;
        self.metrics.incr("engine.exec.batches", batches);
        self.metrics.incr("engine.exec.batch_rows", tuples.len() as u64);
        self.metrics.observe(
            "engine.exec.pipeline_us",
            us((ms_since(t_pipeline) - (verify_ms - verify_pre_ms)).max(0.0)),
        );
        // Harvest per-tuple lineage from the root operator (operators
        // keep their masks across close, so the drained run above left
        // them intact). `None` when any leaf lacked a mask.
        ctx.last_lin = if track {
            op.lineage().map(|l| l.to_vec())
        } else {
            None
        };
        let schema = op.schema().clone();
        // Plan-quality telemetry over the finished operator tree:
        // per-kind Q-error histograms and decision flips (profiled
        // nodes), per-worker busy times of parallel sections (always).
        self.plan_quality_walk(op.as_ref(), ctx);
        // Pool utilization gauges: cumulative fork/join rounds and
        // morsels pulled by the process-wide worker pool (max-gauges,
        // so snapshots merge like the stats epoch).
        let (pool_size, pool_rounds, pool_morsels) = nimble_algebra::pool_stats();
        if pool_size > 0 {
            self.metrics.gauge_max("engine.pool.size", pool_size as u64);
            self.metrics.gauge_max("engine.pool.rounds", pool_rounds);
            self.metrics.gauge_max("engine.pool.morsels", pool_morsels);
        }
        let exec_alloc = a_execute.finish();
        if depth == 0 && ctx.phases.is_empty() {
            // Execute covers fetch + join run; verification of the
            // assembled tree happened inside the window, so subtract it.
            let execute_ms = (ms_since(t_execute) - (verify_ms - verify_pre_ms)).max(0.0);
            ctx.phases.push(("plan", plan_ms));
            ctx.phases.push(("verify", verify_ms));
            ctx.phases.push(("execute", execute_ms));
            self.phase_alloc("execute", exec_alloc);
        }
        // Record the plan (top-level query only).
        if depth == 0 && ctx.want_plan_text && ctx.plan_text.is_empty() {
            let of_values = planner::value_notes(&self.catalog, plan);
            let mut text = explain_notes(
                &ctx.plan_path,
                plan.notes.iter().chain(&of_values).chain(&bind_note).chain(&probed_notes),
            );
            if ctx.profile {
                text.push_str(&explain_analyze_ops(op.as_ref()));
            } else {
                text.push_str(&explain_ops(op.as_ref()));
            }
            ctx.plan_text = text;
        }
        Ok((schema, tuples))
    }

    /// Execute a plan satisfiability analysis proved statically empty:
    /// build an annotated [`EmptyOp`] over the schema the normal
    /// pipeline would have produced (so CONSTRUCT and correlated
    /// subqueries still resolve every variable) and run it. No adapter
    /// is called and no rows are fetched.
    #[allow(clippy::too_many_arguments)]
    fn eval_pruned(
        &self,
        plan: &Plan,
        reason: &str,
        outer: Option<(&Schema, &Tuple)>,
        depth: usize,
        ctx: &mut ExecCtx,
        plan_ms: f64,
        plan_verify_ms: f64,
    ) -> Result<(Schema, Vec<Tuple>), CoreError> {
        let config = self.config();
        let t_pipeline = Instant::now();
        let mut vars: Vec<String> = outer
            .map(|(s, _)| s.vars().to_vec())
            .unwrap_or_default();
        for atom in &plan.independents {
            for v in atom.vars() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.clone());
                }
            }
        }
        for dep in &plan.dependents {
            for v in &dep.vars {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.clone());
                }
            }
        }
        let schema = unit_schema(vars)?;
        let mut op: Box<dyn Operator> =
            Box::new(EmptyOp::new(schema.clone(), format!("pruned: {}", reason)));
        let mut verify_ms = plan_verify_ms;
        if config.optimizer.verify_plans {
            let t_verify = Instant::now();
            nimble_planck::verify_semantic(op.as_ref())
                .map_err(|report| CoreError::PlanVerify(report.to_string()))?;
            verify_ms += ms_since(t_verify);
        }
        self.metrics.incr("engine.plan.pruned", 1);
        let tuples = run_to_vec(op.as_mut())?;
        // A pruned plan emits no tuples, so its lineage is the empty
        // per-tuple list — tracked queries still get a (vacuously
        // complete) provenance report.
        ctx.last_lin = (config.optimizer.track_lineage && ctx.track).then(Vec::new);
        self.metrics.observe(
            "engine.exec.pipeline_us",
            us((ms_since(t_pipeline) - (verify_ms - plan_verify_ms)).max(0.0)),
        );
        if depth == 0 && ctx.phases.is_empty() {
            let execute_ms = (ms_since(t_pipeline) - (verify_ms - plan_verify_ms)).max(0.0);
            ctx.phases.push(("plan", plan_ms));
            ctx.phases.push(("verify", verify_ms));
            ctx.phases.push(("execute", execute_ms));
        }
        if depth == 0 && ctx.want_plan_text && ctx.plan_text.is_empty() {
            let of_values = planner::value_notes(&self.catalog, plan);
            let mut text = explain_notes(&ctx.plan_path, plan.notes.iter().chain(&of_values));
            text.push_str(&explain_ops(op.as_ref()));
            ctx.plan_text = text;
        }
        Ok((schema, tuples))
    }

    /// Walk a finished operator tree recording plan-quality telemetry:
    ///
    /// * `plan.qerror.<kind>` — Q-error (`max(est/act, act/est)`, stored
    ///   as centi-Q so near-1 estimates stay distinguishable in the
    ///   log₂ buckets) of every profiled node that carried an estimate.
    /// * `plan.flips.build_side` — hash joins whose chosen build side
    ///   turned out more than 4× larger than the probe side: the
    ///   estimates picked one side, the actuals say the other (the
    ///   assembled tree always encodes the estimate-preferred side, so
    ///   the reversed inequality is exactly a flipped decision).
    /// * `plan.flips.parallel` — parallel-build gate decisions the
    ///   actuals reversed, in either direction: gated on by a ≥threshold
    ///   estimate but runtime-declined (build actually small), or gated
    ///   off by a small estimate when the build actually crossed the
    ///   threshold.
    /// * `engine.par.worker_busy_us` / `engine.par.workers` /
    ///   `engine.par.skipped` — per-worker busy times and spawn/skip
    ///   counts of every parallel section, recorded whether or not the
    ///   query was profiled.
    fn plan_quality_walk(&self, op: &dyn Operator, ctx: &mut ExecCtx) {
        let info = op.introspect();
        if let Some(pp) = op.par_profile() {
            if pp.workers > 0 {
                self.metrics.incr("engine.par.workers", pp.workers as u64);
                for &busy in &pp.busy_us {
                    self.metrics.observe("engine.par.worker_busy_us", busy);
                }
            } else {
                self.metrics.incr("engine.par.skipped", 1);
            }
        }
        if let (Some(p), Some(est)) = (op.profile(), op.est_rows()) {
            let q = qerror(est, p.rows);
            self.metrics
                .observe(&format!("plan.qerror.{}", metric_slug(&info.name)), centi_q(q));
            if q > ctx.worst_qerror {
                ctx.worst_qerror = q;
                ctx.worst_qerror_op = Some(info.name.clone());
            }
        }
        if info.name == "HashJoin" {
            let children = op.children();
            if let [probe, build] = children[..] {
                let acts = (
                    probe.profile().map(|p| p.rows),
                    build.profile().map(|p| p.rows),
                );
                if let (Some(p_act), Some(b_act)) = acts {
                    // Both sides carried estimates iff the swap rule ran.
                    if probe.est_rows().is_some()
                        && build.est_rows().is_some()
                        && b_act > p_act.saturating_mul(4)
                    {
                        self.metrics.incr("plan.flips.build_side", 1);
                    }
                }
                let b_est = build.est_rows();
                match op.par_profile() {
                    // Estimate opened the gate; the operator declined at
                    // runtime because the actual build was small.
                    Some(pp) if pp.workers == 0 => {
                        if b_est.map_or(false, |e| e >= PARALLEL_EST_THRESHOLD) {
                            self.metrics.incr("plan.flips.parallel", 1);
                        }
                    }
                    // Estimate closed the gate but the build actually
                    // crossed the operator's own threshold.
                    None => {
                        if b_est.map_or(false, |e| e < PARALLEL_EST_THRESHOLD)
                            && acts.1.map_or(false, |a| a >= PARALLEL_EST_THRESHOLD)
                        {
                            self.metrics.incr("plan.flips.parallel", 1);
                        }
                    }
                    Some(_) => {}
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
        self.metrics.incr("stats.feedback", 1);
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

    /// Fetch the independent units listed in `round` into their slots:
    /// through the shared morsel pool — one task per unit, so latency
    /// tracks the slowest source, not the sum — or, when the round has
    /// one unit or `par_tasks` declines (single core, no pool, nested
    /// round), one after the other. `bound` is the bind stage's key
    /// list, for the units that are its targets.
    ///
    /// The pool runs every unit; the serial loop stops at the first
    /// failure, leaving the slots behind it empty.
    fn fetch_round(
        &self,
        plan: &Plan,
        round: &[usize],
        bound: Option<&BoundKeys>,
        depth: usize,
        ctx: &mut ExecCtx,
        fetched: &mut [Option<Result<Fetched, CoreError>>],
    ) {
        let fetch = |i: usize, ctx: &mut ExecCtx| {
            let bind = plan
                .bind
                .as_ref()
                .zip(bound)
                .and_then(|(stage, keys)| Some((&stage.target(i)?.field, keys)));
            self.fetch_atom(plan, i, bind, depth, ctx)
        };
        let many = self.config().parallel_fetch && round.len() > 1;
        // The query context is thread-local, so each worker re-enters
        // it to keep source calls attributed to the query.
        let pooled = if many {
            let qctx = QueryCtx::current();
            par_tasks(round.len(), |k| {
                let _g = qctx.as_ref().map(|c| c.enter());
                let mut local = ExecCtx::new();
                let unit = fetch(round[k], &mut local);
                (unit, local)
            })
        } else {
            None
        };
        match pooled {
            Some(results) => {
                self.metrics.incr("engine.fetch.pool", 1);
                for (&i, (unit, local)) in round.iter().zip(results) {
                    ctx.merge(local);
                    fetched[i] = Some(unit);
                }
            }
            None => {
                if many {
                    self.metrics.incr("engine.fetch.serial", 1);
                }
                for &i in round {
                    let unit = fetch(i, ctx);
                    let failed = unit.is_err();
                    fetched[i] = Some(unit);
                    if failed {
                        break;
                    }
                }
            }
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
    /// with a [`ShardPlan`] routes through [`Engine::fetch_sharded`]
    /// instead of the source adapter; one matched here skips the
    /// candidates its probes rule out. `bind` is the bind stage's key
    /// list and this unit's field for it, when the unit is a target.
    fn fetch_atom(
        &self,
        plan: &Plan,
        i: usize,
        bind: Option<(&FieldRef, &BoundKeys)>,
        depth: usize,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let config = self.config();
        let track = config.optimizer.track_lineage && ctx.track;
        match &plan.independents[i] {
            AtomExec::Fragment {
                source,
                query,
                vars,
            } => {
                let adapter = self
                    .catalog
                    .source(source)
                    .ok_or_else(|| CoreError::UnknownCollection(source.clone()))?;
                let fragment_prov = || {
                    track.then(|| ProvSource {
                        name: source.clone(),
                        detail: "fragment".to_string(),
                        stale: false,
                        cache_age_ms: None,
                        view: false,
                    })
                };
                let keyed = bind.filter(|(_, bound)| bound.send);
                if keyed.is_some_and(|(_, bound)| bound.keys.is_empty()) {
                    // A healthy driver bound no key, so the inner join
                    // is empty whatever this source holds: it is not
                    // asked (and never sent `IN ()`).
                    return Ok(Fetched::fresh(
                        vars.clone(),
                        Vec::new(),
                        FetchProv::from_opt(fragment_prov()),
                    ));
                }
                ctx.source_calls += 1;
                ctx.fragments += 1;
                self.metrics.incr(&format!("source.calls.{}", source), 1);
                // A keyed answer is stored under its keys' digest, so the
                // stale cache can serve it for these keys only. With a
                // list that is not sent (the driver was served stale)
                // the document cached for these keys still answers, as
                // second choice; with one that is, the whole fragment
                // does — a superset the join filters.
                let whole_key = fragment_key(source, query);
                let keyed_key = bind.map(|(_, bound)| {
                    format!("{}:bind={}:{:016x}", whole_key, bound.keys.len(), bound.digest)
                });
                let mut cache_keys: Vec<&str> = vec![&whole_key];
                cache_keys.extend(keyed_key.as_deref());
                if keyed.is_some() {
                    cache_keys.reverse();
                }
                let sent = keyed.map(|(field, bound)| {
                    query.clone().with_key_set(field.clone(), Arc::clone(&bound.keys))
                });
                let query = sent.as_ref().unwrap_or(query);
                let kind = keyed.map(|(_, bound)| format!("execute bind={}", bound.keys.len()));
                let kind = kind.as_deref().unwrap_or("execute");
                let calls_before = QueryCtx::current().map(|c| c.calls_len());
                let t_call = Instant::now();
                let outcome = adapter.execute(query);
                let call_ms = ms_since(t_call);
                self.metrics
                    .observe(&format!("source.latency_us.{}", source), us(call_ms));
                match outcome {
                    Ok(doc) => {
                        // A floored answer is a refresh's, and no one reads
                        // it back: a refresh takes no stale answer, and
                        // its floor is in the key, out of every query's
                        // reach.
                        if config.cache_nodes > 0 && query.after_row.is_none() {
                            self.cache.put(cache_keys[0], Arc::clone(&doc));
                        }
                        let tuples = fragment_tuples(&doc, vars);
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
                        note_source_call(
                            calls_before,
                            source,
                            kind,
                            true,
                            call_ms,
                            tuples.len() as u64,
                            None,
                        );
                        Ok(Fetched::fresh(
                            vars.clone(),
                            tuples,
                            FetchProv::from_opt(fragment_prov()),
                        ))
                    }
                    Err(e) if e.is_unavailable() => {
                        note_source_call(
                            calls_before,
                            source,
                            kind,
                            false,
                            call_ms,
                            0,
                            Some(e.to_string()),
                        );
                        self.handle_unavailable(source, &cache_keys, "fragment", vars, e, ctx, track, &|doc| {
                            fragment_tuples(doc, vars)
                        })
                    }
                    Err(e) => {
                        self.metrics.incr(&format!("source.errors.{}", source), 1);
                        note_source_call(
                            calls_before,
                            source,
                            kind,
                            false,
                            call_ms,
                            0,
                            Some(e.to_string()),
                        );
                        Err(CoreError::Source(e))
                    }
                }
            }
            AtomExec::FetchMatch {
                source,
                collection,
                pattern,
                vars,
            } => {
                if let Some(sp) = shard_plan_for(plan, i) {
                    return self.fetch_sharded(sp, source, collection, pattern, vars, ctx, track);
                }
                let adapter = self
                    .catalog
                    .source(source)
                    .ok_or_else(|| CoreError::UnknownCollection(source.clone()))?;
                ctx.source_calls += 1;
                self.metrics.incr(&format!("source.calls.{}", source), 1);
                let key = format!("coll:{}:{}", source, collection);
                let calls_before = QueryCtx::current().map(|c| c.calls_len());
                let t_call = Instant::now();
                let outcome = adapter.fetch_collection(collection);
                let call_ms = ms_since(t_call);
                self.metrics
                    .observe(&format!("source.latency_us.{}", source), us(call_ms));
                let doc = match outcome {
                    Ok(doc) => {
                        if config.cache_nodes > 0 {
                            self.cache.put(&key, Arc::clone(&doc));
                        }
                        doc
                    }
                    Err(e) if e.is_unavailable() => {
                        note_source_call(
                            calls_before,
                            source,
                            "fetch",
                            false,
                            call_ms,
                            0,
                            Some(e.to_string()),
                        );
                        return self.handle_unavailable(
                            source,
                            &[&key],
                            &format!("collection:{}", collection),
                            vars,
                            e,
                            ctx,
                            track,
                            &|doc| match_tuples(doc, pattern, vars, None),
                        );
                    }
                    Err(e) => {
                        self.metrics.incr(&format!("source.errors.{}", source), 1);
                        note_source_call(
                            calls_before,
                            source,
                            "fetch",
                            false,
                            call_ms,
                            0,
                            Some(e.to_string()),
                        );
                        return Err(CoreError::Source(e));
                    }
                };
                let mut filter = self.candidate_filter(plan, i);
                let tuples = match_tuples(&doc, pattern, vars, Some(&mut filter));
                // Row count = the collection's top-level elements (the
                // same measure sampling seeds), not pattern matches.
                self.note_stats_rows(
                    &format!("{}.{}", source, collection),
                    doc.root_cursor().child_element_count() as u64,
                );
                note_source_call(
                    calls_before,
                    source,
                    "fetch",
                    true,
                    call_ms,
                    tuples.len() as u64,
                    None,
                );
                let prov = track.then(|| ProvSource {
                    name: source.clone(),
                    detail: format!("collection:{}", collection),
                    stale: false,
                    cache_age_ms: None,
                    view: false,
                });
                Ok(Fetched::fresh(vars.clone(), tuples, FetchProv::from_opt(prov)).probed(self.note_probed(&filter)))
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
                let stale_before = ctx.stale;
                let saved_track = ctx.track;
                ctx.track = false;
                let fetched = self.view_document(view, depth, ctx);
                ctx.track = saved_track;
                let doc = fetched?;
                let mut filter = self.candidate_filter(plan, i);
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
                    stale: ctx.stale && !stale_before,
                    cache_age_ms: None,
                    view: true,
                });
                Ok(Fetched::fresh(vars.clone(), tuples, FetchProv::from_opt(prov)).probed(self.note_probed(&filter)))
            }
        }
    }

    /// The candidate filter of independent unit `i`: its probes, each
    /// with the conjunct it reads — as bound for this serve — over a
    /// one-column row.
    fn candidate_filter(&self, plan: &Plan, i: usize) -> matcher::CandidateFilter {
        let probes = plan.probes.iter().filter(|p| p.atom == i).filter_map(|p| {
            Some((p, planner::probe_test(plan.residual_predicates.get(p.conjunct)?, &p.var)?))
        });
        matcher::CandidateFilter::new(probes, Arc::clone(&self.funcs.read()))
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

    /// Fetch one sharded FetchMatch atom: fan the scan out across the
    /// surviving shard-local nodes through an [`ExchangeOp`] — pushed
    /// filters replicated below it — merge the shard streams, and
    /// restore original document order from the hidden origin column,
    /// so the answer is byte-identical to the unsharded scan's.
    ///
    /// A dead or failing shard degrades by policy exactly like a dead
    /// source: `Fail` aborts (the exchange gathers fail-fast), otherwise
    /// the shard is skipped and annotated as `{source}#shard{k}` in
    /// `missing_sources` and — under tracking — as a missing provenance
    /// unit (`StaleCache` keeps no per-shard cache, so for shards it
    /// degrades to skip-and-annotate).
    ///
    /// Deliberately skips `note_stats_rows`: a survivor-only row count
    /// would corrupt the whole-collection statistics the planner's
    /// estimates come from.
    #[allow(clippy::too_many_arguments)]
    fn fetch_sharded(
        &self,
        sp: &ShardPlan,
        source: &str,
        collection: &str,
        pattern: &nimble_xmlql::ast::Pattern,
        vars: &[String],
        ctx: &mut ExecCtx,
        track: bool,
    ) -> Result<Fetched, CoreError> {
        let config = self.config();
        let rt = self
            .shards
            .read()
            .clone()
            .ok_or_else(|| CoreError::Internal("sharded plan without a shard runtime".into()))?;
        self.metrics
            .incr("engine.shard.pruned", (sp.shards - sp.survivors.len()) as u64);
        if sp.survivors.is_empty() {
            // Every shard statically pruned: an empty scan, no Exchange
            // (the operator rejects zero children). Tracking still
            // interns the unit so lineage stays alive above it.
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
        ctx.source_calls += 1;
        self.metrics.incr(&format!("source.calls.{}", source), 1);

        // One lazy child per surviving shard: the producer runs at
        // exchange-gather time (on a pool worker when one exists) and
        // emits the shard's rows — origin column first, the column the
        // merge sorts by — that pass the pushed conjunction. The scan
        // filters where it reads, so its label carries the predicate.
        let mut child_vars = vec![ORIGIN_COL.to_string()];
        child_vars.extend(vars.iter().cloned());
        let child_schema = unit_schema(child_vars)?;
        let pushed: Vec<ScalarExpr> = sp
            .pushed
            .iter()
            .map(|e| planner::translate_expr(e, &child_schema))
            .collect::<Result<_, _>>()?;
        let pushed = (!pushed.is_empty()).then(|| ScalarExpr::conjunction(pushed));
        let funcs = self.funcs.read().clone();
        let memo_hits = Arc::new(AtomicU64::new(0));
        let mut children: Vec<BoxedOp> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        for &k in &sp.survivors {
            let label = format!("{}#shard{}", source, k);
            let described = match &pushed {
                Some(p) => format!("{} where {:?}", label, p),
                None => label.clone(),
            };
            let scan = ShardScan {
                rt: Arc::clone(&rt),
                k,
                source: source.to_string(),
                collection: collection.to_string(),
                coll_key: sp.collection.clone(),
                pattern: pattern.clone(),
                vars: vars.to_vec(),
                pushed: pushed.clone(),
                funcs: Arc::clone(&funcs),
                metrics: Arc::clone(&self.metrics),
                memo_hits: Arc::clone(&memo_hits),
            };
            children.push(Box::new(LazySourceOp::new(
                child_schema.clone(),
                described,
                move || scan.run(),
            )));
            labels.push(label);
        }
        let calls_before = QueryCtx::current().map(|c| c.calls_len());
        let t_call = Instant::now();
        let mut exchange = ExchangeOp::new(children, labels)
            .map_err(CoreError::from)?
            .fail_fast(config.unavailable == UnavailablePolicy::Fail);
        exchange.open()?;
        let gather = if exchange.gathered_parallel() {
            "engine.exchange.gather.parallel"
        } else {
            "engine.exchange.gather.serial"
        };
        // The gather buffered every shard's rows; they move out, not
        // through `next_batch` (which copies: the exchange stays
        // readable after a drain).
        let (gathered, failures) = exchange.into_gathered();
        let call_ms = ms_since(t_call);
        self.metrics
            .observe(&format!("source.latency_us.{}", source), us(call_ms));
        self.metrics.incr(gather, 1);

        // Shard attribution: child `i`'s buffer is shard `i`'s rows.
        // Failed shards degrade to annotated partial answers.
        for f in &failures {
            self.metrics.incr("engine.shard.lost", 1);
            self.metrics.incr(&format!("source.failures.{}", source), 1);
            ctx.miss(&f.label);
        }
        let mut rows: Vec<(Tuple, u32)> = gathered
            .into_iter()
            .enumerate()
            .flat_map(|(i, buf)| buf.into_iter().map(move |t| (t, i as u32)))
            .collect();
        self.metrics
            .gauge("engine.shard.memo.values")
            .store(rt.memo_values() as u64, Ordering::Relaxed);
        note_source_call(
            calls_before,
            source,
            &format!(
                "fetch-sharded memo={}/{}",
                memo_hits.load(Ordering::Relaxed),
                sp.survivors.len()
            ),
            failures.is_empty(),
            call_ms,
            rows.len() as u64,
            failures.first().map(|f| f.error.to_string()),
        );

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
                    let label = format!("{}#shard{}", source, k);
                    let lost = failures.iter().any(|f| f.label == label);
                    ProvSource {
                        name: label,
                        detail: if lost {
                            format!("missing:collection:{}", collection)
                        } else {
                            format!("collection:{}", collection)
                        },
                        stale: false,
                        cache_age_ms: None,
                        view: false,
                    }
                })
                .collect();
            FetchProv::Per { sources, tuple_src }
        } else {
            FetchProv::None
        };
        Ok(Fetched::fresh(vars.to_vec(), tuples, prov))
    }

    /// Apply the unavailability policy for a failed source call.
    /// `cache_keys` name the cached documents that may stand in under
    /// `StaleCache`, best first (a bind target has two: the answer for
    /// its keys, and the whole fragment — a superset the join filters).
    /// `to_tuples` converts the cached document back into binding tuples
    /// (fragment rows and collection documents decode differently).
    /// `detail` labels the unit in the provenance table when lineage
    /// tracking (`track`) is on; stale-served units report the cached
    /// copy's age.
    #[allow(clippy::too_many_arguments)]
    fn handle_unavailable(
        &self,
        source: &str,
        cache_keys: &[&str],
        detail: &str,
        vars: &[String],
        err: nimble_sources::SourceError,
        ctx: &mut ExecCtx,
        track: bool,
        to_tuples: &dyn Fn(&Arc<Document>) -> Vec<Tuple>,
    ) -> Result<Fetched, CoreError> {
        let config = self.config();
        self.metrics.incr(&format!("source.failures.{}", source), 1);
        let missing = |ctx: &mut ExecCtx| {
            ctx.miss(source);
            Ok(Fetched {
                vars: vars.to_vec(),
                tuples: Vec::new(),
                prov: FetchProv::from_opt(missing_prov(track, source, detail)),
                served: Served::Missing,
                probed: None,
            })
        };
        match config.unavailable {
            UnavailablePolicy::Fail => Err(CoreError::Source(err)),
            UnavailablePolicy::SkipAndAnnotate => missing(ctx),
            UnavailablePolicy::StaleCache => {
                if config.cache_nodes > 0 {
                    let cached = cache_keys
                        .iter()
                        .find_map(|key| self.cache.get_with_age(key));
                    if let Some((doc, age)) = cached {
                        ctx.stale = true;
                        self.metrics
                            .incr(&format!("source.stale_served.{}", source), 1);
                        let prov = track.then(|| ProvSource {
                            name: source.to_string(),
                            detail: detail.to_string(),
                            stale: true,
                            cache_age_ms: Some(age.as_secs_f64() * 1e3),
                            view: false,
                        });
                        return Ok(Fetched {
                            vars: vars.to_vec(),
                            tuples: to_tuples(&doc),
                            prov: FetchProv::from_opt(prov),
                            served: Served::Stale,
                            probed: None,
                        });
                    }
                }
                missing(ctx)
            }
        }
    }

    /// Construct template instances into an open builder, recursively
    /// evaluating nested subqueries.
    ///
    /// With lineage tracking on, `tuple_lin` carries the top-level
    /// relation's per-tuple masks (the template module pushes one
    /// per-answer mask into `answers` *before* rendering each answer)
    /// and `answers` is threaded through every nesting level so a
    /// subquery's lineage — at any depth — ORs into the answer it is
    /// rendered inside.
    #[allow(clippy::too_many_arguments)]
    fn construct_into(
        &self,
        b: &mut DocumentBuilder,
        template: &nimble_xmlql::ast::ElementTemplate,
        schema: &Schema,
        tuples: &[Tuple],
        depth: usize,
        ctx: &mut ExecCtx,
        tuple_lin: Option<&[LineageMask]>,
        answers: Option<&RefCell<Vec<LineageMask>>>,
    ) -> Result<(), CoreError> {
        let mut cb = |q: &Query, s: &Schema, t: &Tuple, b2: &mut DocumentBuilder| {
            let (sub_schema, sub_tuples) = self.eval(q, Some((s, t)), depth + 1, ctx)?;
            if let Some(cell) = answers {
                if let Some(sub_lin) = ctx.last_lin.take() {
                    if let Some(ans) = cell.borrow_mut().last_mut() {
                        for m in &sub_lin {
                            ans.merge(*m);
                        }
                    }
                }
            }
            self.construct_into(
                b2,
                &q.construct,
                &sub_schema,
                &sub_tuples,
                depth + 1,
                ctx,
                None,
                answers,
            )
        };
        let sink = match (tuple_lin, answers) {
            (Some(masks), Some(cell)) => Some(construct::LineageSink {
                tuple_masks: masks,
                answers: cell,
            }),
            _ => None,
        };
        construct::append_instances_traced(b, template, schema, tuples, &mut cb, sink)
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

/// The plan's shard routing for independent atom `i`, if any.
fn shard_plan_for(plan: &Plan, i: usize) -> Option<&ShardPlan> {
    plan.shards.iter().find(|s| s.atom == i)
}

/// Original document index carried in a sharded tuple's hidden leading
/// origin column (malformed tuples sort last instead of panicking).
fn origin_of(t: &Tuple) -> i64 {
    match t.first() {
        Some(Value::Atomic(Atomic::Int(v))) => *v,
        _ => i64::MAX,
    }
}

/// Shard-local half of a sharded scan, run inside the exchange's gather
/// (one [`ShardScan::run`] per surviving shard).
struct ShardScan {
    rt: Arc<ShardRuntime>,
    k: usize,
    source: String,
    collection: String,
    coll_key: String,
    pattern: nimble_xmlql::ast::Pattern,
    vars: Vec<String>,
    /// Conjunction of the predicates pushed below the Exchange.
    pushed: Option<ScalarExpr>,
    funcs: Arc<FunctionRegistry>,
    metrics: Arc<MetricsRegistry>,
    /// Scans of this fetch that were served from a node's memo.
    memo_hits: Arc<AtomicU64>,
}

impl ShardScan {
    /// Fetch the shard slice from the shard-local catalog, take its rows
    /// from the node's scan memo — building them on the first scan of
    /// this slice document — and copy out, prefixed with the row's
    /// original document index, those the pushed conjunction keeps.
    ///
    /// Liveness, the adapter call and the origin-map check all come
    /// before the memo, so a dead shard, a failing adapter and a slice
    /// that no longer is the one the partition was cut from fail the
    /// same way warm and cold.
    fn run(&self) -> Result<Vec<Tuple>, ExecError> {
        let k = self.k;
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
            .partition(&self.coll_key)
            .ok_or_else(|| shard_err("collection not partitioned".into()))?;
        let origins = part
            .origins
            .get(k)
            .ok_or_else(|| shard_err("no origin map for shard".into()))?;
        let adapter = node
            .catalog
            .source(&self.source)
            .ok_or_else(|| shard_err("unknown source on shard".into()))?;
        let doc = adapter
            .fetch_collection(&self.collection)
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
        let (rows, hit) = node.scan_rows(&self.coll_key, &doc, &self.pattern, &self.vars, || {
            shred_slice(&doc, origins, &self.pattern, &self.vars)
        });
        if hit {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.incr("engine.shard.memo.hit", 1);
        } else {
            self.metrics.incr("engine.shard.memo.miss", 1);
        }
        let mut out = Vec::new();
        for row in rows.rows() {
            let keep = match &self.pushed {
                Some(p) => p.eval_bool(row, &self.funcs)?,
                None => true,
            };
            if keep {
                out.push(row.to_vec());
            }
        }
        Ok(out)
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

/// Provenance entry for a unit that contributed nothing (skipped after
/// an unavailability, no stale copy). Interning it keeps the lineage
/// pipeline alive — an untagged scan would disable tracking for every
/// operator above it — and surfaces the hole in the provenance table.
fn missing_prov(track: bool, source: &str, detail: &str) -> Option<ProvSource> {
    track.then(|| ProvSource {
        name: source.to_string(),
        detail: format!("missing:{}", detail),
        stale: false,
        cache_age_ms: None,
        view: false,
    })
}

/// Record one adapter call into the current query context, unless an
/// inner instrumented layer (a `MeteredAdapter` or `SimulatedLink`
/// wrapper) already appended a record during the call — `calls_before`
/// is the context's call count read before invoking the adapter, and
/// the records added since are searched for one of *this* source: the
/// list is shared with the query's other fetches, which run beside
/// this one.
fn note_source_call(
    calls_before: Option<usize>,
    source: &str,
    kind: &str,
    ok: bool,
    latency_ms: f64,
    rows: u64,
    error: Option<String>,
) {
    if let Some(qctx) = QueryCtx::current() {
        let recorded_inside = calls_before.map_or(false, |n| qctx.recorded_since(n, source));
        if !recorded_inside {
            qctx.record_source_call(SourceCall {
                source: source.to_string(),
                kind: kind.to_string(),
                ok,
                latency_ms,
                rows,
                error,
            });
        }
    }
}

/// Canonical rendering of a plan's *semantic* content, for the sampled
/// plan-cache differential. Cost annotations (`est_rows`, `fold_order`,
/// notes) are deliberately excluded: row-count feedback may drift them
/// within one statistics generation without making the cached plan
/// wrong, whereas a difference in the execution units, the pushed or
/// residual predicates, the ORDER-BY keys, or the prune verdict means
/// the cache is serving a query the planner would now decompose
/// differently.
fn plan_semantic_signature(plan: &Plan) -> String {
    format!(
        "independents: {:?}; dependents: {:?}; residuals: {:?}; order_by: {:?}; pruned: {:?}; \
         shards: {:?}; probes: {:?}; bind: {:?}",
        plan.independents,
        plan.dependents,
        plan.residual_predicates,
        plan.order_by,
        plan.pruned,
        plan.shards,
        plan.probes,
        // The stage's shape; its key estimate is a cost annotation.
        plan.bind
            .as_ref()
            .map(|b| (b.driver, &b.var, b.key_type, &b.targets))
    )
}

/// The `-- ` lines EXPLAIN opens with: which path the plan came by (the
/// top-level query's; empty below it), then the planner's notes.
fn explain_notes<'a>(path: &'a str, notes: impl Iterator<Item = &'a String>) -> String {
    let mut text = String::new();
    let path = Some(path).filter(|p| !p.is_empty());
    for note in path.into_iter().chain(notes.map(String::as_str)) {
        text.push_str("-- ");
        text.push_str(note);
        text.push('\n');
    }
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

/// Display name of an independent unit, for error attribution.
fn atom_name(atom: &AtomExec) -> String {
    match atom {
        AtomExec::Fragment { source, .. } => format!("fragment on {}", source),
        AtomExec::FetchMatch {
            source, collection, ..
        } => format!("{}.{}", source, collection),
        AtomExec::ViewMatch { view, .. } => format!("view {}", view),
    }
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
        key.push_str(s.op.sql());
        key.push(' ');
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
        let plan = engine.plan(&inner, &config.optimizer, Some(&outer)).unwrap();
        let [probe] = plan.probes.as_slice() else {
            panic!("{:?}", plan.probes);
        };
        assert!(probe.joined && probe.var == "x");
        planner::verify_plan(&plan, Some(&outer)).unwrap();
        let mut cleared = plan.clone();
        cleared.probes.clear();
        let run = |plan: &planner::Plan, row: &Atomic| {
            let mut ctx = ExecCtx::new();
            ctx.profile = true;
            let tuple = vec![Value::Atomic(row.clone())];
            let (schema, tuples) = engine
                .eval_planned(plan, Some((&outer, &tuple)), 0, &mut ctx, 0.0, 0.0, true)
                .unwrap();
            (format!("{:?} {:?}", schema, tuples), ctx.plan_text)
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
