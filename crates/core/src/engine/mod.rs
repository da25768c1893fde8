//! The integration engine: end-to-end query service, a module per stage
//! of a serve (§2, Figure 1): `session` (the one serve path, its record
//! and its context), `compile`, `fetch`, `exec`, `answer` (CONSTRUCT
//! and what it nests), and `refresh` (materialized views).

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

mod answer;
mod compile;
mod exec;
mod fetch;
mod refresh;
mod session;

pub use answer::{ProvSource, Provenance, QueryResult};
pub(crate) use fetch::shard_plan_for;
use compile::{Compiled, PlanPath};
use fetch::{Input, Units};
use session::{Answer, Answered, ExecCtx, Found, Serve, Sink};

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
#[derive(Debug, Clone, Copy)]
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

/// Ring-buffer capacity of each engine's query log.
const QUERY_LOG_CAPACITY: usize = 256;
/// Slowest-query entries retained past ring eviction.
const SLOW_QUERY_CAPACITY: usize = 32;
/// Flight-recorder ring capacity: how many slow, partial or failed
/// serves keep their whole evidence (span tree, plan, source calls).
const FLIGHT_CAPACITY: usize = 64;

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

    /// The always-on flight recorder: full evidence (span tree, plan,
    /// per-source calls) for recent slow, partial, or failed queries.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Snapshot the configuration.
    pub fn config(&self) -> EngineConfig {
        *self.config.read()
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
}

/// A plan whose estimates or fold order do not cover its units.
fn uncovered() -> CoreError {
    CoreError::Internal("plan estimates and fold order do not cover its units".into())
}

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds → whole microseconds, for histogram recording.
fn us(ms: f64) -> u64 {
    (ms * 1e3).max(0.0) as u64
}

/// Build the schema of one execution unit's output, rejecting duplicate
/// variables (a planner bug) with context instead of panicking.
fn unit_schema(vars: Vec<String>) -> Result<Schema, CoreError> {
    Schema::try_new(vars)
        .map_err(|e| CoreError::Internal(format!("execution unit schema: {}", e)))
}

#[cfg(test)]
mod qerror_tests {
    use super::exec::{centi_q, metric_slug, qerror};

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
    use super::session::{ExecCtx, Serve, Settings};
    use super::{Engine, EngineConfig, OptimizerConfig};
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
            let mut serve = Serve::start(Default::default(), std::time::Instant::now());
            let mut ctx = ExecCtx {
                serve: Some(&mut serve),
                ..ExecCtx::new(Settings::new(config))
            };
            let tuple = vec![Value::Atomic(row.clone())];
            let (schema, tuples) = engine
                .eval_planned(plan, &[], Some((&outer, &tuple)), &mut ctx, true, None)
                .unwrap();
            (format!("{:?} {:?}", schema, tuples), serve.report.plan)
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
    use super::fetch::{fragment_key, fragment_tuples};
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
