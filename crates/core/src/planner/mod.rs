//! Query decomposition and physical planning.
//!
//! [`plan_scoped`] turns a checked XML-QL query into a [`Plan`]: the list
//! of per-source execution units (pushed fragments or fetch-and-match
//! atoms), dependent navigation atoms, the residual predicates the
//! mediator must evaluate itself, and every cost decision — estimates,
//! the fold order, each fold step's build side. The engine then
//! assembles the plan into a tree of `nimble-algebra` physical operators,
//! reading those decisions — there is no intermediate logical algebra,
//! matching the paper's §3.1 design decision.
//!
//! Planning is one list of passes ([`plan_scoped`]); each pass that
//! rewrites the plan records it in [`Plan::rewrites`] under its rule's
//! name, and the rewrite audit reads them all once per plan (`audit`).
//! Decomposition and placement are here; the cost model — estimates,
//! fold order, build sides — is [`cost`]; the bind stage, shard routing
//! and candidate probes are a file each.
//!
//! The ablation switches of experiment E5 live in
//! [`crate::engine::OptimizerConfig`]: selection/projection pushdown,
//! capability-aware same-source join pushdown, and cardinality-ordered
//! join trees.

use crate::catalog::{Catalog, Resolved};
use crate::compiler;
use crate::engine::OptimizerConfig;
use crate::error::CoreError;
use crate::matcher::dedup_vars;
use nimble_algebra::{CmpOp, LiteralTest, ScalarExpr, Schema};
use nimble_planck::{Fingerprint, Placement, ProbeFacts, RewriteRecord, SourceRead};
use nimble_sources::query::{FieldRef, PredOp};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::{SourceAdapter, SourceKind, SourceQuery};
use nimble_xml::atomic::{joins_alike, reads_alike};
use nimble_xml::{Atomic, AtomicType, Value};
use nimble_xmlql::ast::{
    BinOp, Condition, Expr, OrderKey, Pattern, PatternContent, PatternValue, Query, SourceRef, TagPattern,
};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

mod bind;
pub mod cost;
mod probe;
mod shard;

use bind::plan_bind_stage;
use probe::{plan_probes, probe_facts, tag_step};
pub(crate) use probe::probe_test;
use shard::plan_shards;

/// One independent execution unit.
#[derive(Debug, Clone)]
pub enum AtomExec {
    /// A fragment pushed to a source (possibly covering several merged
    /// pattern atoms).
    Fragment {
        source: String,
        query: SourceQuery,
        vars: Vec<String>,
    },
    /// Fetch the collection document and match the pattern centrally.
    FetchMatch {
        source: String,
        collection: String,
        pattern: Pattern,
        vars: Vec<String>,
    },
    /// Evaluate a mediated view (or read its materialization) and match
    /// the pattern against its result.
    ViewMatch {
        view: String,
        pattern: Pattern,
        vars: Vec<String>,
    },
}

impl AtomExec {
    /// Variables this unit binds.
    pub fn vars(&self) -> &[String] {
        match self {
            AtomExec::Fragment { vars, .. }
            | AtomExec::FetchMatch { vars, .. }
            | AtomExec::ViewMatch { vars, .. } => vars,
        }
    }

    /// Which source this unit contacts (`None` for views, which may fan
    /// out further).
    pub fn source(&self) -> Option<&str> {
        match self {
            AtomExec::Fragment { source, .. } | AtomExec::FetchMatch { source, .. } => {
                Some(source)
            }
            AtomExec::ViewMatch { .. } => None,
        }
    }

    /// The unit as EXPLAIN and the rewrite audit name it.
    pub fn label(&self) -> String {
        match self {
            AtomExec::Fragment { source, .. } => format!("fragment on {}", source),
            AtomExec::FetchMatch { source, collection, .. } => format!("{}.{}", source, collection),
            AtomExec::ViewMatch { view, .. } => format!("view {}", view),
        }
    }
}

/// A navigation atom (`pattern IN $var`), run after its variable binds.
#[derive(Debug, Clone)]
pub struct DependentAtom {
    pub on_var: String,
    pub pattern: Pattern,
    pub vars: Vec<String>,
}

/// The decomposed query.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub independents: Vec<AtomExec>,
    pub dependents: Vec<DependentAtom>,
    pub residual_predicates: Vec<Expr>,
    pub order_by: Vec<OrderKey>,
    /// Human-readable notes on optimizer decisions, surfaced by EXPLAIN.
    pub notes: Vec<String>,
    /// Estimated output rows per independent atom (index-aligned with
    /// `independents`).
    pub est_rows: Vec<u64>,
    /// Cost-based fold order: a permutation of `independents` indices in
    /// the order the mediator-side join should fold them.
    pub fold_order: Vec<usize>,
    /// Estimated accumulated row count after each fold step, aligned
    /// with `fold_order` (`fold_rows[0]` is the first atom's estimate).
    pub fold_rows: Vec<u64>,
    /// Per fold step, aligned with `fold_order`: whether the hash join
    /// that folds that unit in builds its table on the rows folded before
    /// it rather than on the unit ([`cost::BUILD_SWAP_RATIO`]), each one
    /// a `build-side-swap` rewrite. False where the step is a nested
    /// loop (no shared variable) or no join at all (the first unit of a
    /// plan without an outer row).
    pub swaps: Vec<bool>,
    /// Estimated rows out of the central Filter of the residual
    /// predicates (out of the fold when there is none).
    pub filter_rows: u64,
    /// Set when satisfiability analysis proved the WHERE clause can
    /// never hold: the reason string. The engine then executes an
    /// annotated `EmptyOp` over the plan's output schema instead of
    /// contacting any source.
    pub pruned: Option<String>,
    /// Before/after fingerprints of every plan-level rewrite the
    /// optimizer applied (predicate pushdown, fold reordering), audited
    /// by `nimble_planck::audit` once, before the plan's first serve
    /// (`audit`).
    pub rewrites: Vec<RewriteRecord>,
    /// Scatter-gather routing for independent atoms over partitioned
    /// collections (one entry per sharded scan). Empty when no shard
    /// runtime is attached or no scanned collection is partitioned.
    pub shards: Vec<ShardPlan>,
    /// The bind stage, when shipping one fragment's join keys to others
    /// is estimated to pay (see [`BindStage`]).
    pub bind: Option<BindStage>,
    /// Every place the plan holds the value of one of its query's
    /// equality parameters ([`Query::eq_params`]). Nothing else in a
    /// plan without [`Plan::shards`] depends on those values but what a
    /// serve reads through `Bound`, so such a plan, cached, serves
    /// every value. (`notes` hold for every value; what EXPLAIN says of
    /// the values is `Bound::value_notes`.)
    pub param_sites: Vec<ParamSite>,
    /// Residual conjuncts a central match checks on each candidate
    /// before matching it ([`Probe`]). They hold for every value of the
    /// query's parameters, so they are cached with the plan.
    pub probes: Vec<Probe>,
    /// Bytes of the last answer [`Engine::query_serialized`] streamed
    /// from this plan; the next serve's writer starts at that size. One
    /// cell per cached shape, shared by every serve of it.
    ///
    /// [`Engine::query_serialized`]: crate::Engine::query_serialized
    pub answer_bytes: Arc<AtomicUsize>,
    /// The rewrite audit's verdict on `rewrites` ([`audit`]).
    audited: Audited,
}

/// The rewrite audit's verdict on a plan's own records, taken on the
/// first [`audit`] and read back by every later one. A copy of a plan
/// starts unaudited: its records may be changed before it is served.
#[derive(Default)]
struct Audited(OnceLock<Result<(), String>>);

impl Clone for Audited {
    fn clone(&self) -> Audited {
        Audited::default()
    }
}

impl fmt::Debug for Audited {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Audited")
    }
}

/// The rewrite audit (`nimble_planck::audit`) of `plan.rewrites` —
/// every rewrite the planner made, build-side swaps included — run once
/// per plan, before its first serve: the audit checks each record on
/// its own, and a plan's records do not change while it is served, so a
/// verdict taken once holds for every serve.
pub(crate) fn audit(plan: &Plan) -> Result<(), CoreError> {
    let verdict = plan.audited.0.get_or_init(|| {
        let issues = nimble_planck::audit(&plan.rewrites);
        if issues.is_empty() {
            return Ok(());
        }
        let details: Vec<String> = issues.iter().map(|i| format!("{}: {}", i.operator, i.detail)).collect();
        Err(format!("rewrite audit failed:\n  {}", details.join("\n  ")))
    });
    verdict.clone().map_err(CoreError::PlanVerify)
}

/// One copy of an equality parameter's value inside a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSite {
    /// `independents[atom]` is a fragment and `selections[selection]`
    /// the parameter's predicate, pushed there.
    Selection {
        param: usize,
        atom: usize,
        selection: usize,
    },
    /// `residual_predicates[index]` is the parameter's predicate, kept
    /// central.
    Residual { param: usize, index: usize },
}

/// A cross-source semi-join reduction (DESIGN.md §18): the engine
/// fetches the `driver` fragment first, collects the distinct values it
/// binds `var` to, and sends every target its fragment with that list
/// as a key set on the field it binds `var` from. The central join runs
/// unchanged, so a target that ignores the list (or is sent none,
/// because the driver failed or the run-time guards declined) only
/// ships more rows.
#[derive(Debug, Clone)]
pub struct BindStage {
    /// Index into [`Plan::independents`] of the fragment fetched first.
    pub driver: usize,
    /// The join variable whose values are shipped.
    pub var: String,
    /// Declared type of the driver's field for `var` — and of every
    /// target's. A run-time value of any other type cancels the stage.
    pub key_type: AtomicType,
    /// Estimated distinct keys. A cost annotation: the engine decides on
    /// the count it actually finds.
    pub est_keys: u64,
    pub targets: Vec<BindTarget>,
}

/// One fragment that receives the driver's keys.
#[derive(Debug, Clone)]
pub struct BindTarget {
    /// Index into [`Plan::independents`].
    pub atom: usize,
    /// The target's field for the stage's variable.
    pub field: FieldRef,
}

impl BindStage {
    /// The target entry of independent atom `i`, if it is one.
    pub fn target(&self, i: usize) -> Option<&BindTarget> {
        self.targets.iter().find(|t| t.atom == i)
    }

    /// Whether a value the driver bound can stand in a key list. Only a
    /// non-null value of the declared type can — the mediator's join
    /// equates two absent values and a number with its text, a source's
    /// `IN` does neither — and, among strings, only one that does not
    /// read as a number ([`Atomic::numeric`]: the join compares `"42"`
    /// and `" 42 "` as numbers).
    pub fn admits(&self, key: &Atomic) -> bool {
        key.atomic_type() == self.key_type && (key.as_str().is_none() || key.numeric().is_none())
    }
}

/// Routing decision for one sharded scan: which shards of a partitioned
/// collection the fetch round must contact, one task each, and the test
/// of the residual predicates each shard runs on its slice (shard-local
/// filtering; the same predicates stay central, so the rewrite is
/// idempotent).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Index into [`Plan::independents`] of the sharded FetchMatch atom.
    pub atom: usize,
    /// `source.collection` key in the shard map.
    pub collection: String,
    /// Declared shard key (row field).
    pub key_field: String,
    /// Query variable bound to the shard key field, when the pattern
    /// exposes it (enables equality routing and bounds pruning).
    pub key_var: Option<String>,
    /// Declared shard count.
    pub shards: usize,
    /// Shards that can still contribute rows after stats-bounds pruning
    /// and equality routing, ascending. May be empty (statically empty
    /// scan) — the engine then makes no call and no task for it.
    pub survivors: Vec<usize>,
    /// The covered residual predicates that compile to a [`LiteralTest`],
    /// as one test over a shard scan's row (origin column first), run by
    /// each shard's task; the others, which can fail, stay central only.
    pub pushed: Option<LiteralTest>,
}

/// A residual conjunct that a central match checks on each top-level
/// candidate of one atom before matching it (DESIGN.md §22): the
/// candidate is skipped when no value the pattern could bind the
/// conjunct's variable to passes it. The conjunct stays in the Filter —
/// a probe is a necessary condition, not a replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Index into [`Plan::independents`]: a `FetchMatch` or `ViewMatch`
    /// atom that no shard plan routes.
    pub atom: usize,
    /// Index into [`Plan::residual_predicates`], read through
    /// `Bound::residual`, so a serve tests its own values.
    pub conjunct: usize,
    /// The conjunct's one variable.
    pub var: String,
    /// Element names from the candidate down to the element that holds
    /// the value; empty for the candidate itself.
    pub path: Vec<String>,
    /// The attribute of that element that holds the value; `None` for
    /// its content.
    pub attr: Option<String>,
    /// Whether another unit binds the variable too — another atom, or
    /// the outer row of a correlated subquery — so that a joined row may
    /// hold that unit's value instead. The test then holds no `LIKE`, and
    /// a candidate is pruned only on a value and literals that are
    /// numbers.
    pub joined: bool,
}

impl Probe {
    /// The path and then what is read at its end — `$` for the content,
    /// `@name` for an attribute — as `probe::var_sites` spells an occurrence.
    pub fn walk(&self) -> Vec<String> {
        let read = self.attr.as_ref().map_or("$".to_string(), |a| format!("@{}", a));
        self.path.iter().cloned().chain([read]).collect()
    }
}

/// Decompose a query against the catalog under the given optimizer
/// configuration (no shard routing — see [`plan_query_sharded`]).
pub fn plan_query(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
) -> Result<Plan, CoreError> {
    plan_scoped(catalog, query, config, Scope::default())
}

/// [`plan_query`] plus partition-aware routing: when a shard runtime is
/// attached and a scanned collection is declared partitioned, the plan
/// records a [`ShardPlan`] per sharded scan — surviving shards after
/// stats-bounds pruning (planck's satisfiability pass run per shard
/// against the exhaustive per-shard statistics) and equality routing,
/// plus the residual predicates replicated into each shard's scan.
pub fn plan_query_sharded(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    shards: Option<&crate::shard::ShardRuntime>,
) -> Result<Plan, CoreError> {
    plan_scoped(catalog, query, config, Scope { shards, ..Scope::default() })
}

/// What a query is planned for beyond its text and the optimizer's
/// switches. The default is a top-level query with no shard routing.
#[derive(Clone, Copy, Default)]
pub struct Scope<'a> {
    /// The shard runtime whose partitioned collections the plan routes
    /// ([`ShardPlan`]).
    pub shards: Option<&'a crate::shard::ShardRuntime>,
    /// The row schema a correlated subquery runs under: a variable it
    /// binds is a join variable of the plan, and the outer row is the
    /// first input of the fold.
    pub outer: Option<&'a Schema>,
    /// Planned for a view refresh (DESIGN.md §21).
    pub refresh: Option<Refresh<'a>>,
}

/// The row floors of a view refresh's plan: every fragment over one
/// collection carries one, so that its answer comes back stamped with
/// how far into the collection it read. Nothing else differs from the
/// query's own plan; the estimates see the floors, so a small delta
/// drives the bind stage.
#[derive(Clone, Copy, Debug)]
pub enum Refresh<'a> {
    /// Every floor at 0: the whole collection.
    Full,
    /// The collection named (`source.collection`) floored at the mark
    /// the stored view was built up to, every other at 0: the plan's
    /// answer is what the view gained.
    Delta(&'a str, u64),
}

/// The one planner: its passes, in order. Each reads what the ones
/// before it decided and records what it rewrote in [`Plan::rewrites`],
/// named by the record's rule; the rewrite audit reads them all once,
/// before the plan's first serve (`audit`).
pub fn plan_scoped(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    scope: Scope<'_>,
) -> Result<Plan, CoreError> {
    let mut plan = Plan {
        order_by: query.order_by.clone(),
        ..Plan::default()
    };
    // Beside `plan.residual_predicates` until the constants are folded:
    // which equality parameter each predicate is, if it is one.
    let mut params = classify(catalog, query, config, &mut plan)?;
    if config.pushdown {
        push_selections(catalog, &mut plan, &mut params, scope.outer);
    }
    if config.capability_joins {
        merge_same_source_fragments(catalog, &mut plan);
    }
    // Row floors go on once the fragments are final and before anything
    // is estimated.
    if let Some(refresh) = scope.refresh {
        floor_fragments(catalog, &mut plan, refresh);
    }
    plan.est_rows = plan.independents.iter().map(|a| cost::estimate_atom(catalog, a)).collect();
    if config.pushdown {
        plan_bind_stage(catalog, &mut plan);
    }
    // Over what is left to join once the bind stage shrank its targets.
    cost::order_folds(catalog, &mut plan);
    if config.prune_unsat {
        eliminate_tautologies(&mut plan, &mut params);
    }
    // Where the predicates that stayed central sit is now final.
    for (index, param) in params.iter().enumerate() {
        if let Some(param) = *param {
            plan.param_sites.push(ParamSite::Residual { param, index });
        }
    }
    // Shard routing reads the values of equality predicates, so it comes
    // before the verdict: a plan it leaves a mark on is a plan for these
    // values only, whatever the verdict on them.
    if let Some(rt) = scope.shards {
        plan_shards(catalog, &mut plan, rt);
    }
    // Once the central predicates and the atoms the shard plans route are
    // final.
    plan_probes(&mut plan, scope.outer);
    // Last of the cost model: shards and probes tightened the estimates
    // the build sides are chosen on.
    cost::place_builds(&mut plan, scope.outer);
    finish(catalog, &mut plan, config);
    Ok(plan)
}

/// The first pass: one unit per condition of the query, in its order —
/// a predicate is residual, a pattern over a variable a dependent atom,
/// a pattern over a view a view match, and a pattern over a collection
/// a pushed fragment where the source can take its row pattern and reads
/// its literals as the matcher does, a fetch and central match
/// otherwise. Returns which equality parameter each residual predicate
/// is, if it is one.
fn classify(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    plan: &mut Plan,
) -> Result<Vec<Option<usize>>, CoreError> {
    let mut params: Vec<Option<usize>> = Vec::new();
    let mut next_param = 0..;
    for cond in &query.conditions {
        let pb = match cond {
            Condition::Predicate(e) => {
                params.push(e.eq_param().and_then(|_| next_param.next()));
                plan.residual_predicates.push(e.clone());
                continue;
            }
            Condition::Pattern(pb) => pb,
        };
        let vars = dedup_vars(&pb.pattern);
        let name = match &pb.source {
            SourceRef::Var(v) => {
                plan.dependents.push(DependentAtom {
                    on_var: v.clone(),
                    pattern: pb.pattern.clone(),
                    vars,
                });
                continue;
            }
            SourceRef::Named(name) => name,
        };
        let (source, collection) = match catalog.resolve(name)? {
            Resolved::View(view) => {
                plan.independents.push(AtomExec::ViewMatch {
                    view,
                    pattern: pb.pattern.clone(),
                    vars,
                });
                continue;
            }
            Resolved::Collection { source, collection } => (source, collection),
        };
        let adapter = catalog
            .source(&source)
            .ok_or_else(|| CoreError::UnknownCollection(name.clone()))?;
        let caps = adapter.capabilities();
        // A literal field is sent only where the source reads it as the
        // matcher does.
        let alike = |rp: &compiler::RowPattern| {
            rp.eq_selections
                .iter()
                .all(|(field, lit)| reads_alike(CmpOp::Eq, lit, declared(adapter.as_ref(), &collection, field), false))
        };
        let pushed = config
            .pushdown
            .then(|| compiler::recognize_row_pattern(&pb.pattern))
            .flatten()
            .filter(|rp| compiler::pushable(rp, &caps) && alike(rp));
        match pushed {
            Some(rp) => {
                let query = compiler::build_fragment(&collection, "t", &rp);
                plan.notes.push(format!("pushdown: {} vars to {}.{}", rp.fields.len(), source, collection));
                let vars = rp.fields.into_iter().map(|(v, _)| v).collect();
                plan.independents.push(AtomExec::Fragment { source, query, vars });
            }
            None => {
                plan.notes.push(format!("fetch+match: {}.{} (caps {})", source, collection, caps.tag()));
                plan.independents.push(AtomExec::FetchMatch {
                    source,
                    collection,
                    pattern: pb.pattern.clone(),
                    vars,
                });
            }
        }
    }
    Ok(params)
}

/// Pushdown: each simple predicate goes to the fragments that bind its
/// variable ([`place_selection`]). A variable bound by several fragments
/// is one join-equivalence class, so a selection on it goes to every
/// fragment that binds it. `params` runs beside the residual predicates
/// and loses the entries that leave.
fn push_selections(catalog: &Catalog, plan: &mut Plan, params: &mut Vec<Option<usize>>, outer: Option<&Schema>) {
    let before: Vec<String> = plan.residual_predicates.iter().map(|p| format!("{:?}", p)).collect();
    let mut placements: Vec<Placement> = Vec::new();
    let mut remaining = Vec::new();
    let mut remaining_params = Vec::new();
    for (pred, param) in std::mem::take(&mut plan.residual_predicates)
        .into_iter()
        .zip(std::mem::take(params))
    {
        let (placed, central) = place_selection(catalog, plan, &pred, param, outer);
        placements.extend(placed);
        if central {
            remaining.push(pred);
            remaining_params.push(param);
        }
    }
    *params = remaining_params;
    // Rewrite record: pushing predicates moves them, never drops them —
    // the distinct predicates the pass started with are exactly those
    // shipped plus those still central, and every copy sits at a
    // fragment that binds its variable. It relocates work, never a
    // source: both sides carry the same source-label set for the
    // provenance audit.
    if !placements.is_empty() {
        let srcs: Vec<String> = plan
            .independents
            .iter()
            .filter_map(|a| a.source().map(str::to_string))
            .collect();
        let side = |preds: Vec<String>| Fingerprint::new(Vec::new()).with_extra(preds).with_sources(srcs.clone());
        let after = remaining.iter().map(|p| format!("{:?}", p)).collect();
        plan.rewrites
            .push(RewriteRecord::new("pushdown", true, side(before), side(after)).with_placements(placements));
    }
    plan.residual_predicates = remaining;
}

/// Units that bind `var`: independent atoms, dependent atoms (binding it,
/// or navigating the element it holds) and the `outer` row.
fn binders_of(plan: &Plan, outer: Option<&Schema>, var: &str) -> usize {
    plan.independents.iter().filter(|a| a.vars().iter().any(|v| v == var)).count()
        + plan.dependents.iter().filter(|d| d.on_var == var || d.vars.iter().any(|v| v == var)).count()
        + usize::from(outer.is_some_and(|s| s.index_of(var).is_some()))
}

/// Give every single-collection fragment its row floor ([`Refresh`])
/// and record the one that is not 0 as a `delta-refresh` rewrite: a
/// restriction placed at one fragment, under which columns, keys and
/// sources stay and the row bound can only fall.
fn floor_fragments(catalog: &Catalog, plan: &mut Plan, refresh: Refresh<'_>) {
    let delta = match refresh {
        Refresh::Full => None,
        Refresh::Delta(collection, mark) => Some((collection, mark)),
    };
    let mut placements: Vec<Placement> = Vec::new();
    let (mut rows_before, mut rows_after) = (0u64, 0u64);
    let pred = delta.map(|(collection, n)| format!("rows of {} past {}", collection, n));
    for atom in &mut plan.independents {
        let AtomExec::Fragment { source, query, vars } = atom else {
            continue;
        };
        let [only] = query.collections.as_slice() else {
            continue;
        };
        let key = format!("{}.{}", source, only.collection);
        let floor = delta.filter(|(collection, _)| *collection == key);
        query.after_row = Some(0);
        let Some(((_, n), pred)) = floor.zip(pred.as_ref()) else {
            continue;
        };
        rows_before = rows_before.saturating_add(cost::estimate_fragment(catalog, source, query));
        query.after_row = Some(n);
        rows_after = rows_after.saturating_add(cost::estimate_fragment(catalog, source, query));
        placements.push(Placement {
            pred: pred.clone(),
            var: vars.first().cloned().unwrap_or_default(),
            source: source.clone(),
            outputs: vars.clone(),
            reads: None,
        });
    }
    let Some(pred) = pred else {
        return;
    };
    let cols: Vec<String> = plan.independents.iter().flat_map(|a| a.vars().iter().cloned()).collect();
    let sources: Vec<String> = plan
        .independents
        .iter()
        .filter_map(|a| a.source().map(str::to_string))
        .collect();
    plan.notes.push(format!("delta refresh: {}", pred));
    let side = |extra: Vec<String>, rows: u64| {
        Fingerprint::new(cols.clone())
            .with_extra(extra)
            .with_sources(sources.clone())
            .with_card_bound(rows)
    };
    plan.rewrites.push(
        RewriteRecord::new("delta-refresh", true, side(vec![pred], rows_before), side(Vec::new(), rows_after))
            .with_placements(placements),
    );
}

/// The tail of planning, which reads the values of equality parameters
/// and nothing decides on afterwards: the satisfiability verdict on the
/// plan's own values ([`unsat_verdict`]) — a plan whose predicates can
/// never hold executes as an annotated empty relation. A serve of other
/// values asks it again ([`Bound::verdict`]).
fn finish(catalog: &Catalog, plan: &mut Plan, config: &OptimizerConfig) {
    plan.pruned = if config.prune_unsat {
        unsat_verdict(catalog, Bound::own(plan))
    } else {
        None
    };
}

/// What EXPLAIN says of a plan's own parameter values, after
/// [`Plan::notes`] (`Bound::value_notes`).
pub fn value_notes(catalog: &Catalog, plan: &Plan) -> Vec<String> {
    Bound::own(plan).value_notes(catalog, plan.pruned.as_deref())
}

/// A plan and the values one serve gives its query's equality
/// parameters ([`Query::eq_params`] of the text served). The plan is
/// shared — a cached one serves every value of its shape — and holds the
/// values it was made with at its [`Plan::param_sites`]; a serve reads
/// each value at its site through here, and only there: the fragment it
/// sends ([`Bound::fragment_query`]), the central predicates it filters
/// and probes with ([`Bound::residual`]), the verdict, and what EXPLAIN
/// says. Every other decision of a plan without [`Plan::shards`] reads
/// an equality literal's type at most (DESIGN.md §12), and the type is
/// part of the plan-cache key.
#[derive(Clone, Copy)]
pub(crate) struct Bound<'a> {
    pub plan: &'a Plan,
    params: &'a [&'a Atomic],
}

impl<'a> Bound<'a> {
    /// `plan` served with `params`. A site that is not there, or holds a
    /// value of another type than the one given, means the plan is not
    /// this query's shape, and is an error.
    pub fn new(plan: &'a Plan, params: &'a [&'a Atomic]) -> Result<Bound<'a>, CoreError> {
        for site in &plan.param_sites {
            let (param, held) = match *site {
                ParamSite::Selection {
                    param,
                    atom,
                    selection,
                } => {
                    let held = match plan.independents.get(atom) {
                        Some(AtomExec::Fragment { query, .. }) => query
                            .selections
                            .get(selection)
                            .filter(|s| s.op == PredOp::Eq)
                            .map(|s| &s.value),
                        _ => None,
                    };
                    (param, held)
                }
                ParamSite::Residual { param, index } => (
                    param,
                    plan.residual_predicates.get(index).and_then(Expr::eq_param),
                ),
            };
            match (held, params.get(param)) {
                (Some(held), Some(value)) if held.atomic_type() == value.atomic_type() => {}
                _ => {
                    return Err(CoreError::Internal(format!(
                        "plan does not hold parameter {} at {:?}",
                        param, site
                    )))
                }
            }
        }
        Ok(Bound { plan, params })
    }

    /// `plan` with the values it was made with.
    pub fn own(plan: &'a Plan) -> Bound<'a> {
        Bound { plan, params: &[] }
    }

    /// How many values this serve gives.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The value this serve gives the parameter a site holds: `None`
    /// reads the plan's own.
    fn value(&self, param: usize) -> Option<&'a Atomic> {
        self.params.get(param).copied()
    }

    /// This serve's value of the parameter in `residual_predicates[index]`,
    /// if one is there.
    fn residual_value(&self, index: usize) -> Option<&'a Atomic> {
        self.plan.param_sites.iter().find_map(|site| match *site {
            ParamSite::Residual { param, index: at } if at == index => self.value(param),
            _ => None,
        })
    }

    /// This serve's value of `selections[selection]` of the fragment
    /// `independents[atom]`, if a parameter is there.
    fn selection_value(&self, atom: usize, selection: usize) -> Option<&'a Atomic> {
        self.plan.param_sites.iter().find_map(|site| match *site {
            ParamSite::Selection { param, atom: a, selection: s } if (a, s) == (atom, selection) => self.value(param),
            _ => None,
        })
    }

    /// The fragment `independents[atom]` sends on this serve: the plan's
    /// own, or a copy holding this serve's values. `None` when the atom
    /// is not a fragment.
    pub fn fragment_query(&self, atom: usize) -> Option<Cow<'a, SourceQuery>> {
        let Some(AtomExec::Fragment { query, .. }) = self.plan.independents.get(atom) else {
            return None;
        };
        let mut sent = Cow::Borrowed(query);
        for j in 0..query.selections.len() {
            if let Some(value) = self.selection_value(atom, j) {
                if let Some(s) = sent.to_mut().selections.get_mut(j) {
                    s.value = value.clone();
                }
            }
        }
        Some(sent)
    }

    /// `residual_predicates[index]` as this serve reads it.
    pub fn residual(&self, index: usize) -> Option<Cow<'a, Expr>> {
        let pred = self.plan.residual_predicates.get(index)?;
        Some(match self.residual_value(index) {
            None => Cow::Borrowed(pred),
            Some(value) => {
                let mut pred = pred.clone();
                if let Some(slot) = pred.eq_param_mut() {
                    *slot = value.clone();
                }
                Cow::Owned(pred)
            }
        })
    }

    /// The satisfiability verdict on this serve. A plan without a
    /// parameter site keeps the one it was made with; every other plan
    /// is judged on this serve's values.
    pub fn verdict(&self, catalog: &Catalog, config: &OptimizerConfig) -> Option<Cow<'a, str>> {
        if self.plan.param_sites.is_empty() {
            return self.plan.pruned.as_deref().map(Cow::Borrowed);
        }
        config.prune_unsat.then(|| unsat_verdict(catalog, *self)).flatten().map(Cow::Owned)
    }

    /// What EXPLAIN says of this serve's values, after [`Plan::notes`]:
    /// the verdict `pruned`, the probes, and the exact per-source query
    /// text that will be shipped — for relational sources, the generated
    /// SQL (the paper's "if an RDB is being queried, then the compiler
    /// generates SQL"). Rendered where the EXPLAIN text is assembled, not
    /// when a plan is made or served: a serve nobody reads the plan of
    /// renders no SQL text.
    pub fn value_notes(&self, catalog: &Catalog, pruned: Option<&str>) -> Vec<String> {
        let plan = self.plan;
        let mut notes = Vec::new();
        if let Some(reason) = pruned {
            notes.push(format!("pruned: {}", reason));
        }
        for probe in &plan.probes {
            let (Some(pred), Some(atom)) = (self.residual(probe.conjunct), plan.independents.get(probe.atom)) else {
                continue;
            };
            let (unit, tag) = match atom {
                AtomExec::ViewMatch { view, pattern, .. } => (view.clone(), &pattern.tag),
                AtomExec::FetchMatch {
                    source,
                    collection,
                    pattern,
                    ..
                } => (format!("{}.{}", source, collection), &pattern.tag),
                AtomExec::Fragment { .. } => continue,
            };
            // A content read is the path's last element itself: no `$` step.
            let mut at = vec![tag_step(tag)];
            at.extend(probe.walk());
            if probe.attr.is_none() {
                at.pop();
            }
            // `Expr` prints fully parenthesized.
            let pred = pred.to_string();
            let pred = pred.strip_prefix('(').and_then(|p| p.strip_suffix(')')).unwrap_or(&pred);
            let guard = if probe.joined { ", join variable: numbers only" } else { "" };
            notes.push(format!("probe: {} on {} at {}{}", pred, unit, at.join("/"), guard));
        }
        for (i, atom) in plan.independents.iter().enumerate() {
            let (AtomExec::Fragment { source, .. }, Some(query)) = (atom, self.fragment_query(i)) else {
                continue;
            };
            if catalog
                .source(source)
                .is_some_and(|a| a.kind() == SourceKind::Relational)
            {
                let mut note = format!("  {} <- {}", source, RelationalAdapter::to_sql(&query));
                // The key list only exists at run time.
                if let Some((stage, t)) = plan.bind.as_ref().and_then(|b| Some((b, b.target(i)?))) {
                    note.push_str(&format!("  [+ {} IN (keys of ${})]", t.field, stage.var));
                }
                notes.push(note);
            }
        }
        notes
    }
}

/// Why a fragment that binds a selection's variable did not take a copy.
enum Declined {
    /// The source cannot evaluate selections.
    Caps,
    /// The source's typed comparison of the field, as declared, would
    /// keep other rows than the mediator's ([`reads_alike`]).
    Type,
    /// Estimated selectivity too weak to shrink the transfer.
    Cost(f64),
}

impl Declined {
    /// The reason as EXPLAIN spells it.
    fn tag(&self) -> &'static str {
        match self {
            Declined::Caps => "caps",
            Declined::Type => "type",
            Declined::Cost(_) => "cost",
        }
    }
}

/// Declared type of a fragment field, from the source's collection
/// metadata.
fn field_type(
    adapter: &dyn SourceAdapter,
    query: &SourceQuery,
    field: &FieldRef,
) -> Option<AtomicType> {
    let coll = query.collections.iter().find(|c| c.alias == field.alias)?;
    declared(adapter, &coll.collection, &field.field)
}

/// Declared type of a collection's field.
fn declared(adapter: &dyn SourceAdapter, collection: &str, field: &str) -> Option<AtomicType> {
    let info = adapter.collections().into_iter().find(|c| c.name == collection)?;
    info.fields.iter().find(|(name, _)| name == field).map(|(_, ty)| *ty)
}

/// Pushdown of one predicate: gives `$v op literal` to every fragment
/// that outputs `$v` and returns the copies placed, and whether the
/// predicate stays central too (always, when none is placed). `param`
/// says which equality parameter the literal is, if it is one: each
/// copy is then recorded as a [`ParamSite`].
///
/// Each fragment decides for itself. Its source must evaluate
/// selections; its typed comparison of the field, as declared, must keep
/// exactly the rows the mediator's would ([`reads_alike`], DESIGN.md
/// §23) — where another unit binds `$v` too (another atom, a dependent
/// atom, the `outer` row), for every value the join equates with the one
/// it holds; and a predicate whose estimated selectivity there is too
/// weak to shrink the transfer is not shipped.
///
/// A plan serves every value of an equality parameter's type (DESIGN.md
/// §12), and each places alike: a text parameter never reads as a number
/// ([`Expr::eq_param`]).
fn place_selection(
    catalog: &Catalog,
    plan: &mut Plan,
    pred: &Expr,
    param: Option<usize>,
    outer: Option<&Schema>,
) -> (Vec<Placement>, bool) {
    let Some((var, op, lit)) = compiler::simple_selection(pred) else {
        return (Vec::new(), true);
    };
    let binds = |atom: &AtomExec| {
        matches!(atom, AtomExec::Fragment { query, .. }
            if query.outputs.iter().any(|(v, _)| v == var))
    };
    let joined = binders_of(plan, outer, var) > 1;
    let mut placed: Vec<Placement> = Vec::new();
    let mut declined: Vec<(&str, Declined)> = Vec::new();
    for (i, atom) in plan.independents.iter_mut().enumerate().filter(|(_, a)| binds(a)) {
        let AtomExec::Fragment {
            source,
            query,
            vars,
        } = atom
        else {
            continue;
        };
        let Some(adapter) = catalog.source(source) else {
            continue;
        };
        if !compiler::push_predicate(query, pred, &adapter.capabilities()) {
            declined.push((source, Declined::Caps));
            continue;
        }
        let Some(sel) = query.selections.last() else {
            continue;
        };
        let field = field_type(adapter.as_ref(), query, &sel.field);
        let why = if !reads_alike(op, lit, field, joined) {
            Some(Declined::Type)
        } else {
            cost::fragment_selection_selectivity(catalog, source, query, sel)
                .filter(|s| *s >= cost::CENTRAL_RESIDUAL_THRESHOLD)
                .map(Declined::Cost)
        };
        if let Some(why) = why {
            query.selections.pop();
            declined.push((source, why));
            continue;
        }
        plan.notes.push(format!("predicate pushed to {}", source));
        if let Some(param) = param {
            plan.param_sites.push(ParamSite::Selection {
                param,
                atom: i,
                selection: query.selections.len() - 1,
            });
        }
        placed.push(Placement {
            pred: format!("{:?}", pred),
            var: var.to_string(),
            source: source.clone(),
            outputs: vars.clone(),
            reads: Some(SourceRead::Selection { op, lit: lit.clone(), field, joined }),
        });
    }
    for (source, why) in declined {
        let note = match (placed.is_empty(), why) {
            (true, Declined::Cost(s)) => format!(
                "cost: predicate kept central (est selectivity {:.2} at {})",
                s, source
            ),
            (true, Declined::Type) => format!("type: predicate kept central ({} reads it otherwise)", source),
            // Nothing was shipped, so nothing was replicated either.
            (true, Declined::Caps) => continue,
            (false, why) => format!("predicate not replicated to {}: {}", source, why.tag()),
        };
        plan.notes.push(note);
    }
    let central = placed.is_empty();
    (placed, central)
}

/// The schema of everything a plan binds: its independent units'
/// variables, then its dependent atoms'.
fn bound_schema(plan: &Plan) -> Option<Schema> {
    let mut vars: Vec<String> = Vec::new();
    let units = plan.independents.iter().map(AtomExec::vars);
    for v in units.chain(plan.dependents.iter().map(|d| &d.vars[..])).flatten() {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    Schema::try_new(vars).ok()
}

/// Constant folding: a residual predicate that is a tautology by
/// *pure logic* (literal folding only — statistics bounds never justify
/// dropping a filter, because NULL-holding rows fail every comparison)
/// is eliminated. `params` runs beside the residual predicates and
/// loses the same entries.
fn eliminate_tautologies(plan: &mut Plan, params: &mut Vec<Option<usize>>) {
    use nimble_planck::satisfy::{self, Verdict};

    let Some(schema) = bound_schema(plan) else {
        return;
    };
    let mut kept: Vec<Expr> = Vec::new();
    let mut kept_params = Vec::new();
    for (pred, param) in std::mem::take(&mut plan.residual_predicates)
        .into_iter()
        .zip(std::mem::take(params))
    {
        // A predicate we cannot translate here (e.g. it references a
        // correlated outer variable) is simply not analyzed.
        let always_true = translate_expr(&pred, &schema)
            .is_ok_and(|se| satisfy::analyze_pure(&se) == Verdict::AlwaysTrue);
        if always_true {
            plan.notes.push(format!(
                "semantic: always-true predicate eliminated ({:?})",
                pred
            ));
        } else {
            kept.push(pred);
            kept_params.push(param);
        }
    }
    plan.residual_predicates = kept;
    *params = kept_params;
}

/// The satisfiability verdict on a decomposed plan served with some
/// values (pass 2 of `nimble-planck`'s semantic analyzer): why its WHERE
/// clause can never hold, if it cannot. Reads the plan, the values and
/// the statistics, changes none of them — it is asked when a plan is
/// made ([`finish`]) and on each serve of other values
/// ([`Bound::verdict`]).
///
/// * The conjunction of the residual predicates is interval-checked; a
///   contradiction (`$x > 5 AND $x < 3`) is a verdict.
/// * Each pushed fragment's selection set is interval-checked the same
///   way, cross-referenced against exhaustive-sample min/max bounds
///   from the statistics catalog. Every mediator-side fold is an inner
///   join, so one statically-empty unit empties the whole result.
fn unsat_verdict(catalog: &Catalog, bound: Bound<'_>) -> Option<String> {
    use nimble_planck::satisfy::{self, Verdict};

    let plan = bound.plan;
    if !plan.residual_predicates.is_empty() {
        let schema = bound_schema(plan)?;
        let conjuncts: Vec<ScalarExpr> = (0..plan.residual_predicates.len())
            .filter_map(|index| bound.residual(index))
            .filter_map(|pred| translate_expr(&pred, &schema).ok())
            .collect();
        let bounds = |col: usize| -> Option<(satisfy::Number, satisfy::Number)> {
            schema
                .vars()
                .get(col)
                .and_then(|v| var_exact_bounds(catalog, &plan.independents, v))
        };
        if !conjuncts.is_empty()
            && satisfy::analyze(&ScalarExpr::conjunction(conjuncts), &bounds)
                == Verdict::Unsatisfiable
        {
            return Some("unsatisfiable: residual predicates can never hold".to_string());
        }
    }

    for (i, atom) in plan.independents.iter().enumerate() {
        let AtomExec::Fragment { source, query, .. } = atom else {
            continue;
        };
        if query.selections.is_empty() {
            continue;
        }
        let mut cols: Vec<&FieldRef> = Vec::new();
        for sel in &query.selections {
            if !cols.contains(&&sel.field) {
                cols.push(&sel.field);
            }
        }
        let conjuncts: Vec<ScalarExpr> = query
            .selections
            .iter()
            .enumerate()
            .filter_map(|(j, sel)| {
                let idx = cols.iter().position(|f| *f == &sel.field)?;
                let value = bound.selection_value(i, j).unwrap_or(&sel.value);
                Some(ScalarExpr::Cmp(
                    sel.op,
                    Box::new(ScalarExpr::Col(idx)),
                    Box::new(ScalarExpr::Lit(Value::Atomic(value.clone()))),
                ))
            })
            .collect();
        let bounds = |col: usize| -> Option<(satisfy::Number, satisfy::Number)> {
            let f = cols.get(col)?;
            let coll = query.collections.iter().find(|c| c.alias == f.alias)?;
            catalog
                .stats()
                .exact_bounds(&format!("{}.{}", source, coll.collection), &f.field)
        };
        if satisfy::analyze(&ScalarExpr::conjunction(conjuncts), &bounds) == Verdict::Unsatisfiable {
            return Some(format!(
                "unsatisfiable: pushed selections on {} can never hold",
                source
            ));
        }
    }
    None
}

/// Exact (exhaustive-sample) min/max bounds for the collection field a
/// variable is bound to, when any independent unit maps it to one. A
/// join variable equates its occurrences, so bounds from any one side
/// constrain the joined value.
fn var_exact_bounds(
    catalog: &Catalog,
    independents: &[AtomExec],
    var: &str,
) -> Option<(nimble_planck::satisfy::Number, nimble_planck::satisfy::Number)> {
    independents.iter().find_map(|atom| {
        let (collection, field) = cost::var_field(atom, var)?;
        catalog.stats().exact_bounds(&collection, &field)
    })
}

/// Statically verify a decomposed [`Plan`] before any operator is built:
/// every unit binds distinct variables, dependent atoms navigate
/// variables bound by an earlier unit, and residual predicates and
/// ORDER-BY keys only reference bound variables. Complements the
/// operator-tree verification `nimble-planck` performs on the assembled
/// physical plan.
pub fn verify_plan(plan: &Plan, outer: Option<&Schema>) -> Result<(), CoreError> {
    let mut bound: Vec<String> = outer.map(|s| s.vars().to_vec()).unwrap_or_default();
    let check_unit_vars = |what: String, vars: &[String]| -> Result<(), CoreError> {
        for (i, v) in vars.iter().enumerate() {
            if vars[..i].contains(v) {
                return Err(CoreError::PlanVerify(format!(
                    "{} binds ${} twice",
                    what, v
                )));
            }
        }
        Ok(())
    };
    for atom in &plan.independents {
        let what = match atom.source() {
            Some(s) => format!("execution unit against source {:?}", s),
            None => "view execution unit".to_string(),
        };
        check_unit_vars(what, atom.vars())?;
        for v in atom.vars() {
            if !bound.contains(v) {
                bound.push(v.clone());
            }
        }
    }
    if let Some(stage) = &plan.bind {
        // Driver and targets are fragments that output the stage's
        // variable — each target from the field the keys are sent for.
        let binds = |i: usize, field: Option<&FieldRef>| {
            matches!(plan.independents.get(i), Some(AtomExec::Fragment { query, .. })
                if query.outputs.iter().any(|(v, f)| v == &stage.var && field.map_or(true, |t| t == f)))
        };
        let sound = binds(stage.driver, None)
            && stage
                .targets
                .iter()
                .all(|t| t.atom != stage.driver && binds(t.atom, Some(&t.field)));
        if !sound {
            return Err(CoreError::PlanVerify(format!(
                "bind stage on ${} names a unit that does not bind it: {:?}",
                stage.var, stage
            )));
        }
    }
    for dep in &plan.dependents {
        if !bound.contains(&dep.on_var) {
            return Err(CoreError::PlanVerify(format!(
                "dependent pattern navigates ${}, which no earlier unit binds",
                dep.on_var
            )));
        }
        check_unit_vars(format!("dependent pattern in ${}", dep.on_var), &dep.vars)?;
        for v in &dep.vars {
            if !bound.contains(v) {
                bound.push(v.clone());
            }
        }
    }
    for pred in &plan.residual_predicates {
        for v in pred.vars() {
            if !bound.contains(&v) {
                return Err(CoreError::PlanVerify(format!(
                    "residual predicate references unbound ${}",
                    v
                )));
            }
        }
    }
    for key in &plan.order_by {
        if !bound.contains(&key.var) {
            return Err(CoreError::PlanVerify(format!(
                "ORDER-BY references unbound ${}",
                key.var
            )));
        }
    }
    let issues = nimble_planck::audit_probes(&probe_facts(plan, outer));
    if !issues.is_empty() {
        let details: Vec<String> = issues.iter().map(ToString::to_string).collect();
        return Err(CoreError::PlanVerify(details.join("\n")));
    }
    Ok(())
}

/// Fragments grouped under one source name, each with its index among
/// the independent units and its bound vars.
type SourceFragments = Vec<(usize, SourceQuery, Vec<String>)>;

fn merge_same_source_fragments(catalog: &Catalog, plan: &mut Plan) {
    let mut merged: Vec<AtomExec> = Vec::new();
    // Where each unit's selections went: the unit they are in now and
    // how many come before them there.
    let mut moved: Vec<(usize, usize)> = vec![(0, 0); plan.independents.len()];
    let mut by_source: Vec<(String, SourceFragments)> = Vec::new();
    for (old, atom) in plan.independents.drain(..).enumerate() {
        match atom {
            AtomExec::Fragment {
                source,
                query,
                vars,
            } if catalog
                .source(&source)
                .is_some_and(|a| a.capabilities().joins) =>
            {
                match by_source.iter_mut().find(|(s, _)| s == &source) {
                    Some((_, frags)) => frags.push((old, query, vars)),
                    None => by_source.push((source, vec![(old, query, vars)])),
                }
            }
            other => {
                moved[old] = (merged.len(), 0);
                merged.push(other);
            }
        }
    }
    let mut placements: Vec<Placement> = Vec::new();
    for (source, frags) in by_source {
        if frags.len() >= 2 {
            let queries: Vec<SourceQuery> = frags.iter().map(|(_, q, _)| q.clone()).collect();
            // Sent only where the source's typed join pairs the rows the
            // mediator's hash join pairs (`joins_alike`, DESIGN.md §23).
            let merge = compiler::merge_fragments(&queries).and_then(|joined| {
                let adapter = catalog.source(&source)?;
                let declared = |f: &FieldRef| field_type(adapter.as_ref(), &joined, f);
                let outputs: Vec<String> = joined.outputs.iter().map(|(v, _)| v.clone()).collect();
                let joins: Vec<Placement> = joined
                    .join_conds
                    .iter()
                    .map(|(l, r)| Placement {
                        pred: format!("{} = {}", l, r),
                        var: joined.outputs.iter().find(|(_, f)| f == l).map_or_else(String::new, |(v, _)| v.clone()),
                        source: source.clone(),
                        outputs: outputs.clone(),
                        reads: Some(SourceRead::Join(declared(l), declared(r))),
                    })
                    .collect();
                let alike = joins.iter().all(|p| matches!(p.reads, Some(SourceRead::Join(a, b)) if joins_alike(a, b)));
                if !alike {
                    plan.notes.push(format!("join kept central ({} reads it otherwise)", source));
                }
                alike.then_some((joined, joins, outputs))
            });
            if let Some((joined, joins, vars)) = merge {
                placements.extend(joins);
                // The joined fragment lists its parts' selections part
                // by part, in order.
                let mut before = 0;
                for (old, query, _) in &frags {
                    moved[*old] = (merged.len(), before);
                    before += query.selections.len();
                }
                plan.notes.push(format!(
                    "join of {} fragments pushed to {}",
                    frags.len(),
                    source
                ));
                merged.push(AtomExec::Fragment {
                    source,
                    query: joined,
                    vars,
                });
                continue;
            }
        }
        for (old, query, vars) in frags {
            moved[old] = (merged.len(), 0);
            merged.push(AtomExec::Fragment {
                source: source.clone(),
                query,
                vars,
            });
        }
    }
    plan.independents = merged;
    // Rewrite record: each merged join condition moves from the central
    // join into a source, as the source reads it.
    if !placements.is_empty() {
        let preds: Vec<String> = placements.iter().map(|p| p.pred.clone()).collect();
        plan.rewrites.push(
            RewriteRecord::new(
                "join-pushdown",
                false,
                Fingerprint::new(Vec::new()).with_extra(preds),
                Fingerprint::new(Vec::new()),
            )
            .with_placements(placements),
        );
    }
    for site in &mut plan.param_sites {
        if let ParamSite::Selection {
            atom, selection, ..
        } = site
        {
            let (now, before) = moved[*atom];
            *atom = now;
            *selection += before;
        }
    }
}

/// Translate an XML-QL predicate into a physical scalar expression over
/// the given schema.
pub fn translate_expr(expr: &Expr, schema: &Schema) -> Result<ScalarExpr, CoreError> {
    Ok(match expr {
        Expr::Var(v) => ScalarExpr::Col(schema.index_of(v).ok_or_else(|| {
            CoreError::Exec(format!("variable ${} not bound in schema {}", v, schema))
        })?),
        Expr::Lit(a) => ScalarExpr::Lit(Value::Atomic(a.clone())),
        Expr::Not(e) => ScalarExpr::Not(Box::new(translate_expr(e, schema)?)),
        Expr::Neg(e) => ScalarExpr::Neg(Box::new(translate_expr(e, schema)?)),
        Expr::Call(name, args) => ScalarExpr::Call(
            name.clone(),
            args.iter()
                .map(|a| translate_expr(a, schema))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Binary(op, l, r) => {
            let lt = Box::new(translate_expr(l, schema)?);
            let rt = Box::new(translate_expr(r, schema)?);
            match op {
                BinOp::And => ScalarExpr::And(lt, rt),
                BinOp::Or => ScalarExpr::Or(lt, rt),
                BinOp::Eq => ScalarExpr::Cmp(CmpOp::Eq, lt, rt),
                BinOp::Ne => ScalarExpr::Cmp(CmpOp::Ne, lt, rt),
                BinOp::Lt => ScalarExpr::Cmp(CmpOp::Lt, lt, rt),
                BinOp::Le => ScalarExpr::Cmp(CmpOp::Le, lt, rt),
                BinOp::Gt => ScalarExpr::Cmp(CmpOp::Gt, lt, rt),
                BinOp::Ge => ScalarExpr::Cmp(CmpOp::Ge, lt, rt),
                BinOp::Like => ScalarExpr::Cmp(CmpOp::Like, lt, rt),
                BinOp::Add => ScalarExpr::Arith(nimble_algebra::ArithOp::Add, lt, rt),
                BinOp::Sub => ScalarExpr::Arith(nimble_algebra::ArithOp::Sub, lt, rt),
                BinOp::Mul => ScalarExpr::Arith(nimble_algebra::ArithOp::Mul, lt, rt),
                BinOp::Div => ScalarExpr::Arith(nimble_algebra::ArithOp::Div, lt, rt),
                BinOp::Mod => ScalarExpr::Arith(nimble_algebra::ArithOp::Mod, lt, rt),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_algebra::Tuple;
    use nimble_sources::relational::RelationalAdapter;
    use nimble_sources::xmldoc::XmlDocAdapter;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register_source(Arc::new(
            RelationalAdapter::from_statements(
                "crm",
                &[
                    "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                    "INSERT INTO customers VALUES (1, 'Acme', 'NW')",
                    "CREATE TABLE orders (id INT, cust_id INT, total FLOAT)",
                    "INSERT INTO orders VALUES (10, 1, 9.5)",
                ],
            )
            .unwrap(),
        ))
        .unwrap();
        c.register_source(Arc::new(
            XmlDocAdapter::new("feeds")
                .add_xml("bib", "<bib><book><title>X</title></book></bib>")
                .unwrap(),
        ))
        .unwrap();
        c
    }

    fn parse(text: &str) -> Query {
        nimble_xmlql::parse_query(text).unwrap()
    }

    #[test]
    fn pushdown_chosen_for_row_patterns() {
        let c = catalog();
        let q = parse(
            r#"WHERE <row><name>$n</name></row> IN "customers", $n LIKE "A%"
               CONSTRUCT <o>$n</o>"#,
        );
        let plan = plan_query(&c, &q, &OptimizerConfig::default()).unwrap();
        assert_eq!(plan.independents.len(), 1);
        match &plan.independents[0] {
            AtomExec::Fragment { source, query, .. } => {
                assert_eq!(source, "crm");
                // LIKE predicate was folded into the fragment.
                assert_eq!(query.selections.len(), 1);
            }
            other => panic!("{:?}", other),
        }
        assert!(plan.residual_predicates.is_empty());
    }

    #[test]
    fn pushdown_disabled_falls_back() {
        let c = catalog();
        let q = parse(
            r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <o>$n</o>"#,
        );
        let config = OptimizerConfig {
            pushdown: false,
            ..OptimizerConfig::default()
        };
        let plan = plan_query(&c, &q, &config).unwrap();
        assert!(matches!(
            plan.independents[0],
            AtomExec::FetchMatch { .. }
        ));
    }

    #[test]
    fn same_source_join_merged() {
        let c = catalog();
        let q = parse(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
               CONSTRUCT <o>$n</o>"#,
        );
        let plan = plan_query(&c, &q, &OptimizerConfig::default()).unwrap();
        assert_eq!(plan.independents.len(), 1);
        match &plan.independents[0] {
            AtomExec::Fragment { query, vars, .. } => {
                assert_eq!(query.collections.len(), 2);
                assert!(vars.contains(&"n".to_string()) && vars.contains(&"t".to_string()));
            }
            other => panic!("{:?}", other),
        }

        // With capability joins off, two separate fragments remain.
        let config = OptimizerConfig {
            capability_joins: false,
            ..OptimizerConfig::default()
        };
        let plan = plan_query(&c, &q, &config).unwrap();
        assert_eq!(plan.independents.len(), 2);
    }

    /// `customers` in `crm` and `orders` in `billing`, joined on `$i`.
    const LOOKUP: &str = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders""#;

    fn relational(name: &str, stmts: &[String]) -> Arc<dyn SourceAdapter> {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap())
    }

    /// `ids` customers in `crm` (`id` of type `id_type`); in `billing`
    /// one order per customer id in `cust_ids`.
    fn lookup_sources(
        id_type: &str,
        ids: std::ops::RangeInclusive<i64>,
        cust_ids: std::ops::RangeInclusive<i64>,
    ) -> (Arc<dyn SourceAdapter>, Arc<dyn SourceAdapter>) {
        let quote = if id_type == "TEXT" { "'" } else { "" };
        let mut crm = vec![format!(
            "CREATE TABLE customers (id {}, name TEXT)",
            id_type
        )];
        crm.extend(ids.map(|i| {
            format!(
                "INSERT INTO customers VALUES ({q}{i}{q}, 'c{i}')",
                q = quote
            )
        }));
        let mut billing = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
        billing.extend(cust_ids.map(|i| format!("INSERT INTO orders VALUES ({}, {})", 100 + i, i)));
        (relational("crm", &crm), relational("billing", &billing))
    }

    fn lookup_plan(
        crm: Arc<dyn SourceAdapter>,
        billing: Arc<dyn SourceAdapter>,
        pred: &str,
    ) -> Plan {
        let c = Catalog::new();
        c.register_source(crm).unwrap();
        c.register_source(billing).unwrap();
        let q = parse(&format!("{}, {} CONSTRUCT <o>$n</o>", LOOKUP, pred));
        explained(&c, plan_query(&c, &q, &OptimizerConfig::default()).unwrap())
    }

    /// The plan with what EXPLAIN prints after its own notes appended
    /// to them, for [`has_note`].
    fn explained(c: &Catalog, mut plan: Plan) -> Plan {
        let of_values = value_notes(c, &plan);
        plan.notes.extend(of_values);
        plan
    }

    /// Pushed selections per source, as SQL-ish text.
    fn shipped(plan: &Plan) -> Vec<String> {
        let mut out = Vec::new();
        for atom in &plan.independents {
            if let AtomExec::Fragment { source, query, .. } = atom {
                for sel in &query.selections {
                    out.push(format!(
                        "{}: {} {} {}",
                        source,
                        sel.field,
                        nimble_sources::relational::sql_op(sel.op),
                        sel.value.lexical()
                    ));
                }
            }
        }
        out
    }

    fn has_note(plan: &Plan, note: &str) -> bool {
        plan.notes.iter().any(|n| n == note)
    }

    /// Passes everything through except the claim to evaluate selections.
    struct NoSelections(Arc<dyn SourceAdapter>);

    impl SourceAdapter for NoSelections {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn kind(&self) -> SourceKind {
            self.0.kind()
        }
        fn capabilities(&self) -> nimble_sources::Capabilities {
            let mut caps = self.0.capabilities();
            caps.selections = false;
            caps
        }
        fn collections(&self) -> Vec<nimble_sources::CollectionInfo> {
            self.0.collections()
        }
        fn execute(
            &self,
            query: &SourceQuery,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            self.0.execute(query)
        }
        fn fetch_collection(
            &self,
            name: &str,
        ) -> Result<Arc<nimble_xml::Document>, nimble_sources::SourceError> {
            self.0.fetch_collection(name)
        }
        fn estimated_rows(&self, collection: &str) -> Option<u64> {
            self.0.estimated_rows(collection)
        }
    }

    #[test]
    fn selection_on_join_variable_reaches_every_binding_fragment() {
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, "$i = 7");
        assert_eq!(shipped(&plan), ["crm: t.id = 7", "billing: t.cust_id = 7"]);
        assert!(plan.residual_predicates.is_empty());
        assert!(has_note(&plan, "predicate pushed to crm"));
        assert!(has_note(&plan, "predicate pushed to billing"));
        assert!(has_note(
            &plan,
            "  crm <- SELECT t.id AS i, t.name AS n FROM customers t WHERE t.id = 7"
        ));
        assert!(has_note(
            &plan,
            "  billing <- SELECT t.oid AS o, t.cust_id AS i FROM orders t WHERE t.cust_id = 7"
        ));
        // Both sides' estimates see their copy.
        assert_eq!(plan.est_rows, [1, 1]);
        // The record lists both copies and passes the audit.
        let record = plan.rewrites.iter().find(|r| r.rule == "pushdown").unwrap();
        let placed: Vec<String> = record.placements.iter().map(|p| p.source.clone()).collect();
        assert_eq!(placed, ["crm", "billing"]);
        assert!(nimble_planck::audit(&plan.rewrites).is_empty());
    }

    #[test]
    fn source_without_selections_is_skipped() {
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, Arc::new(NoSelections(billing)), "$i = 7");
        assert_eq!(shipped(&plan), ["crm: t.id = 7"]);
        assert!(plan.residual_predicates.is_empty());
        assert!(has_note(&plan, "predicate not replicated to billing: caps"));

        // Declined everywhere: the predicate stays central, as before.
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(
            Arc::new(NoSelections(crm)),
            Arc::new(NoSelections(billing)),
            "$i = 7",
        );
        assert!(shipped(&plan).is_empty());
        assert_eq!(plan.residual_predicates.len(), 1);
        assert!(plan.rewrites.iter().all(|r| r.rule != "pushdown"));
    }

    #[test]
    fn join_fields_of_different_classes_get_a_single_placement() {
        // TEXT id joined to INT cust_id: the mediator equates '7' with
        // 7, a source comparing text with a number does not — so only
        // the INT field takes the copy.
        let (crm, billing) = lookup_sources("TEXT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, "$i = 7");
        assert_eq!(shipped(&plan), ["billing: t.cust_id = 7"]);
        assert!(plan.residual_predicates.is_empty());
        assert!(has_note(&plan, "predicate not replicated to crm: type"));

        // A literal neither field reads as the mediator does stays
        // central, and EXPLAIN says why.
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, r#"$i = "7""#);
        assert!(shipped(&plan).is_empty());
        assert_eq!(plan.residual_predicates.len(), 1);
        assert!(has_note(&plan, "type: predicate kept central (crm reads it otherwise)"));
    }

    #[test]
    fn weak_predicate_is_declined_per_fragment() {
        // `$i > 5` keeps 96% of customers (ids 1..=100) but only half
        // of the orders (cust_ids 1..=10): shipped to billing alone,
        // and no longer evaluated centrally.
        let (crm, billing) = lookup_sources("INT", 1..=100, 1..=10);
        let plan = lookup_plan(crm, billing, "$i > 5");
        assert_eq!(shipped(&plan), ["billing: t.cust_id > 5"]);
        assert!(plan.residual_predicates.is_empty());
        assert!(has_note(&plan, "predicate not replicated to crm: cost"));

        // Weak at every fragment: kept central.
        let (crm, billing) = lookup_sources("INT", 1..=100, 1..=100);
        let plan = lookup_plan(crm, billing, "$i > 5");
        assert!(shipped(&plan).is_empty());
        assert_eq!(plan.residual_predicates.len(), 1);
        assert!(plan
            .notes
            .iter()
            .any(|n| n.starts_with("cost: predicate kept central")));
    }

    #[test]
    fn key_outside_the_second_fragments_bounds_prunes_the_plan() {
        // Both samples are exhaustive. 50 is a customer id but outside
        // orders.cust_id's bounds [1, 10]: billing's copy of the
        // predicate proves the join empty.
        let (crm, billing) = lookup_sources("INT", 1..=100, 1..=10);
        let plan = lookup_plan(crm, billing, "$i = 50");
        assert_eq!(
            shipped(&plan),
            ["crm: t.id = 50", "billing: t.cust_id = 50"]
        );
        assert_eq!(
            plan.pruned.as_deref(),
            Some("unsatisfiable: pushed selections on billing can never hold")
        );
    }

    #[test]
    fn a_bound_plan_is_the_plan_of_the_query_itself() {
        // Every kind of site: a selection in a single fragment, in the
        // joined fragment of one source (the merge moves it), in two
        // sources' fragments, beside a pattern literal, a predicate kept
        // central over an XML source, a literal on the left, two
        // parameters on one variable. `K` and `L` are the parameters.
        let mut erp = vec![
            "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
            "CREATE TABLE orders (id INT, cust_id INT, total FLOAT)".to_string(),
        ];
        for i in 1..=20 {
            erp.push(format!("INSERT INTO customers VALUES ({i}, 'c{i}', 'NW')"));
            erp.push(format!("INSERT INTO orders VALUES ({}, {i}, {i}.5), ({}, {i}, 9.5)", 2 * i, 2 * i + 1));
        }
        let c = catalog();
        c.register_source(relational("erp", &erp)).unwrap();
        let (crm2, billing2) = lookup_sources("INT", 1..=100, 1..=10);
        let two = Catalog::new();
        two.register_source(crm2).unwrap();
        two.register_source(billing2).unwrap();
        let join = r#"<row><id>$i</id><name>$n</name></row> IN "erp.customers",
                      <row><cust_id>$i</cust_id><total>$t</total></row> IN "erp.orders""#;
        let cases: [(&Catalog, String, usize); 7] = [
            (&c, r#"WHERE <row><id>$i</id><name>$n</name></row> IN "erp.customers", $i = K CONSTRUCT <o>$n</o>"#.into(), 1),
            (&c, format!("WHERE {}, $t > 5, $i = K CONSTRUCT <o>$n</o>", join), 2),
            (&two, format!("{}, $i = K CONSTRUCT <o>$n</o>", LOOKUP), 2),
            (&c, r#"WHERE <row><id>$i</id><region>"NW"</region></row> IN "erp.customers", K = $i CONSTRUCT <o>$i</o>"#.into(), 1),
            (&c, r#"WHERE <bib><book year=$y><title>$x</title></book></bib> IN "bib", 3 < 5, $y = K CONSTRUCT <o>$x</o>"#.into(), 1),
            (&c, format!("WHERE {}, $t = 9.5, $i = K, $i = L CONSTRUCT <o>$n</o>", join), 5),
            (&c, r#"WHERE <row><id>$i</id><name>$n</name></row> IN "erp.customers", $n = "cK" CONSTRUCT <o>$i</o>"#.into(), 1),
        ];
        let config = OptimizerConfig::default();
        // The rewrite records quote the predicates of the text that was
        // planned; everything else is compared.
        let strip = |mut p: Plan| {
            p.rewrites.clear();
            format!("{:?}", p)
        };
        // `plan` as a serve of `query`'s values reads it, written out
        // whole: the fragments it sends, the predicates it filters and
        // probes with, and its verdict.
        let served = |catalog: &Catalog, plan: &Plan, query: &Query| {
            let params = query.eq_params();
            let bound = Bound::new(plan, &params).unwrap();
            let mut p = plan.clone();
            for (i, atom) in p.independents.iter_mut().enumerate() {
                if let AtomExec::Fragment { query, .. } = atom {
                    *query = bound.fragment_query(i).unwrap().into_owned();
                }
            }
            for (i, pred) in p.residual_predicates.iter_mut().enumerate() {
                *pred = bound.residual(i).unwrap().into_owned();
            }
            p.pruned = bound.verdict(catalog, &config).map(Cow::into_owned);
            p
        };
        for (catalog, template, sites) in cases {
            let at = |k: &str, l: &str| parse(&template.replace('K', k).replace('L', l));
            let (first, second) = (at("1", "1"), at("7", "8"));
            let cached = plan_query(catalog, &first, &config).unwrap();
            assert_eq!(cached.param_sites.len(), sites, "{}\n{:?}", template, cached);
            let fresh = plan_query(catalog, &second, &config).unwrap();
            // Served with the second text's values, the cached plan is
            // the second text's own.
            assert_eq!(strip(served(catalog, &cached, &second)), strip(fresh.clone()), "{}", template);
            // And the other way round.
            let back = served(catalog, &fresh, &first);
            assert_eq!(format!("{:?}", back.notes), format!("{:?}", cached.notes), "{}", template);
            assert_eq!(back.pruned, cached.pruned, "{}", template);
        }

        // Text that reads as a number is no parameter: each value is a
        // shape of its own, planned for that value, and a TEXT field
        // does not take it (the source would compare it as text).
        let numeric_text = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "erp.customers", $n = "K" CONSTRUCT <o>$i</o>"#;
        for k in ["1", "7"] {
            let text = numeric_text.replace('K', k);
            let query = parse(&text);
            assert!(query.eq_params().is_empty(), "{}", text);
            let plan = plan_query(&c, &query, &config).unwrap();
            assert!(plan.param_sites.is_empty(), "{:?}", plan);
            assert!(plan.notes.iter().any(|n| n == "type: predicate kept central (erp reads it otherwise)"), "{:?}", plan.notes);
            assert_eq!(strip(served(&c, &plan, &query)), strip(plan_query(&c, &query, &config).unwrap()));
        }
        let key = |k: &str| nimble_xmlql::parse_keyed(&numeric_text.replace('K', k)).unwrap().1.key.into_owned();
        assert_ne!(key("1"), key("7"));

        // A plan served with a parameter list that is not its shape's is
        // refused, not half-read.
        let q = parse(r#"WHERE <row><id>$i</id></row> IN "erp.customers", $i = 1 CONSTRUCT <o>$i</o>"#);
        let plan = plan_query(&c, &q, &config).unwrap();
        assert_eq!(plan.param_sites.len(), 1);
        assert!(matches!(Bound::new(&plan, &[]), Err(CoreError::Internal(_))));
        let text = Atomic::Str("1".into());
        assert!(matches!(Bound::new(&plan, &[&text]), Err(CoreError::Internal(_))));
    }

    #[test]
    fn strict_comparison_on_a_discrete_column_drops_a_value() {
        use nimble_sources::query::Selection;
        use nimble_store::stats::{CollectionStats, SampleBuilder};
        let mut b = SampleBuilder::new();
        for sev in [1i64, 2, 3, 1, 2, 3] {
            b.add_row();
            b.observe("severity", &Atomic::Int(sev));
        }
        let stats: CollectionStats = b.finish(6);
        let sel = |op, v: i64| Selection {
            field: FieldRef::new("t", "severity"),
            op,
            value: Atomic::Int(v),
        };
        let keeps = |op, v| cost::selection_selectivity(&stats, &sel(op, v)).unwrap();
        // `> min` and `< max` keep everything by interpolation, yet each
        // drops one of the three values.
        assert!((keeps(PredOp::Gt, 1) - 2.0 / 3.0).abs() < 1e-9);
        assert!((keeps(PredOp::Lt, 3) - 2.0 / 3.0).abs() < 1e-9);
        // Where interpolation is already below the cap it stands.
        assert!((keeps(PredOp::Gt, 2) - 0.5).abs() < 1e-9);
        // Non-strict bounds and bounds outside [min, max] drop nothing
        // that the estimate can know of.
        assert_eq!(keeps(PredOp::Ge, 1), 1.0);
        assert_eq!(keeps(PredOp::Gt, 0), 1.0);
        assert_eq!(keeps(PredOp::Lt, 4), 1.0);
    }

    /// `tickets` of `support` (30, severities 1–3, one customer each),
    /// `customers` of `crm` (200) and `orders` of `billing` (three a
    /// customer), joined on `$i`.
    const THREE_WAY: &str = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders",
                 <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets""#;

    fn three_way_plan(
        wrap: impl Fn(&str, Arc<dyn SourceAdapter>) -> Arc<dyn SourceAdapter>,
        id_type: &str,
        tail: &str,
    ) -> Plan {
        let quote = if id_type == "TEXT" { "'" } else { "" };
        let mut crm = vec![format!("CREATE TABLE customers (id {}, name TEXT)", id_type)];
        let mut billing = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
        let mut support = vec!["CREATE TABLE tickets (cust_id INT, severity INT)".to_string()];
        for i in 0..200 {
            crm.push(format!("INSERT INTO customers VALUES ({q}{i}{q}, 'c{i}')", q = quote));
            for j in 0..3 {
                billing.push(format!("INSERT INTO orders VALUES ({}, {})", 3 * i + j, i));
            }
            if i % 7 == 0 {
                support.push(format!("INSERT INTO tickets VALUES ({}, {})", i, i % 3 + 1));
            }
        }
        let c = Catalog::new();
        for (name, stmts) in [("crm", crm), ("billing", billing), ("support", support)] {
            c.register_source(wrap(name, relational(name, &stmts))).unwrap();
        }
        let q = parse(&format!("{}{} CONSTRUCT <o>$n</o>", THREE_WAY, tail));
        explained(&c, plan_query(&c, &q, &OptimizerConfig::default()).unwrap())
    }

    #[test]
    fn smallest_fragment_binds_its_keys_into_the_others() {
        let plan = three_way_plan(|_, a| a, "INT", ", $sev > 1");
        // 29 tickets, two of three severities kept: the strict bound is
        // worth shipping now.
        assert!(has_note(&plan, "predicate pushed to support"));
        assert!(plan.residual_predicates.is_empty());
        let stage = plan.bind.as_ref().unwrap();
        assert_eq!((stage.driver, stage.var.as_str()), (2, "i"));
        assert_eq!((stage.key_type, stage.est_keys), (AtomicType::Int, 19));
        let targets: Vec<(usize, String)> = stage
            .targets
            .iter()
            .map(|t| (t.atom, t.field.to_string()))
            .collect();
        assert_eq!(targets, [(0, "t.id".to_string()), (1, "t.cust_id".to_string())]);
        assert!(has_note(&plan, "bind $i: support \u{2192} crm, billing (~19 keys)"));
        assert!(has_note(
            &plan,
            "  crm <- SELECT t.id AS i, t.name AS n FROM customers t  [+ t.id IN (keys of $i)]"
        ));
        // The targets are estimated at what the keys leave (`orders` by
        // the 86 distinct customers its 256-row sample saw), and the
        // fold order is over those estimates.
        assert_eq!(plan.est_rows, [19, 133, 19]);
        // The plan's own queries carry no key list: that is run time's.
        for atom in &plan.independents {
            assert!(matches!(atom, AtomExec::Fragment { query, .. } if query.key_sets.is_empty()));
        }
        let record = plan.rewrites.iter().find(|r| r.rule == "bind-join").unwrap();
        assert_eq!(record.before.card_bound, Some(800));
        assert_eq!(record.after.card_bound, Some(152));
        assert_eq!(record.placements.len(), 2);
        assert!(nimble_planck::audit(&plan.rewrites).is_empty());
        assert!(verify_plan(&plan, None).is_ok());
        let mut stray = plan.clone();
        if let Some(stage) = &mut stray.bind {
            stage.targets[1].field = FieldRef::new("t", "oid");
        }
        assert!(matches!(verify_plan(&stray, None), Err(CoreError::PlanVerify(_))));

        // Without pushdown there is nothing to send.
        let c = Catalog::new();
        c.register_source(lookup_sources("INT", 1..=200, 1..=2).0).unwrap();
        c.register_source(lookup_sources("INT", 1..=200, 1..=2).1).unwrap();
        let q = parse(&format!("{} CONSTRUCT <o>$n</o>", LOOKUP));
        assert!(plan_query(&c, &q, &OptimizerConfig::default()).unwrap().bind.is_some());
        let central = OptimizerConfig {
            pushdown: false,
            ..OptimizerConfig::default()
        };
        assert!(plan_query(&c, &q, &central).unwrap().bind.is_none());
    }

    #[test]
    fn bind_stage_is_declined_per_target() {
        // A source that evaluates no selections is sent no keys; the
        // other target still is.
        let plan = three_way_plan(
            |name, a| if name == "billing" { Arc::new(NoSelections(a)) } else { a },
            "INT",
            "",
        );
        let stage = plan.bind.as_ref().unwrap();
        assert_eq!(stage.targets.iter().map(|t| t.atom).collect::<Vec<_>>(), [0]);
        assert!(has_note(&plan, "bind $i not sent to billing: caps"));
        assert!(has_note(&plan, "bind $i: support \u{2192} crm (~29 keys)"));

        // TEXT ids against INT keys: the join equates '7' and 7, a
        // source's IN may not.
        let plan = three_way_plan(|_, a| a, "TEXT", "");
        let stage = plan.bind.as_ref().unwrap();
        assert_eq!(stage.targets.iter().map(|t| t.atom).collect::<Vec<_>>(), [1]);
        assert!(has_note(&plan, "bind $i not sent to crm: type"));

        // One key against one estimated row does not pay for fetching
        // the driver first: both fetches stay in one parallel round.
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, "$i = 7");
        assert!(plan.bind.is_none());
        assert!(has_note(&plan, "bind $i not sent to billing: cost"));
        assert!(plan.rewrites.iter().all(|r| r.rule != "bind-join"));

        // Nor does it against twenty: `$i = 7` went to both fragments,
        // so billing is already asked for that one customer's orders.
        let (crm, _) = lookup_sources("INT", 1..=20, 1..=20);
        let mut orders = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
        orders.extend((0..200).map(|o| format!("INSERT INTO orders VALUES ({}, {})", o, o % 10 + 1)));
        let plan = lookup_plan(crm, relational("billing", &orders), "$i = 7");
        assert_eq!(plan.est_rows, [1, 20]);
        assert!(plan.bind.is_none());
        assert!(has_note(&plan, "bind $i not sent to billing: cost"));
    }

    #[test]
    fn xml_source_is_fetch_match() {
        let c = catalog();
        let q = parse(r#"WHERE <bib><book><title>$t</title></book></bib> IN "bib" CONSTRUCT <o>$t</o>"#);
        let plan = plan_query(&c, &q, &OptimizerConfig::default()).unwrap();
        assert!(matches!(
            plan.independents[0],
            AtomExec::FetchMatch { .. }
        ));
    }

    #[test]
    fn dependent_atoms_separated() {
        let c = catalog();
        let q = parse(
            r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                     <title>$t</title> IN $b
               CONSTRUCT <o>$t</o>"#,
        );
        let plan = plan_query(&c, &q, &OptimizerConfig::default()).unwrap();
        assert_eq!(plan.independents.len(), 1);
        assert_eq!(plan.dependents.len(), 1);
        assert_eq!(plan.dependents[0].on_var, "b");
    }

    #[test]
    fn unknown_collection_errors() {
        let c = catalog();
        let q = parse(r#"WHERE <row><x>$x</x></row> IN "missing" CONSTRUCT <o/>"#);
        assert!(matches!(
            plan_query(&c, &q, &OptimizerConfig::default()),
            Err(CoreError::UnknownCollection(_))
        ));
    }

    #[test]
    fn translate_expr_over_schema() {
        let schema = Schema::new(vec!["x".into(), "y".into()]);
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::Gt,
                Box::new(Expr::Var("y".into())),
                Box::new(Expr::Lit(nimble_xml::Atomic::Int(5))),
            )),
            Box::new(Expr::Call(
                "contains".into(),
                vec![Expr::Var("x".into()), Expr::Lit(nimble_xml::Atomic::Str("a".into()))],
            )),
        );
        let se = translate_expr(&e, &schema).unwrap();
        let funcs = nimble_algebra::FunctionRegistry::with_builtins();
        let t: Tuple = vec![Value::from("cat"), Value::from(10i64)];
        assert!(se.eval_bool(&t, &funcs).unwrap());
        let t: Tuple = vec![Value::from("dog"), Value::from(10i64)];
        assert!(!se.eval_bool(&t, &funcs).unwrap());

        let bad = Expr::Var("zzz".into());
        assert!(translate_expr(&bad, &schema).is_err());
    }
}
