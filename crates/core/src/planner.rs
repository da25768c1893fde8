//! Query decomposition and physical planning.
//!
//! [`plan_query`] turns a checked XML-QL query into a [`Plan`]: the list
//! of per-source execution units (pushed fragments or fetch-and-match
//! atoms), dependent navigation atoms, and the residual predicates the
//! mediator must evaluate itself. The engine then assembles the plan into
//! a tree of `nimble-algebra` physical operators — there is no
//! intermediate logical algebra, matching the paper's §3.1 design
//! decision.
//!
//! The ablation switches of experiment E5 live in
//! [`crate::engine::OptimizerConfig`]: selection/projection pushdown,
//! capability-aware same-source join pushdown, and cardinality-ordered
//! join trees.

use crate::catalog::{Catalog, Resolved};
use crate::compiler;
use crate::engine::OptimizerConfig;
use crate::error::CoreError;
use crate::matcher::{match_within, Bindings};
use nimble_algebra::inspect::{OpInfo, OrderEffect, SchemaRule};
use nimble_algebra::ops::Operator;
use nimble_algebra::{CmpOp, ExecError, LineageMask, ScalarExpr, Schema, Tuple};
use nimble_planck::{Fingerprint, Placement, ProbeFacts, RewriteRecord};
use nimble_sources::query::{FieldRef, PredOp};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::{SourceAdapter, SourceKind, SourceQuery};
use nimble_xml::{Atomic, AtomicType, Value};
use nimble_xmlql::ast::{
    BinOp, Condition, Expr, OrderKey, Pattern, PatternContent, PatternValue, Query, SourceRef, TagPattern,
};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

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
    /// Set when satisfiability analysis proved the WHERE clause can
    /// never hold: the reason string. The engine then executes an
    /// annotated `EmptyOp` over the plan's output schema instead of
    /// contacting any source.
    pub pruned: Option<String>,
    /// Before/after fingerprints of every plan-level rewrite the
    /// optimizer applied (predicate pushdown, fold reordering), audited
    /// by `nimble_planck::audit` together with the engine's
    /// execution-time rewrites.
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
    /// plan without [`Plan::shards`] depends on those values but what
    /// [`bind`] recomputes, so such a plan, cached, serves every value.
    /// (`notes` hold for every value; what EXPLAIN says of the values
    /// is [`value_notes`].)
    pub param_sites: Vec<ParamSite>,
    /// Residual conjuncts a central match checks on each candidate
    /// before matching it ([`Probe`]). They hold for every value of the
    /// query's parameters, so they are cached with the plan.
    pub probes: Vec<Probe>,
    /// Bytes of the last answer [`Engine::query_serialized`] streamed
    /// from this plan; the next serve's writer starts at that size. One
    /// cell per cached shape: [`bind`]'s copies share it.
    ///
    /// [`Engine::query_serialized`]: crate::Engine::query_serialized
    pub answer_bytes: Arc<AtomicUsize>,
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
    /// read as a number (the join compares `"42"` and `" 42 "` as
    /// numbers).
    pub fn admits(&self, key: &Atomic) -> bool {
        key.atomic_type() == self.key_type
            && key.as_str().map_or(true, |s| s.trim().parse::<f64>().is_err())
    }
}

/// Routing decision for one sharded scan: which shards of a partitioned
/// collection the Exchange must contact, and which residual predicates
/// are replicated below it (shard-local filtering; the same predicates
/// stay central, so the rewrite is idempotent).
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
    /// scan) — the engine then skips the Exchange entirely.
    pub survivors: Vec<usize>,
    /// Residual predicates pushed below the Exchange.
    pub pushed: Vec<Expr>,
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
    /// Index into [`Plan::residual_predicates`]. [`bind`] rewrites a
    /// parameter there in place, so a serve reads its own values.
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
    /// hold that unit's value instead. The conjunct then only compares
    /// the variable with literals, and a candidate is pruned only on a
    /// value and literals that are numbers.
    pub joined: bool,
}

impl Probe {
    /// The path and then what is read at its end — `$` for the content,
    /// `@name` for an attribute — as [`var_sites`] spells an occurrence.
    pub fn walk(&self) -> Vec<String> {
        let read = self.attr.as_ref().map_or("$".to_string(), |a| format!("@{}", a));
        self.path.iter().cloned().chain([read]).collect()
    }
}

fn dedup_vars(pattern: &Pattern) -> Vec<String> {
    let mut out = Vec::new();
    for v in pattern.bound_vars() {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Decompose a query against the catalog under the given optimizer
/// configuration (no shard routing — see [`plan_query_sharded`]).
pub fn plan_query(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
) -> Result<Plan, CoreError> {
    plan_query_sharded(catalog, query, config, None)
}

/// [`plan_query`] plus partition-aware routing: when a shard runtime is
/// attached and a scanned collection is declared partitioned, the plan
/// records a [`ShardPlan`] per sharded scan — surviving shards after
/// stats-bounds pruning (planck's satisfiability pass run per shard
/// against the exhaustive per-shard statistics) and equality routing,
/// plus the residual predicates replicated below the Exchange.
pub fn plan_query_sharded(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    shards: Option<&crate::shard::ShardRuntime>,
) -> Result<Plan, CoreError> {
    plan_floored(catalog, query, config, shards, None, None)
}

/// [`plan_query_sharded`] for a correlated subquery, run under each row
/// of `outer`: a variable `outer` binds is a join variable of the plan.
pub(crate) fn plan_subquery(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    shards: Option<&crate::shard::ShardRuntime>,
    outer: &Schema,
) -> Result<Plan, CoreError> {
    plan_floored(catalog, query, config, shards, None, Some(outer))
}

/// [`plan_query`] for a view refresh (DESIGN.md §21): every fragment
/// over one collection carries a row floor, so that its answer comes
/// back stamped with how far into the collection it read. The floor is
/// 0 — the whole collection — except for the collection `delta` names
/// (as `source.collection`), whose fragment is floored at the mark the
/// stored view was built up to: the plan's answer is then what the view
/// gained. Nothing else differs from the query's own plan; the estimates
/// see the floor, so a small delta drives the bind stage.
pub fn plan_refresh(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    shards: Option<&crate::shard::ShardRuntime>,
    delta: Option<(&str, u64)>,
) -> Result<Plan, CoreError> {
    plan_floored(catalog, query, config, shards, Some(delta), None)
}

/// The one planner. `refresh` is `None` for a query and, for a view
/// refresh, what [`plan_refresh`] was given: the collection to floor at
/// its mark, if any (every other one is floored at 0). `outer` is the
/// row schema a correlated subquery runs under.
fn plan_floored(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    shards: Option<&crate::shard::ShardRuntime>,
    refresh: Option<Option<(&str, u64)>>,
    outer: Option<&Schema>,
) -> Result<Plan, CoreError> {
    let mut plan = Plan {
        order_by: query.order_by.clone(),
        ..Plan::default()
    };
    // Beside `plan.residual_predicates` until phase 5: which equality
    // parameter each predicate is, if it is one.
    let mut params: Vec<Option<usize>> = Vec::new();
    let mut next_param = 0..;

    // Phase 1: classify atoms.
    for cond in &query.conditions {
        match cond {
            Condition::Predicate(e) => {
                params.push(e.eq_param().and_then(|_| next_param.next()));
                plan.residual_predicates.push(e.clone());
            }
            Condition::Pattern(pb) => {
                let vars = dedup_vars(&pb.pattern);
                match &pb.source {
                    SourceRef::Var(v) => plan.dependents.push(DependentAtom {
                        on_var: v.clone(),
                        pattern: pb.pattern.clone(),
                        vars,
                    }),
                    SourceRef::Named(name) => match catalog.resolve(name)? {
                        Resolved::View(view) => {
                            plan.independents.push(AtomExec::ViewMatch {
                                view,
                                pattern: pb.pattern.clone(),
                                vars,
                            });
                        }
                        Resolved::Collection { source, collection } => {
                            let adapter = catalog
                                .source(&source)
                                .ok_or_else(|| CoreError::UnknownCollection(name.clone()))?;
                            let caps = adapter.capabilities();
                            let pushed = if config.pushdown {
                                compiler::recognize_row_pattern(&pb.pattern)
                                    .filter(|rp| compiler::pushable(rp, &caps))
                            } else {
                                None
                            };
                            match pushed {
                                Some(rp) => {
                                    let frag = compiler::build_fragment(&collection, "t", &rp);
                                    plan.notes.push(format!(
                                        "pushdown: {} vars to {}.{}",
                                        rp.fields.len(),
                                        source,
                                        collection
                                    ));
                                    plan.independents.push(AtomExec::Fragment {
                                        source,
                                        query: frag,
                                        vars: rp
                                            .fields
                                            .iter()
                                            .map(|(v, _)| v.clone())
                                            .collect(),
                                    });
                                }
                                None => {
                                    plan.notes.push(format!(
                                        "fetch+match: {}.{} (caps {})",
                                        source,
                                        collection,
                                        caps.tag()
                                    ));
                                    plan.independents.push(AtomExec::FetchMatch {
                                        source,
                                        collection,
                                        pattern: pb.pattern.clone(),
                                        vars,
                                    });
                                }
                            }
                        }
                    },
                }
            }
        }
    }

    // Phase 2: push simple predicates into fragments. A variable bound
    // by several fragments is one join-equivalence class, so a selection
    // on it goes to every fragment that binds it (see
    // `place_selection`).
    if config.pushdown {
        let before: Vec<String> = plan
            .residual_predicates
            .iter()
            .map(|p| format!("{:?}", p))
            .collect();
        let mut placements: Vec<Placement> = Vec::new();
        let mut remaining = Vec::new();
        let mut remaining_params = Vec::new();
        for (pred, param) in std::mem::take(&mut plan.residual_predicates)
            .into_iter()
            .zip(std::mem::take(&mut params))
        {
            let placed = place_selection(catalog, &mut plan, &pred, param);
            if placed.is_empty() {
                remaining.push(pred);
                remaining_params.push(param);
            } else {
                placements.extend(placed);
            }
        }
        params = remaining_params;
        // Rewrite record: pushing predicates moves them, never drops
        // them — the distinct predicates the phase started with are
        // exactly those shipped plus those still central, and every
        // copy sits at a fragment that binds its variable.
        if !placements.is_empty() {
            // Pushing a predicate relocates work, never a source: both
            // sides carry the same source-label set for the provenance
            // audit.
            let srcs: Vec<String> = plan
                .independents
                .iter()
                .filter_map(|a| a.source().map(str::to_string))
                .collect();
            plan.rewrites.push(
                RewriteRecord::new(
                    "pushdown",
                    true,
                    Fingerprint::new(Vec::new())
                        .with_extra(before)
                        .with_sources(srcs.clone()),
                    Fingerprint::new(Vec::new())
                        .with_extra(remaining.iter().map(|p| format!("{:?}", p)).collect())
                        .with_sources(srcs),
                )
                .with_placements(placements),
            );
        }
        plan.residual_predicates = remaining;
    }

    // Phase 3: merge same-source fragments into joined fragments when the
    // source can join.
    if config.capability_joins {
        merge_same_source_fragments(catalog, &mut plan);
    }

    // A refresh's row floors go on once the fragments are final and
    // before anything is estimated.
    if let Some(delta) = refresh {
        floor_fragments(catalog, &mut plan, delta);
    }

    // Phase 4: cardinality estimates from collection statistics, the
    // bind stage they justify, and the fold order over what is left to
    // join once the stage has shrunk its targets.
    plan.est_rows = plan
        .independents
        .iter()
        .map(|a| cost::estimate_atom(catalog, a))
        .collect();
    if config.pushdown {
        plan_bind_stage(catalog, &mut plan);
    }
    order_folds_by_cost(catalog, &mut plan);

    // Phase 5: constant-fold the residual predicates and drop the
    // always-true ones. Where the predicates that stayed central sit is
    // now final.
    if config.prune_unsat {
        eliminate_tautologies(&mut plan, &mut params);
    }
    for (index, param) in params.iter().enumerate() {
        if let Some(param) = *param {
            plan.param_sites.push(ParamSite::Residual { param, index });
        }
    }

    // Phase 6: shard routing over partitioned collections. It routes on
    // the values of equality predicates, so it comes before the verdict:
    // a plan it leaves a mark on is a plan for these values only,
    // whatever the verdict on them.
    if let Some(rt) = shards {
        plan_shards(catalog, &mut plan, rt);
    }

    // Phase 7: candidate probes, once the central predicates and the
    // atoms the shard plans route are final.
    plan_probes(&mut plan, outer);

    finish(catalog, &mut plan, config);
    Ok(plan)
}

/// Phase 7 of planning (DESIGN.md §22): record as a [`Probe`] every
/// residual conjunct a central match can check on its candidates, and
/// apply the Filter's default selectivity once per probe to the probed
/// atom's estimate, and once per probed conjunct to the fold's (the
/// Filter's own estimate leaves those conjuncts out). A conjunct
/// qualifies when
///
/// * (a) it mentions exactly one variable and calls no function — a
///   cleaning function may be costly or stateful, and would run again;
/// * (b) if another unit binds that variable too (another atom, or the
///   `outer` row), it only compares it with literals, by `=`, `!=`, `<`,
///   `<=`, `>` or `>=` under `AND`/`OR`/`NOT` — the row a join leaves may
///   hold the other unit's `typed_key`-equal value, and the matcher
///   prunes only where both compare alike ([`Probe::joined`]);
///
/// and no conjunct ahead of it in the Filter can fail: the Filter stops
/// a row at its first false conjunct and raises at its first failing
/// one, so a row the probe removed could have been the row to raise. It
/// is then a probe of every `FetchMatch` or `ViewMatch` atom no shard
/// plan routes that binds the variable
///
/// * (c) once, as a content `$v` or an attribute `a=$v`,
/// * (d) under the candidate at a path of plain element names.
fn plan_probes(plan: &mut Plan, outer: Option<&Schema>) {
    let mut probes = Vec::new();
    for (conjunct, pred) in plan.residual_predicates.iter().enumerate() {
        probes.extend(probes_of(plan, outer, conjunct, pred));
        if may_fail(pred) {
            break;
        }
    }
    let shrink = |rows: u64, probes: usize| match probes {
        0 => rows,
        n => cost::clamp_rows(rows as f64 * cost::DEFAULT_SELECTIVITY.powi(n as i32)),
    };
    for (i, est) in plan.est_rows.iter_mut().enumerate() {
        *est = shrink(*est, probes.iter().filter(|p| p.atom == i).count());
    }
    let mut folded: Vec<usize> = Vec::new();
    for (rows, &i) in plan.fold_rows.iter_mut().zip(&plan.fold_order) {
        for p in probes.iter().filter(|p| p.atom == i) {
            if !folded.contains(&p.conjunct) {
                folded.push(p.conjunct);
            }
        }
        *rows = shrink(*rows, folded.len());
    }
    plan.probes = probes;
}

/// The probes conjunct `conjunct` makes, one per atom that conditions
/// (a)–(d) of [`plan_probes`] admit.
fn probes_of(plan: &Plan, outer: Option<&Schema>, conjunct: usize, pred: &Expr) -> Vec<Probe> {
    let mut vars = pred.vars();
    vars.sort();
    vars.dedup();
    let [var] = vars.as_slice() else {
        return Vec::new();
    };
    if calls(pred) || plan.dependents.iter().any(|d| &d.on_var == var || d.vars.contains(var)) {
        return Vec::new();
    }
    let binders: Vec<usize> = (0..plan.independents.len())
        .filter(|&i| plan.independents[i].vars().contains(var))
        .collect();
    let joined = binders.len() + usize::from(outer.is_some_and(|s| s.index_of(var).is_some())) > 1;
    if joined && !compares_with_literals(pred) {
        return Vec::new();
    }
    binders
        .into_iter()
        .filter_map(|atom| {
            let (AtomExec::FetchMatch { pattern, .. } | AtomExec::ViewMatch { pattern, .. }) = &plan.independents[atom]
            else {
                return None;
            };
            if plan.shards.iter().any(|s| s.atom == atom) {
                return None;
            }
            let [site] = var_sites(pattern, var).try_into().ok()?;
            let (read, steps) = site.split_last()?;
            let attr = match read.as_str() {
                "$" => None,
                read => Some(read.strip_prefix('@')?.to_string()),
            };
            steps.iter().all(|s| plain_step(s)).then(|| Probe {
                atom,
                conjunct,
                var: var.clone(),
                path: steps.to_vec(),
                attr,
                joined,
            })
        })
        .collect()
}

/// Whether `e` is comparisons of a variable with a literal, by `=`, `!=`,
/// `<`, `<=`, `>` or `>=`, under `AND`, `OR` and `NOT`.
fn compares_with_literals(e: &Expr) -> bool {
    match e {
        Expr::Not(e) => compares_with_literals(e),
        Expr::Binary(BinOp::And | BinOp::Or, l, r) => compares_with_literals(l) && compares_with_literals(r),
        Expr::Binary(BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, l, r) => matches!(
            (l.as_ref(), r.as_ref()),
            (Expr::Var(_), Expr::Lit(_)) | (Expr::Lit(_), Expr::Var(_))
        ),
        _ => false,
    }
}

/// Whether evaluating `e` can fail: arithmetic, negation and calls can;
/// comparisons and connectives of variables and literals cannot.
fn may_fail(e: &Expr) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => false,
        Expr::Not(e) => may_fail(e),
        Expr::Binary(op, l, r) => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
                || may_fail(l)
                || may_fail(r)
        }
        Expr::Neg(_) | Expr::Call(..) => true,
    }
}

/// Whether `e` calls a function anywhere.
fn calls(e: &Expr) -> bool {
    match e {
        Expr::Var(_) | Expr::Lit(_) => false,
        Expr::Not(e) | Expr::Neg(e) => calls(e),
        Expr::Binary(_, l, r) => calls(l) || calls(r),
        Expr::Call(..) => true,
    }
}

/// A pattern tag as the query spells it.
fn tag_step(tag: &TagPattern) -> String {
    match tag {
        TagPattern::Name(n) => n.clone(),
        TagPattern::Wildcard => "*".to_string(),
        TagPattern::Descendant(n) => format!("**{}", n),
        TagPattern::ClosurePlus(n) => format!("{}+", n),
    }
}

/// A step [`tag_step`] spelled from a plain element name.
fn plain_step(step: &str) -> bool {
    !step.starts_with('*') && !step.ends_with('+')
}

/// Every place `var` occurs in `pattern`: the steps from the pattern's
/// own element down ([`tag_step`]), then how it binds there — `$` for
/// content, `@name` for an attribute, `ELEMENT_AS` or `CONTENT_AS`.
fn var_sites(pattern: &Pattern, var: &str) -> Vec<Vec<String>> {
    fn walk(p: &Pattern, var: &str, steps: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        let site = |steps: &[String], read: &str| steps.iter().cloned().chain([read.to_string()]).collect();
        for a in &p.attrs {
            if matches!(&a.value, PatternValue::Var(v) if v == var) {
                out.push(site(steps, &format!("@{}", a.name)));
            }
        }
        if p.element_as.as_deref() == Some(var) {
            out.push(site(steps, "ELEMENT_AS"));
        }
        if p.content_as.as_deref() == Some(var) {
            out.push(site(steps, "CONTENT_AS"));
        }
        for c in &p.content {
            match c {
                PatternContent::Var(v) if v == var => out.push(site(steps, "$")),
                PatternContent::Nested(sub) => {
                    steps.push(tag_step(&sub.tag));
                    walk(sub, var, steps, out);
                    steps.pop();
                }
                PatternContent::Var(_) | PatternContent::Lit(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(pattern, var, &mut Vec::new(), &mut out);
    out
}

/// What the plan says about each of its probes, read off its atoms,
/// dependents, predicates and `outer` (the correlated context it runs
/// under), for planck's `candidate-probe` rule.
fn probe_facts(plan: &Plan, outer: Option<&Schema>) -> Vec<ProbeFacts> {
    plan.probes
        .iter()
        .map(|p| {
            let conjunct = plan.residual_predicates.get(p.conjunct);
            let pattern = match plan.independents.get(p.atom) {
                Some(AtomExec::FetchMatch { pattern, .. } | AtomExec::ViewMatch { pattern, .. }) => Some(pattern),
                _ => None,
            };
            ProbeFacts {
                probe: format!("${} (conjunct {}, atom {})", p.var, p.conjunct, p.atom),
                var: p.var.clone(),
                vars: conjunct.map(Expr::vars).unwrap_or_default(),
                calls: conjunct.is_some_and(calls),
                test: conjunct.and_then(|c| probe_test(c, &p.var)),
                joined: p.joined,
                failing_before: plan.residual_predicates.iter().take(p.conjunct).filter(|e| may_fail(e)).count(),
                binders: plan.independents.iter().filter(|a| a.vars().contains(&p.var)).count()
                    + plan
                        .dependents
                        .iter()
                        .filter(|d| d.on_var == p.var || d.vars.contains(&p.var))
                        .count()
                    + usize::from(outer.is_some_and(|s| s.index_of(&p.var).is_some())),
                central: pattern.is_some() && !plan.shards.iter().any(|s| s.atom == p.atom),
                occurrences: pattern.map(|pattern| var_sites(pattern, &p.var)).unwrap_or_default(),
                walk: p.walk(),
            }
        })
        .collect()
}

/// A probe's conjunct as the matcher tests it: over a one-column row
/// holding `var`. `None` when it reads another variable.
pub(crate) fn probe_test(conjunct: &Expr, var: &str) -> Option<ScalarExpr> {
    let column = Schema::try_new(vec![var.to_string()]).ok()?;
    translate_expr(conjunct, &column).ok()
}

/// Give every single-collection fragment its row floor (see
/// [`plan_refresh`]) and record the one that is not 0 as a
/// `delta-refresh` rewrite: a restriction placed at one fragment, under
/// which columns, keys and sources stay and the row bound can only fall.
fn floor_fragments(catalog: &Catalog, plan: &mut Plan, delta: Option<(&str, u64)>) {
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
/// and nothing decides on afterwards: the satisfiability verdict
/// ([`unsat_verdict`]) — a plan whose predicates can never hold executes
/// as an annotated empty relation. It runs when a plan is made and again
/// when a cached one is bound to other values ([`bind`]).
fn finish(catalog: &Catalog, plan: &mut Plan, config: &OptimizerConfig) {
    plan.pruned = if config.prune_unsat {
        unsat_verdict(catalog, plan)
    } else {
        None
    };
}

/// What EXPLAIN says of a plan's parameter values, after [`Plan::notes`]:
/// the verdict, and the exact per-source query text that will be shipped
/// — for relational sources, the generated SQL (the paper's "if an RDB is
/// being queried, then the compiler generates SQL"). Rendered where the
/// EXPLAIN text is assembled, not when a plan is made or bound: a serve
/// nobody reads the plan of renders no SQL text.
pub fn value_notes(catalog: &Catalog, plan: &Plan) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(reason) = &plan.pruned {
        notes.push(format!("pruned: {}", reason));
    }
    for probe in &plan.probes {
        let (Some(pred), Some(atom)) = (
            plan.residual_predicates.get(probe.conjunct),
            plan.independents.get(probe.atom),
        ) else {
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
        if let AtomExec::Fragment { source, query, .. } = atom {
            if catalog
                .source(source)
                .is_some_and(|a| a.kind() == SourceKind::Relational)
            {
                let mut note = format!("  {} <- {}", source, RelationalAdapter::to_sql(query));
                // The key list only exists at run time.
                if let Some((stage, t)) = plan.bind.as_ref().and_then(|b| Some((b, b.target(i)?))) {
                    note.push_str(&format!("  [+ {} IN (keys of ${})]", t.field, stage.var));
                }
                notes.push(note);
            }
        }
    }
    notes
}

/// A cached plan made for other values of its query's equality
/// parameters, bound to `params` ([`Query::eq_params`] of the query
/// being served): the values are written at the plan's
/// [`Plan::param_sites`] and the value-reading tail of planning
/// (the verdict) runs again. The result is the plan
/// [`plan_query_sharded`] makes for the query itself, as long as the
/// cached plan routes no shards (`shards` is empty): every other
/// decision reads an equality literal's type at most (DESIGN.md §12).
///
/// A site that is not there, or holds a value of another type than the
/// one bound — the type is part of the cache key — means the cached plan
/// is not this shape's, and is an error.
pub fn bind(
    catalog: &Catalog,
    cached: &Plan,
    params: &[&Atomic],
    config: &OptimizerConfig,
) -> Result<Plan, CoreError> {
    let mut plan = cached.clone();
    for site in &cached.param_sites {
        let (param, slot) = match *site {
            ParamSite::Selection {
                param,
                atom,
                selection,
            } => {
                let slot = match plan.independents.get_mut(atom) {
                    Some(AtomExec::Fragment { query, .. }) => query
                        .selections
                        .get_mut(selection)
                        .filter(|s| s.op == PredOp::Eq)
                        .map(|s| &mut s.value),
                    _ => None,
                };
                (param, slot)
            }
            ParamSite::Residual { param, index } => (
                param,
                plan.residual_predicates
                    .get_mut(index)
                    .and_then(Expr::eq_param_mut),
            ),
        };
        match (slot, params.get(param)) {
            (Some(slot), Some(value)) if slot.atomic_type() == value.atomic_type() => {
                *slot = (*value).clone();
            }
            _ => {
                return Err(CoreError::Internal(format!(
                    "cached plan does not hold parameter {} at {:?}",
                    param, site
                )))
            }
        }
    }
    finish(catalog, &mut plan, config);
    Ok(plan)
}

/// Why a fragment that binds a selection's variable did not take a copy.
enum Declined {
    /// The source cannot evaluate selections.
    Caps,
    /// The field's declared type (or the first placement's) is outside
    /// the literal's coercion class.
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
    let info = adapter
        .collections()
        .into_iter()
        .find(|c| c.name == coll.collection)?;
    info.fields
        .iter()
        .find(|(name, _)| name == &field.field)
        .map(|(_, ty)| *ty)
}

/// Whether a source comparing a field of type `field` with `lit` agrees
/// with the mediator's join on every pair of join-equal values.
fn in_coercion_class(lit: &Atomic, field: Option<AtomicType>) -> bool {
    use AtomicType::*;
    matches!(
        (lit.atomic_type(), field),
        (Int | Float, Some(Int | Float)) | (Str, Some(Str)) | (Bool, Some(Bool))
    )
}

/// Phase 2 for one predicate: gives `$v op literal` to every fragment
/// that outputs `$v` and returns the copies placed (none when the
/// predicate stays central). `param` says which equality parameter the
/// literal is, if it is one: each copy is then recorded as a
/// [`ParamSite`].
///
/// Each fragment decides for itself: its source must evaluate
/// selections, and a predicate whose estimated selectivity *there* is
/// too weak to shrink the transfer is not shipped (same semantics, one less thing the source has to do). The
/// first fragment to take the predicate takes it unconditionally, as a
/// single placement always has. Further copies are evaluated by other
/// sources on other representations of the joined value, and the
/// mediator's hash join equates across representations (`Int 2` with
/// `Float 2.0`, trimmed numeric text) where a source's `WHERE` may not,
/// so a copy is placed only when both its field and the first
/// placement's are declared in the literal's coercion class.
fn place_selection(
    catalog: &Catalog,
    plan: &mut Plan,
    pred: &Expr,
    param: Option<usize>,
) -> Vec<Placement> {
    let Some((var, _, lit)) = compiler::simple_selection(pred) else {
        return Vec::new();
    };
    let binds = |atom: &AtomExec| {
        matches!(atom, AtomExec::Fragment { query, .. }
            if query.outputs.iter().any(|(v, _)| v == var))
    };
    // Field types are looked up only when there is a copy to guard.
    let shared = plan.independents.iter().filter(|a| binds(a)).count() > 1;
    let mut placed: Vec<Placement> = Vec::new();
    let mut declined: Vec<(&str, Declined)> = Vec::new();
    // Whether the first placement's field admits copies elsewhere.
    let mut first_in_class = false;
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
        let in_class =
            shared && in_coercion_class(lit, field_type(adapter.as_ref(), query, &sel.field));
        let why = if !placed.is_empty() && !(first_in_class && in_class) {
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
        if placed.is_empty() {
            first_in_class = in_class;
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
        });
    }
    for (source, why) in declined {
        let note = match (placed.is_empty(), why) {
            (true, Declined::Cost(s)) => format!(
                "cost: predicate kept central (est selectivity {:.2} at {})",
                s, source
            ),
            // Nothing was shipped, so nothing was replicated either.
            (true, _) => continue,
            (false, why) => format!("predicate not replicated to {}: {}", source, why.tag()),
        };
        plan.notes.push(note);
    }
    placed
}

/// Phase 4, between the estimates and the fold order: choose the bind
/// stage (see [`BindStage`]; the argument and the rules are DESIGN.md
/// §18).
///
/// The driver is the fragment estimated smallest. A single-collection
/// fragment that shares a variable with it is a target when its source
/// evaluates selections, both fields are declared the same key-able
/// type (`Int`, `Str` or `Bool`: the keys are data, and only these
/// spell the same in every source's language), and the estimated
/// distinct keys are at most [`cost::BIND_MAX_KEYS`] and at most
/// 1/[`cost::BIND_MIN_SHRINK`] of the target's estimated rows (and the
/// target is not already pinned to one key by an equality). When the
/// driver shares several variables, the one whose targets save the most
/// estimated rows is bound; a stage binds one variable.
///
/// Lowers the targets' `est_rows` to what the keys are expected to
/// leave, records the stage as a `bind-join` rewrite, and explains each
/// decision in the notes.
fn plan_bind_stage(catalog: &Catalog, plan: &mut Plan) {
    let fragment = |i: usize| match &plan.independents[i] {
        AtomExec::Fragment {
            source,
            query,
            vars,
        } => Some((source, query, vars)),
        _ => None,
    };
    let Some(driver) = (0..plan.independents.len())
        .filter(|&i| fragment(i).is_some())
        .min_by_key(|&i| plan.est_rows[i])
    else {
        return;
    };
    let Some((driver_source, driver_query, driver_vars)) = fragment(driver) else {
        return;
    };
    let Some(driver_adapter) = catalog.source(driver_source) else {
        return;
    };

    /// One variable's candidate stage.
    struct Choice {
        var: String,
        key_type: AtomicType,
        est_keys: u64,
        /// Target, its field, its estimate under the keys.
        targets: Vec<(usize, FieldRef, u64)>,
        declined: Vec<(String, Declined)>,
    }
    let mut best: Option<(u64, Choice)> = None;
    for (var, driver_field) in &driver_query.outputs {
        // The other single-collection fragments that bind the variable.
        let candidates: Vec<(usize, &String, &SourceQuery, &FieldRef)> = (0..plan
            .independents
            .len())
            .filter(|&t| t != driver)
            .filter_map(|t| {
                let (source, query, _) = fragment(t)?;
                let field = query.outputs.iter().find(|(v, _)| v == var).map(|(_, f)| f)?;
                (query.collections.len() == 1).then_some((t, source, query, field))
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let est_keys = cost::var_distinct(catalog, &plan.independents[driver], var)
            .unwrap_or(u64::MAX)
            .min(plan.est_rows[driver]);
        // Looked up for the first candidate that gets as far as needing
        // it: collection metadata is the dear part of this phase.
        let mut driver_type: Option<Option<AtomicType>> = None;
        let mut choice = Choice {
            var: var.clone(),
            key_type: AtomicType::Null,
            est_keys,
            targets: Vec::new(),
            declined: Vec::new(),
        };
        let mut saved = 0u64;
        for (t, source, query, field) in candidates {
            let Some(adapter) = catalog.source(source) else {
                continue;
            };
            let est = plan.est_rows[t];
            let why = if !adapter.capabilities().selections {
                Some(Declined::Caps)
            } else if est_keys > cost::BIND_MAX_KEYS
                || est_keys.saturating_mul(cost::BIND_MIN_SHRINK) > est
                // An equality already pins the target to one value of
                // the key; a list cannot shrink it further, whatever the
                // (independence-assuming) estimate says.
                || query
                    .selections
                    .iter()
                    .any(|s| s.op == PredOp::Eq && &s.field == field)
            {
                Some(Declined::Cost(est_keys as f64 / est.max(1) as f64))
            } else {
                let key_type = *driver_type.get_or_insert_with(|| {
                    field_type(driver_adapter.as_ref(), driver_query, driver_field).filter(|t| {
                        matches!(t, AtomicType::Int | AtomicType::Str | AtomicType::Bool)
                    })
                });
                match key_type {
                    Some(ty) if field_type(adapter.as_ref(), query, field) == Some(ty) => {
                        choice.key_type = ty;
                        None
                    }
                    _ => Some(Declined::Type),
                }
            };
            match why {
                Some(why) => choice.declined.push((source.clone(), why)),
                None => {
                    // Each key finds rows/distinct rows of the target.
                    let distinct = cost::var_distinct(catalog, &plan.independents[t], var)
                        .unwrap_or(est)
                        .max(1);
                    let reduced =
                        cost::clamp_rows(est as f64 * (est_keys as f64 / distinct as f64).min(1.0));
                    saved += est.saturating_sub(reduced);
                    choice.targets.push((t, field.clone(), reduced.min(est)));
                }
            }
        }
        if best.as_ref().map_or(true, |(most, _)| saved > *most) {
            best = Some((saved, choice));
        }
    }
    let Some((_, choice)) = best else {
        return;
    };

    let driver_source = driver_source.clone();
    let mut cols: Vec<String> = driver_vars.clone();
    let mut sources = vec![driver_source.clone()];
    let mut placements: Vec<Placement> = Vec::new();
    let pred = format!("${} in keys({})", choice.var, driver_source);
    let (mut before_rows, mut after_rows) = (0u64, 0u64);
    for (t, _, reduced) in &choice.targets {
        if let Some((source, _, vars)) = fragment(*t) {
            cols.extend(vars.iter().cloned());
            sources.push(source.clone());
            placements.push(Placement {
                pred: pred.clone(),
                var: choice.var.clone(),
                source: source.clone(),
                outputs: vars.clone(),
            });
        }
        before_rows = before_rows.saturating_add(plan.est_rows[*t]);
        after_rows = after_rows.saturating_add(*reduced);
    }
    for (source, why) in &choice.declined {
        plan.notes.push(format!(
            "bind ${} not sent to {}: {}",
            choice.var,
            source,
            why.tag()
        ));
    }
    if choice.targets.is_empty() {
        return;
    }
    plan.notes.push(format!(
        "bind ${}: {} \u{2192} {} (~{} keys)",
        choice.var,
        driver_source,
        sources[1..].join(", "),
        choice.est_keys
    ));
    // Rewrite record: the central join already restricts every target
    // to the driver's keys, and still does; the stage only ships copies
    // of that restriction to fragments that bind the variable, so the
    // columns, the key, the sources and the restriction all stay and the
    // row bound can only fall.
    let fingerprint = |rows: u64| {
        Fingerprint::new(cols.clone())
            .with_keys(vec![choice.var.clone()])
            .with_extra(vec![pred.clone()])
            .with_sources(sources.clone())
            .with_card_bound(rows)
    };
    plan.rewrites.push(
        RewriteRecord::new("bind-join", true, fingerprint(before_rows), fingerprint(after_rows))
            .with_placements(placements),
    );
    let mut targets = Vec::with_capacity(choice.targets.len());
    for (t, field, reduced) in choice.targets {
        plan.est_rows[t] = reduced;
        targets.push(BindTarget { atom: t, field });
    }
    plan.bind = Some(BindStage {
        driver,
        var: choice.var,
        key_type: choice.key_type,
        est_keys: choice.est_keys,
        targets,
    });
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

/// Phase 5 of planning: a residual predicate that is a tautology by
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

/// The satisfiability verdict on a decomposed plan (pass 2 of
/// `nimble-planck`'s semantic analyzer): why its WHERE clause can never
/// hold, if it cannot. Reads the plan and the statistics, changes
/// neither — it is asked again each time a cached plan is bound to other
/// parameter values ([`finish`]).
///
/// * The conjunction of the residual predicates is interval-checked; a
///   contradiction (`$x > 5 AND $x < 3`) is a verdict.
/// * Each pushed fragment's selection set is interval-checked the same
///   way, cross-referenced against exhaustive-sample min/max bounds
///   from the statistics catalog. Every mediator-side fold is an inner
///   join, so one statically-empty unit empties the whole result.
pub fn unsat_verdict(catalog: &Catalog, plan: &Plan) -> Option<String> {
    use nimble_planck::satisfy::{self, Verdict};

    if !plan.residual_predicates.is_empty() {
        let schema = bound_schema(plan)?;
        let conjuncts: Vec<ScalarExpr> = plan
            .residual_predicates
            .iter()
            .filter_map(|pred| translate_expr(pred, &schema).ok())
            .collect();
        let bounds = |col: usize| -> Option<(f64, f64)> {
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

    for atom in &plan.independents {
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
            .filter_map(|sel| {
                let idx = cols.iter().position(|f| *f == &sel.field)?;
                Some(ScalarExpr::Cmp(
                    cmp_of(sel.op),
                    Box::new(ScalarExpr::Col(idx)),
                    Box::new(ScalarExpr::Lit(Value::Atomic(sel.value.clone()))),
                ))
            })
            .collect();
        let bounds = |col: usize| -> Option<(f64, f64)> {
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

/// Phase 6 of planning: partition-aware shard routing.
///
/// For every independent FetchMatch atom over a collection the shard
/// runtime declares partitioned, decide which shards the Exchange must
/// contact:
///
/// * **Bounds pruning** — re-run planck's satisfiability pass once per
///   shard, with the bounds callback answering from the *per-shard*
///   statistics entries (`shard:{k}:{source.collection}`, sampled
///   exhaustively at partition time, so min/max are exact). A shard
///   whose bounds contradict the pushed predicate interval can prove no
///   rows and is dropped.
/// * **Equality routing** — a pushed `$key = literal` predicate on the
///   shard-key variable routes to exactly `shard_of(literal)` under
///   both hash and range schemes.
///
/// Predicates fully covered by the atom's variables are replicated
/// below the Exchange (shard-local filtering) *and* kept central —
/// filters are idempotent, so correctness never depends on the copy.
/// Both decisions are audited: `shard-prune` is a narrowing rewrite
/// (payload/sources may shrink to the survivor set), `exchange-pushdown`
/// a strict substitution.
fn plan_shards(catalog: &Catalog, plan: &mut Plan, rt: &crate::shard::ShardRuntime) {
    use nimble_planck::satisfy::{self, Verdict};
    use nimble_store::shard::shard_stats_key;

    for i in 0..plan.independents.len() {
        let AtomExec::FetchMatch {
            source,
            collection,
            pattern,
            vars,
        } = &plan.independents[i]
        else {
            continue;
        };
        let coll_key = format!("{}.{}", source, collection);
        let Some(part) = rt.partition(&coll_key) else {
            continue;
        };
        // Row-level gate: the pattern must address row elements (by
        // name), not the collection root or arbitrary wildcards — only
        // then does matching each shard slice independently reproduce
        // the unsharded match set.
        let routable = match &pattern.tag {
            TagPattern::Name(n) | TagPattern::Descendant(n) => n != &part.root_name,
            _ => false,
        };
        if !routable {
            plan.notes.push(format!(
                "shard: {} pattern not row-routable, scanning unsharded",
                coll_key
            ));
            continue;
        }
        let source = source.clone();
        let vars = vars.clone();
        let spec = part.spec.clone();
        let shard_rows: Vec<u64> = part.rows.clone();
        let n = spec.shards();
        let rp = compiler::recognize_row_pattern(pattern);
        let key_var = rp.as_ref().and_then(|rp| {
            rp.fields
                .iter()
                .find(|(_, f)| f == &spec.key)
                .map(|(v, _)| v.clone())
        });

        // Residual predicates this atom can evaluate alone.
        let pushed: Vec<Expr> = plan
            .residual_predicates
            .iter()
            .filter(|p| {
                let pv = p.vars();
                !pv.is_empty() && pv.iter().all(|v| vars.contains(v))
            })
            .cloned()
            .collect();

        // Per-shard satisfiability of the pushed conjunction.
        let schema = Schema::try_new(vars.clone()).ok();
        let conjuncts: Vec<ScalarExpr> = match &schema {
            Some(s) => pushed
                .iter()
                .filter_map(|p| translate_expr(p, s).ok())
                .collect(),
            None => Vec::new(),
        };
        // `$key = literal` routes to one shard under any scheme.
        let mut eq_routes: Vec<usize> = Vec::new();
        if let Some(kv) = &key_var {
            for p in &pushed {
                if let Expr::Binary(BinOp::Eq, l, r) = p {
                    let lit = match (l.as_ref(), r.as_ref()) {
                        (Expr::Var(v), Expr::Lit(a)) if v == kv => Some(a),
                        (Expr::Lit(a), Expr::Var(v)) if v == kv => Some(a),
                        _ => None,
                    };
                    if let Some(a) = lit {
                        let route = spec.shard_of(a);
                        if !eq_routes.contains(&route) {
                            eq_routes.push(route);
                        }
                    }
                }
            }
        }

        let mut survivors: Vec<usize> = Vec::new();
        for k in 0..n {
            // Two distinct equality routes contradict each other; a
            // single route admits only its own shard.
            if eq_routes.len() > 1 || (eq_routes.len() == 1 && eq_routes[0] != k) {
                continue;
            }
            let alive = if conjuncts.is_empty() {
                true
            } else {
                let stats_key = shard_stats_key(k, &coll_key);
                let bounds = |col: usize| -> Option<(f64, f64)> {
                    let v = schema.as_ref()?.vars().get(col)?;
                    let field = rp
                        .as_ref()?
                        .fields
                        .iter()
                        .find(|(var, _)| var == v)
                        .map(|(_, f)| f.clone())?;
                    catalog.stats().exact_bounds(&stats_key, &field)
                };
                satisfy::analyze(&ScalarExpr::conjunction(conjuncts.clone()), &bounds)
                    != Verdict::Unsatisfiable
            };
            if alive {
                survivors.push(k);
            }
        }

        let shard_label = |k: usize| format!("{}#shard{}", source, k);
        if survivors.len() < n {
            let before_rows: u64 = shard_rows.iter().sum();
            let after_rows: u64 = survivors.iter().map(|&k| shard_rows[k]).sum();
            plan.notes.push(format!(
                "shard: {} pruned to {}/{} shards ({} of {} rows)",
                coll_key,
                survivors.len(),
                n,
                after_rows,
                before_rows
            ));
            plan.rewrites.push(RewriteRecord::new(
                "shard-prune",
                false,
                Fingerprint::new(vars.clone())
                    .with_extra((0..n).map(|k| format!("shard:{}", k)).collect())
                    .with_sources((0..n).map(shard_label).collect())
                    .with_card_bound(before_rows),
                Fingerprint::new(vars.clone())
                    .with_extra(survivors.iter().map(|k| format!("shard:{}", k)).collect())
                    .with_sources(survivors.iter().copied().map(shard_label).collect())
                    .with_card_bound(after_rows),
            ));
            // Tighten the scan's row estimate to the surviving slices.
            if let Some(est) = plan.est_rows.get_mut(i) {
                *est = (*est).min(after_rows.max(1));
            }
        } else {
            plan.notes.push(format!(
                "shard: {} fanned out to {} shards",
                coll_key, n
            ));
        }
        if !pushed.is_empty() && !survivors.is_empty() {
            let rendered: Vec<String> = pushed.iter().map(|p| format!("{:?}", p)).collect();
            let srcs: Vec<String> = survivors.iter().copied().map(shard_label).collect();
            plan.rewrites.push(RewriteRecord::new(
                "exchange-pushdown",
                true,
                Fingerprint::new(vars.clone())
                    .with_extra(rendered.clone())
                    .with_sources(srcs.clone()),
                Fingerprint::new(vars.clone())
                    .with_extra(rendered)
                    .with_sources(srcs),
            ));
        }
        plan.shards.push(ShardPlan {
            atom: i,
            collection: coll_key,
            key_field: spec.key.clone(),
            key_var,
            shards: n,
            survivors,
            pushed,
        });
    }
}

/// Exact (exhaustive-sample) min/max bounds for the collection field a
/// variable is bound to, when any independent unit maps it to one. A
/// join variable equates its occurrences, so bounds from any one side
/// constrain the joined value.
fn var_exact_bounds(
    catalog: &Catalog,
    independents: &[AtomExec],
    var: &str,
) -> Option<(f64, f64)> {
    for atom in independents {
        let found = match atom {
            AtomExec::Fragment { source, query, .. } => query
                .outputs
                .iter()
                .find(|(v, _)| v == var)
                .and_then(|(_, f)| {
                    let coll = query.collections.iter().find(|c| c.alias == f.alias)?;
                    catalog
                        .stats()
                        .exact_bounds(&format!("{}.{}", source, coll.collection), &f.field)
                }),
            AtomExec::FetchMatch {
                source,
                collection,
                pattern,
                ..
            } => compiler::recognize_row_pattern(pattern).and_then(|rp| {
                let field = rp.fields.iter().find(|(v, _)| v == var).map(|(_, f)| f)?;
                catalog
                    .stats()
                    .exact_bounds(&format!("{}.{}", source, collection), field)
            }),
            AtomExec::ViewMatch { .. } => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Physical comparison operator for a pushed-selection predicate.
fn cmp_of(op: PredOp) -> CmpOp {
    match op {
        PredOp::Eq => CmpOp::Eq,
        PredOp::Ne => CmpOp::Ne,
        PredOp::Lt => CmpOp::Lt,
        PredOp::Le => CmpOp::Le,
        PredOp::Gt => CmpOp::Gt,
        PredOp::Ge => CmpOp::Ge,
        PredOp::Like => CmpOp::Like,
    }
}

/// Cardinality estimation from the catalog's [`nimble_store::StatsCatalog`].
///
/// All estimates are advisory: a missing statistic falls back to a
/// neutral default rather than blocking planning, and the engine's
/// runtime feedback (`StatsCatalog::observe_rows`) corrects row counts
/// the next time the query is planned.
pub mod cost {
    use super::*;
    use nimble_sources::query::{PredOp, Selection};
    use nimble_store::stats::CollectionStats;

    /// Assumed rows for a collection with no statistics at all.
    pub const DEFAULT_ROWS: u64 = 1000;
    /// Assumed fraction kept by a selection we cannot estimate.
    pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
    /// A predicate estimated to keep at least this fraction of rows is
    /// left for central (mediator-side) evaluation instead of being
    /// shipped: it barely shrinks the transfer, so the source round-trip
    /// does the same work either way.
    pub const CENTRAL_RESIDUAL_THRESHOLD: f64 = 0.9;
    /// Longest key list the bind stage ships. The list travels inside
    /// the target's query text, and the driver's round trip is serial:
    /// past about a thousand keys the text costs the target what the
    /// rows it spares would have.
    pub const BIND_MAX_KEYS: u64 = 1024;
    /// The bind stage is planned for a target only when the keys are
    /// estimated at most this fraction (1/N) of the target's rows: the
    /// transfer saved has to pay for fetching the driver before, instead
    /// of beside, the targets.
    pub const BIND_MIN_SHRINK: u64 = 4;

    /// Estimated fraction of rows a selection keeps, from field stats.
    /// `None` when the statistics cannot say anything useful.
    pub fn selection_selectivity(stats: &CollectionStats, sel: &Selection) -> Option<f64> {
        let col = stats.columns.get(&sel.field.field)?;
        let distinct = col.distinct.max(1) as f64;
        match sel.op {
            PredOp::Eq => Some(1.0 / distinct),
            PredOp::Ne => Some(1.0 - 1.0 / distinct),
            PredOp::Lt | PredOp::Le | PredOp::Gt | PredOp::Ge => {
                let (min, max) = (col.min?, col.max?);
                let v = sel.value.as_f64()?;
                if max <= min {
                    return Some(0.5);
                }
                let below = ((v - min) / (max - min)).clamp(0.0, 1.0);
                let kept = match sel.op {
                    PredOp::Lt | PredOp::Le => below,
                    _ => 1.0 - below,
                };
                // The interpolation takes the column for continuous. A
                // strict bound at a value inside [min, max] drops that
                // value's rows at the least: one distinct value's share.
                let strict = matches!(sel.op, PredOp::Lt | PredOp::Gt);
                Some(if strict && (min..=max).contains(&v) {
                    kept.min(1.0 - 1.0 / distinct)
                } else {
                    kept
                })
            }
            PredOp::Like => Some(0.25),
        }
    }

    /// Statistics for the collection behind `alias` in a fragment.
    fn alias_stats(
        catalog: &Catalog,
        source: &str,
        query: &SourceQuery,
        alias: &str,
    ) -> Option<CollectionStats> {
        let coll = query.collections.iter().find(|c| c.alias == alias)?;
        catalog.stats().get(&format!("{}.{}", source, coll.collection))
    }

    /// Selectivity of one pushed selection inside a fragment, if stats
    /// exist for its collection and field.
    pub fn fragment_selection_selectivity(
        catalog: &Catalog,
        source: &str,
        query: &SourceQuery,
        sel: &Selection,
    ) -> Option<f64> {
        selection_selectivity(&alias_stats(catalog, source, query, &sel.field.alias)?, sel)
    }

    /// Estimated output rows of a (possibly multi-collection) fragment:
    /// per-collection rows reduced by pushed selections, divided by the
    /// dominant distinct count of each pushed join condition.
    pub fn estimate_fragment(catalog: &Catalog, source: &str, query: &SourceQuery) -> u64 {
        let mut per_alias: Vec<(String, f64, Option<CollectionStats>)> = Vec::new();
        // A row floor leaves what lies past it.
        let floor = query.row_floor().unwrap_or(0);
        for c in &query.collections {
            let stats = catalog.stats().get(&format!("{}.{}", source, c.collection));
            let rows = stats.as_ref().map(|s| s.rows).unwrap_or(DEFAULT_ROWS).saturating_sub(floor) as f64;
            per_alias.push((c.alias.clone(), rows.max(1.0), stats));
        }
        let mut out = 1.0f64;
        for (alias, rows, stats) in &per_alias {
            let mut r = *rows;
            for sel in query.selections.iter().filter(|s| &s.field.alias == alias) {
                let s = stats
                    .as_ref()
                    .and_then(|st| selection_selectivity(st, sel))
                    .unwrap_or(DEFAULT_SELECTIVITY);
                r *= s;
            }
            out *= r.max(1.0);
        }
        for (a, b) in &query.join_conds {
            let d = field_distinct(&per_alias, a).max(field_distinct(&per_alias, b));
            out /= d.max(1.0);
        }
        clamp_rows(out)
    }

    fn field_distinct(
        per_alias: &[(String, f64, Option<CollectionStats>)],
        f: &nimble_sources::query::FieldRef,
    ) -> f64 {
        per_alias
            .iter()
            .find(|(alias, ..)| alias == &f.alias)
            .map(|(_, rows, stats)| {
                stats
                    .as_ref()
                    .and_then(|s| s.distinct(&f.field))
                    .map(|d| d as f64)
                    .unwrap_or(*rows)
            })
            .unwrap_or(1.0)
    }

    /// Estimated output rows of one independent execution unit.
    pub fn estimate_atom(catalog: &Catalog, atom: &AtomExec) -> u64 {
        match atom {
            AtomExec::Fragment { source, query, .. } => {
                estimate_fragment(catalog, source, query)
            }
            AtomExec::FetchMatch {
                source, collection, ..
            } => catalog
                .stats()
                .rows(&format!("{}.{}", source, collection))
                .unwrap_or(DEFAULT_ROWS)
                .max(1),
            AtomExec::ViewMatch { view, .. } => catalog
                .stats()
                .rows(&format!("view:{}", view))
                .unwrap_or(DEFAULT_ROWS)
                .max(1),
        }
    }

    /// Estimated distinct values a unit's variable takes, when the
    /// variable maps to a field with statistics.
    pub fn var_distinct(catalog: &Catalog, atom: &AtomExec, var: &str) -> Option<u64> {
        match atom {
            AtomExec::Fragment { source, query, .. } => {
                let field = query
                    .outputs
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, f)| f.clone())?;
                alias_stats(catalog, source, query, &field.alias)?.distinct(&field.field)
            }
            AtomExec::FetchMatch {
                source,
                collection,
                pattern,
                ..
            } => {
                let rp = compiler::recognize_row_pattern(pattern)?;
                let field = rp
                    .fields
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, f)| f.clone())?;
                catalog
                    .stats()
                    .get(&format!("{}.{}", source, collection))?
                    .distinct(&field)
            }
            AtomExec::ViewMatch { .. } => None,
        }
    }

    pub(super) fn clamp_rows(est: f64) -> u64 {
        if est.is_finite() && est > 0.0 {
            (est.round() as u64).max(1)
        } else {
            1
        }
    }
}

/// Greedy cost-based fold ordering: start from the unit with the
/// smallest estimated output and repeatedly fold in the unit that keeps
/// the estimated intermediate result smallest, preferring units that
/// share a join variable with the accumulated set over cross products.
/// Reads `plan.est_rows`; fills `plan.fold_order` and `plan.fold_rows`.
fn order_folds_by_cost(catalog: &Catalog, plan: &mut Plan) {
    let n = plan.independents.len();
    let est = plan.est_rows.clone();
    if n == 0 {
        return;
    }

    let mut used = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut fold_rows: Vec<u64> = Vec::with_capacity(n);

    let mut first = 0usize;
    for (i, &e) in est.iter().enumerate() {
        if e < est[first] {
            first = i;
        }
    }
    used[first] = true;
    order.push(first);
    fold_rows.push(est[first]);
    let mut rows: u128 = u128::from(est[first].max(1));

    // Distinct-value estimate per bound variable in the accumulated set;
    // joining shrinks it (min of the two sides, capped by the rows).
    let mut bound_distinct: std::collections::BTreeMap<String, u128> = std::collections::BTreeMap::new();
    let note_atom_vars = |map: &mut std::collections::BTreeMap<String, u128>,
                          catalog: &Catalog,
                          atom: &AtomExec,
                          atom_rows: u128,
                          rows_now: u128| {
        for v in atom.vars() {
            let d = cost::var_distinct(catalog, atom, v)
                .map(u128::from)
                .unwrap_or(atom_rows)
                .min(rows_now)
                .max(1);
            map.entry(v.clone())
                .and_modify(|cur| *cur = (*cur).min(d))
                .or_insert(d);
        }
    };
    note_atom_vars(
        &mut bound_distinct,
        catalog,
        &plan.independents[first],
        rows,
        rows,
    );

    while order.len() < n {
        // (shares a var, estimated joined rows, index) — prefer sharing,
        // then the smallest intermediate, then stable index order.
        let mut best: Option<(bool, u128, usize)> = None;
        for (j, atom) in plan.independents.iter().enumerate() {
            if used[j] {
                continue;
            }
            let atom_rows = u128::from(est[j].max(1));
            let mut denom: u128 = 1;
            let mut shares = false;
            for v in atom.vars() {
                if let Some(&da) = bound_distinct.get(v) {
                    shares = true;
                    // No more distinct values than rows: a unit that
                    // selections or the bind stage shrank binds fewer
                    // values than its collection holds.
                    let dj = cost::var_distinct(catalog, atom, v)
                        .map(u128::from)
                        .unwrap_or(atom_rows)
                        .min(atom_rows)
                        .max(1);
                    denom = denom.saturating_mul(da.max(dj));
                }
            }
            let joined = (rows.saturating_mul(atom_rows) / denom.max(1)).max(1);
            let candidate = (shares, joined, j);
            let better = match best {
                None => true,
                Some((bshares, bjoined, _)) => {
                    (shares && !bshares) || (shares == bshares && joined < bjoined)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        let Some((_, joined, j)) = best else { break };
        used[j] = true;
        order.push(j);
        fold_rows.push(u64::try_from(joined).unwrap_or(u64::MAX));
        rows = joined;
        let atom_rows = u128::from(est[j].max(1));
        note_atom_vars(&mut bound_distinct, catalog, &plan.independents[j], atom_rows, rows);
    }

    if n > 1 {
        plan.notes.push(format!(
            "cost: fold order {:?}, est rows {:?} -> {:?}",
            order, est, fold_rows
        ));
        // Rewrite record: reordering folds permutes the units but must
        // keep the bound-variable multiset and the join-key set intact.
        let before_cols: Vec<String> = plan
            .independents
            .iter()
            .flat_map(|a| a.vars().iter().cloned())
            .collect();
        let after_cols: Vec<String> = order
            .iter()
            .filter_map(|&i| plan.independents.get(i))
            .flat_map(|a| a.vars().iter().cloned())
            .collect();
        let mut keys: Vec<String> = Vec::new();
        for (i, a) in plan.independents.iter().enumerate() {
            for v in a.vars() {
                let shared = plan
                    .independents
                    .iter()
                    .enumerate()
                    .any(|(j, b)| j != i && b.vars().contains(v));
                if shared && !keys.contains(v) {
                    keys.push(v.clone());
                }
            }
        }
        // Reordering folds permutes the fetch sequence; the set of
        // sources answers draw from must survive exactly.
        let before_srcs: Vec<String> = plan
            .independents
            .iter()
            .filter_map(|a| a.source().map(str::to_string))
            .collect();
        let after_srcs: Vec<String> = order
            .iter()
            .filter_map(|&i| plan.independents.get(i))
            .filter_map(|a| a.source().map(str::to_string))
            .collect();
        plan.rewrites.push(RewriteRecord::new(
            "fold-reorder",
            false,
            Fingerprint::new(before_cols)
                .with_keys(keys.clone())
                .with_sources(before_srcs),
            Fingerprint::new(after_cols)
                .with_keys(keys)
                .with_sources(after_srcs),
        ));
    }
    plan.fold_order = order;
    plan.fold_rows = fold_rows;
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
    for (source, frags) in by_source {
        if frags.len() >= 2 {
            let queries: Vec<SourceQuery> = frags.iter().map(|(_, q, _)| q.clone()).collect();
            if let Some(joined) = compiler::merge_fragments(&queries) {
                // The joined fragment lists its parts' selections part
                // by part, in order.
                let mut before = 0;
                for (old, query, _) in &frags {
                    moved[*old] = (merged.len(), before);
                    before += query.selections.len();
                }
                let vars: Vec<String> = joined.outputs.iter().map(|(v, _)| v.clone()).collect();
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

/// Physical operator for dependent atoms: for each input tuple, match a
/// pattern inside the element bound to `on_var`, emitting one extended
/// tuple per match. Variables already present in the input schema act as
/// join constraints instead of new columns.
pub struct BindPatternOp {
    child: Box<dyn Operator>,
    on_col: usize,
    pattern: Pattern,
    /// New variables appended to the schema, in order.
    new_vars: Vec<String>,
    /// Variables shared with the input schema: (name, input column).
    shared: Vec<(String, usize)>,
    schema: Schema,
    pending: Vec<Tuple>,
    cursor: usize,
    rows_out: u64,
    /// Lineage of emitted tuples (tracking iff the child tracks); every
    /// row expanded from one input tuple inherits that tuple's mask —
    /// navigation stays inside the element the source already supplied.
    lin: Option<Vec<LineageMask>>,
    /// Mask of the input tuple currently being expanded.
    pending_mask: LineageMask,
    /// Child emissions consumed so far.
    consumed: usize,
}

impl BindPatternOp {
    pub fn new(child: Box<dyn Operator>, on_var: &str, pattern: Pattern) -> Result<Self, CoreError> {
        let on_col = child.schema().index_of(on_var).ok_or_else(|| {
            CoreError::Exec(format!(
                "navigation variable ${} not bound before use",
                on_var
            ))
        })?;
        let mut new_vars = Vec::new();
        let mut shared = Vec::new();
        for v in dedup_vars(&pattern) {
            match child.schema().index_of(&v) {
                Some(idx) => shared.push((v, idx)),
                None => new_vars.push(v),
            }
        }
        let mut schema = child.schema().clone();
        for v in &new_vars {
            schema = schema.with(v);
        }
        Ok(BindPatternOp {
            child,
            on_col,
            pattern,
            new_vars,
            shared,
            schema,
            pending: Vec::new(),
            cursor: 0,
            rows_out: 0,
            lin: None,
            pending_mask: LineageMask::EMPTY,
            consumed: 0,
        })
    }

    fn expand(&self, tuple: &Tuple) -> Vec<Tuple> {
        let node = match &tuple[self.on_col] {
            Value::Node(n) => n.clone(),
            _ => return Vec::new(),
        };
        let matches: Vec<Bindings> = match_within(&node, &self.pattern);
        let mut out = Vec::new();
        'matches: for mut m in matches {
            for (var, idx) in &self.shared {
                match m.get(var) {
                    Some(v) if v.key_eq(&tuple[*idx]) => {}
                    _ => continue 'matches,
                }
            }
            let mut t = tuple.clone();
            // `new_vars` are distinct: each value moves out of the match.
            for var in &self.new_vars {
                t.push(m.remove(var).unwrap_or_else(Value::null));
            }
            out.push(t);
        }
        out
    }
}

impl Operator for BindPatternOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.pending.clear();
        self.cursor = 0;
        self.consumed = 0;
        self.pending_mask = LineageMask::EMPTY;
        self.child.open()?;
        self.lin = self.child.lineage().map(|_| Vec::new());
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        loop {
            if self.cursor < self.pending.len() {
                let t = self.pending[self.cursor].clone();
                self.cursor += 1;
                if let Some(lin) = &mut self.lin {
                    lin.push(self.pending_mask);
                }
                self.rows_out += 1;
                return Ok(Some(t));
            }
            match self.child.next()? {
                None => return Ok(None),
                Some(t) => {
                    if self.lin.is_some() {
                        let idx = self.consumed;
                        self.pending_mask = self
                            .child
                            .lineage()
                            .and_then(|l| l.get(idx))
                            .copied()
                            .unwrap_or_default();
                    }
                    self.consumed += 1;
                    self.pending = self.expand(&t);
                    self.cursor = 0;
                }
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
        self.pending.clear();
    }

    fn describe(&self) -> String {
        format!(
            "BindPattern in ${} -> [{}]",
            self.schema.vars()[self.on_col],
            self.new_vars.join(", ")
        )
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::new("BindPattern", SchemaRule::Extends(0))
            .with_order(OrderEffect::Preserves(0))
            .with_child_col(0, "bind-pattern input", self.on_col)
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        self.lin.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                        sel.op.sql(),
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
        // 7, a source comparing text with a number may not.
        let (crm, billing) = lookup_sources("TEXT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, "$i = 7");
        assert_eq!(shipped(&plan), ["crm: t.id = 7"]);
        assert!(plan.residual_predicates.is_empty());
        assert!(has_note(&plan, "predicate not replicated to billing: type"));

        // A literal outside both fields' class is not replicated either.
        let (crm, billing) = lookup_sources("INT", 1..=20, 1..=20);
        let plan = lookup_plan(crm, billing, r#"$i = "7""#);
        assert_eq!(shipped(&plan), ["crm: t.id = 7"]);
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
            (&c, r#"WHERE <row><id>$i</id><name>$n</name></row> IN "erp.customers", $n = "K" CONSTRUCT <o>$i</o>"#.into(), 1),
        ];
        let config = OptimizerConfig::default();
        for (catalog, template, sites) in cases {
            let at = |k: &str, l: &str| parse(&template.replace('K', k).replace('L', l));
            let (first, second) = (at("1", "1"), at("7", "8"));
            let cached = plan_query(catalog, &first, &config).unwrap();
            assert_eq!(cached.param_sites.len(), sites, "{}\n{:?}", template, cached);
            let fresh = plan_query(catalog, &second, &config).unwrap();
            let bound = bind(catalog, &cached, &second.eq_params(), &config).unwrap();
            // The rewrite records quote the predicates of the text that
            // was planned; everything else is the fresh plan's.
            let strip = |mut p: Plan| {
                p.rewrites.clear();
                format!("{:?}", p)
            };
            assert_eq!(strip(bound), strip(fresh.clone()), "{}", template);
            // Bound back, it is the plan it was cloned from.
            let back = bind(catalog, &fresh, &first.eq_params(), &config).unwrap();
            assert_eq!(format!("{:?}", back.notes), format!("{:?}", cached.notes), "{}", template);
            assert_eq!(back.pruned, cached.pruned, "{}", template);
        }

        // A plan bound to a parameter list that is not its shape's is
        // refused, not half-written.
        let q = parse(r#"WHERE <row><id>$i</id></row> IN "erp.customers", $i = 1 CONSTRUCT <o>$i</o>"#);
        let plan = plan_query(&c, &q, &config).unwrap();
        assert_eq!(plan.param_sites.len(), 1);
        assert!(matches!(bind(&c, &plan, &[], &config), Err(CoreError::Internal(_))));
        let text = Atomic::Str("1".into());
        assert!(matches!(bind(&c, &plan, &[&text], &config), Err(CoreError::Internal(_))));
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
