//! The operator tree assembled over the fetched units, and driven.

use super::*;
use std::fmt::Write;

impl Engine {
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
    pub(super) fn eval_planned(
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
        if let Some(reason) = bound.verdict(&self.catalog, &ctx.scope.config.optimizer) {
            return self.eval_pruned(bound, &reason, outer, ctx);
        }
        let units = self.fetch_units(bound, outer, observed, ctx)?;
        let tree = self.assemble(bound, units)?;
        self.drive(bound, tree, None, planck_verify, ctx)
    }

    /// Score the planner's per-unit cardinality estimates against the
    /// rows each unit actually shipped (`units`, in atom order). This
    /// runs on every serve, streamed or not — the scan layer is where
    /// estimates are cheapest to check — and a gross miss on a filtered
    /// fragment feeds the observed count back into the statistics
    /// catalog as a sound lower bound on the collection's cardinality.
    pub(super) fn score_scans(&self, plan: &Plan, units: &[Input], found: &mut Found) {
        let scored = plan.independents.iter().zip(&plan.est_rows).zip(units);
        for (i, ((atom, &est), unit)) in scored.enumerate() {
            let act = unit.tuples.len() as u64;
            let q = qerror(est, act);
            self.serve_metrics.observe(Hist::ScanQerror, centi_q(q));
            found.qerror(q, "Scan");
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
    pub(super) fn assemble(&self, bound: Bound<'_>, units: Units) -> Result<Assembled, CoreError> {
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
    pub(super) fn drive(
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
        if ctx.scope.config.optimizer.verify_plans && planck_verify {
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
        if let Some(serve) = ctx.serve.as_deref_mut() {
            serve.last_lin = if ctx.scope.tracking() {
                op.lineage().map(<[LineageMask]>::to_vec)
            } else {
                None
            };
        }
        let schema = op.schema().clone();
        // Plan-quality telemetry over the finished operator tree:
        // per-kind Q-error histograms and build-side flips, wherever the
        // report has a reader (a streamed serve scores its scans alone).
        // A pruned tree's row count is a proof, not an estimate.
        if ctx.scope.want_plan_text && pruned.is_none() {
            self.plan_quality_walk(op.as_ref(), &mut ctx.found);
        }
        // Verification is lent out of the execute stage it ran in.
        let top = ctx.scope.depth == 0;
        if let Some(serve) = ctx.serve.as_deref_mut().filter(|_| top && verify_ms > 0.0) {
            serve.report.phases.add(Stage::Verify, verify_ms);
            serve.lent_ms += verify_ms;
        }
        // Record the plan (top-level query only).
        let explained = top && ctx.scope.want_plan_text;
        if let Some(serve) = ctx.serve.as_deref_mut().filter(|serve| explained && serve.report.plan.is_empty()) {
            // The `-- ` lines first: which path the plan came by, then the
            // notes — the planner's, this serve's values', the fetch's.
            let path = serve.plan_path.map(|path| path.explain(bound.param_count()));
            let of_values = bound.value_notes(&self.catalog, pruned);
            let notes = bound.plan.notes.iter().chain(&of_values).chain(&notes).map(String::as_str);
            let mut text = String::new();
            for note in path.as_deref().into_iter().chain(notes) {
                let _ = writeln!(text, "-- {}", note);
            }
            text.push_str(&explain_ops(op.as_ref()));
            serve.report.plan = text;
        }
        Ok((schema, tuples))
    }

    /// Assemble a plan satisfiability analysis proved statically empty:
    /// an annotated [`EmptyOp`] over the schema the normal pipeline
    /// would have produced (so CONSTRUCT and correlated subqueries still
    /// resolve every variable), driven as any tree is. No adapter is
    /// called and no rows are fetched.
    pub(super) fn eval_pruned(
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
    fn plan_quality_walk(&self, op: &dyn Operator, found: &mut Found) {
        let info = op.introspect();
        if let Some(est) = op.est_rows() {
            let q = qerror(est, op.rows_out());
            self.metrics
                .observe(&format!("plan.qerror.{}", metric_slug(&info.name)), centi_q(q));
            found.qerror(q, &info.name);
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
            self.plan_quality_walk(child, found);
        }
    }
}

/// An operator tree ready for [`Engine::drive`].
pub(super) struct Assembled {
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

/// The Q-error of a cardinality estimate: `max(est/act, act/est)`,
/// always ≥ 1, symmetric in over- and under-estimation. Zero rows on
/// either side are clamped to 1 so empty relations score against
/// "estimated one row" instead of dividing by zero.
pub(super) fn qerror(est: u64, act: u64) -> f64 {
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
pub(super) fn centi_q(q: f64) -> u64 {
    (q * 100.0).round().max(0.0).min(u64::MAX as f64) as u64
}

/// Operator-kind → metric-name segment: lowercased, non-alphanumerics
/// folded to `_` (metric names are dot-separated, so an embedded space
/// or dot from an opaque describe string must not split the name).
pub(super) fn metric_slug(name: &str) -> String {
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
