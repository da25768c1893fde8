//! Text to executable plan, through the plan cache.

use super::*;

/// Which way a serve came by its plan, as EXPLAIN's first line says it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PlanPath {
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
    pub(super) fn explain(self, params: usize) -> Cow<'static, str> {
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

/// A query ready to execute: what [`Engine::compile`] makes of a text.
/// The prepared plan is served with `params`, the text's own values of
/// its equality parameters ([`Query::eq_params`]).
pub(super) struct Compiled {
    pub(super) prepared: Arc<Prepared>,
    pub(super) params: Vec<Atomic>,
    pub(super) path: PlanPath,
}

impl Engine {
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
    pub(super) fn compile(&self, text: &str, given: Option<Plan>, ctx: &mut ExecCtx) -> Result<Compiled, CoreError> {
        fn compile_error(e: impl ToString) -> CoreError {
            CoreError::Compile(e.to_string())
        }
        let parsed = |text: &str| nimble_xmlql::parse_query(text).map_err(compile_error);
        let analyzed = |query: &Query| nimble_xmlql::analyze(query).map_err(compile_error);
        if let Some(plan) = given {
            let query = parsed(text)?;
            self.end_stage(ctx, Stage::Parse);
            if ctx.scope.config.optimizer.verify_plans {
                planner::verify_plan(&plan, None)?;
            }
            self.end_stage(ctx, Stage::Verify);
            return Ok(Compiled {
                params: query.eq_params().into_iter().cloned().collect(),
                prepared: Arc::new(Prepared::new(plan, query)),
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
        let optimizer = ctx.scope.config.optimizer;
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
            path: PlanPath::Planned,
        })
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
