//! The answer: CONSTRUCT, the views and subqueries it nests, provenance.

use super::*;

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

impl Engine {
    /// The serve's last stage: construct the answer of `prepared`'s
    /// query over the relation it executed to, into `sink` — streamed
    /// when the sink takes bytes and the template nests no subquery.
    pub(super) fn construct_answer(
        &self,
        prepared: Arc<Prepared>,
        sink: Sink,
        schema: &Schema,
        tuples: &[Tuple],
        ctx: &mut ExecCtx,
    ) -> Result<Answered, CoreError> {
        let (plan, query) = (&prepared.plan, &prepared.query);
        if sink == Sink::Xml && prepared.streams {
            // This shape's last answer sizes the buffer: no doubling, and
            // no old copy held beside the new one at the peak.
            let mut w = XmlWriter::with_capacity("results", plan.answer_bytes.load(Ordering::Relaxed));
            construct::append_instances_stream(&mut w, &query.construct, schema, tuples, None)?;
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
        let tuple_lin = ctx.serve.as_deref_mut().and_then(|serve| serve.last_lin.take());
        let answer_cell = tuple_lin.as_ref().map(|_| RefCell::new(Vec::new()));
        let lineage = answer_cell.as_ref().map(|answers| AnswerLineage {
            tuple_masks: tuple_lin.as_deref(),
            answers,
        });
        let mut builder = DocumentBuilder::new("results");
        self.construct_into(&mut builder, &query.construct, schema, tuples, ctx, lineage)?;
        let document = builder.finish();
        let nodes = document.len();
        let answer = if sink == Sink::Xml {
            self.serve_metrics.incr(Count::TreeFallback, 1);
            Answer::Xml(nimble_xml::to_string(&document.root()))
        } else {
            let provenance = match (answer_cell, ctx.serve.as_deref_mut()) {
                (Some(cell), Some(serve)) => Some(self.provenance(serve, &ctx.found.missing, cell.into_inner())),
                _ => None,
            };
            Answer::Document(document, provenance)
        };
        self.end_stage(ctx, Stage::Construct);
        Ok(Answered { prepared, nodes, answer })
    }

    /// The provenance report of a tracked serve whose answers carry
    /// `answers`, and its metrics.
    fn provenance(&self, serve: &mut Serve, missing: &[String], answers: Vec<LineageMask>) -> Provenance {
        let mut missing = missing.to_vec();
        missing.sort();
        let prov = Provenance {
            sources: std::mem::take(&mut serve.prov),
            answers,
            missing,
        };
        self.metrics.incr("engine.provenance.tracked", 1);
        self.metrics
            .incr("engine.provenance.answers", prov.answers.len() as u64);
        serve.report.affected_answers = prov.stale_answers();
        let stale_answers = serve.report.affected_answers.len() as u64;
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

    /// The document backing a view reference: fresh materialization if
    /// present, otherwise virtual evaluation (with stale fallback under
    /// the `StaleCache` policy).
    pub(super) fn view_document(&self, name: &str, ctx: &mut ExecCtx) -> Result<Arc<Document>, CoreError> {
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
            (Err(CoreError::Source(_)), Some((doc, _))) if ctx.scope.config.unavailable == UnavailablePolicy::StaleCache => {
                ctx.found.stale = true;
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
        if ctx.scope.depth + 1 >= MAX_DEPTH {
            return Err(CoreError::CyclicView(entered.to_string()));
        }
        ctx.scope.depth += 1;
        let scope = Scope {
            outer: outer.map(|(s, _)| s),
            ..Scope::default()
        };
        let evaluated = self
            .plan(query, &ctx.scope.config.optimizer, scope)
            .and_then(|plan| self.eval_planned(&plan, &query.eq_params(), outer, ctx, true, None));
        let built = evaluated.and_then(|(schema, tuples)| {
            if let Some(cell) = answers {
                let sub_lin = ctx.serve.as_deref_mut().and_then(|serve| serve.last_lin.take());
                if let (Some(sub_lin), Some(ans)) = (sub_lin, cell.borrow_mut().last_mut()) {
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
        ctx.scope.depth -= 1;
        built
    }

    /// Construct template instances into an open builder, recursively
    /// evaluating nested subqueries ([`Engine::nested`]).
    ///
    /// With lineage tracking on, `lineage` carries the answer cells — one
    /// per answer, pushed by the template module *before* it renders the
    /// answer — through every nesting level, so a subquery's lineage, at
    /// any depth, ORs into the answer it is rendered inside; at the top
    /// level it also carries the relation's per-tuple masks.
    pub(super) fn construct_into(
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
pub(super) struct AnswerLineage<'a> {
    tuple_masks: Option<&'a [LineageMask]>,
    answers: &'a RefCell<Vec<LineageMask>>,
}
