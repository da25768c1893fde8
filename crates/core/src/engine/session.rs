use super::*;

/// Where a serve's answer goes — the one way the serve methods differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sink {
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
pub(super) struct Answered {
    pub(super) prepared: Arc<Prepared>,
    /// Nodes of the answer document; 0 for a streamed one, which has
    /// no node count.
    pub(super) nodes: usize,
    pub(super) answer: Answer,
}

pub(super) enum Answer {
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

/// What one evaluation is handed: the settings its scope reads, the
/// counters it adds to, and the state of the serve it is part of — none
/// in a refresh's runs, or in a view's evaluation inside a fetch task.
pub(super) struct ExecCtx<'s> {
    pub(super) scope: Settings,
    pub(super) found: Found,
    pub(super) serve: Option<&'s mut Serve>,
}

/// The settings an evaluation scope reads. A fetch task gets a copy.
#[derive(Clone, Copy)]
pub(super) struct Settings {
    /// The settings the serve (or refresh) started with, read once: a
    /// change that lands mid-serve reaches the next serve.
    pub(super) config: EngineConfig,
    /// Views and subqueries this evaluation is nested in ([`Engine::nested`]).
    pub(super) depth: u32,
    /// Lineage tracking enabled for this evaluation scope. Starts true;
    /// view materialization internals clear it (a view contributes as
    /// one unit, not per underlying source). Read through
    /// [`Settings::tracking`].
    pub(super) track: bool,
    /// Whether anyone can read the EXPLAIN text: a result envelope or
    /// EXPLAIN. A streamed serve returns the answer's bytes alone and
    /// clears it, and then no EXPLAIN text — the sources' SQL included —
    /// is rendered, and no operator tree is walked for its Q-errors.
    pub(super) want_plan_text: bool,
}

impl Settings {
    /// The top level's settings under `config`.
    pub(super) fn new(config: EngineConfig) -> Settings {
        Settings {
            config,
            depth: 0,
            track: true,
            want_plan_text: true,
        }
    }

    /// Whether this scope tags what it fetches with lineage: the serve's
    /// `track_lineage`, outside a view's evaluation.
    pub(super) fn tracking(&self) -> bool {
        self.config.optimizer.track_lineage && self.track
    }
}

/// What an evaluation found, at any level: the counters a fetch task
/// hands back for its round to add up ([`Found::add`]), and a serve's
/// report takes at the end ([`Engine::record`]).
#[derive(Default)]
pub(super) struct Found {
    /// Source calls made.
    pub(super) calls: u64,
    pub(super) fragments_pushed: usize,
    pub(super) rows_fetched: u64,
    pub(super) stale: bool,
    /// Sources that did not contribute, each once.
    pub(super) missing: Vec<String>,
    pub(super) rounds: Vec<RoundFork>,
    pub(super) worst_qerror: f64,
    pub(super) worst_qerror_op: Option<String>,
    /// The watermark of every stamped fragment answer a source gave this
    /// evaluation, under its `source.collection` (a view refresh reads
    /// them; no other fragment asks for one).
    pub(super) marks: Vec<(String, Watermark)>,
}

impl Found {
    pub(super) fn miss(&mut self, source: &str) {
        if !self.missing.iter().any(|s| s == source) {
            self.missing.push(source.to_string());
        }
    }

    /// Note the Q-error of `op`'s estimate, when it is the worst yet.
    pub(super) fn qerror(&mut self, q: f64, op: &str) {
        if q > self.worst_qerror {
            self.worst_qerror = q;
            self.worst_qerror_op = Some(op.to_string());
        }
    }

    /// Add what a fetch task found.
    pub(super) fn add(&mut self, task: Found) {
        for m in &task.missing {
            self.miss(m);
        }
        self.calls += task.calls;
        self.fragments_pushed += task.fragments_pushed;
        self.rows_fetched += task.rows_fetched;
        self.stale |= task.stale;
        self.rounds.extend(task.rounds);
        if task.worst_qerror > self.worst_qerror {
            self.worst_qerror = task.worst_qerror;
            self.worst_qerror_op = task.worst_qerror_op;
        }
        self.marks.extend(task.marks);
    }
}

/// The state only a top-level serve has. Views and subqueries nested in
/// it share it: their units join its provenance table.
pub(super) struct Serve {
    /// The serve's report, its stages filled as they end.
    pub(super) report: ServeReport,
    laps: Laps,
    /// Of the running stage's time, what a stage nested in it took
    /// (verification inside execute): [`Engine::end_stage`] gives it back.
    pub(super) lent_ms: f64,
    /// EXPLAIN's first line: [`Compiled::path`] of the top-level query.
    pub(super) plan_path: Option<PlanPath>,
    /// Per-query provenance table, indexed by lineage id. Interning is
    /// always sequential (fetch tasks never intern; the join loop does),
    /// so ids are dense and in plan order.
    pub(super) prov: Vec<ProvSource>,
    /// Per-tuple masks of the relation the most recent
    /// `eval_planned`/`eval_pruned` run produced, aligned with its
    /// tuples; `None` when that run did not track.
    pub(super) last_lin: Option<Vec<LineageMask>>,
}

impl Serve {
    /// The serve `report` describes, admitted at `started`.
    pub(super) fn start(report: ServeReport, started: Instant) -> Serve {
        Serve {
            report,
            laps: Laps::start(started),
            lent_ms: 0.0,
            plan_path: None,
            prov: Vec::new(),
            last_lin: None,
        }
    }
}

impl ExecCtx<'_> {
    /// A context of `scope` outside any serve that has found nothing.
    pub(super) fn new(scope: Settings) -> ExecCtx<'static> {
        ExecCtx {
            scope,
            found: Found::default(),
            serve: None,
        }
    }
}

impl Engine {
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
        let mut serve = Serve::start(report, qctx.started);
        let scope = Settings {
            want_plan_text: sink != Sink::Xml,
            ..Settings::new(self.config())
        };
        let mut ctx = ExecCtx {
            serve: Some(&mut serve),
            ..ExecCtx::new(scope)
        };
        let served = self.serve_stages(text, sink, given, &mut ctx);
        let found = ctx.found;
        self.record(serve, found, &qctx, served, sink)
    }

    /// Compile, execute and construct: the serve's stages, each ended
    /// into the report of the serve `ctx` is part of as it finishes.
    fn serve_stages(
        &self,
        text: &str,
        sink: Sink,
        given: Option<Plan>,
        ctx: &mut ExecCtx,
    ) -> Result<Answered, CoreError> {
        let Compiled { prepared, params, path } = self.compile(text, given, ctx)?;
        // A cached plan's operator shape verified clean when it was cached.
        let planck_verify = matches!(path, PlanPath::Planned | PlanPath::Given);
        if let Some(serve) = ctx.serve.as_deref_mut() {
            serve.plan_path = Some(path);
        }
        let params: Vec<&Atomic> = params.iter().collect();
        let (schema, tuples) =
            self.eval_planned(&prepared.plan, &params, None, ctx, planck_verify, Some(&prepared.observed))?;
        self.end_stage(ctx, Stage::Execute);
        if let Some(serve) = ctx.serve.as_deref_mut() {
            serve.report.tuples = tuples.len();
        }
        self.construct_answer(prepared, sink, &schema, &tuples, ctx)
    }

    /// End the running stage of the serve `ctx` carries as `stage`: its
    /// wall time since the previous stage ended — less what a stage
    /// nested in it took — goes into the report, and its allocations
    /// into `engine.phase_alloc.*`. A no-op outside a serve.
    pub(super) fn end_stage(&self, ctx: &mut ExecCtx, stage: Stage) {
        let Some(serve) = ctx.serve.as_deref_mut() else {
            return;
        };
        let (ms, alloc) = serve.laps.lap();
        let lent = std::mem::take(&mut serve.lent_ms);
        serve.report.phases.add(stage, (ms - lent).max(0.0));
        self.serve_metrics.stage_alloc(stage, alloc);
    }

    /// The one site every serve is recorded at, once, whether it
    /// answered or failed. It closes the report — elapsed time,
    /// allocations, what the evaluation `found`, the completeness
    /// verdict, the error — updates `in_flight` and every serve-level metric
    /// (`engine.queries`, `engine.query_us`, `engine.query.error.*`,
    /// `engine.phase_us.*`), shares the serve's cost among the names it
    /// read in the workload monitor, and hands the report to the query
    /// log and — when the keep policy holds — the flight recorder, the
    /// evidence (spans, per-call records) gathered only then. A result
    /// envelope gets the report back.
    fn record(
        &self,
        serve: Serve,
        found: Found,
        qctx: &QueryCtx,
        served: Result<Answered, CoreError>,
        sink: Sink,
    ) -> Result<(Answer, Option<ServeReport>), CoreError> {
        let Serve { mut report, laps, .. } = serve;
        let (elapsed_ms, alloc) = laps.finish();
        report.elapsed_ms = elapsed_ms;
        report.alloc_bytes = alloc.bytes;
        report.alloc_peak_bytes = alloc.peak_bytes;
        report.source_calls.count = found.calls;
        report.fragments_pushed = found.fragments_pushed;
        report.rows_fetched = found.rows_fetched;
        report.stale = found.stale;
        report.rounds = found.rounds;
        report.worst_qerror = found.worst_qerror;
        report.worst_qerror_op = found.worst_qerror_op;
        // The miss list deduplicates on insert, but arrival order depends
        // on fetch scheduling: one canonical order for every consumer.
        report.missing_sources = found.missing;
        report.missing_sources.sort();
        report.complete = served.is_ok() && report.missing_sources.is_empty();
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.serve_metrics.served(&report);
        match &served {
            // The serve's cost is shared among the names it read. A
            // streamed answer has no node count: its 0 leaves each view's
            // size (a max-gauge) as it was.
            Ok(served) => {
                let share = report.elapsed_ms / served.prepared.names.len().max(1) as f64;
                for name in &served.prepared.names {
                    self.monitor.record(name, share, served.nodes);
                }
            }
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
}
