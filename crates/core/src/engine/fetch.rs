//! The fetch rounds, and the one site a source call is accounted at.

use super::*;

impl Engine {
    /// The scan layer: fetch every independent unit of the plan and hand
    /// the units over as the join fold's inputs, in the plan's fold
    /// order, behind a subquery's `outer` row. The fetch runs in two
    /// rounds (DESIGN.md §18): a plan with a bind stage fetches its
    /// driver first and sends the targets the keys the driver bound; a
    /// plan without one has an empty first round. Each unit is interned
    /// for lineage, and its row estimate scored against what it shipped
    /// ([`Engine::score_scans`]).
    pub(super) fn fetch_units(
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
                masks: if ctx.scope.tracking() {
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
            Some(stage) => self.bind_keys(stage, fetched[stage.driver].as_ref(), plan.independents[stage.driver].vars()),
            None => (None, None),
        };
        let rest = (0..n).filter(|&i| Some(i) != driver);
        self.fetch_round(bound, rest, keys.as_ref(), observed, ctx, &mut fetched);
        // What EXPLAIN says of the fetch — the bind stage's keys, each
        // probed match — where it is read.
        let explained = ctx.scope.depth == 0 && ctx.scope.want_plan_text;
        let mut notes: Vec<String> = Vec::new();
        notes.extend(bind_note.filter(|_| explained));
        for (atom, slot) in plan.independents.iter().zip(fetched) {
            let unit = slot.ok_or_else(|| {
                CoreError::Internal("independent unit left unfetched".into())
            })??;
            ctx.found.rows_fetched += unit.tuples.len() as u64;
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
            let masks = match ctx.serve.as_deref_mut() {
                Some(serve) => intern_masks(&mut serve.prov, unit.prov),
                // Outside a serve nothing tracks: there is no table.
                None => ScanMasks::None,
            };
            inputs.push(Input {
                schema: unit_schema(atom.vars().to_vec())?,
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
        self.score_scans(plan, &inputs[start..], &mut ctx.found);

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
        // that runs it from a copy of this one's settings, with the query
        // context — thread-local — re-entered, so source calls on a
        // worker stay attributed to the query. It hands back what it found.
        let scope = ctx.scope;
        let qctx = QueryCtx::current();
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
                    let mut local = ExecCtx::new(scope);
                    let bind = plan
                        .bind
                        .as_ref()
                        .zip(keys)
                        .and_then(|(stage, keys)| Some((&stage.target(task.unit)?.field, keys)));
                    let unit = self.fetch_atom(bound, task.unit, bind, &mut local);
                    TaskDone::Unit(unit, local.found)
                }
            };
            (done, started.elapsed())
        });
        let fork = run.fork();
        if tasks.len() > 1 {
            let way = if fork.pooled { "engine.fetch.pool" } else { "engine.fetch.serial" };
            self.metrics.incr(way, 1);
            ctx.found.rounds.push(RoundFork {
                site: "fetch",
                tasks: tasks.len(),
                pooled: fork.pooled,
                expected: fork.expected,
                wake: fork.poolable.then_some(nimble_algebra::WAKE),
            });
        }
        let mut gathered: Vec<Vec<ShardTook>> = scans.iter().map(|_| Vec::new()).collect();
        for (task, (done, took)) in tasks.iter().zip(run) {
            if let Some(slot) = priced.and_then(|o| o.task(task.unit, task.slot())) {
                slot.note(took);
            }
            match done {
                TaskDone::Unit(unit, found) => {
                    ctx.found.add(found);
                    fetched[task.unit] = Some(unit);
                }
                TaskDone::Shard(scan, rows) => gathered[scan].push((rows, took)),
            }
        }
        for (scan, shards) in scans.iter().zip(gathered) {
            let unit = self.fold_shards(scan, shards, fork.pooled, ctx);
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
        vars: &[String],
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
        let Some(col) = vars.iter().position(|v| v == &stage.var) else {
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
    /// ids stay dense even under parallel fetch). A match skips the
    /// candidates its probes rule out; a sharded FetchMatch is never
    /// fetched here, its shards are tasks of the round
    /// ([`Engine::fetch_round`]). `bind` is the bind stage's key list and
    /// this unit's field for it, when the unit is a target.
    fn fetch_atom(
        &self,
        bound: Bound<'_>,
        i: usize,
        bind: Option<(&FieldRef, &BoundKeys)>,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        match &bound.plan.independents[i] {
            AtomExec::Fragment { source, vars, .. } => self.fetch_fragment(bound, i, source, vars, bind, ctx),
            AtomExec::FetchMatch {
                source,
                collection,
                pattern,
                vars,
            } => {
                let filter = self.candidate_filter(bound, i);
                self.fetch_match(source, collection, pattern, vars, filter, ctx)
            }
            AtomExec::ViewMatch { view, pattern, vars } => {
                let filter = self.candidate_filter(bound, i);
                self.fetch_view(view, pattern, vars, filter, ctx)
            }
        }
    }

    /// Fetch unit `i`, a fragment pushed to `source`, with this serve's
    /// values and — when the unit is a bind target — the keys its driver
    /// bound.
    fn fetch_fragment(
        &self,
        bound: Bound<'_>,
        i: usize,
        source: &str,
        vars: &[String],
        bind: Option<(&FieldRef, &BoundKeys)>,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let track = ctx.scope.tracking();
        let adapter = self.catalog.source(source).ok_or_else(|| CoreError::UnknownCollection(source.to_string()))?;
        let unit = Unit::Fragment;
        let keyed = bind.filter(|(_, keys)| keys.send);
        if keyed.is_some_and(|(_, keys)| keys.keys.is_empty()) {
            // A healthy driver bound no key, so the inner join is empty
            // whatever this source holds: it is not asked (and never sent
            // `IN ()`).
            return Ok(Fetched::fresh(Vec::new(), unit.prov(track, source)));
        }
        ctx.found.fragments_pushed += 1;
        // What this serve sends: the plan's fragment with this serve's
        // values, and the bind stage's keys when it has them. The stale
        // cache is keyed by what is sent, so that it answers each value
        // with its own document. A keyed answer is stored under its keys'
        // digest, so the stale cache can serve it for these keys only.
        // With a list that is not sent (the driver was served stale) the
        // document cached for these keys still answers, as second choice;
        // with one that is, the whole fragment does — a superset the join
        // filters.
        let query = bound
            .fragment_query(i)
            .ok_or_else(|| CoreError::Internal(format!("unit {} is not a fragment", i)))?;
        let whole_key = fragment_key(source, &query);
        let keyed_key = bind.map(|(_, keys)| format!("{}:bind={}:{:016x}", whole_key, keys.keys.len(), keys.digest));
        let mut cache_keys: Vec<&str> = vec![&whole_key];
        cache_keys.extend(keyed_key.as_deref());
        if keyed.is_some() {
            cache_keys.reverse();
        }
        let query = match keyed {
            Some((field, keys)) => Cow::Owned(query.into_owned().with_key_set(field.clone(), Arc::clone(&keys.keys))),
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
            to_tuples: &to_tuples,
        };
        let call = Call::run(|| Ok(adapter.execute(&query)?));
        self.call_source(source, kind, fallback, ctx, call, |doc, found| {
            // A floored answer is a refresh's, and no one reads it back: a
            // refresh takes no stale answer, and its floor is in the key,
            // out of every query's reach.
            if query.after_row.is_none() {
                self.cache.put(cache_keys[0], Arc::clone(&doc));
            }
            let tuples = to_tuples(&doc);
            if let Some(mark) = Watermark::of(&doc) {
                let collection = &query.collections[0].collection;
                found.marks.push((format!("{}.{}", source, collection), mark));
            }
            // Only an unfiltered single-collection fragment observes the
            // collection's true cardinality.
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
            (Fetched::fresh(tuples, unit.prov(track, source)), None)
        })
    }

    /// Fetch `source`'s whole `collection` and match `pattern` on the
    /// candidates `filter` admits.
    fn fetch_match(
        &self,
        source: &str,
        collection: &str,
        pattern: &nimble_xmlql::ast::Pattern,
        vars: &[String],
        mut filter: matcher::CandidateFilter,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let track = ctx.scope.tracking();
        let adapter = self.catalog.source(source).ok_or_else(|| CoreError::UnknownCollection(source.to_string()))?;
        let key = format!("coll:{}:{}", source, collection);
        let unit = Unit::Collection(collection);
        let fallback = Fallback {
            cache_keys: &[&key],
            unit,
            to_tuples: &|doc| match_tuples(doc, pattern, vars, None),
        };
        let call = Call::run(|| Ok(adapter.fetch_collection(collection)?));
        self.call_source(source, || "fetch".to_string(), fallback, ctx, call, |doc, _| {
            self.cache.put(&key, Arc::clone(&doc));
            let tuples = match_tuples(&doc, pattern, vars, Some(&mut filter));
            // Row count = the collection's top-level elements (the same
            // measure sampling seeds), not pattern matches.
            self.note_stats_rows(
                &format!("{}.{}", source, collection),
                doc.root_cursor().child_element_count() as u64,
            );
            let probed = self.note_probed(&filter);
            (Fetched { probed, ..Fetched::fresh(tuples, unit.prov(track, source)) }, None)
        })
    }

    /// Read `view`'s document — stored, or evaluated — and match
    /// `pattern` on the candidates `filter` admits. A view contributes
    /// as one unit: its evaluation tracks no lineage, so its underlying
    /// sources intern no ids of their own, and the unit is stale when
    /// the evaluation fell back to stale data.
    fn fetch_view(
        &self,
        view: &str,
        pattern: &nimble_xmlql::ast::Pattern,
        vars: &[String],
        mut filter: matcher::CandidateFilter,
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let stale_before = ctx.found.stale;
        let (scope, track) = (ctx.scope, ctx.scope.tracking());
        ctx.scope.track = false;
        let fetched = self.view_document(view, ctx);
        ctx.scope = scope;
        let doc = fetched?;
        let tuples = match_tuples(&doc, pattern, vars, Some(&mut filter));
        // Row count = the view result's top-level elements, mirroring the
        // FetchMatch measure. The per-pattern match count would make the
        // estimate oscillate between queries with different patterns over
        // the same view, bumping the stats generation (and flushing the
        // plan cache) on every alternation.
        self.note_stats_rows(&format!("view:{}", view), doc.root_cursor().child_element_count() as u64);
        let prov = track.then(|| ProvSource {
            name: view.to_string(),
            detail: "view".to_string(),
            stale: ctx.found.stale && !stale_before,
            cache_age_ms: None,
            view: true,
        });
        let probed = self.note_probed(&filter);
        Ok(Fetched { probed, ..Fetched::fresh(tuples, FetchProv::from_opt(prov)) })
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
        ctx: &mut ExecCtx,
    ) -> Result<Fetched, CoreError> {
        let ShardScan { sp, source, collection, .. } = *scan;
        let (track, unit) = (ctx.scope.tracking(), Unit::Collection(collection));
        self.metrics
            .incr("engine.shard.pruned", (sp.shards - sp.survivors.len()) as u64);
        if sp.survivors.is_empty() {
            // Every shard statically pruned: an empty scan. Tracking
            // still interns the unit so lineage stays alive above it.
            let prov = track.then(|| ProvSource {
                detail: format!("collection:{} (all shards pruned)", collection),
                ..unit.source(source.to_string())
            });
            return Ok(Fetched::fresh(Vec::new(), FetchProv::from_opt(prov)));
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
        let outcome = if ctx.scope.config.unavailable == UnavailablePolicy::Fail && !lost.is_empty() {
            Err(CallError::Unavailable(lost.swap_remove(0).1.into()))
        } else {
            Ok(rows)
        };
        let call = Call {
            outcome,
            ms: slowest.as_secs_f64() * 1e3,
        };
        let kind = || {
            let hits = scan.memo_hits.load(Ordering::Relaxed);
            format!("fetch-sharded memo={}/{}", hits, sp.survivors.len())
        };
        let fallback = Fallback {
            cache_keys: &[],
            unit,
            to_tuples: &|_| Vec::new(),
        };
        self.call_source(source, kind, fallback, ctx, call, |mut rows, found| {
            for (label, _) in &lost {
                found.miss(label);
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
            (Fetched::fresh(tuples, prov), lost)
        })
    }

    /// The one site a serve accounts a source call at: a pushed fragment,
    /// a whole collection, or a sharded unit's shards. It counts the call
    /// in what the evaluation found and in `source.calls.<s>`, times it
    /// into `source.latency_us.<s>`, and writes the call's one record into
    /// the query's context: no adapter writes one. `answer` makes the
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
        answer: impl FnOnce(R, &mut Found) -> (Fetched, Option<String>),
    ) -> Result<Fetched, CoreError> {
        ctx.found.calls += 1;
        let metrics = self.source_metrics(source);
        metrics.count(&metrics.calls, "source.calls.");
        metrics.latency(call.ms);
        let (outcome, error) = match call.outcome {
            Ok(reply) => {
                let (fetched, lost) = answer(reply, &mut ctx.found);
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
        if let Some(qctx) = QueryCtx::current() {
            qctx.record_source_call(SourceCall {
                source: source.to_string(),
                kind: kind(),
                ok: error.is_none(),
                latency_ms: call.ms,
                rows,
                error,
            });
        }
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
        let Fallback { cache_keys, unit, to_tuples } = fallback;
        let track = ctx.scope.tracking();
        let fetched = |tuples, prov: Option<ProvSource>, served| Fetched {
            served,
            ..Fetched::fresh(tuples, FetchProv::from_opt(prov))
        };
        match ctx.scope.config.unavailable {
            UnavailablePolicy::Fail => return Err(err),
            UnavailablePolicy::SkipAndAnnotate => {}
            UnavailablePolicy::StaleCache => {
                if let Some((doc, age)) = cache_keys.iter().find_map(|key| self.cache.get_with_age(key)) {
                    ctx.found.stale = true;
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
        ctx.found.miss(source);
        // A missing unit is still interned: it keeps tracking alive
        // through the pipeline — an untagged scan would disable it for
        // every operator above — and surfaces the hole in the provenance
        // table.
        let prov = track.then(|| unit.missing(source.to_string()));
        Ok(fetched(Vec::new(), prov, Served::Missing))
    }
}

/// What [`Engine::fetch_units`] hands [`Engine::assemble`].
pub(super) struct Units {
    /// The join fold's inputs, in fold order.
    pub(super) inputs: Vec<Input>,
    /// The first input is a subquery's outer row.
    pub(super) outer: bool,
    /// What EXPLAIN says of the fetch: the bind stage's keys and each
    /// probed match.
    pub(super) notes: Vec<String>,
}

/// One input of the join fold: a fetched unit, or a subquery's outer row.
pub(super) struct Input {
    schema: Schema,
    pub(super) tuples: Vec<Tuple>,
    masks: ScanMasks,
}

impl Input {
    /// The scan that reads this input, estimated at `est` rows.
    pub(super) fn scan(self, est: u64) -> ValuesOp {
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
    /// A cached document made into the unit's tuples (fragment rows and
    /// collection documents decode differently).
    to_tuples: &'a dyn Fn(&Arc<Document>) -> Vec<Tuple>,
}

/// A source call as [`Engine::call_source`] accounts it: what it
/// returned, and what it took.
struct Call<R> {
    outcome: Result<R, CallError>,
    ms: f64,
}

impl<R> Call<R> {
    /// Run `call` now, timed.
    fn run(call: impl FnOnce() -> Result<R, CallError>) -> Call<R> {
        let started = Instant::now();
        let outcome = call();
        Call {
            outcome,
            ms: ms_since(started),
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

/// One independent unit as fetched: its atom's variables' values.
struct Fetched {
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
    fn fresh(tuples: Vec<Tuple>, prov: FetchProv) -> Fetched {
        Fetched {
            tuples,
            prov,
            served: Served::Fresh,
            probed: None,
        }
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

/// Intern a fetch's provenance into the serve's provenance `table`
/// (sequentially, in atom order, so lineage ids stay dense) and produce
/// the scan's mask annotation.
fn intern_masks(table: &mut Vec<ProvSource>, prov: FetchProv) -> ScanMasks {
    let mut intern = |p| {
        table.push(p);
        LineageMask::single(table.len() as u32 - 1)
    };
    match prov {
        FetchProv::None => ScanMasks::None,
        FetchProv::One(p) => ScanMasks::One(intern(p)),
        FetchProv::Per { sources, tuple_src } => {
            let masks: Vec<LineageMask> = sources.into_iter().map(intern).collect();
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
    fn slot(self) -> usize {
        self.shard.map_or(0, |(_, k)| k)
    }
}

/// What a fetch task brought back. Not boxed: a round holds one per
/// task, and a box would be one more allocation per unit fetched.
#[allow(clippy::large_enum_variant)]
enum TaskDone {
    /// An unsharded unit, and what its fetch found.
    Unit(Result<Fetched, CoreError>, Found),
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
        self.observed?.task(task.unit, task.slot())?.get()
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

/// The stale cache's key for a fragment sent to `source`: `frag:`, the
/// source, then every field of the fragment — its selections with the
/// values bound for this serve — each string length-prefixed, each list
/// counted and each number terminated, so that two fragments share a key
/// exactly when they are equal and no key is the beginning of another.
/// (`{:?}` of the fragment said the same and cost over a microsecond a
/// fetch.)
pub(super) fn fragment_key(source: &str, query: &SourceQuery) -> String {
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
pub(super) fn fragment_tuples(doc: &Arc<Document>, vars: &[String]) -> Vec<Tuple> {
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
