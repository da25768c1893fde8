//! Shard routing over partitioned collections (DESIGN.md §17).

use super::*;

/// Shard routing over partitioned collections.
///
/// For every independent FetchMatch atom over a collection the shard
/// runtime declares partitioned, decide which shards the fetch round
/// must contact ([`route_shards`]):
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
/// Both read every predicate the atom's variables cover. Those that
/// compile to a [`LiteralTest`] are also replicated into each shard's
/// scan (shard-local filtering) and kept central — filters are idempotent. One
/// that can fail stays central only, and fails as it does unsharded.
/// Both decisions are audited ([`record_shard_plan`]): `shard-prune` is
/// a narrowing rewrite (payload/sources may shrink to the survivor set),
/// `exchange-pushdown` a strict substitution.
pub(super) fn plan_shards(catalog: &Catalog, plan: &mut Plan, rt: &crate::shard::ShardRuntime) {
    for i in 0..plan.independents.len() {
        let AtomExec::FetchMatch {
            source,
            collection,
            pattern,
            ..
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
        let (shard_plan, rendered) = route_shards(catalog, plan, i, coll_key, &part.spec);
        record_shard_plan(plan, &shard_plan, &part.rows, rendered);
        plan.shards.push(shard_plan);
    }
    // The fold order stands; the rows each step folds shrink with the
    // scans pruning tightened.
    if plan.shards.iter().any(|sp| sp.survivors.len() < sp.shards) {
        let order = std::mem::take(&mut plan.fold_order);
        (plan.fold_order, plan.fold_rows) = cost::fold_estimates(catalog, plan, Some(&order));
    }
}

/// The routing of the FetchMatch atom `independents[i]` over the
/// collection `coll_key`, partitioned by `spec`, and the covered
/// predicates its shards' scans test, as EXPLAIN spells them.
fn route_shards(
    catalog: &Catalog,
    plan: &Plan,
    i: usize,
    coll_key: String,
    spec: &nimble_store::shard::ShardSpec,
) -> (ShardPlan, Vec<String>) {
    use nimble_planck::satisfy::{self, Verdict};
    use nimble_store::shard::shard_stats_key;

    let (pattern, vars) = match &plan.independents[i] {
        AtomExec::FetchMatch { pattern, vars, .. } => (Some(pattern), &vars[..]),
        _ => (None, &[][..]),
    };
    let n = spec.shards();
    let rp = pattern.and_then(compiler::recognize_record);
    let key_var = rp
        .as_ref()
        .and_then(|rp| rp.fields.iter().find(|(_, f)| f == &spec.key).map(|(v, _)| v.clone()));

    // Residual predicates this atom can evaluate alone, over its row.
    let schema = Schema::try_new(vars.to_vec()).ok();
    let covered: Vec<(Expr, ScalarExpr)> = plan
        .residual_predicates
        .iter()
        .filter(|p| {
            let pv = p.vars();
            !pv.is_empty() && pv.iter().all(|v| vars.contains(v))
        })
        .filter_map(|p| Some((p.clone(), translate_expr(p, schema.as_ref()?).ok()?)))
        .collect();
    // Per-shard satisfiability of all of them.
    let conjunction =
        (!covered.is_empty()).then(|| ScalarExpr::conjunction(covered.iter().map(|(_, s)| s.clone()).collect()));
    // In each shard's scan, those that compile, over its row: the origin
    // column first.
    let (rendered, tests): (Vec<String>, Vec<LiteralTest>) = covered
        .iter()
        .filter_map(|(p, s)| Some((p.to_string(), LiteralTest::compile(&s.remap_columns(&|c| c + 1), vars.len() + 1)?)))
        .unzip();
    let pushed = tests.into_iter().reduce(|l, r| LiteralTest::And(Box::new(l), Box::new(r)));
    // `$key = literal` routes to one shard under any scheme.
    let mut eq_routes: Vec<usize> = Vec::new();
    for (p, _) in covered.iter().filter(|_| key_var.is_some()) {
        let Expr::Binary(BinOp::Eq, l, r) = p else {
            continue;
        };
        let lit = match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Lit(a)) | (Expr::Lit(a), Expr::Var(v)) if Some(v) == key_var.as_ref() => a,
            _ => continue,
        };
        let route = spec.shard_of(lit);
        if !eq_routes.contains(&route) {
            eq_routes.push(route);
        }
    }

    let mut survivors: Vec<usize> = Vec::new();
    for k in 0..n {
        // Two distinct equality routes contradict each other; a single
        // route admits only its own shard.
        if eq_routes.len() > 1 || (eq_routes.len() == 1 && eq_routes[0] != k) {
            continue;
        }
        let alive = conjunction.as_ref().is_none_or(|conjunction| {
            let stats_key = shard_stats_key(k, &coll_key);
            let bounds = |col: usize| -> Option<(satisfy::Number, satisfy::Number)> {
                let v = schema.as_ref()?.vars().get(col)?;
                let field = rp.as_ref()?.fields.iter().find(|(var, _)| var == v).map(|(_, f)| f.clone())?;
                catalog.stats().exact_bounds(&stats_key, &field)
            };
            satisfy::analyze(conjunction, &bounds) != Verdict::Unsatisfiable
        });
        if alive {
            survivors.push(k);
        }
    }
    let shard_plan = ShardPlan {
        atom: i,
        collection: coll_key,
        key_field: spec.key.clone(),
        key_var,
        shards: n,
        survivors,
        pushed,
    };
    (shard_plan, rendered)
}

/// What routing `shard_plan` says, over shards of `shard_rows` rows
/// each: a note, a `shard-prune` rewrite when shards were pruned (and
/// the scan's row estimate tightened to the survivors), and an
/// `exchange-pushdown` rewrite when its shards test the `rendered`
/// predicates.
fn record_shard_plan(plan: &mut Plan, shard_plan: &ShardPlan, shard_rows: &[u64], rendered: Vec<String>) {
    let (source, vars) = match &plan.independents[shard_plan.atom] {
        AtomExec::FetchMatch { source, vars, .. } => (source.clone(), vars.clone()),
        _ => return,
    };
    let (n, survivors, coll_key) = (shard_plan.shards, &shard_plan.survivors, &shard_plan.collection);
    let shard_label = |k: usize| format!("{}#shard{}", source, k);
    if survivors.len() < n {
        let before_rows: u64 = shard_rows.iter().sum();
        let after_rows: u64 = survivors.iter().filter_map(|&k| shard_rows.get(k)).sum();
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
        if let Some(est) = plan.est_rows.get_mut(shard_plan.atom) {
            *est = (*est).min(after_rows.max(1));
        }
    } else {
        plan.notes.push(format!("shard: {} fanned out to {} shards", coll_key, n));
    }
    if shard_plan.pushed.is_some() && !survivors.is_empty() {
        let srcs: Vec<String> = survivors.iter().copied().map(shard_label).collect();
        plan.rewrites.push(RewriteRecord::new(
            "exchange-pushdown",
            true,
            Fingerprint::new(vars.clone())
                .with_extra(rendered.clone())
                .with_sources(srcs.clone()),
            Fingerprint::new(vars).with_extra(rendered).with_sources(srcs),
        ));
    }
}
