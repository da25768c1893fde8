//! Cardinality estimation from the catalog's [`nimble_store::StatsCatalog`].
//!
//! All estimates are advisory: a missing statistic falls back to a
//! neutral default rather than blocking planning, and the engine's
//! runtime feedback (`StatsCatalog::observe_rows`) corrects row counts
//! the next time the query is planned.

use super::*;
use nimble_sources::query::{PredOp, Selection};
use nimble_store::stats::CollectionStats;
use std::collections::BTreeMap;

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
/// A hash join builds its table on the unit it folds in, unless the
/// unit is estimated at more than this many times the rows folded
/// before it: then it builds on those and streams the unit
/// (`place_builds`). A run whose build side turns out more than
/// this many times its probe side is a flipped decision
/// (`plan.flips.build_side`).
pub const BUILD_SWAP_RATIO: u64 = 4;

/// Estimated fraction of rows a selection keeps, from field stats.
/// `None` when the statistics cannot say anything useful.
pub fn selection_selectivity(stats: &CollectionStats, sel: &Selection) -> Option<f64> {
    let col = stats.columns.get(&sel.field.field)?;
    let distinct = col.distinct.max(1) as f64;
    match sel.op {
        PredOp::Eq => Some(1.0 / distinct),
        PredOp::Ne => Some(1.0 - 1.0 / distinct),
        PredOp::Lt | PredOp::Le | PredOp::Gt | PredOp::Ge => {
            let (min, max) = (col.min.as_ref()?.as_f64()?, col.max.as_ref()?.as_f64()?);
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
    let (collection, field) = var_field(atom, var)?;
    catalog.stats().get(&collection)?.distinct(&field)
}

/// The collection (`source.collection`) and the field a unit binds `var`
/// from, when it reads one: a fragment's output, or a row pattern's
/// field over a fetched collection.
pub(super) fn var_field(atom: &AtomExec, var: &str) -> Option<(String, String)> {
    match atom {
        AtomExec::Fragment { source, query, .. } => {
            let (_, field) = query.outputs.iter().find(|(v, _)| v == var)?;
            let coll = query.collections.iter().find(|c| c.alias == field.alias)?;
            Some((format!("{}.{}", source, coll.collection), field.field.clone()))
        }
        AtomExec::FetchMatch {
            source,
            collection,
            pattern,
            ..
        } => {
            let rp = compiler::recognize_row_pattern(pattern)?;
            let (_, field) = rp.fields.into_iter().find(|(v, _)| v == var)?;
            Some((format!("{}.{}", source, collection), field))
        }
        AtomExec::ViewMatch { .. } => None,
    }
}

/// Greedy cost-based fold ordering: start from the unit with the
/// smallest estimated output and repeatedly fold in the unit that
/// keeps the estimated intermediate result smallest, preferring units
/// that share a join variable with the accumulated set over cross
/// products. Reads `plan.est_rows`; fills `plan.fold_order` and
/// `plan.fold_rows`, and records a reordering as a `fold-reorder`
/// rewrite.
pub(super) fn order_folds(catalog: &Catalog, plan: &mut Plan) {
    let (order, fold_rows) = fold_estimates(catalog, plan, None);
    if order.len() > 1 {
        plan.notes.push(format!("cost: fold order {:?}, est rows {:?} -> {:?}", order, plan.est_rows, fold_rows));
        let record = fold_reorder(&plan.independents, &order);
        plan.rewrites.push(record);
    }
    plan.fold_order = order;
    plan.fold_rows = fold_rows;
}

/// The fold order — `fixed`, or else the greedy one — and the rows each
/// step of it is estimated to fold, from the units' estimates as they
/// stand.
pub(super) fn fold_estimates(catalog: &Catalog, plan: &Plan, fixed: Option<&[usize]>) -> (Vec<usize>, Vec<u64>) {
    let n = plan.independents.len();
    let est = &plan.est_rows;
    if n == 0 {
        return (Vec::new(), Vec::new());
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
    let first = fixed.and_then(|fixed| fixed.first().copied()).unwrap_or(first);
    used[first] = true;
    order.push(first);
    fold_rows.push(est[first]);
    let mut rows: u128 = u128::from(est[first].max(1));

    // Distinct-value estimate per bound variable in the accumulated
    // set; joining shrinks it (min of the two sides, capped by the
    // rows).
    let mut bound_distinct: BTreeMap<String, u128> = BTreeMap::new();
    let note_atom_vars =
        |map: &mut BTreeMap<String, u128>, catalog: &Catalog, atom: &AtomExec, atom_rows: u128, rows_now: u128| {
            for v in atom.vars() {
                let d = var_distinct(catalog, atom, v)
                    .map(u128::from)
                    .unwrap_or(atom_rows)
                    .min(rows_now)
                    .max(1);
                map.entry(v.clone()).and_modify(|cur| *cur = (*cur).min(d)).or_insert(d);
            }
        };
    note_atom_vars(&mut bound_distinct, catalog, &plan.independents[first], rows, rows);

    while order.len() < n {
        // (shares a var, estimated joined rows, index) — prefer
        // sharing, then the smallest intermediate, then stable index
        // order.
        let mut best: Option<(bool, u128, usize)> = None;
        for (j, atom) in plan.independents.iter().enumerate() {
            if used[j] || fixed.is_some_and(|fixed| fixed.get(order.len()) != Some(&j)) {
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
                    let dj = var_distinct(catalog, atom, v)
                        .map(u128::from)
                        .unwrap_or(atom_rows)
                        .min(atom_rows)
                        .max(1);
                    denom = denom.saturating_mul(da.max(dj));
                }
            }
            let joined = (rows.saturating_mul(atom_rows) / denom.max(1)).max(1);
            let better = match best {
                None => true,
                Some((bshares, bjoined, _)) => (shares && !bshares) || (shares == bshares && joined < bjoined),
            };
            if better {
                best = Some((shares, joined, j));
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
    (order, fold_rows)
}

/// The `fold-reorder` rewrite of folding `independents` in `order`:
/// it permutes the units, so the bound-variable multiset, the
/// join-key set and the set of sources answers draw from must all
/// survive exactly.
fn fold_reorder(independents: &[AtomExec], order: &[usize]) -> RewriteRecord {
    let mut keys: Vec<String> = Vec::new();
    for (i, a) in independents.iter().enumerate() {
        for v in a.vars() {
            let shared = independents.iter().enumerate().any(|(j, b)| j != i && b.vars().contains(v));
            if shared && !keys.contains(v) {
                keys.push(v.clone());
            }
        }
    }
    let side = |atoms: Vec<&AtomExec>| {
        let cols = atoms.iter().flat_map(|a| a.vars().iter().cloned()).collect();
        let sources = atoms.iter().filter_map(|a| a.source().map(str::to_string)).collect();
        Fingerprint::new(cols).with_keys(keys.clone()).with_sources(sources)
    };
    let ordered = order.iter().filter_map(|&i| independents.get(i)).collect();
    RewriteRecord::new("fold-reorder", false, side(independents.iter().collect()), side(ordered))
}

/// Each fold step's build side and the central Filter's estimate,
/// read off the final estimates (after shard pruning and probes
/// tightened them), in the order the engine folds: a subquery's
/// `outer` row first, estimated at one row, then the units in fold
/// order. A step that shares a variable with what was folded before
/// it is a hash join, which builds on the unit unless the unit is
/// estimated at more than [`BUILD_SWAP_RATIO`] times the rows folded
/// so far: then it builds on those, streams the unit, and the swap
/// is a `build-side-swap` rewrite, which keeps the columns, the keys
/// and the units folded. Fills `plan.swaps` and `plan.filter_rows`.
pub(super) fn place_builds(plan: &mut Plan, outer: Option<&Schema>) {
    let mut folded: Vec<&String> = outer.map(|s| s.vars().iter().collect()).unwrap_or_default();
    // Rows folded so far; none before the first unit of a plan without
    // an outer row, which is scanned, not joined.
    let mut rows: Option<u64> = outer.map(|_| 1);
    let mut swaps = Vec::with_capacity(plan.fold_order.len());
    for (k, &i) in plan.fold_order.iter().enumerate() {
        let (atom, unit) = (&plan.independents[i], plan.est_rows[i]);
        let hashed = atom.vars().iter().any(|v| folded.contains(&v));
        swaps.push(hashed && rows.is_some_and(|rows| unit > rows.saturating_mul(BUILD_SWAP_RATIO)));
        rows = Some(match rows {
            None => unit,
            Some(_) => plan.fold_rows[k],
        });
        folded.extend(atom.vars());
    }
    let records: Vec<RewriteRecord> = (0..swaps.len())
        .filter(|&k| swaps[k])
        .map(|k| swap_record(plan, outer, k))
        .collect();
    plan.rewrites.extend(records);
    plan.swaps = swaps;
    // The probed conjuncts' selectivity is in the probed scans'
    // estimates already.
    let mut probed: Vec<usize> = plan.probes.iter().map(|p| p.conjunct).collect();
    probed.sort_unstable();
    probed.dedup();
    let unprobed = plan.residual_predicates.len().saturating_sub(probed.len());
    plan.filter_rows = filtered_rows(rows.unwrap_or(1), unprobed);
}

/// The `build-side-swap` rewrite of fold step `k`: its hash join builds
/// on the rows folded before the step and streams the step's unit, so
/// the join's columns, its keys and the units folded all stay.
fn swap_record(plan: &Plan, outer: Option<&Schema>, k: usize) -> RewriteRecord {
    let unit = &plan.independents[plan.fold_order[k]];
    let before = plan.fold_order[..k].iter().map(|&i| &plan.independents[i]);
    let mut folded: Vec<String> = outer.map(|s| s.vars().to_vec()).unwrap_or_default();
    let mut units: Vec<String> = outer.map(|_| "<outer>".to_string()).into_iter().collect();
    for v in before.clone().flat_map(AtomExec::vars) {
        if !folded.contains(v) {
            folded.push(v.clone());
        }
    }
    for label in before.chain([unit]).map(AtomExec::label) {
        if !units.contains(&label) {
            units.push(label);
        }
    }
    let keys: Vec<String> = folded.iter().filter(|v| unit.vars().contains(v)).cloned().collect();
    // The join's columns, the folded side's first or the unit's first:
    // the same set.
    let side = |first: &[String], then: &[String]| {
        let mut cols = first.to_vec();
        cols.extend(then.iter().filter(|v| !first.contains(v)).cloned());
        Fingerprint::new(cols).with_keys(keys.clone()).with_sources(units.clone())
    };
    RewriteRecord::new("build-side-swap", false, side(&folded, unit.vars()), side(unit.vars(), &folded))
}

/// Estimated rows a Filter of `preds` predicates keeps of `rows`: the
/// default selectivity, 1/3, once per predicate, in integers, and at
/// least one row.
fn filtered_rows(rows: u64, preds: usize) -> u64 {
    let preds = u32::try_from(preds).unwrap_or(u32::MAX);
    (rows / 3u64.saturating_pow(preds)).max(1)
}

pub(super) fn clamp_rows(est: f64) -> u64 {
    if est.is_finite() && est > 0.0 {
        (est.round() as u64).max(1)
    } else {
        1
    }
}
