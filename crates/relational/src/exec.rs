//! SELECT execution over heap tables.

use crate::database::{Database, ExecStats, ResultSet};
use crate::error::SqlError;
use crate::plan::{choose_access_path, refers_only_to, AccessPath, Binding, Resolver};
use crate::sql::ast::*;
use nimble_xml::Atomic;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Execute a SELECT, updating scan statistics.
pub fn execute_select(
    db: &Database,
    sel: &SelectStmt,
    stats: &mut ExecStats,
) -> Result<ResultSet, SqlError> {
    // --- resolve bindings ---
    let mut bindings = Vec::new();
    let mut offset = 0usize;
    let push_binding = |tref: &TableRef, offset: &mut usize| -> Result<Binding, SqlError> {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| SqlError::new(format!("no table {:?}", tref.table)))?;
        let b = Binding {
            name: tref.binding().to_string(),
            table: tref.table.clone(),
            columns: table.columns.clone(),
            offset: *offset,
        };
        *offset += table.columns.len();
        Ok(b)
    };
    bindings.push(push_binding(&sel.from, &mut offset)?);
    for j in &sel.joins {
        bindings.push(push_binding(&j.table, &mut offset)?);
    }
    let resolver = Resolver { bindings };

    let conjuncts: Vec<SqlExpr> = sel
        .where_clause
        .clone()
        .map(|w| w.split_conjuncts())
        .unwrap_or_default();
    let mut consumed = vec![false; conjuncts.len()];

    // --- base rows of the driving table ---
    let mut rows = fetch_base_rows(
        db,
        &resolver,
        0,
        &conjuncts,
        &mut consumed,
        stats,
    )?;

    // --- left-deep joins ---
    for (ji, join) in sel.joins.iter().enumerate() {
        let bidx = ji + 1;
        let right_rows = fetch_base_rows(db, &resolver, bidx, &conjuncts, &mut consumed, stats)?;
        let left_flat_a = resolver.resolve(&join.on_left)?;
        let left_flat_b = resolver.resolve(&join.on_right)?;
        let right_offset = resolver.bindings[bidx].offset;
        let right_width = resolver.bindings[bidx].columns.len();
        // Orient keys: one side is in the accumulated prefix, the other in
        // the newly joined table.
        let (acc_key, new_key) = if left_flat_a >= right_offset {
            (left_flat_b, left_flat_a - right_offset)
        } else {
            (left_flat_a, left_flat_b - right_offset)
        };
        if acc_key >= right_offset {
            return Err(SqlError::new(format!(
                "join condition {} = {} does not connect to earlier tables",
                join.on_left, join.on_right
            )));
        }
        // Hash the new table rows on their key.
        let mut table_map: HashMap<String, Vec<&Vec<Atomic>>> = HashMap::new();
        for r in &right_rows {
            table_map.entry(hash_key(&r[new_key])).or_default().push(r);
        }
        let mut joined = Vec::new();
        for left_row in &rows {
            let k = hash_key(&left_row[acc_key]);
            match table_map.get(&k) {
                Some(matches) => {
                    for m in matches {
                        let mut combined = left_row.clone();
                        combined.extend(m.iter().cloned());
                        joined.push(combined);
                    }
                }
                None if join.left_outer => {
                    let mut combined = left_row.clone();
                    combined.extend(std::iter::repeat_n(Atomic::Null, right_width));
                    joined.push(combined);
                }
                None => {}
            }
        }
        rows = joined;
    }

    // --- residual predicates ---
    for (ci, c) in conjuncts.iter().enumerate() {
        if consumed[ci] {
            continue;
        }
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if eval_expr(c, &r, &resolver)?.truthy() {
                kept.push(r);
            }
        }
        rows = kept;
    }

    // --- aggregation ---
    let has_agg = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            SelectItem::Star => false,
        });

    let (mut out_names, mut out_rows): (Vec<String>, Vec<Vec<Atomic>>) = if has_agg {
        aggregate(sel, &rows, &resolver)?
    } else {
        project(sel, &rows, &resolver)?
    };

    // --- distinct ---
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| {
            seen.insert(
                r.iter()
                    .map(|a| a.lexical())
                    .collect::<Vec<_>>()
                    .join("\u{1}"),
            )
        });
    }

    // --- order by ---
    if !sel.order_by.is_empty() {
        // Resolve each key against output names first (aliases / bare
        // column names), falling back to qualified output names.
        let mut key_indices = Vec::new();
        for (col, desc) in &sel.order_by {
            let target = col.to_string();
            // Exact match (alias or qualified name) wins; otherwise an
            // unqualified name may match a single qualified output — two
            // or more matches is an ambiguity error, not a silent pick.
            let idx = match out_names.iter().position(|n| n == &target || n == &col.column) {
                Some(i) => i,
                None => {
                    let suffix = format!(".{}", target);
                    let matches: Vec<usize> = out_names
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| n.ends_with(&suffix))
                        .map(|(i, _)| i)
                        .collect();
                    match matches.as_slice() {
                        [one] => *one,
                        [] => {
                            return Err(SqlError::new(format!(
                                "ORDER BY column {:?} not in output",
                                target
                            )))
                        }
                        _ => {
                            return Err(SqlError::new(format!(
                                "ORDER BY column {:?} is ambiguous; qualify it",
                                target
                            )))
                        }
                    }
                }
            };
            key_indices.push((idx, *desc));
        }
        out_rows.sort_by(|a, b| {
            for (idx, desc) in &key_indices {
                let ord = cmp_atomics(&a[*idx], &b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // --- limit ---
    if let Some(n) = sel.limit {
        out_rows.truncate(n);
    }

    // Strip qualification from single-table outputs for friendlier names.
    if resolver.bindings.len() == 1 {
        for n in out_names.iter_mut() {
            if let Some(stripped) = n.split('.').nth(1) {
                *n = stripped.to_string();
            }
        }
    }

    Ok(ResultSet {
        columns: out_names,
        rows: out_rows,
    })
}

/// Fetch the rows of one binding, using an index when the pushed
/// conjuncts allow it, and filtering by every single-table conjunct.
fn fetch_base_rows(
    db: &Database,
    resolver: &Resolver,
    bidx: usize,
    conjuncts: &[SqlExpr],
    consumed: &mut [bool],
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Atomic>>, SqlError> {
    let binding = &resolver.bindings[bidx];
    let table = db
        .table(&binding.table)
        .ok_or_else(|| SqlError::new(format!("no table {:?}", binding.table)))?;

    let single_binding_query = resolver.bindings.len() == 1;
    let local: Vec<(usize, &SqlExpr)> = conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            if single_binding_query {
                refers_only_to(c, &[binding.name.as_str()])
            } else {
                // With multiple bindings, only qualified references can be
                // pushed safely.
                c.columns().iter().all(|cr| cr.table.as_deref() == Some(binding.name.as_str()))
            }
        })
        .collect();
    let local_exprs: Vec<SqlExpr> = local.iter().map(|(_, c)| (*c).clone()).collect();

    let path = choose_access_path(&table.indexed_columns(), &local_exprs, &binding.name);
    // The local conjunct the access path has already answered, if any.
    let mut answered: Option<usize> = None;
    let candidate_ids: Vec<usize> = match &path {
        AccessPath::FullScan => (0..table.row_count()).collect(),
        AccessPath::IndexEq { column, key } => {
            stats.note_index(&binding.table, column);
            // The planner only chooses indexed paths over indexed
            // columns; a full scan is the safe (and correct) fallback
            // should that invariant ever break.
            match table.index_on(column) {
                Some(ix) => ix.lookup_eq(key).to_vec(),
                None => (0..table.row_count()).collect(),
            }
        }
        AccessPath::IndexIn {
            column,
            keys,
            conjunct,
        } => {
            stats.note_index(&binding.table, column);
            stats.index_lookups += (keys.items().len() as u64).saturating_sub(1);
            match table.index_on(column) {
                Some(ix) => {
                    // Sorted and de-duplicated (two listed keys may be
                    // equal as keys), so rows come back in table order,
                    // as a scan would return them.
                    let mut ids: Vec<usize> = keys
                        .items()
                        .iter()
                        .flat_map(|k| ix.lookup_eq(k).iter().copied())
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    answered = Some(*conjunct);
                    ids
                }
                None => (0..table.row_count()).collect(),
            }
        }
        AccessPath::IndexRange { column, low, high } => {
            stats.note_index(&binding.table, column);
            table
                .index_on(column)
                .and_then(|ix| {
                    ix.lookup_range(
                        low.as_ref().map(|(a, inc)| (a, *inc)),
                        high.as_ref().map(|(a, inc)| (a, *inc)),
                    )
                })
                .unwrap_or_else(|| (0..table.row_count()).collect())
        }
    };
    stats.rows_scanned += candidate_ids.len() as u64;

    // Evaluate local conjuncts against a widened row (nulls elsewhere) so
    // flat indices resolve; only this binding's columns are referenced.
    let width = resolver.width();
    let mut out = Vec::new();
    'rows: for rid in candidate_ids {
        let row = &table.rows()[rid];
        let mut wide = vec![Atomic::Null; width];
        wide[binding.offset..binding.offset + row.len()].clone_from_slice(row);
        for (k, (_, c)) in local.iter().enumerate() {
            if answered != Some(k) && !eval_expr(c, &wide, resolver)?.truthy() {
                continue 'rows;
            }
        }
        out.push(row.clone());
    }
    for (ci, _) in &local {
        consumed[*ci] = true;
    }

    // The caller concatenates binding rows left-deep, so return rows in
    // this binding's local width; re-widen happens during joins. For the
    // driving table the accumulated row is exactly this table's columns.
    Ok(out)
}

/// Projection without aggregates.
fn project(
    sel: &SelectStmt,
    rows: &[Vec<Atomic>],
    resolver: &Resolver,
) -> Result<(Vec<String>, Vec<Vec<Atomic>>), SqlError> {
    let mut names = Vec::new();
    let mut exprs: Vec<Option<&SqlExpr>> = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for n in resolver.all_columns() {
                    names.push(n);
                    exprs.push(None);
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(output_name(expr, alias, i));
                exprs.push(Some(expr));
            }
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut r = Vec::with_capacity(names.len());
        let mut star_cursor = 0usize;
        for e in &exprs {
            match e {
                None => {
                    r.push(row[star_cursor].clone());
                    star_cursor += 1;
                }
                Some(expr) => r.push(eval_expr(expr, row, resolver)?.clone()),
            }
        }
        out.push(r);
    }
    Ok((names, out))
}

/// Projection with grouping and aggregates.
fn aggregate(
    sel: &SelectStmt,
    rows: &[Vec<Atomic>],
    resolver: &Resolver,
) -> Result<(Vec<String>, Vec<Vec<Atomic>>), SqlError> {
    let group_cols: Vec<usize> = sel
        .group_by
        .iter()
        .map(|c| resolver.resolve(c))
        .collect::<Result<_, _>>()?;

    // group key → (representative row, member rows)
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, (Vec<Atomic>, Vec<Vec<Atomic>>)> = HashMap::new();
    for row in rows {
        let key: String = group_cols
            .iter()
            .map(|&c| row[c].lexical())
            .collect::<Vec<_>>()
            .join("\u{1}");
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        let entry = groups
            .entry(key)
            .or_insert_with(|| (row.clone(), Vec::new()));
        entry.1.push(row.clone());
    }
    // Global aggregate over empty input still produces one row.
    if group_cols.is_empty() && groups.is_empty() {
        order.push(String::new());
        groups.insert(
            String::new(),
            (vec![Atomic::Null; resolver.width()], Vec::new()),
        );
    }

    let mut names = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                return Err(SqlError::new(
                    "SELECT * cannot be combined with GROUP BY/aggregates",
                ))
            }
            SelectItem::Expr { expr, alias } => names.push(output_name(expr, alias, i)),
        }
    }

    let mut out_rows = Vec::new();
    for key in order {
        let (rep, members) = &groups[&key];
        let mut row = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                row.push(eval_with_aggs(expr, rep, members, resolver)?);
            }
        }
        out_rows.push(row);
    }
    Ok((names, out_rows))
}

fn output_name(expr: &SqlExpr, alias: &Option<String>, i: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        SqlExpr::Col(c) => c.to_string(),
        SqlExpr::Agg(kind, _) => format!("{:?}", kind).to_lowercase(),
        _ => format!("expr{}", i + 1),
    }
}

/// Evaluate an expression that may contain aggregate nodes: aggregates
/// compute over the group's member rows, the rest over the representative
/// row.
fn eval_with_aggs(
    expr: &SqlExpr,
    rep: &[Atomic],
    members: &[Vec<Atomic>],
    resolver: &Resolver,
) -> Result<Atomic, SqlError> {
    match expr {
        SqlExpr::Agg(kind, arg) => {
            let values: Vec<Atomic> = match arg {
                None => members.iter().map(|_| Atomic::Bool(true)).collect(),
                Some(e) => members
                    .iter()
                    .map(|r| eval_expr(e, r, resolver))
                    .collect::<Result<_, _>>()?,
            };
            agg_compute(*kind, &values)
        }
        SqlExpr::Arith(op, a, b) => {
            let l = eval_with_aggs(a, rep, members, resolver)?;
            let r = eval_with_aggs(b, rep, members, resolver)?;
            arith(*op, &l, &r)
        }
        other => eval_expr(other, rep, resolver),
    }
}

fn agg_compute(kind: AggKind, values: &[Atomic]) -> Result<Atomic, SqlError> {
    let non_null: Vec<&Atomic> = values.iter().filter(|v| !v.is_null()).collect();
    match kind {
        AggKind::Count => Ok(Atomic::Int(non_null.len() as i64)),
        AggKind::Sum => {
            if non_null.is_empty() {
                return Ok(Atomic::Null);
            }
            let mut all_int = true;
            let mut total = 0.0;
            for v in &non_null {
                match v {
                    Atomic::Int(i) => total += *i as f64,
                    Atomic::Float(f) => {
                        total += f;
                        all_int = false;
                    }
                    other => {
                        return Err(SqlError::new(format!("SUM over non-number {:?}", other)))
                    }
                }
            }
            Ok(if all_int {
                Atomic::Int(total as i64)
            } else {
                Atomic::Float(total)
            })
        }
        AggKind::Min => Ok(non_null
            .iter()
            .min_by(|a, b| cmp_atomics(a, b))
            .map(|v| (*v).clone())
            .unwrap_or(Atomic::Null)),
        AggKind::Max => Ok(non_null
            .iter()
            .max_by(|a, b| cmp_atomics(a, b))
            .map(|v| (*v).clone())
            .unwrap_or(Atomic::Null)),
        AggKind::Avg => {
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Ok(Atomic::Null)
            } else {
                Ok(Atomic::Float(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
    }
}

/// Evaluate an aggregate-free expression on one flat row.
pub fn eval_expr(
    expr: &SqlExpr,
    row: &[Atomic],
    resolver: &Resolver,
) -> Result<Atomic, SqlError> {
    match expr {
        SqlExpr::Col(c) => Ok(row[resolver.resolve(c)?].clone()),
        SqlExpr::Lit(v) => Ok(v.clone()),
        SqlExpr::Cmp(op, l, r) => {
            let lv = eval_expr(l, row, resolver)?;
            let rv = eval_expr(r, row, resolver)?;
            if lv.is_null() || rv.is_null() {
                // SQL three-valued logic collapsed to false.
                return Ok(Atomic::Bool(false));
            }
            let ord = cmp_atomics(&lv, &rv);
            let b = match op {
                SqlCmp::Eq => ord == Ordering::Equal,
                SqlCmp::Ne => ord != Ordering::Equal,
                SqlCmp::Lt => ord == Ordering::Less,
                SqlCmp::Le => ord != Ordering::Greater,
                SqlCmp::Gt => ord == Ordering::Greater,
                SqlCmp::Ge => ord != Ordering::Less,
            };
            Ok(Atomic::Bool(b))
        }
        SqlExpr::And(a, b) => Ok(Atomic::Bool(
            eval_expr(a, row, resolver)?.truthy() && eval_expr(b, row, resolver)?.truthy(),
        )),
        SqlExpr::Or(a, b) => Ok(Atomic::Bool(
            eval_expr(a, row, resolver)?.truthy() || eval_expr(b, row, resolver)?.truthy(),
        )),
        SqlExpr::Not(e) => Ok(Atomic::Bool(!eval_expr(e, row, resolver)?.truthy())),
        SqlExpr::Arith(op, a, b) => {
            let l = eval_expr(a, row, resolver)?;
            let r = eval_expr(b, row, resolver)?;
            arith(*op, &l, &r)
        }
        SqlExpr::Like(e, pattern) => {
            let v = eval_expr(e, row, resolver)?;
            Ok(Atomic::Bool(like_match(&v.lexical(), pattern)))
        }
        SqlExpr::In(e, items) => {
            Ok(Atomic::Bool(items.contains(eval_expr(e, row, resolver)?)))
        }
        SqlExpr::Between(e, lo, hi) => {
            let v = eval_expr(e, row, resolver)?;
            if v.is_null() {
                return Ok(Atomic::Bool(false));
            }
            Ok(Atomic::Bool(
                cmp_atomics(&v, lo) != Ordering::Less && cmp_atomics(&v, hi) != Ordering::Greater,
            ))
        }
        SqlExpr::IsNull(e, negated) => {
            let v = eval_expr(e, row, resolver)?;
            Ok(Atomic::Bool(v.is_null() != *negated))
        }
        SqlExpr::Agg(..) => Err(SqlError::new(
            "aggregate used outside GROUP BY context",
        )),
    }
}

fn arith(op: SqlArith, l: &Atomic, r: &Atomic) -> Result<Atomic, SqlError> {
    if let (Atomic::Int(a), Atomic::Int(b)) = (l, r) {
        return match op {
            SqlArith::Add => Ok(Atomic::Int(a + b)),
            SqlArith::Sub => Ok(Atomic::Int(a - b)),
            SqlArith::Mul => Ok(Atomic::Int(a * b)),
            SqlArith::Div => {
                if *b == 0 {
                    Err(SqlError::new("division by zero"))
                } else {
                    Ok(Atomic::Int(a / b))
                }
            }
        };
    }
    let a = l
        .as_f64()
        .ok_or_else(|| SqlError::new(format!("non-numeric operand {:?}", l)))?;
    let b = r
        .as_f64()
        .ok_or_else(|| SqlError::new(format!("non-numeric operand {:?}", r)))?;
    match op {
        SqlArith::Add => Ok(Atomic::Float(a + b)),
        SqlArith::Sub => Ok(Atomic::Float(a - b)),
        SqlArith::Mul => Ok(Atomic::Float(a * b)),
        SqlArith::Div => {
            if b == 0.0 {
                Err(SqlError::new("division by zero"))
            } else {
                Ok(Atomic::Float(a / b))
            }
        }
    }
}

fn cmp_atomics(a: &Atomic, b: &Atomic) -> Ordering {
    a.total_cmp(b)
}

fn hash_key(a: &Atomic) -> String {
    match a {
        // Integers exactly representable as f64 coerce through f64 so
        // INT/FLOAT keys join; larger ones render exactly so distinct
        // i64 keys beyond 2^53 never conflate.
        Atomic::Int(i) if (*i as f64) as i64 == *i => format!("n{}", *i as f64),
        Atomic::Int(i) => format!("ix{}", i),
        Atomic::Float(f) => format!("n{}", f),
        other => format!("s{}", other.lexical()),
    }
}

fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest)),
            Some(('_', rest)) => t
                .split_first()
                .is_some_and(|(_, t_rest)| rec(t_rest, rest)),
            Some((c, rest)) => t
                .split_first()
                .is_some_and(|(tc, t_rest)| tc == c && rec(t_rest, rest)),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}
