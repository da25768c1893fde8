//! SELECT preparation and execution over heap tables.
//!
//! A SELECT is **prepared** once — table and column names resolved to
//! flat offsets, the WHERE split and every conjunct handed to the scan
//! or the residual that evaluates it, each table's access path fixed
//! from its indexes, output names and ORDER BY positions settled — and
//! **run** any number of times, each run binding values to the
//! statement's `?` slots. SQL text with no slot is the same two steps
//! back to back ([`crate::Database::execute`]); there is no other SELECT
//! executor.

use crate::database::{Database, ExecStats};
use crate::error::SqlError;
use crate::plan::{choose_access_path, refers_only_to, AccessPath, Binding, Resolver};
use crate::sql::ast::*;
use nimble_xml::atomic::cmp;
use nimble_xml::{Atomic, AtomicKey, CmpOp};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// What one run binds to one slot. A [`SlotKind::Value`] slot takes any
/// `Value` a SQL literal can spell, a [`SlotKind::Pattern`] slot a string
/// `Value`, a [`SlotKind::List`] slot a `List`.
#[derive(Debug, Clone, Copy)]
pub enum SlotValue<'a> {
    Value(&'a Atomic),
    List(&'a [Atomic]),
}

/// A prepared SELECT: everything about the statement that does not
/// depend on the values bound to its slots. It is stamped with the
/// schema generation it was prepared under and runs under no other
/// ([`Database::run`]).
#[derive(Debug)]
pub struct Prepared {
    pub(crate) generation: u64,
    slots: Vec<SlotKind>,
    /// One scan per table of the FROM/JOIN list, in that order.
    scans: Vec<Scan>,
    /// `AFTER ROW`: how many leading rows the first scan passes over.
    after_row: Option<Operand>,
    /// `joins[i]` attaches `scans[i + 1]` to the rows joined so far.
    joins: Vec<JoinStep>,
    /// Conjuncts no single scan could evaluate, over the joined row.
    residual: Vec<Expr>,
    output: Output,
    columns: Vec<String>,
    distinct: bool,
    /// Output positions to sort on, each with its `DESC` flag.
    order_by: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl Prepared {
    /// The statement's slots, in the order values are bound to them.
    pub fn slots(&self) -> &[SlotKind] {
        &self.slots
    }

    /// Output column names, in row order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub(crate) fn into_columns(self) -> Vec<String> {
        self.columns
    }
}

#[derive(Debug)]
struct Scan {
    table: String,
    /// The conjuncts that read this table alone, over the table's own
    /// row (offsets local to it).
    local: Vec<Expr>,
    path: AccessPath,
}

#[derive(Debug)]
struct JoinStep {
    left_outer: bool,
    /// Key position in the rows joined so far.
    acc_key: usize,
    /// Key position in the newly joined table's row.
    new_key: usize,
    right_width: usize,
}

#[derive(Debug)]
enum Output {
    Project(Vec<Expr>),
    Aggregate {
        group_by: Vec<usize>,
        items: Vec<Expr>,
        /// Width of the joined row (an empty input aggregates one row of
        /// nulls).
        width: usize,
    },
}

/// A [`SqlExpr`] with its names resolved: columns are row positions, and
/// the two spellings of a literal position are one [`Operand`].
#[derive(Debug)]
enum Expr {
    Col(usize),
    Val(Operand),
    Cmp(SqlCmp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Arith(SqlArith, Box<Expr>, Box<Expr>),
    Like(Box<Expr>, Operand),
    In(Box<Expr>, InKeys),
    Between(Box<Expr>, Atomic, Atomic),
    IsNull(Box<Expr>, /*negated=*/ bool),
    Agg(AggKind, Option<Box<Expr>>),
}

/// Resolve an expression's names. Column positions are taken relative
/// to `base`; a column that lies before it is an error the caller
/// avoids by compiling a scan's conjuncts only over that scan's columns.
fn compile(expr: &SqlExpr, resolver: &Resolver, base: usize) -> Result<Expr, SqlError> {
    let sub = |e: &SqlExpr| compile(e, resolver, base).map(Box::new);
    Ok(match expr {
        SqlExpr::Col(c) => Expr::Col(resolver.resolve(c)?.checked_sub(base).ok_or_else(|| {
            SqlError::new(format!("column {} is not available here", c))
        })?),
        SqlExpr::Lit(v) => Expr::Val(Operand::Lit(v.clone())),
        SqlExpr::Slot(n) => Expr::Val(Operand::Slot(*n)),
        SqlExpr::Cmp(op, a, b) => Expr::Cmp(*op, sub(a)?, sub(b)?),
        SqlExpr::And(a, b) => Expr::And(sub(a)?, sub(b)?),
        SqlExpr::Or(a, b) => Expr::Or(sub(a)?, sub(b)?),
        SqlExpr::Not(e) => Expr::Not(sub(e)?),
        SqlExpr::Arith(op, a, b) => Expr::Arith(*op, sub(a)?, sub(b)?),
        SqlExpr::Like(e, pattern) => Expr::Like(sub(e)?, pattern.clone()),
        SqlExpr::In(e, keys) => Expr::In(sub(e)?, keys.clone()),
        SqlExpr::Between(e, lo, hi) => Expr::Between(sub(e)?, lo.clone(), hi.clone()),
        SqlExpr::IsNull(e, negated) => Expr::IsNull(sub(e)?, *negated),
        SqlExpr::Agg(kind, arg) => Expr::Agg(*kind, arg.as_deref().map(sub).transpose()?),
    })
}

/// Prepare a SELECT against the database's current tables and indexes.
pub fn prepare_select(db: &Database, sel: &SelectStmt) -> Result<Prepared, SqlError> {
    // --- resolve bindings ---
    let mut bindings = Vec::new();
    let mut tables = Vec::new();
    let mut offset = 0usize;
    for tref in std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)) {
        let table = db
            .table(&tref.table)
            .ok_or_else(|| SqlError::new(format!("no table {:?}", tref.table)))?;
        tables.push(table);
        bindings.push(Binding {
            name: tref.binding().to_string(),
            table: tref.table.clone(),
            columns: table.columns.clone(),
            offset,
        });
        offset += table.columns.len();
    }
    let resolver = Resolver { bindings };

    let conjuncts: Vec<SqlExpr> = sel
        .where_clause
        .clone()
        .map(|w| w.split_conjuncts())
        .unwrap_or_default();
    let mut consumed = vec![false; conjuncts.len()];

    // --- one scan per binding: its own conjuncts and its access path ---
    let single_binding_query = resolver.bindings.len() == 1;
    let mut scans = Vec::new();
    for (binding, table) in resolver.bindings.iter().zip(tables) {
        let own = binding.offset..binding.offset + binding.columns.len();
        let mut local_sql = Vec::new();
        for (ci, c) in conjuncts.iter().enumerate() {
            let named_here = if single_binding_query {
                refers_only_to(c, &[binding.name.as_str()])
            } else {
                // With multiple bindings, only qualified references can
                // be pushed safely.
                c.columns()
                    .iter()
                    .all(|cr| cr.table.as_deref() == Some(binding.name.as_str()))
            };
            if !named_here {
                continue;
            }
            // Two bindings of one name: the name means the first of them.
            let mut resolved_here = true;
            for cr in c.columns() {
                resolved_here &= own.contains(&resolver.resolve(cr)?);
            }
            if resolved_here {
                local_sql.push(c.clone());
                consumed[ci] = true;
            }
        }
        let path = choose_access_path(&table.indexed_columns(), &local_sql, &binding.name);
        scans.push(Scan {
            table: binding.table.clone(),
            local: local_sql
                .iter()
                .map(|c| compile(c, &resolver, binding.offset))
                .collect::<Result<_, _>>()?,
            path,
        });
    }

    // --- left-deep joins ---
    let mut joins = Vec::new();
    for (join, right) in sel.joins.iter().zip(&resolver.bindings[1..]) {
        let a = resolver.resolve(&join.on_left)?;
        let b = resolver.resolve(&join.on_right)?;
        // Orient keys: one side is in the accumulated prefix, the other in
        // the newly joined table.
        let own = right.offset..right.offset + right.columns.len();
        let (acc_key, new_key) = match (own.contains(&a), own.contains(&b)) {
            (true, false) if b < right.offset => (b, a - right.offset),
            (false, true) if a < right.offset => (a, b - right.offset),
            _ => {
                return Err(SqlError::new(format!(
                    "join condition {} = {} does not connect to earlier tables",
                    join.on_left, join.on_right
                )))
            }
        };
        joins.push(JoinStep {
            left_outer: join.left_outer,
            acc_key,
            new_key,
            right_width: right.columns.len(),
        });
    }

    let residual = conjuncts
        .iter()
        .zip(&consumed)
        .filter(|(_, consumed)| !**consumed)
        .map(|(c, _)| compile(c, &resolver, 0))
        .collect::<Result<_, _>>()?;

    // --- output columns ---
    let has_agg = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            SelectItem::Star => false,
        });
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Star if has_agg => {
                return Err(SqlError::new(
                    "SELECT * cannot be combined with GROUP BY/aggregates",
                ))
            }
            SelectItem::Star => {
                names.extend(resolver.all_columns());
                exprs.extend((0..resolver.width()).map(Expr::Col));
            }
            SelectItem::Expr { expr, alias } => {
                names.push(output_name(expr, alias, i));
                exprs.push(compile(expr, &resolver, 0)?);
            }
        }
    }
    let output = if has_agg {
        Output::Aggregate {
            group_by: sel
                .group_by
                .iter()
                .map(|c| resolver.resolve(c))
                .collect::<Result<_, _>>()?,
            items: exprs,
            width: resolver.width(),
        }
    } else {
        Output::Project(exprs)
    };

    // --- order by ---
    // Resolve each key against output names first (aliases / bare column
    // names), falling back to qualified output names.
    let mut order_by = Vec::new();
    for (col, desc) in &sel.order_by {
        let target = col.to_string();
        // Exact match (alias or qualified name) wins; otherwise an
        // unqualified name may match a single qualified output — two
        // or more matches is an ambiguity error, not a silent pick.
        let idx = match names.iter().position(|n| n == &target || n == &col.column) {
            Some(i) => i,
            None => {
                let suffix = format!(".{}", target);
                let matches: Vec<usize> = names
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
        order_by.push((idx, *desc));
    }

    // Strip qualification from single-table outputs for friendlier names.
    if single_binding_query {
        for n in names.iter_mut() {
            if let Some(stripped) = n.split('.').nth(1) {
                *n = stripped.to_string();
            }
        }
    }

    Ok(Prepared {
        generation: db.generation(),
        slots: sel.slots.clone(),
        scans,
        after_row: sel.after_row.clone(),
        joins,
        residual,
        output,
        columns: names,
        distinct: sel.distinct,
        order_by,
        limit: sel.limit,
    })
}

/// The values of one run: what the caller bound, plus the membership set
/// of any bound list a conjunct has to test row by row (built on first
/// use — a list the access path answers by probing is never hashed).
struct Env<'a> {
    slots: &'a [SlotValue<'a>],
    sets: Vec<OnceCell<HashSet<AtomicKey>>>,
}

impl<'a> Env<'a> {
    /// Check the bound values against the statement's slots: as many
    /// values as slots, each of its slot's kind, and none a value SQL
    /// text has no literal for (so a bound run and the statement spelled
    /// out fail alike).
    fn bind(slots: &[SlotKind], values: &'a [SlotValue<'a>]) -> Result<Env<'a>, SqlError> {
        if slots.len() != values.len() {
            return Err(SqlError::new(format!(
                "statement has {} slots, {} values bound",
                slots.len(),
                values.len()
            )));
        }
        let spellable = |a: &Atomic| !matches!(a, Atomic::Float(f) if !f.is_finite());
        for (i, (kind, value)) in slots.iter().zip(values).enumerate() {
            let fits = match (kind, value) {
                (SlotKind::Value, SlotValue::Value(a)) => spellable(a),
                (SlotKind::Pattern, SlotValue::Value(a)) => a.as_str().is_some(),
                (SlotKind::List, SlotValue::List(keys)) => keys.iter().all(spellable),
                _ => false,
            };
            if !fits {
                return Err(SqlError::new(format!(
                    "slot {} takes a {:?}, {:?} bound",
                    i + 1,
                    kind,
                    value
                )));
            }
        }
        Ok(Env {
            slots: values,
            sets: values.iter().map(|_| OnceCell::new()).collect(),
        })
    }

    fn value(&self, operand: &'a Operand) -> Result<&'a Atomic, SqlError> {
        match operand {
            Operand::Lit(v) => Ok(v),
            Operand::Slot(n) => match self.slots.get(*n) {
                Some(SlotValue::Value(v)) => Ok(v),
                _ => Err(SqlError::new(format!("slot {} holds no value", n + 1))),
            },
        }
    }

    /// One end of a range, as the index takes it.
    fn bound(
        &self,
        end: &'a Option<(Operand, bool)>,
    ) -> Result<Option<(&'a Atomic, bool)>, SqlError> {
        end.as_ref()
            .map(|(v, inclusive)| Ok((self.value(v)?, *inclusive)))
            .transpose()
    }

    fn list(&self, slot: usize) -> Result<&'a [Atomic], SqlError> {
        match self.slots.get(slot) {
            Some(SlotValue::List(keys)) => Ok(keys),
            _ => Err(SqlError::new(format!("slot {} holds no list", slot + 1))),
        }
    }

    fn keys(&self, keys: &'a InKeys) -> Result<&'a [Atomic], SqlError> {
        match keys {
            InKeys::List(list) => Ok(list.items()),
            InKeys::Slot(n) => self.list(*n),
        }
    }

    /// `v IN keys`, by [`Atomic::key_eq`].
    fn contains(&self, keys: &InKeys, v: Atomic) -> Result<bool, SqlError> {
        match keys {
            InKeys::List(list) => Ok(list.contains(v)),
            InKeys::Slot(n) => {
                let list = self.list(*n)?;
                let set = self.sets[*n]
                    .get_or_init(|| list.iter().cloned().map(AtomicKey).collect());
                Ok(set.contains(&AtomicKey(v)))
            }
        }
    }
}

/// Run a prepared SELECT with `values` bound to its slots, counting the
/// statement (once its values fit: text that does not parse was never a
/// statement either) and what its scans read.
pub fn run_select(
    db: &Database,
    p: &Prepared,
    values: &[SlotValue<'_>],
    stats: &mut ExecStats,
) -> Result<Vec<Vec<Atomic>>, SqlError> {
    let env = Env::bind(&p.slots, values)?;
    stats.statements += 1;

    // --- base rows of the driving table, then left-deep joins ---
    let after_row = match &p.after_row {
        None => 0,
        Some(n) => match env.value(n)? {
            Atomic::Int(n) if *n >= 0 => *n as usize,
            other => return Err(SqlError::new(format!("AFTER ROW takes a row count, not {:?}", other))),
        },
    };
    let base = scan_rows(db, &p.scans[0], after_row, &env, stats)?;
    let mut joined: Vec<Vec<Atomic>> = Vec::new();
    if !p.joins.is_empty() {
        joined = base.iter().map(|r| r.to_vec()).collect();
    }
    for (join, scan) in p.joins.iter().zip(&p.scans[1..]) {
        let right_rows = scan_rows(db, scan, 0, &env, stats)?;
        // Hash the new table rows on their key, borrowed: keys join as
        // `Atomic::key_eq` equates them, NULL with NULL (README).
        let mut table_map: HashMap<AtomicKey<&Atomic>, Vec<&[Atomic]>> = HashMap::new();
        for &r in &right_rows {
            table_map.entry(AtomicKey(&r[join.new_key])).or_default().push(r);
        }
        let mut next = Vec::new();
        for left_row in joined {
            match table_map.get(&AtomicKey(&left_row[join.acc_key])) {
                Some(matches) => {
                    for m in matches {
                        let mut combined = left_row.clone();
                        combined.extend_from_slice(m);
                        next.push(combined);
                    }
                }
                None if join.left_outer => {
                    let mut combined = left_row;
                    combined.extend(std::iter::repeat_n(Atomic::Null, join.right_width));
                    next.push(combined);
                }
                None => {}
            }
        }
        joined = next;
    }
    let mut rows: Vec<&[Atomic]> = if p.joins.is_empty() {
        base
    } else {
        joined.iter().map(Vec::as_slice).collect()
    };

    // --- residual predicates ---
    for c in &p.residual {
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if eval(c, r, &env)?.truthy() {
                kept.push(r);
            }
        }
        rows = kept;
    }

    // --- projection / aggregation ---
    // A limit that nothing downstream can reorder or thin out is taken
    // here, so only the rows that leave are projected.
    if let Some(n) = p.limit {
        if matches!(p.output, Output::Project(_)) && !p.distinct && p.order_by.is_empty() {
            rows.truncate(n);
        }
    }
    let mut out_rows: Vec<Vec<Atomic>> = match &p.output {
        Output::Project(exprs) => rows
            .iter()
            .map(|row| {
                exprs
                    .iter()
                    .map(|e| eval(e, row, &env).map(Cow::into_owned))
                    .collect()
            })
            .collect::<Result<_, _>>()?,
        Output::Aggregate {
            group_by,
            items,
            width,
        } => aggregate(group_by, items, &rows, *width, &env)?,
    };

    // --- distinct ---
    // Rows are equal when every column is `AtomicKey`-equal, the
    // relation a join pairs keys by.
    if p.distinct {
        let mut seen = HashSet::new();
        let firsts: Vec<bool> = out_rows
            .iter()
            .map(|r| seen.insert(r.iter().map(AtomicKey).collect::<Vec<_>>()))
            .collect();
        let mut firsts = firsts.into_iter();
        out_rows.retain(|_| firsts.next() == Some(true));
    }

    // --- order by ---
    if !p.order_by.is_empty() {
        out_rows.sort_by(|a, b| {
            for (idx, desc) in &p.order_by {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // --- limit ---
    if let Some(n) = p.limit {
        out_rows.truncate(n);
    }
    Ok(out_rows)
}

/// The rows of one table past its first `after_row` that pass its own
/// conjuncts, read through the scan's access path and borrowed from the
/// table. The rows passed over are neither tested nor counted.
fn scan_rows<'d>(
    db: &'d Database,
    scan: &Scan,
    after_row: usize,
    env: &Env<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<&'d [Atomic]>, SqlError> {
    let table = db
        .table(&scan.table)
        .ok_or_else(|| SqlError::new(format!("no table {:?}", scan.table)))?;
    // The local conjunct the access path has already answered, if any.
    let mut answered: Option<usize> = None;
    // Row ids to visit, ascending; `None` reads the whole table. A path
    // is only prepared over a column that is indexed, and a statement
    // never runs under a schema newer than its own; a full scan is the
    // safe (and correct) fallback should that invariant ever break.
    let candidates: Option<Cow<'_, [usize]>> = match &scan.path {
        AccessPath::FullScan => None,
        AccessPath::IndexEq { column, key } => {
            stats.note_index(&scan.table, column);
            let key = env.value(key)?;
            table
                .index_on(column)
                .map(|ix| Cow::Borrowed(ix.lookup_eq(key)))
        }
        AccessPath::IndexIn {
            column,
            keys,
            conjunct,
        } => {
            let keys = env.keys(keys)?;
            stats.note_index(&scan.table, column);
            stats.index_lookups += (keys.len() as u64).saturating_sub(1);
            table.index_on(column).map(|ix| {
                // Sorted and de-duplicated (two listed keys may be
                // equal as keys), so rows come back in table order,
                // as a scan would return them.
                let mut ids: Vec<usize> = keys
                    .iter()
                    .flat_map(|k| ix.lookup_eq(k).iter().copied())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                answered = Some(*conjunct);
                Cow::Owned(ids)
            })
        }
        AccessPath::IndexRange { column, low, high } => {
            stats.note_index(&scan.table, column);
            let (low, high) = (env.bound(low)?, env.bound(high)?);
            table
                .index_on(column)
                .and_then(|ix| ix.lookup_range(low, high))
                .map(Cow::Owned)
        }
    };
    let all_rows = table.rows();
    let mut out = Vec::new();
    let mut visit = |row: &'d Vec<Atomic>| -> Result<(), SqlError> {
        for (k, c) in scan.local.iter().enumerate() {
            if answered != Some(k) && !eval(c, row, env)?.truthy() {
                return Ok(());
            }
        }
        out.push(row.as_slice());
        Ok(())
    };
    match candidates {
        None => {
            let rows = all_rows.get(after_row..).unwrap_or_default();
            stats.rows_scanned += rows.len() as u64;
            rows.iter().try_for_each(&mut visit)?;
        }
        Some(ids) => {
            for &rid in ids.iter().filter(|&&rid| rid >= after_row) {
                stats.rows_scanned += 1;
                visit(&all_rows[rid])?;
            }
        }
    }
    Ok(out)
}

/// Projection with grouping and aggregates.
fn aggregate(
    group_by: &[usize],
    items: &[Expr],
    rows: &[&[Atomic]],
    width: usize,
    env: &Env<'_>,
) -> Result<Vec<Vec<Atomic>>, SqlError> {
    // Groups in first-seen order: (representative row, member rows).
    let null_row = vec![Atomic::Null; width];
    let mut groups: Vec<(&[Atomic], Vec<&[Atomic]>)> = Vec::new();
    let mut group_of: HashMap<Vec<AtomicKey<&Atomic>>, usize> = HashMap::new();
    for &row in rows {
        let key = group_by.iter().map(|&c| AtomicKey(&row[c])).collect();
        let at = *group_of.entry(key).or_insert_with(|| {
            groups.push((row, Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push(row);
    }
    // Global aggregate over empty input still produces one row.
    if group_by.is_empty() && groups.is_empty() {
        groups.push((&null_row, Vec::new()));
    }
    groups
        .iter()
        .map(|(rep, members)| {
            items
                .iter()
                .map(|expr| eval_with_aggs(expr, rep, members, env))
                .collect()
        })
        .collect()
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
    expr: &Expr,
    rep: &[Atomic],
    members: &[&[Atomic]],
    env: &Env<'_>,
) -> Result<Atomic, SqlError> {
    match expr {
        Expr::Agg(kind, arg) => {
            let values: Vec<Atomic> = match arg {
                None => members.iter().map(|_| Atomic::Bool(true)).collect(),
                Some(e) => members
                    .iter()
                    .map(|r| eval(e, r, env).map(Cow::into_owned))
                    .collect::<Result<_, _>>()?,
            };
            agg_compute(*kind, &values)
        }
        Expr::Arith(op, a, b) => {
            let l = eval_with_aggs(a, rep, members, env)?;
            let r = eval_with_aggs(b, rep, members, env)?;
            arith(*op, &l, &r)
        }
        other => eval(other, rep, env).map(Cow::into_owned),
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
            .min_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Atomic::Null)),
        AggKind::Max => Ok(non_null
            .iter()
            .max_by(|a, b| a.total_cmp(b))
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

/// Evaluate an aggregate-free expression on one row. A column, a
/// literal and a bound value are handed back by reference; only a
/// computed value is owned.
fn eval<'a>(expr: &'a Expr, row: &'a [Atomic], env: &Env<'a>) -> Result<Cow<'a, Atomic>, SqlError> {
    let truth = |b: bool| Ok(Cow::Owned(Atomic::Bool(b)));
    match expr {
        Expr::Col(i) => Ok(Cow::Borrowed(&row[*i])),
        Expr::Val(v) => env.value(v).map(Cow::Borrowed),
        Expr::Cmp(op, l, r) => {
            let lv = eval(l, row, env)?;
            let rv = eval(r, row, env)?;
            if lv.is_null() || rv.is_null() {
                // SQL three-valued logic collapsed to false.
                return truth(false);
            }
            truth(op.accepts(lv.total_cmp(&rv)))
        }
        Expr::And(a, b) => truth(eval(a, row, env)?.truthy() && eval(b, row, env)?.truthy()),
        Expr::Or(a, b) => truth(eval(a, row, env)?.truthy() || eval(b, row, env)?.truthy()),
        Expr::Not(e) => truth(!eval(e, row, env)?.truthy()),
        Expr::Arith(op, a, b) => {
            let l = eval(a, row, env)?;
            let r = eval(b, row, env)?;
            arith(*op, &l, &r).map(Cow::Owned)
        }
        Expr::Like(e, pattern) => {
            // As in SQL, a NULL matches no pattern.
            let v = eval(e, row, env)?;
            truth(!v.is_null() && cmp(CmpOp::Like, &v, env.value(pattern)?))
        }
        Expr::In(e, keys) => truth(env.contains(keys, eval(e, row, env)?.into_owned())?),
        Expr::Between(e, lo, hi) => {
            let v = eval(e, row, env)?;
            truth(
                !v.is_null()
                    && v.total_cmp(lo) != Ordering::Less
                    && v.total_cmp(hi) != Ordering::Greater,
            )
        }
        Expr::IsNull(e, negated) => truth(eval(e, row, env)?.is_null() != *negated),
        Expr::Agg(..) => Err(SqlError::new("aggregate used outside GROUP BY context")),
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
