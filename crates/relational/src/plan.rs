//! Name resolution and access-path selection.
//!
//! The planner is deliberately simple but real: single-table conjuncts are
//! pushed to base-table scans, where an applicable index (hash for
//! equality, B-tree for equality or ranges) replaces the sequential scan;
//! joins execute left-deep with hash joins on their equi-conditions. The
//! decisions are observable through [`crate::database::ExecStats`], which
//! is what the mediator's cost model and experiment E5 consume.

use crate::error::SqlError;
use crate::sql::ast::*;
use crate::types::Column;
#[cfg(test)]
use nimble_xml::Atomic;

/// One table binding of the FROM/JOIN list, with its flat column offset.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Alias (or table name) other clauses use.
    pub name: String,
    /// Underlying table name.
    pub table: String,
    pub columns: Vec<Column>,
    /// Offset of this binding's first column in the joined flat row.
    pub offset: usize,
}

/// Resolves column references against the bindings of a query.
#[derive(Debug, Clone)]
pub struct Resolver {
    pub bindings: Vec<Binding>,
}

impl Resolver {
    /// Flat column index of a reference; errors on unknown or ambiguous
    /// names.
    pub fn resolve(&self, col: &ColRef) -> Result<usize, SqlError> {
        match &col.table {
            Some(t) => {
                let b = self
                    .bindings
                    .iter()
                    .find(|b| &b.name == t)
                    .ok_or_else(|| SqlError::new(format!("unknown table {:?}", t)))?;
                let ci = b
                    .columns
                    .iter()
                    .position(|c| c.name == col.column)
                    .ok_or_else(|| {
                        SqlError::new(format!("no column {:?} in {}", col.column, b.table))
                    })?;
                Ok(b.offset + ci)
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(ci) = b.columns.iter().position(|c| c.name == col.column) {
                        if found.is_some() {
                            return Err(SqlError::new(format!(
                                "ambiguous column {:?}",
                                col.column
                            )));
                        }
                        found = Some(b.offset + ci);
                    }
                }
                found.ok_or_else(|| SqlError::new(format!("unknown column {:?}", col.column)))
            }
        }
    }

    /// The binding that owns a flat column index.
    pub fn binding_of(&self, flat: usize) -> &Binding {
        self.bindings
            .iter()
            .rev()
            .find(|b| flat >= b.offset)
            .expect("flat index within bindings")
    }

    /// Total width of the joined row.
    pub fn width(&self) -> usize {
        self.bindings
            .last()
            .map(|b| b.offset + b.columns.len())
            .unwrap_or(0)
    }

    /// Qualified output names (`binding.column`) for `SELECT *`.
    pub fn all_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        for b in &self.bindings {
            for c in &b.columns {
                out.push(format!("{}.{}", b.name, c.name));
            }
        }
        out
    }
}

/// How a base table will be accessed. A key is an [`Operand`]: the path
/// is the same whether the statement spelled the value or left a slot
/// for it, which is what lets a prepared statement fix it once.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Read every row.
    FullScan,
    /// Probe an index for equality on a column.
    IndexEq { column: String, key: Operand },
    /// Probe an index once per key of an `IN` list. The probes answer
    /// the list exactly, so conjunct number `conjunct` (of those the
    /// path was chosen from) needs no evaluation on the rows they find.
    IndexIn {
        column: String,
        keys: InKeys,
        conjunct: usize,
    },
    /// Range scan of a B-tree index.
    IndexRange {
        column: String,
        low: Option<(Operand, bool)>,
        high: Option<(Operand, bool)>,
    },
}

/// Pick the best single-column access path for a table given its pushed
/// conjuncts. Preference: equality probe > `IN` probes > range scan >
/// full scan. The choice reads which columns are indexed and how, never
/// a literal's value.
pub fn choose_access_path(
    indexed: &[(String, crate::table::IndexKind)],
    conjuncts: &[SqlExpr],
    binding: &str,
) -> AccessPath {
    use crate::table::IndexKind;
    // Equality probes first (hash or btree both serve them).
    for c in conjuncts {
        if let SqlExpr::Cmp(SqlCmp::Eq, l, r) = c {
            if let Some((col, lit)) = col_lit(l, r, binding) {
                if indexed.iter().any(|(n, _)| n == &col) {
                    return AccessPath::IndexEq {
                        column: col,
                        key: lit,
                    };
                }
            }
        }
    }
    // Then one probe per listed key (again hash or btree).
    for (conjunct, c) in conjuncts.iter().enumerate() {
        if let SqlExpr::In(e, keys) = c {
            if let SqlExpr::Col(cr) = e.as_ref() {
                if owned_by(cr, binding) && indexed.iter().any(|(n, _)| n == &cr.column) {
                    return AccessPath::IndexIn {
                        column: cr.column.clone(),
                        keys: keys.clone(),
                        conjunct,
                    };
                }
            }
        }
    }
    // Ranges need a B-tree.
    for c in conjuncts {
        let (op, l, r) = match c {
            SqlExpr::Cmp(op, l, r) => (*op, l, r),
            SqlExpr::Between(e, lo, hi) => {
                if let SqlExpr::Col(cr) = e.as_ref() {
                    if owned_by(cr, binding) {
                        let col = cr.column.clone();
                        if indexed
                            .iter()
                            .any(|(n, k)| n == &col && *k == IndexKind::BTree)
                        {
                            return AccessPath::IndexRange {
                                column: col,
                                low: Some((Operand::Lit(lo.clone()), true)),
                                high: Some((Operand::Lit(hi.clone()), true)),
                            };
                        }
                    }
                }
                continue;
            }
            _ => continue,
        };
        if let Some((col, lit)) = col_lit(l, r, binding) {
            let has_btree = indexed
                .iter()
                .any(|(n, k)| n == &col && *k == IndexKind::BTree);
            if !has_btree {
                continue;
            }
            // Orient the operator so the column is on the left.
            let col_on_left = matches!(l.as_ref(), SqlExpr::Col(_));
            let op = if col_on_left { Some(op) } else { op.flipped() };
            let path = match op {
                Some(SqlCmp::Lt) => AccessPath::IndexRange {
                    column: col,
                    low: None,
                    high: Some((lit, false)),
                },
                Some(SqlCmp::Le) => AccessPath::IndexRange {
                    column: col,
                    low: None,
                    high: Some((lit, true)),
                },
                Some(SqlCmp::Gt) => AccessPath::IndexRange {
                    column: col,
                    low: Some((lit, false)),
                    high: None,
                },
                Some(SqlCmp::Ge) => AccessPath::IndexRange {
                    column: col,
                    low: Some((lit, true)),
                    high: None,
                },
                _ => continue,
            };
            return path;
        }
    }
    AccessPath::FullScan
}

/// If the comparison is `col <op> literal` (either orientation, the
/// literal written or left as a slot) with the column owned by
/// `binding`, return the column name and the literal position.
fn col_lit(l: &SqlExpr, r: &SqlExpr, binding: &str) -> Option<(String, Operand)> {
    let operand = |e: &SqlExpr| match e {
        SqlExpr::Lit(v) => Some(Operand::Lit(v.clone())),
        SqlExpr::Slot(n) => Some(Operand::Slot(*n)),
        _ => None,
    };
    match (l, r) {
        (SqlExpr::Col(c), other) | (other, SqlExpr::Col(c)) if owned_by(c, binding) => {
            operand(other).map(|v| (c.column.clone(), v))
        }
        _ => None,
    }
}

fn owned_by(c: &ColRef, binding: &str) -> bool {
    match &c.table {
        Some(t) => t == binding,
        // Unqualified columns reach here only when the query has a single
        // binding, so ownership is unambiguous.
        None => true,
    }
}

/// True when every column the expression references is available among
/// the given binding names — the pushdown test.
pub fn refers_only_to(expr: &SqlExpr, bindings: &[&str]) -> bool {
    expr.columns().iter().all(|c| match &c.table {
        Some(t) => bindings.contains(&t.as_str()),
        None => bindings.len() == 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::IndexKind;

    fn eq(col: &str, v: i64) -> SqlExpr {
        SqlExpr::Cmp(
            SqlCmp::Eq,
            Box::new(SqlExpr::Col(ColRef::new(Some("t"), col))),
            Box::new(SqlExpr::Lit(Atomic::Int(v))),
        )
    }

    #[test]
    fn equality_beats_range() {
        let indexed = vec![
            ("a".to_string(), IndexKind::BTree),
            ("b".to_string(), IndexKind::Hash),
        ];
        let conj = vec![
            SqlExpr::Cmp(
                SqlCmp::Gt,
                Box::new(SqlExpr::Col(ColRef::new(Some("t"), "a"))),
                Box::new(SqlExpr::Lit(Atomic::Int(5))),
            ),
            eq("b", 3),
        ];
        match choose_access_path(&indexed, &conj, "t") {
            AccessPath::IndexEq { column, .. } => assert_eq!(column, "b"),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn in_list_ranks_between_equality_and_range() {
        let indexed = vec![
            ("a".to_string(), IndexKind::BTree),
            ("b".to_string(), IndexKind::Hash),
        ];
        let col = |c: &str| Box::new(SqlExpr::Col(ColRef::new(Some("t"), c)));
        let range = SqlExpr::Cmp(SqlCmp::Gt, col("a"), Box::new(SqlExpr::Lit(Atomic::Int(5))));
        let list = SqlExpr::In(
            col("b"),
            InKeys::List(InList::new(vec![Atomic::Int(1), Atomic::Int(2)])),
        );
        match choose_access_path(&indexed, &[range.clone(), list.clone()], "t") {
            AccessPath::IndexIn {
                column, conjunct, ..
            } => {
                assert_eq!(column, "b");
                assert_eq!(conjunct, 1);
            }
            other => panic!("{:?}", other),
        }
        assert!(matches!(
            choose_access_path(&indexed, &[list.clone(), eq("a", 3)], "t"),
            AccessPath::IndexEq { .. }
        ));
        // A list over an unindexed column leaves the range to win.
        let unindexed = vec![("a".to_string(), IndexKind::BTree)];
        assert!(matches!(
            choose_access_path(&unindexed, &[list, range], "t"),
            AccessPath::IndexRange { .. }
        ));
    }

    #[test]
    fn range_requires_btree() {
        let hash_only = vec![("a".to_string(), IndexKind::Hash)];
        let conj = vec![SqlExpr::Cmp(
            SqlCmp::Lt,
            Box::new(SqlExpr::Col(ColRef::new(Some("t"), "a"))),
            Box::new(SqlExpr::Lit(Atomic::Int(5))),
        )];
        assert_eq!(
            choose_access_path(&hash_only, &conj, "t"),
            AccessPath::FullScan
        );
        let btree = vec![("a".to_string(), IndexKind::BTree)];
        assert!(matches!(
            choose_access_path(&btree, &conj, "t"),
            AccessPath::IndexRange { .. }
        ));
    }

    #[test]
    fn flipped_literal_orientation() {
        let btree = vec![("a".to_string(), IndexKind::BTree)];
        // 5 < t.a  ≡  t.a > 5
        let conj = vec![SqlExpr::Cmp(
            SqlCmp::Lt,
            Box::new(SqlExpr::Lit(Atomic::Int(5))),
            Box::new(SqlExpr::Col(ColRef::new(Some("t"), "a"))),
        )];
        match choose_access_path(&btree, &conj, "t") {
            AccessPath::IndexRange { low, high, .. } => {
                assert_eq!(low, Some((Operand::Lit(Atomic::Int(5)), false)));
                assert_eq!(high, None);
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn no_index_full_scan() {
        assert_eq!(
            choose_access_path(&[], &[eq("a", 1)], "t"),
            AccessPath::FullScan
        );
    }
}
