//! SQL abstract syntax.

use crate::table::IndexKind;
use crate::types::Column;
use nimble_xml::{Atomic, AtomicKey};
use std::collections::HashSet;
use std::sync::Arc;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<Column>,
    },
    CreateIndex {
        table: String,
        column: String,
        kind: IndexKind,
    },
    DropIndex {
        table: String,
        column: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Atomic>>,
    },
    Select(SelectStmt),
}

/// What a `?` slot of a prepared statement accepts, by where it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// One value, where a literal could stand.
    Value,
    /// The whole list of an `IN (?)`: any number of keys, so a statement
    /// does not depend on how many a caller binds.
    List,
    /// The pattern of a `LIKE ?`: a string.
    Pattern,
}

/// A literal position of a statement: the value as written, or the slot
/// (numbered left to right) that a `?` left open.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Lit(Atomic),
    Slot(usize),
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The statement's `?` slots, in the order they were written.
    pub slots: Vec<SlotKind>,
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    /// `FROM t AFTER ROW n`: only the rows of the FROM table past its
    /// first `n`, in insertion order — taken before the WHERE clause
    /// looks at any of them. Tables only grow at the end, so `n` is a
    /// high-water mark: the rows a reader that stopped at `n` has not
    /// seen.
    pub after_row: Option<Operand>,
    pub joins: Vec<Join>,
    pub where_clause: Option<SqlExpr>,
    pub group_by: Vec<ColRef>,
    pub order_by: Vec<(ColRef, bool)>,
    pub limit: Option<usize>,
}

/// One output column of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns of all tables in FROM order.
    Star,
    /// An expression with an optional alias.
    Expr { expr: SqlExpr, alias: Option<String> },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name other clauses refer to this table by.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An `[INNER|LEFT] JOIN t ON a.x = b.y` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub left_outer: bool,
    pub on_left: ColRef,
    pub on_right: ColRef,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColRef {
    pub fn new(table: Option<&str>, column: &str) -> ColRef {
        ColRef {
            table: table.map(str::to_string),
            column: column.to_string(),
        }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{}.{}", t, self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// SQL comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// SQL arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlArith {
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// The literal list of an `IN`. Its membership set is built once, when
/// the statement is parsed, so a row is tested in O(1) however long the
/// list; both halves are shared, so cloning a conjunct copies no keys.
/// Membership is [`Atomic::key_eq`], the equality index probes use.
#[derive(Debug, Clone, PartialEq)]
pub struct InList {
    items: Arc<[Atomic]>,
    set: Arc<HashSet<AtomicKey>>,
}

impl InList {
    pub fn new(items: Vec<Atomic>) -> InList {
        InList {
            set: Arc::new(items.iter().cloned().map(AtomicKey).collect()),
            items: items.into(),
        }
    }

    /// The literals as written.
    pub fn items(&self) -> &[Atomic] {
        &self.items
    }

    pub fn contains(&self, v: Atomic) -> bool {
        self.set.contains(&AtomicKey(v))
    }
}

/// What an `IN` tests against: the literal list as written, or the
/// list-valued slot of `IN (?)`.
#[derive(Debug, Clone, PartialEq)]
pub enum InKeys {
    List(InList),
    Slot(usize),
}

/// SQL scalar / boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Col(ColRef),
    Lit(Atomic),
    /// A value slot (`?` where a literal could stand).
    Slot(usize),
    Cmp(SqlCmp, Box<SqlExpr>, Box<SqlExpr>),
    And(Box<SqlExpr>, Box<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>),
    Not(Box<SqlExpr>),
    Arith(SqlArith, Box<SqlExpr>, Box<SqlExpr>),
    /// The pattern is a string literal or a [`SlotKind::Pattern`] slot.
    Like(Box<SqlExpr>, Operand),
    In(Box<SqlExpr>, InKeys),
    Between(Box<SqlExpr>, Atomic, Atomic),
    IsNull(Box<SqlExpr>, /*negated=*/ bool),
    /// `COUNT(*)` has no argument.
    Agg(AggKind, Option<Box<SqlExpr>>),
}

impl SqlExpr {
    /// All column references in the expression.
    pub fn columns(&self) -> Vec<&ColRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColRef>) {
        match self {
            SqlExpr::Col(c) => out.push(c),
            SqlExpr::Lit(_) | SqlExpr::Slot(_) => {}
            SqlExpr::Cmp(_, a, b) | SqlExpr::And(a, b) | SqlExpr::Or(a, b)
            | SqlExpr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            SqlExpr::Not(e)
            | SqlExpr::Like(e, _)
            | SqlExpr::In(e, _)
            | SqlExpr::Between(e, _, _)
            | SqlExpr::IsNull(e, _) => e.collect_columns(out),
            SqlExpr::Agg(_, e) => {
                if let Some(e) = e {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// True if the expression contains any aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg(..) => true,
            SqlExpr::Col(_) | SqlExpr::Lit(_) | SqlExpr::Slot(_) => false,
            SqlExpr::Cmp(_, a, b) | SqlExpr::And(a, b) | SqlExpr::Or(a, b)
            | SqlExpr::Arith(_, a, b) => a.has_aggregate() || b.has_aggregate(),
            SqlExpr::Not(e)
            | SqlExpr::Like(e, _)
            | SqlExpr::In(e, _)
            | SqlExpr::Between(e, _, _)
            | SqlExpr::IsNull(e, _) => e.has_aggregate(),
        }
    }

    /// Split a conjunctive expression into its AND-ed parts.
    pub fn split_conjuncts(self) -> Vec<SqlExpr> {
        match self {
            SqlExpr::And(a, b) => {
                let mut out = a.split_conjuncts();
                out.extend(b.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }
}
