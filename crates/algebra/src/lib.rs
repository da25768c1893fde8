//! # nimble-algebra
//!
//! The **physical algebra** of the Nimble reproduction and its pull
//! executor (open / next_batch / close).
//!
//! The paper (§3.1) distinguishes two roles an algebra can play — an
//! abstraction of the query language, and a model of the physical
//! operators the query processor implements — and deliberately designs
//! only the latter: "In our work we focussed on designing a physical
//! algebra, because it had direct impact on the design and implementation
//! of our system." This crate is that physical algebra. The mediator in
//! `nimble-core` translates XML-QL through a thin internal representation
//! *directly* into trees of these operators, with no logical-algebra
//! stage, exactly as the paper describes.
//!
//! ## Data model
//!
//! Operators exchange [`Tuple`]s of [`nimble_xml::Value`]s — bindings of
//! query variables to atomics, XML nodes, or lists — described by a
//! [`Schema`] of variable names. Node bindings are by reference into
//! shared documents, so tuples are cheap to copy and document order is
//! preserved end to end.
//!
//! ## Operators
//!
//! Exactly the operators the mediator's planner emits — XML-QL has no
//! DISTINCT, LIMIT or outer join, and CONSTRUCT groups and aggregates
//! over Skolem ids itself:
//!
//! * [`ops::ValuesOp`] — an in-memory tuple source.
//! * [`ops::FilterOp`] — predicate selection.
//! * [`ops::ProjectOp`] — projection / computed columns / renaming.
//! * [`ops::HashJoinOp`] (equi-join), [`ops::NestedLoopJoinOp`]
//!   (arbitrary predicate) — inner joins.
//! * [`ops::SortOp`] — order by value with document-order tiebreak.
//! * [`ops::EmptyOp`] — a subtree the planner proved empty.
//!
//! Pattern binding over fetched documents is an operator of the
//! mediator's own (`BindPatternOp` in `nimble-core`).
//!
//! ```
//! use nimble_algebra::{ops, Schema, ScalarExpr, CmpOp, FunctionRegistry, run_to_vec};
//! use nimble_xml::Value;
//! use std::sync::Arc;
//!
//! let schema = Schema::new(vec!["x".into()]);
//! let tuples = (0..10i64).map(|i| vec![Value::from(i)]).collect();
//! let scan = ops::ValuesOp::new(schema, tuples);
//! let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(0), ScalarExpr::lit(6i64));
//! let mut filter = ops::FilterOp::new(Box::new(scan), pred, Arc::new(FunctionRegistry::with_builtins()));
//! let rows = run_to_vec(&mut filter).unwrap();
//! assert_eq!(rows.len(), 3);
//! ```

#[cfg(test)]
mod differential_tests;
pub mod error;
pub mod expr;
pub mod funcs;
pub mod inspect;
pub mod lineage;
pub mod ops;
pub(crate) mod par;
pub mod schema;

pub use error::ExecError;
pub use expr::{ArithOp, CmpOp, LiteralTest, ScalarExpr};
pub use par::{par_tasks, pool_stats, Costs, Fork, Tasks, WAKE};
pub use funcs::FunctionRegistry;
pub use inspect::{OpInfo, OrderEffect, SchemaRule};
pub use lineage::LineageMask;
pub use ops::Operator;
pub use schema::{Schema, SchemaError, Tuple};

/// Drain an operator into a vector in batches of
/// [`ops::DEFAULT_BATCH_SIZE`] (open → next_batch* → close).
pub fn run_to_vec(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    Ok(run_to_vec_batched(op, ops::DEFAULT_BATCH_SIZE)?.0)
}

/// Drain an operator through [`Operator::next_batch`] in batches of
/// `batch_size` tuples (open → next_batch* → close). Returns the tuples
/// plus the number of batch calls that produced rows — the engine feeds
/// that into its `engine.exec.batches` counter.
pub fn run_to_vec_batched(
    op: &mut dyn Operator,
    batch_size: usize,
) -> Result<(Vec<Tuple>, u64), ExecError> {
    let batch_size = batch_size.max(1);
    op.open()?;
    let mut out = Vec::new();
    let mut batches = 0u64;
    loop {
        let n = op.next_batch(&mut out, batch_size)?;
        if n == 0 {
            break;
        }
        batches += 1;
    }
    op.close();
    Ok((out, batches))
}

/// Render an operator tree as an indented EXPLAIN listing, one line per
/// operator, read after a run: `[rows=N]` it emitted (when any),
/// `[est=N]` the planner expected, `[src=N]` distinct source sets of its
/// rows (when it tracks lineage) and `[mem=N]` bytes it buffered (when
/// any).
pub fn explain(op: &dyn Operator) -> String {
    fn walk(op: &dyn Operator, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&op.describe());
        if op.rows_out() > 0 {
            out.push_str(&format!("  [rows={}]", op.rows_out()));
        }
        if let Some(est) = op.est_rows() {
            out.push_str(&format!("  [est={}]", est));
        }
        if let Some(masks) = op.lineage().filter(|masks| !masks.is_empty()) {
            out.push_str(&format!("  [src={}]", lineage::distinct_masks(masks)));
        }
        if op.mem_bytes() > 0 {
            out.push_str(&format!("  [mem={}]", op.mem_bytes()));
        }
        out.push('\n');
        for c in op.children() {
            walk(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(op, 0, &mut out);
    out
}
