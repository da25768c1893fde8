//! # nimble-algebra
//!
//! The **physical algebra** of the Nimble reproduction and its
//! Volcano-style (open/next/close) executor.
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
//! * [`ops::ValuesOp`], [`ops::LazySourceOp`] — in-memory tuple sources
//!   (the second fetches on `open`).
//! * [`ops::FilterOp`] — predicate selection.
//! * [`ops::ProjectOp`] — projection / computed columns / renaming.
//! * [`ops::HashJoinOp`] (equi-join), [`ops::NestedLoopJoinOp`]
//!   (arbitrary predicate) — inner joins.
//! * [`ops::SortOp`] — order by value with document-order tiebreak.
//! * [`ops::ExchangeOp`] — scatter-gather over shard-local subtrees
//!   (parallel gather on the morsel pool, partial-merge on shard loss).
//! * [`ops::EmptyOp`] — a subtree the planner proved empty.
//! * [`ops::MeteredOp`] — EXPLAIN ANALYZE's timing wrapper.
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
pub use expr::{ArithOp, CmpOp, ScalarExpr};
pub use par::{par_tasks, pool_stats};
pub use funcs::FunctionRegistry;
pub use inspect::{OpInfo, OrderEffect, SchemaRule};
pub use lineage::LineageMask;
pub use ops::Operator;
pub use schema::{Schema, SchemaError, Tuple};

/// Drain an operator into a vector (open → next* → close).
pub fn run_to_vec(op: &mut dyn Operator) -> Result<Vec<Tuple>, ExecError> {
    op.open()?;
    let mut out = Vec::new();
    while let Some(t) = op.next()? {
        out.push(t);
    }
    op.close();
    Ok(out)
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

/// Render an operator tree as an indented EXPLAIN listing with row counts
/// (row counts are populated after execution).
pub fn explain(op: &dyn Operator) -> String {
    explain_walk(op, false)
}

/// EXPLAIN ANALYZE rendering: the same listing as [`explain`], with each
/// metered node (see [`ops::MeteredOp`]) annotated with its actual row
/// count and measured open/next times. Times are inclusive of children,
/// so a node's cost is read as `total - sum(children)`.
pub fn explain_analyze(op: &dyn Operator) -> String {
    explain_walk(op, true)
}

fn explain_walk(op: &dyn Operator, analyze: bool) -> String {
    let mut out = String::new();
    fn walk(op: &dyn Operator, depth: usize, analyze: bool, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&op.describe());
        if op.rows_out() > 0 {
            out.push_str(&format!("  [rows={}]", op.rows_out()));
        }
        if let Some(est) = op.est_rows() {
            out.push_str(&format!("  [est={}]", est));
        }
        if analyze {
            if let Some(masks) = op.lineage() {
                if !masks.is_empty() {
                    out.push_str(&format!("  [src={}]", lineage::distinct_masks(masks)));
                }
            }
            if let Some(p) = op.profile() {
                out.push_str(&format!(
                    "  (actual rows={} open={:.3}ms next={:.3}ms)",
                    p.rows,
                    p.open_ns as f64 / 1e6,
                    p.next_ns as f64 / 1e6
                ));
                if p.mem_bytes > 0 {
                    out.push_str(&format!("  [mem={}]", p.mem_bytes));
                }
            } else if op.mem_bytes() > 0 {
                out.push_str(&format!("  [mem={}]", op.mem_bytes()));
            }
        }
        out.push('\n');
        for c in op.children() {
            walk(c, depth + 1, analyze, out);
        }
    }
    walk(op, 0, analyze, &mut out);
    out
}
