//! Physical operators: pull iterators that hand rows over in batches.
//!
//! Every operator implements [`Operator`]: `open` prepares state,
//! [`Operator::next_batch`] appends up to ~[`DEFAULT_BATCH_SIZE`] rows
//! per call, `close` releases resources. A batch is the one way rows
//! move, so a parent pays one virtual dispatch per batch, not per row.
//! Operators own their children as boxed trait objects; plans are trees
//! built by the mediator's planner.

mod empty;
mod filter;
mod join;
mod project;
mod scan;
mod sort;

pub use empty::EmptyOp;
pub use filter::FilterOp;
pub use join::{HashJoinOp, JoinType, NestedLoopJoinOp};
pub use project::ProjectOp;
pub use scan::ValuesOp;
pub use sort::{SortKey, SortOp};

use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::schema::{Schema, Tuple};

/// Default number of tuples moved per `next_batch` call. Chosen so a
/// batch of small tuples stays cache-resident while amortizing the
/// per-call virtual dispatch to noise.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Approximate heap footprint of a buffered tuple set: `Vec` headers
/// plus value slots. Deliberately O(n) in tuples but O(1) per tuple —
/// string payloads are not walked — so operators can afford to compute
/// it once when a buffer is built and cache the result for the O(1)
/// [`Operator::mem_bytes`] hint.
pub fn tuples_mem_bytes(tuples: &[Tuple]) -> u64 {
    let slot = std::mem::size_of::<nimble_xml::Value>();
    let header = std::mem::size_of::<Tuple>();
    tuples
        .iter()
        .map(|t| (header + t.capacity() * slot) as u64)
        .sum()
}

/// Append every row an opened `op` has left to `out`, in batches of
/// [`DEFAULT_BATCH_SIZE`]: how a materializing operator reads a child.
pub(crate) fn drain(op: &mut dyn Operator, out: &mut Vec<Tuple>) -> Result<(), ExecError> {
    while op.next_batch(out, DEFAULT_BATCH_SIZE)? > 0 {}
    Ok(())
}

/// The physical-operator interface.
pub trait Operator: Send {
    /// Output schema (variable names per column).
    fn schema(&self) -> &Schema;
    /// Prepare for iteration. Must be called before `next_batch`.
    fn open(&mut self) -> Result<(), ExecError>;
    /// Append up to `max` tuples to `out`, returning how many were
    /// appended. `Ok(0)` means end of stream (callers must not retry).
    /// `max` is a *hint*: an operator whose input rows fan out (one
    /// probe row matching many build rows, one row binding many
    /// matches) may append more than `max` rather than buffer the
    /// remainder.
    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError>;
    /// Release resources. Idempotent.
    fn close(&mut self);
    /// One-line description for EXPLAIN output.
    fn describe(&self) -> String;
    /// Child operators, for plan walking.
    fn children(&self) -> Vec<&dyn Operator>;
    /// Tuples produced so far (monotonic across one execution).
    fn rows_out(&self) -> u64;
    /// Static metadata for plan verification (see `nimble-planck`). The
    /// default is an opaque node the verifier treats conservatively.
    fn introspect(&self) -> OpInfo {
        OpInfo::opaque(self.describe())
    }
    /// Planner-estimated output rows, rendered by EXPLAIN as `[est=N]`
    /// next to the actual `[rows=N]`. `None` when the planner had no
    /// statistics for this node.
    fn est_rows(&self) -> Option<u64> {
        None
    }
    /// Attach a cardinality estimate (called by cost-based planners;
    /// the default silently ignores it, so opaque operators need no
    /// changes).
    fn set_est_rows(&mut self, _rows: u64) {}
    /// Bytes of buffered state this operator built (hash-join build
    /// tables, sort buffers, scan batches). An O(1) hint computed when
    /// the buffer is built, not a live measurement, and still readable
    /// after `close`; 0 for streaming operators. EXPLAIN renders it as
    /// `[mem=N]`.
    fn mem_bytes(&self) -> u64 {
        0
    }
    /// Where-provenance side channel. `None` means this operator does
    /// not track lineage (the default — zero cost); `Some(masks)` holds
    /// one [`crate::LineageMask`] per tuple emitted since `open`, in
    /// emission order, and must remain readable after `close` (parents
    /// and the engine harvest lineage post-drain). An operator only
    /// tracks when every child it consumes tracks; before `open`, a
    /// tracking operator reports `Some(&[])`.
    fn lineage(&self) -> Option<&[crate::LineageMask]> {
        None
    }
}

/// Boxed operator alias used throughout planners.
pub type BoxedOp = Box<dyn Operator>;

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use nimble_xml::Value;

    /// Schema + integer rows shorthand for operator tests.
    pub fn int_source(vars: &[&str], rows: &[&[i64]]) -> ValuesOp {
        let schema = Schema::new(vars.iter().map(|s| s.to_string()).collect());
        let tuples = rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::from(v)).collect())
            .collect();
        ValuesOp::new(schema, tuples)
    }

    pub fn ints(tuple: &Tuple) -> Vec<i64> {
        tuple
            .iter()
            .map(|v| match v.atomize() {
                nimble_xml::Atomic::Int(i) => i,
                other => panic!("expected int, got {:?}", other),
            })
            .collect()
    }
}
