//! Physical operators (Volcano-style pull iterators with a vectorized
//! batch interface).
//!
//! Every operator implements [`Operator`]: `open` prepares state, `next`
//! yields one tuple, `close` releases resources. Operators own their
//! children as boxed trait objects; plans are trees built by the
//! mediator's planner.
//!
//! On top of the tuple-at-a-time contract sits [`Operator::next_batch`]:
//! consumers that can process many tuples per call (the engine's join
//! run, materializing parents like sorts and hash builds) pull batches
//! of ~[`DEFAULT_BATCH_SIZE`] tuples and pay one virtual dispatch per
//! batch instead of one per row. The default implementation loops
//! `next`, so third-party / opaque operators participate unchanged; the
//! hot built-ins override it with batch-native kernels.

mod empty;
mod exchange;
mod filter;
mod join;
mod metered;
mod project;
mod scan;
mod sort;

pub use empty::EmptyOp;
pub use exchange::{ExchangeOp, ShardFailure};
pub use filter::FilterOp;
pub use join::{HashJoinOp, JoinType, NestedLoopJoinOp};
pub use metered::{MeteredOp, OpProfile};
pub use project::ProjectOp;
pub use scan::{LazySourceOp, ValuesOp};
pub use sort::{SortKey, SortOp};

use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::schema::{Schema, Tuple};

/// Default number of tuples moved per `next_batch` call. Chosen so a
/// batch of small tuples stays cache-resident while amortizing the
/// per-call virtual dispatch to noise.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Per-participant busy times from one round on the worker pool
/// (hash-join build key extraction).
///
/// `workers == 0` means the operator ran in parallel mode but the input
/// fell below the profitability threshold (or no pool exists on a
/// single-core host), so the serial kernel ran — the "threshold-skipped"
/// case the engine counts separately from genuine parallel rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParProfile {
    /// Pool participants in the round, the submitting thread included
    /// (0 = threshold-skipped).
    pub workers: usize,
    /// Wall-clock busy time of each participant, in microseconds, by
    /// pool slot. Spread across entries is idle/imbalance evidence.
    pub busy_us: Vec<u64>,
}

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

/// The physical-operator interface.
pub trait Operator: Send {
    /// Output schema (variable names per column).
    fn schema(&self) -> &Schema;
    /// Prepare for iteration. Must be called before `next`.
    fn open(&mut self) -> Result<(), ExecError>;
    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<Tuple>, ExecError>;
    /// Append up to `max` tuples to `out`, returning how many were
    /// appended. `Ok(0)` means end of stream (callers must not retry).
    ///
    /// Contract notes:
    /// - `max` is a *hint*: batch-native operators whose unit of work
    ///   fans out (one probe row matching many build rows) may append a
    ///   few more than `max` rather than buffer the remainder.
    /// - The default implementation loops [`Operator::next`], so opaque
    ///   / third-party operators participate in batched pipelines
    ///   unchanged, just without the batch speedup.
    /// - Mixing `next` and `next_batch` on one open operator is
    ///   allowed; both draw from the same stream position.
    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let mut appended = 0;
        while appended < max {
            match self.next()? {
                Some(t) => {
                    out.push(t);
                    appended += 1;
                }
                None => break,
            }
        }
        Ok(appended)
    }
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
    /// Measured execution profile, when this node is wrapped by
    /// [`MeteredOp`] (EXPLAIN ANALYZE). Plain operators report `None`.
    fn profile(&self) -> Option<OpProfile> {
        None
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
    /// Bytes of buffered state this operator currently holds (hash-join
    /// build tables, sort buffers, scan batches). An O(1) hint computed
    /// when the buffer is built, not a live measurement; 0 for
    /// streaming operators. EXPLAIN ANALYZE renders it as `[mem=N]`.
    fn mem_bytes(&self) -> u64 {
        0
    }
    /// Per-worker busy times of this operator's most recent parallel
    /// section, when it ran one (see [`ParProfile`]). `None` for
    /// operators that never fork.
    fn par_profile(&self) -> Option<&ParProfile> {
        None
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
