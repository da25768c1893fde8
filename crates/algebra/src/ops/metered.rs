//! Per-operator instrumentation: the EXPLAIN ANALYZE wrapper.
//!
//! [`MeteredOp`] wraps any operator and measures its open time, its
//! cumulative `next()` time, and the rows it produced, while staying
//! invisible to everything else: `schema`, `describe`, `children`,
//! `rows_out`, and `introspect` all delegate to the wrapped operator, so
//! EXPLAIN rendering and `nimble-planck` verification see the identical
//! plan. Times are *inclusive* — a parent's `next()` time contains its
//! children's, as in every EXPLAIN ANALYZE.
//!
//! The engine inserts these wrappers around every node it assembles
//! for a profiled serve (`Engine::query_profiled`,
//! `Engine::explain_analyze`); any other serve's plan carries no
//! wrappers and pays no per-tuple cost.

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::schema::{Schema, Tuple};
use std::time::Instant;

/// Measurements one [`MeteredOp`] collected over the last execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Time spent inside `open()` (hash builds, sorts, source fetches).
    pub open_ns: u64,
    /// Cumulative time inside `next()` calls, children included.
    pub next_ns: u64,
    /// Rows this operator produced.
    pub rows: u64,
    /// Largest buffered-state footprint the wrapped operator reported
    /// ([`Operator::mem_bytes`]), sampled after `open` and after each
    /// `next`/`next_batch` — the high-water mark of build tables, sort
    /// buffers, and scan batches during this execution.
    pub mem_bytes: u64,
}

impl OpProfile {
    /// Open + next time, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.open_ns + self.next_ns) as f64 / 1e6
    }
}

/// Transparent instrumentation wrapper (see module docs).
pub struct MeteredOp {
    inner: BoxedOp,
    open_ns: u64,
    next_ns: u64,
    rows: u64,
    mem_bytes: u64,
}

impl MeteredOp {
    pub fn new(inner: BoxedOp) -> MeteredOp {
        MeteredOp {
            inner,
            open_ns: 0,
            next_ns: 0,
            rows: 0,
            mem_bytes: 0,
        }
    }

    fn sample_mem(&mut self) {
        self.mem_bytes = self.mem_bytes.max(self.inner.mem_bytes());
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Operator for MeteredOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.open_ns = 0;
        self.next_ns = 0;
        self.rows = 0;
        self.mem_bytes = 0;
        let start = Instant::now();
        let result = self.inner.open();
        self.open_ns = elapsed_ns(start);
        self.sample_mem();
        result
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        let start = Instant::now();
        let result = self.inner.next();
        self.next_ns += elapsed_ns(start);
        if let Ok(Some(_)) = &result {
            self.rows += 1;
        }
        self.sample_mem();
        result
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        // Forward to the inner operator's batch kernel (the default
        // trait impl would loop *our* `next`, silently de-vectorizing
        // every profiled plan). Batch time is accounted under `next_ns`.
        let start = Instant::now();
        let result = self.inner.next_batch(out, max);
        self.next_ns += elapsed_ns(start);
        if let Ok(n) = &result {
            self.rows += *n as u64;
        }
        self.sample_mem();
        result
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn children(&self) -> Vec<&dyn Operator> {
        self.inner.children()
    }

    fn rows_out(&self) -> u64 {
        self.inner.rows_out()
    }

    fn introspect(&self) -> OpInfo {
        self.inner.introspect()
    }

    fn est_rows(&self) -> Option<u64> {
        self.inner.est_rows()
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.inner.set_est_rows(rows);
    }

    fn mem_bytes(&self) -> u64 {
        self.inner.mem_bytes()
    }

    fn lineage(&self) -> Option<&[crate::LineageMask]> {
        self.inner.lineage()
    }

    fn profile(&self) -> Option<OpProfile> {
        Some(OpProfile {
            open_ns: self.open_ns,
            next_ns: self.next_ns,
            rows: self.rows,
            mem_bytes: self.mem_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::int_source;
    use super::*;
    use crate::run_to_vec;

    #[test]
    fn metering_is_transparent_and_counts_rows() {
        let plain = int_source(&["x"], &[&[1], &[2], &[3]]);
        let mut metered = MeteredOp::new(Box::new(int_source(&["x"], &[&[1], &[2], &[3]])));
        assert_eq!(metered.schema(), plain.schema());
        assert_eq!(metered.describe(), plain.describe());
        assert_eq!(metered.introspect().name, plain.introspect().name);
        assert!(metered.children().is_empty());

        let rows = run_to_vec(&mut metered).unwrap();
        assert_eq!(rows.len(), 3);
        let p = metered.profile().unwrap();
        assert_eq!(p.rows, 3);
        assert_eq!(metered.rows_out(), 3);
        assert!(p.total_ms() >= 0.0);

        // Re-running resets the measurements.
        let _ = run_to_vec(&mut metered).unwrap();
        assert_eq!(metered.profile().unwrap().rows, 3);
    }

    #[test]
    fn unmetered_operators_have_no_profile() {
        let op = int_source(&["x"], &[&[1]]);
        assert!(op.profile().is_none());
    }
}
