//! Scatter-gather Exchange: fan a scan subtree out across shard-local
//! children and merge their streams.
//!
//! Each child produces one shard's slice of a partitioned collection
//! (typically a [`super::LazySourceOp`] wrapping a shard-local fetch).
//! `open` **gathers**: every child is opened and drained to completion —
//! one task per child, on the process-wide task pool when the round pays
//! for it, inline otherwise ([`crate::par_tasks`], priced by each child's
//! expected gather time, [`ExchangeOp::with_costs`]) — and the buffered shard
//! streams are then served in child order through `next`/`next_batch`.
//!
//! A failing child is not fatal by default: the error is recorded as a
//! [`ShardFailure`] and the merge proceeds with the surviving shards —
//! the operator-level half of the mediator's partial-results story
//! (callers turn failures into `missing_sources` annotations).
//! [`ExchangeOp::fail_fast`] restores all-or-nothing semantics.

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::inspect::{OpInfo, SchemaRule};
use crate::par::Fork;
use crate::schema::{Schema, Tuple};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One child that failed to produce its shard during gather.
#[derive(Debug)]
pub struct ShardFailure {
    /// Child index (shard position in the exchange).
    pub child: usize,
    /// The child's shard label.
    pub label: String,
    pub error: ExecError,
}

/// Scatter-gather merge of shard-local streams (see module docs).
pub struct ExchangeOp {
    children: Vec<BoxedOp>,
    labels: Vec<String>,
    fail_fast: bool,
    /// Each child's expected gather time, in child order; empty when
    /// none is known.
    costs: Vec<Option<Duration>>,
    /// Per-child gathered buffers, in child order (empty for failures).
    gathered: Vec<Vec<Tuple>>,
    /// What each child's gather took during the last `open`.
    took: Vec<Duration>,
    failures: Vec<ShardFailure>,
    /// How the last gather's round ran.
    fork: Option<Fork>,
    current: usize,
    pos: usize,
    rows_out: u64,
    mem_bytes: u64,
}

/// Open + drain one child to completion. The child is closed before
/// returning so a shard's resources are released as soon as its slice
/// is buffered.
fn gather_child(child: &mut BoxedOp) -> Result<Vec<Tuple>, ExecError> {
    child.open()?;
    let mut buf = Vec::new();
    loop {
        let n = child.next_batch(&mut buf, super::DEFAULT_BATCH_SIZE)?;
        if n == 0 {
            break;
        }
    }
    child.close();
    Ok(buf)
}

impl ExchangeOp {
    /// Build an exchange over shard children with identical schemas.
    /// `labels` names each child (shard id / source label) for failure
    /// reporting; it must be parallel to `children`.
    pub fn new(children: Vec<BoxedOp>, labels: Vec<String>) -> Result<Self, ExecError> {
        if children.is_empty() {
            return Err(ExecError::Operator("exchange of zero inputs".into()));
        }
        if labels.len() != children.len() {
            return Err(ExecError::Operator(format!(
                "exchange: {} labels for {} children",
                labels.len(),
                children.len()
            )));
        }
        let first = children[0].schema().clone();
        for c in &children[1..] {
            if c.schema() != &first {
                return Err(ExecError::Operator(format!(
                    "exchange schema mismatch: {} vs {}",
                    first,
                    c.schema()
                )));
            }
        }
        Ok(ExchangeOp {
            children,
            labels,
            fail_fast: false,
            costs: Vec::new(),
            gathered: Vec::new(),
            took: Vec::new(),
            failures: Vec::new(),
            fork: None,
            current: 0,
            pos: 0,
            rows_out: 0,
            mem_bytes: 0,
        })
    }

    /// All-or-nothing mode: the first child failure aborts `open`
    /// instead of degrading to a partial merge.
    pub fn fail_fast(mut self, yes: bool) -> Self {
        self.fail_fast = yes;
        self
    }

    /// Each child's expected gather time, in child order, which prices
    /// the gather's round; a list of another length is no price.
    pub fn with_costs(mut self, costs: Vec<Option<Duration>>) -> Self {
        self.costs = costs;
        self
    }

    /// Children that failed during the last gather, in child order.
    pub fn failures(&self) -> &[ShardFailure] {
        &self.failures
    }

    /// Tuples gathered from each child during the last `open`, in child
    /// order (0 for failed children). The merged stream emits exactly
    /// these, contiguously per child — callers attribute provenance per
    /// shard from the counts.
    pub fn gathered_counts(&self) -> Vec<usize> {
        self.gathered.iter().map(Vec::len).collect()
    }

    /// True when the last gather ran on the task pool (one task per
    /// child); false when it ran inline.
    pub fn gathered_parallel(&self) -> bool {
        self.fork.is_some_and(|fork| fork.pooled)
    }

    /// How the last gather's round ran, and what it was priced at.
    pub fn fork(&self) -> Option<Fork> {
        self.fork
    }

    /// What each child's gather took during the last `open`, in child
    /// order.
    pub fn took(&self) -> &[Duration] {
        &self.took
    }

    /// Move the gathered buffers out (per child, in child order),
    /// consuming the operator. The engine's fetch path uses this to
    /// avoid re-copying the merged stream it just drove.
    pub fn into_gathered(self) -> (Vec<Vec<Tuple>>, Vec<ShardFailure>) {
        (self.gathered, self.failures)
    }
}

impl Operator for ExchangeOp {
    fn schema(&self) -> &Schema {
        self.children[0].schema()
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.current = 0;
        self.pos = 0;
        self.failures.clear();
        // Scatter: one task per child, on the pool when the round pays
        // for it (`par_tasks`).
        let results: Vec<(Result<Vec<Tuple>, ExecError>, Duration)> = {
            let slots: Vec<Mutex<&mut BoxedOp>> =
                self.children.iter_mut().map(Mutex::new).collect();
            let gather = |i: usize| {
                let mut child = slots[i].lock().unwrap_or_else(|e| e.into_inner());
                let started = Instant::now();
                (gather_child(&mut child), started.elapsed())
            };
            let tasks = if self.costs.len() == slots.len() {
                crate::par::par_tasks(&self.costs[..], gather)
            } else {
                crate::par::par_tasks(slots.len(), gather)
            };
            self.fork = Some(tasks.fork());
            tasks.collect()
        };
        self.gathered = Vec::with_capacity(results.len());
        self.took = results.iter().map(|(_, took)| *took).collect();
        for (i, (r, _)) in results.into_iter().enumerate() {
            match r {
                Ok(buf) => self.gathered.push(buf),
                Err(error) => {
                    if self.fail_fast {
                        self.gathered.clear();
                        return Err(error);
                    }
                    self.failures.push(ShardFailure {
                        child: i,
                        label: self.labels.get(i).cloned().unwrap_or_default(),
                        error,
                    });
                    self.gathered.push(Vec::new());
                }
            }
        }
        self.mem_bytes = self
            .gathered
            .iter()
            .map(|b| super::tuples_mem_bytes(b))
            .sum();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        while self.current < self.gathered.len() {
            if self.pos < self.gathered[self.current].len() {
                let t = self.gathered[self.current][self.pos].clone();
                self.pos += 1;
                self.rows_out += 1;
                return Ok(Some(t));
            }
            self.current += 1;
            self.pos = 0;
        }
        Ok(None)
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let mut appended = 0;
        while appended < max && self.current < self.gathered.len() {
            let buf = &self.gathered[self.current];
            let take = (max - appended).min(buf.len() - self.pos);
            if take == 0 {
                self.current += 1;
                self.pos = 0;
                continue;
            }
            out.extend_from_slice(&buf[self.pos..self.pos + take]);
            self.pos += take;
            appended += take;
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        // Gathered buffers are kept: like other materializing operators,
        // counts/failures remain readable post-drain (the engine
        // harvests shard attribution after execution).
    }

    fn describe(&self) -> String {
        if self.failures.is_empty() {
            format!("Exchange ({} shards)", self.children.len())
        } else {
            format!(
                "Exchange ({} shards, {} failed)",
                self.children.len(),
                self.failures.len()
            )
        }
    }

    fn children(&self) -> Vec<&dyn Operator> {
        self.children.iter().map(|c| c.as_ref()).collect()
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::new("Exchange", SchemaRule::Uniform)
    }

    fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{int_source, ints};
    use crate::ops::LazySourceOp;
    use crate::run_to_vec;
    use crate::schema::Schema;

    fn shard(vals: &[i64]) -> BoxedOp {
        let rows: Vec<Vec<i64>> = vals.iter().map(|&v| vec![v]).collect();
        let slices: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        Box::new(int_source(&["x"], &slices))
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard{}", i)).collect()
    }

    #[test]
    fn merges_shard_streams_in_child_order() {
        let mut op =
            ExchangeOp::new(vec![shard(&[1, 2]), shard(&[]), shard(&[3])], labels(3)).unwrap();
        let rows: Vec<i64> = run_to_vec(&mut op).unwrap().iter().map(|t| ints(t)[0]).collect();
        assert_eq!(rows, [1, 2, 3]);
        assert_eq!(op.gathered_counts(), vec![2, 0, 1]);
        assert!(op.failures().is_empty());
    }

    #[test]
    fn batch_interface_crosses_shard_boundaries() {
        let mut op = ExchangeOp::new(vec![shard(&[1, 2, 3]), shard(&[4, 5])], labels(2)).unwrap();
        op.open().unwrap();
        let mut out = Vec::new();
        // One batch call pulls across the child boundary.
        assert_eq!(op.next_batch(&mut out, 10).unwrap(), 5);
        assert_eq!(op.next_batch(&mut out, 10).unwrap(), 0);
        assert_eq!(out.len(), 5);
        assert_eq!(op.rows_out(), 5);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = int_source(&["x"], &[]);
        let b = int_source(&["y"], &[]);
        assert!(ExchangeOp::new(vec![Box::new(a), Box::new(b)], labels(2)).is_err());
        assert!(ExchangeOp::new(Vec::new(), Vec::new()).is_err());
    }

    fn failing_shard(label: &str) -> BoxedOp {
        let source = label.to_string();
        Box::new(LazySourceOp::new(
            Schema::new(vec!["x".into()]),
            label,
            move || {
                Err(ExecError::Source {
                    source: source.clone(),
                    message: "shard offline".into(),
                })
            },
        ))
    }

    #[test]
    fn dead_shard_degrades_to_partial_merge() {
        let mut op = ExchangeOp::new(
            vec![shard(&[1]), failing_shard("s#1"), shard(&[9])],
            vec!["s#0".into(), "s#1".into(), "s#2".into()],
        )
        .unwrap();
        let rows: Vec<i64> = run_to_vec(&mut op).unwrap().iter().map(|t| ints(t)[0]).collect();
        assert_eq!(rows, [1, 9], "surviving shards still merge");
        assert_eq!(op.failures().len(), 1);
        assert_eq!(op.failures()[0].child, 1);
        assert_eq!(op.failures()[0].label, "s#1");
        assert_eq!(op.gathered_counts(), vec![1, 0, 1]);
    }

    #[test]
    fn fail_fast_aborts_on_dead_shard() {
        let mut op = ExchangeOp::new(
            vec![shard(&[1]), failing_shard("s#1")],
            labels(2),
        )
        .unwrap()
        .fail_fast(true);
        assert!(op.open().is_err());
    }

    #[test]
    fn parallel_gather_on_a_pool_matches_serial() {
        // Force the pool path even on single-core hosts via a private
        // pool; results and counts must be identical to the serial path.
        let pool = crate::par::tests_pool();
        let make = || {
            ExchangeOp::new(
                vec![shard(&[1, 2]), shard(&[3]), shard(&[4, 5, 6]), shard(&[])],
                labels(4),
            )
            .unwrap()
        };
        let mut serial = make();
        let expect = run_to_vec(&mut serial).unwrap();
        let got = crate::par::par_tasks_on(Some(pool), 2, |_| {
            // Run the whole exchange inside a pool task: its own nested
            // gather then runs inline — exercising the guard.
            let mut op = make();
            run_to_vec(&mut op).map(|rows| (rows, op.gathered_parallel()))
        });
        for r in got {
            let (rows, parallel) = r.unwrap();
            assert_eq!(rows, expect);
            assert!(!parallel, "nested gather must have run inline");
        }
    }
}
