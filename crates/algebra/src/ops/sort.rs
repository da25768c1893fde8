//! Sorting with document-order tiebreak.

use super::{BoxedOp, Operator, ParProfile};
use crate::error::ExecError;
use crate::inspect::{OpInfo, OrderEffect, SchemaRule};
use crate::lineage::LineageMask;
use crate::par;
use crate::schema::{Schema, Tuple};
use nimble_xml::{Atomic, Value};
use std::cmp::Ordering;

/// One sort key: a column and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub column: usize,
    pub descending: bool,
}

/// Materializing sort. Ties preserve the input order (stable sort), which
/// for single-document scans means **document order is the default
/// order** — the XML requirement the paper highlights.
pub struct SortOp {
    child: BoxedOp,
    keys: Vec<SortKey>,
    buffer: Vec<Tuple>,
    cursor: usize,
    rows_out: u64,
    /// Hint that the input is large enough for the worker pool (the
    /// operator still declines below its own threshold).
    parallel: bool,
    est_rows: Option<u64>,
    /// Buffer footprint, computed once after materialization.
    mem_bytes: u64,
    /// Busy times of the parallel key-extraction workers (see
    /// [`ParProfile`]).
    par_prof: Option<ParProfile>,
    /// Lineage permuted alongside the buffer (tracking iff the child
    /// tracks); `lineage()` exposes the emitted prefix.
    lin: Option<Vec<LineageMask>>,
}

impl SortOp {
    pub fn new(child: BoxedOp, keys: Vec<SortKey>) -> Self {
        SortOp {
            child,
            keys,
            buffer: Vec::new(),
            cursor: 0,
            rows_out: 0,
            parallel: false,
            est_rows: None,
            mem_bytes: 0,
            par_prof: None,
            lin: None,
        }
    }

    /// Set the parallel hint: with `parallel`, a large input extracts
    /// and sorts its keys on the worker pool. The sort batch-ingests and
    /// caches keys either way.
    pub fn vectorized(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Full `Value::total_cmp` per comparison, stable: the path for node
    /// and list keys, which [`SortOp::sort_cached_keys`] cannot take.
    fn sort_scalar(&mut self) {
        let keys = self.keys.clone();
        let cmp = |a: &Tuple, b: &Tuple| {
            for k in &keys {
                let ord = a[k.column].total_cmp(&b[k.column]);
                let ord = if k.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        if let Some(lin) = self.lin.as_mut() {
            // Lineage must follow its tuple through the reorder, so sort
            // a stable index permutation and apply it to both vectors.
            let mut idx: Vec<usize> = (0..self.buffer.len()).collect();
            idx.sort_by(|&ia, &ib| cmp(&self.buffer[ia], &self.buffer[ib]));
            let mut sorted = Vec::with_capacity(self.buffer.len());
            let mut sorted_lin = Vec::with_capacity(lin.len());
            for &i in &idx {
                sorted.push(std::mem::take(&mut self.buffer[i]));
                sorted_lin.push(lin.get(i).copied().unwrap_or_default());
            }
            self.buffer = sorted;
            *lin = sorted_lin;
        } else {
            self.buffer.sort_by(cmp);
        }
    }

    /// Cached-key sort: atomize every key column once, then
    /// `sort_unstable` over `(keys, input index)` so each comparison is
    /// an `Atomic::total_cmp` instead of a fresh atomization.
    ///
    /// Only exact when every key value is `Value::Atomic`: node-node
    /// comparisons tiebreak on document order and lists compare
    /// element-wise, neither of which survives atomization — those
    /// inputs take [`SortOp::sort_scalar`].
    fn sort_cached_keys(&mut self) {
        let all_atomic = self.buffer.iter().all(|t| {
            self.keys
                .iter()
                .all(|k| matches!(t[k.column], Value::Atomic(_)))
        });
        if !all_atomic {
            self.sort_scalar();
            return;
        }
        let keys = &self.keys;
        let extract = |base: usize, chunk: &[Tuple]| -> Vec<(Vec<Atomic>, usize)> {
            chunk
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    (
                        keys.iter().map(|k| t[k.column].atomize()).collect(),
                        base + i,
                    )
                })
                .collect()
        };
        let (mut keyed, par_prof) = par::map_chunks(self.parallel, &self.buffer, extract);
        let dirs: Vec<bool> = keys.iter().map(|k| k.descending).collect();
        let cmp = |(ka, ia): &(Vec<Atomic>, usize), (kb, ib): &(Vec<Atomic>, usize)| {
            for ((a, b), desc) in ka.iter().zip(kb.iter()).zip(&dirs) {
                let ord = a.total_cmp(b);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            ia.cmp(ib)
        };
        // Parallel path: chunk-sort the keyed rows on the pool, k-way
        // merge on this thread. The input-index tiebreak makes `cmp` a
        // total order, so the merge is deterministic.
        let pool = (self.parallel && keyed.len() >= par::PAR_THRESHOLD)
            .then(par::pool)
            .flatten();
        let keyed = match pool {
            Some(p) => par::par_sort_on(p, keyed, &cmp),
            None => {
                keyed.sort_unstable_by(cmp);
                keyed
            }
        };
        let mut sorted = Vec::with_capacity(self.buffer.len());
        let mut sorted_lin = self
            .lin
            .as_ref()
            .map(|l| Vec::with_capacity(l.len()));
        for (_, i) in keyed {
            sorted.push(std::mem::take(&mut self.buffer[i]));
            if let (Some(sl), Some(l)) = (sorted_lin.as_mut(), self.lin.as_ref()) {
                sl.push(l.get(i).copied().unwrap_or_default());
            }
        }
        self.buffer = sorted;
        if sorted_lin.is_some() {
            self.lin = sorted_lin;
        }
        self.par_prof = par_prof;
    }
}

impl Operator for SortOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.mem_bytes = 0;
        self.par_prof = None;
        self.child.open()?;
        self.buffer.clear();
        while self
            .child
            .next_batch(&mut self.buffer, super::DEFAULT_BATCH_SIZE)?
            > 0
        {}
        // Snapshot the child's lineage before closing it: the ingest was
        // a full drain, so its masks align 1:1 with `buffer`.
        self.lin = self.child.lineage().map(|l| l.to_vec());
        self.child.close();
        self.sort_cached_keys();
        self.mem_bytes = super::tuples_mem_bytes(&self.buffer);
        self.cursor = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if self.cursor < self.buffer.len() {
            let t = self.buffer[self.cursor].clone();
            self.cursor += 1;
            self.rows_out += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let n = max.min(self.buffer.len().saturating_sub(self.cursor));
        out.extend_from_slice(&self.buffer[self.cursor..self.cursor + n]);
        self.cursor += n;
        self.rows_out += n as u64;
        Ok(n)
    }

    fn close(&mut self) {
        self.buffer.clear();
    }

    fn describe(&self) -> String {
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|k| {
                format!(
                    "{}{}",
                    k.column,
                    if k.descending { " desc" } else { "" }
                )
            })
            .collect();
        format!("Sort by [{}]", keys.join(", "))
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::new("Sort", SchemaRule::Inherit(0))
            .with_order(OrderEffect::Establishes)
            .with_sort_keys(self.keys.clone())
    }

    fn est_rows(&self) -> Option<u64> {
        self.est_rows
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.est_rows = Some(rows);
    }

    fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    fn par_profile(&self) -> Option<&ParProfile> {
        self.par_prof.as_ref()
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        // Only the prefix handed out so far counts as "emitted".
        self.lin
            .as_deref()
            .map(|l| &l[..self.cursor.min(l.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{int_source, ints};
    use crate::run_to_vec;

    #[test]
    fn sorts_ascending_and_descending() {
        let src = int_source(&["x", "y"], &[&[3, 1], &[1, 2], &[2, 3]]);
        let mut op = SortOp::new(
            Box::new(src),
            vec![SortKey {
                column: 0,
                descending: false,
            }],
        );
        let rows: Vec<i64> = run_to_vec(&mut op).unwrap().iter().map(|t| ints(t)[0]).collect();
        assert_eq!(rows, [1, 2, 3]);

        let src = int_source(&["x"], &[&[3], &[1], &[2]]);
        let mut op = SortOp::new(
            Box::new(src),
            vec![SortKey {
                column: 0,
                descending: true,
            }],
        );
        let rows: Vec<i64> = run_to_vec(&mut op).unwrap().iter().map(|t| ints(t)[0]).collect();
        assert_eq!(rows, [3, 2, 1]);
    }

    #[test]
    fn stable_on_ties() {
        let src = int_source(&["k", "seq"], &[&[1, 0], &[1, 1], &[0, 2], &[1, 3]]);
        let mut op = SortOp::new(
            Box::new(src),
            vec![SortKey {
                column: 0,
                descending: false,
            }],
        );
        let rows: Vec<Vec<i64>> = run_to_vec(&mut op).unwrap().iter().map(ints).collect();
        // Ties on k keep input (document) order of seq.
        assert_eq!(rows, vec![vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 3]]);
    }

    #[test]
    fn multi_key() {
        let src = int_source(&["a", "b"], &[&[1, 2], &[1, 1], &[0, 9]]);
        let mut op = SortOp::new(
            Box::new(src),
            vec![
                SortKey {
                    column: 0,
                    descending: false,
                },
                SortKey {
                    column: 1,
                    descending: false,
                },
            ],
        );
        let rows: Vec<Vec<i64>> = run_to_vec(&mut op).unwrap().iter().map(ints).collect();
        assert_eq!(rows, vec![vec![0, 9], vec![1, 1], vec![1, 2]]);
    }
}
