//! Sorting with document-order tiebreak.

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::inspect::{OpInfo, OrderEffect, SchemaRule};
use crate::lineage::LineageMask;
use crate::schema::{Schema, Tuple};
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
///
/// One sort for every key kind: a permutation of row indices ordered by
/// [`nimble_xml::Value::total_cmp`] over the key columns where they lie
/// in the buffer (atomic keys are read in place, node keys tiebreak on
/// document order, list keys compare element-wise), the index breaking
/// ties. Sorted rows leave by move — `open` re-ingests from the child,
/// so nothing reads a row twice.
pub struct SortOp {
    child: BoxedOp,
    keys: Vec<SortKey>,
    buffer: Vec<Tuple>,
    /// `buffer` indices in output order; `cursor` walks it.
    order: Vec<u32>,
    cursor: usize,
    rows_out: u64,
    est_rows: Option<u64>,
    /// Buffer footprint, computed once after materialization.
    mem_bytes: u64,
    /// The child's lineage in output order (tracking iff the child
    /// tracks); `lineage()` exposes the emitted prefix.
    lin: Option<Vec<LineageMask>>,
}

impl SortOp {
    pub fn new(child: BoxedOp, keys: Vec<SortKey>) -> Self {
        SortOp {
            child,
            keys,
            buffer: Vec::new(),
            order: Vec::new(),
            cursor: 0,
            rows_out: 0,
            est_rows: None,
            mem_bytes: 0,
            lin: None,
        }
    }

    /// Kept for the frozen benchmark driver, which calls it; the hint is
    /// ignored — the sort runs on the calling thread (DESIGN.md §20) —
    /// and the method goes when ROADMAP item 1 unfreezes the driver.
    pub fn vectorized(self, _parallel: bool) -> Self {
        self
    }
}

impl Operator for SortOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.cursor = 0;
        self.child.open()?;
        self.buffer.clear();
        while self
            .child
            .next_batch(&mut self.buffer, super::DEFAULT_BATCH_SIZE)?
            > 0
        {}
        self.mem_bytes = super::tuples_mem_bytes(&self.buffer);
        let rows = u32::try_from(self.buffer.len())
            .map_err(|_| ExecError::Operator(format!("sort input of {} rows", self.buffer.len())))?;
        let (buffer, keys) = (&self.buffer, &self.keys);
        self.order.clear();
        self.order.extend(0..rows);
        self.order.sort_unstable_by(|&ia, &ib| {
            let (a, b) = (&buffer[ia as usize], &buffer[ib as usize]);
            for k in keys {
                let ord = a[k.column].total_cmp(&b[k.column]);
                if ord != Ordering::Equal {
                    return if k.descending { ord.reverse() } else { ord };
                }
            }
            ia.cmp(&ib)
        });
        // The ingest was a full drain, so the child's masks align 1:1
        // with `buffer`; read them in output order before closing it.
        self.lin = self.child.lineage().map(|l| {
            let mask = |&i: &u32| l.get(i as usize).copied().unwrap_or_default();
            self.order.iter().map(mask).collect()
        });
        self.child.close();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        let Some(&i) = self.order.get(self.cursor) else {
            return Ok(None);
        };
        self.cursor += 1;
        self.rows_out += 1;
        Ok(Some(std::mem::take(&mut self.buffer[i as usize])))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let rest = self.order.get(self.cursor..).unwrap_or_default();
        let picked = &rest[..max.min(rest.len())];
        out.extend(picked.iter().map(|&i| std::mem::take(&mut self.buffer[i as usize])));
        self.cursor += picked.len();
        self.rows_out += picked.len() as u64;
        Ok(picked.len())
    }

    fn close(&mut self) {
        // `cursor` stays: `lineage()` is read after the close.
        self.buffer.clear();
        self.order.clear();
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
