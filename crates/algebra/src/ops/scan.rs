//! Tuple source: in-memory values, handed over by move.

use super::Operator;
use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::lineage::LineageMask;
use crate::schema::{Schema, Tuple};

/// An in-memory tuple source. Its rows leave by **move**, so a scan
/// feeds its one consumer without a per-row clone, and it is read once:
/// re-opened after it handed rows out, it is empty (a fresh `ValuesOp`
/// reads again).
pub struct ValuesOp {
    schema: Schema,
    tuples: Vec<Tuple>,
    cursor: usize,
    rows_out: u64,
    label: String,
    est_rows: Option<u64>,
    /// Buffer footprint, computed once at `open` (drained tuples keep
    /// their accounted size — the scan did hold them).
    mem_bytes: u64,
    /// Uniform provenance of every tuple this scan emits; `None`
    /// disables lineage tracking entirely (the default).
    lin_mask: Option<LineageMask>,
    /// Per-tuple provenance, parallel to `tuples` — set when one scan
    /// carries rows from several units (the shards of a sharded
    /// collection). Takes precedence over `lin_mask`.
    lin_per_tuple: Option<Vec<LineageMask>>,
    lin: Vec<LineageMask>,
}

impl ValuesOp {
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        ValuesOp {
            schema,
            tuples,
            cursor: 0,
            rows_out: 0,
            label: "Values".to_string(),
            est_rows: None,
            mem_bytes: 0,
            lin_mask: None,
            lin_per_tuple: None,
            lin: Vec::new(),
        }
    }

    /// Attach a display label (e.g. the source collection name).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Tag every emitted tuple with `mask` and turn this scan into a
    /// lineage-tracking leaf (see [`Operator::lineage`]).
    pub fn with_lineage(mut self, mask: LineageMask) -> Self {
        self.lin_mask = Some(mask);
        self
    }

    /// Tag each tuple with its own mask (parallel to the tuple vector)
    /// — the shape of a sharded scan, where one merged buffer carries
    /// rows attributed to different per-shard provenance units. `masks`
    /// shorter than the tuple vector pads with the empty mask.
    pub fn with_lineage_masks(mut self, masks: Vec<LineageMask>) -> Self {
        self.lin_per_tuple = Some(masks);
        self
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        if self.cursor > 0 {
            // Rows already handed out were moved: a re-opened scan is
            // empty rather than yielding husks.
            self.tuples.clear();
        }
        self.cursor = 0;
        self.rows_out = 0;
        self.mem_bytes = super::tuples_mem_bytes(&self.tuples);
        if self.lin_mask.is_some() || self.lin_per_tuple.is_some() {
            self.lin.clear();
        }
        Ok(())
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let n = max.min(self.tuples.len().saturating_sub(self.cursor));
        out.extend(self.tuples[self.cursor..self.cursor + n].iter_mut().map(std::mem::take));
        self.cursor += n;
        self.rows_out += n as u64;
        if let Some(masks) = &self.lin_per_tuple {
            for i in self.cursor - n..self.cursor {
                self.lin.push(masks.get(i).copied().unwrap_or_default());
            }
        } else if let Some(mask) = self.lin_mask {
            self.lin.resize(self.lin.len() + n, mask);
        }
        Ok(n)
    }

    fn close(&mut self) {}

    fn describe(&self) -> String {
        format!("{} {} ({} tuples)", self.label, self.schema, self.tuples.len())
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::source("Values")
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
        if self.lin_mask.is_some() || self.lin_per_tuple.is_some() {
            Some(self.lin.as_slice())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_xml::Value;

    #[test]
    fn per_tuple_lineage_masks_attribute_each_row() {
        use crate::lineage::LineageMask;
        let schema = Schema::new(vec!["x".into()]);
        let tuples: Vec<_> = (0..3i64).map(|i| vec![Value::from(i)]).collect();
        let mut op = ValuesOp::new(schema, tuples)
            .with_lineage_masks(vec![LineageMask::single(0), LineageMask::single(1)]);
        op.open().unwrap();
        let mut out = Vec::new();
        while op.next_batch(&mut out, 2).unwrap() > 0 {}
        let lin = op.lineage().unwrap();
        assert_eq!(lin.len(), 3);
        assert!(lin[0].contains(0) && lin[1].contains(1));
        // Rows past the mask vector get the empty mask, not a panic.
        assert!(lin[2].is_empty());
    }
}
