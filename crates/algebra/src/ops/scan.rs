//! Tuple sources: in-memory values and lazily-produced batches.

use super::Operator;
use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::lineage::LineageMask;
use crate::schema::{Schema, Tuple};

/// An in-memory tuple source.
pub struct ValuesOp {
    schema: Schema,
    tuples: Vec<Tuple>,
    cursor: usize,
    rows_out: u64,
    label: String,
    drain: bool,
    est_rows: Option<u64>,
    /// Buffer footprint, computed once at `open` (drained tuples keep
    /// their accounted size — the scan did hold them).
    mem_bytes: u64,
    /// Uniform provenance of every tuple this scan emits; `None`
    /// disables lineage tracking entirely (the default).
    lin_mask: Option<LineageMask>,
    /// Per-tuple provenance, parallel to `tuples` — set when one scan
    /// carries rows from several units (a sharded collection merged by
    /// an Exchange). Takes precedence over `lin_mask`.
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
            drain: false,
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

    /// Single-pass mode: emitted tuples are **moved** out instead of
    /// cloned, so a scan feeding one consumer pays no per-tuple clone.
    /// Trades away replayability — reopening after any tuple was emitted
    /// yields an empty scan (a fresh `ValuesOp` replays; see
    /// `values_replayable`). The engine sets this on scans it drives
    /// exactly once per query.
    pub fn drain_on_batch(mut self) -> Self {
        self.drain = true;
        self
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        if self.drain && self.cursor > 0 {
            // Tuples already handed out were moved, not cloned; a
            // replayed drain scan is defined to be empty rather than
            // yielding husks.
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

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        if self.cursor < self.tuples.len() {
            let t = if self.drain {
                std::mem::take(&mut self.tuples[self.cursor])
            } else {
                self.tuples[self.cursor].clone()
            };
            self.cursor += 1;
            self.rows_out += 1;
            if let Some(masks) = &self.lin_per_tuple {
                self.lin
                    .push(masks.get(self.cursor - 1).copied().unwrap_or_default());
            } else if let Some(mask) = self.lin_mask {
                self.lin.push(mask);
            }
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let n = max.min(self.tuples.len().saturating_sub(self.cursor));
        if self.drain {
            out.extend(
                self.tuples[self.cursor..self.cursor + n]
                    .iter_mut()
                    .map(std::mem::take),
            );
        } else {
            out.extend_from_slice(&self.tuples[self.cursor..self.cursor + n]);
        }
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

/// Producer invoked at `open` time by [`LazySourceOp`].
pub type TupleProducer = dyn FnMut() -> Result<Vec<Tuple>, ExecError> + Send;

/// A source whose tuples are produced when the plan opens — the hook the
/// mediator uses to wire remote source fetches (and their failures) into
/// plans without eager evaluation at plan-build time.
pub struct LazySourceOp {
    schema: Schema,
    producer: Box<TupleProducer>,
    buffered: Vec<Tuple>,
    cursor: usize,
    rows_out: u64,
    label: String,
    mem_bytes: u64,
}

impl LazySourceOp {
    pub fn new(
        schema: Schema,
        label: impl Into<String>,
        producer: impl FnMut() -> Result<Vec<Tuple>, ExecError> + Send + 'static,
    ) -> Self {
        LazySourceOp {
            schema,
            producer: Box::new(producer),
            buffered: Vec::new(),
            cursor: 0,
            rows_out: 0,
            label: label.into(),
            mem_bytes: 0,
        }
    }
}

impl Operator for LazySourceOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.buffered = (self.producer)()?;
        self.cursor = 0;
        self.rows_out = 0;
        self.mem_bytes = super::tuples_mem_bytes(&self.buffered);
        Ok(())
    }

    // Rows leave by move: `open` runs the producer again, so nothing
    // reads a buffered row twice.
    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        let Some(t) = self.buffered.get_mut(self.cursor) else {
            return Ok(None);
        };
        self.cursor += 1;
        self.rows_out += 1;
        Ok(Some(std::mem::take(t)))
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let rest = self.buffered.get_mut(self.cursor..).unwrap_or_default();
        let n = max.min(rest.len());
        out.extend(rest[..n].iter_mut().map(std::mem::take));
        self.cursor += n;
        self.rows_out += n as u64;
        Ok(n)
    }

    fn close(&mut self) {
        self.buffered.clear();
        self.cursor = 0;
    }

    fn describe(&self) -> String {
        format!("Source {} {}", self.label, self.schema)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::source(format!("Source {}", self.label))
    }

    fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_to_vec;
    use nimble_xml::Value;

    #[test]
    fn values_replayable() {
        let schema = Schema::new(vec!["x".into()]);
        let mut op = ValuesOp::new(schema, vec![vec![Value::from(1i64)], vec![Value::from(2i64)]]);
        assert_eq!(run_to_vec(&mut op).unwrap().len(), 2);
        // Reopening restarts.
        assert_eq!(run_to_vec(&mut op).unwrap().len(), 2);
    }

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

    #[test]
    fn lazy_source_defers_and_propagates_errors() {
        let schema = Schema::new(vec!["x".into()]);
        let mut calls = 0u32;
        let mut op = LazySourceOp::new(schema, "flaky", move || {
            calls += 1;
            if calls == 1 {
                Err(ExecError::Source {
                    source: "flaky".into(),
                    message: "offline".into(),
                })
            } else {
                Ok(vec![vec![Value::from(7i64)]])
            }
        });
        assert!(matches!(op.open(), Err(ExecError::Source { .. })));
        // Second attempt succeeds (source came back).
        op.open().unwrap();
        assert_eq!(op.next().unwrap().unwrap()[0].atomize().lexical(), "7");
    }
}
