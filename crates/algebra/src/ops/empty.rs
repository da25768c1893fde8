//! A statically-empty leaf the planner substitutes for subtrees it has
//! proved unsatisfiable.
//!
//! The operator yields no tuples but keeps the full output schema of
//! the subtree it replaces, so parents (projections, sorts, CONSTRUCT)
//! see the columns they expect. The annotation carried in
//! [`EmptyOp::new`] records *why* the planner pruned — it is rendered
//! by `describe()` (and therefore EXPLAIN) and attached to
//! `introspect()` as rewrite provenance so the semantic verifier can
//! see the substitution.

use super::Operator;
use crate::error::ExecError;
use crate::inspect::OpInfo;
use crate::schema::{Schema, Tuple};

/// A source that produces zero tuples, with a pruning annotation.
pub struct EmptyOp {
    schema: Schema,
    annotation: String,
}

impl EmptyOp {
    /// An empty source with the given schema. `annotation` explains the
    /// substitution (e.g. `"pruned: unsatisfiable: $t > 5 AND $t < 3"`).
    pub fn new(schema: Schema, annotation: impl Into<String>) -> Self {
        EmptyOp {
            schema,
            annotation: annotation.into(),
        }
    }

    /// The pruning annotation.
    pub fn annotation(&self) -> &str {
        &self.annotation
    }
}

impl Operator for EmptyOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        Ok(())
    }

    fn next_batch(&mut self, _out: &mut Vec<Tuple>, _max: usize) -> Result<usize, ExecError> {
        Ok(0)
    }

    fn close(&mut self) {}

    fn describe(&self) -> String {
        format!("Empty {} [{}]", self.schema, self.annotation)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }

    fn rows_out(&self) -> u64 {
        0
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::source("Empty").with_provenance(self.annotation.clone())
    }

    fn est_rows(&self) -> Option<u64> {
        Some(0)
    }

    /// No row leaves it, so the lineage of every row it emits is known:
    /// the empty list, whether the query tracks lineage or not.
    fn lineage(&self) -> Option<&[crate::LineageMask]> {
        Some(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_to_vec;

    #[test]
    fn yields_nothing_and_keeps_schema() {
        let mut op = EmptyOp::new(
            Schema::new(vec!["a".into(), "b".into()]),
            "pruned: unsatisfiable: $a > 5 AND $a < 3",
        );
        assert_eq!(op.schema().vars(), &["a".to_string(), "b".to_string()]);
        assert!(run_to_vec(&mut op).unwrap().is_empty());
        assert!(op.describe().contains("pruned: unsatisfiable"));
        let info = op.introspect();
        assert_eq!(info.name, "Empty");
        assert_eq!(info.provenance.len(), 1);
        assert_eq!(op.est_rows(), Some(0));
        assert_eq!(op.lineage(), Some(&[][..]));
    }
}
