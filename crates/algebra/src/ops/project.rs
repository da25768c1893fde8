//! Projection: compute output columns from input tuples (subset, rename,
//! or derived expressions).

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::expr::ScalarExpr;
use crate::funcs::FunctionRegistry;
use crate::inspect::{OpInfo, OrderEffect, SchemaRule};
use crate::schema::{Schema, Tuple};
use std::sync::Arc;

/// One output column: a name and the expression that produces it.
pub struct ProjectOp {
    child: BoxedOp,
    exprs: Vec<ScalarExpr>,
    schema: Schema,
    funcs: Arc<FunctionRegistry>,
    rows_out: u64,
    /// When every output column is a plain `Col` reference with distinct
    /// indices, the source columns can be *moved* out of owned input
    /// tuples instead of cloned. `None` when any column is computed or
    /// a column is referenced twice.
    move_plan: Option<Vec<usize>>,
    scratch: Vec<Tuple>,
    est_rows: Option<u64>,
}

fn move_plan_of(exprs: &[ScalarExpr]) -> Option<Vec<usize>> {
    let mut cols = Vec::with_capacity(exprs.len());
    for e in exprs {
        match e {
            ScalarExpr::Col(i) if !cols.contains(i) => cols.push(*i),
            _ => return None,
        }
    }
    Some(cols)
}

impl ProjectOp {
    /// `columns` pairs output names with expressions over the child's
    /// schema.
    pub fn new(
        child: BoxedOp,
        columns: Vec<(String, ScalarExpr)>,
        funcs: Arc<FunctionRegistry>,
    ) -> Self {
        let (names, exprs): (Vec<String>, Vec<ScalarExpr>) = columns.into_iter().unzip();
        let move_plan = move_plan_of(&exprs);
        ProjectOp {
            child,
            exprs,
            schema: Schema::new(names),
            funcs,
            rows_out: 0,
            move_plan,
            scratch: Vec::new(),
            est_rows: None,
        }
    }

    /// Keep only the named columns of the child (classic projection).
    pub fn keep(child: BoxedOp, vars: &[&str], funcs: Arc<FunctionRegistry>) -> Self {
        let columns = vars
            .iter()
            .map(|v| {
                let idx = child
                    .schema()
                    .index_of(v)
                    .unwrap_or_else(|| panic!("projection var {:?} not in {}", v, child.schema()));
                (v.to_string(), ScalarExpr::Col(idx))
            })
            .collect();
        ProjectOp::new(child, columns, funcs)
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        match self.child.next()? {
            None => Ok(None),
            Some(t) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(e.eval(&t, &self.funcs)?.into_owned());
                }
                self.rows_out += 1;
                Ok(Some(out))
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        let mut appended = 0;
        while appended < max {
            self.scratch.clear();
            let pulled = self.child.next_batch(&mut self.scratch, max - appended)?;
            if pulled == 0 {
                break;
            }
            if let Some(cols) = &self.move_plan {
                // Pure column selection over owned tuples: move the
                // values instead of cloning them.
                for mut t in self.scratch.drain(..) {
                    let mut row = Vec::with_capacity(cols.len());
                    for &i in cols {
                        row.push(std::mem::replace(&mut t[i], nimble_xml::Value::null()));
                    }
                    out.push(row);
                }
            } else {
                for t in self.scratch.drain(..) {
                    let mut row = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        row.push(e.eval(&t, &self.funcs)?.into_owned());
                    }
                    out.push(row);
                }
            }
            appended += pulled;
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        self.child.close();
        self.scratch = Vec::new();
    }

    fn describe(&self) -> String {
        format!("Project {}", self.schema)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        let mut info = OpInfo::new("Project", SchemaRule::PerColumnExprs)
            .with_order(OrderEffect::Preserves(0));
        for (e, name) in self.exprs.iter().zip(self.schema.vars()) {
            info = info.with_child_expr(0, format!("column ${}", name), e.clone());
        }
        info
    }

    fn est_rows(&self) -> Option<u64> {
        self.est_rows
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.est_rows = Some(rows);
    }

    fn lineage(&self) -> Option<&[crate::LineageMask]> {
        // Projection is 1:1 over emission order, so the child's lineage
        // slice is exactly this operator's.
        self.child.lineage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;
    use crate::ops::testutil::{int_source, ints};
    use crate::run_to_vec;

    #[test]
    fn keep_subset() {
        let src = int_source(&["a", "b", "c"], &[&[1, 2, 3]]);
        let mut op = ProjectOp::keep(
            Box::new(src),
            &["c", "a"],
            Arc::new(FunctionRegistry::with_builtins()),
        );
        let rows = run_to_vec(&mut op).unwrap();
        assert_eq!(ints(&rows[0]), [3, 1]);
        assert_eq!(op.schema().vars(), &["c", "a"]);
    }

    #[test]
    fn computed_column() {
        let src = int_source(&["a"], &[&[10], &[20]]);
        let mut op = ProjectOp::new(
            Box::new(src),
            vec![(
                "double".into(),
                ScalarExpr::Arith(
                    ArithOp::Mul,
                    Box::new(ScalarExpr::Col(0)),
                    Box::new(ScalarExpr::lit(2i64)),
                ),
            )],
            Arc::new(FunctionRegistry::with_builtins()),
        );
        let rows = run_to_vec(&mut op).unwrap();
        assert_eq!(ints(&rows[1]), [40]);
    }
}
