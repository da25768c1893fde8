//! Selection.

use super::{BoxedOp, Operator};
use crate::error::ExecError;
use crate::expr::{LiteralTest, ScalarExpr};
use crate::funcs::FunctionRegistry;
use crate::inspect::OpInfo;
use crate::lineage::LineageMask;
use crate::schema::{Schema, Tuple};
use std::sync::Arc;

/// Keeps tuples for which the predicate is true. A predicate that is
/// comparisons of columns with literals under `AND`/`OR`/`NOT` runs as
/// the [`LiteralTest`] it compiles to (DESIGN.md §22); any other runs
/// through [`ScalarExpr::eval_bool`], left to right, with its errors.
pub struct FilterOp {
    child: BoxedOp,
    predicate: ScalarExpr,
    /// `predicate` compiled, when the whole of it compiles.
    test: Option<LiteralTest>,
    funcs: Arc<FunctionRegistry>,
    rows_out: u64,
    scratch: Vec<Tuple>,
    est_rows: Option<u64>,
    /// Lineage of emitted tuples (tracking iff the child tracks).
    lin: Option<Vec<LineageMask>>,
    /// Child emissions consumed so far — indexes the child's lineage.
    consumed: usize,
}

impl FilterOp {
    pub fn new(child: BoxedOp, predicate: ScalarExpr, funcs: Arc<FunctionRegistry>) -> Self {
        let test = LiteralTest::compile(&predicate, child.schema().len());
        FilterOp {
            child,
            predicate,
            test,
            funcs,
            rows_out: 0,
            scratch: Vec::new(),
            est_rows: None,
            lin: None,
            consumed: 0,
        }
    }
}

/// Whether `t` passes: the compiled test, or the interpreter.
#[inline]
fn keeps(
    test: Option<&LiteralTest>,
    predicate: &ScalarExpr,
    funcs: &FunctionRegistry,
    t: &Tuple,
) -> Result<bool, ExecError> {
    match test {
        Some(test) => Ok(test.test(t)),
        None => predicate.eval_bool(t, funcs),
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<(), ExecError> {
        self.rows_out = 0;
        self.consumed = 0;
        self.child.open()?;
        self.lin = self.child.lineage().map(|_| Vec::new());
        Ok(())
    }

    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        // One batch pull from the child per batch of survivors keeps the
        // child's dispatch amortized even under selective predicates.
        let mut appended = 0;
        while appended < max {
            self.scratch.clear();
            let pulled = self.child.next_batch(&mut self.scratch, max - appended)?;
            if pulled == 0 {
                break;
            }
            let base = self.consumed;
            self.consumed += pulled;
            for (i, t) in self.scratch.drain(..).enumerate() {
                if keeps(self.test.as_ref(), &self.predicate, &self.funcs, &t)? {
                    out.push(t);
                    appended += 1;
                    if let Some(lin) = &mut self.lin {
                        let mask = self
                            .child
                            .lineage()
                            .and_then(|l| l.get(base + i))
                            .copied()
                            .unwrap_or_default();
                        lin.push(mask);
                    }
                }
            }
        }
        self.rows_out += appended as u64;
        Ok(appended)
    }

    fn close(&mut self) {
        self.child.close();
        self.scratch = Vec::new();
    }

    fn describe(&self) -> String {
        format!("Filter {:?}", self.predicate)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn rows_out(&self) -> u64 {
        self.rows_out
    }

    fn introspect(&self) -> OpInfo {
        OpInfo::transform("Filter").with_child_expr(0, "predicate", self.predicate.clone())
    }

    fn est_rows(&self) -> Option<u64> {
        self.est_rows
    }

    fn set_est_rows(&mut self, rows: u64) {
        self.est_rows = Some(rows);
    }

    fn lineage(&self) -> Option<&[LineageMask]> {
        self.lin.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::ops::testutil::{int_source, ints};
    use crate::run_to_vec;

    #[test]
    fn filters_rows() {
        let src = int_source(&["x"], &[&[1], &[5], &[3], &[8]]);
        let pred = ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::Col(0), ScalarExpr::lit(4i64));
        let mut op = FilterOp::new(
            Box::new(src),
            pred,
            Arc::new(FunctionRegistry::with_builtins()),
        );
        let rows = run_to_vec(&mut op).unwrap();
        assert_eq!(rows.iter().map(|t| ints(t)[0]).collect::<Vec<_>>(), [5, 8]);
        assert_eq!(op.rows_out(), 2);
    }

    #[test]
    fn a_compiled_predicate_keeps_what_the_interpreter_keeps() {
        // `NOT ($x < 3 OR $y = 5) AND $x <= 8` compiles whole; the rows
        // kept are the ones `eval_bool` keeps.
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, (i * 7) % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let (x, y) = (ScalarExpr::Col(0), ScalarExpr::Col(1));
        let pred = ScalarExpr::And(
            Box::new(ScalarExpr::Not(Box::new(ScalarExpr::Or(
                Box::new(ScalarExpr::cmp(CmpOp::Lt, x.clone(), ScalarExpr::lit(3i64))),
                Box::new(ScalarExpr::cmp(CmpOp::Eq, y, ScalarExpr::lit(5i64))),
            )))),
            Box::new(ScalarExpr::cmp(CmpOp::Le, x, ScalarExpr::lit(8i64))),
        );
        let funcs = Arc::new(FunctionRegistry::with_builtins());
        let src = int_source(&["x", "y"], &refs);
        let mut op = FilterOp::new(Box::new(src), pred.clone(), Arc::clone(&funcs));
        assert!(op.test.is_some());
        let want: Vec<Vec<i64>> = rows
            .iter()
            .filter(|r| {
                pred.eval_bool(&r.iter().map(|&v| v.into()).collect::<Tuple>(), &funcs)
                    .unwrap()
            })
            .cloned()
            .collect();
        assert_eq!(
            run_to_vec(&mut op)
                .unwrap()
                .iter()
                .map(ints)
                .collect::<Vec<_>>(),
            want
        );
        assert_eq!(want.len(), 5);
    }

    #[test]
    fn a_conjunction_with_a_failing_conjunct_is_interpreted_whole() {
        // `$x > 0 AND missing()`: the call does not compile, so neither
        // does the comparison; the row that passes it raises the error.
        let src = int_source(&["x"], &[&[0], &[1]]);
        let pred = ScalarExpr::conjunction(vec![
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(0), ScalarExpr::lit(0i64)),
            ScalarExpr::Call("missing".into(), vec![]),
        ]);
        let mut op = FilterOp::new(
            Box::new(src),
            pred,
            Arc::new(FunctionRegistry::with_builtins()),
        );
        assert!(op.test.is_none());
        op.open().unwrap();
        assert!(matches!(
            op.next_batch(&mut Vec::new(), 1),
            Err(ExecError::UnknownFunction(_))
        ));
    }

    #[test]
    fn eval_errors_propagate() {
        let src = int_source(&["x"], &[&[1]]);
        let pred = ScalarExpr::Call("missing".into(), vec![]);
        let mut op = FilterOp::new(
            Box::new(src),
            pred,
            Arc::new(FunctionRegistry::with_builtins()),
        );
        op.open().unwrap();
        assert!(matches!(
            op.next_batch(&mut Vec::new(), 1),
            Err(ExecError::UnknownFunction(_))
        ));
    }
}
