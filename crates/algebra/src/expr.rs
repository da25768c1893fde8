//! Scalar expressions evaluated against tuples.

use crate::error::ExecError;
use crate::funcs::FunctionRegistry;
use nimble_xml::atomic::{cmp, cmp_read};
use nimble_xml::{Atomic, OrderKey, Path, Value};
use std::borrow::Cow;

/// The value type carried by [`ScalarExpr::Lit`], re-exported so crates
/// that link only `nimble-algebra` (the static analyzer) can name it.
pub use nimble_xml::Value as LiteralValue;

/// Comparison operators: the one enum the fragments a source is sent
/// use too (`nimble_sources::PredOp`).
pub use nimble_xml::CmpOp;

/// SQL LIKE matcher: `%` matches any run, `_` any single char.
pub use nimble_xml::atomic::like as like_match;

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// A scalar expression tree over tuple columns.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    Not(Box<ScalarExpr>),
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    Neg(Box<ScalarExpr>),
    /// Call into the function registry.
    Call(String, Vec<ScalarExpr>),
    /// Navigate a path from a node-valued expression; yields the first
    /// match or `Null`.
    PathFirst(Box<ScalarExpr>, Path),
}

impl ScalarExpr {
    /// Literal constructor accepting anything convertible to [`Value`].
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Comparison constructor.
    pub fn cmp(op: CmpOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(op, Box::new(left), Box::new(right))
    }

    /// Conjunction of a list of predicates (`true` when empty).
    pub fn conjunction(preds: Vec<ScalarExpr>) -> ScalarExpr {
        let mut it = preds.into_iter();
        match it.next() {
            None => ScalarExpr::Lit(Value::Atomic(Atomic::Bool(true))),
            Some(first) => it.fold(first, |acc, p| {
                ScalarExpr::And(Box::new(acc), Box::new(p))
            }),
        }
    }

    /// Evaluate against a tuple — any row of values, so a caller holding
    /// rows in one contiguous block can evaluate without building a
    /// [`Tuple`](crate::schema::Tuple) per row. A column or a literal is
    /// read where it lies (`Cow::Borrowed`, from the row or from this
    /// expression); only a computed value is owned.
    #[inline]
    pub fn eval<'a>(
        &'a self,
        tuple: &'a [Value],
        funcs: &FunctionRegistry,
    ) -> Result<Cow<'a, Value>, ExecError> {
        match self.place(tuple) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => self.compute(tuple, funcs).map(Cow::Owned),
        }
    }

    /// The operand itself, when evaluating it only reads a value that
    /// already exists: a column the row has, or this literal.
    #[inline]
    fn place<'a>(&'a self, tuple: &'a [Value]) -> Option<&'a Value> {
        match self {
            ScalarExpr::Col(i) => tuple.get(*i),
            ScalarExpr::Lit(v) => Some(v),
            _ => None,
        }
    }

    /// What [`place`](Self::place) could not read: the expressions that
    /// build a value, out of line so the borrowing ones inline into
    /// their callers.
    fn compute(&self, tuple: &[Value], funcs: &FunctionRegistry) -> Result<Value, ExecError> {
        match self {
            // `place` reads every column the row has, and every literal.
            ScalarExpr::Col(i) => Err(ExecError::ColumnOutOfRange {
                index: *i,
                width: tuple.len(),
            }),
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Cmp(..) | ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Not(_) => {
                Ok(Value::from(self.eval_bool(tuple, funcs)?))
            }
            ScalarExpr::Arith(op, l, r) => {
                let lv = l.eval(tuple, funcs)?;
                let rv = r.eval(tuple, funcs)?;
                lv.with_atomics(&rv, |a, b| arith(*op, a, b)).map(Value::Atomic)
            }
            ScalarExpr::Neg(e) => e.eval(tuple, funcs)?.with_atomic(|a| match a {
                Atomic::Int(i) => Ok(Value::from(i.wrapping_neg())),
                Atomic::Float(f) => Ok(Value::from(-f)),
                other => Err(ExecError::Arithmetic(format!(
                    "cannot negate {:?}",
                    other
                ))),
            }),
            ScalarExpr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(tuple, funcs)?.into_owned());
                }
                funcs.call(name, &vals)
            }
            ScalarExpr::PathFirst(base, path) => Ok(match &*base.eval(tuple, funcs)? {
                Value::Node(n) => path.eval_first(n).unwrap_or_else(Value::null),
                _ => Value::null(),
            }),
        }
    }

    /// Evaluate as a boolean predicate: the connectives and comparisons
    /// recurse here without building a `Bool` value, left operand first
    /// and short-circuiting; anything else is [`eval`](Self::eval)'s
    /// value, read for truthiness. A comparison of two readable operands
    /// skips the `Cow`s — nothing there can fail.
    pub fn eval_bool(&self, tuple: &[Value], funcs: &FunctionRegistry) -> Result<bool, ExecError> {
        Ok(match self {
            ScalarExpr::Cmp(op, l, r) => match (l.place(tuple), r.place(tuple)) {
                (Some(lv), Some(rv)) => compare(*op, lv, rv),
                _ => {
                    let lv = l.eval(tuple, funcs)?;
                    compare(*op, &lv, &*r.eval(tuple, funcs)?)
                }
            },
            ScalarExpr::And(l, r) => l.eval_bool(tuple, funcs)? && r.eval_bool(tuple, funcs)?,
            ScalarExpr::Or(l, r) => l.eval_bool(tuple, funcs)? || r.eval_bool(tuple, funcs)?,
            ScalarExpr::Not(e) => !e.eval_bool(tuple, funcs)?,
            other => other.eval(tuple, funcs)?.truthy(),
        })
    }

    /// Column indices referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Col(i) => out.push(*i),
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Cmp(_, a, b)
            | ScalarExpr::And(a, b)
            | ScalarExpr::Or(a, b)
            | ScalarExpr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            ScalarExpr::Not(e) | ScalarExpr::Neg(e) | ScalarExpr::PathFirst(e, _) => {
                e.collect_columns(out)
            }
            ScalarExpr::Call(_, args) => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rewrite column references through a mapping (old index → new index).
    /// Used when pushing expressions through projections and joins.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => ScalarExpr::Col(map(*i)),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Cmp(op, a, b) => ScalarExpr::Cmp(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            ScalarExpr::And(a, b) => ScalarExpr::And(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            ScalarExpr::Or(a, b) => ScalarExpr::Or(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.remap_columns(map))),
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.remap_columns(map))),
            ScalarExpr::Arith(op, a, b) => ScalarExpr::Arith(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            ScalarExpr::Call(name, args) => ScalarExpr::Call(
                name.clone(),
                args.iter().map(|a| a.remap_columns(map)).collect(),
            ),
            ScalarExpr::PathFirst(e, p) => {
                ScalarExpr::PathFirst(Box::new(e.remap_columns(map)), p.clone())
            }
        }
    }
}

/// Compare two values as the mediator does: the one comparison,
/// [`nimble_xml::atomic::cmp`], of their atomized forms. Public so the
/// static analyzer can constant-fold literal comparisons with exactly
/// the runtime's semantics.
#[inline]
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> bool {
    // Read in place: only a node operand atomizes to an owned value.
    l.with_atomics(r, |la, ra| cmp(op, la, ra))
}

/// A conjunct compiled for where rows are read — a central match's
/// candidates (DESIGN.md §22), a shard scan's memo (§17): comparisons of
/// a column with a literal under `AND`, `OR` and `NOT`. It is
/// [`ScalarExpr::eval_bool`] of that shape with each literal's numeric
/// reading taken once, reads a value where it is stored, and cannot fail.
#[derive(Debug, Clone, PartialEq)]
pub enum LiteralTest {
    /// `row[col] op lit`; a literal on the left is flipped to the right.
    Cmp(Comparison),
    And(Box<LiteralTest>, Box<LiteralTest>),
    Or(Box<LiteralTest>, Box<LiteralTest>),
    Not(Box<LiteralTest>),
}

/// One comparison of a [`LiteralTest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    col: usize,
    pub op: CmpOp,
    lit: Atomic,
    /// `lit`'s numeric reading ([`Atomic::numeric`]).
    num: Option<OrderKey<'static>>,
}

impl Comparison {
    #[inline]
    fn holds(&self, value: &Atomic) -> bool {
        cmp_read(self.op, value, &self.lit, self.num)
    }
}

impl LiteralTest {
    /// `e` compiled for rows `width` values wide; `None` for arithmetic,
    /// a call, two columns, a lone column or literal, a column past
    /// `width`, or `lit LIKE col` (the pattern would come from the row).
    pub fn compile(e: &ScalarExpr, width: usize) -> Option<LiteralTest> {
        let sub = |e: &ScalarExpr| Self::compile(e, width).map(Box::new);
        Some(match e {
            ScalarExpr::Cmp(op, l, r) => {
                let (col, op, lit) = match (l.as_ref(), r.as_ref()) {
                    (ScalarExpr::Col(c), ScalarExpr::Lit(v)) => (*c, *op, v),
                    (ScalarExpr::Lit(v), ScalarExpr::Col(c)) => (*c, op.flipped()?, v),
                    _ => return None,
                };
                let lit = lit.atomize();
                (col < width).then(|| LiteralTest::Cmp(Comparison { col, op, num: lit.numeric(), lit }))?
            }
            ScalarExpr::And(l, r) => LiteralTest::And(sub(l)?, sub(r)?),
            ScalarExpr::Or(l, r) => LiteralTest::Or(sub(l)?, sub(r)?),
            ScalarExpr::Not(e) => LiteralTest::Not(sub(e)?),
            _ => return None,
        })
    }

    /// Whether `row` passes; a node value atomizes, as [`compare`] reads it.
    #[inline]
    pub fn test(&self, row: &[Value]) -> bool {
        self.eval(&|c: &Comparison| match row.get(c.col) {
            Some(Value::Atomic(a)) => c.holds(a),
            Some(v) => v.with_atomic(|a| c.holds(a)),
            None => false,
        })
    }

    /// Whether `value` passes a test compiled for one-column rows.
    #[inline]
    pub fn test_value(&self, value: &Atomic) -> bool {
        self.eval(&|c: &Comparison| c.holds(value))
    }

    /// The rows that pass, copied out: all a scan over shared rows allocates.
    pub fn select<'a>(&self, rows: impl Iterator<Item = &'a [Value]>) -> Vec<Vec<Value>> {
        rows.filter(|row| self.test(row)).map(<[Value]>::to_vec).collect()
    }

    /// A lone comparison is tested inline; only connectives recurse.
    #[inline]
    fn eval(&self, holds: &impl Fn(&Comparison) -> bool) -> bool {
        match self {
            LiteralTest::Cmp(c) => holds(c),
            _ => self.connect(holds),
        }
    }

    fn connect(&self, holds: &impl Fn(&Comparison) -> bool) -> bool {
        match self {
            LiteralTest::Cmp(c) => holds(c),
            LiteralTest::And(l, r) => l.eval(holds) && r.eval(holds),
            LiteralTest::Or(l, r) => l.eval(holds) || r.eval(holds),
            LiteralTest::Not(t) => !t.eval(holds),
        }
    }

    /// Whether every comparison satisfies `f`.
    pub fn all(&self, f: &impl Fn(&Comparison) -> bool) -> bool {
        match self {
            LiteralTest::Cmp(c) => f(c),
            LiteralTest::And(l, r) | LiteralTest::Or(l, r) => l.all(f) && r.all(f),
            LiteralTest::Not(t) => t.all(f),
        }
    }

    /// Whether every literal is a number that is not NaN (DESIGN.md §22).
    pub fn number_literals(&self) -> bool {
        self.all(&|c| match c.num {
            Some(OrderKey::Float(x)) => !x.is_nan(),
            num => num.is_some(),
        })
    }
}

/// [`Atomic::numeric`] as an `f64`, as arithmetic on a float takes it.
#[inline]
pub fn coerce_num(a: &Atomic) -> Option<f64> {
    match a.numeric()? {
        OrderKey::Int(i) => Some(i as f64),
        OrderKey::Float(f) => Some(f),
        _ => None,
    }
}

/// The numeric reading of a literal value as an `f64`, if it has one
/// ([`coerce_num`]): as arithmetic reads it, not as comparisons do
/// (those read [`Atomic::numeric`] exactly).
pub fn literal_num(v: &Value) -> Option<f64> {
    v.with_atomic(coerce_num)
}

/// Whether a literal value is Null after atomization.
pub fn literal_is_null(v: &Value) -> bool {
    v.with_atomic(Atomic::is_null)
}

/// Whether a literal value is truthy under the predicate semantics
/// `FilterOp` applies (`Value::truthy`).
pub fn literal_truth(v: &Value) -> bool {
    v.truthy()
}

/// The lexical form of a literal, as the runtime's LIKE and lexical
/// comparisons see it.
pub fn literal_lexical(v: &Value) -> String {
    v.with_atomic(Atomic::lexical)
}

fn arith(op: ArithOp, l: &Atomic, r: &Atomic) -> Result<Atomic, ExecError> {
    // Integer arithmetic stays integral; anything float-tainted widens.
    if let (Atomic::Int(a), Atomic::Int(b)) = (l, r) {
        return match op {
            ArithOp::Add => Ok(Atomic::Int(a.wrapping_add(*b))),
            ArithOp::Sub => Ok(Atomic::Int(a.wrapping_sub(*b))),
            ArithOp::Mul => Ok(Atomic::Int(a.wrapping_mul(*b))),
            ArithOp::Div => {
                if *b == 0 {
                    Err(ExecError::Arithmetic("division by zero".into()))
                } else {
                    Ok(Atomic::Int(a.wrapping_div(*b)))
                }
            }
            ArithOp::Mod => {
                if *b == 0 {
                    Err(ExecError::Arithmetic("modulo by zero".into()))
                } else {
                    Ok(Atomic::Int(a.wrapping_rem(*b)))
                }
            }
        };
    }
    let a = coerce_num(l)
        .ok_or_else(|| ExecError::Arithmetic(format!("non-numeric operand {:?}", l)))?;
    let b = coerce_num(r)
        .ok_or_else(|| ExecError::Arithmetic(format!("non-numeric operand {:?}", r)))?;
    let v = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b == 0.0 {
                return Err(ExecError::Arithmetic("division by zero".into()));
            }
            a / b
        }
        ArithOp::Mod => {
            if b == 0.0 {
                return Err(ExecError::Arithmetic("modulo by zero".into()));
            }
            a % b
        }
    };
    Ok(Atomic::Float(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Tuple;

    fn funcs() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    #[test]
    fn comparisons_numeric_coercion() {
        let f = funcs();
        let t: Tuple = vec![Value::from("10")];
        // "10" > 9 numerically, even though "10" < "9" lexically.
        let e = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(0), ScalarExpr::lit(9i64));
        assert!(e.eval_bool(&t, &f).unwrap());
    }

    #[test]
    fn eval_over_a_block_slice_equals_eval_over_a_tuple() {
        // Rows of width 3 kept row-major in one block, as a scan memo
        // keeps them: every expression kind that reads columns gives the
        // same value — or the same error — from `&block[i*w..][..w]` as
        // from the row copied out into its own `Vec`.
        let f = funcs();
        let w = 3;
        let block: Vec<Value> = vec![
            Value::from(1i64), Value::from("10"), Value::from("ada"),
            Value::from(2i64), Value::null(), Value::from("bob"),
            Value::from(3i64), Value::from(" 7 "), Value::from("a%"),
        ];
        let exprs = vec![
            ScalarExpr::Col(1),
            ScalarExpr::Col(3), // out of range: the error names the row width
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(8i64)),
            ScalarExpr::cmp(CmpOp::Like, ScalarExpr::Col(2), ScalarExpr::lit("a%")),
            ScalarExpr::Arith(
                ArithOp::Add,
                Box::new(ScalarExpr::Col(0)),
                Box::new(ScalarExpr::Col(1)),
            ),
            ScalarExpr::Arith(
                ArithOp::Mul,
                Box::new(ScalarExpr::Col(2)), // non-numeric operand: errors
                Box::new(ScalarExpr::lit(2i64)),
            ),
            ScalarExpr::Neg(Box::new(ScalarExpr::Col(0))),
            ScalarExpr::Call("upper".into(), vec![ScalarExpr::Col(2)]),
            ScalarExpr::conjunction(vec![
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::Col(0), ScalarExpr::lit(2i64)),
                ScalarExpr::Not(Box::new(ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::Col(1),
                    ScalarExpr::Lit(Value::null()),
                ))),
            ]),
        ];
        for row in block.chunks_exact(w) {
            let tuple: Tuple = row.to_vec();
            for e in &exprs {
                let from_slice = e.eval(row, &f).map_err(|x| x.to_string());
                let from_tuple = e.eval(&tuple, &f).map_err(|x| x.to_string());
                assert_eq!(from_slice, from_tuple, "{:?} over {:?}", e, row);
                assert_eq!(
                    e.eval_bool(row, &f).map_err(|x| x.to_string()),
                    e.eval_bool(&tuple, &f).map_err(|x| x.to_string()),
                );
            }
        }
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("data integration", "%integr%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let f = funcs();
        let t: Tuple = vec![];
        let e = ScalarExpr::Arith(
            ArithOp::Add,
            Box::new(ScalarExpr::lit(2i64)),
            Box::new(ScalarExpr::lit(3i64)),
        );
        assert_eq!(e.eval(&t, &f).unwrap().atomize(), Atomic::Int(5));
        let e = ScalarExpr::Arith(
            ArithOp::Div,
            Box::new(ScalarExpr::lit(1i64)),
            Box::new(ScalarExpr::Lit(Value::Atomic(Atomic::Float(2.0)))),
        );
        assert_eq!(e.eval(&t, &f).unwrap().atomize(), Atomic::Float(0.5));
    }

    #[test]
    fn division_by_zero() {
        let f = funcs();
        let e = ScalarExpr::Arith(
            ArithOp::Div,
            Box::new(ScalarExpr::lit(1i64)),
            Box::new(ScalarExpr::lit(0i64)),
        );
        assert!(matches!(
            e.eval(&vec![], &f),
            Err(ExecError::Arithmetic(_))
        ));
    }

    #[test]
    fn null_comparison_semantics() {
        let f = funcs();
        let t: Tuple = vec![Value::null()];
        let eq_null = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::lit(1i64));
        assert!(!eq_null.eval_bool(&t, &f).unwrap());
        let lt_null = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::Col(0), ScalarExpr::lit(1i64));
        assert!(!lt_null.eval_bool(&t, &f).unwrap());
    }

    #[test]
    fn short_circuit_and() {
        let f = funcs();
        // Right side would error (unknown function) but must not run.
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::lit(false)),
            Box::new(ScalarExpr::Call("no_such_fn".into(), vec![])),
        );
        assert!(!e.eval_bool(&vec![], &f).unwrap());
    }

    #[test]
    fn column_tracking_and_remap() {
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::Col(2),
                ScalarExpr::Col(0),
            )),
            Box::new(ScalarExpr::Not(Box::new(ScalarExpr::Col(2)))),
        );
        assert_eq!(e.columns(), vec![0, 2]);
        let remapped = e.remap_columns(&|i| i + 10);
        assert_eq!(remapped.columns(), vec![10, 12]);
    }

    #[test]
    fn conjunction_builder() {
        let f = funcs();
        assert!(ScalarExpr::conjunction(vec![])
            .eval_bool(&vec![], &f)
            .unwrap());
        let e = ScalarExpr::conjunction(vec![
            ScalarExpr::lit(true),
            ScalarExpr::lit(true),
            ScalarExpr::lit(false),
        ]);
        assert!(!e.eval_bool(&vec![], &f).unwrap());
    }
}
