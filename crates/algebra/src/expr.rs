//! Scalar expressions evaluated against tuples.

use crate::error::ExecError;
use crate::funcs::FunctionRegistry;
use nimble_xml::{Atomic, Path, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// The value type carried by [`ScalarExpr::Lit`], re-exported so crates
/// that link only `nimble-algebra` (the static analyzer) can name it.
pub use nimble_xml::Value as LiteralValue;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// SQL LIKE with `%` (any run) and `_` (any char).
    Like,
}

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

/// Compare two values under the engine's coercion semantics: LIKE is
/// lexical, numeric-looking operands compare numerically, and any
/// comparison with Null is false except `Null = Null` / one-sided `!=`.
/// Public so the static analyzer can constant-fold literal comparisons
/// with exactly the runtime's semantics.
#[inline]
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> bool {
    // Read in place: only a node operand atomizes to an owned value.
    l.with_atomics(r, |la, ra| compare_atomics(op, la, ra))
}

#[inline]
fn compare_atomics(op: CmpOp, la: &Atomic, ra: &Atomic) -> bool {
    // Bit `ord + 1` is set when the operator accepts that ordering.
    let accepts: u8 = match op {
        CmpOp::Like => return like_match(&la.lexical(), &ra.lexical()),
        CmpOp::Eq => 0b010,
        CmpOp::Ne => 0b101,
        CmpOp::Lt => 0b001,
        CmpOp::Le => 0b011,
        CmpOp::Gt => 0b100,
        CmpOp::Ge => 0b110,
    };
    let ord = match (coerce_num(la), coerce_num(ra)) {
        // Numeric-looking strings compare numerically against numbers,
        // which matters because parsed XML content is textual.
        (Some(x), Some(y)) => x.total_cmp(&y),
        // SQL-ish null semantics for comparisons: anything compared
        // with Null is false except Null = Null.
        _ if la.is_null() || ra.is_null() => {
            return match op {
                CmpOp::Eq => la.is_null() && ra.is_null(),
                CmpOp::Ne => la.is_null() != ra.is_null(),
                _ => false,
            }
        }
        _ => la.total_cmp(ra),
    };
    accepts >> (ord as i8 + 1) & 1 == 1
}

#[inline]
fn coerce_num(a: &Atomic) -> Option<f64> {
    match a {
        Atomic::Int(i) => Some(*i as f64),
        Atomic::Float(f) => Some(*f),
        Atomic::Str(_) | Atomic::Sym(_) => {
            a.as_str().and_then(|s| s.trim().parse::<f64>().ok())
        }
        _ => None,
    }
}

/// The numeric coercion of a literal value, if it has one — the same
/// rule `compare` and `arith` apply at runtime (Int, Float, or a
/// numeric-looking string). Used by the static analyzer's interval
/// propagation, and by a central match's join-variable probes to tell
/// which values and literals compare as numbers.
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

/// SQL LIKE matcher: `%` matches any run, `_` any single char.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                (0..=t.len()).any(|k| rec(&t[k..], rest))
            }
            Some(('_', rest)) => match t.split_first() {
                Some((_, t_rest)) => rec(t_rest, rest),
                None => false,
            },
            Some((c, rest)) => match t.split_first() {
                Some((tc, t_rest)) => tc == c && rec(t_rest, rest),
                None => false,
            },
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
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

/// Convenience: a registry wrapped for sharing across operators.
pub fn shared_registry() -> Arc<FunctionRegistry> {
    Arc::new(FunctionRegistry::with_builtins())
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
