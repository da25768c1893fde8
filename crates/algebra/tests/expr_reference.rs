//! Oracles for the borrowed evaluator and the one sort, neither of which
//! keeps a twin in the library to be compared with: an evaluator that
//! owns every value it touches, and `slice::sort_by`.

use nimble_algebra::expr::like_match;
use nimble_algebra::ops::{HashJoinOp, JoinType, Operator, SortKey, SortOp, ValuesOp};
use nimble_algebra::{
    run_to_vec, run_to_vec_batched, ArithOp, CmpOp, ExecError, FunctionRegistry, LineageMask,
    ScalarExpr, Schema, Tuple,
};
use nimble_trace::rng::{sweep, Rng, SWEEP_SEED};
use nimble_xml::{parse, Atomic, Document, Path, Sym, Value};
use std::cmp::Ordering;
use std::sync::Arc;

// ---- the reference: every read is a clone, every verdict a `Value` ----

/// A number as a comparison reads it, kept exact: an integer stays one.
#[derive(Clone, Copy)]
enum Num {
    I(i128),
    F(f64),
}

/// The comparison's numeric reading: an integer, a float, or text whose
/// trim parses as an integer (`"-0"` is −0.0), else as a float.
fn exact(a: &Atomic) -> Option<Num> {
    let t = match a {
        Atomic::Int(i) => return Some(Num::I(*i as i128)),
        Atomic::Float(f) => return Some(Num::F(*f)),
        _ => a.as_str()?.trim(),
    };
    match t.parse::<i64>() {
        Ok(0) if t.starts_with('-') => Some(Num::F(-0.0)),
        Ok(i) => Some(Num::I(i as i128)),
        Err(_) => t.parse().ok().map(Num::F),
    }
}

/// Two numbers by exact value; floats in `f64::total_cmp`'s order, where
/// an integer sits as the float of its value would, `0` as `+0.0`.
fn exact_cmp(x: Num, y: Num) -> Ordering {
    fn int_float(i: i128, f: f64) -> Ordering {
        if !f.is_finite() {
            return 0.0f64.total_cmp(&f);
        }
        if f == 0.0 {
            return i.cmp(&0).then(if f.is_sign_negative() { Ordering::Greater } else { Ordering::Equal });
        }
        match i.cmp(&(f.floor() as i128)) {
            Ordering::Equal if f.floor() != f => Ordering::Less,
            ord => ord,
        }
    }
    match (x, y) {
        (Num::I(a), Num::I(b)) => a.cmp(&b),
        (Num::F(a), Num::F(b)) => a.total_cmp(&b),
        (Num::I(a), Num::F(b)) => int_float(a, b),
        (Num::F(a), Num::I(b)) => int_float(b, a).reverse(),
    }
}

fn reference(e: &ScalarExpr, row: &[Value], funcs: &FunctionRegistry) -> Result<Value, ExecError> {
    let num = |a: &Atomic| match a {
        Atomic::Int(i) => Some(*i as f64),
        Atomic::Float(f) => Some(*f),
        Atomic::Str(_) | Atomic::Sym(_) => a.as_str().and_then(|s| s.trim().parse::<f64>().ok()),
        _ => None,
    };
    let arith_err = |m: String| Err(ExecError::Arithmetic(m));
    let truth = |e: &ScalarExpr| Ok::<bool, ExecError>(reference(e, row, funcs)?.truthy());
    Ok(match e {
        ScalarExpr::Col(i) => row.get(*i).cloned().ok_or(ExecError::ColumnOutOfRange {
            index: *i,
            width: row.len(),
        })?,
        ScalarExpr::Lit(v) => v.clone(),
        ScalarExpr::And(l, r) => Value::from(truth(l)? && truth(r)?),
        ScalarExpr::Or(l, r) => Value::from(truth(l)? || truth(r)?),
        ScalarExpr::Not(x) => Value::from(!truth(x)?),
        ScalarExpr::Cmp(op, l, r) => {
            let (la, ra) = (reference(l, row, funcs)?.atomize(), reference(r, row, funcs)?.atomize());
            let ord = match (exact(&la), exact(&ra)) {
                (Some(x), Some(y)) => exact_cmp(x, y),
                _ => la.total_cmp(&ra),
            };
            Value::from(match op {
                CmpOp::Like => like_match(&la.lexical(), &ra.lexical()),
                CmpOp::Eq if la.is_null() || ra.is_null() => la.is_null() && ra.is_null(),
                CmpOp::Ne if la.is_null() || ra.is_null() => la.is_null() != ra.is_null(),
                _ if la.is_null() || ra.is_null() => false,
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            })
        }
        ScalarExpr::Arith(op, l, r) => {
            let (la, ra) = (reference(l, row, funcs)?.atomize(), reference(r, row, funcs)?.atomize());
            let zero = |what: &str| arith_err(format!("{} by zero", what));
            if let (Atomic::Int(a), Atomic::Int(b)) = (&la, &ra) {
                return Ok(Value::from(match op {
                    ArithOp::Add => a.wrapping_add(*b),
                    ArithOp::Sub => a.wrapping_sub(*b),
                    ArithOp::Mul => a.wrapping_mul(*b),
                    ArithOp::Div if *b == 0 => return zero("division"),
                    ArithOp::Mod if *b == 0 => return zero("modulo"),
                    ArithOp::Div => a.wrapping_div(*b),
                    ArithOp::Mod => a.wrapping_rem(*b),
                }));
            }
            let Some(a) = num(&la) else { return arith_err(format!("non-numeric operand {:?}", la)) };
            let Some(b) = num(&ra) else { return arith_err(format!("non-numeric operand {:?}", ra)) };
            Value::from(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div if b == 0.0 => return zero("division"),
                ArithOp::Mod if b == 0.0 => return zero("modulo"),
                ArithOp::Div => a / b,
                ArithOp::Mod => a % b,
            })
        }
        ScalarExpr::Neg(x) => match reference(x, row, funcs)?.atomize() {
            Atomic::Int(i) => Value::from(i.wrapping_neg()),
            Atomic::Float(f) => Value::from(-f),
            other => return arith_err(format!("cannot negate {:?}", other)),
        },
        ScalarExpr::Call(name, args) => {
            let vals = args.iter().map(|a| reference(a, row, funcs)).collect::<Result<Vec<_>, _>>()?;
            funcs.call(name, &vals)?
        }
        ScalarExpr::PathFirst(base, path) => match reference(base, row, funcs)? {
            Value::Node(n) => path.eval_first(&n).unwrap_or_else(Value::null),
            _ => Value::null(),
        },
    })
}

// ---- generators ----

const TWO53: i64 = 1 << 53;
const INTS: [i64; 11] =
    [0, 1, -1, 2, 300, i64::MIN, i64::MAX, TWO53, TWO53 + 1, TWO53 - 1, -TWO53 - 1];
const FLOATS: [f64; 8] =
    [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.0, 9_007_199_254_740_992.0];
const TEXTS: [&str; 14] = [
    "10", " 7 ", "1e3", "-0", "9007199254740993", "-9223372036854775808", "abc", "", "a%", "_b%",
    "NaN", "inf", "  ", "true",
];

fn docs() -> Vec<Arc<Document>> {
    ["<r><a>42</a><b> 5 </b><c>x</c><d/><e><f>1</f><f>2</f></e></r>", "<r><a>7</a><c>abc</c></r>"]
        .iter()
        .map(|x| parse(x).unwrap())
        .collect()
}

fn value(rng: &mut Rng, docs: &[Arc<Document>], depth: usize) -> Value {
    match rng.below(if depth > 1 { 7 } else { 9 }) {
        0 => Value::null(),
        1 => Value::from(rng.chance(0.5)),
        2 => Value::from(if rng.chance(0.7) { *rng.pick(&INTS) } else { rng.any_i64() }),
        3 => Value::from(*rng.pick(&FLOATS)),
        4 => Value::from(*rng.pick(&TEXTS)),
        5 => Value::Atomic(Atomic::Sym(Sym::intern(*rng.pick(&TEXTS)))),
        6 | 7 => {
            let root = rng.pick(docs).root();
            let mut nodes: Vec<_> = root.children().collect();
            nodes.push(root);
            Value::Node(rng.pick(&nodes).clone())
        }
        _ => Value::List(Arc::new((0..rng.below(3)).map(|_| value(rng, docs, depth + 1)).collect())),
    }
}

fn expr(rng: &mut Rng, docs: &[Arc<Document>], width: usize, depth: usize) -> ScalarExpr {
    let sub = |rng: &mut Rng| Box::new(expr(rng, docs, width, depth + 1));
    match if depth >= 4 { rng.below(3) } else { rng.below(13) } {
        // One column past the row now and then: the error names it.
        0 | 1 => ScalarExpr::Col(rng.below(width) + usize::from(rng.chance(0.03))),
        2 => ScalarExpr::Lit(value(rng, docs, 0)),
        3..=5 => {
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Like];
            ScalarExpr::Cmp(*rng.pick(&ops), sub(rng), sub(rng))
        }
        6 => ScalarExpr::And(sub(rng), sub(rng)),
        7 => ScalarExpr::Or(sub(rng), sub(rng)),
        8 => ScalarExpr::Not(sub(rng)),
        9 => {
            let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod];
            ScalarExpr::Arith(*rng.pick(&ops), sub(rng), sub(rng))
        }
        10 => ScalarExpr::Neg(sub(rng)),
        11 => {
            // `fails` errors on a null argument, `no_such_fn` on any.
            let name = *rng.pick(&["upper", "length", "concat", "fails", "no_such_fn"]);
            let args = (0..1 + rng.below(2)).map(|_| *sub(rng)).collect();
            ScalarExpr::Call(name.to_string(), args)
        }
        _ => ScalarExpr::PathFirst(sub(rng), Path::parse(*rng.pick(&["a", "e/f", "zz"])).unwrap()),
    }
}

fn registry() -> FunctionRegistry {
    let mut funcs = FunctionRegistry::with_builtins();
    funcs.register("fails", |args| match args.first() {
        Some(v) if !v.is_null() => Ok(v.clone()),
        _ => Err(ExecError::FunctionArgs { func: "fails".into(), message: "null".into() }),
    });
    funcs
}

/// What two values must share to count as the same: variant, payload
/// and, for a node, identity — `Value`'s own `==` is join-key equality.
fn shown(v: &Value) -> String {
    format!("{:?}", v)
}

// ---- (a) the evaluator ----

#[test]
fn borrowed_eval_agrees_with_the_owned_reference_on_values_errors_and_failing_row() {
    eprintln!("expr_reference: sweep seed {:#x}", SWEEP_SEED);
    let (docs, funcs) = (docs(), registry());
    let mut errors = 0;
    sweep(768, |rng| {
        let width = 1 + rng.below(4);
        let rows: Vec<Tuple> = (0..1 + rng.below(8))
            .map(|_| (0..width).map(|_| value(rng, &docs, 0)).collect())
            .collect();
        let e = expr(rng, &docs, width, 0);
        // Row by row until the first error, as an operator would: the
        // same values before it, the same error from the same row.
        let run = |eval: &dyn Fn(&[Value]) -> Result<String, ExecError>| {
            let mut seen = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                match eval(row) {
                    Ok(v) => seen.push(v),
                    Err(err) => return (seen, Some((i, err))),
                }
            }
            (seen, None)
        };
        let want = run(&|row| reference(&e, row, &funcs).map(|v| shown(&v)));
        let got = run(&|row| e.eval(row, &funcs).map(|v| shown(&v)));
        assert_eq!(got, want, "eval of {:?} over {:?}", e, rows);
        let want = run(&|row| reference(&e, row, &funcs).map(|v| v.truthy().to_string()));
        let got = run(&|row| e.eval_bool(row, &funcs).map(|b| b.to_string()));
        assert_eq!(got, want, "eval_bool of {:?} over {:?}", e, rows);
        errors += usize::from(want.1.is_some());
    });
    // The sweep is not blind on either side.
    assert!((50..700).contains(&errors), "{} of 768 cases ended in an error", errors);
}

#[test]
fn comparison_is_exact_at_the_integer_edges() {
    // Every pair of the edge values, every operator, as integers and as
    // their spellings: the borrowed `compare` and the reference agree —
    // and no two integers meet as one `f64`.
    let funcs = registry();
    let edges = [i64::MIN, i64::MAX, 0, -1, TWO53, TWO53 + 1, TWO53 - 1, -TWO53 - 1];
    let mut forms: Vec<Value> = edges.iter().map(|&i| Value::from(i)).collect();
    forms.extend(edges.iter().map(|i| Value::from(i.to_string().as_str())));
    forms.extend([Value::from("-0"), Value::from(-0.0), Value::from(0.0)]);
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Like];
    for l in &forms {
        for r in &forms {
            for op in ops {
                let e = ScalarExpr::cmp(op, ScalarExpr::Col(0), ScalarExpr::Lit(r.clone()));
                let row = [l.clone()];
                assert_eq!(
                    e.eval_bool(&row, &funcs).unwrap(),
                    reference(&e, &row, &funcs).unwrap().truthy(),
                    "{:?} {:?} {:?}",
                    l, op, r
                );
            }
        }
    }
    let holds = |l: Value, op, r: Value| nimble_algebra::expr::compare(op, &l, &r);
    assert!(!holds(Value::from(TWO53), CmpOp::Eq, Value::from(TWO53 + 1)), "2^53 + 1 is not 2^53");
    assert!(holds(Value::from(TWO53 - 1), CmpOp::Lt, Value::from(TWO53)));
    assert!(holds(Value::from(i64::MIN), CmpOp::Lt, Value::from(i64::MAX)));
    assert!(!holds(Value::from(i64::MAX), CmpOp::Eq, Value::from(i64::MAX - 1)), "nor i64::MAX - 1 i64::MAX");
    assert!(holds(Value::from("-0"), CmpOp::Lt, Value::from(0i64)), "f64 total order: -0 < +0");
    assert!(holds(Value::from(i64::MIN), CmpOp::Eq, Value::from("-9223372036854775808")));
}

#[test]
fn the_hash_join_equates_exactly_the_values_compare_calls_equal() {
    // `compare(Eq, a, b)` iff the hash join pairs `a` with `b` (its
    // `typed_key`), for non-null values that do not read as NaN: the
    // generator's values, atomized, and the mixed classes.
    let docs = docs();
    let mut pool: Vec<Atomic> = ["2", " 2 ", "2.0", "x", "", "-0", "+2", "9007199254740993", "true"]
        .map(Atomic::from)
        .into_iter()
        .chain([2.0, -0.0, 0.0, TWO53 as f64].map(Atomic::Float))
        .chain([2, 0, TWO53, TWO53 + 1].map(Atomic::Int))
        .chain([Atomic::Bool(true), Atomic::Sym(Sym::intern(" 2 "))])
        .collect();
    let mut rng = Rng::new(SWEEP_SEED);
    pool.extend((0..300).map(|_| value(&mut rng, &docs, 0).atomize()));
    pool.retain(|a| !a.is_null() && !exact(a).is_some_and(|n| matches!(n, Num::F(f) if f.is_nan())));
    let side = |name: &str| {
        let rows = pool.iter().enumerate().map(|(i, a)| vec![Value::Atomic(a.clone()), Value::from(i as i64)]);
        ValuesOp::new(Schema::new(vec![format!("{}k", name), format!("{}i", name)]), rows.collect())
    };
    let mut join = HashJoinOp::new(Box::new(side("l")), Box::new(side("r")), vec![0], vec![0], JoinType::Inner);
    let id = |v: &Value| match v.atomize() {
        Atomic::Int(i) => i as usize,
        other => panic!("{:?}", other),
    };
    let joined: std::collections::HashSet<(usize, usize)> =
        run_to_vec(&mut join).unwrap().iter().map(|t| (id(&t[1]), id(&t[3]))).collect();
    let mut equal = 0;
    for (i, a) in pool.iter().enumerate() {
        for (j, b) in pool.iter().enumerate() {
            let eq = nimble_algebra::expr::compare(CmpOp::Eq, &Value::Atomic(a.clone()), &Value::Atomic(b.clone()));
            assert_eq!(eq, joined.contains(&(i, j)), "{:?} = {:?}", a, b);
            equal += usize::from(eq && i != j);
        }
    }
    assert!(equal > 100, "{} equal pairs", equal);
}

// ---- (b) the sort ----

/// A leaf that reads its rows afresh at every `open`, so that the sort
/// above it can be re-opened: a `ValuesOp` hands its rows over once.
struct Replay {
    rows: Vec<Tuple>,
    masks: Vec<LineageMask>,
    scan: ValuesOp,
}

impl Operator for Replay {
    fn schema(&self) -> &Schema {
        self.scan.schema()
    }
    fn open(&mut self) -> Result<(), ExecError> {
        let schema = self.scan.schema().clone();
        self.scan = ValuesOp::new(schema, self.rows.clone()).with_lineage_masks(self.masks.clone());
        self.scan.open()
    }
    fn next_batch(&mut self, out: &mut Vec<Tuple>, max: usize) -> Result<usize, ExecError> {
        self.scan.next_batch(out, max)
    }
    fn close(&mut self) {
        self.scan.close()
    }
    fn describe(&self) -> String {
        "Replay".into()
    }
    fn children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }
    fn rows_out(&self) -> u64 {
        self.scan.rows_out()
    }
    fn lineage(&self) -> Option<&[LineageMask]> {
        self.scan.lineage()
    }
}

#[test]
fn sort_is_a_stable_total_cmp_sort_of_rows_and_lineage_and_reopens() {
    let docs = docs();
    sweep(512, |rng| {
        let width = 1 + rng.below(3);
        // Few distinct values per column, so ties are the rule; node
        // keys come from two documents.
        let pool: Vec<Value> = (0..2 + rng.below(5)).map(|_| value(rng, &docs, 0)).collect();
        let rows: Vec<Tuple> = (0..rng.below(40))
            .map(|_| (0..width).map(|_| rng.pick(&pool).clone()).collect())
            .collect();
        let masks: Vec<LineageMask> =
            rows.iter().map(|_| LineageMask::single(rng.below(5) as u32)).collect();
        let keys: Vec<SortKey> = (0..1 + rng.below(width))
            .map(|_| SortKey { column: rng.below(width), descending: rng.chance(0.5) })
            .collect();

        let mut want: Vec<(Tuple, LineageMask)> = rows.iter().cloned().zip(masks.clone()).collect();
        want.sort_by(|(a, _), (b, _)| {
            keys.iter().fold(Ordering::Equal, |acc, k| {
                let ord = a[k.column].total_cmp(&b[k.column]);
                acc.then(if k.descending { ord.reverse() } else { ord })
            })
        });
        let want_rows: Vec<Vec<String>> = want.iter().map(|(t, _)| t.iter().map(shown).collect()).collect();
        let want_masks: Vec<LineageMask> = want.iter().map(|(_, m)| *m).collect();

        let schema = Schema::new((0..width).map(|i| format!("c{}", i)).collect());
        let scan = ValuesOp::new(schema, Vec::new());
        let source = Replay { rows: rows.clone(), masks, scan };
        let mut op = SortOp::new(Box::new(source), keys.clone());
        // Three drains of one operator: a row at a time, in odd-sized
        // batches, and in whole ones — each re-opens the sort, whose rows
        // left by move the time before.
        for batch in [1, 7, 1024] {
            let got = run_to_vec_batched(&mut op, batch).unwrap().0;
            let got: Vec<Vec<String>> = got.iter().map(|t| t.iter().map(shown).collect()).collect();
            assert_eq!(got, want_rows, "keys {:?} over {:?}", keys, rows);
            assert_eq!(op.lineage().unwrap(), &want_masks[..], "keys {:?}", keys);
        }
    });
}
