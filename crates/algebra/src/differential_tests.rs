//! Deterministic tests of the value-equality edges: the hash join's
//! typed key is held to a written-down relation (`join_classes`), and
//! the index sort to a stable `Value::total_cmp` sort. The edges under
//! test:
//!
//! * `NaN` — all NaNs collapse to one join key.
//! * `0.0` vs `-0.0` — distinct.
//! * `2^53` and `2^53 + 1` — the boundary where `i64` leaves the f64
//!   numeric class for the exact-int class.
//! * `""` — the empty string is a real string key, distinct from null.
//! * `Sym` vs `Str` of the same content — interning is invisible.
//! * Numeric strings (`"42"`, `" 42 "`) — coerce into the numeric
//!   class, whitespace-trimmed; `"-0"` is `-0.0`, as `compare` reads it.
//!
//! The fixed-input counterpart of the seeded sweeps in `tests/props.rs`.
//!
//! Beside the join relation, the invariant a central match's
//! join-variable probe rests on (DESIGN.md §22): two values the join
//! calls equal compare alike with a number, when they are numbers
//! themselves — and the counter-cases that say why the probe guards for
//! exactly that. And the kernel those probes and a shard scan run: a
//! [`LiteralTest`] is `eval_bool` of the expression it compiles, over
//! the same coercion edges.

use crate::expr::{compare, literal_num, CmpOp, LiteralTest, ScalarExpr};
use crate::funcs::FunctionRegistry;
use crate::ops::{HashJoinOp, JoinType, Operator, SortKey, SortOp, ValuesOp};
use crate::run_to_vec;
use crate::schema::{Schema, Tuple};
use nimble_xml::{Atomic, Sym, Value};

/// The edge atoms, as a reusable column of values.
fn edge_values() -> Vec<Value> {
    vec![
        Value::Atomic(Atomic::Float(f64::NAN)),
        Value::Atomic(Atomic::Float(0.0)),
        Value::Atomic(Atomic::Float(-0.0)),
        Value::Atomic(Atomic::Int(1 << 53)),
        Value::Atomic(Atomic::Int((1i64 << 53) + 1)),
        Value::Atomic(Atomic::Float((1u64 << 53) as f64)),
        Value::Atomic(Atomic::Str(String::new())),
        Value::Atomic(Atomic::Str("42".to_string())),
        Value::Atomic(Atomic::Str(" 42 ".to_string())),
        Value::Atomic(Atomic::Int(42)),
        Value::Atomic(Atomic::Str("apple".to_string())),
        Value::Atomic(Atomic::Sym(Sym::intern("apple"))),
        Value::Atomic(Atomic::Str("pear".to_string())),
        Value::Atomic(Atomic::Bool(true)),
        Value::Atomic(Atomic::Bool(false)),
        Value::Atomic(Atomic::Null),
    ]
}

fn one_col_source(var: &str, vals: Vec<Value>) -> ValuesOp {
    let schema = Schema::new(vec![var.to_string()]);
    ValuesOp::new(schema, vals.into_iter().map(|v| vec![v]).collect())
}

/// Render a tuple to a comparable string: the lexical form of each
/// value plus a tag separating the float/int/string classes is NOT
/// used here on purpose — the point is observable output equality, and
/// lexical forms are the observable output.
fn render(t: &Tuple) -> String {
    t.iter()
        .map(|v| match v.atomize() {
            Atomic::Null => "\u{0}null".to_string(),
            other => other.lexical(),
        })
        .collect::<Vec<_>>()
        .join("\u{1}")
}

fn rows_rendered(op: &mut dyn Operator) -> Vec<String> {
    run_to_vec(op).unwrap().iter().map(render).collect()
}

/// The join's equality relation, written down: values join iff they
/// carry the same class number here. This table is the specification
/// `ops::join::typed_key` is held to — there is no second implementation
/// to compare against.
fn join_classes() -> Vec<(u32, Value)> {
    let p53 = 1i64 << 53;
    let a = |a: Atomic| Value::Atomic(a);
    vec![
        // All NaNs are one class, whatever their payload or sign.
        (0, a(Atomic::Float(f64::NAN))),
        (0, a(Atomic::Float(-f64::NAN))),
        // 0.0 and -0.0 are different classes, whichever way they are
        // spelled.
        (1, a(Atomic::Float(0.0))),
        (1, a(Atomic::Int(0))),
        (1, a(Atomic::Str(" 0 ".to_string()))),
        (2, a(Atomic::Float(-0.0))),
        (2, a(Atomic::Str("-0".to_string()))),
        (2, a(Atomic::Sym(Sym::intern("-0.0")))),
        // Int 2^53 ≡ Float 2^53; 2^53 + 1 is alone.
        (3, a(Atomic::Int(p53))),
        (3, a(Atomic::Float(p53 as f64))),
        (4, a(Atomic::Int(p53 + 1))),
        // "" is a string, not null; null ≡ null.
        (5, a(Atomic::Str(String::new()))),
        (6, a(Atomic::Null)),
        // Numeric text joins the number it spells, trimmed.
        (7, a(Atomic::Str("42".to_string()))),
        (7, a(Atomic::Str(" 42 ".to_string()))),
        (7, a(Atomic::Int(42))),
        (7, a(Atomic::Float(42.0))),
        // Interning is invisible.
        (8, a(Atomic::Str("apple".to_string()))),
        (8, a(Atomic::Sym(Sym::intern("apple")))),
        (9, a(Atomic::Str("pear".to_string()))),
        (10, a(Atomic::Bool(true))),
        (11, a(Atomic::Bool(false))),
    ]
}

/// Self-join `rows` (key columns first, row id last) on the first
/// `arity` columns, drained in batches of `batch`, and return the joined
/// `(left id, right id)` pairs, sorted.
fn joined_ids(rows: &[Tuple], arity: usize, batch: usize) -> Vec<(i64, i64)> {
    let source = |prefix: &str| {
        let vars = (0..=arity).map(|c| format!("{}{}", prefix, c)).collect();
        ValuesOp::new(Schema::new(vars), rows.to_vec())
    };
    let keys: Vec<usize> = (0..arity).collect();
    let mut join = HashJoinOp::new(
        Box::new(source("l")),
        Box::new(source("r")),
        keys.clone(),
        keys,
        JoinType::Inner,
    );
    let out = crate::run_to_vec_batched(&mut join, batch).unwrap().0;
    let id = |v: &Value| match v.atomize() {
        Atomic::Int(i) => i,
        other => panic!("row id must be an int, got {:?}", other),
    };
    let mut pairs: Vec<(i64, i64)> = out
        .iter()
        .map(|t| (id(&t[arity]), id(&t[2 * arity + 1])))
        .collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn hash_join_equality_classes_are_the_written_relation() {
    let classes = join_classes();
    // Single-column key, every value 30 times.
    let single: Vec<(u32, Value)> = (0..30).flat_map(|_| classes.iter().cloned()).collect();
    let single_rows: Vec<Tuple> = single
        .iter()
        .enumerate()
        .map(|(id, (_, v))| vec![v.clone(), Value::from(id as i64)])
        .collect();
    let mut single_want = Vec::new();
    for (i, (ci, _)) in single.iter().enumerate() {
        for (j, (cj, _)) in single.iter().enumerate() {
            if ci == cj {
                single_want.push((i as i64, j as i64));
            }
        }
    }
    // Two-column composite key: every ordered pair of table values;
    // rows join iff both columns are class-equal.
    let mut pair_classes: Vec<(u32, u32)> = Vec::new();
    let mut pair_rows: Vec<Tuple> = Vec::new();
    for (ca, va) in &classes {
        for (cb, vb) in &classes {
            let id = pair_rows.len() as i64;
            pair_classes.push((*ca, *cb));
            pair_rows.push(vec![va.clone(), vb.clone(), Value::from(id)]);
        }
    }
    let mut pair_want = Vec::new();
    for (i, ci) in pair_classes.iter().enumerate() {
        for (j, cj) in pair_classes.iter().enumerate() {
            if ci == cj {
                pair_want.push((i as i64, j as i64));
            }
        }
    }
    for batch in [1, 4] {
        assert_eq!(
            joined_ids(&single_rows, 1, batch),
            single_want,
            "single-column key, batch={batch}"
        );
        assert_eq!(
            joined_ids(&pair_rows, 2, batch),
            pair_want,
            "composite key, batch={batch}"
        );
    }
}

/// Values at every edge of the numeric coercion: `i64`s at 2^53 ± 1 as
/// ints, text and floats; padded, exponent and infinite text; both
/// zeros, spelled every way; NaNs with other signs and payloads; numeric
/// and other `Sym`s; null and `""`.
fn coercion_pool() -> Vec<Value> {
    let p53 = 1i64 << 53;
    let mut pool = Vec::new();
    for i in [p53 - 1, p53, p53 + 1] {
        pool.push(Atomic::Int(i));
        pool.push(Atomic::Str(i.to_string()));
        pool.push(Atomic::Str(format!(" {} ", i)));
        pool.push(Atomic::Float(i as f64));
    }
    pool.extend([
        Atomic::Int(2),
        Atomic::Float(2.0),
        Atomic::Str("2".into()),
        Atomic::Str(" 2 ".into()),
        Atomic::Sym(Sym::intern("2")),
        Atomic::Sym(Sym::intern(" 2 ")),
        Atomic::Str("1e3".into()),
        Atomic::Int(1000),
        Atomic::Float(1000.0),
        Atomic::Str("inf".into()),
        Atomic::Str("-inf".into()),
        Atomic::Float(f64::INFINITY),
        Atomic::Float(f64::NEG_INFINITY),
        Atomic::Float(0.0),
        Atomic::Float(-0.0),
        Atomic::Int(0),
        Atomic::Str("0".into()),
        Atomic::Str("-0".into()),
        Atomic::Str(" -0 ".into()),
        Atomic::Str("-0.0".into()),
        Atomic::Sym(Sym::intern("-0")),
        Atomic::Float(f64::NAN),
        Atomic::Float(-f64::NAN),
        Atomic::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Atomic::Str("NaN".into()),
        Atomic::Int(-3),
        Atomic::Str("-3".into()),
        Atomic::Float(2.5),
        Atomic::Str("abc".into()),
        Atomic::Sym(Sym::intern("abc")),
        Atomic::Bool(true),
        Atomic::Str(String::new()),
        Atomic::Null,
    ]);
    pool.into_iter().map(Value::Atomic).collect()
}

/// What the probe guard asks of a value or a literal: a number, not NaN.
fn is_number(v: &Value) -> bool {
    literal_num(v).is_some_and(|x| !x.is_nan())
}

const ORDERINGS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

#[test]
fn values_the_join_equates_compare_alike_with_a_number_when_they_are_numbers() {
    let pool = coercion_pool();
    // The hash join's pairs (its `typed_key`), read off the operator.
    let rows: Vec<Tuple> = pool
        .iter()
        .enumerate()
        .map(|(id, v)| vec![v.clone(), Value::from(id as i64)])
        .collect();
    let mut pairs: Vec<(usize, usize)> = joined_ids(&rows, 1, 1)
        .into_iter()
        .map(|(a, b)| (a as usize, b as usize))
        .collect();
    // `Value::key_eq`'s pairs (a repeated pattern variable, a dependent
    // atom's shared variable).
    for (i, a) in pool.iter().enumerate() {
        for (j, b) in pool.iter().enumerate() {
            if a.key_eq(b) {
                pairs.push((i, j));
            }
        }
    }
    let mut checked = 0;
    for &(i, j) in &pairs {
        let (a, b) = (&pool[i], &pool[j]);
        if !is_number(a) {
            continue;
        }
        // The lemma: both coerce to the same f64, bit for bit.
        assert_eq!(
            literal_num(a).map(f64::to_bits),
            literal_num(b).map(f64::to_bits),
            "{:?} and {:?} join",
            a,
            b
        );
        for lit in pool.iter().filter(|l| is_number(l)) {
            for op in ORDERINGS {
                assert_eq!(
                    compare(op, a, lit),
                    compare(op, b, lit),
                    "{:?} {:?} {:?} against {:?}, which joins it",
                    a,
                    op,
                    lit,
                    b
                );
                checked += 1;
            }
        }
    }
    eprintln!(
        "coercion sweep: {} join-equal pairs, {} comparisons",
        pairs.len(),
        checked
    );
    assert!(checked > 10_000, "{} comparisons", checked);
}

/// Why the guard is what it is: pairs the join equates that compare
/// differently once the operator, the literal or the value leaves it.
#[test]
fn like_a_string_literal_and_nan_are_where_joined_values_compare_apart() {
    let a = |a: Atomic| Value::Atomic(a);
    let cases: [(Value, Value, CmpOp, Value, &str); 4] = [
        (
            a(Atomic::Int(2)),
            a(Atomic::Float(2.0)),
            CmpOp::Like,
            a(Atomic::Str("2".into())),
            "LIKE reads the lexical form, and the join keeps the number",
        ),
        (
            a(Atomic::Int(9)),
            a(Atomic::Str("9".into())),
            CmpOp::Lt,
            a(Atomic::Str("10x".into())),
            "against a literal that is not a number, a number orders by type and text by text",
        ),
        (
            a(Atomic::Float(f64::NAN)),
            a(Atomic::Float(-f64::NAN)),
            CmpOp::Lt,
            a(Atomic::Int(1)),
            "every NaN is one join key, but compare orders NaNs by sign",
        ),
        (
            a(Atomic::Str("nan".into())),
            a(Atomic::Float(-f64::NAN)),
            CmpOp::Gt,
            a(Atomic::Int(1)),
            "a NaN spelled as text joins every other NaN too",
        ),
    ];
    for (x, y, op, lit, why) in cases {
        let rows = [
            vec![x.clone(), Value::from(0i64)],
            vec![y.clone(), Value::from(1i64)],
        ];
        assert!(
            joined_ids(&rows, 1, 1).contains(&(0, 1)),
            "{}: {:?} and {:?} must join",
            why,
            x,
            y
        );
        assert_ne!(compare(op, &x, &lit), compare(op, &y, &lit), "{}", why);
        // And the guard turns each one away: the operator is not an
        // ordering, or a value or the literal is not a number.
        assert!(
            op == CmpOp::Like || !is_number(&lit) || !is_number(&x) || !is_number(&y),
            "{}",
            why
        );
    }
}

const OPERATORS: [CmpOp; 7] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Like,
];

/// The coercion pool, and node values: elements holding a value of it as
/// their one text child, an empty one, and one whose text is several
/// nodes.
fn values_with_nodes() -> Vec<Value> {
    let doc = nimble_xml::parse("<r><v>2</v><v> 2 </v><v>-0</v><v>abc</v><v/><v><a>1</a>0</v></r>").unwrap();
    let mut values = coercion_pool();
    values.extend(doc.root().children().map(Value::Node));
    values
}

fn lit(v: &Value) -> Box<ScalarExpr> {
    Box::new(ScalarExpr::Lit(v.clone()))
}

#[test]
fn a_literal_test_is_eval_bool_of_what_it_compiles() {
    let (funcs, pool, values) = (FunctionRegistry::with_builtins(), coercion_pool(), values_with_nodes());
    let col = |c: usize| Box::new(ScalarExpr::Col(c));
    let mut checked = 0;
    // Every value against every literal, by every operator, the column
    // on either side: `lit LIKE col` reads its pattern from the row and
    // is the one that does not compile.
    for l in pool.iter().chain(&values) {
        for op in OPERATORS {
            for e in [ScalarExpr::Cmp(op, col(0), lit(l)), ScalarExpr::Cmp(op, lit(l), col(0))] {
                let Some(test) = LiteralTest::compile(&e, 1) else {
                    assert!(op == CmpOp::Like && matches!(&e, ScalarExpr::Cmp(_, left, _) if **left != ScalarExpr::Col(0)));
                    continue;
                };
                for v in &values {
                    let row = std::slice::from_ref(v);
                    let want = e.eval_bool(row, &funcs).unwrap();
                    assert_eq!(test.test(row), want, "{:?} over {:?}", e, v);
                    if let Some(a) = v.as_atomic() {
                        assert_eq!(test.test_value(a), want, "{:?} over {:?}", e, v);
                    }
                    checked += 1;
                }
            }
        }
    }
    // Compositions under AND, OR and NOT of comparisons on two columns.
    let leaves: Vec<ScalarExpr> = pool
        .iter()
        .step_by(3)
        .enumerate()
        .map(|(i, l)| match OPERATORS[i % OPERATORS.len()] {
            op if i % 3 == 0 && op != CmpOp::Like => ScalarExpr::Cmp(op, lit(l), col(i % 2)),
            op => ScalarExpr::Cmp(op, col(i % 2), lit(l)),
        })
        .collect();
    let rows: Vec<[Value; 2]> = values
        .iter()
        .step_by(4)
        .flat_map(|v| values.iter().step_by(5).map(move |w| [v.clone(), w.clone()]))
        .collect();
    for a in &leaves {
        for b in &leaves {
            let (a, b) = (Box::new(a.clone()), Box::new(b.clone()));
            for e in [
                ScalarExpr::And(a.clone(), b.clone()),
                ScalarExpr::Or(a.clone(), Box::new(ScalarExpr::Not(b.clone()))),
                ScalarExpr::Not(Box::new(ScalarExpr::And(a.clone(), Box::new(ScalarExpr::Or(b.clone(), a))))),
            ] {
                let test = LiteralTest::compile(&e, 2).unwrap();
                for row in &rows {
                    assert_eq!(test.test(row), e.eval_bool(row, &funcs).unwrap(), "{:?} over {:?}", e, row);
                    checked += 1;
                }
            }
        }
    }
    // Anything else is not a literal test.
    let plus_one = ScalarExpr::Arith(crate::ArithOp::Add, col(0), lit(&Value::from(1i64)));
    for e in [
        ScalarExpr::Cmp(CmpOp::Gt, Box::new(plus_one), lit(&Value::from(3i64))),
        ScalarExpr::Cmp(CmpOp::Eq, Box::new(ScalarExpr::Call("upper".into(), vec![ScalarExpr::Col(0)])), lit(&Value::from("A"))),
        ScalarExpr::Cmp(CmpOp::Lt, col(0), col(1)),
        ScalarExpr::Cmp(CmpOp::Eq, lit(&Value::from(1i64)), lit(&Value::from(1i64))),
        ScalarExpr::Cmp(CmpOp::Eq, col(2), lit(&Value::from(1i64))),
        ScalarExpr::Col(0),
        ScalarExpr::lit(true),
    ] {
        assert_eq!(LiteralTest::compile(&e, 2), None, "{:?}", e);
    }
    eprintln!("literal test oracle: {} evaluations", checked);
    assert!(checked > 50_000, "{} evaluations", checked);
}

#[test]
fn sort_matches_stable_total_cmp_on_edges() {
    // The specification of ORDER-BY: a stable sort under
    // `Value::total_cmp`. The operator's index sort must produce that
    // order.
    let mut want = edge_values();
    want.sort_by(|a, b| a.total_cmp(b));
    let want: Vec<String> = want.into_iter().map(|v| render(&vec![v])).collect();
    let key = vec![SortKey {
        column: 0,
        descending: false,
    }];
    let mut op = SortOp::new(Box::new(one_col_source("x", edge_values())), key);
    assert_eq!(rows_rendered(&mut op), want);
}

#[test]
fn the_decorated_sort_is_a_stable_total_cmp_sort() {
    // The sort reads each row's keys once into a borrowed key vector;
    // the specification is still a stable sort under `Value::total_cmp`,
    // key by key in each direction. Over the coercion pool, nodes (one
    // whose text spans two nodes, two that tie but for document order)
    // and lists (empty, one item, several), for one to three keys.
    let mut values = values_with_nodes();
    // Two nodes of one typed value no atom shares, in reverse document
    // order: only the document-order tiebreak orders them.
    let twins = nimble_xml::parse("<r><t>twin</t><t>twin</t></r>").unwrap();
    values.extend(twins.root().children().map(Value::Node).collect::<Vec<_>>().into_iter().rev());
    let list = |items: Vec<Value>| Value::List(std::sync::Arc::new(items));
    values.extend([
        list(vec![]),
        list(vec![Value::from(7i64)]),
        list(vec![Value::from(7i64), Value::from("x")]),
        list(vec![Value::from("zz"), Value::from(1i64)]),
    ]);
    let n = values.len();
    let mut checked = 0;
    for width in 1..=3usize {
        let rows: Vec<Tuple> = (0..3 * n)
            .map(|i| {
                let mut row: Vec<Value> = (0..width).map(|j| values[(i * [1, 7, 13][j] + j) % n].clone()).collect();
                row.push(Value::from(i as i64));
                row
            })
            .collect();
        for directions in 0..1u32 << width {
            let keys: Vec<SortKey> = (0..width)
                .map(|j| SortKey {
                    column: j,
                    descending: directions >> j & 1 == 1,
                })
                .collect();
            let mut want = rows.clone();
            want.sort_by(|a, b| {
                keys.iter()
                    .map(|k| {
                        let ord = a[k.column].total_cmp(&b[k.column]);
                        if k.descending { ord.reverse() } else { ord }
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let vars = (0..=width).map(|c| format!("c{}", c)).collect();
            let mut op = SortOp::new(Box::new(ValuesOp::new(Schema::new(vars), rows.clone())), keys.clone());
            let id = |t: &Tuple| t[width].as_atomic().cloned();
            let got: Vec<_> = run_to_vec(&mut op).unwrap().iter().map(id).collect();
            assert_eq!(got, want.iter().map(id).collect::<Vec<_>>(), "keys {:?}", keys);
            checked += 1;
        }
    }
    assert_eq!(checked, 2 + 4 + 8);
}
