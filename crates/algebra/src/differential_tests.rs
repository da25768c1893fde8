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
//!   class, whitespace-trimmed.
//!
//! The fixed-input counterpart of the seeded sweeps in `tests/props.rs`.

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
        // 0.0 and -0.0 are different classes.
        (1, a(Atomic::Float(0.0))),
        (1, a(Atomic::Int(0))),
        (2, a(Atomic::Float(-0.0))),
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
/// `arity` columns and return the joined `(left id, right id)` pairs,
/// sorted.
fn joined_ids(rows: &[Tuple], arity: usize, parallel: bool, batched: bool) -> Vec<(i64, i64)> {
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
    )
    .vectorized(parallel);
    let out = if batched {
        crate::run_to_vec_batched(&mut join, 4).unwrap().0
    } else {
        run_to_vec(&mut join).unwrap()
    };
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
    // Single-column key. Every value appears 30 times so the build side
    // clears the pool threshold and `.vectorized(true)` takes the
    // partitioned index wherever a pool exists.
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
    for parallel in [false, true] {
        for batched in [false, true] {
            assert_eq!(
                joined_ids(&single_rows, 1, parallel, batched),
                single_want,
                "single-column key, parallel={parallel} batched={batched}"
            );
            assert_eq!(
                joined_ids(&pair_rows, 2, parallel, batched),
                pair_want,
                "composite key, parallel={parallel} batched={batched}"
            );
        }
    }
}

#[test]
fn sort_matches_stable_total_cmp_on_edges() {
    // The specification of ORDER-BY: a stable sort under
    // `Value::total_cmp`. The operator's index sort must produce that
    // order, whatever the (ignored) parallel hint says.
    let mut want = edge_values();
    want.sort_by(|a, b| a.total_cmp(b));
    let want: Vec<String> = want.into_iter().map(|v| render(&vec![v])).collect();
    for parallel in [false, true] {
        let key = vec![SortKey {
            column: 0,
            descending: false,
        }];
        let mut op =
            SortOp::new(Box::new(one_col_source("x", edge_values())), key).vectorized(parallel);
        assert_eq!(rows_rendered(&mut op), want, "parallel={parallel}");
    }
}
