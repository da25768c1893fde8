//! Property sweeps for the physical algebra: join-strategy equivalence,
//! sort laws, and the LIKE matcher against a reference implementation.
//! Each property runs over [`sweep`]'s seeded cases.

use nimble_algebra::ops::{HashJoinOp, JoinType, NestedLoopJoinOp, SortKey, SortOp, ValuesOp};
use nimble_algebra::{run_to_vec, CmpOp, FunctionRegistry, ScalarExpr, Schema, Tuple};
use nimble_algebra::expr::like_match;
use nimble_trace::rng::{sweep, Rng};
use nimble_xml::Value;
use std::sync::Arc;

fn tuples_of(rows: &[(i64, i64)], vars: [&str; 2]) -> (Schema, Vec<Tuple>) {
    (
        Schema::new(vec![vars[0].to_string(), vars[1].to_string()]),
        rows.iter()
            .map(|&(a, b)| vec![Value::from(a), Value::from(b)])
            .collect(),
    )
}

fn normalize(rows: Vec<Tuple>) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|t| t.iter().map(|v| v.atomize().lexical()).collect())
        .collect();
    out.sort();
    out
}

/// Up to `max_rows - 1` rows of `(key in 0..keys, any i64)`.
fn keyed_rows(rng: &mut Rng, keys: i64, max_rows: usize) -> Vec<(i64, i64)> {
    (0..rng.below(max_rows)).map(|_| (rng.range(0..keys), rng.any_i64())).collect()
}

/// Hash join and nested-loop join produce identical result multisets
/// for equi-joins.
#[test]
fn join_strategies_agree() {
    sweep(256, |rng| {
        let (left, right) = (keyed_rows(rng, 8, 24), keyed_rows(rng, 8, 24));
        let funcs = Arc::new(FunctionRegistry::with_builtins());
        let (ls, lt) = tuples_of(&left, ["k", "x"]);
        let (rs, rt) = tuples_of(&right, ["k2", "y"]);

        let mut hash = HashJoinOp::new(
            Box::new(ValuesOp::new(ls.clone(), lt.clone())),
            Box::new(ValuesOp::new(rs.clone(), rt.clone())),
            vec![0],
            vec![0],
            JoinType::Inner,
        );
        let hash_rows = normalize(run_to_vec(&mut hash).unwrap());

        let pred = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(0), ScalarExpr::Col(2));
        let mut nl = NestedLoopJoinOp::new(
            Box::new(ValuesOp::new(ls, lt)),
            Box::new(ValuesOp::new(rs, rt)),
            Some(pred),
            JoinType::Inner,
            funcs,
        );
        let nl_rows = normalize(run_to_vec(&mut nl).unwrap());
        assert_eq!(hash_rows, nl_rows);
    });
}

/// Sort output is a permutation of the input and is ordered.
#[test]
fn sort_is_ordered_permutation() {
    sweep(256, |rng| {
        let rows: Vec<(i64, i64)> =
            (0..rng.below(40)).map(|_| (rng.any_i64(), rng.any_i64())).collect();
        let (s, t) = tuples_of(&rows, ["a", "b"]);
        let mut op = SortOp::new(
            Box::new(ValuesOp::new(s, t.clone())),
            vec![SortKey { column: 0, descending: false }],
        );
        let sorted = run_to_vec(&mut op).unwrap();
        assert_eq!(sorted.len(), t.len());
        for w in sorted.windows(2) {
            assert_ne!(
                w[0][0].total_cmp(&w[1][0]),
                std::cmp::Ordering::Greater
            );
        }
        assert_eq!(normalize(sorted), normalize(t));
    });
}

/// LIKE agrees with a naive reference matcher.
#[test]
fn like_matches_reference() {
    sweep(256, |rng| {
        let (text, pattern) = (rng.string("ab%_", 0..9), rng.string("ab%_", 0..7));
        let want = reference_like(&text, &pattern);
        assert_eq!(like_match(&text, &pattern), want, "{:?} LIKE {:?}", text, pattern);
    });
}

/// Exponential reference implementation of SQL LIKE.
fn reference_like(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    fn go(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => go(t, &p[1..]) || (!t.is_empty() && go(&t[1..], p)),
            (Some(tc), Some('_')) => {
                let _ = tc;
                go(&t[1..], &p[1..])
            }
            (Some(tc), Some(pc)) => tc == pc && go(&t[1..], &p[1..]),
            (None, Some(_)) => false,
        }
    }
    go(&t, &p)
}
