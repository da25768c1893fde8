//! Counted, not timed: what the executor allocates per row when it
//! filters, sorts and hands sorted rows on. The counting allocator is
//! per thread, so each pin reads only its own test's work.

use nimble::algebra::ops::{Operator, SortKey, SortOp, ValuesOp};
use nimble::algebra::{CmpOp, FunctionRegistry, ScalarExpr, Schema, Tuple};
use nimble::trace::alloc::{enabled, AllocScope};
use nimble::xml::Value;

/// `n` rows `(i, i % 97, "k<i % 1000>", "x" | "y")`.
fn rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let (key, tag) = (format!("k{:03}", (i * 7919) % 1000), if i % 3 == 0 { "x" } else { "y" });
            vec![Value::from(i), Value::from(i % 97), Value::from(key.as_str()), Value::from(tag)]
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(["i", "a", "k", "b"].map(String::from).to_vec())
}

#[test]
fn a_filter_allocates_nothing_per_row() {
    if !enabled() {
        return;
    }
    let (rows, funcs) = (rows(10_000), FunctionRegistry::with_builtins());
    // `$a > 40 AND $b = "x"`
    let predicate = ScalarExpr::conjunction(vec![
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(40i64)),
        ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(3), ScalarExpr::lit("x")),
    ]);
    let scope = AllocScope::enter();
    let mut kept = 0;
    for row in &rows {
        kept += usize::from(predicate.eval_bool(row, &funcs).unwrap());
    }
    let stats = scope.finish();
    assert!((1_000..3_000).contains(&kept), "{} rows kept", kept);
    assert_eq!(stats.allocs, 0, "{} blocks over 10 000 rows", stats.allocs);
}

#[test]
fn a_sort_allocates_a_constant_beside_its_input_and_moves_its_rows_out() {
    if !enabled() {
        return;
    }
    let rows = rows(5_000);
    let key = vec![SortKey { column: 2, descending: false }];
    // What ingesting the input costs on its own: the source clones each
    // row it emits.
    let mut source = ValuesOp::new(schema(), rows.clone());
    let scope = AllocScope::enter();
    let drained = nimble::algebra::run_to_vec(&mut source).unwrap();
    let ingest = scope.finish().allocs;
    drop(drained);

    let mut sort = SortOp::new(Box::new(ValuesOp::new(schema(), rows.clone())), key);
    let scope = AllocScope::enter();
    sort.open().unwrap();
    let opened = scope.finish().allocs;
    // The permutation, and the buffer's doublings: no key per row.
    assert!(
        opened <= ingest + 32,
        "open() made {} blocks for 5 000 rows; ingesting them alone makes {}",
        opened,
        ingest
    );

    let mut out: Vec<Tuple> = Vec::with_capacity(rows.len());
    let scope = AllocScope::enter();
    while sort.next_batch(&mut out, 1024).unwrap() > 0 {}
    let drain = scope.finish().allocs;
    sort.close();
    assert_eq!(drain, 0, "draining cloned: {} blocks", drain);
    assert_eq!(out.len(), rows.len());
    assert!(out.windows(2).all(|w| w[0][2].total_cmp(&w[1][2]).is_le()));
}
