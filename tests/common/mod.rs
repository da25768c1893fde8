//! The generated two-table database `props.rs` and `profiling_props.rs`
//! both sweep over.

use nimble::core::Catalog;
use nimble::sources::relational::RelationalAdapter;
use nimble::trace::rng::Rng;
use std::sync::Arc;

pub fn build_catalog(
    customers: &[(i64, String, String)],
    orders: &[(i64, i64, i64)],
) -> Arc<Catalog> {
    let mut stmts = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE TABLE orders (oid INT, cust_id INT, total INT)".to_string(),
    ];
    for (id, name, region) in customers {
        stmts.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            id, name, region
        ));
    }
    for (oid, cust, total) in orders {
        stmts.push(format!(
            "INSERT INTO orders VALUES ({}, {}, {})",
            oid, cust, total
        ));
    }
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(
            RelationalAdapter::from_statements(
                "erp",
                &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
            )
            .unwrap(),
        ))
        .unwrap();
    Arc::new(catalog)
}

/// Up to 14 customers `(id = position, name over a–d, region NW/SW)`.
pub fn customers(rng: &mut Rng) -> Vec<(i64, String, String)> {
    (0..rng.below(15) as i64)
        .map(|i| {
            (
                i,
                rng.string("abcd", 1..5),
                rng.pick(&["NW", "SW"]).to_string(),
            )
        })
        .collect()
}

/// Up to 19 orders `(oid = position, cust_id in 0..15, total in 0..100)`.
pub fn orders(rng: &mut Rng) -> Vec<(i64, i64, i64)> {
    (0..rng.below(20) as i64)
        .map(|i| (i, rng.range(0..15), rng.range(0..100)))
        .collect()
}
