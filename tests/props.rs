//! Cross-crate property tests: the mediator's optimizer choices never
//! change answers over randomly generated databases, and pattern
//! matching agrees between pushed fragments and central matching.

use nimble::core::{Catalog, Engine, OptimizerConfig};
use nimble::sources::relational::RelationalAdapter;
use nimble::xml::to_string;
use proptest::prelude::*;
use std::sync::Arc;

fn build_catalog(
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

fn customers_strategy() -> impl Strategy<Value = Vec<(i64, String, String)>> {
    proptest::collection::vec(
        (0i64..20, "[a-d]{1,4}", prop_oneof![Just("NW"), Just("SW")]),
        0..15,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (_, name, region))| (i as i64, name, region.to_string()))
            .collect()
    })
}

fn orders_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..100, 0i64..15, 0i64..100), 0..20).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (_, cust, total))| (i as i64, cust, total))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The four optimizer configurations agree on every generated
    /// database and threshold — pushdown, join merging, and join
    /// ordering are pure performance choices.
    #[test]
    fn optimizer_is_semantics_preserving(
        customers in customers_strategy(),
        orders in orders_strategy(),
        threshold in 0i64..100,
    ) {
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name><region>"NW"</region></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     $t > {}
               CONSTRUCT <hit><n>$n</n><t>$t</t></hit> ORDER-BY $t, $n"#,
            threshold
        );
        let configs = [(true, true), (true, false), (false, true), (false, false)].map(
            |(pushdown, capability_joins)| OptimizerConfig {
                pushdown,
                capability_joins,
                ..OptimizerConfig::default()
            },
        );
        let mut outputs: Vec<String> = Vec::new();
        for config in configs {
            let engine = Engine::new(build_catalog(&customers, &orders));
            engine.set_optimizer(config);
            let r = engine.query(&query).unwrap();
            prop_assert!(r.complete);
            outputs.push(to_string(&r.document.root()));
        }
        for o in &outputs[1..] {
            prop_assert_eq!(o, &outputs[0]);
        }
    }

    /// The engine's answer matches a direct reference join computed in
    /// Rust.
    #[test]
    fn engine_matches_reference_join(
        customers in customers_strategy(),
        orders in orders_strategy(),
        threshold in 0i64..100,
    ) {
        let query = format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     $t > {}
               CONSTRUCT <hit><n>$n</n><t>$t</t></hit>"#,
            threshold
        );
        let engine = Engine::new(build_catalog(&customers, &orders));
        let r = engine.query(&query).unwrap();
        let mut got: Vec<(String, i64)> = r
            .document
            .root()
            .children_named("hit")
            .map(|h| {
                (
                    h.child("n").unwrap().text(),
                    h.child("t").unwrap().text().parse().unwrap(),
                )
            })
            .collect();
        got.sort();
        let mut expected: Vec<(String, i64)> = Vec::new();
        for (id, name, _) in &customers {
            for (_, cust, total) in &orders {
                if cust == id && *total > threshold {
                    expected.push((name.clone(), *total));
                }
            }
        }
        expected.sort();
        prop_assert_eq!(got, expected);
    }
}
