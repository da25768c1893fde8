//! Differential property test for vectorized execution: for every
//! generated query and optimizer configuration, the batch executor
//! (`OptimizerConfig::batch_exec`) and the scalar tuple-at-a-time
//! executor construct the **identical result document**, with
//! `parallel_exec` both off and on. The vectorized kernels change only
//! how tuples move, never which tuples exist or their order.

use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_xml::to_string;
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let stmts = [
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
        "INSERT INTO customers VALUES (1, 'ada', 'NW')",
        "INSERT INTO customers VALUES (2, 'bob', 'SW')",
        "INSERT INTO customers VALUES (3, 'cyd', 'NW')",
        "INSERT INTO customers VALUES (4, 'dee', 'SE')",
        "CREATE TABLE orders (oid INT, cust_id INT, total INT)",
        "INSERT INTO orders VALUES (10, 1, 250)",
        "INSERT INTO orders VALUES (11, 2, 40)",
        "INSERT INTO orders VALUES (12, 3, 75)",
        "INSERT INTO orders VALUES (13, 1, 8)",
        "INSERT INTO orders VALUES (14, 4, 40)",
    ];
    // A second source, so a variable can be bound by fragments of two
    // sources (customers 1..3 have invoices, customer 4 does not).
    let billing = [
        "CREATE TABLE invoices (cust_id INT, amount INT)",
        "INSERT INTO invoices VALUES (1, 30)",
        "INSERT INTO invoices VALUES (3, 5)",
        "INSERT INTO invoices VALUES (2, 90)",
        "INSERT INTO invoices VALUES (1, 12)",
    ];
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &stmts).unwrap(),
    ))
    .unwrap();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("billing", &billing).unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

/// Shapes of a selection on the join variable; `K` is the literal.
const SELECTIONS_ON_I: [&str; 7] = [
    "$i = K", "$i != K", "$i < K", "$i <= K", "$i > K", "$i >= K", "K < $i",
];

/// The plan-verify drive's query grammar (optional join, literal and
/// variable region bindings, threshold predicate, ORDER-BY) plus a
/// selection on the join variable `$i`, which every fragment binding
/// `$i` receives: the same-source `orders` fragment and, with
/// `cross`, the `invoices` fragment of a second source.
fn query_strategy() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(0i64..300),
        0usize..3,
        any::<bool>(),
        proptest::option::of((0usize..7, 0i64..6)),
    )
        .prop_map(|(join, lit_region, bind_region, threshold, order, cross, sel_i)| {
            let mut pats = vec![format!(
                "<row><id>$i</id><name>$n</name>{}{}</row> IN \"customers\"",
                if lit_region { "<region>\"NW\"</region>" } else { "" },
                if bind_region { "<region>$r</region>" } else { "" },
            )];
            let mut preds = Vec::new();
            let mut construct = String::from("<n>$n</n>");
            if join {
                pats.push(
                    "<row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\"".into(),
                );
                construct.push_str("<t>$t</t>");
                if let Some(k) = threshold {
                    preds.push(format!("$t > {}", k));
                }
            }
            if cross {
                pats.push(
                    "<row><cust_id>$i</cust_id><amount>$a</amount></row> IN \"invoices\"".into(),
                );
                construct.push_str("<a>$a</a>");
            }
            if let Some((form, k)) = sel_i {
                preds.push(SELECTIONS_ON_I[form].replace('K', &k.to_string()));
            }
            if bind_region {
                construct.push_str("<r>$r</r>");
            }
            let order_by = match order {
                1 => " ORDER-BY $n",
                2 => " ORDER-BY $i",
                _ => "",
            };
            format!(
                "WHERE {} CONSTRUCT <hit>{}</hit>{}",
                pats.into_iter().chain(preds).collect::<Vec<_>>().join(", "),
                construct,
                order_by
            )
        })
}

fn run(text: &str, pushdown: bool, batch_exec: bool, parallel_exec: bool) -> String {
    let engine = Engine::new(catalog());
    engine.set_optimizer(OptimizerConfig {
        pushdown,
        batch_exec,
        parallel_exec,
        verify_plans: true,
        ..OptimizerConfig::default()
    });
    let r = engine.query(text).unwrap();
    to_string(&r.document.root())
}

/// Result content under the given config, as the sorted multiset of the
/// root's serialized children. Cost-based planning may legitimately
/// reorder tuples (it picks a different join fold order), so the
/// cost_based on/off comparison is order-insensitive; every other axis
/// compares exact documents above.
fn run_canonical(text: &str, pushdown: bool, cost_based: bool) -> Vec<String> {
    let engine = Engine::new(catalog());
    engine.set_optimizer(OptimizerConfig {
        pushdown,
        cost_based,
        verify_plans: true,
        ..OptimizerConfig::default()
    });
    let r = engine.query(text).unwrap();
    let mut parts: Vec<String> = r
        .document
        .root()
        .children()
        .map(|c| to_string(&c))
        .collect();
    parts.sort();
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_matches_scalar(text in query_strategy()) {
        for pushdown in [false, true] {
            let scalar = run(&text, pushdown, false, false);
            let batch = run(&text, pushdown, true, false);
            prop_assert_eq!(
                &scalar, &batch,
                "batch execution diverged for {:?} (pushdown={})", text, pushdown
            );
            let batch_parallel = run(&text, pushdown, true, true);
            prop_assert_eq!(
                &scalar, &batch_parallel,
                "batch+parallel execution diverged for {:?} (pushdown={})", text, pushdown
            );
        }
    }

    #[test]
    fn pushdown_changes_work_not_content(text in query_strategy()) {
        // `pushdown: false` is the oracle: fetch whole collections,
        // evaluate every predicate centrally. Shipped selections change
        // the estimates and with them the fold order, so (as for
        // `cost_based`) the comparison is order-insensitive.
        for cost_based in [false, true] {
            prop_assert_eq!(
                run_canonical(&text, true, cost_based),
                run_canonical(&text, false, cost_based),
                "pushdown changed result content for {:?} (cost_based={})", text, cost_based
            );
        }
    }

    #[test]
    fn cost_based_planning_changes_order_not_content(text in query_strategy()) {
        for pushdown in [false, true] {
            let with_stats = run_canonical(&text, pushdown, true);
            let without = run_canonical(&text, pushdown, false);
            prop_assert_eq!(
                &with_stats, &without,
                "cost-based planning changed result content for {:?} (pushdown={})",
                text, pushdown
            );
        }
    }
}
