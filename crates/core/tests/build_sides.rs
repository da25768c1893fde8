//! A hash join's build side is the planner's decision: each swap is a
//! `build-side-swap` record in `Plan::rewrites`, beside the fold order
//! it rests on, audited once per plan with the other rewrites — a
//! correlated subquery's swap onto its outer row included, which no
//! EXPLAIN shows (only the top-level tree is rendered).

use nimble_algebra::Schema;
use nimble_core::planner::{plan_query, plan_scoped, Plan, Scope};
use nimble_core::{Catalog, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::xmldoc::XmlDocAdapter;
use std::sync::Arc;

/// 40 orders (`shop`), six customers (`crm`) and seven invoices, as an
/// XML feed matched centrally (`feed`).
fn catalog() -> Catalog {
    let mut shop = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
    shop.extend((0..40).map(|j| format!("INSERT INTO orders VALUES ({}, {})", 10 + j, j % 5 + 1)));
    let mut crm = vec!["CREATE TABLE customers (id INT, name TEXT)".to_string()];
    crm.extend((1..=6).map(|i| format!("INSERT INTO customers VALUES ({}, 'c{}')", i, i)));
    let invoices: String = [1, 3, 2, 1, 9, 4, 5]
        .iter()
        .map(|cust| format!("<row><cust>{}</cust><amt>1</amt></row>", cust))
        .collect();
    let c = Catalog::new();
    for (name, stmts) in [("shop", &shop), ("crm", &crm)] {
        let stmts: Vec<&str> = stmts.iter().map(String::as_str).collect();
        c.register_source(Arc::new(RelationalAdapter::from_statements(name, &stmts).unwrap())).unwrap();
    }
    let feed = XmlDocAdapter::new("feed").add_xml("invoices", &format!("<invoices>{}</invoices>", invoices));
    c.register_source(Arc::new(feed.unwrap())).unwrap();
    c
}

/// The `build-side-swap` records of `plan`.
fn swaps(plan: &Plan) -> usize {
    plan.rewrites.iter().filter(|r| r.rule == "build-side-swap").count()
}

#[test]
fn a_swapped_build_side_is_a_rewrite_of_the_plan() {
    let catalog = catalog();
    let config = OptimizerConfig::default();
    let planned = |text: &str| plan_query(&catalog, &nimble_xmlql::parse_query(text).unwrap(), &config).unwrap();
    // The 40 orders meet the 7 invoices folded first: built on those.
    let plan = planned(
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders",
                 <row><cust>$i</cust><amt>$a</amt></row> IN "invoices"
           CONSTRUCT <r>$o</r>"#,
    );
    assert_eq!((swaps(&plan), &plan.swaps[..]), (1, &[false, true][..]), "{:?}", plan.rewrites);
    // The 6 customers meet the 7 invoices: built on the unit.
    let plan = planned(
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><cust>$i</cust><amt>$a</amt></row> IN "invoices"
           CONSTRUCT <r>$n</r>"#,
    );
    assert_eq!((swaps(&plan), &plan.swaps[..]), (0, &[false, false][..]), "{:?}", plan.rewrites);
}

#[test]
fn a_subquery_builds_on_its_outer_row() {
    // The one unit folds into the outer row, estimated at one row: the
    // 40 orders stream past it. The same query on its own joins nothing.
    let catalog = catalog();
    let config = OptimizerConfig::default();
    let inner = nimble_xmlql::parse_query(
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders" CONSTRUCT <o>$o</o>"#,
    )
    .unwrap();
    let outer = Schema::try_new(vec!["i".to_string()]).unwrap();
    let scope = Scope {
        outer: Some(&outer),
        ..Scope::default()
    };
    let plan = plan_scoped(&catalog, &inner, &config, scope).unwrap();
    assert_eq!((swaps(&plan), &plan.swaps[..]), (1, &[true][..]), "{:?}", plan.rewrites);
    let swap = &plan.rewrites[0];
    assert_eq!(swap.before.keys, ["i"]);
    assert_eq!(swap.after.sources, ["<outer>", "fragment on shop"]);
    let alone = plan_scoped(&catalog, &inner, &config, Scope::default()).unwrap();
    assert_eq!((swaps(&alone), &alone.swaps[..]), (0, &[false][..]));
}
