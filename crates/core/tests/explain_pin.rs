//! EXPLAIN pins: the exact plan text (`QueryResult::stats.plan`) of one
//! query per fold shape the planner's cost model decides — a hash join
//! that swaps its build side and one that does not, a nested-loop fold,
//! a bind stage, a probed match and a pruned sharded join. Each estimate
//! (`[est=]`), each build side and each note is the planner's, so a
//! change to how a plan is made or assembled that is meant to keep the
//! plan shows here as a changed line.
//!
//! Every case goes through `Engine::query` or `ShardedCluster::query`.

use nimble_core::{Catalog, Engine, EngineConfig, ShardSpec, ShardedCluster};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::xmldoc::XmlDocAdapter;
use std::sync::Arc;

/// Six customers (`crm`), 40 orders for five of them (`shop`), and seven
/// invoices as an XML feed (`feed`), matched centrally.
fn catalog() -> Arc<Catalog> {
    let mut crm: Vec<String> = vec!["CREATE TABLE customers (id INT, name TEXT, region TEXT)".into()];
    for (i, (name, region)) in [("ada", "NW"), ("bob", "SW"), ("cyd", "NW"), ("dee", "SE"), ("eve", "SW"), ("fay", "NE")]
        .iter()
        .enumerate()
    {
        crm.push(format!("INSERT INTO customers VALUES ({}, '{}', '{}')", i + 1, name, region));
    }
    let mut shop: Vec<String> = vec!["CREATE TABLE orders (oid INT, cust_id INT, total INT)".into()];
    for j in 0..40 {
        shop.push(format!("INSERT INTO orders VALUES ({}, {}, {})", 10 + j, j % 5 + 1, [250, 40, 75, 8][j % 4]));
    }
    let mut invoices = String::from("<invoices>");
    for (cust, amount) in [(1, 30), (3, 5), (2, 90), (1, 12), (9, 3), (4, 7), (5, 61)] {
        invoices.push_str(&format!("<row><cust>{}</cust><amt>{}</amt></row>", cust, amount));
    }
    invoices.push_str("</invoices>");
    let c = Catalog::new();
    for (name, stmts) in [("crm", &crm), ("shop", &shop)] {
        let stmts: Vec<&str> = stmts.iter().map(String::as_str).collect();
        c.register_source(Arc::new(RelationalAdapter::from_statements(name, &stmts).unwrap())).unwrap();
    }
    c.register_source(Arc::new(XmlDocAdapter::new("feed").add_xml("invoices", &invoices).unwrap()))
        .unwrap();
    Arc::new(c)
}

/// The plan text of `text`'s first serve on a fresh engine.
fn explained(text: &str) -> String {
    Engine::new(catalog()).query(text).unwrap().stats.plan
}

fn pin(case: &str, got: &str, want: &str) {
    assert_eq!(got, want, "{}: the plan text changed; it is now\n{}", case, got);
}

#[test]
fn a_hash_join_swaps_its_build_side_to_the_smaller_estimate() {
    // The orders fragment (40) meets the invoices (7) folded first.
    let got = explained(
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders",
                 <row><cust>$i</cust><amt>$a</amt></row> IN "invoices"
           CONSTRUCT <r>$o</r>"#,
    );
    pin("swap", &got, SWAP);
}

#[test]
fn a_hash_join_keeps_its_build_side_when_the_estimates_are_close() {
    // The customers (6) meet the invoices (7).
    let got = explained(
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><cust>$i</cust><amt>$a</amt></row> IN "invoices"
           CONSTRUCT <r>$n</r>"#,
    );
    pin("no swap", &got, NO_SWAP);
}

#[test]
fn units_that_share_no_variable_fold_as_a_nested_loop() {
    let got = explained(
        r#"WHERE <row><id>$i</id><region>"NW"</region></row> IN "customers",
                 <row><cust>$c</cust><amt>$a</amt></row> IN "invoices", $a + $i > 40
           CONSTRUCT <r>$i</r>"#,
    );
    pin("nested loop", &got, NESTED_LOOP);
}

#[test]
fn one_customer_binds_its_key_into_the_orders_fragment() {
    let got = explained(
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $n = "cyd",
                 <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <r>$o</r> ORDER-BY $o"#,
    );
    pin("bind stage", &got, BIND);
}

#[test]
fn a_central_match_probes_its_candidates() {
    let got = explained(
        r#"WHERE <row><cust>$i</cust><amt>$a</amt></row> IN "invoices", $a > 20,
                 <row><id>$i</id><name>$n</name></row> IN "customers"
           CONSTRUCT <r>$n</r>"#,
    );
    pin("probe", &got, PROBE);
}

#[test]
fn a_sharded_join_prunes_to_the_shard_its_key_routes_to() {
    // Amounts of 5, 3 and 7; 30 and 12; 61; 90.
    let specs = [("invoices", ShardSpec::range("amt", vec![10.0, 40.0, 70.0]))];
    let cluster = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
    let got = cluster
        .query(
            r#"WHERE <row><cust>$i</cust><amt>$a</amt></row> IN "invoices", $a > 65,
                     <row><id>$i</id><name>$n</name></row> IN "customers"
               CONSTRUCT <r>$n</r>"#,
        )
        .unwrap()
        .stats
        .plan;
    pin("sharded", &got, SHARDED);
}

const SWAP: &str = r#"-- plan: planned
-- pushdown: 2 vars to shop.orders
-- fetch+match: feed.invoices (caps ------)
-- cost: fold order [0, 1], est rows [7, 40] -> [7, 46]
--   shop <- SELECT t.oid AS o, t.cust_id AS i FROM orders t
Project [o, i, a]  [rows=48]  [est=46]
  HashJoin (Inner) keys [1]=[0]  [rows=48]  [est=46]  [mem=772]
    Scan [o, i] (40 tuples)  [rows=40]  [est=40]  [mem=2880]
    Scan [i, a] (7 tuples)  [rows=7]  [est=7]  [mem=504]
"#;
const NO_SWAP: &str = r#"-- plan: planned
-- pushdown: 2 vars to crm.customers
-- fetch+match: feed.invoices (caps ------)
-- cost: fold order [1, 0], est rows [7, 6] -> [6, 7]
--   crm <- SELECT t.id AS i, t.name AS n FROM customers t
Project [i, n, a]  [rows=6]  [est=7]
  HashJoin (Inner) keys [0]=[0]  [rows=6]  [est=7]  [mem=772]
    Scan [i, n] (6 tuples)  [rows=6]  [est=6]  [mem=432]
    Scan [i, a] (7 tuples)  [rows=7]  [est=7]  [mem=504]
"#;
const NESTED_LOOP: &str = r#"-- plan: planned
-- pushdown: 1 vars to crm.customers
-- fetch+match: feed.invoices (caps ------)
-- cost: fold order [1, 0], est rows [7, 2] -> [2, 14]
--   crm <- SELECT t.id AS i FROM customers t WHERE t.region = 'NW'
Filter Cmp(Gt, Arith(Add, Col(2), Col(0)), Lit(Int(40)))  [rows=4]  [est=4]
  NestedLoopJoin (Inner) on None  [rows=14]  [est=14]  [mem=504]
    Scan [i] (2 tuples)  [rows=2]  [est=2]  [mem=96]
    Scan [c, a] (7 tuples)  [rows=7]  [est=7]  [mem=504]
"#;
const BIND: &str = r#"-- plan: planned
-- pushdown: 2 vars to crm.customers
-- pushdown: 3 vars to shop.orders
-- predicate pushed to crm
-- bind $i: crm → shop (~1 keys)
-- cost: fold order [0, 1], est rows [1, 8] -> [1, 1]
--   crm <- SELECT t.id AS i, t.name AS n FROM customers t WHERE t.name = 'cyd'
--   shop <- SELECT t.oid AS o, t.cust_id AS i, t.total AS t FROM orders t  [+ t.cust_id IN (keys of $i)]
-- bind $i: 1 keys sent (est ~1)
Sort by [0]  [rows=8]  [est=1]  [mem=960]
  Project [o, i, t, n]  [rows=8]  [est=1]
    HashJoin (Inner) keys [1]=[0]  [rows=8]  [est=1]  [mem=116]
      Scan [o, i, t] (8 tuples)  [rows=8]  [est=8]  [mem=768]
      Scan [i, n] (1 tuples)  [rows=1]  [est=1]  [mem=72]
"#;
const PROBE: &str = r#"-- plan: planned
-- fetch+match: feed.invoices (caps ------)
-- pushdown: 2 vars to crm.customers
-- cost: fold order [1, 0], est rows [7, 6] -> [6, 7]
-- probe: $a > 20 on feed.invoices at row/amt
--   crm <- SELECT t.id AS i, t.name AS n FROM customers t
-- probe: pruned 4 of 7 candidates of feed.invoices
Filter Cmp(Gt, Col(2), Lit(Int(20)))  [rows=3]  [est=2]
  Project [i, n, a]  [rows=3]  [est=2]
    HashJoin (Inner) keys [0]=[0]  [rows=3]  [est=2]  [mem=348]
      Scan [i, n] (6 tuples)  [rows=6]  [est=6]  [mem=432]
      Scan [i, a] (3 tuples)  [rows=3]  [est=2]  [mem=216]
"#;
const SHARDED: &str = r#"-- plan: planned
-- fetch+match: feed.invoices (caps ------)
-- pushdown: 2 vars to crm.customers
-- cost: fold order [1, 0], est rows [7, 6] -> [6, 7]
-- shard: feed.invoices pruned to 1/4 shards (1 of 7 rows)
--   crm <- SELECT t.id AS i, t.name AS n FROM customers t
Filter Cmp(Gt, Col(2), Lit(Int(65)))  [rows=1]  [est=1]
  Project [i, n, a]  [rows=1]  [est=1]
    HashJoin (Inner) keys [0]=[0]  [rows=1]  [est=1]  [mem=140]
      Scan [i, n] (6 tuples)  [rows=6]  [est=6]  [mem=432]
      Scan [i, a] (1 tuples)  [rows=1]  [est=1]  [mem=96]
"#;
