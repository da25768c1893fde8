//! Differential sweep for the streaming serializer: for every query of
//! the grammar below, [`Engine::query_serialized`] (which streams
//! CONSTRUCT output through an `XmlWriter` with no result tree) is
//! **byte-identical** to tree construction
//! plus `to_string`, with fragments pushed to the source and with
//! everything evaluated centrally, each under `verify_plans: true`. The
//! grammar covers the template shapes the streaming path specializes:
//! flat templates, multi-child templates, ORDER-BY, and Skolem grouping
//! with duplicate elimination and aggregates. Edge-valued data
//! (negative totals, zero, duplicated and empty names) rides in the
//! fixture so dedup and group keys are exercised; the thresholds cut
//! answers from thousands of rows down to a few and to none.
//!
//! Hand-enumerated like `bind_differential.rs` and
//! `shard_differential.rs`.

use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_xml::to_string;
use std::sync::Arc;

/// 4 800 customers over 48 names (one of them empty) and one order
/// each, totals cycling through the boundary values.
fn catalog() -> Arc<Catalog> {
    let mut stmts: Vec<String> = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".into(),
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".into(),
    ];
    let regions = ["NW", "SW", "NW", "SE"];
    let totals = ["250.0", "-40.5", "0.0", "0.0", "250.0", "17.25"];
    for i in 0..4800usize {
        let name = match i % 48 {
            0 => String::new(),
            k => format!("n{:02}", k),
        };
        stmts.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            i + 1,
            name,
            regions[i % regions.len()]
        ));
        stmts.push(format!(
            "INSERT INTO orders VALUES ({}, {}, {})",
            10_000 + i,
            i + 1,
            totals[i % totals.len()]
        ));
    }
    let stmts: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &stmts).unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

/// Every query of the grammar: optional join, a threshold at the
/// totals' boundary values (-40.5, 0, 17.25, 250: nothing cut, the
/// negative cut, the zeros cut, all but the maximum cut — a small
/// result — and everything cut), and one of four CONSTRUCT shapes
/// (flat, multi-child, Skolem-grouped, Skolem-grouped with aggregates),
/// optionally ordered.
fn all_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for shape in 0..4usize {
        for join in [false, true] {
            let joined = join || shape >= 2; // the grouped shapes use $t
            if joined && !join {
                continue;
            }
            let thresholds: &[Option<i64>] = if joined {
                &[None, Some(-41), Some(0), Some(249), Some(250)]
            } else {
                &[None]
            };
            for threshold in thresholds {
                for order in [false, true] {
                    if order && shape >= 2 {
                        continue; // grouped output has its own order
                    }
                    let mut conds = vec![
                        "<row><id>$i</id><name>$n</name><region>$r</region></row> IN \"customers\""
                            .to_string(),
                    ];
                    if joined {
                        conds.push(
                            "<row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\"".into(),
                        );
                    }
                    conds.extend(threshold.map(|k| format!("$t > {}", k)));
                    let construct = match shape {
                        0 => "<hit>$n</hit>",
                        1 => "<hit><n>$n</n><r>$r</r></hit>",
                        // Skolem grouping: duplicate names accumulate
                        // under one element and repeated (name, total)
                        // pairs dedup.
                        2 => "<cust ID=ByName($n)><n>$n</n><t>$t</t></cust>",
                        _ => "<cust ID=C($n)><n>$n</n><k>count()</k><s>sum($t)</s></cust>",
                    };
                    queries.push(format!(
                        "WHERE {} CONSTRUCT {}{}",
                        conds.join(", "),
                        construct,
                        if order { " ORDER-BY $n" } else { "" }
                    ));
                }
            }
        }
    }
    queries
}

#[test]
fn streamed_equals_tree_serialization() {
    let cat = catalog();
    let queries = all_queries();
    assert_eq!(queries.len(), 34);
    for pushdown in [true, false] {
        let e = Engine::new(cat.clone());
        e.set_optimizer(OptimizerConfig {
            pushdown,
            verify_plans: true,
            ..OptimizerConfig::default()
        });
        for text in &queries {
            let streamed = e.query_serialized(text).unwrap();
            let tree = to_string(&e.query(text).unwrap().document.root());
            assert!(
                streamed == tree,
                "streamed/tree disagree (pushdown={}) for {}\n streamed: {:.300}\n     tree: {:.300}",
                pushdown,
                text,
                streamed,
                tree
            );
        }
        // Every answer streamed, whatever its size.
        assert_eq!(
            e.metrics_snapshot().counter("engine.construct.streamed"),
            queries.len() as u64
        );
    }
}
