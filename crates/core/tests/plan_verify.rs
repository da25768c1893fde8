//! Sweep for the static plan verifier: every plan the planner produces
//! over the grammar below — under every optimizer configuration that
//! changes a plan — passes `planner::verify_plan`, and executing the
//! query with `verify_plans: true` (plan-level checks, the
//! `nimble-planck` structural and type/nullability passes over the
//! operator tree, the rewrite-equivalence audit, and on plan-cache hits
//! the sampled differential re-plan) never trips a diagnostic. The
//! verifier exists to catch malformed plans; a correct planner must
//! never produce one.
//!
//! The configurations are the 8 combinations of `pushdown ×
//! capability_joins × prune_unsat`. Within each `pushdown ×
//! capability_joins` pair, `prune_unsat` on and off must return the
//! byte-identical document — satisfiability pruning is invisible in
//! results, only in work done — and across all 8 the sorted answers
//! agree.
//!
//! Hand-enumerated like `bind_differential.rs` and
//! `shard_differential.rs`.

use nimble_core::planner::{plan_query, verify_plan};
use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_xml::to_string;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let stmts = [
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
        "INSERT INTO customers VALUES (1, 'ada', 'NW')",
        "INSERT INTO customers VALUES (2, 'bob', 'SW')",
        "INSERT INTO customers VALUES (3, 'cyd', 'NW')",
        "CREATE TABLE orders (oid INT, cust_id INT, total INT)",
        "INSERT INTO orders VALUES (10, 1, 250)",
        "INSERT INTO orders VALUES (11, 2, 40)",
        "INSERT INTO orders VALUES (12, 3, 75)",
        "INSERT INTO orders VALUES (13, 1, 8)",
    ];
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &stmts).unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

/// Every query of a small grammar over the two-table catalog: optional
/// second pattern (join on `$i`), optional literal region selection,
/// optional region variable, optional residual threshold predicate at
/// the totals' boundary values (8 and 250 are the extremes, so `$t >
/// 250` and `$t > 299` are genuinely prunable), optional ORDER-BY.
fn all_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for join in [false, true] {
        let thresholds: &[Option<i64>] = if join {
            &[None, Some(0), Some(8), Some(75), Some(249), Some(250), Some(299)]
        } else {
            &[None] // $t only exists under the join
        };
        for lit_region in [false, true] {
            for bind_region in [false, true] {
                for threshold in thresholds {
                    for order in ["", " ORDER-BY $n", " ORDER-BY $i"] {
                        let mut pats = vec![format!(
                            "<row><id>$i</id><name>$n</name>{}{}</row> IN \"customers\"",
                            if lit_region { "<region>\"NW\"</region>" } else { "" },
                            if bind_region { "<region>$r</region>" } else { "" },
                        )];
                        let mut preds = Vec::new();
                        let mut construct = String::from("<n>$n</n>");
                        if join {
                            pats.push(
                                "<row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\""
                                    .into(),
                            );
                            construct.push_str("<t>$t</t>");
                            if let Some(k) = threshold {
                                preds.push(format!("$t > {}", k));
                            }
                        }
                        if bind_region {
                            construct.push_str("<r>$r</r>");
                        }
                        queries.push(format!(
                            "WHERE {} CONSTRUCT <hit>{}</hit>{}",
                            pats.into_iter().chain(preds).collect::<Vec<_>>().join(", "),
                            construct,
                            order
                        ));
                    }
                }
            }
        }
    }
    queries
}

#[test]
fn planned_queries_always_verify() {
    let cat = catalog();
    let queries = all_queries();
    assert_eq!(queries.len(), 96);
    let mut pruned = 0;
    for pushdown in [false, true] {
        for capability_joins in [false, true] {
            let config = |prune_unsat: bool| OptimizerConfig {
                pushdown,
                capability_joins,
                prune_unsat,
                verify_plans: true,
                ..OptimizerConfig::default()
            };
            let engines = [false, true].map(|prune_unsat| {
                let engine = Engine::new(cat.clone());
                engine.set_optimizer(config(prune_unsat));
                engine
            });
            for text in &queries {
                let q = nimble_xmlql::parse_query(text).unwrap();
                nimble_xmlql::analyze(&q).unwrap();
                let mut documents = Vec::new();
                for (engine, prune_unsat) in engines.iter().zip([false, true]) {
                    let config = config(prune_unsat);
                    // Plan-level invariants (binding order, residual
                    // predicate scope, ORDER-BY scope).
                    let plan = plan_query(&cat, &q, &config).unwrap();
                    if let Err(e) = verify_plan(&plan, None) {
                        panic!("verify_plan rejected {:?} under {:?}: {}", text, config, e);
                    }
                    pruned += usize::from(plan.pruned.is_some());
                    // End to end, twice: the first run plans and verifies
                    // the operator tree, the second is a plan-cache hit,
                    // of which the first per engine (and every 16th) is
                    // differentially re-planned.
                    let run = || match engine.query(text) {
                        Ok(r) => to_string(&r.document.root()),
                        Err(e) => panic!("query {:?} failed under {:?}: {}", text, config, e),
                    };
                    let cold = run();
                    assert_eq!(cold, run(), "plan-cache hit changed {:?} under {:?}", text, config);
                    documents.push(cold);
                }
                assert_eq!(
                    documents[0], documents[1],
                    "prune-on and prune-off disagree for {:?} (pushdown={} capability_joins={})",
                    text, pushdown, capability_joins
                );
            }
            for engine in &engines {
                let snap = engine.metrics_snapshot();
                assert_eq!(snap.counter("engine.plan_cache.hits"), queries.len() as u64);
                assert_eq!(snap.counter("engine.plan_cache.differential"), 6);
                assert_eq!(snap.counter("engine.plan_cache.differential_mismatch"), 0);
            }
        }
    }
    // `$t > 250` and `$t > 299` hold for no order: the prune-on plans of
    // those queries are pruned whenever statistics bounds are at hand.
    assert!(pruned > 0, "no plan was pruned");
}

#[test]
fn every_configuration_constructs_the_same_answers() {
    let cat = catalog();
    for text in all_queries() {
        let mut answers: Vec<Vec<String>> = Vec::new();
        for bits in 0u8..8 {
            let engine = Engine::new(cat.clone());
            engine.set_optimizer(OptimizerConfig {
                pushdown: bits & 1 != 0,
                capability_joins: bits & 2 != 0,
                prune_unsat: bits & 4 != 0,
                verify_plans: true,
                ..OptimizerConfig::default()
            });
            let r = engine.query(&text).unwrap();
            let mut parts: Vec<String> =
                r.document.root().children().map(|c| to_string(&c)).collect();
            parts.sort();
            answers.push(parts);
        }
        for (bits, got) in answers.iter().enumerate() {
            assert_eq!(got, &answers[0], "configuration {:03b} diverged for {}", bits, text);
        }
    }
}
