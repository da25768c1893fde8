//! Differential test for the executor against the all-central oracle:
//! for every query of the grammar below, the engine's default plan
//! (fragments pushed to the sources, selections on the join variable
//! copied to every fragment that binds it, cost-ordered folds with
//! build-side swaps) constructs the **same answers** as `pushdown:
//! false`, which fetches whole collections and evaluates everything in
//! the mediator; and tracking lineage changes **no byte** of the
//! document. Every run is under `verify_plans: true`, so each plan also
//! passes planck and the rewrite audit.
//!
//! Shipped selections change the estimates and with them the fold
//! order, so the pushdown comparison is on the sorted answers; the
//! lineage comparison is on the serialized document.
//!
//! Hand-enumerated like `bind_differential.rs` and
//! `shard_differential.rs`: thresholds sit at the data's boundary
//! values and every `SELECTIONS_ON_I` form runs at the first, an inner
//! and a past-the-last key.

use nimble_core::{Catalog, Engine, OptimizerConfig, QueryResult};
use nimble_sources::relational::RelationalAdapter;
use nimble_xml::to_string;
use std::sync::Arc;

/// Six customers and 40 orders for five of them in one source; invoices
/// in a second, so a variable can be bound by fragments of two sources.
/// The pushed customers-orders join is estimated at more than four
/// times the invoices it then meets in the mediator, so that fold swaps
/// its build side. Every customer with orders has an invoice — a row
/// lost from either side of the swapped join loses an answer — while
/// customer 6 and the invoice of a customer 9 match nothing.
fn catalog() -> Arc<Catalog> {
    let mut erp: Vec<String> = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".into(),
        "CREATE TABLE orders (oid INT, cust_id INT, total INT)".into(),
    ];
    let customers = [
        ("ada", "NW"),
        ("bob", "SW"),
        ("cyd", "NW"),
        ("dee", "SE"),
        ("eve", "SW"),
        ("fay", "NE"),
    ];
    for (i, (name, region)) in customers.iter().enumerate() {
        erp.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            i + 1,
            name,
            region
        ));
    }
    // Totals cycle through the threshold boundaries; customer 6 has no
    // orders.
    let totals = [250, 40, 75, 8, 40, 249];
    for j in 0..40 {
        erp.push(format!(
            "INSERT INTO orders VALUES ({}, {}, {})",
            10 + j,
            j % 5 + 1,
            totals[j % totals.len()]
        ));
    }
    let billing = [
        "CREATE TABLE invoices (cust_id INT, amount INT)",
        "INSERT INTO invoices VALUES (1, 30)",
        "INSERT INTO invoices VALUES (3, 5)",
        "INSERT INTO invoices VALUES (2, 90)",
        "INSERT INTO invoices VALUES (1, 12)",
        "INSERT INTO invoices VALUES (9, 3)",
        "INSERT INTO invoices VALUES (4, 7)",
        "INSERT INTO invoices VALUES (5, 61)",
    ];
    let erp: Vec<&str> = erp.iter().map(String::as_str).collect();
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &erp).unwrap(),
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

/// Every query of the grammar: optional join, literal and variable
/// region bindings, threshold predicate, ORDER-BY, plus a selection on
/// the join variable `$i`, which every fragment binding `$i` receives:
/// the same-source `orders` fragment and, with `cross`, the `invoices`
/// fragment of a second source.
fn all_queries() -> Vec<String> {
    let mut selections: Vec<Option<String>> = vec![None];
    for form in SELECTIONS_ON_I {
        for k in [1, 3, 7] {
            selections.push(Some(form.replace('K', &k.to_string())));
        }
    }
    let mut queries = Vec::new();
    for join in [false, true] {
        // `$t` only exists under the join. Totals are 8, 40, 75, 249,
        // 250: nothing cut, the first cut, a repeated value cut, all
        // but one cut, everything cut.
        let thresholds: &[Option<i64>] = if join {
            &[None, Some(7), Some(8), Some(40), Some(249), Some(250)]
        } else {
            &[None]
        };
        for lit_region in [false, true] {
            for bind_region in [false, true] {
                for threshold in thresholds {
                    for order in ["", " ORDER-BY $n", " ORDER-BY $i"] {
                        for cross in [false, true] {
                            for sel_i in &selections {
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
                                if cross {
                                    pats.push(
                                        "<row><cust_id>$i</cust_id><amount>$a</amount></row> IN \"invoices\""
                                            .into(),
                                    );
                                    construct.push_str("<a>$a</a>");
                                }
                                preds.extend(sel_i.clone());
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
        }
    }
    queries
}

fn engine(pushdown: bool, track_lineage: bool) -> Engine {
    let engine = Engine::new(catalog());
    engine.set_optimizer(OptimizerConfig {
        pushdown,
        track_lineage,
        verify_plans: true,
        ..OptimizerConfig::default()
    });
    engine
}

fn document(r: &QueryResult) -> String {
    to_string(&r.document.root())
}

fn sorted_answers(r: &QueryResult) -> Vec<String> {
    let mut parts: Vec<String> = r.document.root().children().map(|c| to_string(&c)).collect();
    parts.sort();
    parts
}

#[test]
fn pushdown_and_lineage_change_work_not_content() {
    let pushed = engine(true, false);
    let tracked = engine(true, true);
    // The oracle: whole collections fetched, every predicate and every
    // join evaluated centrally.
    let central = engine(false, false);
    let queries = all_queries();
    assert!(queries.len() > 3000, "{}", queries.len());
    let (mut answered, mut swapped) = (0, 0);
    for text in &queries {
        let got = pushed.query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let plan = &got.stats.plan;
        assert_eq!(
            sorted_answers(&got),
            sorted_answers(&central.query(text).unwrap()),
            "pushdown changed result content for {}\n{}",
            text,
            plan
        );
        let with_lineage = tracked.query(text).unwrap();
        assert_eq!(
            document(&got),
            document(&with_lineage),
            "lineage tracking changed the document for {}\n{}",
            text,
            plan
        );
        assert!(with_lineage.provenance.is_some(), "{}", text);
        answered += usize::from(got.document.root().children().next().is_some());
        swapped += usize::from(probe_outweighs_build(plan));
    }
    // The sweep is not vacuous: most queries have answers, and
    // over a hundred of the joins run with their build side swapped.
    assert!(answered * 2 > queries.len(), "{} of {}", answered, queries.len());
    assert!(swapped > 100, "{} of {}", swapped, queries.len());
}

/// Whether the plan's first hash join probes with a scan estimated more
/// than four times its build scan — the shape only a build-side swap
/// produces (unswapped, the accumulated side probes and is the smaller).
fn probe_outweighs_build(plan: &str) -> bool {
    let est = |line: &str| -> Option<u64> {
        let at = line.find("[est=")? + "[est=".len();
        line[at..].split(']').next()?.parse().ok()
    };
    let lines: Vec<&str> = plan.lines().collect();
    lines.windows(3).any(|w| {
        let indent = |l: &str| l.len() - l.trim_start().len();
        w[0].trim_start().starts_with("HashJoin")
            && w[1].trim_start().starts_with("Scan")
            && w[2].trim_start().starts_with("Scan")
            && indent(w[1]) == indent(w[2])
            && matches!((est(w[1]), est(w[2])), (Some(p), Some(b)) if p > b.saturating_mul(4))
    })
}
