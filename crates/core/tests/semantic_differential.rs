//! Property sweeps (seeded, `nimble_trace::rng::sweep`) for the semantic
//! analyzer's satisfiability verdicts: the static analysis must agree
//! with execution.
//!
//! 1. **Statically empty really is empty.** When the analyzer prunes a
//!    query (the plan carries `[pruned: …]`), running the *same* query
//!    with pruning disabled — so every source is actually fetched and
//!    every predicate actually evaluated — returns zero rows. A prune
//!    of a non-empty result would be a soundness bug, caught here.
//! 2. **Pruning is invisible in answers.** For arbitrary generated
//!    threshold predicates (satisfiable or not), prune-on and
//!    prune-off produce byte-identical documents; only the work
//!    differs (a pruned plan makes zero adapter calls).

use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use nimble_trace::rng::{sweep, Rng};
use nimble_xml::serialize::to_string;
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

fn engine(cat: &Arc<Catalog>, prune_unsat: bool) -> Engine {
    let e = Engine::new(cat.clone());
    e.set_optimizer(OptimizerConfig {
        prune_unsat,
        ..OptimizerConfig::default()
    });
    e
}

/// Threshold-predicate queries over `orders.total` (data range 8..=250):
/// a lower bound, an optional upper bound, and an optional join. Wide
/// constant ranges generate all three analyzer outcomes — satisfiable,
/// contradictory (`lo > hi`), and out-of-bounds (`$t > 250`).
fn query(rng: &mut Rng) -> String {
    let lo = rng.range(-50..400);
    let hi = rng.chance(0.5).then(|| rng.range(-50..400));
    let mut pats =
        vec![r#"<row><cust_id>$i</cust_id><total>$t</total></row> IN "orders""#.to_string()];
    let mut construct = String::from("<t>$t</t>");
    if rng.chance(0.5) {
        pats.push(r#"<row><id>$i</id><name>$n</name></row> IN "customers""#.into());
        construct.push_str("<n>$n</n>");
    }
    let mut preds = vec![format!("$t > {}", lo)];
    if let Some(hi) = hi {
        preds.push(format!("$t < {}", hi));
    }
    format!(
        "WHERE {}, {} CONSTRUCT <hit>{}</hit> ORDER-BY $t",
        pats.join(", "),
        preds.join(", "),
        construct
    )
}

/// Analyzer verdicts agree with execution: a statically-pruned plan
/// means the honestly-executed query returns zero rows, and pruning
/// never changes the produced document.
#[test]
fn pruning_agrees_with_execution() {
    let mut pruned = 0;
    sweep(64, |rng| {
        let text = query(rng);
        let cat = catalog();
        let on = engine(&cat, true).query(&text).unwrap();
        let off = engine(&cat, false).query(&text).unwrap();

        assert_eq!(
            to_string(&on.document.root()),
            to_string(&off.document.root()),
            "prune-on and prune-off disagree for {:?}",
            &text
        );

        if on.stats.plan.contains("[pruned:") {
            // The static verdict "this can never hold" must match the
            // ground truth computed without the analyzer's help…
            assert_eq!(
                off.document.root().children().count(),
                0,
                "analyzer pruned a non-empty result for {:?}\nplan: {}",
                &text,
                &on.stats.plan
            );
            // …and the point of the verdict is skipping the fetch.
            assert_eq!(on.stats.source_calls, 0);
            pruned += 1;
        }
    });
    // The sweep saw both verdicts.
    assert!((1..64).contains(&pruned), "{} of 64 pruned", pruned);
}

/// The engine must never prune a query whose honest execution
/// returns rows; equivalently, any query with a non-empty answer
/// keeps a live plan. (The contrapositive of soundness, checked
/// from the execution side so a too-eager analyzer cannot hide.)
#[test]
fn non_empty_results_are_never_pruned() {
    sweep(64, |rng| {
        let lo = rng.range(-50..240);
        let cat = catalog();
        // `$t > lo` with lo < 250 always keeps at least the 250 row.
        let text = format!(
            r#"WHERE <row><total>$t</total></row> IN "orders", $t > {} CONSTRUCT <o>$t</o>"#,
            lo
        );
        let r = engine(&cat, true).query(&text).unwrap();
        assert!(r.document.root().children().count() > 0);
        assert!(!r.stats.plan.contains("[pruned:"), "plan: {}", &r.stats.plan);
    });
}
