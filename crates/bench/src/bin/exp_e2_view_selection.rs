//! E2 — Which views to materialize (paper §3.3's open challenge).
//!
//! "There is a need for algorithms that decide which data (and over
//! which sources) need to be materialized … we may need to adjust the
//! set of materialized views over time depending on the query load."
//!
//! Setup: 12 candidate views over the customer fixture; a Zipf-skewed
//! workload observed by the engine's workload monitor; a storage-budget
//! sweep. Policies compared: `none` (pure virtual), `greedy`
//! (benefit-per-node knapsack from monitor statistics), `all`
//! (materialize everything that fits — the emulated warehouse arm).
//! Metric: total source calls over the measured workload (the remote
//! work a policy avoids).
//!
//! Expected shape: greedy ≈ all at large budgets but dominates at small
//! budgets; none is the upper bound on source traffic.

use nimble_bench::{customer_fixture, emit_jsonl, TablePrinter};
use nimble_trace::json;
use nimble_core::Engine;
use nimble_store::{select_views, SelectionPolicy};
use nimble_trace::rng::Rng;

const REGIONS: [&str; 4] = ["NW", "SW", "NE", "SE"];

/// The 12 candidate views: per-region customer lists and order rollups,
/// plus severity slices of tickets.
fn define_views(engine: &Engine) {
    for r in REGIONS {
        engine
            .catalog()
            .define_view(
                &format!("customers_{}", r),
                &format!(
                    r#"WHERE <row><name>$n</name><region>"{}"</region></row> IN "customers"
                       CONSTRUCT <e>$n</e>"#,
                    r
                ),
                Some(u64::MAX),
            )
            .unwrap();
        engine
            .catalog()
            .define_view(
                &format!("orders_{}", r),
                &format!(
                    r#"WHERE <row><id>$i</id><name>$n</name><region>"{}"</region></row> IN "customers",
                             <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
                       CONSTRUCT <e><n>$n</n><t>$t</t></e>"#,
                    r
                ),
                Some(u64::MAX),
            )
            .unwrap();
    }
    for sev in 1..=3 {
        engine
            .catalog()
            .define_view(
                &format!("tickets_s{}", sev),
                &format!(
                    r#"WHERE <row><cust_id>$c</cust_id><severity>{}</severity></row> IN "tickets"
                       CONSTRUCT <e>$c</e>"#,
                    sev
                ),
                Some(u64::MAX),
            )
            .unwrap();
    }
    engine
        .catalog()
        .define_view(
            "press_mentions",
            r#"WHERE <item><company>$c</company></item> IN "releases"
               CONSTRUCT <e>$c</e>"#,
            Some(u64::MAX),
        )
        .unwrap();
}

fn view_names() -> Vec<String> {
    let mut v: Vec<String> = REGIONS
        .iter()
        .flat_map(|r| vec![format!("customers_{}", r), format!("orders_{}", r)])
        .collect();
    v.extend((1..=3).map(|s| format!("tickets_s{}", s)));
    v.push("press_mentions".to_string());
    v
}

/// Zipf-ish skew: view i gets weight 1/(i+1).
fn pick_view(rng: &mut Rng, names: &[String]) -> String {
    let weights: Vec<f64> = (0..names.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut roll = rng.f64() * total;
    for (name, w) in names.iter().zip(weights) {
        roll -= w;
        if roll <= 0.0 {
            return name.clone();
        }
    }
    names.last().unwrap().clone()
}

fn workload_query(view: &str, nonce: usize) -> String {
    // A thin query over the view so view access dominates. The nonce
    // predicate is always true but makes each query text unique, which
    // is what real parameterized workloads look like.
    format!(
        r#"WHERE <e>$x</e> ELEMENT_AS $e IN "{}", length($x) + {} >= {}
           CONSTRUCT <r>$x</r>"#,
        view, nonce, nonce
    )
}

fn run_workload(engine: &Engine, queries: usize, seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let names = view_names();
    let mut source_calls = 0;
    for nonce in 0..queries {
        let view = pick_view(&mut rng, &names);
        let r = engine
            .query(&workload_query(&view, nonce))
            .expect("query runs");
        source_calls += r.stats.source_calls;
    }
    source_calls
}

fn main() {
    println!("E2: materialized-view selection under a storage budget\n");
    let queries = 150;

    // Observation pass: measure candidate sizes/costs with the monitor.
    let (catalog, _) = customer_fixture(200);
    let observer = Engine::new(catalog);
    define_views(&observer);
    run_workload(&observer, queries, 7);
    let candidates = observer.monitor().candidates();
    let total_size: usize = candidates.iter().map(|c| c.size_nodes).sum();
    println!(
        "observed {} candidate views, total materialized size {} nodes\n",
        candidates.len(),
        total_size
    );

    let table = TablePrinter::new(&[
        ("budget_pct", 12),
        ("policy", 10),
        ("materialized", 14),
        ("source_calls", 14),
    ]);
    for budget_pct in [10usize, 25, 50, 100] {
        let budget = total_size * budget_pct / 100;
        for (policy, label) in [
            (SelectionPolicy::None, "none"),
            (SelectionPolicy::Greedy, "greedy"),
            (SelectionPolicy::All, "all"),
        ] {
            let (catalog, _) = customer_fixture(200);
            let engine = Engine::new(catalog);
            define_views(&engine);
            let picked = select_views(policy, &candidates, budget);
            for name in &picked {
                engine.materialize_view(name, None).expect("materializes");
            }
            let source_calls = run_workload(&engine, queries, 7);
            table.row(&[
                budget_pct.to_string(),
                label.to_string(),
                picked.len().to_string(),
                source_calls.to_string(),
            ]);
            emit_jsonl(
                "e2_view_selection",
                &json!({
                    "budget_pct": budget_pct,
                    "policy": label,
                    "materialized": picked.len(),
                    "source_calls": source_calls,
                }),
            );
        }
    }
    println!(
        "\nshape check: greedy ≤ all in source calls at every budget; the\n\
         greedy/all gap widens as the budget shrinks"
    );
}
