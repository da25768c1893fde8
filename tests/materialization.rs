//! Warehousing vs. virtual integration (§3.3): materialized views over
//! the mediated schema, freshness, refresh, and view selection.

use nimble::core::{Catalog, Engine};
use nimble::sources::relational::RelationalAdapter;
use nimble::store::{select_views, CandidateView, SelectionPolicy};
use nimble::xml::to_string;
use std::sync::Arc;

fn setup() -> (Engine, Arc<RelationalAdapter>) {
    let adapter = Arc::new(
        RelationalAdapter::from_statements(
            "sales",
            &[
                "CREATE TABLE orders (id INT, item TEXT, total FLOAT)",
                "INSERT INTO orders VALUES (1, 'widget', 10.0), (2, 'gadget', 20.0)",
            ],
        )
        .unwrap(),
    );
    let catalog = Catalog::new();
    catalog.register_source(Arc::clone(&adapter) as _).unwrap();
    catalog
        .define_view(
            "big_orders",
            r#"WHERE <row><item>$i</item><total>$t</total></row> IN "orders", $t >= 10
               CONSTRUCT <o><item>$i</item><total>$t</total></o> ORDER-BY $t"#,
            Some(100),
        )
        .unwrap();
    (Engine::new(Arc::new(catalog)), adapter)
}

const VIEW_QUERY: &str =
    r#"WHERE <o><item>$i</item></o> IN "big_orders" CONSTRUCT <hit>$i</hit>"#;

#[test]
fn virtual_and_materialized_answers_agree() {
    let (engine, _) = setup();
    let virtual_answer = engine.query(VIEW_QUERY).unwrap();
    assert!(virtual_answer.stats.source_calls > 0);

    engine.materialize_view("big_orders", None).unwrap();
    let materialized_answer = engine.query(VIEW_QUERY).unwrap();
    assert_eq!(materialized_answer.stats.source_calls, 0);
    assert!(materialized_answer
        .document
        .root()
        .deep_eq(&virtual_answer.document.root()));
}

#[test]
fn materialization_is_a_snapshot_until_refresh() {
    let (engine, adapter) = setup();
    engine.materialize_view("big_orders", Some(50)).unwrap();

    // New data arrives at the autonomous source.
    adapter
        .database()
        .write()
        .execute("INSERT INTO orders VALUES (3, 'gizmo', 30.0)")
        .unwrap();

    // Fresh materialization still answers with the snapshot (the
    // warehousing trade-off: performance vs. freshness).
    let r = engine.query(VIEW_QUERY).unwrap();
    assert_eq!(r.document.root().children().count(), 2);

    // After TTL lapse, virtual evaluation sees the new row…
    engine.clock().advance(51);
    let r = engine.query(VIEW_QUERY).unwrap();
    assert_eq!(r.document.root().children().count(), 3);

    // …and refresh re-materializes the current state.
    let refreshed = engine.refresh_stale_views();
    assert_eq!(refreshed, vec!["big_orders"]);
    let r = engine.query(VIEW_QUERY).unwrap();
    assert_eq!(r.stats.source_calls, 0);
    assert_eq!(r.document.root().children().count(), 3);
}

#[test]
fn workload_monitor_drives_greedy_selection() {
    let (engine, _) = setup();
    engine
        .catalog()
        .define_view(
            "small_orders",
            r#"WHERE <row><item>$i</item><total>$t</total></row> IN "orders", $t < 10
               CONSTRUCT <o>$i</o>"#,
            None,
        )
        .unwrap();

    // Skewed load: big_orders is hot.
    for _ in 0..10 {
        engine.query(VIEW_QUERY).unwrap();
    }
    engine
        .query(r#"WHERE <o>$i</o> IN "small_orders" CONSTRUCT <x>$i</x>"#)
        .unwrap();

    // The monitor's costs are wall-clock readings: one slow
    // `small_orders` query on a loaded host would outrank ten fast
    // `big_orders` ones. Charge every view the same cost, so selection
    // ranks on what this test controls — frequency and size.
    let candidates: Vec<CandidateView> = engine
        .monitor()
        .candidates()
        .into_iter()
        .map(|c| CandidateView {
            virtual_cost_ms: 1.0,
            ..c
        })
        .collect();
    let big = candidates.iter().find(|c| c.name == "big_orders").unwrap();
    let small = candidates.iter().find(|c| c.name == "small_orders").unwrap();
    assert!(big.frequency > small.frequency);

    // Greedy selection under a budget picks the hot view first.
    let picked = select_views(SelectionPolicy::Greedy, &candidates, big.size_nodes);
    assert_eq!(picked.first().map(String::as_str), Some("big_orders"));

    // Acting on the selection turns the hot view local.
    for name in &picked {
        if engine.catalog().view(name).is_some() {
            engine.materialize_view(name, Some(1000)).unwrap();
        }
    }
    let r = engine.query(VIEW_QUERY).unwrap();
    assert_eq!(r.stats.source_calls, 0);
}

#[test]
fn query_results_render_stably() {
    let (engine, _) = setup();
    let r = engine
        .query(
            r#"WHERE <o><item>$i</item><total>$t</total></o> IN "big_orders"
               CONSTRUCT <line><item>$i</item><amt>$t</amt></line>"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <line><item>widget</item><amt>10.0</amt></line>\
         <line><item>gadget</item><amt>20.0</amt></line>\
         </results>"
    );
}
