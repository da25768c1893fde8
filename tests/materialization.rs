//! Warehousing vs. virtual integration (§3.3): materialized views over
//! the mediated schema, freshness, refresh, and view selection.

use nimble::core::{Catalog, Engine, UnavailablePolicy};
use nimble::frontend::ManagementConsole;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble::store::{select_views, CandidateView, SelectionPolicy};
use nimble::xml::{to_string, Document};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Pass-through adapter counting the calls the mediator makes and the
/// XML nodes it gets back (as `federation.rs`'s does): what a refresh
/// charges an autonomous source.
struct Counting {
    inner: Arc<RelationalAdapter>,
    charged: Arc<(AtomicU64, AtomicU64)>,
}

impl SourceAdapter for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn collections(&self) -> Vec<CollectionInfo> {
        self.inner.collections()
    }
    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        let result = self.inner.execute(query);
        self.charged.0.fetch_add(1, Ordering::Relaxed);
        if let Ok(doc) = &result {
            self.charged.1.fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
        result
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.inner.fetch_collection(name)
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

const C360: &str = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
      <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
CONSTRUCT <c360><id>$i</id><name>$n</name><region>$r</region><oid>$o</oid><total>$t</total></c360>"#;

/// 2 500 customers in `crm`, 7 500 orders in `billing` (the last one for
/// a customer 9999 that is not there yet).
fn c360_databases() -> (Arc<RelationalAdapter>, Arc<RelationalAdapter>) {
    let customers: Vec<String> = (0..2_500)
        .map(|i| format!("({}, 'c{}', '{}')", i, i, ["NW", "SW", "NE", "SE"][i % 4]))
        .collect();
    let orders: Vec<String> = (0..7_500)
        .map(|o| format!("({}, {}, {}.5)", o, if o == 7_499 { 9_999 } else { (o * 7) % 2_500 }, o % 900))
        .collect();
    let crm = Arc::new(
        RelationalAdapter::from_statements(
            "crm",
            &[
                "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                &format!("INSERT INTO customers VALUES {}", customers.join(", ")),
            ],
        )
        .unwrap(),
    );
    let billing = Arc::new(
        RelationalAdapter::from_statements(
            "billing",
            &[
                "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)",
                &format!("INSERT INTO orders VALUES {}", orders.join(", ")),
            ],
        )
        .unwrap(),
    );
    (crm, billing)
}

/// [`c360_databases`] with `customer360` over both; returns the two
/// databases' adapters beside the engine.
fn customer360(
    charged: &Arc<(AtomicU64, AtomicU64)>,
) -> (Engine, Arc<RelationalAdapter>, Arc<RelationalAdapter>) {
    let (crm, billing) = c360_databases();
    let catalog = Catalog::new();
    for adapter in [&crm, &billing] {
        catalog
            .register_source(Arc::new(Counting {
                inner: Arc::clone(adapter),
                charged: Arc::clone(charged),
            }))
            .unwrap();
    }
    catalog.define_view("customer360", C360, Some(100)).unwrap();
    (Engine::new(Arc::new(catalog)), crm, billing)
}

#[test]
fn a_refresh_ships_the_rows_a_source_gained_not_the_table() {
    let charged = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let (engine, crm, billing) = customer360(&charged);
    engine.materialize_view("customer360", None).unwrap();
    let stored = || engine.views().peek("customer360").unwrap();
    assert_eq!(stored().refreshed_by, "full (first)");
    assert_eq!(stored().document.root_cursor().child_element_count(), 7_499);

    // What a refresh costs the sources, and how it went about it.
    let refresh = || {
        let before = (charged.0.load(Ordering::Relaxed), charged.1.load(Ordering::Relaxed));
        engine.clock().advance(101);
        assert_eq!(engine.refresh_stale_views(), ["customer360"]);
        (
            charged.0.load(Ordering::Relaxed) - before.0,
            charged.1.load(Ordering::Relaxed) - before.1,
            stored().refreshed_by,
        )
    };
    // The reference: a fresh engine's full materialization of the same
    // databases.
    let recomputed = || {
        let catalog = Catalog::new();
        catalog.register_source(Arc::clone(&crm) as _).unwrap();
        catalog.register_source(Arc::clone(&billing) as _).unwrap();
        catalog.define_view("customer360", C360, None).unwrap();
        let fresh = Engine::new(Arc::new(catalog));
        fresh.materialize_view("customer360", None).unwrap();
        to_string(&fresh.views().peek("customer360").unwrap().document.root())
    };
    let rows = |xml: &str| {
        let body = xml.trim_end_matches("</results>");
        let mut rows: Vec<String> = body.split("<c360>").skip(1).map(str::to_string).collect();
        rows.sort();
        rows
    };

    // A lapse with nothing inserted: one empty answer, nobody else asked.
    assert_eq!(refresh(), (1, 1, "delta crm.customers 2500..2500".to_string()));
    assert_eq!(to_string(&stored().document.root()), recomputed());

    // Ten customers alone: a delta too — and `customers` is the side a
    // recompute streams, so the stored document is the recompute's, byte
    // for byte. (Customer 9999 finds the order that was waiting for it.)
    let batch: Vec<String> = (0..10)
        .map(|k| format!("({}, 'late{}', 'NW')", if k == 0 { 9_999 } else { 2_500 + k }, k))
        .collect();
    crm.database()
        .write()
        .execute(&format!("INSERT INTO customers VALUES {}", batch.join(", ")))
        .unwrap();
    let (calls, nodes, how) = refresh();
    assert_eq!((calls, how.as_str()), (2, "delta crm.customers 2500..2510"));
    assert_eq!(nodes, (1 + 10 * 7) + (1 + 7));
    assert_eq!(stored().document.root_cursor().child_element_count(), 7_500);
    assert_eq!(to_string(&stored().document.root()), recomputed());

    // Ten orders (two for one customer, one for a customer that does
    // not exist): the ten rows, then the customers they name.
    let batch: Vec<String> = (0..10)
        .map(|k| format!("({}, {}, 1.5)", 7_500 + k, [3, 3, 8_888, 17, 40, 41, 42, 43, 44, 45][k]))
        .collect();
    billing
        .database()
        .write()
        .execute(&format!("INSERT INTO orders VALUES {}", batch.join(", ")))
        .unwrap();
    let (calls, nodes, how) = refresh();
    assert_eq!(how, "delta billing.orders 7500..7510");
    assert_eq!(calls, 2);
    assert!(nodes <= 2 * (1 + 10 * 7), "{} nodes", nodes);
    assert_eq!(nodes, (1 + 10 * 7) + (1 + 8 * 7));
    assert_eq!(stored().document.root_cursor().child_element_count(), 7_509);
    assert_eq!(rows(&to_string(&stored().document.root())), rows(&recomputed()));
    assert_eq!(stored().hits, 0);

    // The floor and the bind stage are in the plan for anyone to read.
    let query = nimble::xmlql::compile(C360).unwrap().0;
    let plan = nimble::core::planner::plan_refresh(
        engine.catalog(),
        &query,
        &engine.config().optimizer,
        None,
        Some(("billing.orders", 7_500)),
    )
    .unwrap();
    let notes = plan.notes.join("\n") + "\n" + &nimble::core::planner::value_notes(engine.catalog(), &plan).join("\n");
    assert!(notes.contains("FROM orders t AFTER ROW 7500"), "{}", notes);
    assert!(notes.contains("FROM customers t AFTER ROW 0  [+ t.id IN (keys of $i)]"), "{}", notes);
    assert!(notes.contains("bind $i: billing \u{2192} crm"), "{}", notes);
    assert!(notes.contains("delta refresh: rows of billing.orders past 7500"), "{}", notes);

    // Both grew: no delta is the join of two deltas; recompute, and say so.
    billing.database().write().execute("INSERT INTO orders VALUES (7510, 2501, 2.5)").unwrap();
    crm.database().write().execute("INSERT INTO customers VALUES (2510, 'both', 'SE')").unwrap();
    let (calls, nodes, how) = refresh();
    assert_eq!((calls, how.as_str()), (2, "full (several_grew)"));
    assert!(nodes > 7_500 * 7);
    assert_eq!(to_string(&stored().document.root()), recomputed());

    let m = engine.metrics_snapshot();
    assert_eq!(m.counter("engine.view.refresh.delta"), 3);
    assert_eq!(m.counter("engine.view.refresh.full"), 2);
    assert_eq!(m.counter("engine.view.refresh.full.first"), 1);
    assert_eq!(m.counter("engine.view.refresh.full.several_grew"), 1);
    assert_eq!(m.histograms["engine.view.refresh_us"].count, 5);
}

/// A write through the source, noted to the catalog, is in the next
/// answer: nothing between the text and the sources answers from before
/// the write as if it were complete and fresh.
#[test]
fn a_noted_write_is_in_the_next_answer() {
    let (engine, adapter) = setup();
    let q = r#"WHERE <row><item>$i</item></row> IN "orders" CONSTRUCT <o>$i</o>"#;
    let before = engine.query(q).unwrap();
    assert_eq!(to_string(&before.document.root()), "<results><o>widget</o><o>gadget</o></results>");
    adapter
        .database()
        .write()
        .execute("INSERT INTO orders VALUES (3, 'gizmo', 30.0)")
        .unwrap();
    engine.catalog().note_source_mutation("sales");
    let after = engine.query(q).unwrap();
    assert!(after.complete && !after.stale);
    assert_eq!(
        to_string(&after.document.root()),
        "<results><o>widget</o><o>gadget</o><o>gizmo</o></results>"
    );
}

#[test]
fn a_write_costs_the_catalog_one_empty_answer() {
    let charged = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let (engine, _crm, billing) = customer360(&charged);
    // A cached plan over the collection the write does not touch.
    let q = r#"WHERE <row><id>$i</id><region>$r</region></row> IN "customers", $r = "NW", $i < 20
               CONSTRUCT <c>$i</c>"#;
    let first = to_string(&engine.query(q).unwrap().document.root());
    let invalidations = engine.plan_cache().stats().invalidations;

    let batch: Vec<String> = (0..10).map(|k| format!("({}, {}, 1.5)", 7_500 + k, k)).collect();
    billing
        .database()
        .write()
        .execute(&format!("INSERT INTO orders VALUES {}", batch.join(", ")))
        .unwrap();
    let before = (charged.0.load(Ordering::Relaxed), charged.1.load(Ordering::Relaxed));
    engine.catalog().note_source_mutation("billing");
    // One floored probe asking for no row: `<rows/>`, one node.
    assert_eq!(
        (charged.0.load(Ordering::Relaxed) - before.0, charged.1.load(Ordering::Relaxed) - before.1),
        (1, 1)
    );
    assert_eq!(engine.catalog().stats().rows("billing.orders"), Some(7_510));

    let again = engine.query(q).unwrap();
    assert!(again.stats.plan.starts_with("-- plan: cached shape"), "{}", again.stats.plan);
    assert_eq!(to_string(&again.document.root()), first);
    assert_eq!(engine.plan_cache().stats().invalidations, invalidations);
    let m = engine.metrics_snapshot();
    assert_eq!((m.gauge("stats.sample.appended"), m.gauge("stats.sample.resampled")), (1, 0));
}

/// Ten orders past the ones `billing` holds, for existing customers.
fn ten_orders(billing: &RelationalAdapter) {
    let next = billing.estimated_rows("orders").unwrap();
    let batch: Vec<String> = (next..next + 10).map(|o| format!("({}, {}, 1.5)", o, o % 2_500)).collect();
    billing
        .database()
        .write()
        .execute(&format!("INSERT INTO orders VALUES {}", batch.join(", ")))
        .unwrap();
}

/// A delta refresh appends to the stored document in place — unless a
/// reader holds it: then the rows go into a copy, and the reader's
/// document stays what it was, byte for byte.
#[test]
fn a_reader_holding_the_view_keeps_its_snapshot() {
    let charged = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let (engine, _crm, billing) = customer360(&charged);
    let engine = Arc::new(engine);
    engine.materialize_view("customer360", None).unwrap();
    let refresh = || {
        ten_orders(&billing);
        engine.clock().advance(101);
        assert_eq!(engine.refresh_stale_views(), ["customer360"]);
        engine.views().peek("customer360").unwrap()
    };

    let held = engine.views().peek("customer360").unwrap().document;
    let before = to_string(&held.root());
    let copied = refresh();
    assert_eq!(to_string(&held.root()), before);
    assert_eq!((copied.refreshed_by.as_str(), copied.appended_in_place), ("delta billing.orders 7500..7510", Some(false)));
    assert_eq!(copied.document.root_cursor().child_element_count(), 7_509);
    drop((held, copied));

    let in_place = refresh();
    assert_eq!(in_place.appended_in_place, Some(true));
    assert_eq!(in_place.document.root_cursor().child_element_count(), 7_519);
    assert_eq!(in_place.size_nodes, in_place.document.len());
    let m = engine.metrics_snapshot();
    assert_eq!((m.counter("engine.view.refresh.copied"), m.counter("engine.view.refresh.in_place")), (1, 1));
    let console = ManagementConsole::new(Arc::clone(&engine)).render();
    assert!(console.contains("delta billing.orders 7510..7520, in place"), "{}", console);
}

/// A refresh's answers are floored, and none of them is kept for the
/// stale fallback, which no refresh reads (it takes no stale answer) and
/// no query can (the floor is in the key). A query's own answer still
/// stands in while its source is down.
#[test]
fn no_refresh_answer_is_kept_for_the_stale_fallback() {
    let (crm, billing) = c360_databases();
    let link = SimulatedLink::new(Arc::clone(&billing) as _, LinkConfig::default());
    let catalog = Catalog::new();
    catalog.register_source(crm).unwrap();
    catalog.register_source(Arc::clone(&link) as _).unwrap();
    catalog.define_view("customer360", C360, Some(100)).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine.materialize_view("customer360", None).unwrap();
    for _ in 0..3 {
        ten_orders(&billing);
        engine.catalog().note_source_mutation("billing");
        engine.clock().advance(101);
        assert_eq!(engine.refresh_stale_views(), ["customer360"]);
    }
    assert_eq!(engine.views().peek("customer360").unwrap().refreshed_by, "delta billing.orders 7520..7530");
    assert_eq!(engine.cache().stats().current_size, 0);

    engine.set_unavailable_policy(UnavailablePolicy::StaleCache);
    let q = r#"WHERE <row><oid>$o</oid><total>$t</total></row> IN "orders", $t < 2 CONSTRUCT <o>$o</o>"#;
    let live = engine.query(q).unwrap();
    assert!(live.complete && !live.stale && engine.cache().stats().current_size > 0);
    link.set_up(false);
    let fallback = engine.query(q).unwrap();
    assert!(fallback.stale, "{:?}", fallback.missing_sources);
    assert_eq!(to_string(&fallback.document.root()), to_string(&live.document.root()));
}
