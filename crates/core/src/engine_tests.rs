//! End-to-end tests of the integration engine: the full Figure-1
//! pipeline over relational, hierarchical, XML, and CSV sources.

use crate::engine::{Engine, EngineConfig, OptimizerConfig, UnavailablePolicy};
use crate::Catalog;
use nimble_sources::hierarchical::{HierarchicalAdapter, Segment};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_sources::SourceAdapter;
use nimble_xml::{to_string, Atomic};
use std::sync::Arc;

/// CRM relational source shared across tests.
fn crm() -> Arc<RelationalAdapter> {
    Arc::new(
        RelationalAdapter::from_statements(
            "crm",
            &[
                "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
                "INSERT INTO customers VALUES \
                 (1, 'Acme', 'NW'), (2, 'Globex', 'SW'), (3, 'Initech', 'NW')",
                "CREATE TABLE orders (id INT, cust_id INT, total FLOAT)",
                "INSERT INTO orders VALUES \
                 (10, 1, 250.0), (11, 1, 75.5), (12, 2, 120.0)",
            ],
        )
        .unwrap(),
    )
}

fn bib_xml() -> Arc<XmlDocAdapter> {
    Arc::new(
        XmlDocAdapter::new("feeds")
            .add_xml(
                "bib",
                "<bib>\
                 <book year='1999'><title>Web Data</title><publisher>Acme</publisher></book>\
                 <book year='2001'><title>Integration</title><publisher>Globex</publisher></book>\
                 </bib>",
            )
            .unwrap(),
    )
}

fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    c.register_source(crm()).unwrap();
    c.register_source(bib_xml()).unwrap();
    Arc::new(c)
}

fn engine() -> Engine {
    Engine::new(catalog())
}

#[test]
fn relational_pushdown_end_to_end() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers"
               CONSTRUCT <c>$n</c> ORDER-BY $n"#,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(
        to_string(&r.document.root()),
        "<results><c>Acme</c><c>Initech</c></results>"
    );
    assert_eq!(r.stats.fragments_pushed, 1);
}

#[test]
fn a_lens_is_prepared_once_at_the_source_too() {
    // Plan once, bind per serve — end to end: the values of a cached
    // shape reach the database bound to a statement it prepared on the
    // first serve, so the count of statements it has parsed and planned
    // stands still while the count of statements it has run goes up.
    let crm = crm();
    let catalog = Catalog::new();
    catalog.register_source(crm.clone()).unwrap();
    let e = Engine::new(Arc::new(catalog));
    let lookup = |id: i64| {
        let text = format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i = {}
               CONSTRUCT <c>$n</c>"#,
            id
        );
        to_string(&e.query(&text).unwrap().document.root())
    };
    assert_eq!(lookup(2), "<results><c>Globex</c></results>");
    let db = crm.database();
    let first = db.read().stats().clone();
    for (id, name) in [(1, "Acme"), (3, "Initech"), (2, "Globex"), (1, "Acme")] {
        assert_eq!(lookup(id), format!("<results><c>{}</c></results>", name));
    }
    let last = db.read().stats().clone();
    assert_eq!(last.prepares, first.prepares);
    assert_eq!(last.statements, first.statements + 4);
}

#[test]
fn cross_source_join_xml_and_sql() {
    let e = engine();
    // Join XML publishers against relational customer names.
    let r = e
        .query(
            r#"WHERE <bib><book year=$y><title>$t</title><publisher>$n</publisher></book></bib> IN "bib",
                     <row><name>$n</name><region>$reg</region></row> IN "customers"
               CONSTRUCT <hit><title>$t</title><region>$reg</region></hit>
               ORDER-BY $t"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <hit><title>Integration</title><region>SW</region></hit>\
         <hit><title>Web Data</title><region>NW</region></hit>\
         </results>"
    );
}

#[test]
fn same_source_join_is_pushed_as_sql() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$tot</total></row> IN "orders",
                     $tot > 100
               CONSTRUCT <big><who>$n</who><amt>$tot</amt></big>
               ORDER-BY $tot DESC"#,
        )
        .unwrap();
    // One merged fragment: customers ⋈ orders with the predicate pushed.
    assert_eq!(r.stats.fragments_pushed, 1);
    assert_eq!(r.stats.source_calls, 1);
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <big><who>Acme</who><amt>250.0</amt></big>\
         <big><who>Globex</who><amt>120.0</amt></big>\
         </results>"
    );
}

#[test]
fn predicates_and_functions() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <bib><book year=$y><title>$t</title></book></bib> IN "bib",
                     $y >= 2000 AND contains(lower($t), "integr")
               CONSTRUCT <t>$t</t>"#,
        )
        .unwrap();
    assert_eq!(to_string(&r.document.root()), "<results><t>Integration</t></results>");
}

#[test]
fn custom_function_registration() {
    let e = engine();
    e.register_function("shout", |args| {
        Ok(nimble_xml::Value::from(
            args[0].atomize().lexical().to_uppercase().as_str(),
        ))
    });
    let r = e
        .query(
            r#"WHERE <row><name>$n</name></row> IN "customers", shout($n) = "ACME"
               CONSTRUCT <c>$n</c>"#,
        )
        .unwrap();
    assert_eq!(to_string(&r.document.root()), "<results><c>Acme</c></results>");
}

#[test]
fn navigation_within_bound_elements() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                     <title>$t</title> IN $b
               CONSTRUCT <t>$t</t> ORDER-BY $t"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results><t>Integration</t><t>Web Data</t></results>"
    );
}

#[test]
fn nested_subquery_grouping() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                     <title>$t</title> IN $b
               CONSTRUCT <entry><t>$t</t>
                   WHERE <publisher>$p</publisher> IN $b
                   CONSTRUCT <pub>$p</pub>
               </entry> ORDER-BY $t"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <entry><t>Integration</t><pub>Globex</pub></entry>\
         <entry><t>Web Data</t><pub>Acme</pub></entry>\
         </results>"
    );
}

#[test]
fn skolem_grouping_end_to_end() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
               CONSTRUCT <cust ID=ByCustomer($c)><id>$c</id><order>$t</order></cust>"#,
        )
        .unwrap();
    let doc = to_string(&r.document.root());
    // Customer 1 has two orders accumulated under one element.
    assert!(
        doc.contains("<cust><id>1</id><order>250.0</order><order>75.5</order></cust>"),
        "{}",
        doc
    );
}

#[test]
fn skolem_groups_keep_null_apart_from_the_empty_string() {
    // A NULL cell and a '' cell are different values, so they open
    // different Skolem groups — on the tree path (`query`) and on the
    // streamed one (`query_serialized`).
    let mut insert =
        String::from("INSERT INTO people VALUES (1, NULL), (2, ''), (3, NULL), (4, '')");
    for i in 5..3000 {
        insert.push_str(&format!(", ({}, 'p{}')", i, i));
    }
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements(
            "hr",
            &["CREATE TABLE people (id INT, nick TEXT)", &insert],
        )
        .unwrap(),
    ))
    .unwrap();
    let e = Engine::new(Arc::new(c));
    let q = r#"WHERE <row><id>$i</id><nick>$n</nick></row> IN "people"
               CONSTRUCT <g ID=G($n)><m>$i</m></g>"#;
    let tree = to_string(&e.query(q).unwrap().document.root());
    let streamed = e.query_serialized(q).unwrap();
    assert_eq!(e.metrics_snapshot().counter("engine.construct.streamed"), 1);
    for doc in [&tree, &streamed] {
        assert!(
            doc.starts_with("<results><g><m>1</m><m>3</m></g><g><m>2</m><m>4</m></g>"),
            "{}",
            &doc[..doc.len().min(120)]
        );
        assert_eq!(doc.matches("<g>").count(), 2 + 2995);
    }
}

#[test]
fn aggregates_end_to_end() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
               CONSTRUCT <cust ID=C($c)><id>$c</id><orders>count()</orders>
                         <spend>sum($t)</spend></cust>"#,
        )
        .unwrap();
    let doc = to_string(&r.document.root());
    assert!(
        doc.contains("<cust><id>1</id><orders>2</orders><spend>325.5</spend></cust>"),
        "{}",
        doc
    );
    assert!(
        doc.contains("<cust><id>2</id><orders>1</orders><spend>120.0</spend></cust>"),
        "{}",
        doc
    );
}

#[test]
fn parallel_and_serial_fetch_agree() {
    let query = r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                         <row><name>$n</name><region>$r</region></row> IN "customers"
                   CONSTRUCT <hit><t>$t</t><r>$r</r></hit> ORDER-BY $t"#;
    let parallel = {
        let e = engine();
        to_string(&e.query(query).unwrap().document.root())
    };
    let serial = {
        let e = Engine::with_config(
            catalog(),
            EngineConfig {
                parallel_fetch: false,
                ..EngineConfig::default()
            },
        );
        to_string(&e.query(query).unwrap().document.root())
    };
    assert_eq!(parallel, serial);
}

#[test]
fn pushdown_on_and_off_agree() {
    // Differential drive: every query shape (cross-source join,
    // same-source pushdown join, residual predicate, multi-key
    // ORDER-BY) must construct the same answers whether the sources
    // evaluate fragments or the mediator fetches and matches everything
    // centrally — pushdown changes which joins run in the mediator.
    // ORDER-BY ties may fall differently, so answers compare sorted.
    let queries = [
        r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers"
           CONSTRUCT <c>$n</c> ORDER-BY $n"#,
        r#"WHERE <bib><book year=$y><title>$t</title><publisher>$n</publisher></book></bib> IN "bib",
           <row><name>$n</name><region>$r</region></row> IN "customers"
           CONSTRUCT <hit><t>$t</t><r>$r</r></hit> ORDER-BY $t"#,
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
           <row><cust_id>$i</cust_id><total>$o</total></row> IN "orders",
           $o > 100
           CONSTRUCT <big><n>$n</n><o>$o</o></big> ORDER-BY $o DESC"#,
        r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
           <row><cust_id>$i</cust_id><total>$o</total></row> IN "orders"
           CONSTRUCT <r><a>$r</a><b>$n</b><c>$o</c></r> ORDER-BY $r, $o DESC"#,
    ];
    for query in queries {
        let run = |pushdown: bool| {
            let e = engine();
            e.set_optimizer(OptimizerConfig {
                pushdown,
                ..OptimizerConfig::default()
            });
            let doc = e.query(query).unwrap().document;
            let mut answers: Vec<String> = doc.root().children().map(|c| to_string(&c)).collect();
            assert!(!answers.is_empty(), "no answers: {}", query);
            answers.sort();
            answers
        };
        assert_eq!(run(true), run(false), "pushdown diverged: {}", query);
    }
}

#[test]
fn the_batch_drive_feeds_metrics_counters() {
    let e = engine();
    let before = e.metrics_snapshot();
    let r = e
        .query(r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#)
        .unwrap();
    assert_eq!(r.document.root().children().count(), 3);
    let after = e.metrics_snapshot();
    let diff = after.diff(&before);
    assert!(
        diff.counters.get("engine.exec.batches").copied().unwrap_or(0) >= 1,
        "batched drive should count at least one batch"
    );
    assert_eq!(
        diff.counters.get("engine.exec.batch_rows").copied().unwrap_or(0),
        3,
        "batch_rows must equal materialized tuples"
    );
}

#[test]
fn mediated_views_compose_hierarchically() {
    let e = engine();
    // Level 1: a view over the relational source.
    e.catalog()
        .define_view(
            "nw_customers",
            r#"WHERE <row><id>$i</id><name>$n</name><region>"NW"</region></row> IN "customers"
               CONSTRUCT <cust><id>$i</id><name>$n</name></cust>"#,
            None,
        )
        .unwrap();
    // Level 2: a view over the level-1 view ("schemas can be built in a
    // hierarchical fashion").
    e.catalog()
        .define_view(
            "nw_names",
            r#"WHERE <cust><name>$n</name></cust> IN "nw_customers"
               CONSTRUCT <n>$n</n>"#,
            None,
        )
        .unwrap();
    let r = e
        .query(r#"WHERE <n>$x</n> IN "nw_names" CONSTRUCT <name>$x</name> ORDER-BY $x"#)
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results><name>Acme</name><name>Initech</name></results>"
    );
}

#[test]
fn materialized_view_used_when_fresh() {
    let e = engine();
    e.catalog()
        .define_view(
            "all_names",
            r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <n>$n</n>"#,
            Some(10),
        )
        .unwrap();
    e.materialize_view("all_names", None).unwrap();

    // Fresh: answered locally, zero source calls.
    let r = e
        .query(r#"WHERE <n>$x</n> IN "all_names" CONSTRUCT <o>$x</o>"#)
        .unwrap();
    assert_eq!(r.stats.source_calls, 0);
    assert_eq!(r.document.root().children().count(), 3);

    // Past TTL: falls back to virtual evaluation (sources contacted).
    e.clock().advance(11);
    let r = e
        .query(r#"WHERE <n>$x</n> IN "all_names" CONSTRUCT <o>$x</o>"#)
        .unwrap();
    assert!(r.stats.source_calls > 0);

    // refresh_stale_views re-materializes.
    assert_eq!(e.refresh_stale_views(), vec!["all_names"]);
    let r = e
        .query(r#"WHERE <n>$x</n> IN "all_names" CONSTRUCT <o>$x</o>"#)
        .unwrap();
    assert_eq!(r.stats.source_calls, 0);
}

#[test]
fn partial_results_policies() {
    let c = Catalog::new();
    let link = SimulatedLink::new(crm(), LinkConfig::default());
    c.register_source(link.clone() as Arc<dyn SourceAdapter>)
        .unwrap();
    c.register_source(bib_xml()).unwrap();
    let e = Engine::new(Arc::new(c));
    let query = r#"WHERE <row><name>$n</name></row> IN "customers"
                   CONSTRUCT <c>$n</c>"#;

    // Warm the fragment cache while the source is up.
    let r = e.query(query).unwrap();
    assert!(r.complete);

    link.set_up(false);

    // Fail policy: error.
    assert!(e.query(query).is_err());

    // SkipAndAnnotate: empty but annotated.
    e.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    let r = e.query(query).unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["crm"]);
    assert_eq!(r.document.root().children().count(), 0);

    // StaleCache: previous fragment result is served, marked stale.
    e.set_unavailable_policy(UnavailablePolicy::StaleCache);
    let r = e.query(query).unwrap();
    assert!(r.complete);
    assert!(r.stale);
    assert_eq!(r.document.root().children().count(), 3);
}

#[test]
fn unaffected_sources_still_answer() {
    let c = Catalog::new();
    let link = SimulatedLink::new(crm(), LinkConfig::default());
    link.set_up(false);
    c.register_source(link as Arc<dyn SourceAdapter>).unwrap();
    c.register_source(bib_xml()).unwrap();
    let e = Engine::new(Arc::new(c));
    e.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    // A query that only touches the XML source is complete.
    let r = e
        .query(r#"WHERE <bib><book><title>$t</title></book></bib> IN "bib" CONSTRUCT <t>$t</t>"#)
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.document.root().children().count(), 2);
}

#[test]
fn optimizer_ablation_changes_work_placement() {
    // Build the adapter directly so the test can read the database's
    // scan statistics.
    let adapter = crm();
    let db = adapter.database();
    let c = Catalog::new();
    c.register_source(adapter).unwrap();
    let e = Engine::new(Arc::new(c));
    let query = r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers"
                   CONSTRUCT <c>$n</c>"#;

    db.write().reset_stats();
    let r = e.query(query).unwrap();
    assert_eq!(r.stats.fragments_pushed, 1);
    // The selection ran inside the source: a SELECT was executed there.
    assert!(db.read().stats().statements >= 1);
    assert_eq!(r.document.root().children().count(), 2);

    // Pushdown off: whole collection fetched, matched centrally — the
    // relational engine sees no SELECT at all.
    e.set_optimizer(OptimizerConfig {
        pushdown: false,
        ..OptimizerConfig::default()
    });
    db.write().reset_stats();
    let r = e.query(query).unwrap();
    assert_eq!(r.stats.fragments_pushed, 0);
    assert_eq!(db.read().stats().statements, 0);
    assert_eq!(r.document.root().children().count(), 2);
}

#[test]
fn hierarchical_and_csv_sources_integrate() {
    let c = Catalog::new();
    c.register_source(Arc::new(HierarchicalAdapter::new(
        "legacy",
        vec![Segment::new(
            "dealer",
            vec![("dno", Atomic::Int(7)), ("city", "Seattle".into())],
        )
        .with_children(vec![Segment::new(
            "stock",
            vec![("pno", Atomic::Int(100)), ("qty", Atomic::Int(3))],
        )])],
    )))
    .unwrap();
    c.register_source(Arc::new(
        nimble_sources::csv::CsvAdapter::new("files")
            .add_csv("parts", "pno,label\n100,widget\n200,gadget\n")
            .unwrap(),
    ))
    .unwrap();
    let e = Engine::new(Arc::new(c));
    // Join a hierarchical segment scan against a CSV file.
    let r = e
        .query(
            r#"WHERE <row><pno>$p</pno><qty>$q</qty></row> IN "stock",
                     <row><pno>$p</pno><label>$l</label></row> IN "parts",
                     $q > 0
               CONSTRUCT <avail><part>$l</part><qty>$q</qty></avail>"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results><avail><part>widget</part><qty>3</qty></avail></results>"
    );
}

#[test]
fn explain_shows_plan() {
    let e = engine();
    let plan = e
        .explain(
            r#"WHERE <row><name>$n</name></row> IN "customers", $n LIKE "A%"
               CONSTRUCT <c>$n</c>"#,
        )
        .unwrap();
    assert!(plan.contains("pushdown"), "{}", plan);
    assert!(plan.contains("Scan"), "{}", plan);
}

#[test]
fn content_as_binds_typed_content() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <bib><book year=$y><title/> CONTENT_AS $t</book></bib> IN "bib",
                     $y = 1999
               CONSTRUCT <t>$t</t>"#,
        )
        .unwrap();
    assert_eq!(to_string(&r.document.root()), "<results><t>Web Data</t></results>");
}

#[test]
fn multi_key_order_by_through_engine() {
    let e = engine();
    let r = e
        .query(
            r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
               CONSTRUCT <o><c>$c</c><t>$t</t></o> ORDER-BY $c, $t DESC"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <o><c>1</c><t>250.0</t></o>\
         <o><c>1</c><t>75.5</t></o>\
         <o><c>2</c><t>120.0</t></o>\
         </results>"
    );
}

#[test]
fn transitive_view_cycles_are_caught() {
    let e = engine();
    // a → b and b → a individually pass the direct-self-reference check;
    // the evaluation depth guard must catch the loop.
    e.catalog()
        .define_view("cyc_a", r#"WHERE <x>$v</x> IN "cyc_b" CONSTRUCT <x>$v</x>"#, None)
        .unwrap_or(());
    e.catalog()
        .define_view("cyc_b", r#"WHERE <x>$v</x> IN "cyc_a" CONSTRUCT <x>$v</x>"#, None)
        .unwrap();
    // Defining cyc_a first fails resolution (cyc_b unknown yet), so
    // define it again now that cyc_b exists.
    e.catalog()
        .define_view("cyc_a", r#"WHERE <x>$v</x> IN "cyc_b" CONSTRUCT <x>$v</x>"#, None)
        .unwrap();
    let err = e
        .query(r#"WHERE <x>$v</x> IN "cyc_a" CONSTRUCT <o>$v</o>"#)
        .unwrap_err();
    assert!(
        matches!(err, crate::CoreError::CyclicView(_)),
        "expected cycle error, got {}",
        err
    );
}

#[test]
fn errors_are_informative() {
    let e = engine();
    // Unknown collection.
    let err = e
        .query(r#"WHERE <row><x>$x</x></row> IN "nope" CONSTRUCT <o/>"#)
        .unwrap_err();
    assert!(err.to_string().contains("nope"));
    // Syntax error.
    assert!(e.query("WHERE").is_err());
    // Unbound variable.
    assert!(e
        .query(r#"WHERE <row><x>$x</x></row> IN "customers" CONSTRUCT <o>$zzz</o>"#)
        .is_err());
}

#[test]
fn cluster_balances_queries() {
    use crate::cluster::{DispatchStrategy, EngineCluster};
    let cluster = EngineCluster::new(
        catalog(),
        3,
        1,
        EngineConfig::default(),
        DispatchStrategy::RoundRobin,
    );
    let q = r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#;
    for _ in 0..9 {
        assert!(cluster.query(q).unwrap().complete);
    }
    let served = cluster.served_per_instance();
    assert_eq!(served, vec![3, 3, 3]);
    cluster.shutdown();
}

#[test]
fn plan_cache_serves_repeats_and_catalog_changes_evict() {
    let e = engine();
    let q = r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers"
               CONSTRUCT <c>$n</c> ORDER-BY $n"#;
    let r1 = e.query(q).unwrap();
    // Reformatted whitespace normalizes to the same cache entry.
    let r2 = e.query(&q.replace("  ", "\n ")).unwrap();
    assert_eq!(
        to_string(&r2.document.root()),
        to_string(&r1.document.root())
    );
    let s = e.plan_cache().stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    // A hit skips the frontend: no parse/analyze phases, still planned
    // (the lookup) and executed.
    assert!(r1.stats.phases.iter().any(|(n, _)| n == "parse"));
    assert!(r2.stats.phases.iter().all(|(n, _)| n != "parse"));
    assert!(r2.stats.phases.iter().any(|(n, _)| n == "execute"));

    // Any catalog change moves the epoch, so the cached template is
    // provably dropped (invalidation, not a silent stale answer).
    let epoch = e.catalog().epoch();
    e.catalog()
        .register_source(Arc::new(XmlDocAdapter::new("empty")))
        .unwrap();
    assert!(e.catalog().epoch() > epoch);
    let r3 = e.query(q).unwrap();
    assert_eq!(
        to_string(&r3.document.root()),
        to_string(&r1.document.root())
    );
    let s = e.plan_cache().stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
}

#[test]
fn stats_feedback_invalidates_compiled_plans() {
    let adapter = crm();
    let db = adapter.database();
    let c = Catalog::new();
    c.register_source(adapter).unwrap();
    let e = Engine::new(Arc::new(c));
    let q = r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#;

    assert_eq!(e.query(q).unwrap().document.root().children().count(), 3);
    assert_eq!(e.catalog().stats().rows("crm.customers"), Some(3));

    // The source mutates out of band (no catalog notification): 20 extra
    // rows is material drift (>2x and >16 absolute), so the row count
    // observed by the next execution bumps the statistics generation...
    for i in 0..20 {
        db.write()
            .execute(&format!(
                "INSERT INTO customers VALUES ({}, 'C{}', 'NW')",
                100 + i,
                i
            ))
            .unwrap();
    }
    let r = e.query(q).unwrap();
    assert_eq!(r.document.root().children().count(), 23);
    assert_eq!(e.catalog().stats().rows("crm.customers"), Some(23));

    // ... and the query after that re-plans from the fresh statistics
    // instead of reusing the stale template.
    let before = e.plan_cache().stats().invalidations;
    assert_eq!(e.query(q).unwrap().document.root().children().count(), 23);
    assert_eq!(e.plan_cache().stats().invalidations, before + 1);
    assert!(e.metrics_snapshot().counter("stats.invalidations") >= 1);
}

/// The trap a continued sample must not fall into: a sample that saw the
/// whole collection gives exact bounds, and a plan is proved empty on
/// them. When the collection grows past the sample, the mutation must
/// re-sample and move the stamp, or the cached proof keeps answering
/// nothing for a key that is now there. A short sample (200 rows) and a
/// full one that is exhaustive (256).
#[test]
fn an_exhaustive_sample_that_grows_is_resampled_not_continued() {
    for size in [200, 256] {
        let adapter = Arc::new(
            RelationalAdapter::from_statements("erp", &["CREATE TABLE items (id INT, label TEXT)"]).unwrap(),
        );
        let insert = |ids: std::ops::Range<i64>| {
            let rows: Vec<String> = ids.map(|i| format!("({}, 'i{}')", i, i)).collect();
            let sql = format!("INSERT INTO items VALUES {}", rows.join(", "));
            adapter.database().write().execute(&sql).unwrap();
        };
        insert(0..size);
        let c = Catalog::new();
        c.register_source(adapter.clone()).unwrap();
        let e = Engine::new(Arc::new(c));
        let point = r#"WHERE <row><id>$x</id><label>$l</label></row> IN "items", $x = 300 CONSTRUCT <i>$l</i>"#;
        let range = r#"WHERE <row><id>$x</id><label>$l</label></row> IN "items", $x > 290, $x < 310 CONSTRUCT <i>$l</i>"#;
        for q in [point, range] {
            let r = e.query(q).unwrap();
            assert!(r.stats.plan.contains("-- pruned: "), "{}", r.stats.plan);
            assert_eq!((to_string(&r.document.root()).as_str(), r.stats.source_calls), ("<results/>", 0));
        }

        insert(300..301);
        insert(1000..1100);
        e.catalog().note_source_mutation("erp");
        for q in [point, range] {
            let r = e.query(q).unwrap();
            assert_eq!(to_string(&r.document.root()), "<results><i>i300</i></results>", "{}\n{}", size, r.stats.plan);
        }
        let activity = e.catalog().stats().activity();
        assert_eq!((activity.appended, activity.resampled), (0, 1), "{}", size);
    }
}

#[test]
fn cluster_concurrent_submissions() {
    use crate::cluster::{DispatchStrategy, EngineCluster};
    let cluster = EngineCluster::new(
        catalog(),
        2,
        2,
        EngineConfig::default(),
        DispatchStrategy::LeastLoaded,
    );
    let q = r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#;
    let receivers: Vec<_> = (0..16).map(|_| cluster.submit(q)).collect();
    for rx in receivers {
        assert!(rx.recv().unwrap().unwrap().complete);
    }
    cluster.shutdown();
}

// ---- Semantic analysis (planck v2): pruning, differential, audit ----

#[test]
fn unsatisfiable_predicates_prune_without_source_calls() {
    let e = engine();
    // `$t > 500 AND $t < 3` is an interval contradiction: pure logic,
    // no statistics required. The pipeline must short-circuit before
    // any adapter call.
    let r = e
        .query(
            r#"WHERE <row><total>$t</total></row> IN "orders", $t > 500, $t < 3
               CONSTRUCT <o>$t</o>"#,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.document.root().children().count(), 0);
    assert_eq!(r.stats.source_calls, 0);
    assert_eq!(r.stats.rows_fetched, 0);
    assert!(r.stats.plan.contains("pruned: unsatisfiable"), "{}", r.stats.plan);
    assert!(r.stats.plan.contains("Empty"), "{}", r.stats.plan);
    assert_eq!(e.metrics_snapshot().counter("engine.plan.pruned"), 1);

    // With pruning off the result is identical, but the source is
    // actually contacted and the rows filtered at runtime.
    let e2 = engine();
    e2.set_optimizer(OptimizerConfig {
        prune_unsat: false,
        ..OptimizerConfig::default()
    });
    let r2 = e2
        .query(
            r#"WHERE <row><total>$t</total></row> IN "orders", $t > 500, $t < 3
               CONSTRUCT <o>$t</o>"#,
        )
        .unwrap();
    assert_eq!(r2.document.root().children().count(), 0);
    assert!(r2.stats.source_calls > 0);
    assert_eq!(e2.metrics_snapshot().counter("engine.plan.pruned"), 0);
}

#[test]
fn stats_bounds_prune_out_of_range_predicates() {
    let e = engine();
    // orders.total spans [75.5, 250.0] and the 3-row table is sampled
    // exhaustively at registration, so the bounds are exact and
    // `$t > 100000` is statically empty.
    let r = e
        .query(
            r#"WHERE <row><total>$t</total></row> IN "orders", $t > 100000
               CONSTRUCT <o>$t</o>"#,
        )
        .unwrap();
    assert_eq!(r.document.root().children().count(), 0);
    assert_eq!(r.stats.source_calls, 0);
    assert!(r.stats.plan.contains("pruned: unsatisfiable"), "{}", r.stats.plan);

    // A satisfiable range over the same field is untouched.
    let r = e
        .query(
            r#"WHERE <row><total>$t</total></row> IN "orders", $t > 100
               CONSTRUCT <o>$t</o>"#,
        )
        .unwrap();
    assert_eq!(r.document.root().children().count(), 2);
}

#[test]
fn always_true_residual_predicates_are_eliminated() {
    let e = engine();
    // `3 < 5` cannot be pushed (no variable) and folds to TRUE: it is
    // dropped from the residual filter, and the result is unchanged.
    let r = e
        .query(
            r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers", 3 < 5
               CONSTRUCT <c>$n</c> ORDER-BY $n"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results><c>Acme</c><c>Initech</c></results>"
    );
    assert!(r.stats.plan.contains("always-true"), "{}", r.stats.plan);
    assert!(!r.stats.plan.contains("Filter"), "{}", r.stats.plan);
}

#[test]
fn small_and_large_float_literals_reach_the_source() {
    // 300 rows: past the statistics sample, so no bounds prune the
    // query and the literal has to survive the SQL text. `{:?}` spelled
    // these `1e-6` and `1e16`, which the SQL lexer does not read.
    let mut stmts = vec!["CREATE TABLE orders (oid INT, total FLOAT)".to_string()];
    for i in 0..300 {
        let total = match i {
            7 => "0.000001".to_string(),
            8 => "10000000000000000.0".to_string(),
            _ => format!("{}.5", i),
        };
        stmts.push(format!("INSERT INTO orders VALUES ({}, {})", i, total));
    }
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let c = Catalog::new();
    c.register_source(Arc::new(RelationalAdapter::from_statements("billing", &refs).unwrap()))
        .unwrap();
    let e = Engine::new(Arc::new(c));
    for (pred, want) in [
        ("$t = 0.000001", "<results><o>7</o></results>"),
        ("$t < 0.000001", "<results/>"),
        ("$t <= 0.000001", "<results><o>7</o></results>"),
        ("$t = 10000000000000000.0", "<results><o>8</o></results>"),
        ("$t > 1000000000000000.0", "<results><o>8</o></results>"),
    ] {
        let text = format!(
            r#"WHERE <row><oid>$o</oid><total>$t</total></row> IN "orders", {} CONSTRUCT <o>$o</o>"#,
            pred
        );
        let r = e.query(&text).unwrap_or_else(|err| panic!("{}: {}", pred, err));
        assert_eq!(to_string(&r.document.root()), want, "{}\n{}", pred, r.stats.plan);
        assert_eq!(r.stats.source_calls, 1, "{}", pred);
    }
}

#[test]
fn pruned_plans_cache_and_replay() {
    let e = engine();
    let q = r#"WHERE <row><total>$t</total></row> IN "orders", $t > 500, $t < 3
               CONSTRUCT <o>$t</o>"#;
    assert_eq!(e.query(q).unwrap().stats.source_calls, 0);
    // The pruned plan is a cached template like any other; replaying it
    // still short-circuits and still calls no source.
    let r = e.query(q).unwrap();
    assert_eq!(r.stats.source_calls, 0);
    assert_eq!(r.document.root().children().count(), 0);
    assert!(e.plan_cache().stats().hits >= 1);
    assert_eq!(e.metrics_snapshot().counter("engine.plan.pruned"), 2);
}

/// The validity stamp `e` looks plans up under right now.
fn current_stamp(e: &Engine) -> crate::plan_cache::PlanStamp {
    crate::plan_cache::PlanStamp {
        config_fp: e.config().optimizer.fingerprint(),
        catalog_epoch: e.catalog().epoch(),
        stats_generation: e.catalog().stats().generation(),
        shard_epoch: e.shard_epoch(),
    }
}

#[test]
fn differential_replan_catches_poisoned_cache_hit() {
    let e = engine();
    // The sampled re-plan is part of plan verification, whose default
    // follows the build profile; the test must not.
    e.set_optimizer(OptimizerConfig {
        verify_plans: true,
        ..OptimizerConfig::default()
    });
    let q = r#"WHERE <bib><book year=$y><title>$t2</title></book></bib> IN "bib", $y > 1000
               CONSTRUCT <b>$t2</b>"#;
    assert_eq!(e.query(q).unwrap().document.root().children().count(), 2);

    // Poison the cache: re-plan the same text, drop the residual
    // predicate, and install the doctored template under the *same*
    // key and stamp — exactly the corruption a stale or buggy cache
    // would serve silently.
    let config = e.config();
    let query = nimble_xmlql::parse_query(q).unwrap();
    let mut plan = crate::planner::plan_query(e.catalog(), &query, &config.optimizer).unwrap();
    plan.residual_predicates.clear();
    let key = nimble_xmlql::QueryShape(&query).to_string();
    e.plan_cache().put(&key, current_stamp(&e), Arc::new(plan));

    // The very first hit is differentially re-planned and the
    // divergence surfaces as a verification error, not a wrong answer.
    let err = e.query(q).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("differential mismatch"), "{}", msg);
    assert_eq!(
        e.metrics_snapshot().counter("engine.plan_cache.differential_mismatch"),
        1
    );
    assert!(e.metrics_snapshot().counter("engine.plan_cache.differential") >= 1);

    // The mismatch self-heals: the fresh plan replaced the poisoned
    // entry, so the next execution answers correctly again.
    assert_eq!(e.query(q).unwrap().document.root().children().count(), 2);
}

#[test]
fn differential_replan_compares_the_bound_plan_with_the_ops_own() {
    // `$i = K` goes to both fragments of the join: one parameter, two
    // sites. A template that has lost one of them binds the new key at
    // crm and leaves the key it was planned with at billing — a plan
    // that matches a fresh plan of the text it was made for, and of no
    // other. The sampled re-plan has to compare what is about to run
    // (the *bound* plan) with a plan of *this* op's text.
    let lookup = |k: i64| {
        format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders", $i = {}
               CONSTRUCT <o><n>$n</n><t>$t</t></o>"#,
            k
        )
    };
    let e = engine();
    e.set_optimizer(OptimizerConfig {
        capability_joins: false,
        verify_plans: true, // whatever the build profile
        ..OptimizerConfig::default()
    });
    let config = e.config();
    let query = nimble_xmlql::parse_query(&lookup(1)).unwrap();
    let mut plan = crate::planner::plan_query(e.catalog(), &query, &config.optimizer).unwrap();
    assert_eq!(plan.param_sites.len(), 2, "{:?}", plan.param_sites);
    plan.param_sites.pop();
    let key = nimble_xmlql::QueryShape(&query).to_string();
    e.plan_cache().put(&key, current_stamp(&e), Arc::new(plan));

    let err = e.query(&lookup(2)).unwrap_err().to_string();
    assert!(err.contains("differential mismatch"), "{}", err);
    assert!(err.contains("Int(1)") && err.contains("Int(2)"), "{}", err);
    // Healed with a whole template: the next keys bind at both sites.
    for (k, name) in [(2, "Globex"), (1, "Acme")] {
        let r = e.query(&lookup(k)).unwrap();
        let xml = to_string(&r.document.root());
        assert!(xml.contains(name), "{}: {}", k, xml);
        assert!(r.stats.plan.contains(&format!("t.cust_id = {}", k)), "{}", r.stats.plan);
    }
}

#[test]
fn every_switch_combination_has_its_own_fingerprint() {
    // Five switches, 32 configurations, 32 fingerprints: no two
    // configurations can share a plan-cache or result-cache entry.
    let mut seen = std::collections::HashSet::new();
    for bits in 0u8..32 {
        let on = |i: u8| bits & (1 << i) != 0;
        let config = OptimizerConfig {
            pushdown: on(0),
            capability_joins: on(1),
            prune_unsat: on(2),
            verify_plans: on(3),
            track_lineage: on(4),
        };
        assert!(seen.insert(config.fingerprint()), "collision at {:?}", config);
    }
    assert_eq!(seen.len(), 32);
}

/// Feed with a third book whose publisher matches no CRM customer —
/// its answer must carry feed-only lineage.
fn bib3() -> Arc<XmlDocAdapter> {
    Arc::new(
        XmlDocAdapter::new("feeds")
            .add_xml(
                "bib",
                "<bib>\
                 <book><title>Integration</title><publisher>Globex</publisher></book>\
                 <book><title>Web Data</title><publisher>Acme</publisher></book>\
                 <book><title>Zines</title><publisher>Nonesuch</publisher></book>\
                 </bib>",
            )
            .unwrap(),
    )
}

fn lineage_on() -> OptimizerConfig {
    OptimizerConfig {
        track_lineage: true,
        ..OptimizerConfig::default()
    }
}

/// Sorted, deduplicated contributing-source names of answer `i`.
fn why_names(r: &crate::engine::QueryResult, i: usize) -> Vec<String> {
    let mut v: Vec<String> = r
        .why(i)
        .expect("lineage tracking was on")
        .iter()
        .map(|s| s.name.clone())
        .collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn lineage_attributes_join_answers_to_sources() {
    let e = engine();
    e.set_optimizer(lineage_on());
    let r = e
        .query(
            r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                     <row><name>$n</name><region>$reg</region></row> IN "customers"
               CONSTRUCT <hit><t>$t</t><r>$reg</r></hit> ORDER-BY $t"#,
        )
        .unwrap();
    let prov = r.provenance.as_ref().expect("tracking on => provenance");
    assert_eq!(prov.answers.len(), 2);
    // Every join answer derives from exactly both sources.
    assert_eq!(why_names(&r, 0), vec!["crm", "feeds"]);
    assert_eq!(why_names(&r, 1), vec!["crm", "feeds"]);
    assert!(prov.missing.is_empty());
    assert!(prov.stale_answers().is_empty());
    let contrib = prov.contributions();
    assert!(contrib.iter().any(|(n, c)| n == "crm" && *c == 2), "{:?}", contrib);
    assert!(contrib.iter().any(|(n, c)| n == "feeds" && *c == 2), "{:?}", contrib);
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter("engine.provenance.tracked"), 1);
    assert_eq!(snap.counter("engine.provenance.answers"), 2);
    assert_eq!(snap.counter("engine.provenance.source_answers.crm"), 2);
    assert_eq!(snap.counter("engine.provenance.source_answers.feeds"), 2);
}

#[test]
fn lineage_distinguishes_answers_within_one_result() {
    let c = Catalog::new();
    c.register_source(crm()).unwrap();
    c.register_source(bib3()).unwrap();
    let e = Engine::new(Arc::new(c));
    e.set_optimizer(lineage_on());
    let r = e
        .query(
            r#"WHERE <bib><book><title>$t</title><publisher>$p</publisher></book></bib> IN "bib"
               CONSTRUCT <hit><t>$t</t>
                   WHERE <row><name>$p</name><region>$reg</region></row> IN "customers"
                   CONSTRUCT <reg>$reg</reg>
               </hit> ORDER-BY $t"#,
        )
        .unwrap();
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <hit><t>Integration</t><reg>SW</reg></hit>\
         <hit><t>Web Data</t><reg>NW</reg></hit>\
         <hit><t>Zines</t></hit>\
         </results>"
    );
    // The matched books drew on both sources; the unmatched one
    // contains no CRM data and must say so.
    assert_eq!(why_names(&r, 0), vec!["crm", "feeds"]);
    assert_eq!(why_names(&r, 1), vec!["crm", "feeds"]);
    assert_eq!(why_names(&r, 2), vec!["feeds"]);
}

#[test]
fn lineage_off_is_differentially_identical() {
    let queries = [
        r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                 <row><name>$n</name><region>$r</region></row> IN "customers"
           CONSTRUCT <hit><t>$t</t><r>$r</r></hit> ORDER-BY $t"#,
        r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <cust ID=C($c)><id>$c</id><orders>count()</orders>
                     <spend>sum($t)</spend></cust>"#,
        r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                 <title>$t</title> IN $b
           CONSTRUCT <entry><t>$t</t>
               WHERE <publisher>$p</publisher> IN $b
               CONSTRUCT <pub>$p</pub>
           </entry> ORDER-BY $t"#,
    ];
    for q in queries {
        let e_on = engine();
        e_on.set_optimizer(lineage_on());
        let e_off = engine();
        let on = e_on.query(q).unwrap();
        let off = e_off.query(q).unwrap();
        assert_eq!(
            to_string(&on.document.root()),
            to_string(&off.document.root()),
            "lineage on/off disagree for {}",
            q
        );
        assert_eq!(on.stats.source_calls, off.stats.source_calls, "extra calls for {}", q);
        assert!(on.provenance.is_some());
        assert!(off.provenance.is_none());
    }
}

#[test]
fn stale_fallback_marks_affected_answers_through_join() {
    let c = Catalog::new();
    let link = SimulatedLink::new(crm(), LinkConfig::default());
    c.register_source(link.clone() as Arc<dyn SourceAdapter>)
        .unwrap();
    c.register_source(bib_xml()).unwrap();
    let e = Engine::new(Arc::new(c));
    e.set_optimizer(lineage_on());
    e.set_unavailable_policy(UnavailablePolicy::StaleCache);
    let join = r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                        <row><name>$n</name><region>$r</region></row> IN "customers"
                  CONSTRUCT <hit><t>$t</t><r>$r</r></hit> ORDER-BY $t"#;

    // Warm the fragment cache while the source is up.
    let warm = e.query(join).unwrap();
    assert!(warm.complete && !warm.stale);
    assert!(warm.provenance.as_ref().unwrap().stale_answers().is_empty());

    link.set_up(false);
    let r = e.query(join).unwrap();
    assert!(r.complete && r.stale);
    let prov = r.provenance.as_ref().unwrap();
    assert_eq!(prov.answers.len(), 2);
    // Both join answers flow from the stale-served CRM fragment…
    assert_eq!(prov.stale_answers(), vec![0, 1]);
    let units = r.why(0).unwrap();
    let crm_unit = units.iter().find(|s| s.name == "crm").unwrap();
    assert!(crm_unit.stale);
    assert!(crm_unit.cache_age_ms.is_some());
    let feed_unit = units.iter().find(|s| s.name == "feeds").unwrap();
    assert!(!feed_unit.stale);

    // …while a feed-only query stays entirely fresh.
    let r2 = e
        .query(r#"WHERE <bib><book><title>$t</title></book></bib> IN "bib" CONSTRUCT <t>$t</t>"#)
        .unwrap();
    assert!(!r2.stale);
    assert!(r2.provenance.as_ref().unwrap().stale_answers().is_empty());
    assert_eq!(e.metrics_snapshot().counter("engine.provenance.stale_answers"), 2);
}

#[test]
fn missing_sources_are_sorted_and_deduplicated() {
    let c = Catalog::new();
    let crm_link = SimulatedLink::new(crm(), LinkConfig::default());
    let bib_link = SimulatedLink::new(bib_xml(), LinkConfig::default());
    crm_link.set_up(false);
    bib_link.set_up(false);
    c.register_source(bib_link as Arc<dyn SourceAdapter>).unwrap();
    c.register_source(crm_link as Arc<dyn SourceAdapter>).unwrap();
    let e = Engine::new(Arc::new(c));
    e.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    // Pushdown off: customers and orders are fetched separately, so the
    // crm source fails twice — the report must still name it once.
    e.set_optimizer(OptimizerConfig {
        pushdown: false,
        track_lineage: true,
        ..OptimizerConfig::default()
    });
    let r = e
        .query(
            r#"WHERE <bib><book><publisher>$n</publisher></book></bib> IN "bib",
                     <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$tot</total></row> IN "orders"
               CONSTRUCT <x>$n</x>"#,
        )
        .unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["crm", "feeds"]);
    let prov = r.provenance.as_ref().unwrap();
    assert_eq!(prov.missing, r.missing_sources);
    assert!(prov.answers.is_empty());
    // Skipped units still appear in the table, flagged as missing.
    assert!(prov
        .sources
        .iter()
        .all(|s| s.detail.starts_with("missing:")));
}

#[test]
fn explain_analyze_annotates_source_sets_when_tracking() {
    let e = engine();
    e.set_optimizer(lineage_on());
    let q = r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                     <row><name>$n</name><region>$r</region></row> IN "customers"
               CONSTRUCT <hit>$t</hit>"#;
    let analyzed = e.explain_analyze(q).unwrap();
    assert!(analyzed.contains("[src="), "{}", analyzed);
    // Off: no lineage annotations anywhere in the plan.
    let e2 = engine();
    let plain = e2.explain_analyze(q).unwrap();
    assert!(!plain.contains("[src="), "{}", plain);
}

#[test]
fn track_lineage_changes_the_config_fingerprint() {
    assert_ne!(
        lineage_on().fingerprint(),
        OptimizerConfig::default().fingerprint()
    );
}

#[test]
fn prune_on_and_off_agree_on_satisfiable_queries() {
    // The analyzer's verdicts must agree with execution: for a mix of
    // satisfiable and unsatisfiable predicates, pruning on and off
    // produce byte-identical documents.
    let queries = [
        r#"WHERE <row><total>$t</total></row> IN "orders", $t > 100 CONSTRUCT <o>$t</o> ORDER-BY $t"#,
        r#"WHERE <row><total>$t</total></row> IN "orders", $t > 100, $t < 50 CONSTRUCT <o>$t</o>"#,
        r#"WHERE <row><name>$n</name></row> IN "customers", $n LIKE "A%" CONSTRUCT <c>$n</c>"#,
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 $t > 1000000 CONSTRUCT <o>$n</o>"#,
    ];
    for q in queries {
        let e_on = engine();
        let e_off = engine();
        e_off.set_optimizer(OptimizerConfig {
            prune_unsat: false,
            ..OptimizerConfig::default()
        });
        let on = e_on.query(q).unwrap();
        let off = e_off.query(q).unwrap();
        assert_eq!(
            to_string(&on.document.root()),
            to_string(&off.document.root()),
            "prune-on and prune-off disagree for {}",
            q
        );
    }
}

#[test]
fn streamed_serialization_matches_tree_for_every_template_shape() {
    // `query_serialized` streams CONSTRUCT output through an XmlWriter
    // without building the result tree; the paper-visible contract is
    // byte-identity with tree construction + `to_string`, for every
    // template shape: flat, ordered join,
    // Skolem-grouped with duplicate elimination, Skolem-grouped with
    // aggregates, and (via the tree fallback) nested subqueries.
    let queries = [
        r#"WHERE <row><name>$n</name><region>"NW"</region></row> IN "customers"
           CONSTRUCT <c>$n</c> ORDER-BY $n"#,
        r#"WHERE <bib><book><publisher>$n</publisher><title>$t</title></book></bib> IN "bib",
                 <row><name>$n</name><region>$r</region></row> IN "customers"
           CONSTRUCT <hit><t>$t</t><r>$r</r></hit> ORDER-BY $t"#,
        r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <cust ID=ByCustomer($c)><id>$c</id><order>$t</order></cust>"#,
        r#"WHERE <row><cust_id>$c</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <cust ID=C($c)><id>$c</id><orders>count()</orders>
                     <spend>sum($t)</spend></cust>"#,
        r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                 <title>$t</title> IN $b
           CONSTRUCT <entry><t>$t</t>
               WHERE <publisher>$p</publisher> IN $b
               CONSTRUCT <pub>$p</pub>
           </entry> ORDER-BY $t"#,
    ];
    let e = engine();
    for q in queries {
        let streamed = e.query_serialized(q).unwrap();
        let tree = to_string(&e.query(q).unwrap().document.root());
        assert_eq!(streamed, tree, "streamed/tree disagree for {}", q);
    }
}

#[test]
fn streamed_serialization_reports_its_path() {
    let e = engine();
    // A small result streams like any other.
    e.query_serialized(
        r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#,
    )
    .unwrap();
    // A nested-subquery template cannot stream (the inner query appends
    // into a builder); it must take the tree fallback, not error.
    e.query_serialized(
        r#"WHERE <bib><book/> ELEMENT_AS $b</bib> IN "bib",
                 <title>$t</title> IN $b
           CONSTRUCT <entry><t>$t</t>
               WHERE <publisher>$p</publisher> IN $b
               CONSTRUCT <pub>$p</pub>
           </entry>"#,
    )
    .unwrap();
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter("engine.construct.streamed"), 1);
    assert_eq!(snap.counter("engine.construct.tree_fallback"), 1);
}

#[test]
fn streamed_serialization_engages_above_the_threshold() {
    // 3000 rows stream, as every answer without a subquery does, and
    // agree byte-for-byte with the tree path.
    let mut xml = String::from("<items>");
    for i in 0..3000 {
        xml.push_str(&format!("<item><id>{}</id></item>", i));
    }
    xml.push_str("</items>");
    let c = Catalog::new();
    c.register_source(Arc::new(
        XmlDocAdapter::new("big").add_xml("items", &xml).unwrap(),
    ))
    .unwrap();
    let e = Engine::new(Arc::new(c));
    let q = r#"WHERE <item><id>$i</id></item> IN "items" CONSTRUCT <v>$i</v>"#;
    let streamed = e.query_serialized(q).unwrap();
    let tree = to_string(&e.query(q).unwrap().document.root());
    assert_eq!(streamed, tree);
    assert_eq!(e.metrics_snapshot().counter("engine.construct.streamed"), 1);
}
