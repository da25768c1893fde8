//! Federation correctness: heterogeneous sources answer the same
//! queries identically regardless of optimizer choices, and the four
//! adapter kinds interoperate.

use nimble::core::{Catalog, Engine, EngineConfig, OptimizerConfig, ShardSpec, ShardedCluster};
use nimble::sources::csv::CsvAdapter;
use nimble::sources::hierarchical::{HierarchicalAdapter, Segment};
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::SourceAdapter;
use nimble::xml::{to_string, Atomic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;

use common::Counting;

fn four_source_catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements(
            "erp",
            &[
                "CREATE TABLE products (sku INT, pname TEXT, price FLOAT)",
                "INSERT INTO products VALUES \
                 (100, 'widget', 9.5), (200, 'gadget', 120.0), (300, 'gizmo', 45.0)",
            ],
        )
        .unwrap(),
    ))
    .unwrap();
    c.register_source(Arc::new(HierarchicalAdapter::new(
        "warehouse",
        vec![
            Segment::new("site", vec![("city", "Seattle".into())]).with_children(vec![
                Segment::new("bin", vec![("sku", Atomic::Int(100)), ("qty", Atomic::Int(7))]),
                Segment::new("bin", vec![("sku", Atomic::Int(200)), ("qty", Atomic::Int(0))]),
            ]),
            Segment::new("site", vec![("city", "Reno".into())]).with_children(vec![
                Segment::new("bin", vec![("sku", Atomic::Int(300)), ("qty", Atomic::Int(2))]),
            ]),
        ],
    )))
    .unwrap();
    c.register_source(Arc::new(
        CsvAdapter::new("pricing")
            .add_csv("discounts", "sku,pct\n100,10\n300,25\n")
            .unwrap(),
    ))
    .unwrap();
    c.register_source(Arc::new(
        XmlDocAdapter::new("reviews")
            .add_xml(
                "feed",
                "<feed>\
                 <review sku='100'><stars>5</stars></review>\
                 <review sku='100'><stars>3</stars></review>\
                 <review sku='300'><stars>4</stars></review>\
                 </feed>",
            )
            .unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

const FOUR_WAY_QUERY: &str = r#"
    WHERE <row><sku>$s</sku><pname>$p</pname><price>$pr</price></row> IN "products",
          <row><sku>$s</sku><qty>$q</qty></row> IN "bin",
          <row><sku>$s</sku><pct>$d</pct></row> IN "discounts",
          <feed><review sku=$s><stars>$st</stars></review></feed> IN "feed",
          $q > 0
    CONSTRUCT <offer><name>$p</name><stars>$st</stars><discount>$d</discount></offer>
    ORDER-BY $p, $st
"#;

#[test]
fn four_kinds_of_sources_join() {
    let engine = Engine::new(four_source_catalog());
    let r = engine.query(FOUR_WAY_QUERY).unwrap();
    assert!(r.complete);
    assert_eq!(
        to_string(&r.document.root()),
        "<results>\
         <offer><name>gizmo</name><stars>4</stars><discount>25</discount></offer>\
         <offer><name>widget</name><stars>3</stars><discount>10</discount></offer>\
         <offer><name>widget</name><stars>5</stars><discount>10</discount></offer>\
         </results>"
    );
}

#[test]
fn optimizer_choices_never_change_answers() {
    let configs = [(true, true), (false, false), (true, false), (false, true)].map(
        |(pushdown, capability_joins)| OptimizerConfig {
            pushdown,
            capability_joins,
            ..OptimizerConfig::default()
        },
    );
    let engine = Engine::new(four_source_catalog());
    let mut outputs = Vec::new();
    for config in configs {
        engine.set_optimizer(config);
        let r = engine.query(FOUR_WAY_QUERY).unwrap();
        outputs.push(to_string(&r.document.root()));
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn ambiguous_collections_require_qualification() {
    // Both erp and pricing could plausibly export a same-named
    // collection; build that conflict explicitly.
    let c = Catalog::new();
    c.register_source(Arc::new(
        CsvAdapter::new("a").add_csv("items", "id\n1\n").unwrap(),
    ))
    .unwrap();
    c.register_source(Arc::new(
        CsvAdapter::new("b").add_csv("items", "id\n2\n").unwrap(),
    ))
    .unwrap();
    let engine = Engine::new(Arc::new(c));
    let err = engine
        .query(r#"WHERE <row><id>$i</id></row> IN "items" CONSTRUCT <o>$i</o>"#)
        .unwrap_err();
    assert!(err.to_string().contains("several sources"), "{}", err);
    // Qualified names disambiguate.
    let r = engine
        .query(r#"WHERE <row><id>$i</id></row> IN "b.items" CONSTRUCT <o>$i</o>"#)
        .unwrap();
    assert_eq!(r.document.root().child("o").unwrap().text(), "2");
}

#[test]
fn recursion_and_navigation_over_legacy_tree() {
    // The hierarchical adapter's whole-tree export supports the XML
    // features the paper names: recursion (part+) and navigation.
    let c = Catalog::new();
    c.register_source(Arc::new(HierarchicalAdapter::new(
        "bom",
        vec![Segment::new("part", vec![("pid", Atomic::Int(1))]).with_children(vec![
            Segment::new("part", vec![("pid", Atomic::Int(2))]).with_children(vec![
                Segment::new("part", vec![("pid", Atomic::Int(3))]),
            ]),
            Segment::new("part", vec![("pid", Atomic::Int(4))]),
        ])],
    )))
    .unwrap();
    let engine = Engine::new(Arc::new(c));
    let r = engine
        .query(
            r#"WHERE <part+><pid>$p</pid></> IN "bom._tree"
               CONSTRUCT <p>$p</p> ORDER-BY $p"#,
        )
        .unwrap();
    // part+ reaches every nesting level.
    assert_eq!(
        to_string(&r.document.root()),
        "<results><p>1</p><p>2</p><p>3</p><p>4</p></results>"
    );
}

#[test]
fn document_order_is_preserved_without_order_by() {
    let c = Catalog::new();
    c.register_source(Arc::new(
        XmlDocAdapter::new("docs")
            .add_xml("seq", "<seq><i>3</i><i>1</i><i>2</i></seq>")
            .unwrap(),
    ))
    .unwrap();
    let engine = Engine::new(Arc::new(c));
    let r = engine
        .query(r#"WHERE <seq><i>$v</i></seq> IN "seq" CONSTRUCT <o>$v</o>"#)
        .unwrap();
    // No ORDER-BY → XML document order, not value order.
    assert_eq!(
        to_string(&r.document.root()),
        "<results><o>3</o><o>1</o><o>2</o></results>"
    );
}

#[test]
fn lookup_join_ships_the_matching_rows_not_the_table() {
    // 200 customers in `crm`, three orders for each of the first 80 in
    // `billing`, joined on `$i` with `$i = K`: `$i` is customers.id
    // *and* orders.cust_id, so both sources get the selection.
    let mut crm = vec!["CREATE TABLE customers (id INT, name TEXT)".to_string()];
    let mut billing = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
    for i in 0..200 {
        crm.push(format!("INSERT INTO customers VALUES ({}, 'c{}')", i, i));
        for j in 0..(if i < 80 { 3 } else { 0 }) {
            billing.push(format!("INSERT INTO orders VALUES ({}, {})", 3 * i + j, i));
        }
    }
    let calls = Arc::new(AtomicU64::new(0));
    let nodes = Arc::new(AtomicU64::new(0));
    let c = Catalog::new();
    for (name, stmts) in [("crm", &crm), ("billing", &billing)] {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        c.register_source(Arc::new(Counting {
            inner: Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap()),
            calls: Arc::clone(&calls),
            nodes: Arc::clone(&nodes),
        }))
        .unwrap();
    }
    let engine = Engine::new(Arc::new(c));
    let lookup = |k: i64| {
        format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders", $i = {}
               CONSTRUCT <o><n>$n</n><k>$o</k></o>"#,
            k
        )
    };
    // Registration sampled both tables; count the query alone.
    let charged = |text: &str| {
        let before = (calls.load(Ordering::Relaxed), nodes.load(Ordering::Relaxed));
        let r = engine.query(text).unwrap();
        (
            to_string(&r.document.root()),
            calls.load(Ordering::Relaxed) - before.0,
            nodes.load(Ordering::Relaxed) - before.1,
        )
    };

    let (answer, q_calls, q_nodes) = charged(&lookup(42));
    assert_eq!(
        answer,
        "<results><o><n>c42</n><k>126</k></o><o><n>c42</n><k>127</k></o>\
         <o><n>c42</n><k>128</k></o></results>"
    );
    // One call per source; <rows> + one 5-node <row> from crm, <rows> +
    // three 5-node <row>s from billing — not the 240-row table.
    assert_eq!((q_calls, q_nodes), (2, 6 + 16));
    let plan = engine.query(&lookup(42)).unwrap().stats.plan;
    assert!(
        plan.contains("FROM customers t WHERE t.id = 42"),
        "{}",
        plan
    );
    assert!(
        plan.contains("FROM orders t WHERE t.cust_id = 42"),
        "{}",
        plan
    );
    assert_eq!(plan.matches("predicate pushed to").count(), 2, "{}", plan);

    // `$i = K` is an equality parameter: the plan made for 42 is cached
    // for the shape and served with each later key — plan-cache hits that
    // ship their own key's SQL, not the SQL the shape was planned with.
    let hits = engine.plan_cache().stats().hits;
    let (next, q_calls, q_nodes) = charged(&lookup(43));
    assert_eq!(
        next,
        "<results><o><n>c43</n><k>129</k></o><o><n>c43</n><k>130</k></o>\
         <o><n>c43</n><k>131</k></o></results>"
    );
    assert_eq!((q_calls, q_nodes), (2, 6 + 16));
    let plan = engine.query(&lookup(43)).unwrap().stats.plan;
    assert!(
        plan.starts_with("-- plan: cached shape, 1 parameters bound\n"),
        "{}",
        plan
    );
    assert!(
        plan.contains("FROM customers t WHERE t.id = 43")
            && plan.contains("FROM orders t WHERE t.cust_id = 43")
            && !plan.contains("= 42"),
        "{}",
        plan
    );
    // The verdict is asked of each serve's key: 150 lies outside
    // orders.cust_id's bounds (see below) and contacts no source.
    let (empty, q_calls, _) = charged(&lookup(150));
    assert_eq!((empty.as_str(), q_calls), ("<results/>", 0));
    assert_eq!(engine.plan_cache().stats().hits - hits, 3);

    // Without pushdown the same query ships both tables and constructs
    // the same document.
    engine.set_optimizer(OptimizerConfig {
        pushdown: false,
        ..OptimizerConfig::default()
    });
    let (central, _, central_nodes) = charged(&lookup(42));
    assert_eq!(central, answer);
    assert!(central_nodes > 2000, "{}", central_nodes);
    engine.set_optimizer(OptimizerConfig::default());

    // Both tables were sampled exhaustively, so their min/max are exact
    // bounds. 150 is a customer id but lies outside orders.cust_id's
    // [0, 79]: billing's copy proves the join empty and neither source
    // is contacted.
    let (empty, q_calls, _) = charged(&lookup(150));
    assert_eq!(empty, "<results/>");
    assert_eq!(q_calls, 0);
}

#[test]
fn bind_stage_ships_the_rows_the_small_side_can_join() {
    // 20 tickets in a CSV file, 400 customers in `crm`, three orders a
    // customer in `billing`. The tickets are fetched first; the two
    // tables are asked for the ticketed customers only — and `billing`,
    // a file gateway here, filters its rows with the same key list.
    let mut crm = vec!["CREATE TABLE customers (id INT, name TEXT)".to_string()];
    let mut orders = String::from("oid,cust_id,total\n");
    for i in 0..400 {
        crm.push(format!("INSERT INTO customers VALUES ({}, 'c{}')", i, i));
        for j in 0..3 {
            orders.push_str(&format!("{},{},{}\n", 3 * i + j, i, (i * 7 + j * 131) % 500));
        }
    }
    let mut tickets = String::from("tid,cust_id,severity\n");
    for t in 0..20 {
        tickets.push_str(&format!("{},{},{}\n", t, 19 * t + 3, t % 3 + 1));
    }
    let crm_refs: Vec<&str> = crm.iter().map(String::as_str).collect();
    let sources: [Arc<dyn SourceAdapter>; 3] = [
        Arc::new(RelationalAdapter::from_statements("crm", &crm_refs).unwrap()),
        Arc::new(CsvAdapter::new("billing").add_csv("orders", &orders).unwrap()),
        Arc::new(CsvAdapter::new("support").add_csv("tickets", &tickets).unwrap()),
    ];
    let c = Catalog::new();
    let mut counters = Vec::new();
    for inner in sources {
        let (calls, nodes) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        counters.push((Arc::clone(&calls), Arc::clone(&nodes)));
        c.register_source(Arc::new(Counting { inner, calls, nodes })).unwrap();
    }
    let engine = Engine::new(Arc::new(c));
    let text = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                        <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                        <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
                        $sev > 1
                  CONSTRUCT <o><n>$n</n><k>$o</k></o> ORDER-BY $o"#;
    let read = |k: usize| {
        (
            counters[k].0.load(Ordering::Relaxed),
            counters[k].1.load(Ordering::Relaxed),
        )
    };
    let before = [read(0), read(1), read(2)];
    let r = engine.query(text).unwrap();
    let charged = |k: usize| (read(k).0 - before[k].0, read(k).1 - before[k].1);
    // 13 tickets of severity 2 or 3, 13 distinct customers.
    let keys = 13;
    assert_eq!(r.stats.tuples, keys * 3);
    assert!(r.stats.plan.contains("bind $i: support \u{2192} billing, crm (~13 keys)"), "{}", r.stats.plan);
    assert!(r.stats.plan.contains("bind $i: 13 keys sent (est ~13)"), "{}", r.stats.plan);
    // One call a source. A row costs one node, plus two a field.
    assert_eq!(charged(2), (1, 1 + 13 * 5));
    assert_eq!(charged(0), (1, 1 + keys as u64 * 5));
    assert_eq!(charged(1), (1, 1 + keys as u64 * 3 * 7));

    // The same document as the oracle, which ships all 1 620 rows.
    engine.set_optimizer(OptimizerConfig {
        pushdown: false,
        ..OptimizerConfig::default()
    });
    let central = engine.query(text).unwrap();
    assert_eq!(to_string(&central.document.root()), to_string(&r.document.root()));
}

#[test]
fn a_plan_that_fails_its_rewrite_audit_calls_no_source() {
    // A two-source join with `$i = K` pushed to both: its plan carries a
    // `pushdown` rewrite record. Doctored so that the rewrite claims to
    // change the columns of an order-preserving rewrite, the plan fails
    // the audit — and is refused before any source is called, however
    // it reaches the engine.
    let calls = Arc::new(AtomicU64::new(0));
    let c = Catalog::new();
    // Ten more orders of customer 2: unfiltered, the orders are the
    // larger side of the join by more than four times.
    let more: Vec<String> = (0..10).map(|k| format!("({}, 2)", 20 + k)).collect();
    let more = format!("INSERT INTO orders VALUES {}", more.join(", "));
    for (name, ddl, rows) in [
        ("crm", "CREATE TABLE customers (id INT, name TEXT)", vec!["INSERT INTO customers VALUES (1, 'a'), (2, 'b')"]),
        ("billing", "CREATE TABLE orders (oid INT, cust_id INT)", vec!["INSERT INTO orders VALUES (10, 1), (11, 2)", &more]),
    ] {
        let stmts: Vec<&str> = [ddl].into_iter().chain(rows).collect();
        c.register_source(Arc::new(Counting {
            inner: Arc::new(RelationalAdapter::from_statements(name, &stmts).unwrap()),
            calls: Arc::clone(&calls),
            nodes: Arc::new(AtomicU64::new(0)),
        }))
        .unwrap();
    }
    let engine = Engine::new(Arc::new(c));
    let planned = |text: &str| {
        let query = nimble::xmlql::parse_query(text).unwrap();
        let key = nimble::xmlql::lex_keyed(text).unwrap().key.into_owned();
        let plan =
            nimble::core::planner::plan_query(engine.catalog(), &query, &engine.config().optimizer).unwrap();
        (query, key, plan)
    };
    let refused = |result: Result<nimble::core::QueryResult, nimble::core::CoreError>| match result {
        Err(nimble::core::CoreError::PlanVerify(msg)) => assert!(msg.contains("rewrite audit failed"), "{}", msg),
        Err(other) => panic!("{}", other),
        Ok(r) => panic!("served: {}", to_string(&r.document.root())),
    };
    // Refused handed to `query_planned`, and installed in the plan cache
    // under the text's key, at its first hit.
    let refused_everywhere = |text: &str, query, key: String, plan: nimble::core::planner::Plan| {
        let before = calls.load(Ordering::Relaxed);
        refused(engine.query_planned(text, plan.clone()));
        assert_eq!(calls.load(Ordering::Relaxed) - before, 0);

        engine.plan_cache().clear();
        let stamp = nimble::core::PlanStamp {
            config_fp: engine.config().optimizer.fingerprint(),
            catalog_epoch: engine.catalog().epoch(),
            stats_generation: engine.catalog().stats().generation(),
            shard_epoch: engine.shard_runtime().map_or(0, |rt| rt.epoch()),
        };
        engine.plan_cache().put(&key, stamp, Arc::new(nimble::core::Prepared::new(plan, query)));
        let hits = engine.plan_cache().stats().hits;
        let before = calls.load(Ordering::Relaxed);
        refused(engine.query(text));
        assert_eq!(engine.plan_cache().stats().hits, hits + 1);
        assert_eq!(calls.load(Ordering::Relaxed) - before, 0);
    };

    let text = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders", $i = 1
               CONSTRUCT <o><n>$n</n><k>$o</k></o>"#;
    let (query, key, mut plan) = planned(text);
    assert_eq!(plan.independents.len(), 2);
    let pushdown = plan.rewrites.iter_mut().find(|r| r.rule == "pushdown").unwrap();
    assert!(pushdown.ordered);
    pushdown.after.columns = vec!["$i".to_string()];
    assert_ne!(pushdown.before.columns, pushdown.after.columns);
    refused_everywhere(text, query, key, plan);

    // The engine's own plan of the text passes and answers.
    engine.plan_cache().clear();
    let before = calls.load(Ordering::Relaxed);
    let r = engine.query(text).unwrap();
    assert_eq!(to_string(&r.document.root()), "<results><o><n>a</n><k>10</k></o></results>");
    assert_eq!(calls.load(Ordering::Relaxed) - before, 2);

    // Unfiltered, the fold builds on the two customers and streams the
    // twelve orders: the planner's `build-side-swap` record, doctored to
    // lose its join key, is refused alike.
    let text = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                     <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders"
               CONSTRUCT <o><n>$n</n><k>$o</k></o>"#;
    let (query, key, mut plan) = planned(text);
    assert!(plan.swaps.contains(&true), "{:?}", plan.swaps);
    let swap = plan.rewrites.iter_mut().find(|r| r.rule == "build-side-swap").unwrap();
    assert_eq!(swap.after.keys, ["i"]);
    swap.after.keys.clear();
    refused_everywhere(text, query, key, plan);
    engine.plan_cache().clear();
    let before = calls.load(Ordering::Relaxed);
    assert_eq!(engine.query(text).unwrap().stats.tuples, 12);
    assert_eq!(calls.load(Ordering::Relaxed) - before, 2);
}

// ---- the mixed-class oracle: a source is sent only what it reads the
// way the mediator does (DESIGN.md §23) ----

/// A row of `t (k, s TEXT, b INT, f FLOAT)`; `None` is NULL.
type MixedRow = (i64, Option<&'static str>, Option<i64>, Option<f64>);

/// Text that reads as a number in several spellings, plain and empty
/// text, NULLs, integers at 2^53, and the float zeros.
const MIXED: [MixedRow; 9] = [
    (1, Some("2"), Some(2), Some(2.0)),
    (2, Some(" 2 "), Some(9_007_199_254_740_992), Some(-0.0)),
    (3, Some("2.0"), Some(9_007_199_254_740_993), Some(0.0)),
    (4, Some("x"), Some(-1), Some(2.5)),
    (5, Some(""), Some(0), None),
    (6, None, None, Some(9_007_199_254_740_992.0)),
    (7, Some("-0"), Some(3), Some(-1.5)),
    (8, Some("+2"), None, Some(2.0)),
    (9, Some("true"), Some(2), None),
];

/// The mixed table behind each adapter kind, as collection `t_<kind>`.
fn mixed_catalog() -> Arc<Catalog> {
    let sql = |v: Option<String>| v.unwrap_or_else(|| "NULL".to_string());
    let mut ddl = vec!["CREATE TABLE t_rel (k INT, s TEXT, b INT, f FLOAT)".to_string()];
    let mut csv = String::from("k,s,b,f\n");
    let mut segments = Vec::new();
    let mut xml = String::from("<t>");
    for (k, s, b, f) in MIXED {
        ddl.push(format!(
            "INSERT INTO t_rel VALUES ({}, {}, {}, {})",
            k,
            sql(s.map(|s| format!("'{}'", s))),
            sql(b.map(|b| b.to_string())),
            sql(f.map(nimble::xml::atomic::float_literal)),
        ));
        let cell = |v: Option<String>| v.map_or(String::new(), |v| format!("\"{}\"", v));
        csv.push_str(&format!(
            "{},{},{},{}\n",
            k,
            cell(s.map(str::to_string)),
            cell(b.map(|b| b.to_string())),
            cell(f.map(nimble::xml::atomic::float_literal))
        ));
        let atom = |v: Option<Atomic>| v.unwrap_or(Atomic::Null);
        segments.push(Segment::new(
            "t_ims",
            vec![
                ("k", Atomic::Int(k)),
                ("s", atom(s.map(Atomic::from))),
                ("b", atom(b.map(Atomic::Int))),
                ("f", atom(f.map(Atomic::Float))),
            ],
        ));
        let elem = |name: &str, v: Option<String>| v.map_or(format!("<{}/>", name), |v| format!("<{0}>{1}</{0}>", name, v));
        xml.push_str(&format!(
            "<row><k>{}</k>{}{}{}</row>",
            k,
            elem("s", s.map(str::to_string)),
            elem("b", b.map(|b| b.to_string())),
            elem("f", f.map(nimble::xml::atomic::float_literal))
        ));
    }
    xml.push_str("</t>");
    let ddl: Vec<&str> = ddl.iter().map(String::as_str).collect();
    let c = Catalog::new();
    let sources: [Arc<dyn SourceAdapter>; 4] = [
        Arc::new(RelationalAdapter::from_statements("rel", &ddl).unwrap()),
        Arc::new(CsvAdapter::new("csv").add_csv("t_csv", &csv).unwrap()),
        Arc::new(HierarchicalAdapter::new("ims", segments)),
        Arc::new(XmlDocAdapter::new("xml").add_xml("t_xml", &xml).unwrap()),
    ];
    for s in sources {
        c.register_source(s).unwrap();
    }
    Arc::new(c)
}

/// The pattern that reads `t_<kind>`'s four fields.
fn mixed_pattern(kind: &str) -> String {
    let row = "<row><k>$k</k><s>$s</s><b>$b</b><f>$f</f></row>";
    match kind {
        "xml" => format!(r#"<t>{}</t> IN "t_xml""#, row),
        kind => format!(r#"{} IN "t_{}""#, row, kind),
    }
}

/// The answer as a sorted bag of its children, or the error.
fn bag(engine: &Engine, text: &str) -> Result<Vec<String>, String> {
    let r = engine.query(text).map_err(|e| e.to_string())?;
    let mut rows: Vec<String> = r.document.root().children().map(|n| to_string(&n)).collect();
    rows.sort();
    Ok(rows)
}

/// The answer of `text` under each value of one optimizer switch, when
/// they differ.
fn diverges(engine: &Engine, text: &str, switch: impl Fn(bool) -> OptimizerConfig) -> Option<String> {
    engine.set_optimizer(switch(true));
    let on = bag(engine, text);
    engine.set_optimizer(switch(false));
    let off = bag(engine, text);
    (on != off).then(|| format!("{}\n  on:  {:?}\n  off: {:?}", text, on, off))
}

fn pushdown(on: bool) -> OptimizerConfig {
    OptimizerConfig {
        pushdown: on,
        ..OptimizerConfig::default()
    }
}

fn capability_joins(on: bool) -> OptimizerConfig {
    OptimizerConfig {
        capability_joins: on,
        ..OptimizerConfig::default()
    }
}

/// Seventeen predicate forms over the mixed table, the rows of the
/// before/after table in EXPERIMENTS.md (E36).
const FORMS: [&str; 17] = [
    "$s = 2",
    r#"$s = "2""#,
    r#"$s = "x""#,
    r#"$s != "x""#,
    r#"$s < "x""#,
    "$s > 1",
    r#"$s LIKE "2%""#,
    r#"$s = """#,
    "$b = 9007199254740992",
    "$b = 9007199254740993",
    r#"$b = "2""#,
    "$b > 2.5",
    "$b != 2",
    "$f = 2",
    r#"$f = "2""#,
    "$f < 0",
    r#"$f LIKE "2%""#,
];

#[test]
fn pushdown_keeps_the_answer_of_every_mixed_class_form() {
    let engine = Engine::new(mixed_catalog());
    let mut table = Vec::new();
    for kind in ["rel", "csv", "ims", "xml"] {
        for form in FORMS {
            let text = format!("WHERE {}, {} CONSTRUCT <r>$k</r>", mixed_pattern(kind), form);
            if let Some(diff) = diverges(&engine, &text, pushdown) {
                table.push(format!("{} | {}", kind, diff));
            }
            // Left central by `diverges`: no form is vacuous but `= ""`
            // where the adapter reads empty text as NULL.
            assert!(bag(&engine, &text).is_ok_and(|rows| !rows.is_empty() || form.ends_with(r#""""#)), "{}", text);
        }
    }
    assert!(table.is_empty(), "{} of {} forms diverge:\n{}", table.len(), 4 * FORMS.len(), table.join("\n"));
}

const OPS: [&str; 7] = ["=", "!=", "<", "<=", ">", ">=", "LIKE"];

/// A numeric, a numeric-text and a plain-text literal, and a few more of
/// each class.
const LITERALS: [&str; 8] = ["2", r#""2""#, r#""x""#, "9007199254740993", "2.0", r#"" 2 ""#, r#""""#, r#""-0""#];

#[test]
fn pushdown_keeps_the_answer_of_every_operator_and_literal_class() {
    let engine = Engine::new(mixed_catalog());
    let mut diverged = Vec::new();
    let mut served = 0;
    for kind in ["rel", "csv", "ims", "xml"] {
        for var in ["$s", "$b", "$f"] {
            for op in OPS {
                for lit in LITERALS {
                    let text = format!("WHERE {}, {} {} {} CONSTRUCT <r>$k</r>", mixed_pattern(kind), var, op, lit);
                    served += usize::from(bag(&engine, &text).is_ok());
                    diverged.extend(diverges(&engine, &text, pushdown));
                }
            }
        }
    }
    assert_eq!(served, 4 * 3 * 7 * 8);
    assert!(diverged.is_empty(), "{} diverge:\n{}", diverged.len(), diverged.join("\n"));
}

/// `u (j INT, v TEXT, w INT)` in a source of its own, beside the mixed
/// table: the variables it shares are joined across two sources.
fn with_u(kind: &str) -> Arc<Catalog> {
    let rows: [(i64, Option<&str>, Option<i64>); 6] =
        [(10, Some("2"), Some(2)), (20, Some("x"), Some(9_007_199_254_740_993)), (30, Some(" 2 "), None), (40, None, Some(-1)), (50, Some(""), Some(0)), (60, Some("2.0"), Some(2))];
    let c = mixed_catalog();
    let u: Arc<dyn SourceAdapter> = match kind {
        "rel" => {
            let mut ddl = vec!["CREATE TABLE u (j INT, v TEXT, w INT)".to_string()];
            for (j, v, w) in rows {
                ddl.push(format!(
                    "INSERT INTO u VALUES ({}, {}, {})",
                    j,
                    v.map_or("NULL".to_string(), |v| format!("'{}'", v)),
                    w.map_or("NULL".to_string(), |w| w.to_string())
                ));
            }
            let ddl: Vec<&str> = ddl.iter().map(String::as_str).collect();
            Arc::new(RelationalAdapter::from_statements("rel2", &ddl).unwrap())
        }
        _ => Arc::new(HierarchicalAdapter::new(
            "ims2",
            rows.iter()
                .map(|(j, v, w)| {
                    let v = v.map_or(Atomic::Null, Atomic::from);
                    let w = w.map_or(Atomic::Null, Atomic::Int);
                    Segment::new("u", vec![("j", Atomic::Int(*j)), ("v", v), ("w", w)])
                })
                .collect(),
        )),
    };
    c.register_source(u).unwrap();
    c
}

#[test]
fn pushdown_keeps_the_answer_of_a_join_on_a_mixed_class_variable() {
    let mut diverged = Vec::new();
    for u in ["rel", "ims"] {
        let engine = Engine::new(with_u(u));
        // `$v` is TEXT on both sides, then TEXT against INT, then INT
        // against INT: copies go wherever each side reads the predicate
        // as the mediator does.
        for (mine, theirs) in [("s", "v"), ("s", "w"), ("b", "w")] {
            let pattern = mixed_pattern("rel").replace(&format!("${}", mine), "$v");
            let u_row = format!(r#"<row><j>$j</j><{0}>$v</{0}></row> IN "u""#, theirs);
            for op in OPS {
                for lit in LITERALS {
                    let text = format!("WHERE {}, {}, $v {} {} CONSTRUCT <r><k>$k</k><j>$j</j></r>", pattern, u_row, op, lit);
                    diverged.extend(diverges(&engine, &text, pushdown));
                }
            }
        }
    }
    assert!(diverged.is_empty(), "{} diverge:\n{}", diverged.len(), diverged.join("\n"));
}

#[test]
fn a_same_source_join_keeps_its_answer_on_text_and_on_int_keys_with_nulls() {
    // The mixed table joined to itself in its own source: on TEXT (the
    // mediator equates "2" with " 2 " and "2.0", a source does not, so
    // the join stays central) and on INT with NULLs (NULL joins NULL in
    // both, so the source may run it).
    let engine = Engine::new(mixed_catalog());
    let mut diverged = Vec::new();
    for field in ["s", "b", "f"] {
        let other = mixed_pattern("rel").replace("$k", "$k2").replace(&format!("${}", field), "$v");
        let mine = mixed_pattern("rel").replace(&format!("${}", field), "$v");
        let other = other.replace(['$'], "$o_").replace("$o_v", "$v").replace("$o_k2", "$k2");
        let text = format!("WHERE {}, {} CONSTRUCT <r><k>$k</k><k2>$k2</k2></r>", mine, other);
        assert!(bag(&engine, &text).is_ok_and(|rows| rows.len() > 5), "{}", text);
        diverged.extend(diverges(&engine, &text, capability_joins));
    }
    assert!(diverged.is_empty(), "{} diverge:\n{}", diverged.len(), diverged.join("\n"));
}

fn prune_unsat(on: bool) -> OptimizerConfig {
    OptimizerConfig {
        prune_unsat: on,
        ..OptimizerConfig::default()
    }
}

/// Conjunctions the satisfiability pass judges over the mixed table's
/// exact bounds (a full sample of nine rows): integers past 2^53, which
/// one `f64` cannot tell apart, and text against numeric text.
const RANGES: [&str; 8] = [
    "$b > 9007199254740992, $b <= 9007199254740993",
    "$b > 9007199254740992",
    "$b >= 9007199254740993",
    "$b = 9007199254740993, $b >= 9007199254740993",
    "$b < 9007199254740993, $b > 3",
    r#"$s > "10", $s < "5""#,
    "$s > 1, $s < 3",
    "$f > 2, $f < 2.5",
];

#[test]
fn the_satisfiability_pass_keeps_the_answer_of_every_mixed_class_range() {
    let engine = Engine::new(mixed_catalog());
    let mut diverged = Vec::new();
    for kind in ["rel", "csv", "ims", "xml"] {
        for range in RANGES {
            let text = format!("WHERE {}, {} CONSTRUCT <r>$k</r>", mixed_pattern(kind), range);
            diverged.extend(diverges(&engine, &text, prune_unsat));
        }
    }
    assert!(diverged.is_empty(), "{} diverge:\n{}", diverged.len(), diverged.join("\n"));
    // The edge is there to be lost: row 3 holds 2^53 + 1.
    let text = format!("WHERE {}, {} CONSTRUCT <r>$k</r>", mixed_pattern("rel"), RANGES[0]);
    engine.set_optimizer(prune_unsat(true));
    assert_eq!(bag(&engine, &text), Ok(vec!["<r>3</r>".to_string()]));
}

#[test]
fn shard_bounds_prune_no_shard_that_holds_a_row_past_2_pow_53() {
    // The mixed XML table split on `b` at 0: shard 1 holds 0, 2, 3, 2^53
    // and 2^53 + 1 as text, each shard's bounds taken from all its rows.
    let specs = vec![("t_xml", ShardSpec::range("b", vec![0.0]))];
    let cluster = ShardedCluster::build(mixed_catalog(), EngineConfig::default(), &specs).unwrap();
    let unsharded = Engine::new(mixed_catalog());
    unsharded.set_optimizer(prune_unsat(false));
    let row = "<row><k>$k</k><s>$s</s><b>$b</b><f>$f</f></row>";
    for range in ["$b > 9007199254740992", "$b >= 9007199254740993", "$b > 9007199254740992, $b <= 9007199254740993", "$b < 0"] {
        let text = format!(r#"WHERE {} IN "t_xml", {} CONSTRUCT <r>$k</r>"#, row, range);
        let got = cluster.query(&text).unwrap();
        let mut rows: Vec<String> = got.document.root().children().map(|n| to_string(&n)).collect();
        rows.sort();
        assert_eq!(Ok(rows), bag(&unsharded, &text), "{}\n{}", text, got.stats.plan);
        assert!(got.stats.plan.contains("pruned to 1/2 shards"), "{}", got.stats.plan);
    }
}

#[test]
fn hash_routing_sends_an_equality_to_the_shard_of_every_value_it_equals() {
    // The mixed XML table hashed on `s`, then on `b`: `$v = 2.0` routes
    // to the one shard that holds `"2"`, `" 2 "`, `"2.0"` and `"+2"`.
    let unsharded = Engine::new(mixed_catalog());
    let row = "<row><k>$k</k><s>$s</s><b>$b</b><f>$f</f></row>";
    let mut diverged = Vec::new();
    for key in ["s", "b"] {
        let specs = vec![("t_xml", ShardSpec::hash(key, 4))];
        let cluster = ShardedCluster::build(mixed_catalog(), EngineConfig::default(), &specs).unwrap();
        for lit in LITERALS {
            let text = format!(r#"WHERE {} IN "t_xml", ${} = {} CONSTRUCT <r>$k</r>"#, row, key, lit);
            let got = cluster.query(&text).unwrap();
            let mut rows: Vec<String> = got.document.root().children().map(|n| to_string(&n)).collect();
            rows.sort();
            if Ok(&rows) != bag(&unsharded, &text).as_ref() {
                diverged.push(format!("{}\n  sharded: {:?}\n  {}", text, rows, got.stats.plan));
            }
        }
    }
    assert!(diverged.is_empty(), "{} diverge:\n{}", diverged.len(), diverged.join("\n"));
}
