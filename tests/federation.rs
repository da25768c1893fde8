//! Federation correctness: heterogeneous sources answer the same
//! queries identically regardless of optimizer choices, and the four
//! adapter kinds interoperate.

use nimble::core::{Catalog, Engine, OptimizerConfig};
use nimble::sources::csv::CsvAdapter;
use nimble::sources::hierarchical::{HierarchicalAdapter, Segment};
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble::xml::{to_string, Atomic, Document};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Pass-through adapter counting the calls the mediator makes and the
/// XML nodes it gets back — what a remote, autonomous source is charged.
struct Counting {
    inner: Arc<dyn SourceAdapter>,
    calls: Arc<AtomicU64>,
    nodes: Arc<AtomicU64>,
}

impl Counting {
    fn note(&self, result: &Result<Arc<Document>, SourceError>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(doc) = result {
            self.nodes.fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
    }
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
        self.note(&result);
        result
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        let result = self.inner.fetch_collection(name);
        self.note(&result);
        result
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
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
    let plan = engine.explain(&lookup(42)).unwrap();
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
    // for the shape and bound to each later key — plan-cache hits that
    // ship their own key's SQL, not the SQL the shape was planned with.
    let hits = engine.plan_cache().stats().hits;
    let (next, q_calls, q_nodes) = charged(&lookup(43));
    assert_eq!(
        next,
        "<results><o><n>c43</n><k>129</k></o><o><n>c43</n><k>130</k></o>\
         <o><n>c43</n><k>131</k></o></results>"
    );
    assert_eq!((q_calls, q_nodes), (2, 6 + 16));
    let plan = engine.explain(&lookup(43)).unwrap();
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
    // The verdict is asked of the bound plan: 150 lies outside
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
