//! Differential test for delta refresh (DESIGN.md §21): a materialized
//! view refreshed from the rows its sources gained holds what a full
//! recomputation holds, and every refresh goes the way the contract says
//! it goes.
//!
//! Each case draws a row-wise view definition — one to three relational
//! fragments joined on `$i`, pushed and residual selections — and a
//! stream of steps. A step changes something and refreshes:
//!
//! * inserts into no collection, one, or several: rows with duplicate
//!   keys, `NULL` keys, keys that match nothing, now and then more
//!   distinct keys than the bind stage ships;
//! * the schema generation of a source moves (`CREATE INDEX`,
//!   `table_mut`);
//! * the view is defined again with another text, or dropped from the
//!   store and materialized afresh;
//! * the sources sit behind a wrapper that drops the floor before
//!   delegating (an adapter that predates it), or that answers honestly
//!   and stamps a `from` nobody asked for;
//! * a source is unreachable — the one the delta drives from or one it
//!   binds into — under each unavailability policy.
//!
//! After every step the stored document equals a fresh engine's full
//! materialization of the same databases as a sorted bag of serialized
//! rows, byte for byte for a single-fragment view, and `refreshed_by`
//! is what the model below predicted: `delta <collection> <from>..<upto>`
//! or `full (<reason>)`. A refresh that cannot be completed live changes
//! nothing: same `Arc`, same marks.
//!
//! Seeded (`nimble_trace::rng::sweep`): a failure prints its case number.

use nimble_core::engine::OptimizerConfig;
use nimble_core::{Catalog, Engine, EngineConfig, UnavailablePolicy};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery, Watermark,
};
use nimble_trace::rng::{sweep, Rng};
use nimble_xml::{to_string, Document, DocumentBuilder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const HONEST: u8 = 0;
const IGNORES_FLOOR: u8 = 1;
const WRONG_FROM: u8 = 2;

/// Pass-through adapter that can misbehave the two ways an adapter can
/// get a floor wrong without lying about its rows.
struct Wrap {
    inner: Arc<RelationalAdapter>,
    mode: Arc<AtomicU8>,
}

impl SourceAdapter for Wrap {
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
        match self.mode.load(Ordering::Relaxed) {
            IGNORES_FLOOR => {
                let mut plain = query.clone();
                plain.after_row = None;
                self.inner.execute(&plain)
            }
            WRONG_FROM => {
                let doc = self.inner.execute(query)?;
                Ok(match Watermark::of(&doc) {
                    Some(w) => {
                        let mut again = DocumentBuilder::reopen(&doc, 0);
                        again.stamp([w.generation, w.from + 1, w.upto]);
                        again.finish()
                    }
                    None => doc,
                })
            }
            _ => self.inner.execute(query),
        }
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.inner.fetch_collection(name)
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

/// One of the three collections a view may read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Coll {
    Customers,
    Orders,
    Tickets,
}

impl Coll {
    const ALL: [Coll; 3] = [Coll::Customers, Coll::Orders, Coll::Tickets];

    fn source(self) -> &'static str {
        ["crm", "billing", "support"][self as usize]
    }
    fn table(self) -> &'static str {
        ["customers", "orders", "tickets"][self as usize]
    }
    fn key(self) -> String {
        format!("{}.{}", self.source(), self.table())
    }
    /// The column `$i` is read from.
    fn join_column(self) -> &'static str {
        ["id", "cust_id", "cust_id"][self as usize]
    }
    fn pattern(self) -> &'static str {
        [
            r#"<row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers""#,
            r#"<row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders""#,
            r#"<row><tid>$k</tid><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets""#,
        ][self as usize]
    }
    fn template(self) -> &'static str {
        ["<n>$n</n><r>$r</r>", "<o>$o</o><t>$t</t>", "<k>$k</k><s>$sev</s>"][self as usize]
    }
    /// `(text, over a single fragment)`: the first of each is a selection
    /// a source can take, the last stays at the mediator.
    fn predicates(self) -> &'static [&'static str] {
        [
            &[r#"$r = "NW""#, r#"$n != "c07""#][..],
            &["$t > 300", "$o > $i"][..],
            &["$sev > 1", "$k < $i"][..],
        ][self as usize]
    }
    /// A row that joins customer 7 and passes every predicate of the
    /// grammar: a delta holding one is never empty.
    fn golden(self, serial: u64) -> String {
        match self {
            Coll::Customers => format!("(7, 'g{}', 'NW')", serial),
            Coll::Orders => format!("({}, 7, 900.5)", 100_000 + serial),
            Coll::Tickets => format!("({}, 7, 3)", serial % 7),
        }
    }
    /// A row of whatever comes: a key that repeats, is `NULL`, matches
    /// nothing, or is anybody's.
    fn any(self, serial: u64, rng: &mut Rng) -> String {
        let key = match rng.below(5) {
            0 => "NULL".to_string(),
            1 => "7".to_string(),
            2 => "9999".to_string(),
            _ => (1 + rng.below(70)).to_string(),
        };
        match self {
            Coll::Customers => format!("({}, 'x{}', '{}')", key, serial, ["NW", "SW", "NE"][rng.below(3)]),
            Coll::Orders => format!("({}, {}, {}.5)", 100_000 + serial, key, rng.below(600)),
            Coll::Tickets => format!("({}, {}, {})", rng.below(200), key, 1 + rng.below(3)),
        }
    }
}

struct Rig {
    engine: Engine,
    adapters: Vec<Arc<RelationalAdapter>>,
    links: Vec<Arc<SimulatedLink>>,
    mode: Arc<AtomicU8>,
}

impl Rig {
    fn insert(&self, coll: Coll, rows: &[String]) {
        let sql = format!("INSERT INTO {} VALUES {}", coll.table(), rows.join(", "));
        self.adapters[coll as usize].database().write().execute(&sql).unwrap();
    }

    fn len(&self, coll: Coll) -> u64 {
        self.adapters[coll as usize].estimated_rows(coll.table()).unwrap()
    }

    /// What a fresh engine over the same databases materializes.
    fn recomputed(&self, text: &str) -> String {
        let catalog = Catalog::new();
        for a in &self.adapters {
            catalog
                .register_source(Arc::new(RelationalAdapter::new(a.name(), a.database())))
                .unwrap();
        }
        catalog.define_view("v", text, None).unwrap();
        let fresh = Engine::new(Arc::new(catalog));
        fresh.materialize_view("v", None).unwrap();
        to_string(&fresh.views().peek("v").unwrap().document.root())
    }
}

fn rig(policy: UnavailablePolicy) -> Rig {
    let mut tables = [
        vec!["CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string()],
        vec!["CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string()],
        vec!["CREATE TABLE tickets (tid INT, cust_id INT, severity INT)".to_string()],
    ];
    let mut rng = Rng::new(2024);
    for i in 1..=60u64 {
        tables[0].push(format!(
            "INSERT INTO customers VALUES ({}, 'c{:02}', '{}')",
            i,
            i,
            ["NW", "SW", "NE", "SE"][rng.below(4)]
        ));
        for j in 0..(if i <= 50 { 3 } else { 0 }) {
            tables[1].push(format!("INSERT INTO orders VALUES ({}, {}, {}.5)", 1000 + 3 * i + j, i, rng.below(600)));
        }
        if i % 4 == 3 {
            tables[2].push(format!("INSERT INTO tickets VALUES ({}, {}, {})", i, i, 1 + rng.below(3)));
        }
    }
    let mode = Arc::new(AtomicU8::new(HONEST));
    let catalog = Catalog::new();
    let (mut adapters, mut links) = (Vec::new(), Vec::new());
    for (coll, stmts) in Coll::ALL.iter().zip(&tables) {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        let adapter = Arc::new(RelationalAdapter::from_statements(coll.source(), &refs).unwrap());
        let wrap = Arc::new(Wrap {
            inner: Arc::clone(&adapter),
            mode: Arc::clone(&mode),
        });
        let link = SimulatedLink::new(wrap, LinkConfig::default());
        catalog.register_source(link.clone()).unwrap();
        adapters.push(adapter);
        links.push(link);
    }
    let config = EngineConfig {
        unavailable: policy,
        optimizer: OptimizerConfig {
            verify_plans: true,
            ..OptimizerConfig::default()
        },
        ..EngineConfig::default()
    };
    Rig {
        engine: Engine::with_config(Arc::new(catalog), config),
        adapters,
        links,
        mode,
    }
}

/// A row-wise view over `fragments`, in that order.
fn definition(fragments: &[Coll], rng: &mut Rng) -> String {
    let mut conds: Vec<&str> = fragments.iter().map(|c| c.pattern()).collect();
    for c in fragments {
        for p in c.predicates() {
            if rng.below(3) == 0 {
                conds.push(p);
            }
        }
    }
    if rng.below(3) == 0 {
        conds.push("$i < 50");
    }
    if fragments.contains(&Coll::Orders) && fragments.contains(&Coll::Tickets) && rng.below(3) == 0 {
        conds.push("$t > $sev");
    }
    let template: String = fragments.iter().map(|c| c.template()).collect();
    format!("WHERE {} CONSTRUCT <v><i>$i</i>{}</v>", conds.join(", "), template)
}

fn sorted_rows(xml: &str) -> Vec<&str> {
    let mut rows: Vec<&str> = xml.trim_end_matches("</results>").split("<v>").skip(1).collect();
    rows.sort_unstable();
    rows
}

/// What the engine knows of the stored view, as the contract lets a
/// reader of this file predict it.
struct Model {
    /// Per fragment, in plan order: how far the stored document reaches,
    /// when it was built from stamped answers.
    marks: Option<Vec<(Coll, u64)>>,
    /// Collections whose schema generation moved since they were marked.
    moved: Vec<Coll>,
    definition_changed: bool,
}

#[test]
fn a_delta_refreshed_view_is_the_recomputed_view() {
    let mut paths: BTreeMap<String, usize> = BTreeMap::new();
    let mut failed_refreshes = 0usize;
    sweep(256, |rng| {
        let policy = [
            UnavailablePolicy::Fail,
            UnavailablePolicy::SkipAndAnnotate,
            UnavailablePolicy::StaleCache,
        ][rng.below(3)];
        let rig = rig(policy);
        let mut fragments: Vec<Coll> = Coll::ALL.iter().copied().filter(|_| rng.below(2) == 0).collect();
        if fragments.is_empty() {
            fragments.push(Coll::ALL[rng.below(3)]);
        }
        let mut text = definition(&fragments, rng);
        rig.engine.catalog().define_view("v", &text, None).unwrap();
        let mut model: Option<Model> = None;
        let mut serial = 0u64;
        let mut case_paths: BTreeMap<String, u64> = BTreeMap::new();
        let mut case_failed = 0u64;

        for step in 0..7 {
            // --- change something ---
            let mut outage: Option<Coll> = None;
            let kind = if step == 0 { 0 } else { rng.below(14) };
            let mut inserts: Vec<(Coll, bool)> = Vec::new(); // (where, holds a golden row)
            match kind {
                // Inserts: into nothing, one fragment, or several.
                0..=6 => {
                    for &c in &fragments {
                        if rng.below(3) == 0 {
                            inserts.push((c, rng.below(2) == 0));
                        }
                    }
                }
                // The generation of a source the refresh is sure to ask
                // moves: the one that grows, or — nothing growing — the
                // first; or another while a golden row arrives.
                7 | 8 => {
                    let grows = fragments[rng.below(fragments.len())];
                    let moves = fragments[rng.below(fragments.len())];
                    if kind == 7 {
                        inserts.push((grows, true));
                    }
                    let moves = match (kind, model.as_ref().and_then(|m| m.marks.as_ref())) {
                        (8, Some(marks)) => marks
                            .iter()
                            .find(|(c, upto)| rig.len(*c) > *upto)
                            .map_or(fragments[0], |(c, _)| *c),
                        (8, None) => fragments[0],
                        _ => moves,
                    };
                    let db = rig.adapters[moves as usize].database();
                    let mut db = db.write();
                    let indexed = db.table(moves.table()).unwrap().indexed_columns();
                    if indexed.is_empty() {
                        db.execute(&format!(
                            "CREATE INDEX ON {} ({}) USING HASH",
                            moves.table(),
                            moves.join_column()
                        ))
                        .unwrap();
                    } else {
                        db.table_mut(moves.table()).unwrap();
                    }
                    if let Some(m) = &mut model {
                        m.moved.push(moves);
                    }
                }
                9 => {
                    text.push(' ');
                    rig.engine.catalog().define_view("v", &text, None).unwrap();
                    if let Some(m) = &mut model {
                        m.definition_changed = true;
                    }
                }
                10 => {
                    rig.engine.views().drop_view("v");
                    model = None;
                }
                11 => rig.mode.store(IGNORES_FLOOR, Ordering::Relaxed),
                12 => rig.mode.store(WRONG_FROM, Ordering::Relaxed),
                // An outage, while a golden row waits in one fragment so
                // that every other one is asked too.
                _ => {
                    let grows = fragments[rng.below(fragments.len())];
                    inserts.push((grows, true));
                    outage = Some(fragments[rng.below(fragments.len())]);
                }
            }
            for &(c, golden) in &inserts {
                let mut rows: Vec<String> = (0..1 + rng.below(5))
                    .map(|_| {
                        serial += 1;
                        c.any(serial, rng)
                    })
                    .collect();
                if golden {
                    serial += 1;
                    rows.push(c.golden(serial));
                }
                // Now and then, more distinct keys than a key list takes.
                if c == Coll::Orders && rng.below(24) == 0 {
                    rows.extend((1..=1_100).map(|k| format!("({}, -{}, 900.5)", 200_000 + k, k)));
                }
                rig.insert(c, &rows);
            }

            // --- predict ---
            let mode = rig.mode.load(Ordering::Relaxed);
            let grown = |m: &Model| -> Vec<(Coll, u64)> {
                m.marks
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|(c, upto)| rig.len(*c) > *upto)
                    .collect()
            };
            let predicted = match &model {
                None => "full (first)".to_string(),
                Some(m) if m.definition_changed => "full (definition)".to_string(),
                Some(m) if m.marks.is_none() => "full (unstamped)".to_string(),
                Some(m) if grown(m).len() > 1 => "full (several_grew)".to_string(),
                Some(_) if mode == IGNORES_FLOOR => "full (unstamped)".to_string(),
                Some(m) if !m.moved.is_empty() => "full (generation)".to_string(),
                Some(_) if mode == WRONG_FROM => "full (verify)".to_string(),
                Some(m) => {
                    let marks = m.marks.as_ref().unwrap();
                    let (c, from) = grown(m).first().copied().unwrap_or(marks[0]);
                    format!("delta {} {}..{}", c.key(), from, rig.len(c))
                }
            };

            // --- refresh ---
            let before = rig.engine.views().peek("v");
            if let Some(down) = outage {
                rig.links[down as usize].set_up(false);
                assert!(rig.engine.materialize_view("v", None).is_err(), "{:?} down: {}", down, text);
                rig.links[down as usize].set_up(true);
                case_failed += 1;
                let after = rig.engine.views().peek("v");
                match (&before, &after) {
                    (Some(b), Some(a)) => {
                        assert!(Arc::ptr_eq(&b.document, &a.document), "{}", text);
                        assert_eq!((&b.marks, &b.refreshed_by), (&a.marks, &a.refreshed_by));
                    }
                    (None, None) => {}
                    _ => panic!("an outage stored or dropped the view: {}", text),
                }
                continue;
            }
            rig.engine
                .materialize_view("v", None)
                .unwrap_or_else(|e| panic!("step {} ({}): {}\n{}", step, predicted, e, text));
            let stored = rig.engine.views().peek("v").unwrap();
            assert_eq!(stored.refreshed_by, predicted, "step {} kind {}: {}", step, kind, text);
            *case_paths.entry(predicted.split(' ').take(2).collect::<Vec<_>>().join(" ")).or_default() += 1;

            // --- compare ---
            let got = to_string(&stored.document.root());
            let want = rig.recomputed(&text);
            assert_eq!(sorted_rows(&got), sorted_rows(&want), "step {} ({}): {}", step, predicted, text);
            if fragments.len() == 1 {
                assert_eq!(got, want, "step {} ({}): {}", step, predicted, text);
            }

            // --- what is stored now ---
            if predicted.starts_with("delta") {
                let m = model.as_mut().unwrap();
                for (c, upto) in m.marks.as_mut().unwrap() {
                    if predicted.contains(&c.key()) {
                        *upto = rig.len(*c);
                    }
                }
            } else {
                model = Some(Model {
                    marks: (mode == HONEST).then(|| fragments.iter().map(|&c| (c, rig.len(c))).collect()),
                    moved: Vec::new(),
                    definition_changed: false,
                });
            }
            let stamped: Vec<(String, u64)> = stored.marks.iter().map(|m| (m.collection.clone(), m.upto)).collect();
            let modelled: Vec<(String, u64)> = model
                .as_ref()
                .and_then(|m| m.marks.as_ref())
                .map(|marks| marks.iter().map(|(c, upto)| (c.key(), *upto)).collect())
                .unwrap_or_default();
            assert_eq!(stamped, modelled, "step {} ({}): {}", step, predicted, text);
            rig.mode.store(HONEST, Ordering::Relaxed);
        }

        // The engine's own counters tell the same story.
        let m = rig.engine.metrics_snapshot();
        let (mut fulls, mut deltas) = (0, 0);
        for (path, n) in &case_paths {
            match path.strip_prefix("full (").and_then(|r| r.strip_suffix(')')) {
                Some(reason) => {
                    assert_eq!(m.counter(&format!("engine.view.refresh.full.{}", reason)), *n, "{}", path);
                    fulls += n;
                }
                None => deltas += n,
            }
            *paths.entry(path.clone()).or_default() += *n as usize;
        }
        assert_eq!((m.counter("engine.view.refresh.full"), m.counter("engine.view.refresh.delta")), (fulls, deltas));
        let failed: u64 = m
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("engine.view.refresh.failed."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(failed, case_failed);
        assert_eq!(m.histograms["engine.view.refresh_us"].count, fulls + deltas + failed);
        failed_refreshes += case_failed as usize;
    });
    // The sweep goes down every road, and mostly down the one it is about.
    eprintln!("paths: {:?}, failed refreshes: {}", paths, failed_refreshes);
    for reason in ["first", "definition", "unstamped", "generation", "several_grew", "verify"] {
        assert!(paths.get(&format!("full ({})", reason)).is_some_and(|n| *n >= 10), "{}: {:?}", reason, paths);
    }
    let deltas: usize = paths.iter().filter(|(p, _)| p.starts_with("delta")).map(|(_, n)| n).sum();
    assert!(deltas > 400, "{:?}", paths);
    assert!(failed_refreshes >= 40);
}

/// A view that is not row-wise recomputes, and says it is its shape.
#[test]
fn views_that_order_group_or_nest_always_recompute() {
    let rig = rig(UnavailablePolicy::Fail);
    let shapes = [
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <v><o>$o</o></v> ORDER-BY $t"#,
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <v ID=C($i)><i>$i</i><o>$o</o></v>"#,
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
           CONSTRUCT <v ID=C($i)><i>$i</i><n>count()</n></v>"#,
        r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers"
           CONSTRUCT <v><n>$n</n>
             WHERE <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
             CONSTRUCT <o>$o</o></v>"#,
        // One collection twice: the rows a self-join gains are not the
        // join of its new rows with the old.
        r#"WHERE <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 <row><oid>$p</oid><cust_id>$i</cust_id><total>$u</total></row> IN "orders"
           CONSTRUCT <v><o>$o</o><p>$p</p></v>"#,
    ];
    for (n, text) in shapes.iter().enumerate() {
        rig.engine.catalog().define_view("v", text, None).unwrap();
        rig.engine.views().drop_view("v");
        for round in 0..3 {
            rig.insert(Coll::Orders, &[Coll::Orders.golden(10 * n as u64 + round)]);
            rig.engine.materialize_view("v", None).unwrap();
            let stored = rig.engine.views().peek("v").unwrap();
            let want = if round == 0 { "full (first)" } else { "full (shape)" };
            assert_eq!((stored.refreshed_by.as_str(), stored.marks.len()), (want, 0), "{}", text);
            assert_eq!(to_string(&stored.document.root()), rig.recomputed(text), "{}", text);
        }
    }
    // Both of one source's collections in one fragment (a pushed join)
    // is no single-collection fragment either.
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(
            RelationalAdapter::from_statements(
                "shop",
                &[
                    "CREATE TABLE customers (id INT, name TEXT)",
                    "CREATE TABLE orders (oid INT, cust_id INT)",
                    "INSERT INTO customers VALUES (1, 'a'), (2, 'b')",
                    "INSERT INTO orders VALUES (10, 1), (11, 2)",
                ],
            )
            .unwrap(),
        ))
        .unwrap();
    let text = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                        <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders"
                  CONSTRUCT <v><n>$n</n><o>$o</o></v>"#;
    catalog.define_view("v", text, None).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine.materialize_view("v", None).unwrap();
    engine.materialize_view("v", None).unwrap();
    assert_eq!(engine.views().peek("v").unwrap().refreshed_by, "full (shape)");
}
