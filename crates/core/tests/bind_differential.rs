//! Differential test for the bind stage (DESIGN.md §18): shipping one
//! fragment's join keys to the others changes how many rows the
//! sources ship, never the answer.
//!
//! Every 2- and 3-source join of the grammar below (which sources,
//! which selections, ORDER-BY) runs four ways over the same data:
//!
//! * the stage planned, over adapters that honour key sets, and over
//!   adapters that ignore them (the same plan, supersets shipped) —
//!   **byte-identical** documents and the same `why(i)`;
//! * lineage tracking on and off — byte-identical documents;
//! * `pushdown` off, the oracle that fetches whole collections and does
//!   everything centrally — the same answers. Shipped selections move
//!   the estimates and with them the fold order, so this comparison is
//!   on the sorted answers, as in `batch_differential.rs`.
//!
//! Then the §3.4 matrix (driver down, target down, driver stale, all
//! down × three policies) against `pushdown` off, which plans no stage, and
//! the edge cases: empty driver, null and duplicate keys, more keys
//! than the cap, field types that do not match, a quote in a key.
//!
//! Hand-enumerated like `shard_differential.rs`.

use nimble_core::engine::OptimizerConfig;
use nimble_core::{Catalog, Engine, EngineConfig, QueryResult, UnavailablePolicy};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble_trace::rng::Rng;
use nimble_xml::{to_string, Atomic, Document};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pass-through adapter that counts calls and shipped nodes, keeps the
/// key lists it was sent, and — when `honour` is false — drops them
/// before delegating, as an adapter that predates key sets would.
struct Probe {
    inner: Arc<dyn SourceAdapter>,
    honour: bool,
    calls: AtomicU64,
    nodes: AtomicU64,
    key_lists: Mutex<Vec<Vec<Atomic>>>,
}

impl Probe {
    fn wrap(inner: Arc<dyn SourceAdapter>, honour: bool) -> Arc<Probe> {
        Arc::new(Probe {
            inner,
            honour,
            calls: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            key_lists: Mutex::new(Vec::new()),
        })
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    fn key_lists(&self) -> Vec<Vec<Atomic>> {
        self.key_lists.lock().unwrap().clone()
    }
}

impl SourceAdapter for Probe {
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
        self.calls.fetch_add(1, Ordering::Relaxed);
        for (_, keys) in &query.key_sets {
            self.key_lists.lock().unwrap().push(keys.to_vec());
        }
        let result = if self.honour {
            self.inner.execute(query)
        } else {
            let mut whole = query.clone();
            whole.key_sets.clear();
            self.inner.execute(&whole)
        };
        if let Ok(doc) = &result {
            self.nodes.fetch_add(doc.len() as u64, Ordering::Relaxed);
        }
        result
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch_collection(name)
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

/// `crm.customers` (80), `billing.orders` (three each for the first 70
/// customers), `support.tickets` (16, two of them for one customer, one
/// for a customer that does not exist). Every access path answers a key
/// list somewhere: `customers.id` has a B-tree, `orders.cust_id` a hash
/// index, `tickets.cust_id` none.
fn statements() -> [(&'static str, Vec<String>); 3] {
    let mut rng = Rng::new(2001);
    let regions = ["NW", "SW", "NE", "SE"];
    let mut crm = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE INDEX ON customers (id)".to_string(),
    ];
    let mut billing = vec![
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string(),
        "CREATE INDEX ON orders (cust_id) USING HASH".to_string(),
    ];
    for i in 1..=80u64 {
        crm.push(format!(
            "INSERT INTO customers VALUES ({}, 'c{:02}', '{}')",
            i,
            i,
            regions[rng.below(4)]
        ));
        for j in 0..(if i <= 70 { 3 } else { 0 }) {
            billing.push(format!(
                "INSERT INTO orders VALUES ({}, {}, {}.5)",
                3 * i + j,
                i,
                rng.below(600)
            ));
        }
    }
    let mut support = vec!["CREATE TABLE tickets (tid INT, cust_id INT, severity INT)".to_string()];
    for t in 0..16u64 {
        let cust = match t {
            7 => 12,  // a second ticket for customer 12 (t = 2 below)
            15 => 999, // nobody
            _ => 5 * t + 2,
        };
        support.push(format!(
            "INSERT INTO tickets VALUES ({}, {}, {})",
            t,
            cust,
            rng.below(3) + 1
        ));
    }
    [("crm", crm), ("billing", billing), ("support", support)]
}

struct Rig {
    engine: Engine,
    adapters: Vec<Arc<RelationalAdapter>>,
    probes: Vec<Arc<Probe>>,
    links: Vec<Arc<SimulatedLink>>,
}

impl Rig {
    fn nodes(&self) -> u64 {
        self.probes.iter().map(|p| p.nodes()).sum()
    }

    fn calls(&self) -> u64 {
        self.probes.iter().map(|p| p.calls()).sum()
    }

    fn link(&self, source: &str) -> &SimulatedLink {
        let at = ["crm", "billing", "support"]
            .iter()
            .position(|s| *s == source)
            .unwrap();
        &self.links[at]
    }

    fn counter(&self, name: &str) -> u64 {
        self.engine.metrics_snapshot().counter(name)
    }
}

/// An engine over the three sources, each behind a [`Probe`] and a
/// link that can be taken down.
fn rig(sources: &[(&str, Vec<String>)], honour: bool, config: EngineConfig) -> Rig {
    let catalog = Catalog::new();
    let (mut adapters, mut probes, mut links) = (Vec::new(), Vec::new(), Vec::new());
    for (name, stmts) in sources {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        let adapter = Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap());
        let probe = Probe::wrap(adapter.clone(), honour);
        let link = SimulatedLink::new(probe.clone(), LinkConfig::default());
        catalog.register_source(link.clone()).unwrap();
        adapters.push(adapter);
        probes.push(probe);
        links.push(link);
    }
    Rig {
        engine: Engine::with_config(Arc::new(catalog), config),
        adapters,
        probes,
        links,
    }
}

fn optimizer(pushdown: bool, track_lineage: bool) -> EngineConfig {
    EngineConfig {
        optimizer: OptimizerConfig {
            pushdown,
            track_lineage,
            verify_plans: true,
            ..OptimizerConfig::default()
        },
        ..EngineConfig::default()
    }
}

const CUSTOMERS: &str = r#"<row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers""#;
const ORDERS: &str = r#"<row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders""#;
const TICKETS: &str = r#"<row><tid>$k</tid><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets""#;

/// Every query of the grammar: which sources join on `$i`, which
/// selections apply, how the answer is ordered.
fn all_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for (customers, orders, tickets) in [
        (true, false, true),
        (false, true, true),
        (true, true, false),
        (true, true, true),
    ] {
        let mut predicates: Vec<Option<&str>> = vec![None];
        if tickets {
            predicates.extend([Some("$sev > 1"), Some("$sev = 3")]);
        }
        if orders {
            predicates.extend([Some("$t > 300"), Some("$t < 40")]);
        }
        if customers {
            predicates.push(Some(r#"$r = "NW""#));
        }
        predicates.extend([Some("$i = 12"), Some("$i > 60"), Some("$i < 30")]);
        for first in &predicates {
            for second in [None, Some("$i < 50")] {
                if second.is_some() && first.map_or(true, |p| p.starts_with("$i")) {
                    continue;
                }
                for order in ["", " ORDER-BY $i", " ORDER-BY $i DESC"] {
                    let mut conds: Vec<&str> = Vec::new();
                    let mut construct = String::from("<i>$i</i>");
                    if customers {
                        conds.push(CUSTOMERS);
                        construct.push_str("<n>$n</n>");
                    }
                    if orders {
                        conds.push(ORDERS);
                        construct.push_str("<o>$o</o>");
                    }
                    if tickets {
                        conds.push(TICKETS);
                        construct.push_str("<k>$k</k><sev>$sev</sev>");
                    }
                    conds.extend(first.iter().chain(second.iter()));
                    queries.push(format!(
                        "WHERE {} CONSTRUCT <hit>{}</hit>{}",
                        conds.join(", "),
                        construct,
                        order
                    ));
                }
            }
        }
    }
    queries
}

fn document(r: &QueryResult) -> String {
    to_string(&r.document.root())
}

fn sorted_answers(r: &QueryResult) -> Vec<String> {
    let mut parts: Vec<String> = r.document.root().children().map(|c| to_string(&c)).collect();
    parts.sort();
    parts
}

/// `why(i)` of every answer, as source names.
fn whys(r: &QueryResult) -> Vec<Vec<String>> {
    let answers = r.provenance.as_ref().map_or(0, |p| p.answers.len());
    (0..answers)
        .map(|i| {
            r.why(i)
                .unwrap()
                .iter()
                .map(|s| format!("{}:{}", s.name, s.detail))
                .collect()
        })
        .collect()
}

#[test]
fn the_stage_changes_rows_shipped_never_the_answer() {
    let sources = statements();
    let honours = rig(&sources, true, optimizer(true, true));
    let ignores = rig(&sources, false, optimizer(true, true));
    let untracked = rig(&sources, true, optimizer(true, false));
    let central = rig(&sources, true, optimizer(false, false));
    let queries = all_queries();
    assert!(queries.len() > 100, "{}", queries.len());
    let mut staged = 0;
    for text in &queries {
        let (h0, i0) = (honours.nodes(), ignores.nodes());
        let honoured = honours.engine.query(text).unwrap();
        let ignored = ignores.engine.query(text).unwrap();
        let plan = &honoured.stats.plan;
        assert_eq!(document(&honoured), document(&ignored), "{}\n{}", text, plan);
        assert_eq!(whys(&honoured), whys(&ignored), "{}\n{}", text, plan);
        assert_eq!(
            document(&honoured),
            document(&untracked.engine.query(text).unwrap()),
            "{}\n{}",
            text,
            plan
        );
        assert_eq!(
            sorted_answers(&honoured),
            sorted_answers(&central.engine.query(text).unwrap()),
            "{}\n{}",
            text,
            plan
        );
        // Same decisions both ways; the honouring sources ship no more.
        let notes = |plan: &str| -> Vec<String> {
            plan.lines().filter(|l| l.starts_with("-- ")).map(str::to_string).collect()
        };
        assert_eq!(notes(plan), notes(&ignored.stats.plan), "{}", text);
        let (shipped, whole) = (honours.nodes() - h0, ignores.nodes() - i0);
        assert!(shipped <= whole, "{}: {} > {}", text, shipped, whole);
        if plan.contains(" keys sent") {
            staged += 1;
        }
    }
    // The sweep is about the stage: most shapes plan it, and it pays.
    assert!(staged * 2 > queries.len(), "{} of {}", staged, queries.len());
    assert_eq!(honours.counter("engine.bind.reduced"), staged as u64);
    assert!(honours.nodes() * 2 < ignores.nodes());
    assert_eq!(honours.calls(), ignores.calls());
    // No source was ever sent an empty or a repeating list.
    for probe in &honours.probes {
        for keys in probe.key_lists() {
            assert!(!keys.is_empty());
            assert!(keys.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()), "{:?}", keys);
        }
    }
}

const THREE_WAY: &str = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
          <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
          <row><tid>$k</tid><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
          $t > 100
    CONSTRUCT <hit><n>$n</n><o>$o</o><k>$k</k></hit> ORDER-BY $o"#;

/// What a query came to, for comparing two engines under an outage.
fn outcome(rig: &Rig, text: &str) -> Result<(Vec<String>, bool, Vec<String>, bool), String> {
    rig.engine
        .query(text)
        .map(|r| (sorted_answers(&r), r.complete, r.missing_sources.clone(), r.stale))
        .map_err(|e| e.to_string())
}

#[test]
fn outages_degrade_as_they_do_without_the_stage() {
    let sources = statements();
    for policy in [
        UnavailablePolicy::Fail,
        UnavailablePolicy::SkipAndAnnotate,
        UnavailablePolicy::StaleCache,
    ] {
        // `support` drives; `crm` and `billing` are targets.
        for down in [
            vec!["support"],
            vec!["crm"],
            vec!["billing", "support"],
            vec!["billing", "crm", "support"],
        ] {
            // `pushdown: false` plans no stage: it has no fragment to
            // send keys to.
            let with = |pushdown: bool| EngineConfig {
                unavailable: policy,
                ..optimizer(pushdown, false)
            };
            let staged = rig(&sources, true, with(true));
            let plain = rig(&sources, true, with(false));
            // Warm both (fills the stale cache), then cut the links.
            let warm = outcome(&staged, THREE_WAY).unwrap();
            assert_eq!(Ok(&warm), outcome(&plain, THREE_WAY).as_ref());
            assert!(warm.1 && !warm.0.is_empty());
            assert_eq!(staged.counter("engine.bind.reduced"), 1);
            for source in &down {
                staged.link(source).set_up(false);
                plain.link(source).set_up(false);
            }
            let got = outcome(&staged, THREE_WAY);
            assert_eq!(got, outcome(&plain, THREE_WAY), "{:?} {:?}", policy, down);
            match (policy, &got) {
                (UnavailablePolicy::Fail, got) => assert!(got.is_err()),
                (UnavailablePolicy::SkipAndAnnotate, Ok(got)) => {
                    assert_eq!((&got.2, got.3), (&down.iter().map(|s| s.to_string()).collect(), false));
                    assert!(got.0.is_empty() && !got.1);
                }
                // Every unit is served from the cache — the targets'
                // from the answers stored under the driver's keys.
                (UnavailablePolicy::StaleCache, Ok(got)) => {
                    assert_eq!((&got.0, got.1, got.3), (&warm.0, true, true));
                }
                (_, Err(e)) => panic!("{:?} {:?}: {}", policy, down, e),
            }
            // A driver that did not answer afresh sends no keys.
            let driver_down = down.contains(&"support");
            assert_eq!(staged.counter("engine.bind.declined"), u64::from(driver_down));
            let lists: usize = staged.probes.iter().map(|p| p.key_lists().len()).sum();
            // Warm run: two lists. Cold run: one more per target that is
            // up behind a driver that is.
            let asked = if driver_down { 0 } else { 2 - down.len() };
            assert_eq!(lists, 2 + asked, "{:?} {:?}", policy, down);
        }
    }
}

#[test]
fn a_stale_keyed_answer_is_served_for_its_own_keys_only() {
    let sources = statements();
    let stale = rig(
        &sources,
        true,
        EngineConfig {
            unavailable: UnavailablePolicy::StaleCache,
            ..optimizer(true, false)
        },
    );
    let all = THREE_WAY.replace("$t > 100", "$t > 100, $sev > 0");
    let some = THREE_WAY.replace("$t > 100", "$t > 100, $sev > 2");
    let warm = stale.engine.query(&all).unwrap();
    assert!(warm.complete && !warm.stale);
    stale.link("crm").set_up(false);
    // Same driver keys: crm's stored answer stands in.
    let again = stale.engine.query(&all).unwrap();
    assert_eq!(sorted_answers(&again), sorted_answers(&warm));
    assert!(again.complete && again.stale);
    // Other keys: nothing stored under them, and the answer for the
    // first list is not offered in its place.
    let other = stale.engine.query(&some).unwrap();
    assert!(!other.complete && other.document.root().children().next().is_none());
    assert_eq!(other.missing_sources, ["crm"]);
}

/// Two sources joined on `$i`: `small` drives, `big` has 60 rows.
fn pair(small: &[&str], big_type: &str, big_value: impl Fn(u64) -> String) -> Vec<(&'static str, Vec<String>)> {
    let mut big = vec![format!("CREATE TABLE big (id {}, label TEXT)", big_type)];
    for i in 1..=60u64 {
        big.push(format!("INSERT INTO big VALUES ({}, 'b{}')", big_value(i), i));
    }
    vec![
        ("left", small.iter().map(|s| s.to_string()).collect()),
        ("right", big),
    ]
}

const PAIR: &str = r#"WHERE <row><id>$i</id><tag>$g</tag></row> IN "small",
          <row><id>$i</id><label>$l</label></row> IN "big"
    CONSTRUCT <hit><g>$g</g><l>$l</l></hit>"#;

/// The stage's answer against the oracle's, and the stage engine's rig.
fn pair_against_oracle(sources: &[(&str, Vec<String>)], text: &str) -> (Rig, QueryResult) {
    let staged = rig(sources, true, optimizer(true, false));
    let central = rig(sources, true, optimizer(false, false));
    let got = staged.engine.query(text).unwrap();
    assert_eq!(
        sorted_answers(&got),
        sorted_answers(&central.engine.query(text).unwrap()),
        "{}",
        got.stats.plan
    );
    (staged, got)
}

#[test]
fn an_empty_driver_answers_for_its_targets() {
    // No small row has tag 'z'; statistics cannot tell (it is no bound).
    let sources = pair(
        &[
            "CREATE TABLE small (id INT, tag TEXT)",
            "INSERT INTO small VALUES (3, 'a'), (4, 'b'), (5, 'c')",
        ],
        "INT",
        |i| i.to_string(),
    );
    let text = PAIR.replace("CONSTRUCT", r#", $g = "z" CONSTRUCT"#);
    let (staged, got) = pair_against_oracle(&sources, &text);
    assert_eq!(document(&got), "<results/>");
    assert!(got.complete);
    // The driver was asked, the target was not — and not sent `IN ()`.
    assert_eq!((staged.probes[0].calls(), staged.probes[1].calls()), (2, 1));
    assert!(staged.probes[1].key_lists().is_empty());
    assert_eq!(got.stats.source_calls, 1);
    assert_eq!(staged.counter("engine.bind.reduced"), 1);
    assert!(got.stats.plan.contains("bind $i: 0 keys sent"), "{}", got.stats.plan);
}

#[test]
fn duplicate_keys_are_sent_once_and_a_null_key_cancels_the_stage() {
    let build = |rows: &str| {
        let insert = format!("INSERT INTO small VALUES {}", rows);
        let stmts = ["CREATE TABLE small (id INT, tag TEXT)", insert.as_str()];
        let mut sources = pair(&stmts, "INT", |i| i.to_string());
        // A row of `big` that has no id either.
        sources[1].1.push("INSERT INTO big VALUES (NULL, 'nobody')".to_string());
        sources
    };

    let (staged, got) = pair_against_oracle(&build("(7, 'a'), (7, 'b'), (9, 'c'), (7, 'd')"), PAIR);
    assert_eq!(got.stats.tuples, 4);
    assert_eq!(staged.probes[1].key_lists(), [vec![Atomic::Int(7), Atomic::Int(9)]]);

    // The mediator's join pairs two absent ids; a source's IN cannot
    // say that, so the target is asked for everything.
    let (staged, got) = pair_against_oracle(&build("(7, 'a'), (NULL, 'b'), (9, 'c')"), PAIR);
    assert_eq!(got.stats.tuples, 3, "{}", document(&got));
    assert!(document(&got).contains("<hit><g>b</g><l>nobody</l></hit>"));
    assert!(staged.probes[1].key_lists().is_empty());
    assert_eq!(staged.counter("engine.bind.declined"), 1);
    assert_eq!(staged.counter("engine.bind.reduced"), 0);
    assert!(got.stats.plan.contains("bind $i: no keys sent"), "{}", got.stats.plan);
}

#[test]
fn more_keys_than_the_cap_are_not_sent() {
    // Planned from 4 sampled rows; by the time the query runs the driver
    // holds 1 100 more, all with distinct ids.
    let sources = pair(
        &[
            "CREATE TABLE small (id INT, tag TEXT)",
            "INSERT INTO small VALUES (3, 'a'), (4, 'b'), (5, 'c'), (6, 'd')",
        ],
        "INT",
        |i| i.to_string(),
    );
    let staged = rig(&sources, true, optimizer(true, false));
    let central = rig(&sources, true, optimizer(false, false));
    let late: Vec<String> = (100..1200).map(|i| format!("({}, 'late')", i)).collect();
    let grow = format!("INSERT INTO small VALUES {}", late.join(", "));
    for r in [&staged, &central] {
        r.adapters[0].database().write().execute(&grow).unwrap();
    }
    let got = staged.engine.query(PAIR).unwrap();
    assert_eq!(
        sorted_answers(&got),
        sorted_answers(&central.engine.query(PAIR).unwrap())
    );
    assert_eq!(got.stats.tuples, 4);
    assert!(staged.probes[1].key_lists().is_empty());
    assert_eq!(staged.counter("engine.bind.declined"), 1);
    assert_eq!(staged.counter("engine.bind.reduced"), 0);
    assert!(
        got.stats.plan.contains("bind $i: no keys sent, more than 1024 keys (est ~4)"),
        "{}",
        got.stats.plan
    );
}

#[test]
fn fields_of_other_types_are_not_bound() {
    let small = [
        "CREATE TABLE small (id INT, tag TEXT)",
        "INSERT INTO small VALUES (3, 'a'), (4, 'b'), (5, 'c')",
    ];
    for (big_type, value) in [
        ("FLOAT", Box::new(|i: u64| format!("{}.0", i)) as Box<dyn Fn(u64) -> String>),
        ("TEXT", Box::new(|i: u64| format!("'{}'", i))),
    ] {
        let (staged, got) = pair_against_oracle(&pair(&small, big_type, value), PAIR);
        assert_eq!(got.stats.tuples, 3, "{}", big_type);
        assert!(
            got.stats.plan.contains("bind $i not sent to right: type"),
            "{}",
            got.stats.plan
        );
        assert!(staged.probes[1].key_lists().is_empty());
        assert_eq!(staged.counter("engine.bind.reduced") + staged.counter("engine.bind.declined"), 0);
    }
}

#[test]
fn a_quote_in_a_key_survives_the_sql() {
    let sources = pair(
        &[
            "CREATE TABLE small (id TEXT, tag TEXT)",
            "INSERT INTO small VALUES ('O''Hare', 'a'), ('k9', 'b'), ('it''s', 'c')",
        ],
        "TEXT",
        |i| match i {
            1 => "'O''Hare'".to_string(),
            2 => "'it''s'".to_string(),
            _ => format!("'k{}'", i),
        },
    );
    let (staged, got) = pair_against_oracle(&sources, PAIR);
    assert_eq!(got.stats.tuples, 3, "{}", got.stats.plan);
    assert_eq!(staged.counter("engine.bind.reduced"), 1);
    assert_eq!(staged.probes[1].key_lists()[0].len(), 3);
    let plan = staged.engine.query(PAIR).unwrap().stats.plan;
    assert!(plan.contains("[+ t.id IN (keys of $i)]"), "{}", plan);
}

#[test]
fn a_keyed_fetch_is_not_taken_for_the_collection() {
    // `crm`'s fragment has no selection of its own, so unkeyed it would
    // report the collection's cardinality. Keyed it ships 15 of 80 rows:
    // taken for the row count, that would swing the statistics, bump
    // their generation and evict the cached plan — on every query.
    let staged = rig(&statements(), true, optimizer(true, false));
    let stats = staged.engine.catalog().stats();
    let generation = stats.generation();
    for _ in 0..6 {
        let r = staged.engine.query(THREE_WAY).unwrap();
        assert!(r.stats.plan.contains("bind $i: 15 keys sent"), "{}", r.stats.plan);
    }
    assert_eq!(stats.rows("crm.customers"), Some(80));
    assert_eq!(stats.rows("billing.orders"), Some(210));
    assert_eq!(stats.generation(), generation);
    assert_eq!(staged.counter("engine.plan_cache.misses"), 1);
    assert_eq!(staged.counter("engine.plan_cache.hits"), 5);
    assert_eq!(staged.counter("engine.plan_cache.invalidations"), 0);
    assert_eq!(staged.counter("plan.feedback.gross"), 0);
}
