//! Source availability (§3.4): partial results, annotations, and the
//! stale-cache fallback under flaky and offline links.

mod common;

use nimble::core::{Catalog, Engine, UnavailablePolicy};
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble::xml::Document;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

fn feed(name: &str, items: &[&str]) -> Arc<dyn SourceAdapter> {
    let body: String = items
        .iter()
        .map(|i| format!("<item><v>{}</v></item>", i))
        .collect();
    Arc::new(
        XmlDocAdapter::new(name)
            .add_xml("data", &format!("<data>{}</data>", body))
            .unwrap(),
    )
}

/// Two feeds behind links; a view unions them so either can fail
/// independently.
fn setup() -> (Engine, Arc<SimulatedLink>, Arc<SimulatedLink>) {
    let a = SimulatedLink::new(feed("north", &["n1", "n2"]), LinkConfig::default());
    let b = SimulatedLink::new(feed("south", &["s1"]), LinkConfig::default());
    let catalog = Catalog::new();
    catalog.register_source(a.clone() as _).unwrap();
    catalog.register_source(b.clone() as _).unwrap();
    (Engine::new(Arc::new(catalog)), a, b)
}

#[test]
fn one_source_down_still_answers_the_rest() {
    let (engine, north, _south) = setup();
    engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    north.set_up(false);
    // A query touching only the healthy source is complete.
    let r = engine
        .query(r#"WHERE <data><item><v>$v</v></item></data> IN "south.data" CONSTRUCT <o>$v</o>"#)
        .unwrap();
    assert!(r.complete);
    // A query touching the dead source is partial and annotated.
    let r = engine
        .query(r#"WHERE <data><item><v>$v</v></item></data> IN "north.data" CONSTRUCT <o>$v</o>"#)
        .unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["north"]);
}

#[test]
fn stale_cache_bridges_outages() {
    let (engine, north, _south) = setup();
    engine.set_unavailable_policy(UnavailablePolicy::StaleCache);
    let q = r#"WHERE <data><item><v>$v</v></item></data> IN "north.data" CONSTRUCT <o>$v</o>"#;

    // Warm pass while up.
    let warm = engine.query(q).unwrap();
    assert!(!warm.stale);
    assert_eq!(warm.document.root().children().count(), 2);

    // Outage: the cached collection answers, marked stale.
    north.set_up(false);
    let bridged = engine.query(q).unwrap();
    assert!(bridged.stale);
    assert!(bridged.complete);
    assert!(bridged.document.root().deep_eq(&warm.document.root()));

    // Recovery: live again, not stale.
    north.set_up(true);
    let live = engine.query(q).unwrap();
    assert!(!live.stale);
}

#[test]
fn flaky_links_yield_partial_but_never_wrong_results() {
    let a = SimulatedLink::new(
        feed("north", &["n1", "n2"]),
        LinkConfig {
            fail_probability: 0.5,
            seed: 1234,
            ..LinkConfig::default()
        },
    );
    let b = SimulatedLink::new(
        feed("south", &["s1"]),
        LinkConfig {
            fail_probability: 0.5,
            seed: 5678,
            ..LinkConfig::default()
        },
    );
    let catalog = Catalog::new();
    catalog.register_source(a as _).unwrap();
    catalog.register_source(b as _).unwrap();
    let engine = Engine::with_config(
        Arc::new(catalog),
        nimble::core::EngineConfig {
            unavailable: UnavailablePolicy::SkipAndAnnotate,
            cache_nodes: 0, // no cache: isolate the policy itself
            ..nimble::core::EngineConfig::default()
        },
    );
    // Union view over both feeds via two separate queries per round.
    let mut complete_rounds = 0;
    let mut partial_rounds = 0;
    for _ in 0..40 {
        let r = engine
            .query(
                r#"WHERE <data><item><v>$v</v></item></data> IN "north.data"
                   CONSTRUCT <o>$v</o>"#,
            )
            .unwrap();
        if r.complete {
            complete_rounds += 1;
            // When complete, the answer is exactly right — never a
            // silently truncated set.
            assert_eq!(r.document.root().children().count(), 2);
        } else {
            partial_rounds += 1;
            assert_eq!(r.missing_sources, vec!["north"]);
            assert_eq!(r.document.root().children().count(), 0);
        }
    }
    // With p=0.5 both outcomes occur.
    assert!(complete_rounds > 5 && partial_rounds > 5);
}

#[test]
fn fail_policy_reports_the_source() {
    let (engine, north, _) = setup();
    north.set_up(false);
    let err = engine
        .query(r#"WHERE <data><item><v>$v</v></item></data> IN "north.data" CONSTRUCT <o>$v</o>"#)
        .unwrap_err();
    assert!(err.to_string().contains("north"), "{}", err);
}

#[test]
fn view_over_failed_source_uses_stale_materialization() {
    let (engine, north, _) = setup();
    engine.set_unavailable_policy(UnavailablePolicy::StaleCache);
    engine
        .catalog()
        .define_view(
            "northview",
            r#"WHERE <data><item><v>$v</v></item></data> IN "north.data"
               CONSTRUCT <n>$v</n>"#,
            Some(5),
        )
        .unwrap();
    engine.materialize_view("northview", Some(5)).unwrap();
    // Let the materialization go stale AND kill the source: the stale
    // copy is still better than nothing under StaleCache.
    engine.clock().advance(10);
    north.set_up(false);
    let r = engine
        .query(r#"WHERE <n>$v</n> IN "northview" CONSTRUCT <o>$v</o>"#)
        .unwrap();
    assert!(r.stale);
    assert_eq!(r.document.root().children().count(), 2);
}

/// An adapter with a bug: it describes `inner`'s collections, and once
/// `armed`, any call for data panics.
struct Panicking(Arc<dyn SourceAdapter>, AtomicBool);

impl Panicking {
    fn call(&self) -> Result<Arc<Document>, SourceError> {
        if self.1.load(Ordering::Relaxed) {
            panic!("adapter bug in {}", self.0.name());
        }
        self.0.fetch_collection("data")
    }
}

impl SourceAdapter for Panicking {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kind(&self) -> SourceKind {
        self.0.kind()
    }
    fn capabilities(&self) -> Capabilities {
        self.0.capabilities()
    }
    fn collections(&self) -> Vec<CollectionInfo> {
        self.0.collections()
    }
    fn execute(&self, _: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        self.call()
    }
    fn fetch_collection(&self, _: &str) -> Result<Arc<Document>, SourceError> {
        self.call()
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.0.estimated_rows(collection)
    }
}

#[test]
fn a_panicking_unit_fetches_its_round_once() {
    // One round fetches both units. The second unit's adapter panics:
    // the panic reaches the caller, and the first unit's source is
    // asked once, not again in a serial re-run of the round.
    let calls = Arc::new(AtomicU64::new(0));
    let north = common::Counting {
        inner: feed("north", &["n1", "n2"]),
        calls: calls.clone(),
        nodes: Arc::new(AtomicU64::new(0)),
    };
    let south = Arc::new(Panicking(feed("south", &["s1"]), AtomicBool::new(false)));
    let catalog = Catalog::new();
    catalog.register_source(Arc::new(north)).unwrap();
    catalog.register_source(south.clone()).unwrap();
    let engine = Engine::new(Arc::new(catalog));
    // Registration sampled both sources; from here the south one fails.
    south.1.store(true, Ordering::Relaxed);
    let before = calls.load(Ordering::Relaxed);
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.query(
            r#"WHERE <data><item><v>$v</v></item></data> IN "north.data",
                     <data><item><v>$w</v></item></data> IN "south.data"
               CONSTRUCT <o>$v$w</o>"#,
        )
    }));
    let Err(panic) = served else {
        panic!("the adapter's panic must reach the caller");
    };
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert_eq!(message, "adapter bug in south");
    assert_eq!(
        calls.load(Ordering::Relaxed) - before,
        1,
        "the north source was asked again"
    );
}

/// An adapter that, once armed, changes the engine's unavailability
/// policy to `to` during its own call and then reports itself down.
struct PolicyFlipping {
    inner: Arc<dyn SourceAdapter>,
    armed: AtomicBool,
    engine: OnceLock<Weak<Engine>>,
    to: UnavailablePolicy,
}

impl PolicyFlipping {
    fn new(name: &str, items: &[&str], to: UnavailablePolicy) -> Arc<PolicyFlipping> {
        Arc::new(PolicyFlipping {
            inner: feed(name, items),
            armed: AtomicBool::new(false),
            engine: OnceLock::new(),
            to,
        })
    }

    fn call(&self) -> Result<Arc<Document>, SourceError> {
        if !self.armed.load(Ordering::Relaxed) {
            return self.inner.fetch_collection("data");
        }
        if let Some(engine) = self.engine.get().and_then(Weak::upgrade) {
            engine.set_unavailable_policy(self.to);
        }
        Err(SourceError::unavailable(self.inner.name(), "down mid-serve"))
    }
}

impl SourceAdapter for PolicyFlipping {
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
    fn execute(&self, _: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        self.call()
    }
    fn fetch_collection(&self, _: &str) -> Result<Arc<Document>, SourceError> {
        self.call()
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

/// An engine over `sources`, under `policy`, that each flipping source
/// can reach.
fn flipping_engine(
    sources: Vec<Arc<dyn SourceAdapter>>,
    flipping: &[&Arc<PolicyFlipping>],
    policy: UnavailablePolicy,
) -> Arc<Engine> {
    let catalog = Catalog::new();
    for source in sources {
        catalog.register_source(source).unwrap();
    }
    let engine = Arc::new(Engine::new(Arc::new(catalog)));
    engine.set_unavailable_policy(policy);
    for source in flipping {
        source.engine.set(Arc::downgrade(&engine)).unwrap();
    }
    engine
}

#[test]
fn a_policy_changed_during_a_serve_does_not_reach_its_failures() {
    // The serve starts under `SkipAndAnnotate`; its source switches the
    // engine to `Fail` during the call and then fails. The failure takes
    // the policy the serve started with: a partial answer naming the
    // source. The next serve starts under `Fail` and fails.
    let south = PolicyFlipping::new("south", &["s1"], UnavailablePolicy::Fail);
    let engine = flipping_engine(vec![south.clone()], &[&south], UnavailablePolicy::SkipAndAnnotate);
    // Registration sampled the source; from here it fails.
    south.armed.store(true, Ordering::Relaxed);
    let text = r#"WHERE <data><item><v>$v</v></item></data> IN "south.data" CONSTRUCT <o>$v</o>"#;
    let r = engine.query(text).unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["south"]);
    let err = engine.query(text).unwrap_err();
    assert!(err.to_string().contains("south"), "{}", err);
}

#[test]
fn a_policy_changed_during_a_serve_does_not_reach_its_subqueries() {
    // Each of north's two items evaluates the nested query over south.
    // The first evaluation's call switches the engine to `Fail`; the
    // second still takes the policy the serve started with, so both skip
    // south and the answer is partial, not an error.
    let south = PolicyFlipping::new("south", &["s1"], UnavailablePolicy::Fail);
    let engine = flipping_engine(
        vec![feed("north", &["n1", "n2"]), south.clone()],
        &[&south],
        UnavailablePolicy::SkipAndAnnotate,
    );
    south.armed.store(true, Ordering::Relaxed);
    let text = r#"WHERE <data><item><v>$v</v></item></data> IN "north.data"
                  CONSTRUCT <o><v>$v</v>{ WHERE <data><item><v>$w</v></item></data> IN "south.data"
                                         CONSTRUCT <s>$w</s> }</o>"#;
    let r = engine.query(text).unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["south"]);
    assert_eq!(
        nimble::xml::to_string(&r.document.root()),
        "<results><o><v>n1</v></o><o><v>n2</v></o></results>"
    );
    let err = engine.query(text).unwrap_err();
    assert!(err.to_string().contains("south"), "{}", err);
}

#[test]
fn a_policy_changed_during_a_serve_does_not_reach_its_virtual_views() {
    // The serve starts under `Fail` and reads a view whose stored copy
    // has gone stale, so the view is evaluated over its source. The
    // source switches the engine to `StaleCache` during its call and
    // fails: the serve fails as it started, naming the source, and does
    // not fall back to the stored copy. The next serve starts under
    // `StaleCache` and answers stale.
    let north = PolicyFlipping::new("north", &["n1", "n2"], UnavailablePolicy::StaleCache);
    let engine = flipping_engine(vec![north.clone()], &[&north], UnavailablePolicy::Fail);
    engine
        .catalog()
        .define_view(
            "northview",
            r#"WHERE <data><item><v>$v</v></item></data> IN "north.data"
               CONSTRUCT <n>$v</n>"#,
            Some(5),
        )
        .unwrap();
    engine.materialize_view("northview", Some(5)).unwrap();
    engine.clock().advance(10);
    north.armed.store(true, Ordering::Relaxed);
    let text = r#"WHERE <n>$v</n> IN "northview" CONSTRUCT <o>$v</o>"#;
    let err = engine.query(text).unwrap_err();
    assert!(err.to_string().contains("north"), "{}", err);
    let r = engine.query(text).unwrap();
    assert!(r.stale);
    assert_eq!(
        nimble::xml::to_string(&r.document.root()),
        "<results><o>n1</o><o>n2</o></results>"
    );
}

#[test]
fn one_round_folds_a_skipped_view_and_a_pushed_fragment_into_one_report() {
    // One fetch round of two tasks: a virtual view over the downed north
    // feed, skipped under `SkipAndAnnotate`, and a fragment pushed to a
    // relational source. Everything each task found is in the report.
    let (engine, north, _) = setup();
    let crm = nimble::sources::relational::RelationalAdapter::from_statements(
        "crm",
        &[
            "CREATE TABLE customers (id INT, name TEXT)",
            "INSERT INTO customers VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd')",
        ],
    )
    .unwrap();
    engine.catalog().register_source(Arc::new(crm)).unwrap();
    engine
        .catalog()
        .define_view(
            "northview",
            r#"WHERE <data><item><v>$v</v></item></data> IN "north.data"
               CONSTRUCT <n>$v</n>"#,
            None,
        )
        .unwrap();
    engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    north.set_up(false);
    let r = engine
        .query(
            r#"WHERE <n>$v</n> IN "northview",
                     <row><id>$i</id><name>$m</name></row> IN "customers", $i > 1
               CONSTRUCT <o>$v$m</o>"#,
        )
        .unwrap();
    let s = &r.stats;
    assert!(!r.complete);
    assert_eq!(nimble::xml::to_string(&r.document.root()), "<results/>");
    // The view's one failed call to north, and the pushed fragment.
    assert_eq!(s.source_calls.count, 2);
    assert_eq!(s.fragments_pushed, 1);
    // The fragment's two customers; the skipped view's unit has none.
    assert_eq!(s.rows_fetched, 2);
    assert!(!s.stale);
    assert_eq!(s.missing_sources, vec!["north"]);
    // The outer round; the view's own round of one task is not recorded.
    let rounds: Vec<(&str, usize)> = s.rounds.iter().map(|r| (r.site, r.tasks)).collect();
    assert_eq!(rounds, vec![("fetch", 2)]);
    assert_eq!(s.worst_qerror_op.as_deref(), Some("NestedLoopJoin"));
}
