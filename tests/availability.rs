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
/// policy to `Fail` during its own call and then reports itself down.
struct PolicyFlipping(Arc<dyn SourceAdapter>, AtomicBool, OnceLock<Weak<Engine>>);

impl PolicyFlipping {
    fn call(&self) -> Result<Arc<Document>, SourceError> {
        if !self.1.load(Ordering::Relaxed) {
            return self.0.fetch_collection("data");
        }
        if let Some(engine) = self.2.get().and_then(Weak::upgrade) {
            engine.set_unavailable_policy(UnavailablePolicy::Fail);
        }
        Err(SourceError::unavailable(self.0.name(), "down mid-serve"))
    }
}

impl SourceAdapter for PolicyFlipping {
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
fn a_policy_changed_during_a_serve_does_not_reach_its_failures() {
    // The serve starts under `SkipAndAnnotate`; its source switches the
    // engine to `Fail` during the call and then fails. The failure takes
    // the policy the serve started with: a partial answer naming the
    // source. The next serve starts under `Fail` and fails.
    let south = Arc::new(PolicyFlipping(
        feed("south", &["s1"]),
        AtomicBool::new(false),
        OnceLock::new(),
    ));
    let catalog = Catalog::new();
    catalog.register_source(south.clone()).unwrap();
    let engine = Arc::new(Engine::new(Arc::new(catalog)));
    engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    south.2.set(Arc::downgrade(&engine)).unwrap();
    // Registration sampled the source; from here it fails.
    south.1.store(true, Ordering::Relaxed);
    let text = r#"WHERE <data><item><v>$v</v></item></data> IN "south.data" CONSTRUCT <o>$v</o>"#;
    let r = engine.query(text).unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["south"]);
    let err = engine.query(text).unwrap_err();
    assert!(err.to_string().contains("south"), "{}", err);
}
