//! The external consumer's view under hostile conditions: only public
//! APIs through the umbrella crate, malformed queries and a downed
//! source, and the requirement that what comes back is a structured
//! [`CoreError`] — never a panic, never a silent success.

use nimble::core::{Catalog, CoreError, Engine, EngineConfig};
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::SourceAdapter;
use nimble::trace::TraceId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run one query with panics caught: the error it must fail with.
fn structured_error(engine: &Engine, label: &str, query: &str) -> CoreError {
    match catch_unwind(AssertUnwindSafe(|| engine.query(query))) {
        Ok(Err(e)) => e,
        Ok(Ok(_)) => panic!("{}: hostile query unexpectedly succeeded", label),
        Err(_) => panic!("{}: PANICKED — must be a structured error", label),
    }
}

#[test]
fn hostile_queries_fail_with_structured_errors() {
    let stmts = [
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
        "INSERT INTO customers VALUES (1, 'ada', 'NW')",
    ];
    let cat = Catalog::new();
    cat.register_source(Arc::new(
        RelationalAdapter::from_statements("erp", &stmts).unwrap(),
    ))
    .unwrap();
    let engine = Engine::new(Arc::new(cat));

    let hostile: &[(&str, &str)] = &[
        ("syntax", "WHERE <row"),
        ("no patterns", "WHERE 1 = 1 CONSTRUCT <o/>"),
        (
            "unknown collection",
            r#"WHERE <row><id>$i</id></row> IN "nope" CONSTRUCT <o>$i</o>"#,
        ),
        (
            "unbound var",
            r#"WHERE <row><id>$i</id></row> IN "customers" CONSTRUCT <o>$zzz</o>"#,
        ),
        (
            "dup binding",
            r#"WHERE <row><id>$x</id><name>$x</name></row> IN "customers" CONSTRUCT <o>$x</o>"#,
        ),
        (
            "source var bound later",
            r#"WHERE <i>$x</i> IN $o, <order/> ELEMENT_AS $o IN "customers" CONSTRUCT <r/>"#,
        ),
        ("empty", ""),
        ("garbage", "\u{0}\u{1}<<<$$$"),
    ];
    for (label, q) in hostile {
        let e = structured_error(&engine, label, q);
        assert!(!e.to_string().is_empty(), "{}: {:?}", label, e);
    }

    // A well-formed query still works and EXPLAIN carries a plan.
    let r = engine
        .query(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers"
               CONSTRUCT <hit><n>$n</n></hit> ORDER-BY $n"#,
        )
        .unwrap();
    assert!(r.complete && r.stats.plan.contains("Sort"), "plan: {}", r.stats.plan);
}

/// A downed `SimulatedLink` yields a structured error, an error-kind
/// metric, and a flight record correlated with the query log by trace id.
#[test]
fn downed_link_fails_structured_and_is_explained_by_the_flight_record() {
    let stmts = [
        "CREATE TABLE customers (id INT, name TEXT)",
        "INSERT INTO customers VALUES (1, 'ada')",
    ];
    let inner = Arc::new(RelationalAdapter::from_statements("erp", &stmts).unwrap());
    let link = SimulatedLink::new(inner, LinkConfig::default());
    let cat = Catalog::new();
    let adapter: Arc<dyn SourceAdapter> = link.clone();
    cat.register_source(adapter).unwrap();
    let engine = Engine::with_config(Arc::new(cat), EngineConfig::default());
    link.set_up(false);

    let q = r#"WHERE <row><id>$i</id></row> IN "customers" CONSTRUCT <o>$i</o>"#;
    structured_error(&engine, "downed link", q);

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("engine.query.error"), 1);
    assert_eq!(snap.counter("engine.query.error.source"), 1);
    let entry = &engine.query_log().recent(1)[0];
    assert!(entry.error.as_deref().unwrap().starts_with("source:"));
    let dump = engine.flight_recorder().dump();
    let tid = TraceId(entry.trace_id).to_string();
    assert!(dump.contains(&tid), "dump must carry the log's trace id");
    assert!(dump.contains("source_calls"));
}

/// View refreshes under hostile conditions: an unknown view, a source
/// that goes away between two refreshes, a table replaced underneath
/// the marks — structured errors or a visible full recompute, the stored
/// view never half-updated.
#[test]
fn hostile_refreshes_fail_structured_or_recompute() {
    let stmts = [
        "CREATE TABLE customers (id INT, name TEXT)",
        "INSERT INTO customers VALUES (1, 'ada'), (2, 'bob')",
    ];
    let inner = Arc::new(RelationalAdapter::from_statements("erp", &stmts).unwrap());
    let link = SimulatedLink::new(inner.clone(), LinkConfig::default());
    let cat = Catalog::new();
    let adapter: Arc<dyn SourceAdapter> = link.clone();
    cat.register_source(adapter).unwrap();
    cat.define_view(
        "names",
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers" CONSTRUCT <n>$n</n>"#,
        Some(5),
    )
    .unwrap();
    let engine = Engine::with_config(Arc::new(cat), EngineConfig::default());
    let refresh = |name: &str| match catch_unwind(AssertUnwindSafe(|| engine.materialize_view(name, None))) {
        Ok(outcome) => outcome,
        Err(_) => panic!("refreshing {:?} PANICKED — must be a structured error", name),
    };
    assert!(matches!(refresh("nope"), Err(CoreError::UnknownCollection(_))));
    refresh("names").unwrap();
    let stored = || engine.views().peek("names").unwrap();
    let first = stored().document;

    // The link drops: the refresh fails, the stored copy is the same `Arc`.
    link.set_up(false);
    assert!(matches!(refresh("names"), Err(CoreError::Source(_))));
    assert!(Arc::ptr_eq(&first, &stored().document));
    assert_eq!(engine.metrics_snapshot().counter("engine.view.refresh.failed.source"), 1);
    link.set_up(true);

    // The table is replaced by a shorter one of another generation: the
    // marks no longer describe it, so the view is rebuilt — not appended to.
    {
        let db = inner.database();
        let mut db = db.write();
        let mut table = nimble::relational::Table::new(
            "customers",
            db.table("customers").unwrap().columns.clone(),
        );
        table.insert(vec![nimble::xml::Atomic::Int(9), nimble::xml::Atomic::Str("zed".into())]).unwrap();
        db.add_table(table);
    }
    refresh("names").unwrap();
    assert_eq!(stored().refreshed_by, "full (generation)");
    assert_eq!(nimble::xml::to_string(&stored().document.root()), "<results><n>zed</n></results>");
    // Same length as the mark, other rows: the generation says so.
    {
        let db = inner.database();
        let mut db = db.write();
        let mut table = nimble::relational::Table::new(
            "customers",
            db.table("customers").unwrap().columns.clone(),
        );
        table.insert(vec![nimble::xml::Atomic::Int(3), nimble::xml::Atomic::Str("kim".into())]).unwrap();
        db.add_table(table);
    }
    refresh("names").unwrap();
    assert_eq!(stored().refreshed_by, "full (generation)");
    assert_eq!(nimble::xml::to_string(&stored().document.root()), "<results><n>kim</n></results>");
}
