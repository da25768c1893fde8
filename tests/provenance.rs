//! End-to-end data provenance: lineage flows from source fragments
//! through a cross-source join and the §3.4 stale-cache fallback into
//! the answers, the flight recorder, the exporters, and the management
//! console.

use nimble::core::{Catalog, Engine, EngineConfig, OptimizerConfig, UnavailablePolicy};
use nimble::frontend::ManagementConsole;
use nimble::sources::csv::CsvAdapter;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::SourceAdapter;
use nimble::trace::{prometheus_text, query_log_jsonl};
use std::sync::Arc;

mod common;

const JOIN_QUERY: &str = r#"
    WHERE <row><sku>$s</sku><pname>$p</pname><price>$pr</price></row> IN "products",
          <row><sku>$s</sku><pct>$d</pct></row> IN "discounts"
    CONSTRUCT <offer><name>$p</name><discount>$d</discount></offer>
    ORDER-BY $p
"#;

/// An ERP source behind a controllable link, plus an always-up CSV
/// pricing source, under an engine with lineage tracking on and a
/// keep-everything flight recorder.
fn tracked_engine(policy: UnavailablePolicy) -> (Arc<Engine>, Arc<SimulatedLink>) {
    let c = Catalog::new();
    let erp = Arc::new(
        RelationalAdapter::from_statements(
            "erp",
            &[
                "CREATE TABLE products (sku INT, pname TEXT, price FLOAT)",
                "INSERT INTO products VALUES \
                 (100, 'widget', 9.5), (200, 'gadget', 120.0), (300, 'gizmo', 45.0)",
            ],
        )
        .unwrap(),
    );
    let link = SimulatedLink::new(erp, LinkConfig::default());
    c.register_source(Arc::clone(&link) as Arc<dyn SourceAdapter>)
        .unwrap();
    c.register_source(Arc::new(
        CsvAdapter::new("pricing")
            .add_csv("discounts", "sku,pct\n100,10\n200,5\n300,25\n")
            .unwrap(),
    ))
    .unwrap();
    let engine = Engine::with_config(
        Arc::new(c),
        EngineConfig {
            optimizer: OptimizerConfig {
                track_lineage: true,
                ..OptimizerConfig::default()
            },
            unavailable: policy,
            // Keep-everything flight recorder: every query retains its
            // evidence, so the assertions below can read it back.
            slow_query_ms: 0.0,
            ..EngineConfig::default()
        },
    );
    (Arc::new(engine), link)
}

#[test]
fn stale_fallback_marks_exactly_the_fallback_answers() {
    let (engine, link) = tracked_engine(UnavailablePolicy::StaleCache);

    // Warm run while the source is up: fully fresh lineage.
    let warm = engine.query(JOIN_QUERY).unwrap();
    assert!(warm.complete && !warm.stale);
    let prov = warm.provenance.as_ref().unwrap();
    assert_eq!(prov.answers.len(), 3);
    assert!(prov.stale_answers().is_empty());

    // Source down: the fragment is served from stale cache, and every
    // answer that flowed through the join is attributed to it.
    link.set_up(false);
    let r = engine.query(JOIN_QUERY).unwrap();
    assert!(r.complete && r.stale);
    let prov = r.provenance.as_ref().unwrap();
    assert_eq!(prov.stale_answers(), vec![0, 1, 2]);
    let units = r.why(1).unwrap();
    let erp = units.iter().find(|s| s.name == "erp").unwrap();
    assert!(erp.stale);
    assert!(erp.cache_age_ms.is_some());
    let pricing = units.iter().find(|s| s.name == "pricing").unwrap();
    assert!(!pricing.stale);

    // The per-source contribution table counts each answer once.
    let contrib = prov.contributions();
    assert!(contrib.iter().any(|(n, c)| n == "erp" && *c == 3));
    assert!(contrib.iter().any(|(n, c)| n == "pricing" && *c == 3));

    // Flight record: the stale query kept its affected-answer indices.
    let records = engine.flight_recorder().records();
    let rec = records.last().unwrap();
    assert!(rec.stale);
    assert_eq!(rec.affected_answers, vec![0, 1, 2]);
    assert!(rec.to_json().contains("\"affected_answers\":[0,1,2]"));

    // Query log JSONL carries the staleness verdict per entry.
    let jsonl = query_log_jsonl(&engine.query_log().recent(8));
    assert!(jsonl.lines().any(|l| l.contains("\"stale\":true")));
    assert!(jsonl.lines().any(|l| l.contains("\"stale\":false")));

    // Prometheus exposition includes the provenance counter family.
    let prom = prometheus_text(&engine.metrics_snapshot());
    assert!(prom.contains("engine_provenance_tracked"), "{}", prom);
    assert!(prom.contains("engine_provenance_stale_answers"), "{}", prom);
    assert!(prom.contains("engine_provenance_source_answers_erp"), "{}", prom);
    assert!(prom.contains("source_stale_served_erp"), "{}", prom);

    // The management console renders the contribution table.
    let console = ManagementConsole::new(Arc::clone(&engine));
    let rows = console.provenance();
    let erp_row = rows.iter().find(|row| row.name == "erp").unwrap();
    assert_eq!(erp_row.answers, 6, "both runs attributed 3 answers each");
    assert_eq!(erp_row.stale_served, 1);
    let report = console.render();
    assert!(report.contains("== provenance =="), "{}", report);
}

#[test]
fn skipped_sources_surface_in_provenance_and_flight_records() {
    let (engine, link) = tracked_engine(UnavailablePolicy::SkipAndAnnotate);
    link.set_up(false);
    let r = engine.query(JOIN_QUERY).unwrap();
    assert!(!r.complete);
    assert_eq!(r.missing_sources, vec!["erp"]);
    let prov = r.provenance.as_ref().unwrap();
    assert_eq!(prov.missing, vec!["erp"]);
    assert!(prov.answers.is_empty(), "nothing joined, nothing attributed");
    assert!(prov
        .sources
        .iter()
        .any(|s| s.name == "erp" && s.detail.starts_with("missing:")));

    let records = engine.flight_recorder().records();
    let rec = records.last().unwrap();
    assert!(!rec.complete);
    assert_eq!(rec.missing_sources, vec!["erp"]);
    assert!(rec.affected_answers.is_empty());
    assert!(rec.to_json().contains("\"missing_sources\":[\"erp\"]"));

    let jsonl = query_log_jsonl(&engine.query_log().recent(8));
    assert!(jsonl.lines().any(|l| l.contains("\"missing_sources\":[\"erp\"]")));
}

#[test]
fn three_source_answers_name_exactly_their_three_sources() {
    let (catalog, _) = common::customer_fixture(200);
    let engine = Engine::new(catalog);
    engine.set_optimizer(OptimizerConfig {
        track_lineage: true,
        ..OptimizerConfig::default()
    });
    let r = engine
        .query(
            r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
                     <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                     <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
                     $t > 300, $sev > 1
               CONSTRUCT <atrisk><name>$n</name><sev>$sev</sev></atrisk>
               ORDER-BY $n"#,
        )
        .unwrap();
    let answers = r.provenance.as_ref().unwrap().answers.len();
    assert_eq!(answers, r.document.root().child_element_count());
    assert!(answers > 0);
    for i in 0..answers {
        let mut names: Vec<String> = r.why(i).unwrap().iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names, ["billing", "crm", "support"], "answer {}", i);
    }
}
