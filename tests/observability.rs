//! End-to-end observability: EXPLAIN ANALYZE agrees with actual
//! execution, metrics flow from engine to console to cluster, and the
//! query log captures what ran.

mod common;

use common::Counting;
use nimble::algebra::ops::{FilterOp, ValuesOp};
use nimble::algebra::{explain, run_to_vec, CmpOp, FunctionRegistry, ScalarExpr, Schema};
use nimble::core::{
    Catalog, DispatchStrategy, Engine, EngineCluster, EngineConfig, OptimizerConfig, ServeReport, ShardSpec,
    ShardedCluster, UnavailablePolicy,
};
use nimble::frontend::ManagementConsole;
use nimble::sources::csv::CsvAdapter;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::SourceError;
use nimble::trace::{chrome_trace, json, MetricsRegistry, SpanView, TraceId};
use nimble::xml::{to_string, Document, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    c.register_source(Arc::new(
        RelationalAdapter::from_statements(
            "erp",
            &[
                "CREATE TABLE products (sku INT, pname TEXT, price FLOAT)",
                "INSERT INTO products VALUES \
                 (100, 'widget', 9.5), (200, 'gadget', 120.0), (300, 'gizmo', 45.0), \
                 (400, 'doohickey', 80.0)",
            ],
        )
        .unwrap(),
    ))
    .unwrap();
    c.register_source(Arc::new(
        CsvAdapter::new("pricing")
            .add_csv("discounts", "sku,pct\n100,10\n200,5\n300,25\n")
            .unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

const JOIN_QUERY: &str = r#"
    WHERE <row><sku>$s</sku><pname>$p</pname><price>$pr</price></row> IN "products",
          <row><sku>$s</sku><pct>$d</pct></row> IN "discounts",
          $pr > 10.0
    CONSTRUCT <offer><name>$p</name><discount>$d</discount></offer>
    ORDER-BY $p
"#;

/// Pull `[rows=N]` annotations out of an EXPLAIN listing, top-down.
fn actual_rows(listing: &str) -> Vec<u64> {
    listing
        .lines()
        .filter_map(|l| {
            let at = l.find("[rows=")?;
            let rest = &l[at + "[rows=".len()..];
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .collect()
}

#[test]
fn explain_analyze_rows_match_join_result() {
    let engine = Engine::new(catalog());
    let plain = engine.query(JOIN_QUERY).unwrap();
    let listing = engine.explain_analyze(JOIN_QUERY).unwrap();

    // Every operator in the plan carries an annotation...
    let rows = actual_rows(&listing);
    let operator_lines = listing
        .lines()
        .filter(|l| !l.starts_with("--") && l.contains("["))
        .count();
    assert_eq!(rows.len(), operator_lines, "listing:\n{}", listing);
    // ...and the root's actual row count equals the materialized result.
    assert_eq!(rows[0] as usize, plain.stats.tuples, "listing:\n{}", listing);
    // The phase spans rode along.
    assert!(listing.contains("query:"), "listing:\n{}", listing);
    assert!(listing.contains("execute:"), "listing:\n{}", listing);
}

#[test]
fn explain_analyze_rows_match_filtered_plan() {
    // Drive the algebra directly, so each node's count is known:
    // Filter(Values).
    let schema = Schema::new(vec!["region".into(), "total".into()]);
    let tuples: Vec<Vec<Value>> = [
        ("NW", 10i64),
        ("NW", 20),
        ("SE", 5),
        ("SE", 7),
        ("SW", 1),
    ]
    .iter()
    .map(|(r, t)| vec![Value::from(*r), Value::from(*t)])
    .collect();
    let scan = ValuesOp::new(schema, tuples);
    let mut op = FilterOp::new(
        Box::new(scan),
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(6i64)),
        Arc::new(FunctionRegistry::with_builtins()),
    );
    let rows = run_to_vec(&mut op).unwrap();
    assert_eq!(rows.len(), 3);

    let listing = explain(&op);
    let annotated = actual_rows(&listing);
    // Root (the filter) kept 3 of 5 scanned rows.
    assert_eq!(annotated, vec![3, 5], "listing:\n{}", listing);
}

#[test]
fn query_stats_report_phases_and_log_captures_queries() {
    let engine = Engine::new(catalog());
    let r = engine.query(JOIN_QUERY).unwrap();
    let phase_names: Vec<&str> = r.stats.phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        phase_names,
        vec!["parse", "analyze", "plan", "verify", "execute", "construct"]
    );
    assert!(r.stats.phases.iter().all(|(_, ms)| *ms >= 0.0));

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("engine.queries"), 1);
    assert_eq!(snap.histograms["engine.phase_us.execute"].count, 1);
    assert_eq!(snap.counter("source.calls.erp"), 1);
    assert_eq!(snap.counter("source.calls.pricing"), 1);

    let recent = engine.query_log().recent(10);
    assert_eq!(recent.len(), 1);
    assert_eq!(recent[0].tuples, r.stats.tuples);
    assert!(recent[0].complete);
}

#[test]
fn cache_hits_are_counted_and_timed() {
    // A repeat is served like any other query: counted, timed, logged
    // and fed to the workload monitor each time.
    let engine = Engine::new(catalog());
    let first = engine.query(JOIN_QUERY).unwrap();
    let repeat = engine.query(JOIN_QUERY).unwrap();
    assert_eq!(to_string(&repeat.document.root()), to_string(&first.document.root()));
    assert!(repeat.stats.elapsed_ms >= 0.0);

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("engine.queries"), 2);
    assert_eq!(snap.histograms["engine.query_us"].count, 2);
    let recent = engine.query_log().recent(10);
    assert_eq!(recent.len(), 2);
    let candidates = engine.monitor().candidates();
    assert!(candidates.iter().any(|c| c.name == "products" && c.frequency == 2));
}

#[test]
fn console_and_cluster_aggregate_metrics() {
    let engine = Arc::new(Engine::new(catalog()));
    engine.query(JOIN_QUERY).unwrap();
    let console = ManagementConsole::new(Arc::clone(&engine));
    let health = console.source_health();
    let erp = health.iter().find(|h| h.name == "erp").unwrap();
    assert_eq!(erp.calls, 1);
    assert_eq!(erp.failures, 0);

    let cluster = EngineCluster::new(
        catalog(),
        2,
        1,
        EngineConfig::default(),
        DispatchStrategy::RoundRobin,
    );
    for _ in 0..4 {
        cluster.query(JOIN_QUERY).unwrap();
    }
    let merged = cluster.metrics_snapshot();
    assert_eq!(merged.counter("engine.queries"), 4);
    assert_eq!(merged.histograms["engine.query_us"].count, 4);
    cluster.shutdown();
}

/// Catalog whose "pricing" source sits behind a [`SimulatedLink`], so
/// tests can take it down or charge latency.
fn linked_catalog() -> (Arc<Catalog>, Arc<SimulatedLink>) {
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
    let csv = Arc::new(
        CsvAdapter::new("pricing")
            .add_csv("discounts", "sku,pct\n100,10\n200,5\n300,25\n")
            .unwrap(),
    );
    let link = SimulatedLink::new(csv, LinkConfig { latency_ms: 2, ..LinkConfig::default() });
    let adapter: Arc<dyn nimble::sources::SourceAdapter> = link.clone();
    c.register_source(adapter).unwrap();
    (Arc::new(c), link)
}

#[test]
fn chrome_trace_export_is_valid_json_and_matches_phases() {
    let engine = Engine::new(catalog());
    let r = engine.query(JOIN_QUERY).unwrap();
    assert!(r.stats.trace_id > 0);
    let spans = SpanView::tree(r.stats.elapsed_ms, &r.stats.phases);

    let json = chrome_trace(&spans, TraceId(r.stats.trace_id), &r.stats.instance);
    let parsed: json::Value =
        json::from_str(&json).expect("chrome export must be valid JSON");
    let events = parsed["traceEvents"].as_array().unwrap();
    // One complete ("X") event per span, every one tagged with the
    // query's trace id and this engine's instance name.
    assert_eq!(events.len(), spans.len());
    let tid = TraceId(r.stats.trace_id).to_string();
    for ev in events {
        assert_eq!(ev["ph"], "X", "event: {}", ev);
        assert!(ev["ts"].as_f64().unwrap() >= 0.0);
        assert!(ev["dur"].as_f64().unwrap() >= 0.0);
        assert_eq!(ev["args"]["trace_id"], tid.as_str());
        assert_eq!(ev["args"]["instance"], &*r.stats.instance);
    }
    // Every phase the stats report appears as an event whose duration
    // (µs) is the phase timing (ms) the report holds.
    for (phase, ms) in &r.stats.phases {
        let ev = events
            .iter()
            .find(|e| e["name"] == phase.as_str())
            .unwrap_or_else(|| panic!("no event for phase {}", phase));
        let dur_us = ev["dur"].as_f64().unwrap();
        assert!(
            (dur_us - ms * 1e3).abs() < 1e-6,
            "{}: dur {}us vs phase {}ms",
            phase,
            dur_us,
            ms
        );
    }
    // The query log carries the same trace id, so the export, the log
    // line, and the stats all correlate.
    let recent = engine.query_log().recent(1);
    assert_eq!(recent[0].trace_id, r.stats.trace_id);
}

#[test]
fn failed_queries_are_flight_recorded_with_error_kind() {
    let (catalog, link) = linked_catalog();
    let engine = Engine::with_config(catalog, EngineConfig::default());
    link.set_up(false);
    let err = engine.query(JOIN_QUERY).unwrap_err();
    let msg = format!("{}", err);
    assert!(msg.contains("pricing"), "error: {}", msg);

    // Satellite: the failure is counted under the error-kind metric...
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("engine.query.error"), 1);
    assert_eq!(snap.counter("engine.query.error.source"), 1);

    // ...logged with the error-kind string and the query's trace id...
    let recent = engine.query_log().recent(1);
    let entry = &recent[0];
    let log_err = entry.error.clone().expect("log entry records the error");
    assert!(log_err.starts_with("source:"), "log error: {}", log_err);

    // ...and flight-recorded even though it failed fast.
    assert_eq!(engine.flight_recorder().len(), 1);
    let dump = engine.flight_recorder().dump();
    let rec: json::Value =
        json::from_str(dump.lines().next().unwrap()).expect("dump line is JSON");
    assert_eq!(rec["trace_id"], TraceId(entry.trace_id).to_string().as_str());
    assert_eq!(rec["complete"], false);
    assert!(rec["error"].as_str().unwrap().starts_with("source:"));
    // The refused link call is attributed to the query, so the dump
    // alone explains which source sank it.
    let calls = rec["source_calls"].as_array().unwrap();
    assert!(
        calls.iter().any(|c| c["source"] == "pricing" && c["ok"] == false),
        "calls: {:?}",
        calls
    );
}

#[test]
fn slow_queries_keep_full_evidence_for_offline_reconstruction() {
    // slow_query_ms = 0 makes every query "slow", so the keep decision
    // fires without wall-clock games.
    let config = EngineConfig { slow_query_ms: 0.0, ..EngineConfig::default() };
    let engine = Engine::with_config(catalog(), config);
    let r = engine.query(JOIN_QUERY).unwrap();

    let records = engine.flight_recorder().records();
    assert_eq!(records.len(), 1);
    let rec = &records[0];
    assert_eq!(rec.trace_id, r.stats.trace_id);
    assert_eq!(rec.instance, r.stats.instance);
    assert_eq!(rec.tuples, r.stats.tuples);
    assert!(rec.complete);
    // Full evidence rides along even though profiling was off: the
    // plan, the span tree, and every adapter call with row counts.
    assert!(rec.plan.contains("["), "plan: {}", rec.plan);
    assert!(rec.spans.iter().any(|s| s.name == "execute"));
    assert!(rec.source_calls.iter().any(|c| c.source == "erp" && c.ok && c.rows > 0));
    assert!(rec.source_calls.iter().any(|c| c.source == "pricing" && c.ok));

    // The dump round-trips as JSONL with the same correlates.
    let dump = engine.flight_recorder().dump();
    let parsed: json::Value =
        json::from_str(dump.lines().next().unwrap()).unwrap();
    assert_eq!(parsed["trace_id"], TraceId(rec.trace_id).to_string().as_str());
    assert!(!parsed["plan"].as_str().unwrap().is_empty());
    assert_eq!(parsed["spans"].as_array().unwrap().len(), rec.spans.len());
    assert_eq!(
        parsed["source_calls"].as_array().unwrap().len(),
        rec.source_calls.len()
    );
    // And the query log agrees on the trace id.
    assert_eq!(engine.query_log().recent(1)[0].trace_id, r.stats.trace_id);
}

#[test]
fn link_stats_surface_as_gauges() {
    let (catalog, link) = linked_catalog();
    let engine = Engine::with_config(catalog, EngineConfig::default());
    engine.query(JOIN_QUERY).unwrap();
    link.set_up(false);
    engine.query(JOIN_QUERY).unwrap_err();

    let stats = link.stats();
    assert!(stats.calls >= 2);
    assert_eq!(stats.failures, 1);

    // Explicit publication into a registry of the caller's choosing.
    link.publish_stats(engine.metrics());
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.gauge("link.calls.pricing"), stats.calls);
    assert_eq!(snap.gauge("link.failures.pricing"), stats.failures);
    assert_eq!(snap.gauge("link.charged_latency_ms.pricing"), stats.charged_latency_ms);

    // The link also mirrors its counters into the process-global
    // registry as they change (shared across tests, hence >=).
    let global = MetricsRegistry::global().snapshot();
    assert!(global.gauge("link.calls.pricing") >= stats.calls);
    assert!(global.gauge("link.failures.pricing") >= stats.failures);
}

#[test]
fn explain_analyze_is_a_plain_serve_rendered() {
    // EXPLAIN ANALYZE meters nothing of its own: its operator lines and
    // notes are a plain serve's plan (rounds aside, which it prints
    // apart), and a plain serve is scored as it is.
    let round = |l: &&str| l.starts_with("-- round:");
    let body = |text: &str| -> Vec<String> {
        text.lines()
            .skip_while(|l| !l.starts_with("-- ") || round(l))
            .filter(|l| !round(l))
            .map(str::to_string)
            .collect()
    };
    for track_lineage in [false, true] {
        let engine = Engine::new(catalog());
        engine.set_optimizer(OptimizerConfig { track_lineage, ..OptimizerConfig::default() });
        engine.query(JOIN_QUERY).unwrap();
        let before = engine.metrics_snapshot();
        let plain = engine.query(JOIN_QUERY).unwrap();
        let scored = engine.metrics_snapshot().diff(&before);
        let listing = engine.explain_analyze(JOIN_QUERY).unwrap();
        assert_eq!(body(&listing), body(&plain.stats.plan), "listing:\n{}", listing);
        assert!(listing.starts_with("query:"), "listing:\n{}", listing);
        let rows = actual_rows(&listing);
        assert_eq!(rows[0] as usize, plain.stats.tuples, "listing:\n{}", listing);
        assert!(plain.stats.worst_qerror_op.is_some(), "{:?}", plain.stats);
        assert!(plain.stats.worst_qerror >= 1.0, "{:?}", plain.stats);
        // The operators above the scans were scored too.
        let operators: Vec<&String> = scored
            .histograms
            .iter()
            .filter(|(name, h)| name.starts_with("plan.qerror.") && *name != "plan.qerror.scan" && h.count > 0)
            .map(|(name, _)| name)
            .collect();
        assert!(!operators.is_empty(), "{:?}", scored.histograms.keys());
    }
}

#[test]
fn query_allocation_accounting_is_conserved_across_phases() {
    if !nimble::trace::alloc::enabled() {
        return; // profile-alloc compiled out: nothing to account
    }
    let engine = Engine::new(catalog());
    let before = engine.metrics_snapshot();
    let r = engine.query(JOIN_QUERY).unwrap();
    let window = engine.metrics_snapshot().diff(&before);

    // The query allocated, and its peak cannot exceed its total (every
    // live byte above entry was allocated inside the query scope).
    assert!(r.stats.alloc_bytes > 0);
    assert!(r.stats.alloc_peak_bytes <= r.stats.alloc_bytes);

    // Phase scopes nest inside the query scope on the same thread, so
    // their byte counts can never sum past the query total.
    let phase_bytes: u64 = window
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("engine.phase_alloc.bytes."))
        .map(|(_, h)| h.sum)
        .sum();
    assert!(phase_bytes > 0, "phase allocation histograms are empty");
    assert!(
        phase_bytes <= r.stats.alloc_bytes,
        "phases {} bytes > query {} bytes",
        phase_bytes,
        r.stats.alloc_bytes
    );
}

#[test]
fn flight_records_carry_resource_accounting() {
    let config = EngineConfig { slow_query_ms: 0.0, ..EngineConfig::default() };
    let engine = Engine::with_config(catalog(), config);
    engine.query(JOIN_QUERY).unwrap();

    let records = engine.flight_recorder().records();
    let rec = &records[0];
    if nimble::trace::alloc::enabled() {
        assert!(rec.alloc_bytes > 0);
        assert!(rec.alloc_peak_bytes <= rec.alloc_bytes);
    }
    // A plain cost-based query gets plan-quality scoring: a worst
    // offender is named and its Q-error is at least 1 (perfect).
    assert!(rec.worst_qerror >= 1.0, "worst_qerror: {}", rec.worst_qerror);
    assert!(rec.worst_qerror_op.is_some());

    // The dump exposes the same numbers under the "resource" block.
    let dump = engine.flight_recorder().dump();
    let parsed: json::Value =
        json::from_str(dump.lines().next().unwrap()).unwrap();
    assert_eq!(
        parsed["resource"]["alloc_bytes"].as_u64().unwrap(),
        rec.alloc_bytes
    );
    assert!(parsed["resource"]["worst_qerror"].as_f64().unwrap() >= 1.0);
    assert_eq!(
        parsed["resource"]["worst_qerror_op"].as_str(),
        rec.worst_qerror_op.as_deref()
    );
}

#[test]
fn cluster_merges_flight_records_in_start_order() {
    let config = EngineConfig { slow_query_ms: 0.0, ..EngineConfig::default() };
    let cluster = EngineCluster::new(catalog(), 2, 1, config, DispatchStrategy::RoundRobin);
    for _ in 0..4 {
        cluster.query(JOIN_QUERY).unwrap();
    }
    let records = cluster.flight_records();
    assert_eq!(records.len(), 4);
    // Trace ids are minted from one process-wide counter, so the merged
    // view is in admission order...
    assert!(records.windows(2).all(|w| w[0].trace_id < w[1].trace_id));
    // ...and each record names the instance that served it.
    let instances: std::collections::BTreeSet<&str> =
        records.iter().map(|r| &*r.instance).collect();
    assert_eq!(instances.len(), 2, "round-robin spread over both engines");
    cluster.shutdown();
}

/// `crm`, `billing` and `support` joined on the customer id: small
/// enough to run hundreds of times, large enough that the planner binds
/// the 8 ticketed customers into the other two fragments.
fn three_source_catalog() -> Arc<Catalog> {
    let mut crm = vec!["CREATE TABLE customers (id INT, name TEXT)".to_string()];
    let mut billing = vec!["CREATE TABLE orders (oid INT, cust_id INT)".to_string()];
    let mut support = vec!["CREATE TABLE tickets (tid INT, cust_id INT)".to_string()];
    for i in 0..40 {
        crm.push(format!("INSERT INTO customers VALUES ({}, 'c{}')", i, i));
        billing.push(format!("INSERT INTO orders VALUES ({}, {}), ({}, {})", 2 * i, i, 2 * i + 1, i));
        if i % 5 == 0 {
            support.push(format!("INSERT INTO tickets VALUES ({}, {})", i / 5, i));
        }
    }
    let c = Catalog::new();
    for (name, stmts) in [("crm", crm), ("billing", billing), ("support", support)] {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        c.register_source(Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap()))
            .unwrap();
    }
    Arc::new(c)
}

const THREE_SOURCE_JOIN: &str = r#"
    WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
          <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders",
          <row><tid>$k</tid><cust_id>$i</cust_id></row> IN "tickets"
    CONSTRUCT <hit><n>$n</n><o>$o</o><k>$k</k></hit> ORDER-BY $o
"#;

#[test]
fn every_parallel_fetch_leaves_its_own_source_call_record() {
    // The fetches of one query share its call list and run beside each
    // other: a fetch must find its *own* source among the records added
    // during its call, not take another source's record for it.
    let config = EngineConfig { slow_query_ms: 0.0, ..EngineConfig::default() };
    let engine = Engine::with_config(three_source_catalog(), config);
    for run in 0..500 {
        let r = engine.query(THREE_SOURCE_JOIN).unwrap();
        assert_eq!(r.stats.tuples, 16);
        let records = engine.flight_recorder().records();
        let rec = records.last().unwrap();
        assert_eq!(rec.trace_id, r.stats.trace_id);
        let mut calls: Vec<(&str, &str, u64)> = rec
            .source_calls
            .iter()
            .map(|c| (c.source.as_str(), c.kind.as_str(), c.rows))
            .collect();
        calls.sort();
        // The driver's call is a plain execute; the two it restricts
        // say how many keys they carried.
        assert_eq!(
            calls,
            [
                ("billing", "execute bind=8", 16),
                ("crm", "execute bind=8", 8),
                ("support", "execute", 8)
            ],
            "run {}",
            run
        );
    }
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("engine.bind.reduced"), 500);
    assert_eq!(snapshot.counter("engine.bind.declined"), 0);
    let keys = &snapshot.histograms["engine.bind.keys"];
    assert_eq!((keys.count, keys.sum, keys.max), (500, 500 * 8, 8));
}

#[test]
fn explain_analyze_sets_estimated_against_actual_keys() {
    let engine = Engine::new(three_source_catalog());
    let listing = engine.explain_analyze(THREE_SOURCE_JOIN).unwrap();
    assert!(listing.contains("-- bind $i: support \u{2192} crm, billing (~8 keys)"), "{}", listing);
    assert!(listing.contains("-- bind $i: 8 keys sent (est ~8)"), "{}", listing);
    assert!(listing.contains("[rows=16]"), "{}", listing);
}

#[test]
fn failed_and_partial_streamed_serves_are_logged_kept_and_counted() {
    let (catalog, link) = linked_catalog();
    let engine = Engine::with_config(catalog, EngineConfig::default());
    // A text that does not parse, and a source that is down under `Fail`.
    assert!(engine.query_serialized("not xml-ql at all").is_err());
    link.set_up(false);
    assert!(engine.query_serialized(JOIN_QUERY).is_err());

    // Each failure is one log entry, one flight record, one count.
    let recent = engine.query_log().recent(10);
    let errors: Vec<&str> = recent.iter().map(|e| e.error.as_deref().unwrap_or("")).collect();
    assert_eq!(errors.len(), 2, "{:?}", errors);
    assert!(errors[0].starts_with("source:") && errors[1].starts_with("compile:"), "{:?}", errors);
    let kept = engine.flight_recorder().records();
    let kept_ids: Vec<u64> = kept.iter().map(|r| r.trace_id).collect();
    let logged_ids: Vec<u64> = recent.iter().rev().map(|r| r.trace_id).collect();
    assert_eq!(kept_ids, logged_ids);
    assert!(kept[1].source_calls.iter().any(|c| c.source == "pricing" && !c.ok), "{:?}", kept[1]);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("engine.query.error.compile"), 1);
    assert_eq!(snap.counter("engine.query.error.source"), 1);

    // Skipped, the source leaves a partial answer that says so (§3.4).
    engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    engine.query_serialized(JOIN_QUERY).unwrap();
    let kept = engine.flight_recorder().records();
    let partial = kept.last().unwrap();
    assert!(!partial.complete && partial.error.is_none(), "{:?}", partial);
    assert_eq!(partial.missing_sources, ["pricing"]);
    assert_eq!(engine.query_log().recent(1)[0].missing_sources, ["pricing"]);
    assert_eq!(engine.load(), 0);
}

#[test]
fn engine_queries_counts_every_serve_on_both_sinks() {
    for streamed in [false, true] {
        let engine = Engine::new(catalog());
        let serve = |text: &str| match streamed {
            true => engine.query_serialized(text).map(drop),
            false => engine.query(text).map(drop),
        };
        assert!(serve("not xml-ql at all").is_err());
        serve(JOIN_QUERY).unwrap();
        let snap = engine.metrics_snapshot();
        let counts = (snap.counter("engine.queries"), snap.counter("engine.query.error"));
        assert_eq!(counts, (2, 1), "streamed: {}", streamed);
        assert_eq!(engine.query_log().total(), 2);
    }
}

/// `batch_differential`'s catalog (`crates/core/tests`), each source
/// behind a [`Counting`] adapter sharing one call counter: customers and
/// 40 orders for five of them in `erp`, invoices in `billing`.
fn grammar_catalog() -> (Arc<Catalog>, Arc<AtomicU64>) {
    let customers = [("ada", "NW"), ("bob", "SW"), ("cyd", "NW"), ("dee", "SE"), ("eve", "SW"), ("fay", "NE")];
    let customers: Vec<String> =
        customers.iter().enumerate().map(|(i, (n, r))| format!("({}, '{}', '{}')", i + 1, n, r)).collect();
    let totals = [250, 40, 75, 8, 40, 249];
    let orders: Vec<String> = (0..40).map(|j| format!("({}, {}, {})", 10 + j, j % 5 + 1, totals[j % 6])).collect();
    let invoices: Vec<String> =
        ["(1, 30)", "(3, 5)", "(2, 90)", "(1, 12)", "(9, 3)", "(4, 7)", "(5, 61)"].map(String::from).to_vec();
    let erp = common::relational(
        "erp",
        &["CREATE TABLE customers (id INT, name TEXT, region TEXT)", "CREATE TABLE orders (oid INT, cust_id INT, total INT)"],
        &[("customers", customers), ("orders", orders)],
    );
    let billing =
        common::relational("billing", &["CREATE TABLE invoices (cust_id INT, amount INT)"], &[("invoices", invoices)]);
    let calls = Arc::new(AtomicU64::new(0));
    let c = Catalog::new();
    for inner in [erp as Arc<dyn nimble::sources::SourceAdapter>, billing] {
        let nodes = Arc::new(AtomicU64::new(0));
        c.register_source(Arc::new(Counting { inner, calls: Arc::clone(&calls), nodes })).unwrap();
    }
    (Arc::new(c), calls)
}

/// `batch_differential`'s query grammar: optional join to `orders`,
/// literal and bound regions, a threshold on the total, ORDER-BY, the
/// `invoices` fragment of a second source, and a selection on the join
/// variable `$i`.
fn grammar_queries() -> Vec<String> {
    let mut selections = vec![String::new()];
    for form in ["$i = K", "$i != K", "$i < K", "$i <= K", "$i > K", "$i >= K", "K < $i"] {
        for k in ["1", "3", "7"] {
            selections.push(format!(", {}", form.replace('K', k)));
        }
    }
    let mut queries = Vec::new();
    for join in [false, true] {
        let thresholds: &[&str] = if join { &["", "7", "8", "40", "249", "250"] } else { &[""] };
        for lit_region in ["", "<region>\"NW\"</region>"] {
            for bind_region in [false, true] {
                for threshold in thresholds {
                    for order in ["", " ORDER-BY $n", " ORDER-BY $i"] {
                        for cross in [false, true] {
                            for sel_i in &selections {
                                let mut pats = format!(
                                    "<row><id>$i</id><name>$n</name>{}{}</row> IN \"customers\"",
                                    lit_region,
                                    if bind_region { "<region>$r</region>" } else { "" },
                                );
                                let mut construct = String::from("<n>$n</n>");
                                let mut preds = String::new();
                                if join {
                                    pats.push_str(", <row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\"");
                                    construct.push_str("<t>$t</t>");
                                    if !threshold.is_empty() {
                                        preds = format!(", $t > {}", threshold);
                                    }
                                }
                                if cross {
                                    pats.push_str(", <row><cust_id>$i</cust_id><amount>$a</amount></row> IN \"invoices\"");
                                    construct.push_str("<a>$a</a>");
                                }
                                if bind_region {
                                    construct.push_str("<r>$r</r>");
                                }
                                queries.push(format!(
                                    "WHERE {}{}{} CONSTRUCT <hit>{}</hit>{}",
                                    pats, preds, sel_i, construct, order
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    queries
}

/// Each text of the grammar served into a result envelope and streamed,
/// on one engine; `each` gets both reports and the source calls each
/// serve made, by the [`Counting`] adapters' count.
fn serve_the_grammar(mut each: impl FnMut(&str, [(ServeReport, u64); 2])) {
    let (catalog, calls) = grammar_catalog();
    let engine = Engine::new(catalog);
    let queries = grammar_queries();
    assert_eq!(queries.len(), 3696);
    for text in &queries {
        let before = calls.load(Ordering::Relaxed);
        let tree = engine.query(text).unwrap().stats;
        let between = calls.load(Ordering::Relaxed);
        engine.query_serialized(text).unwrap();
        let streamed = engine.query_log().recent(1).remove(0);
        let after = calls.load(Ordering::Relaxed);
        each(text, [(tree, between - before), (streamed, after - between)]);
    }
}

#[test]
fn both_sinks_report_a_serve_alike() {
    let summary = |r: &ServeReport| {
        (r.tuples, r.source_calls.count, r.fragments_pushed, r.rows_fetched, r.complete, r.stale, r.missing_sources.clone())
    };
    serve_the_grammar(|text, [(tree, tree_calls), (streamed, streamed_calls)]| {
        // The log's newest entry is the streamed serve's own.
        assert!(streamed.trace_id > tree.trace_id, "{}", text);
        assert_eq!(summary(&tree), summary(&streamed), "{}", text);
        assert_eq!(tree.source_calls, tree_calls, "{}", text);
        assert_eq!(streamed.source_calls, streamed_calls, "{}", text);
    });
}

#[test]
fn the_stages_cover_the_serve() {
    // Summed over every serve, so that µs-scale queries cannot make the
    // bound flaky: a serve's stages are laps of one clock, and only its
    // bookkeeping falls outside them.
    let (mut staged, mut elapsed) = (0.0, 0.0);
    serve_the_grammar(|_, reports| {
        for (report, _) in &reports {
            staged += report.phases.iter().map(|(_, ms)| ms).sum::<f64>();
            elapsed += report.elapsed_ms;
        }
    });
    assert!(staged >= 0.95 * elapsed && staged <= elapsed, "stages {} ms of {} ms", staged, elapsed);
}

/// `w.events`, 40 rows of `(key, val)`, as an XML document source.
fn events_adapter() -> Arc<dyn nimble::sources::SourceAdapter> {
    let mut xml = String::from("<events>");
    for i in 0..40 {
        xml.push_str(&format!("<row><key>{}</key><val>{}</val></row>", i, i * 7 % 40));
    }
    xml.push_str("</events>");
    Arc::new(XmlDocAdapter::new("w").add_xml("events", &xml).unwrap())
}

const EVENTS: &str = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events" CONSTRUCT <e>$v</e>"#;

fn kept_config(unavailable: UnavailablePolicy) -> EngineConfig {
    EngineConfig { unavailable, slow_query_ms: 0.0, ..EngineConfig::default() }
}

/// `w.events` range-split four ways on `key`, every serve kept.
fn events_cluster(unavailable: UnavailablePolicy) -> ShardedCluster {
    let catalog = Catalog::new();
    catalog.register_source(events_adapter()).unwrap();
    let specs = [("events", ShardSpec::range("key", vec![10.0, 20.0, 30.0]))];
    ShardedCluster::build(Arc::new(catalog), kept_config(unavailable), &specs).unwrap()
}

/// What `engine` accounted for source `w` — calls, failures, errors,
/// latency observations — and the last kept serve's call records, as
/// `(source, ok)`.
fn w_accounts(engine: &Engine) -> ((u64, u64, u64, u64), Vec<(String, bool)>) {
    let snap = engine.metrics_snapshot();
    let latencies = snap.histograms.get("source.latency_us.w").map_or(0, |h| h.count);
    let counts =
        (snap.counter("source.calls.w"), snap.counter("source.failures.w"), snap.counter("source.errors.w"), latencies);
    let kept = engine.flight_recorder().records();
    let records = kept.last().unwrap().source_calls.iter().map(|c| (c.source.clone(), c.ok)).collect();
    (counts, records)
}

#[test]
fn a_sharded_outage_under_fail_is_one_failed_call_as_an_unsharded_one_is() {
    // Sharded: shard 1 of four is down, and the gather fails fast.
    let cluster = events_cluster(UnavailablePolicy::Fail);
    cluster.set_shard_alive(1, false);
    let err = cluster.query(EVENTS).unwrap_err().to_string();
    assert!(err.contains("w#shard1"), "{}", err);
    let sharded = w_accounts(cluster.coordinator());

    // Unsharded: the same source behind a link that is down.
    let link = SimulatedLink::new(events_adapter(), LinkConfig::default());
    let catalog = Catalog::new();
    catalog.register_source(link.clone() as Arc<dyn nimble::sources::SourceAdapter>).unwrap();
    let engine = Engine::with_config(Arc::new(catalog), kept_config(UnavailablePolicy::Fail));
    link.set_up(false);
    assert!(engine.query(EVENTS).is_err());
    let unsharded = w_accounts(&engine);

    // One call, one failure, one latency, one failed call record.
    let want = ((1, 1, 0, 1), vec![("w".to_string(), false)]);
    assert_eq!(unsharded, want);
    assert_eq!(sharded, want);
}

#[test]
fn a_gather_that_loses_two_shards_is_one_call_and_one_failure() {
    let cluster = events_cluster(UnavailablePolicy::SkipAndAnnotate);
    cluster.set_shard_alive(1, false);
    cluster.set_shard_alive(2, false);
    let r = cluster.query(EVENTS).unwrap();
    assert!(!r.complete);
    // Every lost shard stays named.
    assert_eq!(r.missing_sources, ["w#shard1", "w#shard2"]);
    assert_eq!(r.stats.source_calls.count, 1);
    assert_eq!(w_accounts(cluster.coordinator()), ((1, 1, 0, 1), vec![("w".to_string(), false)]));
    let console = ManagementConsole::new(Arc::clone(cluster.coordinator()));
    let health = console.source_health();
    let w = health.iter().find(|h| h.name == "w").unwrap();
    assert_eq!((w.calls, w.failures), (1, 1));
}

/// An adapter that fails every call with an error that is not
/// unavailability.
struct Erring(Arc<dyn nimble::sources::SourceAdapter>);

impl nimble::sources::SourceAdapter for Erring {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kind(&self) -> nimble::sources::SourceKind {
        self.0.kind()
    }
    fn capabilities(&self) -> nimble::sources::Capabilities {
        self.0.capabilities()
    }
    fn collections(&self) -> Vec<nimble::sources::CollectionInfo> {
        self.0.collections()
    }
    fn execute(&self, _: &nimble::sources::SourceQuery) -> Result<Arc<Document>, SourceError> {
        Err(SourceError::internal(self.name(), "corrupt page"))
    }
    fn fetch_collection(&self, _: &str) -> Result<Arc<Document>, SourceError> {
        Err(SourceError::internal(self.name(), "corrupt page"))
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.0.estimated_rows(collection)
    }
}

/// One serve's source calls, as each account has them: its kept
/// report's count, the `source.calls.*` counters' growth, the adapters'
/// own count (by `adapter_calls`), and the kept report's call records.
fn serve_accounts(engine: &Engine, adapter_calls: &dyn Fn() -> u64, serve: impl FnOnce()) -> [u64; 4] {
    let calls = |snap: &nimble::trace::MetricsSnapshot| -> u64 {
        snap.counters.iter().filter(|(name, _)| name.starts_with("source.calls.")).map(|(_, n)| n).sum()
    };
    let (before, adapters_before) = (engine.metrics_snapshot(), adapter_calls());
    serve();
    let after = engine.metrics_snapshot();
    let kept = engine.flight_recorder().records();
    let report = kept.last().unwrap();
    // No source failed or erred more often than it was called.
    for name in after.counters.keys() {
        let Some(source) = name.strip_prefix("source.failures.").or_else(|| name.strip_prefix("source.errors.")) else {
            continue;
        };
        let failed = after.counter(&format!("source.failures.{}", source))
            + after.counter(&format!("source.errors.{}", source));
        assert!(failed <= after.counter(&format!("source.calls.{}", source)), "{}: {:?}", source, after.counters);
    }
    [
        report.source_calls.count,
        calls(&after) - calls(&before),
        adapter_calls() - adapters_before,
        report.source_calls.len() as u64,
    ]
}

#[test]
fn every_call_path_accounts_one_call_alike() {
    // `crm`, `billing`, `support` (pushed fragments, a bind stage), an
    // XML feed behind a link (fetched and matched centrally) and a
    // source that errs, each behind one shared `Counting`.
    let calls = Arc::new(AtomicU64::new(0));
    let counted = |inner: Arc<dyn nimble::sources::SourceAdapter>| {
        Arc::new(Counting { inner, calls: Arc::clone(&calls), nodes: Arc::new(AtomicU64::new(0)) })
    };
    let (three, catalog) = (three_source_catalog(), Catalog::new());
    for name in ["crm", "billing", "support"] {
        catalog.register_source(counted(three.source(name).unwrap())).unwrap();
    }
    let feed = XmlDocAdapter::new("feed")
        .add_xml("items", "<items><item><v>1</v></item><item><v>2</v></item></items>")
        .unwrap()
        .add_xml("more", "<more><item><v>3</v></item></more>")
        .unwrap();
    let link = SimulatedLink::new(Arc::new(feed), LinkConfig::default());
    catalog.register_source(counted(link.clone())).unwrap();
    catalog.register_source(counted(Arc::new(Erring(events_adapter())))).unwrap();
    // Not pruned by the statistics: the driver is asked, and binds no key.
    let optimizer = OptimizerConfig { prune_unsat: false, ..OptimizerConfig::default() };
    let engine = Engine::with_config(Arc::new(catalog), EngineConfig { optimizer, ..kept_config(UnavailablePolicy::Fail) });
    let adapter_calls = || calls.load(Ordering::Relaxed);
    let serve = |text: &str, answers: bool| {
        let served = engine.query(text);
        assert_eq!(served.is_ok(), answers, "{}: {:?}", text, served.as_ref().err());
        if let Ok(r) = served {
            let kept = engine.flight_recorder().records();
            assert_eq!(r.stats.source_calls.count, kept.last().unwrap().source_calls.count, "{}", text);
        }
    };
    let items = r#"WHERE <items><item><v>$v</v></item></items> IN "feed.items" CONSTRUCT <v>$v</v>"#;
    let more = r#"WHERE <more><item><v>$v</v></item></more> IN "feed.more" CONSTRUCT <v>$v</v>"#;
    let unkeyed = THREE_SOURCE_JOIN.replace("IN \"tickets\"", "IN \"tickets\", $k > 1000");
    let cases: Vec<(&str, &str, UnavailablePolicy, bool, u64)> = vec![
        ("pushed fragment", r#"WHERE <row><id>$i</id></row> IN "customers" CONSTRUCT <i>$i</i>"#, UnavailablePolicy::Fail, true, 1),
        ("bind stage", THREE_SOURCE_JOIN, UnavailablePolicy::Fail, true, 3),
        ("bind target with no key", &unkeyed, UnavailablePolicy::Fail, true, 1),
        ("fetch+match", items, UnavailablePolicy::Fail, true, 1),
        ("adapter error", EVENTS, UnavailablePolicy::SkipAndAnnotate, false, 1),
    ];
    for (path, text, policy, answers, want) in cases {
        engine.set_unavailable_policy(policy);
        assert_eq!(serve_accounts(&engine, &adapter_calls, || serve(text, answers)), [want; 4], "{}", path);
    }
    link.set_up(false);
    let outages = [
        ("unavailable, Fail", items, UnavailablePolicy::Fail, false),
        ("unavailable, SkipAndAnnotate", items, UnavailablePolicy::SkipAndAnnotate, true),
        ("unavailable, StaleCache hit", items, UnavailablePolicy::StaleCache, true),
        ("unavailable, StaleCache miss", more, UnavailablePolicy::StaleCache, true),
    ];
    for (path, text, policy, answers) in outages {
        engine.set_unavailable_policy(policy);
        assert_eq!(serve_accounts(&engine, &adapter_calls, || serve(text, answers)), [1; 4], "{}", path);
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("source.stale_served.feed"), 1);
    assert_eq!(snap.counter("source.errors.w"), 1);

    // A sharded gather is one call, however many shard adapters it asks:
    // each node's `w` is counted here.
    for (policy, lost, answers) in [
        (UnavailablePolicy::SkipAndAnnotate, None, true),
        (UnavailablePolicy::SkipAndAnnotate, Some(3), true),
        (UnavailablePolicy::Fail, Some(3), false),
    ] {
        let cluster = events_cluster(policy);
        let shard_calls = Arc::new(AtomicU64::new(0));
        for k in 0..4 {
            let node = cluster.runtime().node(k).unwrap();
            let inner = node.catalog.source("w").unwrap();
            assert!(node.catalog.unregister_source("w"));
            let nodes = Arc::new(AtomicU64::new(0));
            node.catalog.register_source(Arc::new(Counting { inner, calls: Arc::clone(&shard_calls), nodes })).unwrap();
        }
        if let Some(k) = lost {
            cluster.set_shard_alive(k, false);
        }
        let coordinator = cluster.coordinator();
        let accounts = serve_accounts(coordinator, &|| shard_calls.load(Ordering::Relaxed), || {
            assert_eq!(cluster.query(EVENTS).is_ok(), answers, "{:?} lost {:?}", policy, lost);
        });
        let asked = if lost.is_some() { 3 } else { 4 };
        assert_eq!(accounts, [1, 1, asked, 1], "{:?} lost {:?}", policy, lost);
    }
}
