//! End-to-end observability: EXPLAIN ANALYZE agrees with actual
//! execution, metrics flow from engine to console to cluster, and the
//! query log captures what ran.

use nimble::algebra::ops::{FilterOp, MeteredOp, ValuesOp};
use nimble::algebra::{explain_analyze, run_to_vec, CmpOp, FunctionRegistry, ScalarExpr, Schema};
use nimble::core::{Catalog, DispatchStrategy, Engine, EngineCluster, EngineConfig};
use nimble::frontend::ManagementConsole;
use nimble::sources::csv::CsvAdapter;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::trace::{chrome_trace, json, MetricsRegistry, TraceId};
use nimble::xml::{to_string, Value};
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

/// Pull `actual rows=N` annotations out of an EXPLAIN ANALYZE listing,
/// top-down.
fn actual_rows(listing: &str) -> Vec<u64> {
    listing
        .lines()
        .filter_map(|l| {
            let at = l.find("actual rows=")?;
            let rest = &l[at + "actual rows=".len()..];
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
    assert!(listing.contains("open="), "listing:\n{}", listing);
}

#[test]
fn explain_analyze_rows_match_filtered_plan() {
    // Drive the algebra directly, so each metered node's count is known:
    // Metered(Filter(Metered(Values))).
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
    let scan = MeteredOp::new(Box::new(ValuesOp::new(schema, tuples)));
    let filter = FilterOp::new(
        Box::new(scan),
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::Col(1), ScalarExpr::lit(6i64)),
        Arc::new(FunctionRegistry::with_builtins()),
    );
    let mut op = MeteredOp::new(Box::new(filter));
    let rows = run_to_vec(&mut op).unwrap();
    assert_eq!(rows.len(), 3);

    let listing = explain_analyze(&op);
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
    let r = engine.query_profiled(JOIN_QUERY).unwrap();
    assert!(r.stats.trace_id > 0);
    assert!(!r.stats.spans.is_empty());

    let json = chrome_trace(&r.stats.spans, TraceId(r.stats.trace_id), engine.instance());
    let parsed: json::Value =
        json::from_str(&json).expect("chrome export must be valid JSON");
    let events = parsed["traceEvents"].as_array().unwrap();
    // One complete ("X") event per span, every one tagged with the
    // query's trace id and this engine's instance name.
    assert_eq!(events.len(), r.stats.spans.len());
    let tid = TraceId(r.stats.trace_id).to_string();
    for ev in events {
        assert_eq!(ev["ph"], "X", "event: {}", ev);
        assert!(ev["ts"].as_f64().unwrap() >= 0.0);
        assert!(ev["dur"].as_f64().unwrap() >= 0.0);
        assert_eq!(ev["args"]["trace_id"], tid.as_str());
        assert_eq!(ev["args"]["instance"], engine.instance());
    }
    // Every phase the stats report appears as an event whose duration
    // (µs) is the phase timing (ms) the profile reported.
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
    assert_eq!(rec.trace_id, TraceId(r.stats.trace_id));
    assert_eq!(rec.instance, engine.instance());
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
    assert_eq!(parsed["trace_id"], rec.trace_id.to_string().as_str());
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
fn profiling_on_off_results_are_byte_identical() {
    // Per-operator metering and allocation accounting are observers:
    // the same query with profiling forced on must construct the same
    // document, tuple for tuple, as the plain path.
    let engine = Engine::new(catalog());
    let plain = engine.query(JOIN_QUERY).unwrap();
    let profiled = engine.query_profiled(JOIN_QUERY).unwrap();
    assert_eq!(
        nimble::xml::to_string(&plain.document.root()),
        nimble::xml::to_string(&profiled.document.root()),
    );
    assert_eq!(plain.stats.tuples, profiled.stats.tuples);
    // Row conservation: the metered root materialized exactly the
    // tuples the result reports.
    let listing = engine.explain_analyze(JOIN_QUERY).unwrap();
    let rows = actual_rows(&listing);
    assert_eq!(rows[0] as usize, profiled.stats.tuples, "listing:\n{}", listing);
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
    engine.query_profiled(JOIN_QUERY).unwrap();

    let records = engine.flight_recorder().records();
    let rec = &records[0];
    if nimble::trace::alloc::enabled() {
        assert!(rec.alloc_bytes > 0);
        assert!(rec.alloc_peak_bytes <= rec.alloc_bytes);
    }
    // A profiled cost-based query gets plan-quality scoring: a worst
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
        records.iter().map(|r| r.instance.as_str()).collect();
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
        assert_eq!(rec.trace_id, TraceId(r.stats.trace_id));
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
    assert!(listing.contains("actual rows=16"), "{}", listing);
}
