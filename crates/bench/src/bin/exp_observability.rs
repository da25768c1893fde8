//! Observability benchmark: per-phase timings for a fixed query suite,
//! plus the profiling-overhead check.
//!
//! Two questions:
//!
//! 1. Where does query time go? Run a fixed suite over the customer
//!    fixture and report the `engine.phase_us.*` window per query
//!    (parse → analyze → plan → verify → execute → construct).
//! 2. What does observability cost? A 1000-query loop with `profile`
//!    off (always-on metrics only) vs. forced per-operator profiling.
//!    The profile-off loop is the default engine path, so its time per
//!    query *is* the production overhead story.
//!
//! Writes `BENCH_observability.json` at the repo root (per-phase
//! timings + loop numbers + allocation and plan-quality blocks) so
//! later PRs can track the trajectory, and appends the usual JSON-lines
//! record under `target/experiments/`. `--quick` (or
//! `NIMBLE_BENCH_QUICK=1`) shrinks the fixture and run counts for the
//! regression sentinel (`cargo xtask bench-check`).
//!
//! The suite engine runs with `verify_plans` explicitly on (the release
//! default gates verification off, which made the verify phase report a
//! flat 0 in earlier artifacts), and phases are reported at microsecond resolution — the verify phase is
//! real but small, and `mean_ms` rounding was hiding it.

use nimble_bench::{
    customer_fixture, emit_jsonl, observe_window, phase_summary, write_bench_observability,
    TablePrinter,
};
use nimble_core::{Engine, EngineConfig, OptimizerConfig};
use nimble_trace::{chrome_trace, json, prometheus_text, query_log_jsonl, TraceId};
use std::time::Instant;

/// Unwrap an experiment-infrastructure result without a panic path
/// (the lint ratchet counts `expect` even in binaries).
fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("exp_observability: {}: {}", what, e);
            std::process::exit(1);
        }
    }
}

const SUITE: [(&str, &str); 3] = [
    (
        "two_way_join",
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 $t > 200
           CONSTRUCT <hit>$n</hit>"#,
    ),
    (
        "three_way_join",
        r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
                 <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
                 $t > 300, $sev > 1
           CONSTRUCT <atrisk><name>$n</name><sev>$sev</sev></atrisk>
           ORDER-BY $n"#,
    ),
    (
        "press_match",
        r#"WHERE <releases><item><company>$c</company><h>$h</h></item></releases> IN "releases"
           CONSTRUCT <mention>$c</mention>"#,
    ),
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("NIMBLE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (customers, runs, loop_n) = if quick { (200, 8, 200) } else { (500, 20, 1000) };

    let (catalog, _) = customer_fixture(customers);
    // Verification on explicitly: the release default turns
    // `verify_plans` off, and this experiment exists to price the
    // verify phase, not to skip it.
    let optimizer = OptimizerConfig {
        verify_plans: true,
        ..OptimizerConfig::default()
    };
    let engine = Engine::with_config(
        catalog,
        EngineConfig {
            optimizer,
            ..EngineConfig::default()
        },
    );

    // Warm every source path once.
    for (_, q) in SUITE {
        need(engine.query(q), "suite query");
    }

    println!(
        "per-phase timings, {} customers (mean over {} runs{})",
        customers,
        runs,
        if quick { ", quick" } else { "" }
    );
    let table = TablePrinter::new(&[
        ("query", 16),
        ("phase", 12),
        ("runs", 6),
        ("mean_us", 10),
        ("total_ms", 10),
    ]);
    let mut suite_json = json::Map::new();
    for (name, q) in SUITE {
        let (_, window) = observe_window(engine.metrics(), || {
            for _ in 0..runs {
                need(engine.query(q), "suite query");
            }
        });
        let mut phases_json = json::Map::new();
        for (phase, count, mean_ms, total_ms) in phase_summary(&window) {
            table.row(&[
                name.to_string(),
                phase.clone(),
                count.to_string(),
                format!("{:.1}", mean_ms * 1e3),
                format!("{:.1}", total_ms),
            ]);
            phases_json.insert(
                phase,
                json!({
                    "runs": count,
                    "mean_us": mean_ms * 1e3,
                    "mean_ms": mean_ms,
                    "total_ms": total_ms,
                }),
            );
        }
        suite_json.insert(name.to_string(), json::Value::Object(phases_json));
    }

    // Allocation accounting: per-query heap traffic from the engine's
    // own `AllocScope` (zeros when the `profile-alloc` feature of
    // nimble-trace is compiled out).
    let mut alloc_per_query = json::Map::new();
    let mut bytes_sum = 0.0;
    let mut peak_sum = 0.0;
    for (name, q) in SUITE {
        let r = need(engine.query(q), "alloc probe");
        bytes_sum += r.stats.alloc_bytes as f64;
        peak_sum += r.stats.alloc_peak_bytes as f64;
        alloc_per_query.insert(
            name.to_string(),
            json!({
                "alloc_bytes": r.stats.alloc_bytes,
                "alloc_peak_bytes": r.stats.alloc_peak_bytes,
            }),
        );
    }
    let alloc_json = json!({
        "enabled": nimble_trace::alloc::enabled(),
        "query_bytes_mean": bytes_sum / SUITE.len() as f64,
        "query_peak_bytes_mean": peak_sum / SUITE.len() as f64,
        "per_query": json::Value::Object(alloc_per_query),
    });
    println!(
        "\nallocation: enabled={}, mean {:.0} bytes/query (peak {:.0})",
        nimble_trace::alloc::enabled(),
        bytes_sum / SUITE.len() as f64,
        peak_sum / SUITE.len() as f64,
    );

    // Overhead loop: always-on metrics (profile off) vs. forced
    // per-operator metering, same query.
    let loop_query = SUITE[0].1;
    let n = loop_n;
    let t = Instant::now();
    for _ in 0..n {
        need(engine.query(loop_query), "loop query");
    }
    let off_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let t = Instant::now();
    for _ in 0..n {
        need(engine.query_profiled(loop_query), "loop query");
    }
    let on_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    println!(
        "\n{}-query loop: profile off {:.1}us/query, profile on {:.1}us/query ({:+.1}%)",
        n,
        off_us,
        on_us,
        (on_us / off_us - 1.0) * 100.0
    );

    // Exporter cost: render each export format over the data the run
    // actually produced, timing the rendering alone. These are the
    // costs an operator pays per scrape / per trace download, not per
    // query — the per-query cost is the loop above.
    let profiled = need(engine.query_profiled(SUITE[1].1), "profiled query");
    let t = Instant::now();
    let chrome = chrome_trace(
        &profiled.stats.spans,
        TraceId(profiled.stats.trace_id),
        engine.instance(),
    );
    let chrome_us = t.elapsed().as_secs_f64() * 1e6;
    let snap = engine.metrics_snapshot();
    let t = Instant::now();
    let prom = prometheus_text(&snap);
    let prom_us = t.elapsed().as_secs_f64() * 1e6;
    let entries = engine.query_log().recent(256);
    let t = Instant::now();
    let jsonl = query_log_jsonl(&entries);
    let jsonl_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let flight_dump = engine.flight_recorder().dump();
    let flight_us = t.elapsed().as_secs_f64() * 1e6;
    println!(
        "\nexporters: chrome {:.0}us/{}B, prometheus {:.0}us/{}B, \
         query-log jsonl {:.0}us/{} entries, flight dump {:.0}us/{} records",
        chrome_us,
        chrome.len(),
        prom_us,
        prom.len(),
        jsonl_us,
        entries.len(),
        flight_us,
        engine.flight_recorder().len(),
    );

    // One EXPLAIN ANALYZE, for the record.
    let analyzed = need(engine.explain_analyze(SUITE[1].1), "explain analyze");
    println!("\nEXPLAIN ANALYZE (three_way_join):\n{}", analyzed);

    // Plan-quality telemetry the runs above populated: Q-error
    // histograms (stored as centi-Q; reported as plain Q) plus the
    // decision-flip counters.
    let qsnap = engine.metrics_snapshot();
    let mut qerror_json = json::Map::new();
    for (hist_name, h) in &qsnap.histograms {
        if let Some(kind) = hist_name.strip_prefix("plan.qerror.") {
            qerror_json.insert(
                kind.to_string(),
                json!({
                    "count": h.count,
                    "median_q": h.p50() as f64 / 100.0,
                    "p99_q": h.p99() as f64 / 100.0,
                    "max_q": h.max as f64 / 100.0,
                }),
            );
        }
    }
    println!(
        "plan quality: {} operator kinds scored, flips build_side={} parallel={} gross_feedback={}",
        qerror_json.len(),
        qsnap.counter("plan.flips.build_side"),
        qsnap.counter("plan.flips.parallel"),
        qsnap.counter("plan.feedback.gross"),
    );
    let plan_quality_json = json!({
        "qerror": json::Value::Object(qerror_json),
        "flips": json!({
            "build_side": qsnap.counter("plan.flips.build_side"),
            "parallel": qsnap.counter("plan.flips.parallel"),
            "gross_feedback": qsnap.counter("plan.feedback.gross"),
        }),
    });

    let record = json!({
        "experiment": "observability",
        "customers": customers,
        "runs": runs,
        "quick": quick,
        "alloc": alloc_json,
        "plan_quality": plan_quality_json,
        "suite": suite_json,
        "loop_profile_off_us_per_query": off_us,
        "loop_profile_on_us_per_query": on_us,
        "queries_total": engine.metrics_snapshot().counter("engine.queries"),
        "export": json!({
            "chrome_trace_us": chrome_us,
            "chrome_trace_bytes": chrome.len(),
            "prometheus_us": prom_us,
            "prometheus_bytes": prom.len(),
            "query_log_jsonl_us": jsonl_us,
            "query_log_entries": entries.len(),
            "flight_dump_us": flight_us,
            "flight_dump_bytes": flight_dump.len(),
            "flight_records": engine.flight_recorder().len(),
        }),
    });
    write_bench_observability(&record);
    emit_jsonl("observability", &record);
}
