//! Provenance benchmark: what does per-tuple lineage tracking cost,
//! and does it stay semantically invisible?
//!
//! Three questions over the customer fixture's join suite:
//!
//! 1. **Differential** — with `track_lineage` on vs. off, are the
//!    constructed documents byte-identical and the source-call counts
//!    equal? (Tracking must never change answers or fetch work.)
//! 2. **Attribution** — with tracking on, does every answer's lineage
//!    name exactly the sources its data came from (`attribution_ok`)?
//! 3. **Overhead** — mean time per query with tracking on over
//!    tracking off (`lineage_overhead_ratio`), per suite query and
//!    aggregated; the committed artifact documents the < 10% promise.
//!
//! Writes `BENCH_provenance.json` at the repo root and appends a
//! JSON-lines record under `target/experiments/`. `--quick` (or
//! `NIMBLE_BENCH_QUICK=1`) shrinks the fixture and run counts for the
//! regression sentinel (`cargo xtask bench-check`) and the CI smoke
//! step, which fail on `differential_ok`/`attribution_ok` = false.

use nimble_bench::{customer_fixture, emit_jsonl, write_bench_provenance, TablePrinter};
use nimble_trace::json;
use nimble_core::{Engine, EngineConfig, OptimizerConfig, QueryResult};
use nimble_xml::to_string;
use std::sync::Arc;
use std::time::Instant;

/// Unwrap an experiment-infrastructure result without a panic path
/// (the lint ratchet counts `expect` even in binaries).
fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("exp_provenance: {}: {}", what, e);
            std::process::exit(1);
        }
    }
}

/// The join suite: every query draws on at least two sources, so each
/// answer's lineage must name a multi-source set.
const SUITE: [(&str, &str, &[&str]); 3] = [
    (
        "two_way_join",
        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                 <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 $t > 200
           CONSTRUCT <hit>$n</hit>"#,
        &["billing", "crm"],
    ),
    (
        "three_way_join",
        r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
                 <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                 <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
                 $t > 300, $sev > 1
           CONSTRUCT <atrisk><name>$n</name><sev>$sev</sev></atrisk>
           ORDER-BY $n"#,
        &["billing", "crm", "support"],
    ),
    (
        "press_join",
        r#"WHERE <releases><item><company>$n</company><h>$h</h></item></releases> IN "releases",
                 <row><name>$n</name><region>$r</region></row> IN "customers"
           CONSTRUCT <mention><name>$n</name><region>$r</region></mention>
           ORDER-BY $n"#,
        &["crm", "press"],
    ),
];

/// Sorted, deduplicated contributing-source names of answer `i`.
fn answer_sources(r: &QueryResult, i: usize) -> Vec<String> {
    let mut v: Vec<String> = r
        .why(i)
        .unwrap_or_default()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    v.sort();
    v.dedup();
    v
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("NIMBLE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (customers, runs) = if quick { (200, 20) } else { (500, 100) };

    let (catalog, _) = customer_fixture(customers);
    let engine_with = |track: bool| {
        Engine::with_config(
            Arc::clone(&catalog),
            EngineConfig {
                optimizer: OptimizerConfig {
                    track_lineage: track,
                    ..OptimizerConfig::default()
                },
                ..EngineConfig::default()
            },
        )
    };
    let off = engine_with(false);
    let on = engine_with(true);

    // Correctness passes first: differential equivalence and exact
    // per-answer attribution, on the same engines the timing loops use.
    let mut differential_ok = true;
    let mut attribution_ok = true;
    let mut answers_attributed: u64 = 0;
    for (name, q, expected) in SUITE {
        let r_off = need(off.query(q), "suite query (off)");
        let r_on = need(on.query(q), "suite query (on)");
        let same_doc = to_string(&r_off.document.root()) == to_string(&r_on.document.root());
        let same_calls = r_off.stats.source_calls == r_on.stats.source_calls;
        if !same_doc || !same_calls || r_off.provenance.is_some() {
            differential_ok = false;
            eprintln!(
                "differential failure on {}: same_doc={} same_calls={} off_prov={}",
                name,
                same_doc,
                same_calls,
                r_off.provenance.is_some()
            );
        }
        match &r_on.provenance {
            Some(prov) => {
                answers_attributed += prov.answers.len() as u64;
                for i in 0..prov.answers.len() {
                    if answer_sources(&r_on, i) != expected {
                        attribution_ok = false;
                        eprintln!(
                            "attribution failure on {} answer {}: {:?} != {:?}",
                            name,
                            i,
                            answer_sources(&r_on, i),
                            expected
                        );
                        break;
                    }
                }
            }
            None => {
                attribution_ok = false;
                eprintln!("attribution failure on {}: no provenance with tracking on", name);
            }
        }
    }

    println!(
        "lineage tracking, {} customers (mean over {} runs{}): differential_ok={} attribution_ok={}",
        customers,
        runs,
        if quick { ", quick" } else { "" },
        differential_ok,
        attribution_ok,
    );
    let table = TablePrinter::new(&[
        ("query", 16),
        ("answers", 9),
        ("off_us", 10),
        ("on_us", 10),
        ("overhead", 10),
    ]);
    let mut suite_json = json::Map::new();
    let mut total_off_us = 0.0;
    let mut total_on_us = 0.0;
    for (name, q, _) in SUITE {
        // Interleave the two modes so slow machine drift (frequency
        // scaling, background load) cancels out of the ratio instead of
        // landing entirely on whichever mode ran second.
        let mut off_total = 0.0;
        let mut on_total = 0.0;
        let mut answers = 0;
        for _ in 0..runs {
            let t = Instant::now();
            need(off.query(q), "timing query (off)");
            off_total += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = need(on.query(q), "timing query (on)");
            on_total += t.elapsed().as_secs_f64();
            answers = r.provenance.as_ref().map(|p| p.answers.len()).unwrap_or(0);
        }
        let off_us = off_total * 1e6 / runs as f64;
        let on_us = on_total * 1e6 / runs as f64;
        total_off_us += off_us;
        total_on_us += on_us;
        let ratio = on_us / off_us;
        table.row(&[
            name.to_string(),
            answers.to_string(),
            format!("{:.1}", off_us),
            format!("{:.1}", on_us),
            format!("{:.3}", ratio),
        ]);
        suite_json.insert(
            name.to_string(),
            json!({
                "answers": answers,
                "off_us_per_query": off_us,
                "on_us_per_query": on_us,
                "overhead_ratio": ratio,
            }),
        );
    }
    let overall = total_on_us / total_off_us;
    let spilled = on.metrics_snapshot().gauge("engine.provenance.spilled_sets");
    println!(
        "\nsuite overhead: on {:.1}us vs off {:.1}us per pass ({:+.1}%), {} spilled lineage sets",
        total_on_us,
        total_off_us,
        (overall - 1.0) * 100.0,
        spilled,
    );

    let record = json!({
        "experiment": "provenance",
        "customers": customers,
        "runs": runs,
        "quick": quick,
        "differential_ok": differential_ok,
        "attribution_ok": attribution_ok,
        "answers_attributed": answers_attributed,
        "suite": json::Value::Object(suite_json),
        "lineage_overhead_ratio": overall,
        "spilled_sets": spilled,
        "tracked_queries": on.metrics_snapshot().counter("engine.provenance.tracked"),
    });
    write_bench_provenance(&record);
    emit_jsonl("provenance", &record);
    if !differential_ok || !attribution_ok {
        std::process::exit(1);
    }
}
