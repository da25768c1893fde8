//! E8 — Querying virtually-clean data (paper §3.2).
//!
//! Claim quantified: the cleaning system should "facilitate(s) efficient
//! query processing of virtually-clean data whenever possible". Two
//! ways to give queries clean data without touching sources:
//!
//! * `dynamic` — cleaning at query time: the join condition goes through
//!   registered normalization functions (`std_name($a) = std_name($b)`),
//!   which forces the mediator to fetch both collections whole and
//!   nested-loop them centrally.
//! * `replica` — the data administrator's offline arm: a cleaned replica
//!   is materialized once; queries hit it locally with hash joins over
//!   already-canonical keys.
//!
//! Metric: per-query latency and rows shipped, at increasing corpus
//! sizes. Expected shape: `dynamic` grows superlinearly (central
//! normalize-and-join over everything); `replica` stays near-flat, with
//! the cleaning cost paid once at replica-build time.

use nimble_bench::{emit_jsonl, TablePrinter};
use nimble_trace::json;
use nimble_cleaning::normalize::{NameStandardizer, Normalizer};
use nimble_cleaning::synth::{generate, SynthConfig};
use nimble_core::{Catalog, Engine};
use nimble_sources::csv::CsvAdapter;
use nimble_xml::Value;
use std::sync::Arc;
use std::time::Instant;

/// Build two CSV "departments" out of the synthetic corpus: names in
/// their raw (dirty) forms on both sides, sharing entities.
fn build_engine(entities: usize) -> Engine {
    let data = generate(&SynthConfig {
        entities,
        duplicate_rate: 1.0,
        sources: vec!["hr".into(), "payroll".into()],
        seed: 99,
        ..SynthConfig::default()
    });
    let mut hr = String::from("pname,dept\n");
    let mut payroll = String::from("pname,amount\n");
    for r in &data.records {
        let name = r.get("name").replace('"', "");
        match r.source.as_str() {
            "hr" => hr.push_str(&format!("\"{}\",eng\n", name)),
            _ => payroll.push_str(&format!("\"{}\",{}\n", name, 100)),
        }
    }
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(
            CsvAdapter::new("hr").add_csv("people", &hr).unwrap(),
        ))
        .unwrap();
    catalog
        .register_source(Arc::new(
            CsvAdapter::new("payroll").add_csv("salaries", &payroll).unwrap(),
        ))
        .unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine.register_function("std_name", |args| {
        Ok(Value::from(
            NameStandardizer
                .normalize(&args[0].atomize().lexical())
                .as_str(),
        ))
    });
    engine
}

const DYNAMIC_QUERY: &str = r#"
    WHERE <row><pname>$a</pname><dept>$d</dept></row> IN "people",
          <row><pname>$b</pname><amount>$amt</amount></row> IN "salaries",
          std_name($a) = std_name($b)
    CONSTRUCT <pay><who>$a</who><amt>$amt</amt></pay>
"#;

fn main() {
    println!("E8: dynamic cleaning vs. cleaned replica (per-query mean of 5)\n");
    let table = TablePrinter::new(&[
        ("entities", 10),
        ("arm", 10),
        ("latency_ms", 12),
        ("rows_shipped", 14),
        ("build_ms", 10),
    ]);
    for entities in [100usize, 400, 1600] {
        // Arm 1: dynamic cleaning at query time.
        let engine = build_engine(entities);
        let runs = 5;
        let mut latency = 0.0;
        let mut rows = 0;
        for _ in 0..runs {
            let t0 = Instant::now();
            let r = engine.query(DYNAMIC_QUERY).expect("dynamic query runs");
            latency += t0.elapsed().as_secs_f64() * 1e3;
            rows += r.stats.rows_fetched;
        }
        table.row(&[
            entities.to_string(),
            "dynamic".into(),
            format!("{:.2}", latency / runs as f64),
            (rows / runs as u64).to_string(),
            "-".into(),
        ]);
        emit_jsonl(
            "e8_virtually_clean",
            &json!({
                "entities": entities, "arm": "dynamic",
                "latency_ms": latency / runs as f64,
                "rows_shipped": rows / runs as u64,
            }),
        );

        // Arm 2: cleaned replica — normalize once into a joined view.
        // (The view pre-joins via the same function; queries then read
        // the local materialization.)
        let engine = build_engine(entities);
        engine
            .catalog()
            .define_view("clean_pay", DYNAMIC_QUERY, Some(u64::MAX))
            .unwrap();
        let t0 = Instant::now();
        engine.materialize_view("clean_pay", None).expect("replica builds");
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut latency = 0.0;
        let mut rows = 0;
        for _ in 0..runs {
            let t0 = Instant::now();
            let r = engine
                .query(
                    r#"WHERE <pay><who>$w</who><amt>$a</amt></pay> IN "clean_pay"
                       CONSTRUCT <p><w>$w</w><a>$a</a></p>"#,
                )
                .expect("replica query runs");
            latency += t0.elapsed().as_secs_f64() * 1e3;
            rows += r.stats.rows_fetched;
        }
        table.row(&[
            entities.to_string(),
            "replica".into(),
            format!("{:.2}", latency / runs as f64),
            (rows / runs as u64).to_string(),
            format!("{:.1}", build_ms),
        ]);
        emit_jsonl(
            "e8_virtually_clean",
            &json!({
                "entities": entities, "arm": "replica",
                "latency_ms": latency / runs as f64,
                "rows_shipped": rows / runs as u64,
                "build_ms": build_ms,
            }),
        );
    }
    println!(
        "\nshape check: dynamic latency grows superlinearly (central normalize + join);\n\
         replica queries stay near-flat, paying the cleaning once at build time"
    );
}
