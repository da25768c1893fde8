//! E1 — Warehousing vs. virtual integration (paper §3.3).
//!
//! Claim quantified: virtual querying pays "a considerable performance
//! penalty because we need to contact the sources for every query",
//! while materializing views over the mediated schema recovers
//! warehouse-like latency at the cost of freshness. We sweep simulated
//! source latency and compare three arms:
//!
//! * `virtual_serial`   — every query contacts the sources one at a time.
//! * `virtual_parallel` — fragments fetched concurrently (latency
//!   tracks the slowest source instead of the sum).
//! * `materialized`     — the view is materialized locally (fresh).
//!
//! Expected shape: both virtual arms grow linearly with source latency
//! (parallel with ~half the slope here: two sources); `materialized`
//! stays flat near zero.

use nimble_bench::{customer_fixture, emit_jsonl, TablePrinter};
use nimble_trace::json;
use nimble_core::{Catalog, Engine, EngineConfig};
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::SourceAdapter;
use std::sync::Arc;
use std::time::Instant;

const QUERY: &str = r#"
    WHERE <c360><name>$n</name><region>$r</region><total>$t</total></c360> IN "customer360",
          $t > 400
    CONSTRUCT <hot><name>$n</name><total>$t</total></hot>
"#;

const VIEW: &str = r#"
    WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
          <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
    CONSTRUCT <c360><name>$n</name><region>$r</region><total>$t</total></c360>
"#;

fn build_engine(latency_ms: u64, parallel_fetch: bool) -> Engine {
    // Wrap each departmental database behind a link with real latency.
    let (base_catalog, _) = customer_fixture(300);
    let catalog = Catalog::new();
    for name in base_catalog.source_names() {
        let adapter = base_catalog.source(&name).unwrap();
        let link = SimulatedLink::new(adapter, LinkConfig {
            latency_ms,
            real_sleep: true,
            ..LinkConfig::default()
        });
        catalog.register_source(link as Arc<dyn SourceAdapter>).unwrap();
    }
    catalog.define_view("customer360", VIEW, Some(1_000_000)).unwrap();
    Engine::with_config(
        Arc::new(catalog),
        EngineConfig {
            parallel_fetch,
            ..EngineConfig::default()
        },
    )
}

fn mean_latency_ms(engine: &Engine, queries: usize) -> f64 {
    let mut total = 0.0;
    for _ in 0..queries {
        let t0 = Instant::now();
        let r = engine.query(QUERY).expect("query runs");
        assert!(r.complete);
        total += t0.elapsed().as_secs_f64() * 1e3;
    }
    total / queries as f64
}

fn main() {
    println!("E1: virtual vs. materialized integration (300 customers, 900 orders)\n");
    let table = TablePrinter::new(&[
        ("source_latency_ms", 18),
        ("virt_serial_ms", 16),
        ("virt_parallel_ms", 18),
        ("materialized_ms", 16),
    ]);
    let queries = 10;
    for latency in [0u64, 10, 25, 50, 100] {
        // Arm 1: virtual, serial fragment fetch.
        let engine = build_engine(latency, false);
        let serial_ms = mean_latency_ms(&engine, queries);

        // Arm 2: virtual, parallel fragment fetch.
        let engine = build_engine(latency, true);
        let parallel_ms = mean_latency_ms(&engine, queries);

        // Arm 3: materialized view over the mediated schema.
        let engine = build_engine(latency, true);
        engine.materialize_view("customer360", None).expect("materializes");
        let materialized_ms = mean_latency_ms(&engine, queries);

        table.row(&[
            latency.to_string(),
            format!("{:.2}", serial_ms),
            format!("{:.2}", parallel_ms),
            format!("{:.2}", materialized_ms),
        ]);
        emit_jsonl(
            "e1_virtual_vs_materialized",
            &json!({
                "latency_ms": latency,
                "virtual_serial_ms": serial_ms,
                "virtual_parallel_ms": parallel_ms,
                "materialized_ms": materialized_ms,
            }),
        );
    }
    println!(
        "\nshape check: both virtual arms grow with latency (parallel at the\n\
         slowest-source slope, serial at the sum); materialized stays flat\n\
         (freshness trade-off: the materialized arm serves the snapshot until refresh)"
    );
}
