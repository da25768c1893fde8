//! E6 — Engine-instance scaling and dispatch strategy (paper §2.1).
//!
//! Claim quantified: "Load balancing is provided; multiple instances of
//! the integration engine can be run simultaneously on one or more
//! servers", supporting "high-performance, scalable query processing".
//! Concurrent clients fire queries at clusters of 1–8 instances under
//! round-robin and least-loaded dispatch; we report throughput and p95
//! latency. Each source call carries a small real latency so instances
//! genuinely block.

use nimble_bench::{customer_fixture, emit_jsonl, percentile, TablePrinter};
use nimble_trace::json;
use nimble_core::{Catalog, DispatchStrategy, EngineCluster, EngineConfig};
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::SourceAdapter;
use std::sync::Arc;
use std::time::Instant;

const QUERY: &str = r#"
    WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
          <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
          $t > 480
    CONSTRUCT <hit>$n</hit>
"#;

fn build_catalog() -> Arc<Catalog> {
    let (base, _) = customer_fixture(200);
    let catalog = Catalog::new();
    for name in base.source_names() {
        let adapter = base.source(&name).unwrap();
        let link = SimulatedLink::new(
            adapter,
            LinkConfig {
                latency_ms: 3,
                real_sleep: true,
                ..LinkConfig::default()
            },
        );
        catalog.register_source(link as Arc<dyn SourceAdapter>).unwrap();
    }
    Arc::new(catalog)
}

fn main() {
    println!("E6: load balancing across engine instances (16 clients, 160 queries)\n");
    let table = TablePrinter::new(&[
        ("instances", 11),
        ("strategy", 13),
        ("queries/s", 11),
        ("p95_ms", 9),
        ("balance", 22),
    ]);
    let clients = 16;
    let queries_per_client = 10;
    for instances in [1usize, 2, 4, 8] {
        for (strategy, label) in [
            (DispatchStrategy::RoundRobin, "round_robin"),
            (DispatchStrategy::LeastLoaded, "least_loaded"),
        ] {
            let cluster = Arc::new(EngineCluster::new(
                build_catalog(),
                instances,
                2,
                EngineConfig::default(),
                strategy,
            ));
            let t0 = Instant::now();
            let mut handles = Vec::new();
            for _ in 0..clients {
                let cluster = Arc::clone(&cluster);
                handles.push(std::thread::spawn(move || {
                    let mut latencies = Vec::new();
                    for _ in 0..queries_per_client {
                        let q0 = Instant::now();
                        let r = cluster.query(QUERY).expect("query runs");
                        assert!(r.complete);
                        latencies.push(q0.elapsed().as_secs_f64() * 1e3);
                    }
                    latencies
                }));
            }
            let mut latencies: Vec<f64> = Vec::new();
            for h in handles {
                latencies.extend(h.join().expect("client thread"));
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let total = (clients * queries_per_client) as f64;
            let qps = total / elapsed;
            let p95 = percentile(&mut latencies, 95.0);
            let served = cluster.served_per_instance();
            table.row(&[
                instances.to_string(),
                label.to_string(),
                format!("{:.0}", qps),
                format!("{:.1}", p95),
                format!("{:?}", served),
            ]);
            emit_jsonl(
                "e6_load_balancing",
                &json!({
                    "instances": instances,
                    "strategy": label,
                    "qps": qps,
                    "p95_ms": p95,
                    "served": served,
                }),
            );
        }
    }
    println!(
        "\nshape check: throughput rises with instance count until client\n\
         concurrency saturates; round-robin splits evenly, least-loaded adapts"
    );
}
