//! E5 — Capability-aware compilation ablation (paper §2.1/§4).
//!
//! Claims quantified: the compiler "considers both the type of the
//! underlying source, information concerning the layout of the data
//! within the sources, and the presence of indices on the data", and
//! the optimizer "can address the varying query capabilities of
//! different data sources". We run a selective join query over the
//! customer fixture and ablate:
//!
//! * selection/projection pushdown on/off,
//! * same-source join pushdown on/off,
//! * the source-side index on/off.
//!
//! Metrics: rows shipped from sources to the mediator, rows scanned
//! inside the relational source, and end-to-end latency.

use nimble_bench::{emit_jsonl, TablePrinter};
use nimble_trace::json;
use nimble_core::{Catalog, Engine, OptimizerConfig};
use nimble_sources::relational::RelationalAdapter;
use std::sync::Arc;
use std::time::Instant;

/// A single ERP database holding both tables, so same-source join
/// pushdown has something to merge.
fn erp_fixture(customers: usize) -> (Arc<Catalog>, Arc<RelationalAdapter>) {
    let regions = ["NW", "SW", "NE", "SE"];
    let mut stmts = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE INDEX ON customers (id) USING HASH".to_string(),
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string(),
        "CREATE INDEX ON orders (cust_id) USING HASH".to_string(),
        "CREATE INDEX ON orders (total)".to_string(),
    ];
    let mut values = Vec::new();
    for i in 0..customers {
        values.push(format!("({}, 'customer{}', '{}')", i, i, regions[i % 4]));
        if values.len() == 500 || i == customers - 1 {
            stmts.push(format!("INSERT INTO customers VALUES {}", values.join(", ")));
            values.clear();
        }
    }
    let mut oid = 0;
    for i in 0..customers {
        for k in 0..3 {
            values.push(format!("({}, {}, {})", oid, i, ((i * 7 + k * 131) % 1000) as f64 / 2.0));
            oid += 1;
            if values.len() == 500 {
                stmts.push(format!("INSERT INTO orders VALUES {}", values.join(", ")));
                values.clear();
            }
        }
    }
    if !values.is_empty() {
        stmts.push(format!("INSERT INTO orders VALUES {}", values.join(", ")));
    }
    let adapter = Arc::new(
        RelationalAdapter::from_statements(
            "erp",
            &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
        )
        .expect("erp builds"),
    );
    let catalog = Catalog::new();
    catalog.register_source(Arc::clone(&adapter) as _).unwrap();
    (Arc::new(catalog), adapter)
}

const QUERY: &str = r#"
    WHERE <row><id>$i</id><name>$n</name><region>"NW"</region></row> IN "customers",
          <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
          $t > 450
    CONSTRUCT <hit><name>$n</name><total>$t</total></hit>
"#;

fn main() {
    println!("E5: pushdown / capability / index ablation (2000 customers, 6000 orders)\n");
    let table = TablePrinter::new(&[
        ("pushdown", 10),
        ("cap_joins", 11),
        ("index", 7),
        ("rows_shipped", 14),
        ("db_rows_scanned", 17),
        ("latency_ms", 12),
    ]);
    for pushdown in [true, false] {
        for capability_joins in [true, false] {
            if !pushdown && capability_joins {
                // Join pushdown requires fragments; skip the impossible cell.
                continue;
            }
            for index in [true, false] {
                let (catalog, adapter) = erp_fixture(2000);
                let adapters = vec![adapter];
                if !index {
                    for a in &adapters {
                        let db = a.database();
                        let mut db = db.write();
                        let names = db.table_names();
                        for t in names {
                            let cols: Vec<String> = db
                                .table(&t)
                                .map(|tb| {
                                    tb.indexed_columns().into_iter().map(|(c, _)| c).collect()
                                })
                                .unwrap_or_default();
                            for c in cols {
                                if let Some(tb) = db.table_mut(&t) {
                                    tb.drop_index(&c);
                                }
                            }
                        }
                    }
                }
                let engine = Engine::new(catalog);
                engine.set_optimizer(OptimizerConfig {
                    pushdown,
                    capability_joins,
                    ..OptimizerConfig::default()
                });
                // Measure steady state over a few runs.
                let runs = 5;
                let mut rows_shipped = 0;
                let mut latency = 0.0;
                for a in &adapters {
                    a.database().write().reset_stats();
                }
                for _ in 0..runs {
                    let t0 = Instant::now();
                    let r = engine.query(QUERY).expect("query runs");
                    latency += t0.elapsed().as_secs_f64() * 1e3;
                    rows_shipped += r.stats.rows_fetched;
                }
                let db_rows_scanned: u64 = adapters
                    .iter()
                    .map(|a| a.database().read().stats().rows_scanned)
                    .sum();
                table.row(&[
                    pushdown.to_string(),
                    capability_joins.to_string(),
                    index.to_string(),
                    (rows_shipped / runs as u64).to_string(),
                    (db_rows_scanned / runs as u64).to_string(),
                    format!("{:.2}", latency / runs as f64),
                ]);
                emit_jsonl(
                    "e5_pushdown_ablation",
                    &json!({
                        "pushdown": pushdown,
                        "capability_joins": capability_joins,
                        "index": index,
                        "rows_shipped": rows_shipped / runs as u64,
                        "db_rows_scanned": db_rows_scanned / runs as u64,
                        "latency_ms": latency / runs as f64,
                    }),
                );
            }
        }
    }
    println!(
        "\nshape check: full pushdown ships the fewest rows (selection + join at the\n\
         source); disabling pushdown ships whole collections; dropping the index\n\
         raises db_rows_scanned without changing what is shipped"
    );
}
