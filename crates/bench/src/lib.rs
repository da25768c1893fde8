//! # nimble-bench
//!
//! Experiment harnesses and shared fixtures.
//!
//! The paper is an industrial abstract with no quantitative evaluation,
//! so there are no tables to match; instead each binary here quantifies
//! one claim or named challenge from the text (see DESIGN.md §4 and
//! EXPERIMENTS.md):
//!
//! * `exp_e1_virtual_vs_materialized` — §3.3's performance trade-off.
//! * `exp_e2_view_selection`          — §3.3's view-selection challenge.
//! * `exp_e3_availability`            — §3.4's partial results.
//! * `exp_e4_cleaning`                — §3.2's concordance payoff.
//! * `exp_e5_pushdown_ablation`       — the capability-aware compiler.
//! * `exp_e6_load_balancing`          — engine-instance scaling.
//! * `exp_observability`              — E9: phase accounting and the
//!   cost of metering (see DESIGN.md §9).
//!
//! E7 (the physical algebra and front-end costs) is timed by the serve
//! benchmark's per-layer metrics (`benchmark/`, EXPERIMENTS.md E7).
//!
//! Every binary prints an aligned table and appends machine-readable
//! JSON lines under `target/experiments/`.

pub mod baseline;

use nimble_core::Catalog;
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_trace::{json, MetricsRegistry, MetricsSnapshot};
use std::io::Write;
use std::sync::Arc;

/// Append a JSON-lines record for an experiment run.
pub fn emit_jsonl(experiment: &str, record: &json::Value) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}.jsonl", experiment));
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(f, "{}", record);
    }
}

/// Run `f` with the registry snapshotted before and after, returning
/// `f`'s result plus the metrics window (diff) it produced. Experiment
/// binaries wrap each measured section in this so per-phase timings and
/// counters land next to the wall-clock numbers they already report.
pub fn observe_window<T>(
    registry: &MetricsRegistry,
    f: impl FnOnce() -> T,
) -> (T, MetricsSnapshot) {
    let before = registry.snapshot();
    let out = f();
    (out, registry.snapshot().diff(&before))
}

/// Per-phase timing summary of a metrics window: `(phase, count,
/// mean_ms, total_ms)` per `engine.phase_us.*` histogram, in pipeline
/// order where known.
pub fn phase_summary(window: &MetricsSnapshot) -> Vec<(String, u64, f64, f64)> {
    const ORDER: [&str; 6] = ["parse", "analyze", "plan", "verify", "execute", "construct"];
    let mut rows: Vec<(String, u64, f64, f64)> = window
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let phase = name.strip_prefix("engine.phase_us.")?;
            Some((
                phase.to_string(),
                h.count,
                h.mean() / 1e3,
                h.sum as f64 / 1e3,
            ))
        })
        .collect();
    rows.sort_by_key(|(phase, ..)| {
        ORDER
            .iter()
            .position(|p| p == phase)
            .unwrap_or(ORDER.len())
    });
    rows
}

/// Write a repo-root benchmark artifact (overwritten per run) so
/// successive PRs can track the perf trajectory.
///
/// When `NIMBLE_BENCH_OUT_DIR` is set, the artifact lands in that
/// directory instead (same basename). The regression sentinel
/// (`cargo xtask bench-check`) uses this to collect a fresh run
/// without clobbering the checked-in repo-root baselines.
pub fn write_bench_artifact(file: &str, record: &json::Value) {
    let rendered = json::to_string_pretty(record);
    let path = match std::env::var("NIMBLE_BENCH_OUT_DIR") {
        Ok(dir) if !dir.is_empty() => {
            let _ = std::fs::create_dir_all(&dir);
            std::path::Path::new(&dir)
                .join(std::path::Path::new(file).file_name().unwrap_or_default())
        }
        _ => std::path::PathBuf::from(file),
    };
    let _ = std::fs::write(path, rendered + "\n");
}

/// Write the observability benchmark artifact.
pub fn write_bench_observability(record: &json::Value) {
    write_bench_artifact("BENCH_observability.json", record);
}

/// Write the provenance benchmark artifact.
pub fn write_bench_provenance(record: &json::Value) {
    write_bench_artifact("BENCH_provenance.json", record);
}

/// Simple aligned table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Print the header and remember column widths.
    pub fn new(columns: &[(&str, usize)]) -> TablePrinter {
        let mut header = String::new();
        for (name, w) in columns {
            header.push_str(&format!("{:>width$}", name, width = w));
        }
        println!("{}", header);
        println!("{}", "-".repeat(header.len()));
        TablePrinter {
            widths: columns.iter().map(|(_, w)| *w).collect(),
        }
    }

    /// Print one row of pre-formatted cells.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(self.widths.iter()) {
            line.push_str(&format!("{:>width$}", cell, width = w));
        }
        println!("{}", line);
    }
}

/// Percentile over a sample (p in 0..=100).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx]
}

/// Bench-fixture unwrap: the fixture is deterministic, so a failure
/// means the harness itself is broken — report and exit rather than
/// unwind through a timing loop.
fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench fixture: {}: {}", what, e);
            std::process::exit(2);
        }
    }
}

/// The shared customer-integration fixture: three departmental
/// relational databases plus an XML press feed, scaled by `customers`.
pub fn customer_fixture(customers: usize) -> (Arc<Catalog>, Vec<Arc<RelationalAdapter>>) {
    let catalog = Catalog::new();
    let mut adapters = Vec::new();

    // crm.customers
    let mut stmts = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE INDEX ON customers (id) USING HASH".to_string(),
    ];
    let regions = ["NW", "SW", "NE", "SE"];
    let mut values = Vec::new();
    for i in 0..customers {
        values.push(format!(
            "({}, 'customer{}', '{}')",
            i,
            i,
            regions[i % regions.len()]
        ));
        if values.len() == 500 || i == customers - 1 {
            stmts.push(format!("INSERT INTO customers VALUES {}", values.join(", ")));
            values.clear();
        }
    }
    let crm = Arc::new(need(
        RelationalAdapter::from_statements(
            "crm",
            &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
        ),
        "crm builds",
    ));
    adapters.push(Arc::clone(&crm));
    need(catalog.register_source(crm), "register crm");

    // billing.orders — ~3 orders per customer.
    let mut stmts = vec![
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string(),
        "CREATE INDEX ON orders (cust_id) USING HASH".to_string(),
        "CREATE INDEX ON orders (total)".to_string(),
    ];
    let mut values = Vec::new();
    let mut oid = 0;
    for i in 0..customers {
        for k in 0..3 {
            values.push(format!(
                "({}, {}, {})",
                oid,
                i,
                ((i * 7 + k * 131) % 1000) as f64 / 2.0
            ));
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
    let billing = Arc::new(need(
        RelationalAdapter::from_statements(
            "billing",
            &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
        ),
        "billing builds",
    ));
    adapters.push(Arc::clone(&billing));
    need(catalog.register_source(billing), "register billing");

    // support.tickets — every 5th customer has a ticket.
    let mut stmts = vec!["CREATE TABLE tickets (tid INT, cust_id INT, severity INT)".to_string()];
    let mut values = Vec::new();
    for i in (0..customers).step_by(5) {
        values.push(format!("({}, {}, {})", i, i, i % 3 + 1));
        if values.len() == 500 {
            stmts.push(format!("INSERT INTO tickets VALUES {}", values.join(", ")));
            values.clear();
        }
    }
    if !values.is_empty() {
        stmts.push(format!("INSERT INTO tickets VALUES {}", values.join(", ")));
    }
    let support = Arc::new(need(
        RelationalAdapter::from_statements(
            "support",
            &stmts.iter().map(String::as_str).collect::<Vec<_>>(),
        ),
        "support builds",
    ));
    adapters.push(Arc::clone(&support));
    need(catalog.register_source(support), "register support");

    // press.releases — one item per 10th customer.
    let mut xml = String::from("<releases>");
    for i in (0..customers).step_by(10) {
        xml.push_str(&format!(
            "<item><company>customer{}</company><h>headline {}</h></item>",
            i, i
        ));
    }
    xml.push_str("</releases>");
    let press = Arc::new(need(
        XmlDocAdapter::new("press").add_xml("releases", &xml),
        "press feed builds",
    ));
    need(catalog.register_source(press), "register press");

    (Arc::new(catalog), adapters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_core::Engine;

    #[test]
    fn fixture_is_queryable() {
        let (catalog, _) = customer_fixture(50);
        let engine = Engine::new(catalog);
        let r = engine
            .query(
                r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
                         <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
                         $t > 200
                   CONSTRUCT <hit>$n</hit>"#,
            )
            .unwrap();
        assert!(r.complete);
        assert!(r.document.root().children().count() > 0);
    }

    #[test]
    fn percentile_math() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
