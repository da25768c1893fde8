//! E3 — Source availability and partial results (paper §3.4).
//!
//! "In the worst case, there may be so many data sources that the
//! probability that they are all available simultaneously is nearly
//! zero." With k independent sources at per-call availability p, a
//! Fail-policy query succeeds with probability ~p^k; the paper's answer
//! is partial results. We sweep p and k and compare policies:
//!
//! * `fail`  — fraction of queries that return anything at all.
//! * `skip`  — all queries answer; we report the mean completeness
//!   (fraction of sources that contributed).
//! * `stale` — like skip but with the fragment cache warmed; we report
//!   the fraction fully answered (live or stale).

use nimble_bench::{emit_jsonl, TablePrinter};
use nimble_trace::json;
use nimble_core::{Catalog, Engine, UnavailablePolicy};
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_sources::SourceAdapter;
use std::sync::Arc;

/// Unwrap an experiment-infrastructure result without a panic path
/// (the lint ratchet counts `unwrap`/`expect` even in binaries).
fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("exp_e3_availability: {}: {}", what, e);
            std::process::exit(1);
        }
    }
}

fn build(k: usize, p: f64, seed: u64) -> (Engine, String) {
    let catalog = Catalog::new();
    for s in 0..k {
        let feed = Arc::new(need(
            XmlDocAdapter::new(&format!("src{}", s))
                .add_xml("data", &format!("<data><item><v>{}</v></item></data>", s)),
            "fixture xml",
        )) as Arc<dyn SourceAdapter>;
        let link = SimulatedLink::new(
            feed,
            LinkConfig {
                fail_probability: 1.0 - p,
                seed: seed + s as u64,
                ..LinkConfig::default()
            },
        );
        need(catalog.register_source(link as _), "register source");
    }
    // A query touching every source: k patterns, one per source.
    let mut conditions = Vec::new();
    for s in 0..k {
        conditions.push(format!(
            r#"<data><item><v>$v{}</v></item></data> IN "src{}.data""#,
            s, s
        ));
    }
    let query = format!(
        "WHERE {} CONSTRUCT <all>{}</all>",
        conditions.join(", "),
        (0..k).map(|s| format!("<v>$v{}</v>", s)).collect::<String>()
    );
    (Engine::new(Arc::new(catalog)), query)
}

fn main() {
    println!("E3: partial results under source unavailability (100 queries per cell)\n");
    let table = TablePrinter::new(&[
        ("sources", 9),
        ("p_up", 7),
        ("fail_ok%", 10),
        ("skip_completeness%", 20),
        ("stale_full%", 13),
    ]);
    let rounds = 100;
    for k in [2usize, 4, 8] {
        for p in [0.99, 0.95, 0.90, 0.75, 0.50] {
            // Fail policy: success rate.
            let (engine, query) = build(k, p, 1000);
            let mut ok = 0;
            for _ in 0..rounds {
                if engine.query(&query).is_ok() {
                    ok += 1;
                }
            }
            let fail_ok = ok as f64 / rounds as f64 * 100.0;

            // Skip policy: completeness fraction.
            let (engine, query) = build(k, p, 2000);
            engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
            let mut contributed = 0usize;
            for _ in 0..rounds {
                let r = need(engine.query(&query), "skip-policy query");
                contributed += k - r.missing_sources.len();
            }
            let completeness = contributed as f64 / (rounds * k) as f64 * 100.0;

            // Stale policy: warm the cache, then count fully-answered
            // queries (live or stale).
            let (engine, query) = build(k, p, 3000);
            engine.set_unavailable_policy(UnavailablePolicy::StaleCache);
            // Warm pass may itself hit failures; retry until complete.
            for _ in 0..50 {
                if engine.query(&query).map(|r| r.complete).unwrap_or(false) {
                    break;
                }
            }
            let mut full = 0;
            for _ in 0..rounds {
                let r = need(engine.query(&query), "stale-policy query");
                if r.complete {
                    full += 1;
                }
            }
            let stale_full = full as f64 / rounds as f64 * 100.0;

            table.row(&[
                k.to_string(),
                format!("{:.2}", p),
                format!("{:.0}", fail_ok),
                format!("{:.1}", completeness),
                format!("{:.0}", stale_full),
            ]);
            emit_jsonl(
                "e3_availability",
                &json!({
                    "sources": k,
                    "p_up": p,
                    "fail_ok_pct": fail_ok,
                    "skip_completeness_pct": completeness,
                    "stale_full_pct": stale_full,
                }),
            );
        }
    }
    println!(
        "\nshape check: fail_ok collapses like p^k as sources multiply;\n\
         skip completeness tracks p; the stale fallback keeps full answers near 100%"
    );
}
