//! E17: partitioned collections and scatter-gather execution. Shards
//! the million-row events collection across shard-local engines
//! (1/2/4/8-way range, 4-way hash) and measures the end-to-end cost of
//! serving the join workload through the coordinator's Exchange
//! operator, against three query shapes:
//!
//! * `selective` — a shard-key range predicate the planner can prove
//!   unsatisfiable on most shards (per-shard stats bounds), joined
//!   against the dims collection.
//! * `eq_route`  — a shard-key equality routed to exactly one shard
//!   under either scheme.
//! * `fanout`    — a non-key predicate no shard can be pruned for:
//!   the pure scatter-gather overhead floor.
//!
//! On one core the speedup is pruning asymmetry, not parallelism: a
//! 1-shard cluster must scan every row through the same Exchange, while
//! a 4-shard range cluster scans only the surviving quarter. The
//! scaling curve, per-query shard-pruning counts, and a shard-loss
//! completeness probe (one node down under SkipAndAnnotate) land in
//! `BENCH_shard.json`. Every sharded answer is differentially checked
//! byte-for-byte against an unsharded engine; any divergence exits
//! non-zero. `--quick` (or `NIMBLE_BENCH_QUICK=1`) shrinks the fixture
//! for CI smoke — to 200 000 rows, the smallest at which the rows a
//! pruned layout does not scan still outweigh the run-to-run noise of a
//! ~2 ms query (at 20 000 a scan is 0.3 of 1.6 ms: E25).

use nimble_bench::{emit_jsonl, write_bench_artifact, TablePrinter};
use nimble_trace::json;
use nimble_core::{
    Catalog, Engine, EngineConfig, ShardSpec, ShardedCluster, UnavailablePolicy,
};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_xml::{to_string, Atomic, Document, DocumentBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Unwrap an experiment-infrastructure result without a panic path
/// (the lint ratchet counts `expect` even in binaries).
fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("exp_shard: {}: {}", what, e);
            std::process::exit(1);
        }
    }
}

/// Key-selective join: only keys above 990 survive, so range shards
/// whose key bounds top out lower are provably empty for this query.
const SELECTIVE: &str = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events",
         <row><key>$k</key><name>$n</name></row> IN "dims",
         $k > 990
   CONSTRUCT <hit><n>$n</n><v>$v</v></hit> ORDER-BY $v"#;

/// Shard-key point lookup: `shard_of(477)` names the one shard that
/// can hold matches under hash and range alike. No ORDER-BY, so the
/// merged stream's document-order restoration is on the measured path.
const EQ_ROUTE: &str = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events",
         <row><key>$k</key><name>$n</name></row> IN "dims",
         $k = 477
   CONSTRUCT <hit><n>$n</n><v>$v</v></hit>"#;

/// Non-key predicate selecting the last 3000 rows: they cycle through
/// every key, so matches live on every shard, nothing prunes, and
/// every shard scans — the scatter-gather overhead floor. (A tighter
/// window would select only high keys, which per-shard `val` bounds
/// can legitimately prune under a range split.)
fn fanout_query(rows: usize) -> String {
    format!(
        r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $v > {}
           CONSTRUCT <e>$v</e>"#,
        rows.saturating_sub(3000)
    )
}

/// Shard-loss probe: the last 3000 rows cycle through every key, so
/// matches live on every shard; `$k > 250` keeps the answer small
/// while still spanning the three high shards of a 4-way range split.
fn loss_query(rows: usize) -> String {
    format!(
        r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $k > 250, $v > {}
           CONSTRUCT <e>$v</e>"#,
        rows.saturating_sub(3000)
    )
}

/// Events (`rows` rows, key cycling 0..1000) and dims (one row per
/// key), built once and shared by every cluster: typed atoms, so both
/// partitioning and per-shard stats see numeric keys.
fn build_docs(rows: usize) -> (Arc<Document>, Arc<Document>) {
    let mut b = DocumentBuilder::new("events");
    for j in 0..rows {
        b.start_element("row");
        b.leaf("key", Atomic::Int((j % 1000) as i64));
        b.leaf("val", Atomic::Int(j as i64));
        b.end_element();
    }
    let events = b.finish();
    let mut b = DocumentBuilder::new("dims");
    for k in 0..1000 {
        b.start_element("row");
        b.leaf("key", Atomic::Int(k));
        b.leaf("name", Atomic::Str(format!("dim{}", k)));
        b.end_element();
    }
    (events, b.finish())
}

fn fixture(events: &Arc<Document>, dims: &Arc<Document>) -> Arc<Catalog> {
    let c = Catalog::new();
    need(
        c.register_source(Arc::new(
            XmlDocAdapter::new("warehouse")
                .add_document("events", Arc::clone(events))
                .add_document("dims", Arc::clone(dims)),
        )),
        "register warehouse",
    );
    Arc::new(c)
}

/// Range bounds splitting the 0..1000 key domain evenly into `shards`.
fn range_bounds(shards: usize) -> Vec<f64> {
    (1..shards).map(|k| (k * 1000 / shards) as f64).collect()
}

struct Obs {
    e2e_ms: f64,
    pruned: f64,
    fanned: f64,
    answer_rows: u64,
    identical: bool,
}

/// Warm once, differentially check against the unsharded answer, then
/// time `runs` serves with the coordinator's metrics windowed so the
/// per-query shard prune/fan-out counts ride along.
fn measure(cluster: &ShardedCluster, q: &str, want: &str, runs: usize) -> Obs {
    let first = need(cluster.query(q), "sharded query");
    let got = to_string(&first.document.root());
    let identical = got == *want;
    let answer_rows = first.document.root().child_element_count() as u64;
    let before = cluster.coordinator().metrics_snapshot();
    let t = Instant::now();
    for _ in 0..runs {
        need(cluster.query(q), "sharded query (timed)");
    }
    let elapsed = t.elapsed();
    let window = cluster.coordinator().metrics_snapshot().diff(&before);
    Obs {
        e2e_ms: elapsed.as_secs_f64() * 1e3 / runs as f64,
        pruned: window.counter("engine.shard.pruned") as f64 / runs as f64,
        fanned: window.counter("engine.shard.fanout") as f64 / runs as f64,
        answer_rows,
        identical,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("NIMBLE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (rows, runs): (usize, usize) = if quick { (200_000, 4) } else { (1_000_000, 3) };

    println!(
        "sharding: {}-row join workload through Exchange, mean over {} runs{}",
        rows,
        runs,
        if quick { " (quick)" } else { "" }
    );
    let (events, dims) = build_docs(rows);
    let fanout = fanout_query(rows);

    // Unsharded reference answers (differential ground truth).
    let unsharded = Engine::with_config(fixture(&events, &dims), EngineConfig::default());
    let queries: Vec<(&str, String)> = vec![
        ("selective", SELECTIVE.to_string()),
        ("eq_route", EQ_ROUTE.to_string()),
        ("fanout", fanout.clone()),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|(name, q)| {
            to_string(
                &need(unsharded.query(q), &format!("unsharded {}", name))
                    .document
                    .root(),
            )
        })
        .collect();

    // The scaling curve: range 1/2/4/8, plus hash at 4 to show
    // eq-routing prunes under either scheme while range predicates
    // cannot prune hash shards.
    let layouts: Vec<(String, &str, usize)> = vec![
        ("range/1".into(), "range", 1),
        ("range/2".into(), "range", 2),
        ("range/4".into(), "range", 4),
        ("range/8".into(), "range", 8),
        ("hash/4".into(), "hash", 4),
    ];

    let table = TablePrinter::new(&[
        ("layout", 9),
        ("query", 11),
        ("e2e_ms", 11),
        ("pruned", 8),
        ("fanned", 8),
        ("answers", 9),
        ("build_ms", 10),
    ]);

    let mut curve = json::Map::new();
    let mut all_identical = true;
    let mut max_pruned_frac = 0.0f64;
    for (label, scheme, shards) in &layouts {
        let spec = match *scheme {
            "hash" => ShardSpec::hash("key", *shards),
            _ => ShardSpec::range("key", range_bounds(*shards)),
        };
        let t = Instant::now();
        let cluster = need(
            ShardedCluster::build(
                fixture(&events, &dims),
                EngineConfig::default(),
                &[("events", spec)],
            ),
            "cluster build",
        );
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut layout_json = json::Map::new();
        for ((name, q), want) in queries.iter().zip(&expected) {
            let obs = measure(&cluster, q, want, runs);
            all_identical &= obs.identical;
            if !obs.identical {
                eprintln!("exp_shard: {} diverged from unsharded on {}", label, name);
            }
            let frac = obs.pruned / *shards as f64;
            max_pruned_frac = max_pruned_frac.max(frac);
            table.row(&[
                label.clone(),
                (*name).to_string(),
                format!("{:.3}", obs.e2e_ms),
                format!("{:.1}", obs.pruned),
                format!("{:.1}", obs.fanned),
                obs.answer_rows.to_string(),
                format!("{:.0}", build_ms),
            ]);
            layout_json.insert(
                (*name).to_string(),
                json!({
                    "e2e_ms": obs.e2e_ms,
                    "pruned_per_query": obs.pruned,
                    "fanned_per_query": obs.fanned,
                    "pruned_frac": frac,
                    "answer_rows": obs.answer_rows,
                }),
            );
        }
        layout_json.insert("build_ms".to_string(), json!(build_ms));
        curve.insert(label.clone(), json::Value::Object(layout_json));
    }

    let ms = |layout: &str, q: &str| -> f64 {
        curve
            .get(layout)
            .and_then(|l| l.get(q))
            .and_then(|o| o.get("e2e_ms"))
            .and_then(json::Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let speedup_4_over_1 = ms("range/1", "selective") / ms("range/4", "selective").max(1e-9);
    let speedup_8_over_1 = ms("range/1", "selective") / ms("range/8", "selective").max(1e-9);
    let eq_speedup_4_over_1 = ms("range/1", "eq_route") / ms("range/4", "eq_route").max(1e-9);
    let pruning_ok = max_pruned_frac >= 0.5;

    // Shard loss: a 4-way range cluster under SkipAndAnnotate with one
    // node down must return an annotated partial answer naming the
    // lost shard — never an error, never a silently complete answer.
    let loss_q = loss_query(rows);
    let loss_expected = need(unsharded.query(&loss_q), "unsharded loss query")
        .document
        .root()
        .child_element_count() as u64;
    let loss_cluster = need(
        ShardedCluster::build(
            fixture(&events, &dims),
            EngineConfig {
                unavailable: UnavailablePolicy::SkipAndAnnotate,
                ..EngineConfig::default()
            },
            &[("events", ShardSpec::range("key", range_bounds(4)))],
        ),
        "loss cluster build",
    );
    loss_cluster.set_shard_alive(1, false);
    let loss = need(loss_cluster.query(&loss_q), "shard-loss query");
    let loss_got = loss.document.root().child_element_count() as u64;
    let loss_pinned = loss
        .missing_sources
        .iter()
        .any(|s| s == "warehouse#shard1");
    let answer_frac = if loss_expected > 0 {
        loss_got as f64 / loss_expected as f64
    } else {
        0.0
    };
    let shard_loss_ok =
        !loss.complete && loss_pinned && loss_got > 0 && loss_got < loss_expected;
    println!(
        "\nshard loss: complete={} missing={:?} answers {}/{} ({:.0}%)",
        loss.complete,
        loss.missing_sources,
        loss_got,
        loss_expected,
        answer_frac * 100.0
    );
    println!(
        "pruning: max pruned fraction {:.2} (>= 0.5: {})",
        max_pruned_frac, pruning_ok
    );
    println!(
        "speedup over range/1: selective 4-shard {:.2}x, 8-shard {:.2}x, eq 4-shard {:.2}x",
        speedup_4_over_1, speedup_8_over_1, eq_speedup_4_over_1
    );
    println!(
        "differential: sharded answers identical to unsharded: {}",
        all_identical
    );
    if !all_identical {
        std::process::exit(1);
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let loss_json = json!({
        "ok": shard_loss_ok,
        "complete": loss.complete,
        "missing": loss.missing_sources,
        "answers_got": loss_got,
        "answers_expected": loss_expected,
        "answer_frac": answer_frac,
    });
    let record = json!({
        "experiment": "shard",
        "rows": rows,
        "runs": runs,
        "quick": quick,
        "cores": cores,
        "differential_ok": all_identical,
        "pruning_ok": pruning_ok,
        "max_pruned_frac": max_pruned_frac,
        "speedup_4_over_1": speedup_4_over_1,
        "speedup_8_over_1": speedup_8_over_1,
        "eq_speedup_4_over_1": eq_speedup_4_over_1,
        "curve": json::Value::Object(curve),
        "shard_loss": loss_json,
    });
    write_bench_artifact("BENCH_shard.json", &record);
    emit_jsonl("shard", &record);
    if !shard_loss_ok {
        eprintln!("exp_shard: shard-loss probe failed (see above)");
        std::process::exit(1);
    }
}
