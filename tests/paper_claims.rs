//! The paper's claims as counts (EXPERIMENTS.md E1–E6, E8). Each test
//! quantifies one claim or named challenge from the text and pins the
//! numbers this reproduction produces: every generated input comes from
//! the seeded xorshift stream (`nimble_trace::rng`), and every latency
//! is *accounted* by a `SimulatedLink`, not slept, so the counts are the
//! same on every host. Wall-clock columns of the same experiments are
//! recorded once in EXPERIMENTS.md; `BENCHMARK.json` is the perf ruler.

mod common;

use common::{customer_fixture, customer_rows, order_rows, relational, Counting};
use nimble::cleaning::matching::{JaroWinkler, QGramJaccard};
use nimble::cleaning::normalize::{NameStandardizer, Normalizer};
use nimble::cleaning::synth::{generate, SynthConfig};
use nimble::cleaning::{
    merge_purge, CleaningFlow, CleaningPipeline, CompositeMatcher, ConcordanceDb, Decision,
    FlowStep, LineageLog, MergePurgeConfig,
};
use nimble::core::{
    Catalog, DispatchStrategy, Engine, EngineCluster, EngineConfig, OptimizerConfig,
    UnavailablePolicy,
};
use nimble::sources::csv::CsvAdapter;
use nimble::sources::relational::RelationalAdapter;
use nimble::sources::sim::{LinkConfig, SimulatedLink};
use nimble::sources::xmldoc::XmlDocAdapter;
use nimble::sources::SourceAdapter;
use nimble::store::{select_views, CandidateView, SelectionPolicy};
use nimble::trace::rng::Rng;
use nimble::xml::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every source of `customer_fixture(customers)` behind a link that
/// charges `latency_ms` a call without sleeping.
fn linked_fixture(customers: usize, latency_ms: u64) -> (Catalog, Vec<Arc<SimulatedLink>>) {
    let (base, _) = customer_fixture(customers);
    let catalog = Catalog::new();
    let mut links = Vec::new();
    for name in base.source_names() {
        let link = SimulatedLink::new(
            base.source(&name).unwrap(),
            LinkConfig {
                latency_ms,
                ..LinkConfig::default()
            },
        );
        catalog.register_source(Arc::clone(&link) as _).unwrap();
        links.push(link);
    }
    (catalog, links)
}

// ---------------------------------------------------------------------
// E1 — warehousing vs. virtual integration (§3.3): a virtual serve
// contacts the sources every time; a materialized one does not.

const E1_VIEW: &str = r#"
    WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
          <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
    CONSTRUCT <c360><name>$n</name><region>$r</region><total>$t</total></c360>
"#;

const E1_QUERY: &str = r#"
    WHERE <c360><name>$n</name><region>$r</region><total>$t</total></c360> IN "customer360",
          $t > 400
    CONSTRUCT <hot><name>$n</name><total>$t</total></hot>
"#;

#[test]
fn e1_virtual_serves_pay_the_links_and_materialized_serves_do_not() {
    let (catalog, links) = linked_fixture(300, 10);
    catalog
        .define_view("customer360", E1_VIEW, Some(1_000_000))
        .unwrap();
    let engine = Engine::new(Arc::new(catalog));
    let charged = || -> u64 { links.iter().map(|l| l.stats().charged_latency_ms).sum() };

    let mut virtual_answer = None;
    for _ in 0..3 {
        let before = charged();
        let r = engine.query(E1_QUERY).unwrap();
        assert!(r.complete);
        // Two sources, one call each, 10 ms a call.
        assert_eq!(r.stats.source_calls, 2);
        assert_eq!(charged() - before, 20);
        virtual_answer = Some(r.document);
    }
    let virtual_answer = virtual_answer.unwrap();
    assert_eq!(virtual_answer.root().child_element_count(), 171);

    engine.materialize_view("customer360", None).unwrap();
    for _ in 0..3 {
        let before = charged();
        let r = engine.query(E1_QUERY).unwrap();
        assert_eq!(r.stats.source_calls, 0);
        assert_eq!(charged(), before);
        assert!(r.document.root().deep_eq(&virtual_answer.root()));
    }
}

// ---------------------------------------------------------------------
// E2 — which views to materialize (§3.3's open challenge): greedy
// selection from observed load beats materializing whatever fits.

const E2_REGIONS: [&str; 4] = ["NW", "SW", "NE", "SE"];

/// The 12 candidate views, in the order the workload ranks them.
fn e2_views() -> Vec<(String, String)> {
    let mut views = Vec::new();
    for r in E2_REGIONS {
        views.push((
            format!("customers_{}", r),
            format!(
                r#"WHERE <row><name>$n</name><region>"{}"</region></row> IN "customers"
                   CONSTRUCT <e>$n</e>"#,
                r
            ),
        ));
        views.push((
            format!("orders_{}", r),
            format!(
                r#"WHERE <row><id>$i</id><name>$n</name><region>"{}"</region></row> IN "customers",
                         <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
                   CONSTRUCT <e><n>$n</n><t>$t</t></e>"#,
                r
            ),
        ));
    }
    for sev in 1..=3 {
        views.push((
            format!("tickets_s{}", sev),
            format!(
                r#"WHERE <row><cust_id>$c</cust_id><severity>{}</severity></row> IN "tickets"
                   CONSTRUCT <e>$c</e>"#,
                sev
            ),
        ));
    }
    views.push((
        "press_mentions".to_string(),
        r#"WHERE <item><company>$c</company></item> IN "releases" CONSTRUCT <e>$c</e>"#.to_string(),
    ));
    views
}

fn e2_engine() -> Engine {
    let (catalog, _) = customer_fixture(200);
    for (name, text) in e2_views() {
        catalog.define_view(&name, &text, Some(u64::MAX)).unwrap();
    }
    Engine::new(catalog)
}

/// 150 queries, view i drawn with Zipf weight 1/(i+1); a never-false
/// nonce predicate makes every text unique, as a parameterized load's
/// are. Returns the source calls the load cost.
fn e2_workload(engine: &Engine) -> u64 {
    let names: Vec<String> = e2_views().into_iter().map(|(n, _)| n).collect();
    let weights: Vec<f64> = (0..names.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(7);
    let mut source_calls = 0;
    for nonce in 0..150 {
        let mut roll = rng.f64() * total;
        let view = names
            .iter()
            .zip(&weights)
            .find(|(_, w)| {
                roll -= **w;
                roll <= 0.0
            })
            .map_or(&names[names.len() - 1], |(n, _)| n);
        let text = format!(
            r#"WHERE <e>$x</e> ELEMENT_AS $e IN "{}", length($x) + {} >= {}
               CONSTRUCT <r>$x</r>"#,
            view, nonce, nonce
        );
        source_calls += engine.query(&text).unwrap().stats.source_calls.count;
    }
    source_calls
}

#[test]
fn e2_greedy_selection_saves_more_source_calls_than_materializing_what_fits() {
    let observer = e2_engine();
    e2_workload(&observer);
    // The monitor's costs are wall-clock readings, and at a 50 % budget
    // they decide between two views. Charge every view the same, so
    // selection ranks on frequency and size — what the seeded load fixes.
    let candidates: Vec<CandidateView> = observer
        .monitor()
        .candidates()
        .into_iter()
        .map(|c| CandidateView {
            virtual_cost_ms: 1.0,
            ..c
        })
        .collect();
    let total_size: usize = candidates.iter().map(|c| c.size_nodes).sum();

    let calls = |policy: SelectionPolicy, budget_pct: usize| {
        let engine = e2_engine();
        for name in select_views(policy, &candidates, total_size * budget_pct / 100) {
            engine.materialize_view(&name, None).unwrap();
        }
        e2_workload(&engine)
    };
    let mut got = Vec::new();
    for budget_pct in [10, 25, 50, 100] {
        got.push((
            budget_pct,
            calls(SelectionPolicy::None, budget_pct),
            calls(SelectionPolicy::Greedy, budget_pct),
            calls(SelectionPolicy::All, budget_pct),
        ));
    }
    // (budget %, none, greedy, all)
    let want = vec![
        (10, 193, 136, 170),
        (25, 193, 91, 102),
        (50, 193, 56, 76),
        (100, 193, 0, 0),
    ];
    assert_eq!(got, want);
    for (_, none, greedy, all) in got {
        assert!(greedy <= all && all <= none);
    }
}

// ---------------------------------------------------------------------
// E3 — partial results under source unavailability (§3.4): a query
// needing all k sources succeeds like pᵏ under Fail; SkipAndAnnotate
// always answers; a warmed stale cache keeps answers whole.

/// k sources, each behind a link up for `up_pct` % of calls and seeded
/// `seed + s`, and a query touching all of them.
fn e3_build(k: usize, up_pct: u32, seed: u64) -> (Engine, String) {
    let catalog = Catalog::new();
    for s in 0..k {
        let feed = XmlDocAdapter::new(&format!("src{}", s))
            .add_xml("data", &format!("<data><item><v>{}</v></item></data>", s))
            .unwrap();
        let link = SimulatedLink::new(
            Arc::new(feed),
            LinkConfig {
                fail_probability: 1.0 - up_pct as f64 / 100.0,
                seed: seed + s as u64,
                ..LinkConfig::default()
            },
        );
        catalog.register_source(link as _).unwrap();
    }
    let patterns: Vec<String> = (0..k)
        .map(|s| {
            format!(
                r#"<data><item><v>$v{}</v></item></data> IN "src{}.data""#,
                s, s
            )
        })
        .collect();
    let construct: String = (0..k).map(|s| format!("<v>$v{}</v>", s)).collect();
    let query = format!(
        "WHERE {} CONSTRUCT <all>{}</all>",
        patterns.join(", "),
        construct
    );
    (Engine::new(Arc::new(catalog)), query)
}

/// One cell, 100 queries per policy: (Fail queries answered, Skip
/// sources that contributed out of 100·k, Stale queries fully answered).
fn e3_cell(k: usize, up_pct: u32) -> (usize, usize, usize) {
    let rounds = 100;
    let (engine, query) = e3_build(k, up_pct, 1000);
    let fail_ok = (0..rounds).filter(|_| engine.query(&query).is_ok()).count();

    let (engine, query) = e3_build(k, up_pct, 2000);
    engine.set_unavailable_policy(UnavailablePolicy::SkipAndAnnotate);
    let contributed = (0..rounds)
        .map(|_| k - engine.query(&query).unwrap().missing_sources.len())
        .sum();

    let (engine, query) = e3_build(k, up_pct, 3000);
    engine.set_unavailable_policy(UnavailablePolicy::StaleCache);
    // Warm the fragment cache; the warm-up may itself hit failures.
    for _ in 0..50 {
        if engine.query(&query).map(|r| r.complete).unwrap_or(false) {
            break;
        }
    }
    let stale_full = (0..rounds)
        .filter(|_| engine.query(&query).unwrap().complete)
        .count();
    (fail_ok, contributed, stale_full)
}

#[test]
fn e3_fail_collapses_like_p_to_the_k_and_partial_answers_do_not() {
    let up = [99, 95, 90, 75, 50];
    let mut got = Vec::new();
    for k in [2, 4, 8] {
        for up_pct in up {
            let (fail_ok, contributed, stale_full) = e3_cell(k, up_pct);
            got.push((k, up_pct, fail_ok, contributed, stale_full));
        }
    }
    // (sources, % up, Fail answered, Skip contributed, Stale whole)
    #[rustfmt::skip]
    let want = vec![
        (2, 99, 99, 197, 100), (2, 95, 96, 190, 100), (2, 90, 86, 178, 100),
        (2, 75, 60, 150, 100), (2, 50, 31, 101, 100),
        (4, 99, 98, 395, 100), (4, 95, 88, 382, 100), (4, 90, 73, 361, 100),
        (4, 75, 30, 294, 100), (4, 50, 4, 197, 100),
        (8, 99, 94, 791, 100), (8, 95, 75, 763, 100), (8, 90, 55, 725, 100),
        (8, 75, 11, 587, 100), (8, 50, 0, 395, 100),
    ];
    assert_eq!(got, want);
    // Fail falls with every source added; at k = 8 and p = 0.5 all
    // sources are up for one query in 256 — links that failed together
    // (adjacent seeds sharing a stream) would answer far more.
    for (i, up_pct) in up.iter().enumerate() {
        let fail = |row: usize| got[row * up.len() + i].2;
        assert!(fail(0) >= fail(1) && fail(1) >= fail(2), "{} % up", up_pct);
    }
    assert!(
        got[14].2 <= 2,
        "Fail answered {} of 100 at k = 8, p = 0.5",
        got[14].2
    );
}

// ---------------------------------------------------------------------
// E4 — dynamic cleaning and the concordance database (§3.2): past human
// decisions are replayed, and each arm matches better than the last.

fn e4_matcher() -> CompositeMatcher {
    CompositeMatcher::new(0.90, 0.78)
        .field("name", Box::new(JaroWinkler), 0.6)
        .field("address", Box::new(QGramJaccard::default()), 0.4)
}

#[test]
fn e4_concordance_replays_every_human_decision_and_lifts_f1() {
    let data = generate(&SynthConfig {
        entities: 500,
        duplicate_rate: 0.5,
        seed: 2001,
        ..SynthConfig::default()
    });
    assert_eq!(data.records.len(), 987);
    let f1 = |clusters: &[Vec<String>]| format!("{:.3}", data.evaluate(clusters).f1);

    // Merge/purge over the raw records.
    let raw = merge_purge(
        &data.records,
        &MergePurgeConfig::single_pass(10, "name"),
        &e4_matcher(),
    );
    let raw_clusters: Vec<Vec<String>> = raw
        .clusters
        .iter()
        .filter(|c| c.len() >= 2)
        .map(|c| c.iter().map(|&i| data.records[i].id.clone()).collect())
        .collect();

    // The standardization flow, then automatic matching.
    let mut log = LineageLog::new();
    let mut cleaned = data.records.clone();
    CleaningFlow::new("standardize")
        .step(FlowStep::Normalize {
            field: "name".into(),
            normalizer: "name".into(),
        })
        .step(FlowStep::Normalize {
            field: "address".into(),
            normalizer: "abbrev".into(),
        })
        .step(FlowStep::Normalize {
            field: "address".into(),
            normalizer: "basic".into(),
        })
        .apply(&mut cleaned, &mut log)
        .unwrap();
    let pipeline = CleaningPipeline::new(e4_matcher(), "name", 10);
    let mut db = ConcordanceDb::new();
    let mining = pipeline.mine(&cleaned, &mut db, &mut log);

    // An oracle answers the uncertain pairs once; extraction replays them.
    let answers: Vec<_> = mining
        .pending
        .iter()
        .map(|p| {
            let decision = if data.truth[&p.left] == data.truth[&p.right] {
                Decision::SameObject
            } else {
                Decision::DifferentObjects
            };
            (p.clone(), decision)
        })
        .collect();
    CleaningPipeline::apply_human_decisions(&mut db, &mut log, &answers, "oracle");
    let extraction = pipeline.extract(&cleaned, &mut db, &mut log);

    assert_eq!(
        [
            f1(&raw_clusters),
            f1(&mining.clusters),
            f1(&extraction.clusters)
        ],
        ["0.665", "0.822", "0.914"]
    );
    assert_eq!(db.human_decisions(), 146);
    assert_eq!(extraction.reused_decisions, 561);
    assert!(extraction.pending.is_empty());
}

// ---------------------------------------------------------------------
// E5 — capability-aware compilation (§2.1, §4): pushing the join and the
// selections to the source ships the least; an index cuts what the
// source scans without changing what it ships.

const E5_QUERY: &str = r#"
    WHERE <row><id>$i</id><name>$n</name><region>"NW"</region></row> IN "customers",
          <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
          $t > 450
    CONSTRUCT <hit><name>$n</name><total>$t</total></hit>
"#;

/// (rows fetched, rows the database scanned, nodes shipped) for one
/// serve of `E5_QUERY` over 2 000 customers and 6 000 orders in one
/// database.
fn e5_cell(pushdown: bool, capability_joins: bool, index: bool) -> (u64, u64, u64) {
    let ddl: Vec<&str> = [
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)",
        "CREATE INDEX ON customers (id) USING HASH",
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)",
        "CREATE INDEX ON orders (cust_id) USING HASH",
        "CREATE INDEX ON orders (total)",
    ]
    .into_iter()
    .filter(|stmt| index || !stmt.starts_with("CREATE INDEX"))
    .collect();
    let erp: Arc<RelationalAdapter> = relational(
        "erp",
        &ddl,
        &[
            ("customers", customer_rows(2000)),
            ("orders", order_rows(2000)),
        ],
    );
    let nodes = Arc::new(AtomicU64::new(0));
    let catalog = Catalog::new();
    catalog
        .register_source(Arc::new(Counting {
            inner: Arc::clone(&erp) as _,
            calls: Arc::new(AtomicU64::new(0)),
            nodes: Arc::clone(&nodes),
        }))
        .unwrap();
    let engine = Engine::new(Arc::new(catalog));
    engine.set_optimizer(OptimizerConfig {
        pushdown,
        capability_joins,
        ..OptimizerConfig::default()
    });
    erp.database().write().reset_stats();
    let shipped_before = nodes.load(Ordering::Relaxed);
    let r = engine.query(E5_QUERY).unwrap();
    assert_eq!(r.document.root().child_element_count(), 148);
    (
        r.stats.rows_fetched,
        erp.database().read().stats().rows_scanned,
        nodes.load(Ordering::Relaxed) - shipped_before,
    )
}

#[test]
fn e5_each_pushdown_ships_less_and_an_index_scans_less() {
    // (pushdown, join pushdown, index)
    let cells = [
        (true, true, true),
        (true, true, false),
        (true, false, true),
        (true, false, false),
        (false, false, true),
        (false, false, false),
    ];
    let got: Vec<_> = cells.iter().map(|&(p, j, i)| e5_cell(p, j, i)).collect();
    // (rows fetched, rows scanned, nodes shipped). Rows fetched counts
    // the central matches that survive the candidate probes, so without
    // pushdown it reads 1 094, not the 8 000 rows the source ships:
    // whole collections show in the node count.
    let want = vec![
        (148, 2594, 1037),
        (148, 8000, 1037),
        (742, 1188, 3712),
        (742, 8000, 3712),
        (1094, 0, 56002),
        (1094, 0, 56002),
    ];
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// E6 — load balancing across engine instances (§2.1).

#[test]
fn e6_round_robin_splits_the_load_evenly_and_least_loaded_serves_it_all() {
    const QUERY: &str = r#"
        WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
              <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
              $t > 480
        CONSTRUCT <hit>$n</hit>
    "#;
    let shares = |instances: usize, strategy: DispatchStrategy| {
        let (catalog, _) = linked_fixture(200, 3);
        let cluster = Arc::new(EngineCluster::new(
            Arc::new(catalog),
            instances,
            2,
            EngineConfig::default(),
            strategy,
        ));
        // 16 clients, 10 queries each.
        let clients: Vec<_> = (0..16)
            .map(|_| {
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        assert!(cluster.query(QUERY).unwrap().complete);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        cluster.served_per_instance()
    };
    for instances in [1, 2, 4, 8] {
        assert_eq!(
            shares(instances, DispatchStrategy::RoundRobin),
            vec![160 / instances as u64; instances]
        );
        let least_loaded = shares(instances, DispatchStrategy::LeastLoaded);
        assert_eq!(least_loaded.len(), instances);
        assert_eq!(least_loaded.iter().sum::<u64>(), 160);
    }
}

// ---------------------------------------------------------------------
// E8 — querying virtually-clean data (§3.2): cleaning at query time
// ships both sides whole and joins them centrally; a cleaned replica
// answers locally.

const E8_DYNAMIC: &str = r#"
    WHERE <row><pname>$a</pname><dept>$d</dept></row> IN "people",
          <row><pname>$b</pname><amount>$amt</amount></row> IN "salaries",
          std_name($a) = std_name($b)
    CONSTRUCT <pay><who>$a</who><amt>$amt</amt></pay>
"#;

/// Two CSV departments holding the same 100 entities under differently
/// dirty names, and `std_name` registered as a normalization function.
fn e8_engine() -> Engine {
    let data = generate(&SynthConfig {
        entities: 100,
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
            _ => payroll.push_str(&format!("\"{}\",100\n", name)),
        }
    }
    let catalog = Catalog::new();
    let sources: [Arc<dyn SourceAdapter>; 2] = [
        Arc::new(CsvAdapter::new("hr").add_csv("people", &hr).unwrap()),
        Arc::new(
            CsvAdapter::new("payroll")
                .add_csv("salaries", &payroll)
                .unwrap(),
        ),
    ];
    for source in sources {
        catalog.register_source(source).unwrap();
    }
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

#[test]
fn e8_dynamic_cleaning_ships_both_sides_and_a_replica_ships_its_answer() {
    let engine = e8_engine();
    let dynamic = engine.query(E8_DYNAMIC).unwrap();
    assert_eq!(dynamic.stats.rows_fetched, 200);
    // The join key is a function of both sides: no hash join, no
    // pushdown — a central nested loop over everything.
    let plan = engine.query(E8_DYNAMIC).unwrap().stats.plan;
    assert!(plan.contains("NestedLoopJoin"), "{}", plan);

    let engine = e8_engine();
    engine
        .catalog()
        .define_view("clean_pay", E8_DYNAMIC, Some(u64::MAX))
        .unwrap();
    engine.materialize_view("clean_pay", None).unwrap();
    let replica = engine
        .query(
            r#"WHERE <pay><who>$w</who><amt>$a</amt></pay> IN "clean_pay"
               CONSTRUCT <p><w>$w</w><a>$a</a></p>"#,
        )
        .unwrap();
    assert_eq!(replica.stats.rows_fetched, 85);
    assert_eq!(replica.stats.source_calls, 0);
    assert_eq!(
        replica.document.root().child_element_count(),
        dynamic.document.root().child_element_count()
    );
}
