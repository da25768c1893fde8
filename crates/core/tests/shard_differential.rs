//! Differential test for sharded execution: for every query in the
//! shared grammar (optional join, literal and variable region bindings,
//! threshold predicate, ORDER-BY) and every shard layout (1/2/4/8
//! shards, hash and range), a [`ShardedCluster`] constructs the
//! **byte-identical result document** to an unsharded engine over the
//! same catalog. Partitioning changes where rows live and how scans
//! fan out, never which tuples exist or their order. Every query runs
//! twice, so the second answer is built from the shard nodes' scan
//! memos: a warm scan must be indistinguishable from a cold one — in
//! its answer, its lineage, and the way it fails.
//!
//! Mirrors `batch_differential.rs` but hand-rolls the enumeration: the
//! grammar axes are small enough to sweep exhaustively.

use nimble_core::{
    Catalog, CoreError, Engine, EngineConfig, ShardSpec, ShardedCluster, UnavailablePolicy,
};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_xml::to_string;
use std::sync::Arc;

/// Customers and orders as XML collections (sharding splits XML
/// documents; the relational twin of this fixture lives in
/// `batch_differential.rs`).
fn catalog() -> Arc<Catalog> {
    let mut customers = String::from("<customers>");
    let regions = ["NW", "SW", "NW", "SE", "NW", "SW", "NE", "SE"];
    let names = ["ada", "bob", "cyd", "dee", "eve", "fay", "gus", "hal"];
    for i in 0..8 {
        customers.push_str(&format!(
            "<row><id>{}</id><name>{}</name><region>{}</region></row>",
            i + 1,
            names[i],
            regions[i]
        ));
    }
    customers.push_str("</customers>");
    let mut orders = String::from("<orders>");
    // cust_id cycles 1..=8, totals spread across the 0..300 domain so
    // threshold predicates select strict subsets.
    for j in 0..20 {
        orders.push_str(&format!(
            "<row><oid>{}</oid><cust_id>{}</cust_id><total>{}</total></row>",
            100 + j,
            (j % 8) + 1,
            (j * 37) % 300
        ));
    }
    orders.push_str("</orders>");
    let c = Catalog::new();
    c.register_source(Arc::new(
        XmlDocAdapter::new("shop")
            .add_xml("customers", &customers)
            .unwrap()
            .add_xml("orders", &orders)
            .unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

/// Every query in the grammar: optional join, literal/variable region
/// binding, threshold predicate over the join total, ORDER-BY.
fn all_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for join in [false, true] {
        for lit_region in [false, true] {
            for bind_region in [false, true] {
                for threshold in [None, Some(50i64), Some(150)] {
                    for order in 0..3usize {
                        if threshold.is_some() && !join {
                            continue; // $t only exists under the join
                        }
                        let mut pats = vec![format!(
                            "<row><id>$i</id><name>$n</name>{}{}</row> IN \"customers\"",
                            if lit_region { "<region>\"NW\"</region>" } else { "" },
                            if bind_region { "<region>$r</region>" } else { "" },
                        )];
                        let mut preds = Vec::new();
                        let mut construct = String::from("<n>$n</n>");
                        if join {
                            pats.push(
                                "<row><cust_id>$i</cust_id><total>$t</total></row> IN \"orders\""
                                    .into(),
                            );
                            construct.push_str("<t>$t</t>");
                            if let Some(k) = threshold {
                                preds.push(format!("$t > {}", k));
                            }
                        }
                        if bind_region {
                            construct.push_str("<r>$r</r>");
                        }
                        let order_by = match order {
                            1 => " ORDER-BY $n",
                            2 => " ORDER-BY $i",
                            _ => "",
                        };
                        queries.push(format!(
                            "WHERE {} CONSTRUCT <hit>{}</hit>{}",
                            pats.iter().chain(preds.iter()).cloned().collect::<Vec<_>>().join(", "),
                            construct,
                            order_by
                        ));
                    }
                }
            }
        }
    }
    queries
}

/// The shard layouts under test: customers split on `id`, orders
/// co-split on `cust_id` (same key domain, 1..=8).
fn layouts() -> Vec<(String, Vec<(&'static str, ShardSpec)>)> {
    let mut layouts = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        layouts.push((
            format!("hash/{}", shards),
            vec![
                ("customers", ShardSpec::hash("id", shards)),
                ("orders", ShardSpec::hash("cust_id", shards)),
            ],
        ));
        // Range bounds split the 1..=8 id domain evenly.
        let bounds: Vec<f64> = (1..shards).map(|k| (k * 8 / shards) as f64 + 0.5).collect();
        layouts.push((
            format!("range/{}", shards),
            vec![
                ("customers", ShardSpec::range("id", bounds.clone())),
                ("orders", ShardSpec::range("cust_id", bounds)),
            ],
        ));
    }
    layouts
}

/// `(engine.shard.memo.hit, engine.shard.memo.miss, engine.shard.fanout)`
/// as the coordinator has counted them so far.
fn memo_counters(cluster: &ShardedCluster) -> (u64, u64, u64) {
    let m = cluster.coordinator().metrics_snapshot();
    (
        m.counter("engine.shard.memo.hit"),
        m.counter("engine.shard.memo.miss"),
        m.counter("engine.shard.fanout"),
    )
}

const NAMES_BY_ID: &str =
    r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c> ORDER-BY $i"#;

#[test]
fn sharded_matches_unsharded_exactly_cold_and_warm() {
    let queries = all_queries();
    let unsharded = Engine::new(catalog());
    let expected: Vec<String> = queries
        .iter()
        .map(|q| to_string(&unsharded.query(q).unwrap().document.root()))
        .collect();
    for (layout, specs) in layouts() {
        let cluster =
            ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            for pass in ["cold", "warm"] {
                let before = memo_counters(&cluster);
                let r = cluster.query(q).unwrap();
                let after = memo_counters(&cluster);
                assert!(r.complete, "{} sharded result incomplete ({}) for {:?}", pass, layout, q);
                let got = to_string(&r.document.root());
                assert_eq!(&got, want, "{} sharded execution diverged ({}) for {:?}", pass, layout, q);
                if pass == "warm" {
                    // Every shard the second run contacted answered
                    // from its memo.
                    assert_eq!(after.1, before.1, "warm run rebuilt a memo ({}) for {:?}", layout, q);
                    assert_eq!(
                        after.0 - before.0,
                        after.2 - before.2,
                        "warm run: hits != shards contacted ({}) for {:?}",
                        layout,
                        q
                    );
                }
            }
        }
        // The memo shadows the slices, it never outgrows them: the flat
        // row patterns of the grammar bind fewer values than the slices
        // have nodes, two patterns kept per slice.
        let rt = cluster.runtime();
        let mut slice_nodes = 0;
        for k in 0..rt.nodes() {
            let shop = rt.node(k).unwrap().catalog.source("shop").unwrap();
            for coll in ["customers", "orders"] {
                slice_nodes += shop.fetch_collection(coll).unwrap().len();
            }
        }
        assert!(rt.memo_values() > 0, "nothing memoised ({})", layout);
        assert!(
            rt.memo_values() <= 2 * slice_nodes,
            "memo holds {} values over {} slice nodes ({})",
            rt.memo_values(),
            slice_nodes,
            layout
        );
        assert_eq!(
            cluster.coordinator().metrics_snapshot().gauge("engine.shard.memo.values"),
            rt.memo_values() as u64
        );
    }
}

#[test]
fn serialized_path_matches_under_sharding() {
    // The streaming/small-fallback serializer must agree with the tree
    // path when scans fan out through the Exchange.
    let queries = all_queries();
    let unsharded = Engine::new(catalog());
    let specs = vec![
        ("customers", ShardSpec::hash("id", 4)),
        ("orders", ShardSpec::hash("cust_id", 4)),
    ];
    let cluster = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
    for q in queries.iter().step_by(7) {
        let want = unsharded.query_serialized(q).unwrap();
        let got = cluster.query_serialized(q).unwrap();
        assert_eq!(got, want, "serialized sharded execution diverged for {:?}", q);
    }
}

#[test]
fn dead_shard_degrades_to_annotated_partial_answer() {
    let specs = vec![
        ("customers", ShardSpec::range("id", vec![2.5, 4.5, 6.5])),
        ("orders", ShardSpec::range("cust_id", vec![2.5, 4.5, 6.5])),
    ];
    let config = EngineConfig {
        unavailable: UnavailablePolicy::SkipAndAnnotate,
        ..EngineConfig::default()
    };
    // Killed cold (nothing memoised yet) and killed warm (shard 2's
    // memo already holds the rows): liveness is checked before the memo,
    // so a dead node's rows are never served from it.
    for warm in [false, true] {
        let cluster = ShardedCluster::build(catalog(), config.clone(), &specs).unwrap();
        if warm {
            assert!(cluster.query(NAMES_BY_ID).unwrap().complete);
            assert!(cluster.runtime().node(2).unwrap().memo_values() > 0);
        }
        cluster.set_shard_alive(2, false);
        let r = cluster.query(NAMES_BY_ID).unwrap();
        assert!(!r.complete, "a dead shard must mark the answer partial (warm={})", warm);
        assert_eq!(r.missing_sources, vec!["shop#shard2".to_string()], "warm={}", warm);
        // Shard 2 holds ids 5..=6; every other row still answers, in order.
        let got = to_string(&r.document.root());
        assert_eq!(
            got,
            "<results><c>ada</c><c>bob</c><c>cyd</c><c>dee</c><c>gus</c><c>hal</c></results>",
            "warm={}",
            warm
        );
        // Back up, the node answers from the memo it kept.
        cluster.set_shard_alive(2, true);
        let r = cluster.query(NAMES_BY_ID).unwrap();
        assert!(r.complete);
        assert!(to_string(&r.document.root()).contains("<c>eve</c><c>fay</c>"));
    }
}

#[test]
fn dead_shard_fails_under_fail_policy() {
    let specs = vec![("customers", ShardSpec::hash("id", 4))];
    let config = EngineConfig {
        unavailable: UnavailablePolicy::Fail,
        ..EngineConfig::default()
    };
    let q = r#"WHERE <row><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#;
    let mut errors = Vec::new();
    for warm in [false, true] {
        let cluster = ShardedCluster::build(catalog(), config.clone(), &specs).unwrap();
        if warm {
            cluster.query(q).unwrap();
        }
        cluster.set_shard_alive(1, false);
        let err = cluster.query(q).unwrap_err().to_string();
        assert!(err.contains("shop#shard1"), "error should name the shard: {}", err);
        errors.push(err);
    }
    assert_eq!(errors[0], errors[1], "a warm kill must fail like a cold one");
}

#[test]
fn pruned_shards_still_answer_exactly() {
    // A shard-key predicate lets the planner drop shards whose stats
    // bounds contradict it; the answer must not change.
    let specs = vec![("customers", ShardSpec::range("id", vec![2.5, 4.5, 6.5]))];
    let cluster = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
    let unsharded = Engine::new(catalog());
    let q = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i > 6
               CONSTRUCT <c>$n</c> ORDER-BY $i"#;
    let want = to_string(&unsharded.query(q).unwrap().document.root());
    let got_r = cluster.query(q).unwrap();
    let got = to_string(&got_r.document.root());
    assert_eq!(got, want);
    let pruned = cluster.coordinator().metrics_snapshot().counter("engine.shard.pruned");
    assert!(pruned >= 2, "expected at least half the shards pruned, got {}", pruned);
}

/// Shard 0's slice of `customers` under `range("id", [4.5])` (ids 1..=4),
/// rewritten: `rows` of `(id, name)`.
fn reregister_shard0_customers(cluster: &ShardedCluster, rows: &[(u32, &str)]) {
    let node = cluster.runtime().node(0).unwrap();
    // The node holds an `orders` slice only when that was sharded too.
    let orders = node.catalog.source("shop").unwrap().fetch_collection("orders").ok();
    let mut customers = String::from("<customers>");
    for (id, name) in rows {
        customers.push_str(&format!(
            "<row><id>{}</id><name>{}</name><region>NW</region></row>",
            id, name
        ));
    }
    customers.push_str("</customers>");
    let mut shop = XmlDocAdapter::new("shop").add_xml("customers", &customers).unwrap();
    if let Some(orders) = orders {
        shop = shop.add_document("orders", orders);
    }
    assert!(node.catalog.unregister_source("shop"));
    node.catalog.register_source(Arc::new(shop)).unwrap();
}

#[test]
fn replaced_slice_is_rebuilt_never_served_stale() {
    let specs = vec![
        ("customers", ShardSpec::range("id", vec![4.5])),
        ("orders", ShardSpec::range("cust_id", vec![4.5])),
    ];
    let cluster = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
    let before = to_string(&cluster.query(NAMES_BY_ID).unwrap().document.root());
    assert_eq!(
        before,
        "<results><c>ada</c><c>bob</c><c>cyd</c><c>dee</c><c>eve</c><c>fay</c><c>gus</c><c>hal</c></results>"
    );
    // Same pattern, same row count, another document: the entry built
    // from the old `Arc` must not answer for the new one.
    reregister_shard0_customers(&cluster, &[(1, "ann"), (2, "ben"), (3, "cat"), (4, "dan")]);
    let (_, miss_before, _) = memo_counters(&cluster);
    for pass in ["rebuilt", "warm again"] {
        let after = to_string(&cluster.query(NAMES_BY_ID).unwrap().document.root());
        assert_eq!(
            after,
            "<results><c>ann</c><c>ben</c><c>cat</c><c>dan</c><c>eve</c><c>fay</c><c>gus</c><c>hal</c></results>",
            "{}",
            pass
        );
    }
    // Exactly one rebuild (shard 0), and the replaced document's entry
    // is gone rather than pinned beside the new one.
    let (_, miss_after, _) = memo_counters(&cluster);
    assert_eq!(miss_after - miss_before, 1);
    let node0 = cluster.runtime().node(0).unwrap();
    assert_eq!(node0.memo_values(), 4 * 3, "one entry: 4 rows x (origin, $i, $n)");
}

#[test]
fn slice_that_lost_its_origin_map_is_a_shard_error_not_origin_minus_one() {
    // A slice with a row the partition never cut has no origin for it.
    // It used to get origin -1 and sort *first* in the merged answer;
    // now the shard fails like any other broken shard — also when its
    // memo was warm for the slice it replaced.
    let specs = vec![("customers", ShardSpec::range("id", vec![4.5]))];
    let five = [(1, "ann"), (2, "ben"), (3, "cat"), (4, "dan"), (0, "zed")];
    for warm in [false, true] {
        let skip = EngineConfig {
            unavailable: UnavailablePolicy::SkipAndAnnotate,
            ..EngineConfig::default()
        };
        let cluster = ShardedCluster::build(catalog(), skip, &specs).unwrap();
        if warm {
            cluster.query(NAMES_BY_ID).unwrap();
        }
        reregister_shard0_customers(&cluster, &five);
        let r = cluster.query(NAMES_BY_ID).unwrap();
        assert!(!r.complete);
        assert_eq!(r.missing_sources, vec!["shop#shard0".to_string()]);
        assert_eq!(
            to_string(&r.document.root()),
            "<results><c>eve</c><c>fay</c><c>gus</c><c>hal</c></results>"
        );

        let cluster = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
        if warm {
            cluster.query(NAMES_BY_ID).unwrap();
        }
        reregister_shard0_customers(&cluster, &five);
        let err = cluster.query(NAMES_BY_ID).unwrap_err().to_string();
        assert!(
            err.contains("shop#shard0") && err.contains("slice has 5 rows, origin map has 4"),
            "{}",
            err
        );
    }
}

#[test]
fn lineage_is_the_same_over_a_warm_memo() {
    let specs = vec![
        ("customers", ShardSpec::hash("id", 4)),
        ("orders", ShardSpec::hash("cust_id", 4)),
    ];
    let mut tracked = EngineConfig::default();
    tracked.optimizer.track_lineage = true;
    let on = ShardedCluster::build(catalog(), tracked, &specs).unwrap();
    let off = ShardedCluster::build(catalog(), EngineConfig::default(), &specs).unwrap();
    for q in all_queries().iter().step_by(5) {
        let plain_cold = off.query(q).unwrap();
        let plain_warm = off.query(q).unwrap();
        let cold = on.query(q).unwrap();
        let warm = on.query(q).unwrap();
        let want = to_string(&plain_cold.document.root());
        for r in [&plain_warm, &cold, &warm] {
            assert_eq!(to_string(&r.document.root()), want, "diverged for {:?}", q);
        }
        assert!(plain_warm.provenance.is_none());
        let prov = cold.provenance.as_ref().expect("tracking on");
        assert_eq!(warm.provenance.as_ref(), Some(prov), "warm lineage differs for {:?}", q);
        // Per-shard units, as before the memo: every answer names the
        // shard(s) its rows came from.
        assert!(prov.sources.iter().all(|s| s.name.starts_with("shop#shard")));
        assert!((0..prov.answers.len()).all(|i| !prov.why(i).is_empty()));
    }
}

#[test]
fn multiplying_pattern_is_answered_but_not_memoised() {
    // Four <tag>s under three pattern items bind 4^3 tuples per row:
    // 64 x (origin + 4 vars) values against 11 nodes. Such a block is
    // used for the scan that built it and dropped.
    let mut items = String::from("<items>");
    for i in 1..=6 {
        items.push_str(&format!(
            "<row><id>{}</id><tag>a{}</tag><tag>b{}</tag><tag>c{}</tag><tag>d{}</tag></row>",
            i, i, i, i, i
        ));
    }
    items.push_str("</items>");
    let make = || {
        let c = Catalog::new();
        c.register_source(Arc::new(XmlDocAdapter::new("shop").add_xml("items", &items).unwrap()))
            .unwrap();
        Arc::new(c)
    };
    let unsharded = Engine::new(make());
    let cluster = ShardedCluster::build(
        make(),
        EngineConfig::default(),
        &[("items", ShardSpec::hash("id", 2))],
    )
    .unwrap();
    let cross = r#"WHERE <row><id>$i</id><tag>$a</tag><tag>$b</tag><tag>$c</tag></row> IN "items"
                   CONSTRUCT <h><i>$i</i><a>$a</a><b>$b</b><c>$c</c></h>"#;
    let want = to_string(&unsharded.query(cross).unwrap().document.root());
    assert_eq!(want.matches("<h>").count(), 6 * 64);
    for _ in 0..2 {
        assert_eq!(to_string(&cluster.query(cross).unwrap().document.root()), want);
    }
    let (hit, miss, fanout) = memo_counters(&cluster);
    assert_eq!((hit, miss, fanout), (0, 4, 4), "both runs rebuild on both shards");
    assert_eq!(cluster.runtime().memo_values(), 0);
    // The flat pattern over the same slices is kept.
    let flat = r#"WHERE <row><id>$i</id></row> IN "items" CONSTRUCT <i>$i</i>"#;
    for _ in 0..2 {
        cluster.query(flat).unwrap();
    }
    assert_eq!(memo_counters(&cluster), (2, 6, 8));
    assert_eq!(cluster.runtime().memo_values(), 6 * 2);
}

#[test]
fn pushed_predicate_error_is_the_same_warm_and_cold() {
    // `$n * 2` over names is an arithmetic error at evaluation time. It
    // can fail, so it is not a literal test and never runs below the
    // Exchange: the central Filter raises it, from the rows the shards
    // shipped — read from the memo when warm — and under every policy,
    // as the unsharded engine does. No shard reads as lost for it.
    let warmup = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers" CONSTRUCT <c>$n</c>"#;
    let bad = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $n * 2 > 1
                 CONSTRUCT <c>$n</c>"#;
    let specs = vec![("customers", ShardSpec::hash("id", 2))];
    for policy in POLICIES {
        let config = EngineConfig {
            unavailable: policy,
            ..EngineConfig::default()
        };
        let want = Engine::with_config(catalog(), config.clone()).query(bad).unwrap_err();
        assert!(want.to_string().contains("non-numeric operand"), "{}", want);
        for warm in [false, true] {
            let cluster = ShardedCluster::build(catalog(), config.clone(), &specs).unwrap();
            if warm {
                cluster.query(warmup).unwrap();
            }
            let before = memo_counters(&cluster);
            assert_eq!(cluster.query(bad).unwrap_err(), want, "{:?} warm={}", policy, warm);
            if warm {
                assert!(memo_counters(&cluster).0 > before.0, "the failing scan read the memo");
            }
        }
    }
}

const POLICIES: [UnavailablePolicy; 3] = [
    UnavailablePolicy::Fail,
    UnavailablePolicy::SkipAndAnnotate,
    UnavailablePolicy::StaleCache,
];

/// A query's own error is not a lost shard: `$v % ($k - $k)` fails on
/// every row, and a range/4 cluster answers it as the unsharded engine
/// does under each policy — the same `CoreError`, not `<results/>`,
/// incomplete, with all four shards missing.
#[test]
fn a_failing_conjunct_fails_as_unsharded_not_as_lost_shards() {
    let events = || {
        let mut xml = String::from("<events>");
        for i in 0..40 {
            xml.push_str(&format!("<row><key>{}</key><val>{}</val></row>", i, i * 7 % 40));
        }
        xml.push_str("</events>");
        let c = Catalog::new();
        c.register_source(Arc::new(XmlDocAdapter::new("w").add_xml("events", &xml).unwrap()))
            .unwrap();
        Arc::new(c)
    };
    let q = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $v % ($k - $k) > 1
               CONSTRUCT <e>$v</e>"#;
    let specs = [("events", ShardSpec::range("key", vec![10.0, 20.0, 30.0]))];
    let answer = |r: Result<nimble_core::QueryResult, CoreError>| {
        r.map(|r| (to_string(&r.document.root()), r.complete, r.missing_sources))
    };
    for policy in POLICIES {
        let config = EngineConfig {
            unavailable: policy,
            ..EngineConfig::default()
        };
        let want = answer(Engine::with_config(events(), config.clone()).query(q));
        assert_eq!(want, Err(CoreError::Exec("arithmetic error: modulo by zero".into())));
        let cluster = ShardedCluster::build(events(), config, &specs).unwrap();
        for pass in ["cold", "warm"] {
            assert_eq!(answer(cluster.query(q)), want, "{:?}, {}", policy, pass);
        }
    }
}

#[test]
fn source_call_record_says_how_many_shards_answered_from_the_memo() {
    // slow_query_ms = 0 keeps every query's evidence in the flight ring.
    let config = EngineConfig {
        slow_query_ms: 0.0,
        ..EngineConfig::default()
    };
    let specs = vec![("customers", ShardSpec::range("id", vec![2.5, 4.5, 6.5]))];
    let cluster = ShardedCluster::build(catalog(), config, &specs).unwrap();
    cluster.query(NAMES_BY_ID).unwrap();
    cluster.query(NAMES_BY_ID).unwrap();
    let kinds: Vec<String> = cluster
        .coordinator()
        .flight_recorder()
        .records()
        .iter()
        .flat_map(|rec| rec.source_calls.iter().map(|c| c.kind.clone()))
        .collect();
    assert_eq!(kinds, vec!["fetch-sharded memo=0/4", "fetch-sharded memo=4/4"]);
}
