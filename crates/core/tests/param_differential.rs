//! Differential test for parameterized plans (DESIGN.md §12): a plan
//! cached for a query's *shape* and bound to each serve's own equality
//! parameters does what a plan made for that serve's text does.
//!
//! Every op of the families below runs on two engines over the same
//! data — one with the default plan cache, one with
//! `plan_cache_capacity: 0`, which plans every text — and must give
//! **byte-identical** documents, the same statements shipped to each
//! source (a watching adapter keeps them), the same `source_calls`, and
//! the same `why(i)` under lineage tracking. Both run `verify_plans`, so
//! every sixteenth hit is also re-planned and compared inside the engine.
//!
//! * the three point lookups of the benchmark's `lens_point`, a lookup
//!   by name, and its `lookup_join`, across two sources;
//! * `batch_differential`'s selection-on-`$i` production: `$i = K` over
//!   a same-source join (one merged fragment, two sites) and a second
//!   source's fragment;
//! * the `view_refresh` read: `$r = "…"` kept central over a
//!   materialised view, beside a range that stays in the shape;
//! * two parameters on one variable.
//!
//! Each at ≥ 40 values from a printed seed, plus the edge values: keys
//! outside the column's exhaustive bounds (pruned, no source call), a
//! duplicate, one number spelled `Int`, `Float` and numeric `Str` (three
//! shapes), `literal = $v`, quotes inside strings.
//!
//! Then what a wrong binding would break silently: the stale-cache key
//! under `UnavailablePolicy::StaleCache`, and shard routing. And what a
//! wrong stamp would: seeded writes between serves, after which a plan
//! the cache kept (an append no longer moves its stamp) must answer what
//! a plan made afresh answers.
//!
//! Hand-enumerated like `bind_differential.rs`.

use nimble_core::engine::OptimizerConfig;
use nimble_core::{
    Catalog, Engine, EngineConfig, QueryResult, ShardSpec, ShardedCluster, UnavailablePolicy,
};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::sim::{LinkConfig, SimulatedLink};
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_trace::rng::Rng;
use nimble_sources::{
    Capabilities, CollectionInfo, SourceAdapter, SourceError, SourceKind, SourceQuery,
};
use nimble_xml::{to_string, Document};
use nimble_xmlql::QueryShape;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

mod shape_keys;

const SEED: u64 = 20_011_017;

/// Pass-through adapter that keeps what it was asked, in order: the SQL
/// of each fragment, the name of each collection fetched whole.
struct Watch {
    inner: Arc<dyn SourceAdapter>,
    asked: Mutex<Vec<String>>,
}

impl Watch {
    fn asked(&self) -> Vec<String> {
        self.asked.lock().unwrap().clone()
    }
}

impl SourceAdapter for Watch {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn collections(&self) -> Vec<CollectionInfo> {
        self.inner.collections()
    }
    fn execute(&self, query: &SourceQuery) -> Result<Arc<Document>, SourceError> {
        self.asked.lock().unwrap().push(RelationalAdapter::to_sql(query));
        self.inner.execute(query)
    }
    fn fetch_collection(&self, name: &str) -> Result<Arc<Document>, SourceError> {
        self.asked.lock().unwrap().push(format!("fetch {}", name));
        self.inner.fetch_collection(name)
    }
    fn estimated_rows(&self, collection: &str) -> Option<u64> {
        self.inner.estimated_rows(collection)
    }
}

const CUSTOMERS: u64 = 120;
const ORDERS: u64 = 360;
const TICKETS: u64 = 40;
const REGIONS: [&str; 4] = ["NW", "SW", "NE", "SE"];

/// `erp` holds `customers` (120, sampled exhaustively, so a key outside
/// 1..=120 is provably absent) and `orders` (360, three a customer, past
/// the sample: no bounds) — two tables of one source, so a join of them
/// is pushed as one fragment; `billing.invoices` (one for every other
/// customer) and `support.tickets` (40) are sources of their own.
/// Customers 7 and 8 have quotes in their names.
fn statements() -> [(&'static str, Vec<String>); 3] {
    let mut rng = Rng::new(SEED);
    let mut erp = vec![
        "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
        "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string(),
    ];
    let mut billing = vec!["CREATE TABLE invoices (cust_id INT, amount INT)".to_string()];
    for i in 1..=CUSTOMERS {
        let name = match i {
            7 => "O''Hare".to_string(),
            8 => "say \"hi\"".to_string(),
            _ => format!("c{:03}", i),
        };
        erp.push(format!(
            "INSERT INTO customers VALUES ({}, '{}', '{}')",
            i,
            name,
            REGIONS[rng.below(4)]
        ));
        for j in 0..ORDERS / CUSTOMERS {
            erp.push(format!(
                "INSERT INTO orders VALUES ({}, {}, {}.5)",
                1000 + 3 * i + j,
                i,
                rng.below(600)
            ));
        }
        if i % 2 == 0 {
            billing.push(format!("INSERT INTO invoices VALUES ({}, {})", i, rng.below(90)));
        }
    }
    let mut support = vec!["CREATE TABLE tickets (tid INT, cust_id INT, severity INT)".to_string()];
    for t in 0..TICKETS {
        support.push(format!(
            "INSERT INTO tickets VALUES ({}, {}, {})",
            500 + t,
            rng.below(CUSTOMERS as usize) + 1,
            rng.below(3) + 1
        ));
    }
    [("erp", erp), ("billing", billing), ("support", support)]
}

const C360: &str = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
      <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
CONSTRUCT <c360><id>$i</id><name>$n</name><region>$r</region><oid>$o</oid><total>$t</total></c360>"#;

struct Rig {
    engine: Engine,
    /// `erp`, `billing`, `support`.
    watches: Vec<Arc<Watch>>,
    links: Vec<Arc<SimulatedLink>>,
    /// The databases behind the watches, in the same order.
    sources: Vec<Arc<RelationalAdapter>>,
}

impl Rig {
    /// What every source has been asked so far.
    fn asked(&self) -> Vec<Vec<String>> {
        self.watches.iter().map(|w| w.asked()).collect()
    }
}

/// An engine over the three sources, each behind a [`Watch`] and a link
/// that can be taken down, with `customer360` materialised.
fn rig(config: EngineConfig) -> Rig {
    let catalog = Catalog::new();
    let (mut watches, mut links, mut sources) = (Vec::new(), Vec::new(), Vec::new());
    for (name, stmts) in statements() {
        let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
        let source = Arc::new(RelationalAdapter::from_statements(name, &refs).unwrap());
        sources.push(Arc::clone(&source));
        let watch = Arc::new(Watch {
            inner: source,
            asked: Mutex::new(Vec::new()),
        });
        let link = SimulatedLink::new(watch.clone(), LinkConfig::default());
        catalog.register_source(link.clone()).unwrap();
        watches.push(watch);
        links.push(link);
    }
    catalog.define_view("customer360", C360, Some(1_000_000)).unwrap();
    let engine = Engine::with_config(Arc::new(catalog), config);
    engine.materialize_view("customer360", None).unwrap();
    Rig {
        engine,
        watches,
        links,
        sources,
    }
}

fn config(plan_cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        optimizer: OptimizerConfig {
            track_lineage: true,
            verify_plans: true,
            ..OptimizerConfig::default()
        },
        plan_cache_capacity,
        ..EngineConfig::default()
    }
}

fn document(r: &QueryResult) -> String {
    to_string(&r.document.root())
}

/// `why(i)` of every answer.
fn whys(r: &QueryResult) -> Vec<Vec<String>> {
    let answers = r.provenance.as_ref().map_or(0, |p| p.answers.len());
    (0..answers)
        .map(|i| {
            r.why(i)
                .unwrap()
                .iter()
                .map(|s| format!("{}:{}:stale={}", s.name, s.detail, s.stale))
                .collect()
        })
        .collect()
}

/// `n` keys in `lo..=hi` from the stream, then the edge keys every
/// family gets: both sides out of every column's bounds, and a key
/// served before.
fn keys(rng: &mut Rng, lo: u64, hi: u64, n: usize) -> Vec<String> {
    let mut keys: Vec<String> = (0..n)
        .map(|_| (lo + rng.below((hi - lo + 1) as usize) as u64).to_string())
        .collect();
    keys.push("0".to_string());
    keys.push("100000".to_string());
    keys.push(keys[0].clone());
    keys
}

/// `template` with each key where it says `$K = K`.
fn family(template: &str, var: &str, keys: &[String]) -> Vec<String> {
    keys.iter()
        .map(|k| template.replace("$K = K", &format!("{} = {}", var, k)))
        .collect()
}

/// One number as the three literal types and as a literal on the left —
/// four shapes — at two keys each, so every shape is also bound once.
fn spellings(template: &str, var: &str, k: u64) -> Vec<String> {
    let mut texts = Vec::new();
    for k in [k, k + 1] {
        for pred in [
            format!("{} = {}", var, k),
            format!("{} = {}.0", var, k),
            format!("{} = \"{}\"", var, k),
            format!("{} = {}", k, var),
        ] {
            texts.push(template.replace("$K = K", &pred));
        }
    }
    texts
}

/// The families' texts, in serving order. `$K = K` in a template is
/// where the key goes.
fn all_ops() -> Vec<String> {
    let mut rng = Rng::new(SEED ^ 0x5eed);
    let mut ops: Vec<String> = Vec::new();

    // `lens_point`'s three lookups.
    let by_id = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers", $K = K CONSTRUCT <c><n>$n</n><r>$r</r></c>"#;
    let by_oid = r#"WHERE <row><oid>$o</oid><cust_id>$c</cust_id></row> IN "orders", $K = K CONSTRUCT <o><c>$c</c></o>"#;
    let by_tid = r#"WHERE <row><tid>$k</tid><cust_id>$c</cust_id><severity>$s</severity></row> IN "tickets", $K = K CONSTRUCT <t><c>$c</c><s>$s</s></t>"#;
    ops.extend(family(by_id, "$i", &keys(&mut rng, 1, CUSTOMERS, 40)));
    ops.extend(family(by_oid, "$o", &keys(&mut rng, 1003, 1003 + ORDERS - 1, 40)));
    ops.extend(family(by_tid, "$k", &keys(&mut rng, 500, 500 + TICKETS - 1, 40)));
    ops.extend(spellings(by_id, "$i", 7));
    // A total is a FLOAT column past the sample: every spelling of a
    // float reaches the source's SQL.
    let by_total = r#"WHERE <row><oid>$o</oid><total>$t</total></row> IN "orders", $K = K CONSTRUCT <o>$o</o>"#;
    let totals = ["12.5", "0.000001", "10000000000000000.0", "0.5", "599.5", "12.5"];
    ops.extend(family(by_total, "$t", &totals.map(String::from)));

    // By name: quotes inside the parameter, through SQL and back.
    let by_name = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $K = K CONSTRUCT <c>$i</c>"#;
    let names = [r#""c003""#, r#""O'Hare""#, r#""say \"hi\"""#, r#""nobody""#, r#"'c004'"#, r#""c003""#, r#""7""#];
    ops.extend(family(by_name, "$n", &names.map(String::from)));

    // `lookup_join`, across two sources: the key goes to both.
    let lookup = r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
      <row><cust_id>$i</cust_id><amount>$a</amount></row> IN "invoices", $K = K
CONSTRUCT <o><n>$n</n><a>$a</a></o>"#;
    ops.extend(family(lookup, "$i", &keys(&mut rng, 1, CUSTOMERS, 40)));
    ops.extend(spellings(lookup, "$i", 8));

    // `batch_differential`'s production at `$i = K`: customers alone or
    // joined to the same source's orders (one merged fragment holding
    // the key twice), with or without a second source's fragment.
    for join in [false, true] {
        for cross in [false, true] {
            for order in ["", " ORDER-BY $n"] {
                let mut pats =
                    vec![r#"<row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers""#];
                let mut construct = String::from("<n>$n</n><r>$r</r>");
                if join {
                    pats.push(r#"<row><cust_id>$i</cust_id><total>$t</total></row> IN "orders""#);
                    construct.push_str("<t>$t</t>");
                }
                if cross {
                    pats.push(r#"<row><cust_id>$i</cust_id><amount>$a</amount></row> IN "invoices""#);
                    construct.push_str("<a>$a</a>");
                }
                let template = format!(
                    "WHERE {}, $K = K CONSTRUCT <hit>{}</hit>{}",
                    pats.join(", "),
                    construct,
                    order
                );
                ops.extend(family(&template, "$i", &keys(&mut rng, 1, CUSTOMERS, 40)));
            }
        }
    }

    // The `view_refresh` read: the region is a parameter kept central,
    // the floor a range that stays in the shape.
    let view_read = r#"WHERE <c360><name>$n</name><region>$r</region><oid>$o</oid><total>$t</total></c360> IN "customer360",
      $K = K, $t > 450
CONSTRUCT <v><n>$n</n><o>$o</o></v> ORDER-BY $o"#;
    let mut regions: Vec<String> = (0..36)
        .map(|_| format!("\"{}\"", REGIONS[rng.below(4)]))
        .collect();
    regions.extend([r#""ZZ""#, r#""it's \"x\"""#, r#""7""#, r#""NW""#].map(String::from));
    ops.extend(family(view_read, "$r", &regions));
    ops.push(view_read.replace("$K = K", r#""SW" = $r"#));
    ops.push(view_read.replace("$K = K", r#""NE" = $r"#));

    // Two parameters on one variable: a contradiction (pruned when it
    // is the text planned), then twice the same key.
    let mut pairs = vec![(5, 6), (7, 7), (6, 5), (7, 7), (5, 5)];
    pairs.extend((0..40).map(|_| (1 + rng.below(4), 1 + rng.below(4))));
    for (a, b) in pairs {
        ops.push(format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i = {}, $i = {} CONSTRUCT <c>$n</c>"#,
            a, b
        ));
    }
    ops
}

#[test]
fn cached_shapes_serve_what_fresh_plans_serve() {
    println!("param_differential seed {}", SEED);
    let cached = rig(config(128));
    let fresh = rig(config(0));
    let ops = all_ops();
    let mut shapes: HashSet<String> = HashSet::new();
    let (mut answered, mut pruned, mut bound) = (0, 0, 0);
    for text in &ops {
        let query = nimble_xmlql::parse_query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let first_of_shape = shapes.insert(QueryShape(&query).to_string());
        let (c0, f0) = (cached.asked(), fresh.asked());
        let got = cached.engine.query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let want = fresh.engine.query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let context = format!(
            "seed {}\n{}\ncached:\n{}\nfresh:\n{}",
            SEED, text, got.stats.plan, want.stats.plan
        );
        assert_eq!(document(&got), document(&want), "{}", context);
        assert_eq!(got.stats.source_calls, want.stats.source_calls, "{}", context);
        assert_eq!(got.stats.rows_fetched, want.stats.rows_fetched, "{}", context);
        assert_eq!((got.complete, got.stale), (want.complete, want.stale), "{}", context);
        assert_eq!(whys(&got), whys(&want), "{}", context);
        // What each source was asked for this op, statement by statement.
        let since = |rig: &Rig, before: &[Vec<String>]| -> Vec<Vec<String>> {
            rig.asked()
                .iter()
                .zip(before)
                .map(|(now, then)| now[then.len()..].to_vec())
                .collect()
        };
        let shipped = since(&cached, &c0);
        assert_eq!(shipped, since(&fresh, &f0), "{}", context);
        // EXPLAIN says which path ran, and shows the statements that
        // were shipped — not those of the text the shape was planned
        // for.
        let path = got.stats.plan.lines().next().unwrap_or_default();
        if first_of_shape {
            assert_eq!(path, "-- plan: planned", "{}", context);
        } else {
            let params = query.eq_params().len();
            assert_eq!(
                path,
                format!("-- plan: cached shape, {} parameters bound", params),
                "{}",
                context
            );
            bound += params;
        }
        assert_eq!(want.stats.plan.lines().next(), Some("-- plan: planned"), "{}", context);
        let notes = |plan: &str| -> Vec<String> {
            plan.lines().skip(1).filter(|l| l.starts_with("-- ")).map(str::to_string).collect()
        };
        assert_eq!(notes(&got.stats.plan), notes(&want.stats.plan), "{}", context);
        for sql in shipped.iter().flatten().filter(|s| !s.contains(" IN (")) {
            assert!(got.stats.plan.contains(sql.as_str()), "{} not in\n{}", sql, context);
        }
        if got.stats.plan.contains("-- pruned: ") {
            assert_eq!(got.stats.source_calls, 0, "{}", context);
            pruned += 1;
        }
        answered += usize::from(got.document.root().children().next().is_some());
    }

    // Every text after the first of its shape was a hit, and nothing
    // was evicted or invalidated on the way.
    let stats = cached.engine.plan_cache().stats();
    assert!(ops.len() > 600 && shapes.len() < 30, "{} ops, {} shapes", ops.len(), shapes.len());
    assert_eq!(
        (stats.hits, stats.misses, stats.invalidations, stats.evictions),
        ((ops.len() - shapes.len()) as u64, shapes.len() as u64, 0, 0),
        "{} ops, {} shapes",
        ops.len(),
        shapes.len()
    );
    assert_eq!(stats.entries, shapes.len());
    let counter = |name: &str| cached.engine.metrics_snapshot().counter(name);
    assert_eq!(counter("engine.plan_cache.hits"), stats.hits);
    assert_eq!(counter("engine.plan_cache.misses"), stats.misses);
    assert_eq!(counter("engine.plan_cache.differential_mismatch"), 0);
    assert!(counter("engine.plan_cache.differential") >= stats.hits / 16);
    assert_eq!(fresh.engine.plan_cache().stats().entries, 0);
    // The sweep is not vacuous: most ops have answers, the edge keys
    // were pruned, and parameters were bound into cached plans.
    println!(
        "{} serves, {} shapes, {} answered, {} pruned, {} parameters bound",
        ops.len(),
        shapes.len(),
        answered,
        pruned,
        bound
    );
    assert!(answered * 2 > ops.len(), "{} of {}", answered, ops.len());
    assert!(pruned >= 20, "{}", pruned);
    assert!(bound > ops.len() - shapes.len(), "{}", bound);
}

#[test]
fn serialized_serves_take_the_same_path_and_count() {
    // `query_serialized` shares the compile step: same bytes as the
    // tree path, and the engine's registry counts its serves too.
    let cached = rig(config(128));
    let fresh = rig(config(0));
    let ops = all_ops();
    for text in ops.iter().step_by(7) {
        let got = cached.engine.query_serialized(text).unwrap();
        assert_eq!(got, fresh.engine.query_serialized(text).unwrap(), "{}", text);
        assert_eq!(got, document(&fresh.engine.query(text).unwrap()), "{}", text);
    }
    let stats = cached.engine.plan_cache().stats();
    let snapshot = cached.engine.metrics_snapshot();
    assert!(stats.hits > stats.misses, "{:?}", stats);
    assert_eq!(snapshot.counter("engine.plan_cache.hits"), stats.hits);
    assert_eq!(snapshot.counter("engine.plan_cache.misses"), stats.misses);
    assert_eq!(stats.hits + stats.misses, ops.iter().step_by(7).count() as u64);
}

#[test]
fn a_hit_streams_byte_for_byte_what_a_miss_streams() {
    // A hit is served from its tokens alone: the entry's query — parsed
    // from the first text of the shape — builds the answer, and the
    // values the lexer cut from this text bind the plan. Every op but
    // the first of its shape is such a hit, and streams the bytes a
    // plan made for its own text streams.
    let cached = rig(config(128));
    let fresh = rig(config(0));
    let ops = all_ops();
    let mut shapes: HashSet<String> = HashSet::new();
    for text in &ops {
        shapes.insert(QueryShape(&nimble_xmlql::parse_query(text).unwrap()).to_string());
        let got = cached.engine.query_serialized(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        let want = fresh.engine.query_serialized(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
        assert_eq!(got, want, "seed {}\n{}", SEED, text);
    }
    let stats = cached.engine.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses), ((ops.len() - shapes.len()) as u64, shapes.len() as u64));
}

#[test]
fn stale_cache_answers_each_key_with_its_own_document() {
    // The stale cache is keyed by the fragment *as shipped*. Keyed by the
    // cached plan's fragment it would hold one document for the whole
    // shape, and answer key B with key A's row once the source is down.
    let rig = rig(EngineConfig {
        unavailable: UnavailablePolicy::StaleCache,
        ..config(128)
    });
    let lookup = |k: u64| {
        format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i = {} CONSTRUCT <c>$n</c>"#,
            k
        )
    };
    let a = rig.engine.query(&lookup(5)).unwrap();
    let b = rig.engine.query(&lookup(9)).unwrap();
    assert_eq!(document(&a), "<results><c>c005</c></results>");
    assert_eq!(document(&b), "<results><c>c009</c></results>");
    assert!(b.stats.plan.starts_with("-- plan: cached shape, 1 parameters bound"), "{}", b.stats.plan);

    rig.links[0].set_up(false);
    for (k, fresh) in [(5, &a), (9, &b), (5, &a)] {
        let stale = rig.engine.query(&lookup(k)).unwrap();
        assert!(stale.stale && stale.complete, "{}", k);
        assert_eq!(document(&stale), document(fresh), "{}", k);
        assert_eq!(whys(&stale), [["erp:fragment:stale=true"]], "{}", k);
    }
    // A key never served has no document to fall back on.
    let unseen = rig.engine.query(&lookup(11)).unwrap();
    assert!(!unseen.complete && !unseen.stale);
    assert_eq!(unseen.missing_sources, ["erp"]);
    assert_eq!(document(&unseen), "<results/>");
    // A key outside the bounds needs no source, up or down.
    let outside = rig.engine.query(&lookup(100_000)).unwrap();
    assert!(outside.complete && !outside.stale);
    assert_eq!(outside.stats.source_calls, 0);
}

/// 100 events, keys 0..100, as an XML collection (sharding splits XML
/// documents).
fn events_catalog() -> Arc<Catalog> {
    let mut events = String::from("<events>");
    for k in 0..100 {
        events.push_str(&format!("<row><key>{}</key><val>{}</val></row>", k, (k * 37) % 101));
    }
    events.push_str("</events>");
    let c = Catalog::new();
    c.register_source(Arc::new(
        XmlDocAdapter::new("warehouse").add_xml("events", &events).unwrap(),
    ))
    .unwrap();
    Arc::new(c)
}

#[test]
fn shard_routed_plans_are_cached_per_value() {
    // `plan_shards` routes `$k = K` to the shard that holds K: the plan
    // is for that K only, so it is cached under the text's own spelling
    // and every K plans its own.
    let specs = vec![("events", ShardSpec::range("key", vec![25.0, 50.0, 75.0]))];
    let cluster = ShardedCluster::build(events_catalog(), config(128), &specs).unwrap();
    let unsharded = Engine::with_config(events_catalog(), config(0));
    let lookup = |k: u64| {
        format!(
            r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $k = {} CONSTRUCT <e>$v</e>"#,
            k
        )
    };
    let engine = cluster.coordinator();
    // A shape planned first for values that contradict each other is
    // pruned, and still a plan for those values only: the next values
    // of the shape get their route.
    let twice = |a: u64, b: u64| {
        format!(
            r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $k = {}, $k = {} CONSTRUCT <e>$v</e>"#,
            a, b
        )
    };
    let contradiction = cluster.query(&twice(5, 6)).unwrap();
    assert_eq!(contradiction.stats.source_calls, 0);
    assert!(contradiction.stats.plan.contains("-- pruned: "), "{}", contradiction.stats.plan);
    let routed = cluster.query(&twice(60, 60)).unwrap();
    assert_eq!(document(&routed), document(&unsharded.query(&twice(60, 60)).unwrap()));
    assert!(
        routed.stats.plan.contains("shard: warehouse.events pruned to 1/4 shards"),
        "{}",
        routed.stats.plan
    );
    assert_eq!(engine.plan_cache().stats().entries, 2);

    let keys = [(10u64, 0usize), (40, 1), (90, 3)];
    for (round, path) in [
        (0, "-- plan: planned"),
        (1, "-- plan: cached for these values only (shard routing)"),
    ] {
        for (k, home) in keys {
            // Only the shard the key lives on is up: the answer is
            // complete exactly when the plan routes there and nowhere
            // else.
            for shard in 0..4 {
                cluster.set_shard_alive(shard, shard == home);
            }
            let got = cluster.query(&lookup(k)).unwrap();
            assert!(got.complete, "{} {:?}\n{}", k, got.missing_sources, got.stats.plan);
            assert_eq!(document(&got), document(&unsharded.query(&lookup(k)).unwrap()), "{}", k);
            assert_eq!(got.stats.plan.lines().next(), Some(path), "{}", got.stats.plan);
            assert!(
                got.stats.plan.contains("shard: warehouse.events pruned to 1/4 shards"),
                "{}",
                got.stats.plan
            );
        }
        let stats = engine.plan_cache().stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses),
            (5, 3 * round, 5),
            "round {}",
            round
        );
    }
    // A range has no equality parameter: one shape, one key, as before.
    for shard in 0..4 {
        cluster.set_shard_alive(shard, true);
    }
    let range = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $k > 95 CONSTRUCT <e>$v</e>"#;
    for path in ["-- plan: planned", "-- plan: cached shape, 0 parameters bound"] {
        let got = cluster.query(range).unwrap();
        assert_eq!(document(&got), document(&unsharded.query(range).unwrap()));
        assert_eq!(got.stats.plan.lines().next(), Some(path), "{}", got.stats.plan);
    }
}

/// The answer as a bag of serialized result elements: two plans of one
/// query may fold in different orders.
fn bag(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r.document.root().children().map(|c| to_string(&c)).collect();
    rows.sort();
    rows
}

#[test]
fn cached_plans_serve_what_fresh_plans_serve_across_writes() {
    let cached = rig(config(128));
    let fresh = rig(config(0));
    let mut rng = Rng::new(SEED ^ 0x3717e5);
    println!("param_differential writes seed {}", SEED ^ 0x3717e5);
    let mut ops: Vec<String> = all_ops().into_iter().step_by(4).collect();
    // Ranges past `customers`' exhaustive bounds: pruned, and cached as
    // pruned, until the table grows into them.
    for lo in [121, 200, 400] {
        ops.push(format!(
            r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers", $i >= {} CONSTRUCT <c>$n</c>"#,
            lo
        ));
    }
    let (mut next_id, mut writes, mut hits_after_writes) = (CUSTOMERS + 1, 0u64, 0u64);
    for round in 0..3 {
        for (n, text) in ops.iter().enumerate() {
            if n % 5 == 4 {
                // One write, the same on both sides, then noted.
                let (source, sql) = match rng.below(4) {
                    0 => {
                        let k = if rng.chance(0.2) { 150 } else { 1 + rng.below(8) as u64 };
                        let rows: Vec<String> = (next_id..next_id + k)
                            .map(|i| format!("({}, 'w{:03}', '{}')", i, i, REGIONS[rng.below(4)]))
                            .collect();
                        next_id += k;
                        (0, format!("INSERT INTO customers VALUES {}", rows.join(", ")))
                    }
                    1 => {
                        let rows: Vec<String> = (0..1 + rng.below(12))
                            .map(|_| {
                                let oid = 9000 + rng.below(100_000);
                                format!("({}, {}, {}.5)", oid, 1 + rng.below(next_id as usize), rng.below(600))
                            })
                            .collect();
                        (0, format!("INSERT INTO orders VALUES {}", rows.join(", ")))
                    }
                    2 => (
                        1,
                        format!("INSERT INTO invoices VALUES ({}, {})", 1 + rng.below(next_id as usize), rng.below(90)),
                    ),
                    _ => (
                        2,
                        format!(
                            "INSERT INTO tickets VALUES ({}, {}, {})",
                            600 + rng.below(1000),
                            1 + rng.below(next_id as usize),
                            1 + rng.below(3)
                        ),
                    ),
                };
                for rig in [&cached, &fresh] {
                    rig.sources[source].database().write().execute(&sql).unwrap();
                    rig.engine.catalog().note_source_mutation(["erp", "billing", "support"][source]);
                }
                writes += 1;
            }
            let hits = cached.engine.plan_cache().stats().hits;
            let got = cached.engine.query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
            let want = fresh.engine.query(text).unwrap_or_else(|e| panic!("{}: {}", text, e));
            let context = format!("round {} op {}\n{}\ncached:\n{}\nfresh:\n{}", round, n, text, got.stats.plan, want.stats.plan);
            assert_eq!(bag(&got), bag(&want), "{}", context);
            assert_eq!((got.complete, got.stale), (want.complete, want.stale), "{}", context);
            if writes > 0 && cached.engine.plan_cache().stats().hits > hits {
                hits_after_writes += 1;
            }
        }
    }
    // Not vacuous: both roads were taken, the grown range answered, and
    // the cache kept serving plans across writes.
    let activity = cached.engine.catalog().stats().activity();
    let grown = fresh.engine.query(ops.last().unwrap()).unwrap();
    println!(
        "{} writes ({} customers): {} appended, {} resampled; {} hits after a write, {} invalidations",
        writes,
        next_id - 1,
        activity.appended,
        activity.resampled,
        hits_after_writes,
        cached.engine.plan_cache().stats().invalidations
    );
    assert!(activity.appended >= 20 && activity.resampled >= 20, "{:?}", activity);
    assert!(bag(&grown).len() > 10, "{}\n{}\n{:?}", to_string(&grown.document.root()), grown.stats.plan, fresh.engine.catalog().stats().get_sample("erp.customers"));
    assert!(hits_after_writes * 2 > ops.len() as u64, "{}", hits_after_writes);
}

#[test]
fn a_key_is_shared_only_by_texts_of_one_shape() {
    let keys = shape_keys::keys_partition_like_shapes(&all_ops());
    assert!(keys >= 40, "{} keys", keys);
    // Of the literal forms, only `$i = 42` and `$i = -42` share a key.
    let forms = shape_keys::literal_forms();
    assert!(shape_keys::keys_partition_like_shapes(&forms) >= forms.len() - 1);
}
