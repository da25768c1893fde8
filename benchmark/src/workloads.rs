//! The six workloads: what data each one loads, what one op is, and —
//! from plain loops over the generated rows, never from the engine —
//! what the right answer to each op is.

use crate::check::{Expected, Summary};
use crate::counted::{Counted, Counters};
use crate::gen::{self, CustomerData, FeedItem, Rng, ShardData};
use crate::need;
use crate::spans::recorder;
use nimble_core::{Catalog, Engine, EngineConfig, ShardSpec, ShardedCluster};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::xmldoc::XmlDocAdapter;
use nimble_sources::SourceAdapter;
use nimble_xml::{Atomic, DocumentBuilder};
use std::sync::Arc;

/// Name, sizes and reason of each workload. `BENCHMARK.json` is
/// generated from this table (`nimble-benchmark manifest`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "join_serve",
        "E16 three-source join+filter+ORDER-BY over 2500 customers, same text every op: fetch and tuple conversion dominate, plan cache always hits, parallel fetch/build/sort gates crossed",
    ),
    (
        "lens_point",
        "pushed-down point lookup rotating customers/orders/tickets, 5500 distinct texts vs a 128-entry plan cache: parse/analyze/plan and fixed per-query overhead dominate, execution is tiny",
    ),
    (
        "lookup_join",
        "2500 customers joined to 7500 orders with $i=K on the customer side, new K per op: 3 answers but the whole orders table is shipped, so sideways pushdown and fragment-cache churn show",
    ),
    (
        "xml_scan",
        "nested pattern with two attribute bindings over an 8000-item XML feed, $s>300 keeps 75%, ORDER-BY, ~500 KB streamed answer: matcher and construct dominate, relational idle",
    ),
    (
        "view_refresh",
        "cycles of 7 filtered reads of materialised view customer360 (7500 rows) then 1 write: INSERT 10 orders, note mutation, pass TTL, refresh; p50 is the read path, p95 the refresh path",
    ),
    (
        "shard_fanout",
        "range/4 ShardedCluster over 100000 events joined to 1000 dims, cycles of 3 selective ops (3 of 4 shards pruned) then 1 fan-out op: the only Exchange, pruning and gather workload",
    ),
];

pub const CUSTOMERS: usize = 2500;
pub const FEED_ITEMS: usize = 8000;
pub const SHARD_ROWS: usize = 100_000;
pub const INSERT_ROWS: usize = 10;
const VIEW_TTL: u64 = 1000;
const SCORE_FLOOR: u32 = 300;

/// Generated inputs of one run, made once and untimed; set-up (timed,
/// repeated) loads them into a fresh engine.
pub enum Data {
    Customers {
        rows: CustomerData,
        statements: [(&'static str, Vec<String>); 3],
        press_xml: String,
    },
    Feed {
        items: Vec<FeedItem>,
        xml: String,
    },
    Shard(ShardData),
}

pub fn generate(workload: &str, seed: u64) -> Data {
    match workload {
        "xml_scan" => {
            let items = gen::feed(seed, FEED_ITEMS);
            let xml = gen::feed_xml(&items);
            Data::Feed { items, xml }
        }
        "shard_fanout" => Data::Shard(ShardData::generate(seed, SHARD_ROWS)),
        _ => {
            let rows = CustomerData::generate(seed, CUSTOMERS);
            Data::Customers {
                statements: rows.statements(),
                press_xml: rows.press_xml(),
                rows,
            }
        }
    }
}

/// A loaded system under test.
pub struct Bench {
    pub engine: Arc<Engine>,
    pub catalog: Arc<Catalog>,
    pub counters: Arc<Counters>,
    /// The relational sources behind the catalog's wrappers;
    /// `view_refresh` writes to `billing`.
    pub relational: Vec<Arc<RelationalAdapter>>,
    /// Keeps the shard-local engines alive; `engine` is its coordinator.
    _cluster: Option<ShardedCluster>,
}

const C360: &str = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
      <row><oid>$o</oid><cust_id>$i</cust_id><total>$t</total></row> IN "orders"
CONSTRUCT <c360><id>$i</id><name>$n</name><region>$r</region><oid>$o</oid><total>$t</total></c360>"#;

/// Set-up: fixture build, catalog registration (which samples every
/// collection), shard partitioning, view materialisation. Everything
/// runs with `EngineConfig::default()`.
pub fn build(workload: &str, data: &Data) -> Bench {
    let counters = Arc::new(Counters::default());
    let catalog = Catalog::new();
    let register = |catalog: &Catalog, adapter: Arc<dyn SourceAdapter>| {
        need(
            catalog.register_source(Counted::wrap(adapter, &counters)),
            "register source",
        );
    };
    let mut relational = Vec::new();
    match data {
        Data::Customers {
            statements,
            press_xml,
            ..
        } => {
            for (name, stmts) in statements {
                let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
                let adapter = Arc::new(need(
                    RelationalAdapter::from_statements(name, &refs),
                    "relational source builds",
                ));
                relational.push(Arc::clone(&adapter));
                register(&catalog, adapter);
            }
            let press = need(
                XmlDocAdapter::new("press").add_xml("releases", press_xml),
                "press feed parses",
            );
            register(&catalog, Arc::new(press));
        }
        Data::Feed { xml, .. } => {
            let wire = need(
                XmlDocAdapter::new("wire").add_xml("feed", xml),
                "feed parses",
            );
            register(&catalog, Arc::new(wire));
        }
        Data::Shard(shard) => {
            let mut b = DocumentBuilder::new("events");
            for (j, v) in shard.vals.iter().enumerate() {
                b.start_element("row");
                b.leaf("key", Atomic::Int(i64::from(ShardData::key_of(j))));
                b.leaf("val", Atomic::Int(i64::from(*v)));
                b.end_element();
            }
            let events = b.finish();
            let mut b = DocumentBuilder::new("dims");
            for (k, name) in shard.dim_names.iter().enumerate() {
                b.start_element("row");
                b.leaf("key", Atomic::Int(k as i64));
                b.leaf("name", Atomic::Str(name.clone()));
                b.end_element();
            }
            let warehouse = XmlDocAdapter::new("warehouse")
                .add_document("events", events)
                .add_document("dims", b.finish());
            register(&catalog, Arc::new(warehouse));
        }
    }
    let catalog = Arc::new(catalog);
    if workload == "shard_fanout" {
        let quarter = gen::SHARD_KEYS / 4;
        let bounds = (1..4).map(|k| (k * quarter) as f64).collect();
        let cluster = need(
            ShardedCluster::build(
                Arc::clone(&catalog),
                EngineConfig::default(),
                &[("events", ShardSpec::range("key", bounds))],
            ),
            "shard cluster builds",
        );
        return Bench {
            engine: Arc::clone(cluster.coordinator()),
            catalog,
            counters,
            relational,
            _cluster: Some(cluster),
        };
    }
    let engine = Arc::new(Engine::with_config(
        Arc::clone(&catalog),
        EngineConfig::default(),
    ));
    if workload == "view_refresh" {
        need(
            catalog.define_view("customer360", C360, Some(VIEW_TTL)),
            "define customer360",
        );
        need(
            engine.materialize_view("customer360", None),
            "materialise customer360",
        );
    }
    Bench {
        engine,
        catalog,
        counters,
        relational,
        _cluster: None,
    }
}

pub enum Act {
    /// `Engine::query_serialized(text)`.
    Query(String),
    /// `view_refresh`'s write: INSERT, note the mutation, pass the TTL,
    /// refresh stale views.
    Write(String),
}

pub struct Op {
    pub act: Act,
    /// For a query, the expected answer; a write is right when exactly
    /// `customer360` was refreshed (the reads after it check the rows).
    pub want: Option<Summary>,
}

pub enum Outcome {
    Answer(String),
    Refreshed(Vec<String>),
}

pub fn run_op(bench: &Bench, op: &Op) -> Result<Outcome, String> {
    match &op.act {
        Act::Query(text) => bench
            .engine
            .query_serialized(text)
            .map(Outcome::Answer)
            .map_err(|e| e.to_string()),
        Act::Write(sql) => {
            let billing = bench
                .relational
                .iter()
                .find(|a| a.name() == "billing")
                .ok_or_else(|| "no billing source".to_string())?;
            {
                let _s = recorder().enter("relational.insert");
                let db = billing.database();
                let mut db = db.write();
                db.execute(sql).map_err(|e| e.to_string())?;
            }
            {
                let _s = recorder().enter("catalog.mutation");
                bench.catalog.note_source_mutation("billing");
            }
            bench.engine.clock().advance(VIEW_TTL + 1);
            let _s = recorder().enter("store.refresh");
            Ok(Outcome::Refreshed(bench.engine.refresh_stale_views()))
        }
    }
}

pub fn is_right(op: &Op, outcome: &Outcome) -> bool {
    match (outcome, &op.want) {
        (Outcome::Answer(xml), Some(want)) => crate::check::scan(xml) == Some(*want),
        (Outcome::Refreshed(names), None) => names.len() == 1 && names[0] == "customer360",
        _ => false,
    }
}

/// The op stream of one workload: texts and expected answers, in op
/// order, from the seed. Holds the reference evaluator's own copy of
/// the rows (which `view_refresh` grows as it inserts). Built once per
/// run; every set-up starts from a clone.
#[derive(Clone)]
pub struct Script {
    kind: Kind,
    rng: Rng,
    i: u64,
}

#[derive(Clone)]
enum Kind {
    JoinServe {
        text: String,
        want: Summary,
    },
    LensPoint {
        data: CustomerData,
        keys: Vec<u32>,
    },
    LookupJoin {
        data: CustomerData,
        keys: Vec<u32>,
    },
    XmlScan {
        text: String,
        want: Summary,
    },
    ViewRefresh {
        data: CustomerData,
        floor: u32,
    },
    ShardFanout {
        selective: (String, Summary),
        fanout: (String, Summary),
    },
}

const JOIN_SERVE: &str = r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers",
      <row><cust_id>$i</cust_id><total>$t</total></row> IN "orders",
      <row><cust_id>$i</cust_id><severity>$sev</severity></row> IN "tickets",
      $t > 300, $sev > 1
CONSTRUCT <atrisk><name>$n</name><sev>$sev</sev></atrisk>
ORDER-BY $n"#;

const SELECTIVE: &str = r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events",
      <row><key>$k</key><name>$n</name></row> IN "dims",
      $k > 990
CONSTRUCT <hit><n>$n</n><v>$v</v></hit> ORDER-BY $v"#;

impl Script {
    pub fn new(workload: &str, seed: u64, data: &Data) -> Script {
        let mut rng = Rng::new(seed ^ 0x0b5e_55ed);
        let kind = match (workload, data) {
            ("join_serve", Data::Customers { rows, .. }) => Kind::JoinServe {
                text: JOIN_SERVE.to_string(),
                want: join_serve_answer(rows),
            },
            ("lens_point", Data::Customers { rows, .. }) => Kind::LensPoint {
                data: rows.clone(),
                keys: rng.permutation(CUSTOMERS),
            },
            ("lookup_join", Data::Customers { rows, .. }) => Kind::LookupJoin {
                data: rows.clone(),
                keys: rng.permutation(CUSTOMERS),
            },
            ("view_refresh", Data::Customers { rows, .. }) => Kind::ViewRefresh {
                data: rows.clone(),
                floor: 440 + rng.below(40) as u32,
            },
            ("xml_scan", Data::Feed { items, .. }) => Kind::XmlScan {
                text: format!(
                    r#"WHERE <item id=$i cat=$c><meta><score>$s</score></meta><title>$t</title></item> IN "feed",
      $s > {}
CONSTRUCT <hit id=$i><c>$c</c><t>$t</t></hit>
ORDER-BY $s"#,
                    SCORE_FLOOR
                ),
                want: xml_scan_answer(items),
            },
            ("shard_fanout", Data::Shard(shard)) => {
                let floor = SHARD_ROWS - 3000;
                Kind::ShardFanout {
                    selective: (SELECTIVE.to_string(), selective_answer(shard)),
                    fanout: (
                        format!(
                            r#"WHERE <row><key>$k</key><val>$v</val></row> IN "events", $v > {}
CONSTRUCT <e>$v</e>"#,
                            floor
                        ),
                        fanout_answer(shard, floor as u32),
                    ),
                }
            }
            _ => {
                eprintln!("nimble-benchmark: unknown workload {:?}", workload);
                std::process::exit(2);
            }
        };
        Script { kind, rng, i: 0 }
    }

    /// Ops per cycle; blocks and replays are whole cycles so every
    /// block holds the same mix.
    pub fn cycle(&self) -> usize {
        match self.kind {
            Kind::JoinServe { .. } | Kind::XmlScan { .. } | Kind::LookupJoin { .. } => 1,
            Kind::LensPoint { .. } => 3,
            Kind::ViewRefresh { .. } => 8,
            Kind::ShardFanout { .. } => 4,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.i;
        self.i += 1;
        let query = |text: String, want: Summary| Op {
            act: Act::Query(text),
            want: Some(want),
        };
        match &mut self.kind {
            Kind::JoinServe { text, want } | Kind::XmlScan { text, want } => {
                query(text.clone(), *want)
            }
            Kind::LensPoint { data, keys } => {
                let k = keys[(i / 3) as usize % keys.len()] as usize;
                match i % 3 {
                    0 => {
                        let c = &data.customers[k];
                        let mut e = Expected::default();
                        e.answer(&[&c.name, c.region]);
                        query(
                            format!(
                                r#"WHERE <row><id>$i</id><name>$n</name><region>$r</region></row> IN "customers", $i = {} CONSTRUCT <c><n>$n</n><r>$r</r></c>"#,
                                c.id
                            ),
                            e.finish(),
                        )
                    }
                    1 => {
                        let o = &data.orders[k];
                        let mut e = Expected::default();
                        e.answer(&[&o.cust.to_string()]);
                        query(
                            format!(
                                r#"WHERE <row><oid>$o</oid><cust_id>$c</cust_id></row> IN "orders", $o = {} CONSTRUCT <o><c>$c</c></o>"#,
                                o.oid
                            ),
                            e.finish(),
                        )
                    }
                    _ => {
                        let t = &data.tickets[k % data.tickets.len()];
                        let mut e = Expected::default();
                        e.answer(&[&t.cust.to_string(), &t.severity.to_string()]);
                        query(
                            format!(
                                r#"WHERE <row><tid>$k</tid><cust_id>$c</cust_id><severity>$s</severity></row> IN "tickets", $k = {} CONSTRUCT <t><c>$c</c><s>$s</s></t>"#,
                                t.tid
                            ),
                            e.finish(),
                        )
                    }
                }
            }
            Kind::LookupJoin { data, keys } => {
                let c = &data.customers[keys[i as usize % keys.len()] as usize];
                let mut e = Expected::default();
                for o in data.orders.iter().filter(|o| o.cust == c.id) {
                    e.answer(&[&c.name, &o.oid.to_string()]);
                }
                query(
                    format!(
                        r#"WHERE <row><id>$i</id><name>$n</name></row> IN "customers",
      <row><oid>$o</oid><cust_id>$i</cust_id></row> IN "orders", $i = {}
CONSTRUCT <o><n>$n</n><k>$o</k></o>"#,
                        c.id
                    ),
                    e.finish(),
                )
            }
            Kind::ViewRefresh { data, floor } => {
                if i % 8 == 7 {
                    let batch = data.insert_batch(&mut self.rng, INSERT_ROWS);
                    let rows: Vec<String> = batch.iter().map(gen::order_values).collect();
                    Op {
                        act: Act::Write(format!("INSERT INTO orders VALUES {}", rows.join(", "))),
                        want: None,
                    }
                } else {
                    // Four texts (one per region), so within a cycle
                    // some reads re-plan after the write's invalidation
                    // and some hit the plan cache.
                    let region = gen::REGIONS[(i - i / 8) as usize % 4];
                    let floor = *floor;
                    // Orders are kept in oid order, which is ORDER-BY $o.
                    let mut e = Expected::default();
                    for o in &data.orders {
                        let c = &data.customers[o.cust as usize];
                        if c.region == region && o.total() > f64::from(floor) {
                            e.answer(&[&c.name, &o.oid.to_string()]);
                        }
                    }
                    query(
                        format!(
                            r#"WHERE <c360><name>$n</name><region>$r</region><oid>$o</oid><total>$t</total></c360> IN "customer360",
      $r = "{}", $t > {}
CONSTRUCT <v><n>$n</n><o>$o</o></v> ORDER-BY $o"#,
                            region, floor
                        ),
                        e.finish(),
                    )
                }
            }
            Kind::ShardFanout { selective, fanout } => {
                let (text, want) = if i % 4 == 3 { fanout } else { selective };
                query(text.clone(), *want)
            }
        }
    }
}

fn join_serve_answer(data: &CustomerData) -> Summary {
    let mut rows: Vec<(&str, u32)> = Vec::new();
    for t in data.tickets.iter().filter(|t| t.severity > 1) {
        let c = &data.customers[t.cust as usize];
        for o in data.orders.iter().filter(|o| o.cust == c.id) {
            if o.total() > 300.0 {
                rows.push((&c.name, t.severity));
            }
        }
    }
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut e = Expected::default();
    for (name, sev) in rows {
        e.answer(&[name, &sev.to_string()]);
    }
    e.finish()
}

fn xml_scan_answer(items: &[FeedItem]) -> Summary {
    let mut hits: Vec<&FeedItem> = items.iter().filter(|it| it.score > SCORE_FLOOR).collect();
    hits.sort_by_key(|it| it.score);
    let mut e = Expected::default();
    for it in hits {
        e.answer(&[&it.id.to_string(), &format!("c{}", it.cat), &it.title]);
    }
    e.finish()
}

fn selective_answer(shard: &ShardData) -> Summary {
    let mut hits: Vec<(u32, u32)> = shard
        .vals
        .iter()
        .enumerate()
        .filter(|(j, _)| ShardData::key_of(*j) > 990)
        .map(|(j, v)| (*v, ShardData::key_of(j)))
        .collect();
    hits.sort_unstable();
    let mut e = Expected::default();
    for (val, key) in hits {
        e.answer(&[&shard.dim_names[key as usize], &val.to_string()]);
    }
    e.finish()
}

fn fanout_answer(shard: &ShardData, floor: u32) -> Summary {
    let mut e = Expected::default();
    for v in shard.vals.iter().filter(|v| **v > floor) {
        e.answer(&[&v.to_string()]);
    }
    e.finish()
}
