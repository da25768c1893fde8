//! Single-layer measurements of the traced run, all taken from outside:
//! right after a block of ops, the tail of the block is replayed layer
//! by layer through the layers' public functions (`parse_query`,
//! `analyze`, `plan_query`, `verify_plan`, `Engine::query` for its
//! `QueryStats.phases`, `match_pattern`, `nimble_xml::{parse,to_string}`),
//! each call inside its own span. Plus three fixed microbenchmarks that
//! say how fast a layer is on this host on its own.

use crate::spans::recorder;
use crate::workloads::{Act, Bench, Op};
use nimble_algebra::ops::{HashJoinOp, JoinType, SortKey, SortOp, ValuesOp};
use nimble_algebra::{run_to_vec_batched, Schema};
use nimble_core::matcher::match_pattern;
use nimble_core::planner::{self, AtomExec, Plan};
use nimble_sources::relational::RelationalAdapter;
use nimble_sources::SourceAdapter;
use nimble_store::Freshness;
use nimble_xml::Value;
use std::time::Instant;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Sums over every replayed op.
#[derive(Default)]
pub struct Replay {
    pub ops: u64,
    pub parse_us: f64,
    pub analyze_us: f64,
    pub plan_us: f64,
    pub verify_us: f64,
    /// Replays whose `Engine::query` hit the plan cache, and the lookup
    /// time ("plan" phase) of those.
    pub lookups: u64,
    pub plan_lookup_us: f64,
    pub execute_us: f64,
    pub construct_us: f64,
    /// `match_pattern` over each centrally matched atom's document.
    pub match_us: f64,
    pub match_rows: u64,
    pub parse_xml_us: f64,
    pub serialize_us: f64,
    pub xml_bytes: u64,
    /// For `trace.coverage`, per replayed op: its named layer time
    /// (front end + execute; the caller adds construct) and its wall
    /// time in the traced pass.
    pub covered: Vec<(f64, f64)>,
    /// A plan of the workload's query, kept for the SQL microbenchmark.
    pub last_plan: Option<Plan>,
}

impl Replay {
    /// Replay query op `op_id`. `answer` is what the op returned,
    /// `missed` whether its plan-cache lookup missed, `wall_us` its wall
    /// time in the traced pass.
    pub fn query(
        &mut self,
        bench: &Bench,
        op_id: u32,
        op: &Op,
        answer: Option<&str>,
        missed: bool,
        wall_us: f64,
    ) {
        let Act::Query(text) = &op.act else { return };
        let r = recorder();
        let _root = r.op(op_id, true);
        let config = bench.engine.config();

        let t = Instant::now();
        let parsed = {
            let _s = r.enter("xmlql.parse");
            nimble_xmlql::parse_query(text)
        };
        let parse_us = us_since(t);
        let Ok(query) = parsed else { return };
        let t = Instant::now();
        {
            let _s = r.enter("xmlql.analyze");
            let _ = std::hint::black_box(nimble_xmlql::analyze(&query));
        }
        let analyze_us = us_since(t);
        let t = Instant::now();
        let planned = {
            let _s = r.enter("planner.plan");
            let shards = bench.engine.shard_runtime();
            planner::plan_query_sharded(
                &bench.catalog,
                &query,
                &config.optimizer,
                shards.as_deref(),
            )
        };
        let plan_us = us_since(t);
        let Ok(plan) = planned else { return };
        let t = Instant::now();
        {
            let _s = r.enter("planner.verify");
            let _ = std::hint::black_box(planner::verify_plan(&plan, None));
        }
        let verify_us = us_since(t);

        let result = {
            let _s = r.enter("core.engine_query");
            bench.engine.query(text)
        };
        let Ok(result) = result else { return };
        let phase = |name: &str| -> Option<f64> {
            result
                .stats
                .phases
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, ms)| ms * 1e3)
        };
        let execute_us = phase("execute").unwrap_or(0.0);
        self.ops += 1;
        self.parse_us += parse_us;
        self.analyze_us += analyze_us;
        self.plan_us += plan_us;
        self.verify_us += verify_us;
        self.execute_us += execute_us;
        self.construct_us += phase("construct").unwrap_or(0.0);
        let replay_hit = phase("parse").is_none();
        if replay_hit {
            self.lookups += 1;
            self.plan_lookup_us += phase("plan").unwrap_or(0.0);
        }
        let front_us = if missed {
            // The engine verifies plans only when configured to (debug
            // builds); the benchmark build leaves it off.
            let verify = if config.optimizer.verify_plans {
                verify_us
            } else {
                0.0
            };
            parse_us + analyze_us + plan_us + verify
        } else if replay_hit {
            phase("plan").unwrap_or(0.0)
        } else {
            0.0
        };
        self.covered.push((front_us + execute_us, wall_us));

        // The matcher alone, on each atom the engine matches centrally
        // (sharded scans excepted: their documents live on the shards).
        for (i, atom) in plan.independents.iter().enumerate() {
            if plan.shards.iter().any(|s| s.atom == i) {
                continue;
            }
            let (doc, pattern) = match atom {
                AtomExec::FetchMatch {
                    source,
                    collection,
                    pattern,
                    ..
                } => {
                    let Some(adapter) = bench.catalog.source(source) else {
                        continue;
                    };
                    let Ok(doc) = adapter.fetch_collection(collection) else {
                        continue;
                    };
                    (doc, pattern)
                }
                AtomExec::ViewMatch { view, pattern, .. } => {
                    match bench.engine.views().peek(view) {
                        Some(v) if v.freshness(bench.engine.clock().now()) == Freshness::Fresh => {
                            (v.document, pattern)
                        }
                        _ => continue,
                    }
                }
                AtomExec::Fragment { .. } => continue,
            };
            let t = Instant::now();
            let rows = {
                let _s = r.enter("matcher.match");
                match_pattern(&doc.root(), pattern).len()
            };
            self.match_us += us_since(t);
            self.match_rows += rows as u64;
        }
        self.last_plan = Some(plan);

        // The XML layer alone: re-parse the answer (which also proves
        // it well-formed) and serialise it again.
        if let Some(xml) = answer {
            let t = Instant::now();
            let doc = {
                let _s = r.enter("xml.parse");
                nimble_xml::parse(xml)
            };
            let parse_xml_us = us_since(t);
            if let Ok(doc) = doc {
                let t = Instant::now();
                let again = {
                    let _s = r.enter("xml.serialize");
                    nimble_xml::to_string(&doc.root())
                };
                self.serialize_us += us_since(t);
                self.parse_xml_us += parse_xml_us;
                self.xml_bytes += again.len() as u64;
            }
        }
    }
}

/// `relational.select_rows_per_s`: the SQL the relational adapter emits
/// for the workload's pushed-down fragments, run straight against the
/// database. 0 when the plan pushes nothing down.
pub fn select_rows_per_s(bench: &Bench, plan: &Plan) -> f64 {
    let mut rows = 0u64;
    let mut secs = 0.0;
    for atom in &plan.independents {
        let AtomExec::Fragment { source, query, .. } = atom else {
            continue;
        };
        let Some(adapter) = bench.relational.iter().find(|a| a.name() == source) else {
            continue;
        };
        let sql = RelationalAdapter::to_sql(query);
        let db = adapter.database();
        let started = Instant::now();
        while started.elapsed().as_millis() < 30 {
            let t = Instant::now();
            let result = db.write().execute(&sql);
            secs += t.elapsed().as_secs_f64();
            if let Ok(set) = result {
                rows += set.rows.len() as u64;
            }
        }
    }
    if secs > 0.0 {
        rows as f64 / secs
    } else {
        0.0
    }
}

/// `algebra.hashjoin_rows_per_s` and `algebra.sort_rows_per_s`: the
/// vectorised hash join and sort on their own, at `join_serve`'s
/// cardinalities (2500 customers probed by ~3000 filtered orders; the
/// join output sorted by name). Rows per second of input consumed.
pub fn algebra_rows_per_s() -> (f64, f64) {
    const BUILD: usize = 2500;
    const PROBE: usize = 3000;
    let customers: Vec<Vec<Value>> = (0..BUILD)
        .map(|i| {
            vec![
                Value::from(i as i64),
                Value::from(format!("cust-{:05}-{}", (i * 7919) % BUILD, i).as_str()),
            ]
        })
        .collect();
    let orders: Vec<Vec<Value>> = (0..PROBE)
        .map(|j| {
            vec![
                Value::from(((j * 31) % BUILD) as i64),
                Value::from(j as i64),
            ]
        })
        .collect();
    let mut join_secs = 0.0;
    let mut sort_secs = 0.0;
    let reps = 20;
    for _ in 0..reps {
        let left = ValuesOp::new(Schema::new(vec!["i".into(), "t".into()]), orders.clone());
        let right = ValuesOp::new(Schema::new(vec!["i".into(), "n".into()]), customers.clone());
        let mut join =
            HashJoinOp::natural(Box::new(left), Box::new(right), JoinType::Inner).vectorized(true);
        let t = Instant::now();
        let joined = run_to_vec_batched(&mut join, 1024);
        join_secs += t.elapsed().as_secs_f64();
        let Ok((joined, _)) = joined else {
            return (0.0, 0.0);
        };
        let schema = nimble_algebra::Operator::schema(&join).clone();
        let name_col = schema.index_of("n").unwrap_or(0);
        let mut sort = SortOp::new(
            Box::new(ValuesOp::new(schema, joined)),
            vec![SortKey {
                column: name_col,
                descending: false,
            }],
        )
        .vectorized(true);
        let t = Instant::now();
        let sorted = run_to_vec_batched(&mut sort, 1024);
        sort_secs += t.elapsed().as_secs_f64();
        std::hint::black_box(&sorted);
    }
    let join_rows = (reps * (BUILD + PROBE)) as f64;
    let sort_rows = (reps * PROBE) as f64;
    (
        join_rows / join_secs.max(1e-9),
        sort_rows / sort_secs.max(1e-9),
    )
}
