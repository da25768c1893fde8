//! One repetition of one workload, in one fresh process: set up, warm
//! up, run blocks of ops for the asked number of seconds — every op
//! timed on its own, every answer checked after its block — and print
//! every metric by name, then the result line.
//!
//! Closed loop, one client thread. A block is a whole number of the
//! workload's cycles, about 0.4 s long; CPU time and source counters are
//! read at block edges, and answers are checked (and, in the traced run,
//! replayed layer by layer) between blocks, outside every timed window.
//!
//! The host this runs on drifts by tens of percent over minutes and
//! within a run (see README, "Why times are normalised"), so the
//! calibration kernel runs at every block edge and a block's times are
//! scaled by the kernel's reference time over its reading around that
//! block. Latency quantiles are taken over the scaled op times of the
//! whole run pooled; rate and CPU time over the scaled block totals.
//! `raw.p50_ms` is the one unscaled number: what the traced run's layer
//! times add up to and what `trace.overhead_pct` compares.

use crate::counted::Counts;
use crate::layers::{self, Replay};
use crate::metrics::{median, num, quantile, END_TO_END, PER_LAYER};
use crate::spans::{self, recorder, Span};
use crate::workloads::{self, is_right, run_op, Act, Bench, Op, Outcome, Script};
use crate::{host, need};
use nimble_store::cache::CacheStats;
use nimble_trace::{AllocScope, MetricsSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// For `trace.overhead_pct`: how many seconds an untraced run of
    /// the same workload measured just before this one, and its
    /// `raw.p50_ms`.
    pub reference: Option<(f64, f64)>,
    /// Where the span file goes.
    pub out_dir: PathBuf,
    /// Also write the printed `name value unit` lines here.
    pub kv: Option<PathBuf>,
    /// Free-form host facts from run.sh (`rustc -V`, opt level).
    pub host: String,
    pub smoke: bool,
}

const BLOCK_SECONDS: f64 = 0.4;
/// Set-ups of an untraced run; `setup_s` is their median. Traced and
/// smoke runs, whose `setup_s` nothing reads, set up once.
const SETUPS: usize = 5;
/// At most this many ops of a block's tail are replayed layer by layer.
const REPLAY_OPS: usize = 48;
const SPAN_FILE_CAP: usize = 60_000;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one block measured, as the clock read it.
struct Block {
    lat_ms: Vec<f64>,
    wall_s: f64,
    cpu_ms: f64,
    /// Mean of the calibration readings on either side of the block.
    cal_ms: f64,
}

impl Block {
    /// What multiplies this block's times to give them as on a host
    /// that runs the calibration kernel in `CAL_REF_MS`.
    fn scale(&self) -> f64 {
        host::CAL_REF_MS / self.cal_ms
    }
}

/// One reading at a block edge: the median of three kernel runs.
fn calibrate() -> f64 {
    median((0..3).map(|_| host::cal_ms()).collect())
}

/// Engine-published state read before a traced pass, diffed after it.
struct Before {
    metrics: MetricsSnapshot,
    cache: CacheStats,
    pool: (usize, u64, u64),
    generation: u64,
    view_hits: u64,
}

fn view_hits(bench: &Bench) -> u64 {
    let views = bench.engine.views();
    views
        .names()
        .iter()
        .filter_map(|n| views.peek(n))
        .map(|v| v.hits)
        .sum()
}

impl Before {
    fn take(bench: &Bench) -> Before {
        Before {
            metrics: bench.engine.metrics_snapshot(),
            cache: bench.engine.cache().stats(),
            pool: nimble_algebra::pool_stats(),
            generation: bench.catalog.stats().generation(),
            view_hits: view_hits(bench),
        }
    }
}

/// Everything the traced run adds up, over ops passes only (replays are
/// excluded by reading the engine's state around each pass).
#[derive(Default)]
struct Traced {
    window: MetricsSnapshot,
    pc_hits: u64,
    pc_misses: u64,
    pc_evictions: u64,
    pc_invalidations: u64,
    alloc_bytes: u64,
    alloc_count: u64,
    alloc_peak: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    pool_rounds: u64,
    pool_morsels: u64,
    generation_bumps: u64,
    view_hits: u64,
    out_bytes: u64,
    replay: Replay,
}

impl Traced {
    fn after_pass(&mut self, before: &Before, bench: &Bench) {
        let now = Before::take(bench);
        self.window.merge(&now.metrics.diff(&before.metrics));
        self.cache_hits += now.cache.hits - before.cache.hits;
        self.cache_misses += now.cache.misses - before.cache.misses;
        self.cache_evictions += now.cache.evictions - before.cache.evictions;
        self.pool_rounds += now.pool.1 - before.pool.1;
        self.pool_morsels += now.pool.2 - before.pool.2;
        self.generation_bumps += now.generation - before.generation;
        self.view_hits += now.view_hits.saturating_sub(before.view_hits);
    }

    fn counter(&self, name: &str) -> f64 {
        self.window.counter(name) as f64
    }

    fn hist_sum(&self, name: &str) -> f64 {
        self.window
            .histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64)
    }

    fn hist_mean(&self, name: &str) -> f64 {
        self.window.histograms.get(name).map_or(0.0, |h| h.mean())
    }
}

/// A loaded, warmed system and what loading it cost.
struct Live {
    bench: Bench,
    script: Script,
    /// Mean op time of the last warm-up cycle, to size the first block.
    mean_op_s: f64,
    /// Every set-up's time, scaled by a calibration reading taken right
    /// after it.
    setup_s: Vec<f64>,
}

/// Set-up, `SETUPS` times over: each loads a fresh system and warms it
/// (plan cache, fragment cache, lazy pool start) with two cycles. The
/// last one stays live.
fn set_up(a: &Args) -> Live {
    let data = workloads::generate(&a.workload, a.seed);
    let script = Script::new(&a.workload, a.seed, &data);
    let cycle = script.cycle();
    let mut setup_s = Vec::new();
    let mut live: Option<(Bench, Script, f64)> = None;
    for _ in 0..if a.trace || a.smoke { 1 } else { SETUPS } {
        // The previous system goes before the next one is timed.
        drop(live.take());
        let mut script = script.clone();
        let warm: Vec<Op> = (0..(2 * cycle).max(3)).map(|_| script.next_op()).collect();
        let t = Instant::now();
        let bench = workloads::build(&a.workload, &data);
        let mut walls = Vec::with_capacity(warm.len());
        let outcomes: Vec<_> = warm
            .iter()
            .map(|op| {
                let t = Instant::now();
                let out = run_op(&bench, op);
                walls.push(t.elapsed().as_secs_f64());
                out
            })
            .collect();
        let raw_s = t.elapsed().as_secs_f64();
        setup_s.push(raw_s * host::CAL_REF_MS / calibrate());
        for (k, (op, out)) in warm.iter().zip(&outcomes).enumerate() {
            if !out.as_ref().is_ok_and(|o| is_right(op, o)) {
                eprintln!(
                    "nimble-benchmark: {} warm-up op {} is wrong: {}",
                    a.workload,
                    k,
                    describe(op, out)
                );
                std::process::exit(1);
            }
        }
        let tail = &walls[walls.len() - cycle..];
        live = Some((bench, script, tail.iter().sum::<f64>() / cycle as f64));
    }
    match live {
        Some((bench, script, mean_op_s)) => Live {
            bench,
            script,
            mean_op_s,
            setup_s,
        },
        None => need(Err("no set-up ran"), "set-up"),
    }
}

/// What the timed blocks measured.
struct Measured {
    blocks: Vec<Block>,
    /// Every calibration reading, in order.
    cal: Vec<f64>,
    attempted: u64,
    failed: u64,
    measured_s: f64,
    counts: Counts,
    traced: Option<Traced>,
}

/// Run blocks until `a.seconds` of op time have been measured.
fn measure(a: &Args, live: &mut Live) -> Measured {
    let Live {
        bench,
        script,
        mean_op_s,
        ..
    } = live;
    let bench = &*bench;
    let cycle = script.cycle();
    let r = recorder();
    r.set_on(a.trace);
    // The calibration kernel runs before the first block and after every
    // block, so each block has a reading on either side of it.
    let mut m = Measured {
        blocks: Vec::new(),
        cal: vec![calibrate()],
        attempted: 0,
        failed: 0,
        measured_s: 0.0,
        counts: Counts::default(),
        traced: a.trace.then(Traced::default),
    };
    let mut op_id = 0u32;
    while m.measured_s < a.seconds {
        let block_ops = BLOCK_SECONDS / *mean_op_s;
        let cycles = ((block_ops / cycle as f64).ceil() as usize).clamp(1, 50_000);
        let ops: Vec<Op> = (0..cycles * cycle).map(|_| script.next_op()).collect();
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut lat_ms = Vec::with_capacity(ops.len());
        let mut missed = Vec::new();
        let before = m.traced.as_ref().map(|_| Before::take(bench));
        let c0 = bench.counters.read();
        let cpu0 = host::cpu_ms();
        let t_block = Instant::now();
        for op in &ops {
            op_id += 1;
            let pc0 = a.trace.then(|| bench.engine.plan_cache().stats());
            let scope = AllocScope::enter();
            let span = r.op(op_id, false);
            let t0 = Instant::now();
            let out = run_op(bench, op);
            let dt = t0.elapsed();
            drop(span);
            let alloc = scope.finish();
            lat_ms.push(dt.as_secs_f64() * 1e3);
            if let (Some(tr), Some(pc0)) = (m.traced.as_mut(), pc0) {
                let pc1 = bench.engine.plan_cache().stats();
                tr.pc_hits += pc1.hits - pc0.hits;
                tr.pc_misses += pc1.misses - pc0.misses;
                tr.pc_evictions += pc1.evictions - pc0.evictions;
                tr.pc_invalidations += pc1.invalidations - pc0.invalidations;
                missed.push(pc1.misses > pc0.misses);
                tr.alloc_bytes += alloc.bytes;
                tr.alloc_count += alloc.allocs;
                tr.alloc_peak += alloc.peak_bytes;
                if let Ok(Outcome::Answer(xml)) = &out {
                    tr.out_bytes += xml.len() as u64;
                }
            }
            outcomes.push(out);
        }
        let wall = t_block.elapsed().as_secs_f64();
        let cpu_ms = host::cpu_ms() - cpu0;
        m.counts.add(&bench.counters.read().since(&c0));
        m.measured_s += wall;
        m.cal.push(calibrate());
        *mean_op_s = wall / ops.len() as f64;

        for (k, (op, out)) in ops.iter().zip(&outcomes).enumerate() {
            if !out.as_ref().is_ok_and(|o| is_right(op, o)) {
                m.failed += 1;
                if m.failed <= 3 {
                    eprintln!(
                        "nimble-benchmark: {} op {} is wrong: {}",
                        a.workload,
                        m.attempted as usize + k,
                        describe(op, out)
                    );
                }
            }
        }
        m.attempted += ops.len() as u64;

        if let (Some(tr), Some(before)) = (m.traced.as_mut(), before.as_ref()) {
            tr.after_pass(before, bench);
            let tail = (ops.len() / 10).clamp(cycle, REPLAY_OPS.max(cycle)) / cycle * cycle;
            for k in ops.len() - tail..ops.len() {
                let answer = match &outcomes[k] {
                    Ok(Outcome::Answer(xml)) => Some(xml.as_str()),
                    _ => None,
                };
                let id = op_id - (ops.len() - 1 - k) as u32;
                tr.replay
                    .query(bench, id, &ops[k], answer, missed[k], lat_ms[k] * 1e3);
            }
        }
        m.blocks.push(Block {
            lat_ms,
            wall_s: wall,
            cpu_ms,
            cal_ms: (m.cal[m.cal.len() - 2] + m.cal[m.cal.len() - 1]) / 2.0,
        });
    }
    r.set_on(false);
    m
}

pub fn run(a: &Args) {
    let mut live = set_up(a);
    let m = measure(a, &mut live);

    let cal_ms = median(m.cal.clone());
    let (early, late) = m.cal.split_at(m.cal.len() / 2);
    let cal_drift = (median(late.to_vec()) - median(early.to_vec())).abs() / cal_ms;
    let ops_f = m.attempted as f64;
    // The op times of some blocks pooled and sorted, as the clock read
    // them or scaled block by block.
    let pooled = |blocks: &[Block], scaled: bool| {
        let mut v: Vec<f64> = blocks
            .iter()
            .flat_map(|b| {
                let k = if scaled { b.scale() } else { 1.0 };
                b.lat_ms.iter().map(move |l| l * k)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let raw_p50 = quantile(&pooled(&m.blocks, false), 0.50);

    // `(name, value, unit)` in print order; the first `gated` of them go
    // into the result line's `metrics`.
    let mut lines: Vec<(String, f64, &'static str)> = Vec::new();
    let gated;
    if let Some(tr) = m.traced.as_ref() {
        let spans = recorder().drain();
        // Both sides as the clock read them: the calibration kernel
        // allocates, so under this build's counting allocator it is
        // itself slower, and scaling by it would cancel the allocator's
        // share of the overhead. And both over the same first seconds
        // of a fresh process, which run slower than the rest.
        let overhead_pct = a.reference.map_or(0.0, |(seconds, e2e)| {
            let mut wall_s = 0.0;
            let head = m
                .blocks
                .iter()
                .take_while(|b| {
                    let within = wall_s < seconds;
                    wall_s += b.wall_s;
                    within
                })
                .count();
            let p50 = quantile(&pooled(&m.blocks[..head], false), 0.50);
            ratio(p50 - e2e, e2e) * 100.0
        });
        let mut values = per_layer(tr, &live.bench, &spans, &m.counts, ops_f);
        values.insert("host.cal_ms".into(), cal_ms);
        values.insert("host.cal_drift".into(), cal_drift);
        values.insert("trace.overhead_pct".into(), overhead_pct);
        for (layer, metric, unit, _) in PER_LAYER {
            let name = format!("{}.{}", layer, metric);
            let v = values.get(&name).copied().unwrap_or(0.0);
            lines.push((name, v, unit));
        }
        gated = lines.len();
        // Unscaled, like the layer times above: what they should add up to.
        lines.push(("raw.p50_ms".into(), raw_p50, "ms"));
        // The self-time budget of an op, from the spans alone: the op
        // span's own share is the engine outside adapter calls.
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(spans::self_times(&spans)) {
            if !span.replay {
                *self_ns.entry(span.name).or_default() += own;
            }
        }
        for (name, ns) in self_ns {
            lines.push((format!("self_us.{}", name), ns as f64 / 1e3 / ops_f, "us"));
        }
        lines.push(("spans".into(), spans.len() as f64, "count"));
        let path = a.out_dir.join(format!("trace-{}.json", a.workload));
        need(
            std::fs::write(&path, spans::to_json(&a.workload, &spans, SPAN_FILE_CAP)),
            "write span file",
        );
        eprintln!("nimble-benchmark: spans written to {}", path.display());
    } else {
        let scaled = pooled(&m.blocks, true);
        let wall_s: f64 = m.blocks.iter().map(|b| b.wall_s * b.scale()).sum();
        let cpu_ms: f64 = m.blocks.iter().map(|b| b.cpu_ms * b.scale()).sum();
        for e in &END_TO_END {
            let v = match e.name {
                "p50_ms" => quantile(&scaled, 0.50),
                "p95_ms" => quantile(&scaled, 0.95),
                "ops_per_s" => ops_f / wall_s,
                "cpu_ms_per_op" => cpu_ms / ops_f,
                "rss_peak_mb" => host::rss_peak_mb(),
                "source_nodes_per_op" => m.counts.nodes as f64 / ops_f,
                "source_calls_per_op" => m.counts.calls() as f64 / ops_f,
                "setup_s" => median(live.setup_s.clone()),
                _ => 0.0,
            };
            lines.push((e.name.to_string(), v, e.unit));
        }
        gated = lines.len();
        lines.push(("failed_share".into(), m.failed as f64 / ops_f, "ratio"));
        lines.push(("p99_ms".into(), quantile(&scaled, 0.99), "ms"));
        lines.push(("raw.p50_ms".into(), raw_p50, "ms"));
        lines.push(("host.cal_ms".into(), cal_ms, "ms"));
        lines.push(("host.cal_drift".into(), cal_drift, "ratio"));
    }
    lines.push(("blocks".into(), m.blocks.len() as f64, "count"));
    lines.push(("samples".into(), ops_f, "count"));
    lines.push(("measured_s".into(), m.measured_s, "s"));

    emit(a, m.attempted, m.failed, &lines[..gated], &lines);
}

fn describe(op: &Op, out: &Result<Outcome, String>) -> String {
    let what = match &op.act {
        Act::Query(text) => text.split_whitespace().collect::<Vec<_>>().join(" "),
        Act::Write(_) => "write".to_string(),
    };
    let got = match out {
        Ok(Outcome::Answer(xml)) => format!("{:?}", crate::check::scan(xml)),
        Ok(Outcome::Refreshed(names)) => format!("refreshed {:?}", names),
        Err(e) => format!("error: {}", e),
    };
    format!("got {} want {:?} for {}", got, op.want, what)
}

/// Print the host facts, every metric as `name value unit`, and — last —
/// the result line the driver reads, whose `metrics` are `gated`.
fn emit(
    a: &Args,
    attempted: u64,
    failed: u64,
    gated: &[(String, f64, &'static str)],
    lines: &[(String, f64, &'static str)],
) {
    let mut text = format!(
        "# workload={} seed={} seconds={} trace={} smoke={} nproc={} pool_size={} alloc_profile={} {}\n",
        a.workload,
        a.seed,
        num(a.seconds),
        u8::from(a.trace),
        a.smoke,
        host::nproc(),
        nimble_algebra::pool_stats().0,
        nimble_trace::alloc::enabled(),
        a.host
    );
    for (name, v, unit) in lines {
        text.push_str(&format!("{} {} {}\n", name, num(*v), unit));
    }
    if let Some(path) = &a.kv {
        need(std::fs::write(path, &text), "write kv file");
    }
    let metrics: Vec<String> = gated
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name,
                num(*v),
                unit
            )
        })
        .collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    need(out.write_all(text.as_bytes()), "write stdout");
    need(
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted,
            failed,
            metrics.join(", ")
        ),
        "write stdout",
    );
    need(out.flush(), "flush stdout");
}

/// The per-layer metrics of a traced run, by printed name (the host's
/// and the overhead are the caller's to add).
fn per_layer(
    tr: &Traced,
    bench: &Bench,
    spans: &[Span],
    counts: &Counts,
    ops: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |layer: &str, metric: &str, v: f64| {
        m.insert(format!("{}.{}", layer, metric), v);
    };
    let rp = &tr.replay;
    let replayed = rp.ops as f64;

    // Spans of served ops (not of replays): the source wrapper's busy
    // time (sum) and critical time (union per op), and the write op's
    // three steps.
    let mut busy_ns = 0u64;
    let mut per_op: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let mut step_ns: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let mut write_named_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.replay {
            continue;
        }
        if s.name.starts_with("sources.") {
            busy_ns += s.dur_ns();
            per_op
                .entry(s.op_id)
                .or_default()
                .push((s.start_ns, s.end_ns));
        } else if s.name != "op" {
            let e = step_ns.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += 1;
            *write_named_ns.entry(s.op_id).or_default() += s.dur_ns();
        }
    }
    let critical_ns: u64 = per_op.into_values().map(spans::union_ns).sum();
    let step_us = |name: &str| -> f64 {
        step_ns
            .get(name)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64 / 1e3, *n as f64))
    };

    put("xmlql", "parse_us", ratio(rp.parse_us, replayed));
    put("xmlql", "analyze_us", ratio(rp.analyze_us, replayed));
    put("planner", "plan_us", ratio(rp.plan_us, replayed));
    put("planner", "verify_us", ratio(rp.verify_us, replayed));
    put(
        "plan_cache",
        "hit_ratio",
        ratio(tr.pc_hits as f64, (tr.pc_hits + tr.pc_misses) as f64),
    );
    put(
        "plan_cache",
        "evictions_per_op",
        tr.pc_evictions as f64 / ops,
    );
    put(
        "plan_cache",
        "invalidations_per_op",
        tr.pc_invalidations as f64 / ops,
    );

    let critical_us = critical_ns as f64 / 1e3 / ops;
    put("sources", "busy_us", busy_ns as f64 / 1e3 / ops);
    put("sources", "critical_us", critical_us);
    put(
        "sources",
        "execute_calls_per_op",
        counts.execute_calls as f64 / ops,
    );
    put(
        "sources",
        "fetch_calls_per_op",
        counts.fetch_calls as f64 / ops,
    );
    put(
        "sources",
        "nodes_per_call",
        ratio(counts.nodes as f64, counts.calls() as f64),
    );
    put(
        "relational",
        "select_rows_per_s",
        rp.last_plan
            .as_ref()
            .map_or(0.0, |plan| layers::select_rows_per_s(bench, plan)),
    );

    let execute_us = ratio(rp.execute_us, replayed);
    let pipeline_us = tr.hist_sum("engine.exec.pipeline_us") / ops;
    put(
        "engine",
        "plan_lookup_us",
        ratio(rp.plan_lookup_us, rp.lookups as f64),
    );
    put("engine", "execute_us", execute_us);
    put("engine", "construct_us", ratio(rp.construct_us, replayed));
    put(
        "engine",
        "execute_other_us",
        (execute_us - critical_us - pipeline_us).max(0.0),
    );
    put("matcher", "match_us", ratio(rp.match_us, replayed));
    put(
        "matcher",
        "rows_per_s",
        ratio(rp.match_rows as f64, rp.match_us / 1e6),
    );

    put("algebra", "pipeline_us", pipeline_us);
    put(
        "algebra",
        "batches_per_op",
        tr.counter("engine.exec.batches") / ops,
    );
    put(
        "algebra",
        "batch_rows_per_op",
        tr.counter("engine.exec.batch_rows") / ops,
    );
    let (join_rate, sort_rate) = layers::algebra_rows_per_s();
    put("algebra", "hashjoin_rows_per_s", join_rate);
    put("algebra", "sort_rows_per_s", sort_rate);

    put("par", "pool_size", nimble_algebra::pool_stats().0 as f64);
    put("par", "rounds_per_op", tr.pool_rounds as f64 / ops);
    put("par", "morsels_per_op", tr.pool_morsels as f64 / ops);
    put(
        "par",
        "worker_busy_us",
        tr.hist_mean("engine.par.worker_busy_us"),
    );
    put(
        "par",
        "skipped_per_op",
        tr.counter("engine.par.skipped") / ops,
    );
    put(
        "fetch",
        "pool_rounds_per_op",
        tr.counter("engine.fetch.pool") / ops,
    );
    put(
        "fetch",
        "serial_rounds_per_op",
        tr.counter("engine.fetch.serial") / ops,
    );

    let streamed = tr.counter("engine.construct.streamed");
    let small = tr.counter("engine.construct.small_fallback");
    let constructed = streamed + small + tr.counter("engine.construct.tree_fallback");
    let construct_us = tr.hist_mean("engine.phase_us.construct");
    put("construct", "us", construct_us);
    put("construct", "streamed_share", ratio(streamed, constructed));
    put(
        "construct",
        "small_fallback_share",
        ratio(small, constructed),
    );
    put(
        "xml",
        "out_bytes_per_op",
        ratio(tr.out_bytes as f64, constructed),
    );
    put(
        "xml",
        "serialize_mb_s",
        ratio(rp.xml_bytes as f64, rp.serialize_us),
    );
    put(
        "xml",
        "parse_mb_s",
        ratio(rp.xml_bytes as f64, rp.parse_xml_us),
    );
    let (symbols, bytes) = nimble_xml::intern::stats();
    put("xml", "interner_symbols", symbols as f64);
    put("xml", "interner_bytes", bytes as f64);

    put(
        "store",
        "fragment_cache_hit_ratio",
        ratio(
            tr.cache_hits as f64,
            (tr.cache_hits + tr.cache_misses) as f64,
        ),
    );
    put(
        "store",
        "fragment_cache_evictions_per_op",
        tr.cache_evictions as f64 / ops,
    );
    put("store", "view_hits_per_op", tr.view_hits as f64 / ops);
    put("store", "refresh_us", step_us("store.refresh"));
    put("catalog", "mutation_us", step_us("catalog.mutation"));
    put(
        "stats",
        "generation_bumps_per_op",
        tr.generation_bumps as f64 / ops,
    );

    put(
        "shard",
        "pruned_per_op",
        tr.counter("engine.shard.pruned") / ops,
    );
    put(
        "shard",
        "fanout_per_op",
        tr.counter("engine.shard.fanout") / ops,
    );
    put(
        "shard",
        "rows_per_op",
        tr.counter("engine.shard.rows") / ops,
    );
    let par_gathers = tr.counter("engine.exchange.gather.parallel");
    put(
        "exchange",
        "parallel_share",
        ratio(
            par_gathers,
            par_gathers + tr.counter("engine.exchange.gather.serial"),
        ),
    );

    put("alloc", "bytes_per_op", tr.alloc_bytes as f64 / ops);
    put("alloc", "count_per_op", tr.alloc_count as f64 / ops);
    put("alloc", "peak_bytes_per_op", tr.alloc_peak as f64 / ops);
    put(
        "alloc",
        "execute_bytes_per_op",
        tr.hist_sum("engine.phase_alloc.bytes.execute") / ops,
    );
    put(
        "alloc",
        "construct_bytes_per_op",
        tr.hist_sum("engine.phase_alloc.bytes.construct") / ops,
    );

    // Named layer time over wall time, op by op, for the ops whose
    // layers were measured: replayed queries (front end + execute from
    // the replay, construct from the engine's own timer) and every
    // write (its three steps). The median, so that one preempted op
    // does not read as a hole in the budget.
    let mut shares: Vec<f64> = rp
        .covered
        .iter()
        .map(|(named, wall)| ratio(named + construct_us, *wall))
        .collect();
    for s in spans.iter().filter(|s| s.name == "op") {
        if let Some(named) = write_named_ns.get(&s.op_id) {
            shares.push(ratio(*named as f64, s.dur_ns() as f64));
        }
    }
    put("trace", "coverage", median(shares));
    m
}
