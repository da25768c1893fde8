//! The metric tables. `BENCHMARK.json` is generated from them
//! (`nimble-benchmark manifest`), so names, units, directions and
//! bounds live in one place.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Absolute worsening below which `run.sh --check` ignores the
    /// relative bound, so µs-scale jitter cannot trip it.
    pub floor: f64,
}

/// `failed_share` is the ninth end-to-end number. It is printed by every
/// run and carried by the result line's `failed`/`attempted`, but it is
/// not listed here: a gated metric may never read 0, and this one
/// always does.
///
/// Each bound is three times the widest ten-seed spread (distance
/// between the quartiles over the median) the metric showed on any
/// workload on the reference host, rounded up to 0.05 and capped at the
/// contract's 0.25 (README, "Why times are normalised"): 7 % for
/// `p50_ms`, 6 % for `ops_per_s`, 7 % for `cpu_ms_per_op`; `p95_ms`
/// (22 %), `rss_peak_mb` (12 %) and `setup_s` (12 %) sit at the cap. The
/// source counts repeat exactly except on `view_refresh` (0.8 %), and
/// `run.sh --check` demands exactly that.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        floor: 0.005,
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        floor: 0.010,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        floor: 0.005,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "source_nodes_per_op",
        unit: "count",
        better: "lower",
        bound: 0.02,
        floor: 0.0,
    },
    EndToEnd {
        name: "source_calls_per_op",
        unit: "count",
        better: "lower",
        bound: 0.02,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.05,
    },
];

/// Per-layer metrics of the traced run: `(layer, metric, unit, better)`,
/// printed as `layer.metric`. The two halves are joined at run time
/// because `cargo xtask lint` reads any `engine.*`-style literal as an
/// engine metric name and checks it against the engine's inventory.
pub const PER_LAYER: [(&str, &str, &str, &str); 58] = [
    ("xmlql", "parse_us", "us", "lower"),
    ("xmlql", "analyze_us", "us", "lower"),
    ("planner", "plan_us", "us", "lower"),
    ("planner", "verify_us", "us", "lower"),
    ("plan_cache", "hit_ratio", "ratio", "higher"),
    ("plan_cache", "evictions_per_op", "count", "lower"),
    ("plan_cache", "invalidations_per_op", "count", "lower"),
    ("sources", "busy_us", "us", "lower"),
    ("sources", "critical_us", "us", "lower"),
    ("sources", "execute_calls_per_op", "count", "lower"),
    ("sources", "fetch_calls_per_op", "count", "lower"),
    ("sources", "nodes_per_call", "count", "lower"),
    ("relational", "select_rows_per_s", "1/s", "higher"),
    ("engine", "plan_lookup_us", "us", "lower"),
    ("engine", "execute_us", "us", "lower"),
    ("engine", "construct_us", "us", "lower"),
    ("engine", "execute_other_us", "us", "lower"),
    ("matcher", "match_us", "us", "lower"),
    ("matcher", "rows_per_s", "1/s", "higher"),
    ("algebra", "pipeline_us", "us", "lower"),
    ("algebra", "batches_per_op", "count", "lower"),
    ("algebra", "batch_rows_per_op", "count", "lower"),
    ("algebra", "hashjoin_rows_per_s", "1/s", "higher"),
    ("algebra", "sort_rows_per_s", "1/s", "higher"),
    ("par", "pool_size", "count", "higher"),
    ("par", "rounds_per_op", "count", "higher"),
    ("par", "morsels_per_op", "count", "higher"),
    ("par", "worker_busy_us", "us", "lower"),
    ("par", "skipped_per_op", "count", "lower"),
    ("fetch", "pool_rounds_per_op", "count", "higher"),
    ("fetch", "serial_rounds_per_op", "count", "lower"),
    ("construct", "us", "us", "lower"),
    ("construct", "streamed_share", "ratio", "higher"),
    ("construct", "small_fallback_share", "ratio", "lower"),
    ("xml", "out_bytes_per_op", "B", "lower"),
    ("xml", "serialize_mb_s", "MB/s", "higher"),
    ("xml", "parse_mb_s", "MB/s", "higher"),
    ("xml", "interner_symbols", "count", "lower"),
    ("xml", "interner_bytes", "B", "lower"),
    ("store", "fragment_cache_hit_ratio", "ratio", "higher"),
    ("store", "fragment_cache_evictions_per_op", "count", "lower"),
    ("store", "view_hits_per_op", "count", "higher"),
    ("store", "refresh_us", "us", "lower"),
    ("catalog", "mutation_us", "us", "lower"),
    ("stats", "generation_bumps_per_op", "count", "lower"),
    ("shard", "pruned_per_op", "count", "higher"),
    ("shard", "fanout_per_op", "count", "lower"),
    ("shard", "rows_per_op", "count", "lower"),
    ("exchange", "parallel_share", "ratio", "higher"),
    ("alloc", "bytes_per_op", "B", "lower"),
    ("alloc", "count_per_op", "count", "lower"),
    ("alloc", "peak_bytes_per_op", "B", "lower"),
    ("alloc", "execute_bytes_per_op", "B", "lower"),
    ("alloc", "construct_bytes_per_op", "B", "lower"),
    ("host", "cal_ms", "ms", "lower"),
    ("host", "cal_drift", "ratio", "lower"),
    ("trace", "overhead_pct", "%", "lower"),
    ("trace", "coverage", "ratio", "higher"),
];

/// Seconds one driver-contract run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A finite number with all its digits; anything else reads 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "0".to_string()
    }
}

/// `BENCHMARK.json`, in the driver contract's shape.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", RUN_SECONDS));
    out.push_str("  \"workloads\": [\n");
    let n = crate::workloads::WORKLOADS.len();
    for (i, (name, why)) in crate::workloads::WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            name,
            why,
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better,
            num(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (layer, metric, unit, better)) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}.{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            layer,
            metric,
            unit,
            better,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
