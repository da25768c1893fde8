//! Regression sentinel: gate a fresh quick-mode benchmark run against
//! the checked-in `BENCH_*.json` baselines.
//!
//! Quick-mode runs use a smaller fixture and fewer repetitions than the
//! committed artifacts, so absolute times are not comparable across the
//! two. Every gate here is therefore a **scale-invariant internal
//! ratio** of one run (sharded-over-unsharded speedup, profile-on over
//! profile-off overhead) or a **presence check** (the verify phase
//! actually ran, the differential check passed, allocation accounting
//! produced bytes). A fresh ratio is compared against the baseline's
//! ratio with a documented multiplicative noise floor, plus an absolute
//! "always fine" band so ordinary quick-mode jitter near a healthy
//! value can never fail the gate.
//!
//! Noise floors (measured on the quick fixture, 400 customers × 8
//! runs, where run-to-run speedups wobble by up to ~1.5×):
//!
//! * [`RATIO_SLACK`] = 1.8 — a speedup may shrink to `base / 1.8`
//!   before it can fail; an injected 2× slowdown on the measured mode
//!   halves the ratio, which is outside this band.
//! * [`SPEEDUP_OK`] = 1.0 — a speedup ≥ 1 never fails regardless of
//!   the baseline (the optimization still wins; quick-mode magnitude
//!   is noise).
//! * [`OVERHEAD_SLACK`] = 1.6 / [`OVERHEAD_OK`] = 2.0 — per-operator
//!   profiling overhead may grow to `base × 1.6`, and any on/off ratio
//!   ≤ 2 passes outright (metering a sub-millisecond query is
//!   dominated by fixed costs in quick mode).

use nimble_trace::json::Value;

/// Multiplicative slack on higher-is-better ratios (speedups).
pub const RATIO_SLACK: f64 = 1.8;
/// A speedup at or above this is always acceptable.
pub const SPEEDUP_OK: f64 = 1.0;
/// Multiplicative slack on lower-is-better ratios (overheads).
pub const OVERHEAD_SLACK: f64 = 1.6;
/// An overhead ratio at or below this is always acceptable.
pub const OVERHEAD_OK: f64 = 2.0;
/// Slack on the lineage-tracking overhead ratio. Lineage promises to
/// stay under 10% on the join suite, so its bands are much tighter
/// than the profiling gate's.
pub const LINEAGE_OVERHEAD_SLACK: f64 = 1.3;
/// A lineage on/off ratio at or below this passes outright (quick-mode
/// joins run in microseconds, where fixed costs wobble the ratio).
pub const LINEAGE_OVERHEAD_OK: f64 = 1.25;

/// Outcome of one gate: the fresh and baseline values plus the verdict.
pub struct GateResult {
    pub name: String,
    pub fresh: f64,
    pub base: f64,
    pub pass: bool,
    pub detail: String,
}

impl GateResult {
    fn passed(name: String, fresh: f64, base: f64, detail: String) -> GateResult {
        GateResult {
            name,
            fresh,
            base,
            pass: true,
            detail,
        }
    }

    fn failed(name: String, fresh: f64, base: f64, detail: String) -> GateResult {
        GateResult {
            name,
            fresh,
            base,
            pass: false,
            detail,
        }
    }
}

/// Walk a dotted path into a JSON value and read it as f64.
fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(*p)?;
    }
    cur.as_f64()
}

/// Walk a dotted path into a JSON value and read it as bool.
fn flag(v: &Value, path: &[&str]) -> Option<bool> {
    let mut cur = v;
    for p in path {
        cur = cur.get(*p)?;
    }
    cur.as_bool()
}

/// Gate a higher-is-better ratio (a speedup): fail only when the fresh
/// value drops below `base / RATIO_SLACK` *and* below [`SPEEDUP_OK`].
fn gate_speedup(name: String, fresh: Option<f64>, base: Option<f64>) -> GateResult {
    match (fresh, base) {
        (Some(f), Some(b)) => {
            let limit = b / RATIO_SLACK;
            if f >= limit || f >= SPEEDUP_OK {
                GateResult::passed(name, f, b, format!("limit {:.2}", limit))
            } else {
                GateResult::failed(
                    name,
                    f,
                    b,
                    format!("{:.2} < min(limit {:.2}, ok {:.2})", f, limit, SPEEDUP_OK),
                )
            }
        }
        _ => GateResult::failed(
            name,
            fresh.unwrap_or(f64::NAN),
            base.unwrap_or(f64::NAN),
            "metric missing from artifact".to_string(),
        ),
    }
}

/// Gate a lower-is-better ratio (an overhead): fail only when the fresh
/// value rises above `base * OVERHEAD_SLACK` *and* above [`OVERHEAD_OK`].
fn gate_overhead(name: String, fresh: Option<f64>, base: Option<f64>) -> GateResult {
    gate_overhead_with(name, fresh, base, OVERHEAD_SLACK, OVERHEAD_OK)
}

/// [`gate_overhead`] with explicit bands, for artifacts whose overhead
/// promise is tighter than the profiling gate's.
fn gate_overhead_with(
    name: String,
    fresh: Option<f64>,
    base: Option<f64>,
    slack: f64,
    ok: f64,
) -> GateResult {
    match (fresh, base) {
        (Some(f), Some(b)) => {
            let limit = b * slack;
            if f <= limit || f <= ok {
                GateResult::passed(name, f, b, format!("limit {:.2}", limit))
            } else {
                GateResult::failed(
                    name,
                    f,
                    b,
                    format!("{:.2} > max(limit {:.2}, ok {:.2})", f, limit, ok),
                )
            }
        }
        _ => GateResult::failed(
            name,
            fresh.unwrap_or(f64::NAN),
            base.unwrap_or(f64::NAN),
            "metric missing from artifact".to_string(),
        ),
    }
}

/// Presence gate: the fresh value must exist and be strictly positive.
/// The baseline is not consulted — these catch features that silently
/// stopped producing data (a verify phase reporting 0, allocation
/// accounting compiled out).
fn gate_positive(name: String, fresh: Option<f64>) -> GateResult {
    match fresh {
        Some(f) if f > 0.0 => GateResult::passed(name, f, 0.0, "> 0".to_string()),
        Some(f) => GateResult::failed(name, f, 0.0, "expected > 0".to_string()),
        None => GateResult::failed(name, f64::NAN, 0.0, "metric missing".to_string()),
    }
}

/// Presence gate: the fresh flag must exist and be `true`.
fn gate_true(name: String, fresh: Option<bool>) -> GateResult {
    match fresh {
        Some(true) => GateResult::passed(name, 1.0, 1.0, "true".to_string()),
        Some(false) => GateResult::failed(name, 0.0, 1.0, "expected true".to_string()),
        None => GateResult::failed(name, f64::NAN, 1.0, "flag missing".to_string()),
    }
}

/// Gates for `BENCH_observability.json`: the verify phase must report
/// real time on every suite query (the phase-accounting satellite), the
/// metering overhead ratio must hold, and — when the artifact carries an
/// allocation block — accounting must have produced bytes.
pub fn compare_observability(base: &Value, fresh: &Value) -> Vec<GateResult> {
    let mut out = Vec::new();
    if let Some(suite) = fresh.get("suite").and_then(Value::as_object) {
        // Every query must run its verify phase; at least one must show
        // measurable time. (A trivial single-fragment query can verify
        // in under a microsecond and legitimately round to 0, so the
        // time gate is aggregate, not per query.)
        let mut verify_us_total = 0.0;
        for query in suite.keys() {
            out.push(gate_positive(
                format!("observability.{}.verify_runs", query),
                num(fresh, &["suite", query, "verify", "runs"]),
            ));
            verify_us_total += num(fresh, &["suite", query, "verify", "mean_us"]).unwrap_or(0.0);
        }
        out.push(gate_positive(
            "observability.suite_verify_mean_us_total".to_string(),
            Some(verify_us_total),
        ));
    } else {
        out.push(GateResult::failed(
            "observability.suite".to_string(),
            f64::NAN,
            f64::NAN,
            "fresh artifact has no suite object".to_string(),
        ));
    }
    let ratio = |v: &Value| {
        let off = num(v, &["loop_profile_off_us_per_query"])?;
        let on = num(v, &["loop_profile_on_us_per_query"])?;
        if off > 0.0 {
            Some(on / off)
        } else {
            None
        }
    };
    out.push(gate_overhead(
        "observability.profile_overhead_ratio".to_string(),
        ratio(fresh),
        ratio(base),
    ));
    if fresh.get("alloc").is_some() {
        out.push(gate_positive(
            "observability.alloc.query_bytes_mean".to_string(),
            num(fresh, &["alloc", "query_bytes_mean"]),
        ));
    }
    out
}

/// Gates for `BENCH_provenance.json`: the lineage-off run must be
/// byte-identical to the tracked run (differential), every answer must
/// attribute to its expected source set, tracking must actually have
/// attributed answers, and the on/off overhead ratio must hold within
/// the tight lineage bands.
pub fn compare_provenance(base: &Value, fresh: &Value) -> Vec<GateResult> {
    let mut out = Vec::new();
    out.push(gate_true(
        "provenance.differential_ok".to_string(),
        flag(fresh, &["differential_ok"]),
    ));
    out.push(gate_true(
        "provenance.attribution_ok".to_string(),
        flag(fresh, &["attribution_ok"]),
    ));
    out.push(gate_positive(
        "provenance.answers_attributed".to_string(),
        num(fresh, &["answers_attributed"]),
    ));
    out.push(gate_overhead_with(
        "provenance.lineage_overhead_ratio".to_string(),
        num(fresh, &["lineage_overhead_ratio"]),
        num(base, &["lineage_overhead_ratio"]),
        LINEAGE_OVERHEAD_SLACK,
        LINEAGE_OVERHEAD_OK,
    ));
    out
}

/// Gates for `BENCH_shard.json`: the sharded/unsharded differential and
/// the shard-loss completeness probe gate hard (semantic promises, not
/// timings); the planner must still prune at least half the shards on
/// some query (presence gate on the measured fraction); and the
/// selective-query speedups of the 4- and 8-shard range layouts over
/// the 1-shard layout must hold within the speedup dual band.
pub fn compare_shard(base: &Value, fresh: &Value) -> Vec<GateResult> {
    let mut out = Vec::new();
    out.push(gate_true(
        "shard.differential_ok".to_string(),
        flag(fresh, &["differential_ok"]),
    ));
    out.push(gate_true(
        "shard.shard_loss_ok".to_string(),
        flag(fresh, &["shard_loss", "ok"]),
    ));
    out.push(gate_true(
        "shard.pruning_ok".to_string(),
        flag(fresh, &["pruning_ok"]),
    ));
    out.push(gate_positive(
        "shard.max_pruned_frac".to_string(),
        num(fresh, &["max_pruned_frac"]),
    ));
    for metric in ["speedup_4_over_1", "speedup_8_over_1", "eq_speedup_4_over_1"] {
        out.push(gate_speedup(
            format!("shard.{}", metric),
            num(fresh, &[metric]),
            num(base, &[metric]),
        ));
    }
    out
}

/// Dispatch on the artifact basename. Returns `None` for artifacts the
/// sentinel has no gates for (they still get tracked by eye).
pub fn compare(artifact: &str, base: &Value, fresh: &Value) -> Option<Vec<GateResult>> {
    if artifact.contains("observability") {
        Some(compare_observability(base, fresh))
    } else if artifact.contains("provenance") {
        Some(compare_provenance(base, fresh))
    } else if artifact.contains("shard") {
        Some(compare_shard(base, fresh))
    } else {
        None
    }
}

/// Render gate results as an aligned report; the bool is the overall
/// verdict (true = all gates passed).
pub fn render(results: &[GateResult]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for r in results {
        ok &= r.pass;
        out.push_str(&format!(
            "{:5} {:<55} fresh {:>8.3}  base {:>8.3}  ({})\n",
            if r.pass { "ok" } else { "FAIL" },
            r.name,
            r.fresh,
            r.base,
            r.detail
        ));
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_trace::json;

    fn obs_artifact(verify_us: f64, off: f64, on: f64) -> Value {
        let mut suite = json::Map::new();
        suite.insert(
            "two_way_join".to_string(),
            json!({
                "verify": json!({"runs": 20, "mean_us": verify_us}),
            }),
        );
        json!({
            "suite": Value::Object(suite),
            "loop_profile_off_us_per_query": off,
            "loop_profile_on_us_per_query": on,
        })
    }

    #[test]
    fn observability_gates_catch_silent_verify_zero() {
        let good = compare_observability(&obs_artifact(4.0, 100.0, 130.0), &obs_artifact(4.0, 100.0, 130.0));
        assert!(good.iter().all(|r| r.pass), "{}", render(&good).0);
        // All suite queries reporting verify = 0us means verification
        // silently stopped running: the aggregate time gate trips.
        let bad = compare_observability(&obs_artifact(4.0, 100.0, 130.0), &obs_artifact(0.0, 100.0, 130.0));
        assert!(bad.iter().any(|r| !r.pass && r.name.contains("verify")));
    }

    #[test]
    fn overhead_regression_fails_only_past_both_bands() {
        let artifact = |off: f64, on: f64| {
            json!({
                "suite": json!({}),
                "loop_profile_off_us_per_query": off,
                "loop_profile_on_us_per_query": on,
            })
        };
        // Base ratio 1.3; fresh 1.9 is within the absolute OK band.
        let ok = compare_observability(&artifact(100.0, 130.0), &artifact(100.0, 190.0));
        assert!(ok
            .iter()
            .find(|r| r.name.contains("overhead"))
            .map(|r| r.pass)
            .unwrap_or(false));
        // Fresh 2.5 breaches base*1.6 = 2.08 and the 2.0 OK band.
        let bad = compare_observability(&artifact(100.0, 130.0), &artifact(100.0, 250.0));
        assert!(bad.iter().any(|r| !r.pass && r.name.contains("overhead")));
    }

    fn prov_artifact(ratio: f64, differential_ok: bool, attribution_ok: bool) -> Value {
        json!({
            "experiment": "provenance",
            "differential_ok": differential_ok,
            "attribution_ok": attribution_ok,
            "answers_attributed": 42,
            "lineage_overhead_ratio": ratio,
        })
    }

    #[test]
    fn provenance_unchanged_run_passes() {
        let base = prov_artifact(1.05, true, true);
        let results = compare_provenance(&base, &base);
        assert!(results.iter().all(|r| r.pass), "{}", render(&results).0);
    }

    #[test]
    fn provenance_overhead_uses_tight_dual_band() {
        let base = prov_artifact(1.05, true, true);
        // Quick-mode jitter inside the absolute OK band never fails.
        let jitter = compare_provenance(&base, &prov_artifact(1.2, true, true));
        assert!(jitter.iter().all(|r| r.pass), "{}", render(&jitter).0);
        // A real regression breaches base*1.3 and the 1.25 OK band.
        let bad = compare_provenance(&base, &prov_artifact(1.6, true, true));
        assert!(bad
            .iter()
            .any(|r| !r.pass && r.name.contains("overhead")), "{}", render(&bad).0);
    }

    #[test]
    fn provenance_semantic_flags_gate_hard() {
        let base = prov_artifact(1.05, true, true);
        let diff = compare_provenance(&base, &prov_artifact(1.0, false, true));
        assert!(diff.iter().any(|r| !r.pass && r.name.contains("differential")));
        let attr = compare_provenance(&base, &prov_artifact(1.0, true, false));
        assert!(attr.iter().any(|r| !r.pass && r.name.contains("attribution")));
    }

    #[test]
    fn dispatch_matches_artifact_names() {
        let v = json!({});
        assert!(compare("BENCH_observability.json", &v, &v).is_some());
        assert!(compare("BENCH_provenance.json", &v, &v).is_some());
        assert!(compare("BENCH_shard.json", &v, &v).is_some());
        assert!(compare("BENCH_unknown.json", &v, &v).is_none());
    }

    fn shard_artifact(
        speedup4: f64,
        differential_ok: bool,
        loss_ok: bool,
        pruning_ok: bool,
    ) -> Value {
        let loss = json!({ "ok": loss_ok });
        json!({
            "experiment": "shard",
            "differential_ok": differential_ok,
            "pruning_ok": pruning_ok,
            "max_pruned_frac": 0.75,
            "speedup_4_over_1": speedup4,
            "speedup_8_over_1": speedup4 * 1.5,
            "eq_speedup_4_over_1": speedup4,
            "shard_loss": loss,
        })
    }

    #[test]
    fn shard_unchanged_run_passes() {
        let base = shard_artifact(3.8, true, true, true);
        let results = compare_shard(&base, &base);
        assert!(results.iter().all(|r| r.pass), "{}", render(&results).0);
    }

    #[test]
    fn shard_semantic_flags_gate_hard() {
        let base = shard_artifact(3.8, true, true, true);
        let diff = compare_shard(&base, &shard_artifact(3.8, false, true, true));
        assert!(diff.iter().any(|r| !r.pass && r.name.contains("differential")));
        let loss = compare_shard(&base, &shard_artifact(3.8, true, false, true));
        assert!(loss.iter().any(|r| !r.pass && r.name.contains("shard_loss")));
        let prune = compare_shard(&base, &shard_artifact(3.8, true, true, false));
        assert!(prune.iter().any(|r| !r.pass && r.name.contains("pruning")));
    }

    #[test]
    fn shard_speedup_collapse_fails() {
        // Baseline prunes its way to 3.8x; a fresh run where sharding
        // stopped winning at all (0.9x: slower than one shard) breaches
        // base/RATIO_SLACK and SPEEDUP_OK.
        let base = shard_artifact(3.8, true, true, true);
        let bad = compare_shard(&base, &shard_artifact(0.9, true, true, true));
        assert!(
            bad.iter().any(|r| !r.pass && r.name.contains("speedup_4_over_1")),
            "{}",
            render(&bad).0
        );
    }

    #[test]
    fn speedup_jitter_above_parity_never_fails() {
        // Baseline speedup 3.8, fresh 1.05: the relative band is
        // breached (1.05 < 3.8/1.8) but sharding still wins, so
        // SPEEDUP_OK keeps the gate green.
        let base = shard_artifact(3.8, true, true, true);
        let results = compare_shard(&base, &shard_artifact(1.05, true, true, true));
        assert!(results.iter().all(|r| r.pass), "{}", render(&results).0);
    }

    #[test]
    fn missing_metric_is_a_failure_not_a_skip() {
        // A fresh run that lost a speedup metric (schema drift must not
        // silently pass the sentinel).
        let base = shard_artifact(3.8, true, true, true);
        let fresh = json!({
            "differential_ok": true,
            "pruning_ok": true,
            "max_pruned_frac": 0.75,
            "speedup_8_over_1": 5.7,
            "eq_speedup_4_over_1": 3.8,
            "shard_loss": json!({ "ok": true }),
        });
        let results = compare_shard(&base, &fresh);
        assert!(results
            .iter()
            .any(|r| !r.pass && r.detail.contains("missing")));
    }
}
