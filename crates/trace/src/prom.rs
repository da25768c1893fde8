//! Prometheus text exposition for a [`MetricsSnapshot`].
//!
//! Renders the snapshot in the exposition format (version 0.0.4) that
//! every Prometheus-compatible scraper understands: counters and
//! gauges as single samples, histograms as cumulative `_bucket{le=…}`
//! series plus `_sum`/`_count`. Metric names are sanitized (dots and
//! other illegal characters become underscores), with the original
//! dotted name preserved in a `# HELP` line so the mapping stays
//! greppable.
//!
//! The log₂ bucket layout maps directly onto Prometheus's cumulative
//! buckets: `le` labels are the inclusive upper bounds of the
//! non-empty prefix of buckets, and the final `+Inf` bucket equals the
//! total count, so bucket counts round-trip exactly (asserted below).

use crate::hist::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitize a dotted metric name into a legal Prometheus identifier.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphabetic()
            || c == '_'
            || c == ':'
            || (i > 0 && c.is_ascii_digit());
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn histogram_exposition(out: &mut String, name: &str, dotted: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {} {}", name, dotted);
    let _ = writeln!(out, "# TYPE {} histogram", name);
    // Highest non-empty bucket bounds the finite `le` series; the
    // last bucket's upper is u64::MAX, which only +Inf can represent.
    let top = h
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| i.min(BUCKETS - 2))
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for i in 0..=top {
        cumulative += h.buckets[i];
        let _ = writeln!(
            out,
            "{}_bucket{{le=\"{}\"}} {}",
            name,
            bucket_upper(i),
            cumulative
        );
    }
    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", name, h.count);
    let _ = writeln!(out, "{}_sum {}", name, h.sum);
    let _ = writeln!(out, "{}_count {}", name, h.count);
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (dotted, v) in &snap.counters {
        let name = sanitize(dotted);
        let _ = writeln!(out, "# HELP {} {}", name, dotted);
        let _ = writeln!(out, "# TYPE {} counter", name);
        let _ = writeln!(out, "{} {}", name, v);
    }
    for (dotted, v) in &snap.gauges {
        let name = sanitize(dotted);
        let _ = writeln!(out, "# HELP {} {}", name, dotted);
        let _ = writeln!(out, "# TYPE {} gauge", name);
        let _ = writeln!(out, "{} {}", name, v);
    }
    for (dotted, h) in &snap.histograms {
        histogram_exposition(&mut out, &sanitize(dotted), dotted, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("engine.phase_us.execute"), "engine_phase_us_execute");
        assert_eq!(sanitize("source.calls.billing-2"), "source_calls_billing_2");
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn counters_and_gauges_expose() {
        let r = MetricsRegistry::new();
        r.incr("engine.queries", 5);
        r.gauge_max("stats.generation", 3);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE engine_queries counter"));
        assert!(text.contains("\nengine_queries 5\n"));
        assert!(text.contains("# TYPE stats_generation gauge"));
        assert!(text.contains("\nstats_generation 3\n"));
    }

    /// Parse `<name>_bucket{le="…"} v`, `_sum`, `_count` lines back out
    /// of the exposition text.
    fn parse_histogram(text: &str, name: &str) -> (Vec<(String, u64)>, u64, u64) {
        let mut buckets = Vec::new();
        let mut sum = 0;
        let mut count = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&format!("{}_bucket{{le=\"", name)) {
                let (le, v) = rest.split_once("\"}").expect("bucket line shape");
                buckets.push((le.to_string(), v.trim().parse().expect("bucket count")));
            } else if let Some(v) = line.strip_prefix(&format!("{}_sum ", name)) {
                sum = v.trim().parse().expect("sum");
            } else if let Some(v) = line.strip_prefix(&format!("{}_count ", name)) {
                count = v.trim().parse().expect("count");
            }
        }
        (buckets, sum, count)
    }

    #[test]
    fn histogram_buckets_round_trip() {
        let r = MetricsRegistry::new();
        for v in [0u64, 1, 1, 3, 100, 5000] {
            r.observe("engine.query_us", v);
        }
        let snap = r.snapshot();
        let text = prometheus_text(&snap);
        let (buckets, sum, count) = parse_histogram(&text, "engine_query_us");
        assert_eq!(sum, 5105);
        assert_eq!(count, 6);
        // Cumulative buckets are monotone and end at +Inf == count.
        let values: Vec<u64> = buckets.iter().map(|(_, v)| *v).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(buckets.last().map(|(le, v)| (le.as_str(), *v)), Some(("+Inf", 6)));
        // De-cumulate and compare against the snapshot's own buckets.
        let h = &snap.histograms["engine.query_us"];
        let mut prev = 0u64;
        for (le, cum) in &buckets {
            if le == "+Inf" {
                continue;
            }
            let upper: u64 = le.parse().expect("le bound");
            let idx = (0..crate::hist::BUCKETS)
                .find(|&i| bucket_upper(i) == upper)
                .expect("bucket index for le bound");
            assert_eq!(cum - prev, h.buckets[idx], "bucket le={}", le);
            prev = *cum;
        }
        // Everything beyond the last finite bound is the +Inf remainder.
        assert_eq!(count - prev, 0);
    }

    #[test]
    fn empty_histogram_exposes_zero_series() {
        let r = MetricsRegistry::new();
        r.histogram("lat");
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("lat_count 0"));
    }
}
