//! The repetitions of a full set (`run.sh` without `--workload`) put
//! together: every end-to-end metric as the median of a workload's
//! repetitions (each repetition already reports medians over its
//! blocks); and `--against`, which compares two sets metric by metric
//! with the bounds of `metrics::END_TO_END`.
//!
//! A set directory holds, per workload, `<w>.<rep>.kv` from each
//! untraced repetition, `<w>.traced.kv` from the traced one, and an
//! empty `<w>.<rep>.rerun` for a repetition that was re-run because the
//! host drifted under it.

use crate::metrics::{median, num, END_TO_END, PER_LAYER};
use crate::need;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

type Kv = BTreeMap<String, (f64, String)>;

fn read_kv(path: &Path) -> Option<Kv> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut kv = Kv::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        if let (Some(name), Some(v), Some(unit)) = (f.next(), f.next(), f.next()) {
            if let Ok(v) = v.parse::<f64>() {
                kv.insert(name.to_string(), (v, unit.to_string()));
            }
        }
    }
    Some(kv)
}

struct WorkloadSet {
    reps: usize,
    reruns: usize,
    /// End-to-end metrics (plus `failed_share`, `p99_ms`, `samples`).
    e2e: BTreeMap<String, f64>,
    layers: Kv,
    host: String,
    smoke: bool,
}

fn load(dir: &Path, workload: &str) -> Option<WorkloadSet> {
    let mut kvs = Vec::new();
    let mut reruns = 0;
    let mut host = String::new();
    for rep in 1.. {
        let file = |ext: &str| dir.join(format!("{}.{}.{}", workload, rep, ext));
        let Some(kv) = read_kv(&file("kv")) else {
            break;
        };
        if file("rerun").exists() {
            reruns += 1;
        }
        if host.is_empty() {
            if let Ok(text) = std::fs::read_to_string(file("kv")) {
                host = text.lines().next().unwrap_or("").to_string();
            }
        }
        kvs.push(kv);
    }
    if kvs.is_empty() {
        return None;
    }
    let over_reps = |name: &str| {
        median(
            kvs.iter()
                .filter_map(|kv| kv.get(name).map(|x| x.0))
                .collect(),
        )
    };
    let mut e2e = BTreeMap::new();
    for name in END_TO_END.iter().map(|m| m.name).chain(["p99_ms"]) {
        e2e.insert(name.to_string(), over_reps(name));
    }
    let (failed, attempted) = kvs.iter().fold((0.0, 0.0), |(f, n), kv| {
        let ops = kv.get("samples").map_or(0.0, |x| x.0);
        (
            f + kv.get("failed_share").map_or(0.0, |x| x.0) * ops,
            n + ops,
        )
    });
    e2e.insert(
        "failed_share".into(),
        if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        },
    );
    e2e.insert("samples".into(), attempted);
    Some(WorkloadSet {
        reps: kvs.len(),
        reruns,
        e2e,
        layers: read_kv(&dir.join(format!("{}.traced.kv", workload))).unwrap_or_default(),
        smoke: host.contains("smoke=true"),
        host,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.name == name).map_or(
        match name {
            "p99_ms" => "ms",
            "failed_share" => "ratio",
            _ => "count",
        },
        |m| m.unit,
    )
}

fn print_set(dir: &Path, sets: &BTreeMap<&'static str, WorkloadSet>) {
    let mut json = String::from("{\n");
    let mut first_w = true;
    for (w, set) in sets {
        println!(
            "\n== {}  ({} repetitions{}{})",
            w,
            set.reps,
            if set.reruns > 0 {
                format!(", {} re-run after host drift", set.reruns)
            } else {
                String::new()
            },
            if set.smoke {
                ", SMOKE — not comparable"
            } else {
                ""
            }
        );
        println!("   {}", set.host);
        if !first_w {
            json.push_str(",\n");
        }
        first_w = false;
        json.push_str(&format!(
            "  \"{}\": {{\"smoke\": {}, \"repetitions\": {}, \"reruns\": {}, \"end_to_end\": {{",
            w, set.smoke, set.reps, set.reruns
        ));
        let order: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(["failed_share", "p99_ms", "samples"])
            .collect();
        for (i, name) in order.iter().enumerate() {
            let v = set.e2e.get(*name).copied().unwrap_or(0.0);
            println!("   {:<34} {:>16} {}", name, num(v), unit_of(name));
            json.push_str(&format!(
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                name,
                num(v),
                unit_of(name)
            ));
        }
        json.push_str("}, \"per_layer\": {");
        // The table's metrics in the table's order, then whatever else
        // the traced run printed (its own p50, the self-time budget).
        let listed: Vec<String> = PER_LAYER
            .iter()
            .map(|(layer, metric, ..)| format!("{}.{}", layer, metric))
            .collect();
        let extra = set.layers.keys().filter(|k| !listed.contains(k));
        let ordered = listed
            .iter()
            .chain(extra)
            .filter_map(|k| set.layers.get_key_value(k));
        for (i, (name, (v, unit))) in ordered.enumerate() {
            let name = if name.contains('.') {
                name.clone()
            } else {
                format!("traced.{}", name)
            };
            println!("   {:<34} {:>16} {}", name, num(*v), unit);
            json.push_str(&format!(
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                name,
                num(*v),
                unit
            ));
        }
        json.push_str("}}");
    }
    json.push_str("\n}\n");
    need(
        std::fs::write(dir.join("summary.json"), json),
        "write summary.json",
    );
}

fn load_all(dir: &Path) -> BTreeMap<&'static str, WorkloadSet> {
    WORKLOADS
        .iter()
        .filter_map(|(w, _)| load(dir, w).map(|s| (*w, s)))
        .collect()
}

pub fn report(args: &[String]) {
    let Some(dir) = args.first() else {
        eprintln!("nimble-benchmark report: missing directory");
        std::process::exit(2);
    };
    let dir = Path::new(dir);
    let sets = load_all(dir);
    if sets.is_empty() {
        eprintln!(
            "nimble-benchmark report: no repetitions under {}",
            dir.display()
        );
        std::process::exit(2);
    }
    print_set(dir, &sets);
    let failed: Vec<&&str> = sets
        .iter()
        .filter(|(_, s)| s.e2e.get("failed_share").is_some_and(|v| *v > 0.0))
        .map(|(w, _)| w)
        .collect();
    let mut breach = !failed.is_empty();
    for w in failed {
        println!("\nFAILED OPS on {}", w);
    }

    if let Some(pos) = args.iter().position(|a| a == "--against") {
        let Some(other) = args.get(pos + 1) else {
            eprintln!("nimble-benchmark report: --against needs a directory");
            std::process::exit(2);
        };
        let base = load_all(Path::new(other));
        println!("\n== second set against first: relative difference, bound (absolute floor)");
        for (w, set) in &sets {
            let Some(first) = base.get(w) else { continue };
            if set.smoke || first.smoke {
                println!("   {:<14} smoke runs are never compared", w);
                continue;
            }
            for m in &END_TO_END {
                let a = first.e2e.get(m.name).copied().unwrap_or(0.0);
                let b = set.e2e.get(m.name).copied().unwrap_or(0.0);
                let rel = if a != 0.0 { (b - a) / a } else { 0.0 };
                // The source counts repeat exactly where every run does
                // the same ops; `view_refresh`'s table grows with the
                // cycles a run completes, so there the bound applies.
                let exact = m.unit == "count" && *w != "view_refresh";
                let over = if exact {
                    a != b
                } else {
                    rel.abs() > m.bound && (b - a).abs() > m.floor
                };
                breach |= over;
                println!(
                    "   {:<14} {:<22} {:>14} -> {:>14}  {:>+8.2}%  bound {:>4.1}% ({} {}){}",
                    w,
                    m.name,
                    num(a),
                    num(b),
                    rel * 100.0,
                    if exact { 0.0 } else { m.bound * 100.0 },
                    num(m.floor),
                    m.unit,
                    if over { "   BREACH" } else { "" }
                );
            }
        }
    }
    if breach {
        std::process::exit(1);
    }
}
