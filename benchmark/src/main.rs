//! `nimble-benchmark`: the serve benchmark's driver.
//!
//! ```text
//! nimble-benchmark run --workload W --seed N --seconds S --trace 0|1 [...]
//! nimble-benchmark report DIR [--against DIR2]
//! nimble-benchmark manifest
//! ```
//!
//! `run` is one repetition of one workload in this process (see
//! `run.rs`); `report` pools the repetitions `run.sh` left in a
//! directory; `manifest` prints `BENCHMARK.json` from the metric and
//! workload tables. See `benchmark/README.md`.

mod check;
mod counted;
mod gen;
mod host;
mod layers;
mod metrics;
mod report;
mod run;
mod spans;
mod workloads;

use std::path::PathBuf;

/// Unwrap a harness result without a panic path: say what failed and
/// exit non-zero, so no result line is printed.
pub fn need<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("nimble-benchmark: {}: {}", what, e);
            std::process::exit(2);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: nimble-benchmark run --workload W --seed N --seconds S --trace 0|1 \
         [--reference SECONDS:P50_MS] [--out-dir DIR] [--kv FILE] [--host TEXT] [--smoke]\n\
         \x20      nimble-benchmark report DIR [--against DIR2]\n\
         \x20      nimble-benchmark manifest"
    );
    std::process::exit(2);
}

fn run_args(args: &[String]) -> run::Args {
    let mut a = run::Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        reference: None,
        out_dir: PathBuf::from("."),
        kv: None,
        host: String::new(),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = need(value.parse(), "--seed"),
            "--seconds" => a.seconds = need(value.parse(), "--seconds"),
            "--trace" => a.trace = value == "1",
            "--reference" => {
                let (seconds, p50) = need(
                    value.split_once(':').ok_or("want SECONDS:P50_MS"),
                    "--reference",
                );
                a.reference = Some((
                    need(seconds.parse(), "--reference"),
                    need(p50.parse(), "--reference"),
                ));
            }
            "--out-dir" => a.out_dir = PathBuf::from(value),
            "--kv" => a.kv = Some(PathBuf::from(value)),
            "--host" => a.host = value.clone(),
            _ => usage(),
        }
    }
    if !workloads::WORKLOADS
        .iter()
        .any(|(name, _)| *name == a.workload)
    {
        eprintln!("nimble-benchmark: unknown workload {:?}", a.workload);
        usage();
    }
    if !(a.seconds > 0.0) {
        usage();
    }
    a
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::run(&run_args(&args[1..])),
        Some("report") => report::report(&args[1..]),
        Some("manifest") => print!("{}", metrics::manifest()),
        _ => usage(),
    }
}
