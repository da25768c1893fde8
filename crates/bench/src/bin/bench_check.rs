//! Regression sentinel CLI: compare fresh quick-mode bench artifacts
//! against the checked-in baselines and fail on a gate breach.
//!
//! ```text
//! bench_check <baseline_dir> <fresh_dir> <artifact>...
//! ```
//!
//! Each `<artifact>` basename (e.g. `BENCH_shard.json`) is read
//! from both directories, parsed, and run through the ratio gates in
//! `nimble_bench::baseline` (see that module for the noise-floor
//! story). Exits 1 if any gate fails or an artifact is unreadable —
//! `cargo xtask bench-check` drives this in CI.

use nimble_bench::baseline;
use nimble_trace::json;

fn read_artifact(dir: &str, name: &str) -> Result<json::Value, String> {
    let path = std::path::Path::new(dir).join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {}", path.display(), e))?;
    let parsed: json::Value =
        json::from_str(&text).map_err(|e| format!("{}: parse: {}", path.display(), e))?;
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("usage: bench_check <baseline_dir> <fresh_dir> <artifact>...");
        std::process::exit(2);
    }
    let (base_dir, fresh_dir, artifacts) = (&args[0], &args[1], &args[2..]);

    let mut all_ok = true;
    for name in artifacts {
        println!("== {} ==", name);
        let (base, fresh) = match (read_artifact(base_dir, name), read_artifact(fresh_dir, name)) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for r in [b, f].iter().filter_map(|r| r.as_ref().err()) {
                    eprintln!("bench_check: {}", r);
                }
                all_ok = false;
                continue;
            }
        };
        match baseline::compare(name, &base, &fresh) {
            Some(results) => {
                let (report, ok) = baseline::render(&results);
                print!("{}", report);
                all_ok &= ok;
            }
            None => println!("no gates registered for this artifact (tracked by eye)"),
        }
    }

    if all_ok {
        println!("bench-check: all gates passed");
    } else {
        eprintln!("bench-check: FAILED (see gates above)");
        std::process::exit(1);
    }
}
