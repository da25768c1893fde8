//! What the benchmark reads about its own process and host, all from
//! `/proc` and `std`: CPU time, peak resident memory, core count, and a
//! fixed calibration kernel that says how fast the host is right now.

use std::time::Instant;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100.
const TICKS_PER_S: f64 = 100.0;

/// Process user+sys CPU time so far, all threads, in ms.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, so the 12th and 13th here.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 1e3 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The calibration kernel: what a serve mostly does — small
/// allocations, string building, hashing, sorting — in a fixed amount,
/// about 5 ms on the reference host. Returns its wall time in ms.
///
/// A shared host slows memory- and allocation-heavy code far more than
/// arithmetic (a table-walk/ALU kernel moved 1.0–1.1x over ten minutes
/// in which the workloads and this kernel both moved 1.0–1.45x), so the
/// kernel has to look like the workloads to track them.
pub fn cal_ms() -> f64 {
    use std::collections::HashMap;
    let t = Instant::now();
    for round in 0..4u32 {
        let mut map: HashMap<String, Vec<u32>> = HashMap::new();
        for i in 0..6000u32 {
            map.entry(format!("key-{:05}", (i.wrapping_mul(7919) + round) % 2500))
                .or_default()
                .push(i);
        }
        let mut names: Vec<String> = map.keys().cloned().collect();
        names.sort();
        let mut sum = 0usize;
        for n in &names {
            sum += map.get(n).map_or(0, Vec::len);
        }
        std::hint::black_box(sum);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// The kernel's time on the reference host when nothing else runs;
/// normalised times are "ms on a host that runs the kernel in this".
pub const CAL_REF_MS: f64 = 5.0;
