//! Lock-free latency histograms.
//!
//! Values land in power-of-two buckets (`2^(i-1) ≤ v < 2^i`), so a
//! 64-bucket array covers the whole `u64` range with ≤ 2× relative error
//! on quantiles, while count/sum/min/max are tracked exactly. The unit
//! is the caller's choice; the engine records **microseconds**.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets (covers all of `u64`).
pub const BUCKETS: usize = 64;

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).min(BUCKETS as u32 - 1) as usize
}

/// Upper bound of bucket `i` (inclusive). Public so exporters can
/// reconstruct bucket boundaries (Prometheus `le` labels).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A concurrent histogram. All operations are lock-free atomics. The
/// count is the buckets' sum, read by [`Histogram::snapshot`]: an
/// observation moves one bucket, the sum and — rarely — an extreme.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // A new extreme is rare once a histogram is warm: read first, so
        // the common observation pays no read-modify-write for them.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and statistic.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], supporting quantiles,
/// diffing (for "what happened during this window") and merging (for
/// cluster-wide aggregation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th observation, clamped to the exact
    /// observed min/max. `quantile(0.5)` is p50, `quantile(0.99)` p99.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Observations recorded since `earlier` (bucket-wise subtraction).
    /// min/max are taken from `self` — the window's true extrema are not
    /// recoverable, so they over-approximate.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(earlier.buckets[i])
            }),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// Fold another snapshot in (cluster aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for i in 0..BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = if self.count == 0 || other.count == 0 {
            self.min.max(other.min)
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_distribution() {
        let h = Histogram::new();
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // p50 falls in bucket [32,63], p95/p99 in [64,100-clamped].
        let p50 = s.p50();
        assert!((32..=63).contains(&p50), "p50={}", p50);
        let p95 = s.p95();
        assert!((64..=100).contains(&p95), "p95={}", p95);
        let p99 = s.p99();
        assert!(p99 >= p95 && p99 <= 100, "p99={}", p99);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.mean(), 0.0);

        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 42);
        assert_eq!(s.p50(), 42);
        assert_eq!(s.p99(), 42);
        assert_eq!(s.quantile(1.0), 42);
    }

    #[test]
    fn diff_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1000);
        let window = h.snapshot().diff(&before);
        assert_eq!(window.count, 1);
        assert_eq!(window.sum, 1000);
        assert!((window.mean() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_instances() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(2);
        b.record(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1003);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 1000);
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
    }
}
