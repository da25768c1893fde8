//! The workspace's one seeded generator: xorshift64, for simulated
//! links, synthetic data and test sweeps. Not for anything a key or a
//! hash-flooding defence depends on.
//!
//! The seeding (`seed | 1`), the step (13/7/17) and the `f64` draw (top
//! 53 bits) are fixed: every `SimulatedLink` failure roll and every
//! committed fixture is a function of them.

/// A seeded xorshift64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must not be 0.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`; the range must not be empty.
    pub fn range(&mut self, r: std::ops::Range<i64>) -> i64 {
        let width = r.end.wrapping_sub(r.start) as u64;
        r.start.wrapping_add((self.next_u64() % width) as i64)
    }

    /// Any `i64`, with the edges and the small values over-represented
    /// (a uniform draw almost never lands on the values that break code).
    pub fn any_i64(&mut self) -> i64 {
        match self.below(4) {
            0 => *self.pick(&[0, 1, -1, i64::MIN, i64::MAX]),
            1 => self.range(-100..100),
            _ => self.next_u64() as i64,
        }
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A string of `len` (drawn from the range) characters of `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: std::ops::Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = len.start + self.below(len.end - len.start);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// Fisher–Yates, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seed every [`sweep`] derives its cases from.
pub const SWEEP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The generator [`sweep`] hands to case number `case` — the way to
/// replay one reported failure on its own.
pub fn sweep_case(case: usize) -> Rng {
    // A multiply spreads consecutive case numbers over the whole word;
    // xorshift's first draws from nearby small seeds are nearby.
    Rng::new((SWEEP_SEED ^ case as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Run `property` over `cases` independently seeded generators. When it
/// panics, the seed and the case number are printed with the failure.
pub fn sweep(cases: usize, mut property: impl FnMut(&mut Rng)) {
    struct Report(usize);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "sweep: case {} failed (seed {:#x}; replay with rng::sweep_case({}))",
                    self.0, SWEEP_SEED, self.0
                );
            }
        }
    }
    for case in 0..cases {
        let _report = Report(case);
        property(&mut sweep_case(case));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_pinned() {
        // Seed 42 as every `SimulatedLink` and fixture has drawn it.
        let mut r = Rng::new(42);
        assert_eq!(r.next_u64(), 46_537_075_435);
        assert_eq!(Rng::new(42).0, Rng::new(43).0, "seed | 1");
        let mut r = Rng::new(7);
        let x = r.clone().next_u64();
        assert_eq!(r.f64(), (x >> 11) as f64 / 9_007_199_254_740_992.0);
    }

    #[test]
    fn helpers_stay_in_range() {
        sweep(64, |rng| {
            assert!(rng.below(7) < 7);
            assert!((-3..4).contains(&rng.range(-3..4)));
            assert!(rng.range(i64::MIN..i64::MAX) < i64::MAX);
            assert!((0.0..1.0).contains(&rng.f64()));
            assert!(!rng.chance(0.0) && rng.chance(1.0));
            assert!([1, 2, 3].contains(rng.pick(&[1, 2, 3])));
            let s = rng.string("aé😀", 2..5);
            assert!((2..5).contains(&s.chars().count()) && s.chars().all(|c| "aé😀".contains(c)));
            let mut v: Vec<u32> = (0..10).collect();
            rng.shuffle(&mut v);
            v.sort_unstable();
            assert_eq!(v, (0..10).collect::<Vec<u32>>());
        });
    }

    #[test]
    fn sweep_cases_are_distinct_and_replayable() {
        let mut firsts = Vec::new();
        sweep(256, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts[17], sweep_case(17).next_u64());
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 256);
    }
}
