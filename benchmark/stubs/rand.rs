//! Benchmark-owned std-only stand-in for the `rand` surface
//! `sources::sim` uses (a seeded xorshift behind `StdRng`). No
//! benchmark workload wraps a source in a `SimulatedLink`; the
//! benchmark's own generators use `benchmark/src/gen.rs`.
pub mod rngs {
    pub struct StdRng(pub(crate) u64);
}
pub trait SeedableRng {
    fn seed_from_u64(state: u64) -> Self;
}
impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(state: u64) -> Self {
        rngs::StdRng(state | 1)
    }
}
pub trait FromRng {
    fn from_u64(v: u64) -> Self;
}
impl FromRng for f64 {
    fn from_u64(v: u64) -> f64 {
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}
pub trait Rng {
    fn next_u64(&mut self) -> u64;
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }
}
impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}
