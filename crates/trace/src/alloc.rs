//! Allocation accounting: a thread-aware counting allocator and
//! scope-based deltas.
//!
//! The vectorized-execution benchmarks (E11) left a mystery wall-clock
//! alone cannot explain: batch+parallel trails plain batch even though
//! its threads all finish. The missing evidence is *memory traffic* —
//! how many allocations and bytes each pipeline phase and each operator
//! buffer costs. This module supplies it:
//!
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper around the
//!   system allocator that maintains **thread-local** counters
//!   (allocation count, cumulative bytes, live bytes, peak live bytes).
//!   Thread-local means zero cross-core contention: the hot-path cost
//!   is four `Cell` updates per allocation.
//! * [`AllocScope`] — an RAII-free delta scope: construct at a region's
//!   start, call [`AllocScope::finish`] at its end, get back the
//!   region's [`AllocStats`] (allocations, bytes, peak-above-entry).
//!   Scopes nest: an inner scope's activity is included in the outer's
//!   totals, and peaks compose (the outer peak is at least the inner's
//!   high-water mark above the outer's entry level).
//!
//! Everything is gated on the `profile-alloc` feature (the workspace's
//! manifests enable it for tests and experiment binaries). With the
//! feature off, [`AllocScope`] is a no-op returning zeros, no global
//! allocator is installed, and [`enabled`] returns `false` so callers
//! can skip recording zero metrics.
//!
//! Caveat (documented, accepted): frees are subtracted on the thread
//! that frees, so a buffer allocated on a worker thread and dropped on
//! the coordinator under-counts the worker's live-byte decrease and the
//! coordinator's increase. Counts and cumulative bytes (the metrics the
//! engine records) are exact per thread; *live/peak* figures are
//! per-thread approximations — precise in the common single-thread
//! query path, conservative around scoped fork/join sections.

/// Snapshot of one scope's allocation activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations made on this thread inside the scope.
    pub allocs: u64,
    /// Bytes requested by those allocations (cumulative, not live).
    pub bytes: u64,
    /// High-water mark of live bytes above the scope's entry level.
    pub peak_bytes: u64,
}

/// Whether allocation accounting is compiled in (`profile-alloc`).
pub const fn enabled() -> bool {
    cfg!(feature = "profile-alloc")
}

#[cfg(feature = "profile-alloc")]
mod imp {
    use super::AllocStats;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    // Const-initialized thread-locals: no lazy-init allocation, so the
    // allocator hooks cannot recurse into themselves.
    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static LIVE: Cell<u64> = const { Cell::new(0) };
        static PEAK: Cell<u64> = const { Cell::new(0) };
    }

    /// Counting wrapper around the system allocator.
    pub struct CountingAlloc;

    fn note_alloc(size: usize) {
        ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
        BYTES.with(|c| c.set(c.get().wrapping_add(size as u64)));
        let live = LIVE.with(|c| {
            let v = c.get().wrapping_add(size as u64);
            c.set(v);
            v
        });
        PEAK.with(|c| c.set(c.get().max(live)));
    }

    fn note_dealloc(size: usize) {
        // Saturating: a free of memory allocated on another thread (or
        // before accounting started) must not wrap the live counter.
        LIVE.with(|c| c.set(c.get().saturating_sub(size as u64)));
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                note_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                note_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            note_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                // One allocation event for the new block; live bytes
                // move by the delta.
                note_alloc(new_size);
                note_dealloc(layout.size());
            }
            p
        }
    }

    #[global_allocator]
    static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

    /// Delta scope over the thread-local counters. See module docs.
    #[derive(Debug)]
    pub struct AllocScope {
        start_allocs: u64,
        start_bytes: u64,
        start_live: u64,
        start_peak: u64,
    }

    impl AllocScope {
        /// Open a scope at the current counter values. The peak counter
        /// is rebased to the current live level so the scope observes
        /// its *own* high-water mark, not an ancestor's.
        pub fn enter() -> AllocScope {
            let start_live = LIVE.with(Cell::get);
            let start_peak = PEAK.with(Cell::get);
            PEAK.with(|c| c.set(start_live));
            AllocScope {
                start_allocs: ALLOCS.with(Cell::get),
                start_bytes: BYTES.with(Cell::get),
                start_live,
                start_peak,
            }
        }

        /// Close the scope, returning its deltas and restoring the peak
        /// counter so an enclosing scope's peak still composes (it
        /// becomes the max of its own pre-entry peak and anything
        /// observed since).
        pub fn finish(self) -> AllocStats {
            let allocs = ALLOCS.with(Cell::get).wrapping_sub(self.start_allocs);
            let bytes = BYTES.with(Cell::get).wrapping_sub(self.start_bytes);
            let scope_peak = PEAK.with(Cell::get);
            let peak_bytes = scope_peak.saturating_sub(self.start_live);
            PEAK.with(|c| c.set(self.start_peak.max(scope_peak)));
            AllocStats {
                allocs,
                bytes,
                peak_bytes,
            }
        }
    }
}

#[cfg(not(feature = "profile-alloc"))]
mod imp {
    use super::AllocStats;

    /// No-op stand-in when `profile-alloc` is off: no global allocator
    /// is installed and scopes report zeros.
    #[derive(Debug)]
    pub struct AllocScope;

    impl AllocScope {
        pub fn enter() -> AllocScope {
            AllocScope
        }

        pub fn finish(self) -> AllocStats {
            AllocStats::default()
        }
    }
}

pub use imp::AllocScope;
#[cfg(feature = "profile-alloc")]
pub use imp::CountingAlloc;

#[cfg(all(test, feature = "profile-alloc"))]
mod tests {
    use super::*;

    #[test]
    fn scope_counts_allocations_and_bytes() {
        let scope = AllocScope::enter();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let stats = scope.finish();
        drop(v);
        assert!(stats.allocs >= 1, "allocs={}", stats.allocs);
        assert!(stats.bytes >= 4096, "bytes={}", stats.bytes);
        assert!(stats.peak_bytes >= 4096, "peak={}", stats.peak_bytes);
    }

    #[test]
    fn nested_scopes_compose() {
        let outer = AllocScope::enter();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let inner = AllocScope::enter();
        let b: Vec<u8> = Vec::with_capacity(3000);
        let inner_stats = inner.finish();
        drop(b);
        drop(a);
        let outer_stats = outer.finish();

        // The inner scope saw only its own allocation...
        assert!(inner_stats.bytes >= 3000 && inner_stats.bytes < 4000,
            "inner bytes={}", inner_stats.bytes);
        // ...the outer scope saw both...
        assert!(outer_stats.bytes >= 4000, "outer bytes={}", outer_stats.bytes);
        assert!(outer_stats.allocs >= inner_stats.allocs);
        // ...and the outer peak is at least the inner's high-water mark
        // above the outer entry level (a was still live under b).
        assert!(outer_stats.peak_bytes >= 4000, "outer peak={}", outer_stats.peak_bytes);
        assert!(outer_stats.peak_bytes >= inner_stats.peak_bytes);
    }

    #[test]
    fn peak_tracks_live_not_cumulative() {
        let scope = AllocScope::enter();
        // Two sequential 2000-byte buffers, never live together: the
        // cumulative bytes are ~4000 but the peak stays ~2000.
        drop(Vec::<u8>::with_capacity(2000));
        drop(Vec::<u8>::with_capacity(2000));
        let stats = scope.finish();
        assert!(stats.bytes >= 4000, "bytes={}", stats.bytes);
        assert!(stats.peak_bytes >= 2000 && stats.peak_bytes < 4000,
            "peak={}", stats.peak_bytes);
    }

    #[test]
    fn enabled_reports_feature() {
        assert!(enabled());
    }
}
