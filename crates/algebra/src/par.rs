//! Morsel-driven parallelism for batch kernels (hash-join build key
//! extraction and partitioned index build).
//!
//! One process-wide pool of persistent workers replaces the previous
//! per-operator `std::thread::scope` fork/join: operators submit a
//! *job* (a closure every participant runs once), and participants pull
//! fixed-size **morsels** off a shared atomic cursor until the input is
//! exhausted. The submitting thread participates too, so a pool of
//! `N - 1` workers saturates `N` cores and a round trip never blocks on
//! a thread spawn. Workers *join* a round when they wake; the submitter
//! closes the round once its own pass has drained the cursor and waits
//! only for the workers that joined, so a round of tiny tasks costs one
//! wake-up signal and never a wait on the scheduler.
//!
//! Callers always keep a serial path — [`par_chunks_profiled`] returns
//! `None` below the profitability threshold, when fewer than two
//! participants are available, or if any participant panicked, and the
//! caller falls back to the serial kernel (which will surface a
//! deterministic panic or error if the input itself is at fault).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Inputs smaller than this are not worth a fork/join round trip. With
/// persistent workers the round trip is two condvar signals, so the
/// bar sits far below the old spawn-per-operator threshold.
pub(crate) const PAR_THRESHOLD: usize = 512;

/// Rows per morsel: small enough that a skewed chunk cannot strand one
/// participant with half the input, big enough that the cursor
/// `fetch_add` amortizes to nothing.
pub(crate) const MORSEL_SIZE: usize = 1024;

/// Upper bound on participants (pool workers + the submitting thread) —
/// the kernels parallelized here are memory-bound key extraction, which
/// stops scaling early.
const MAX_WORKERS: usize = 8;

/// Recover a poisoned pool lock: a worker panic already marks the
/// round as failed, so the state itself is never half-written.
macro_rules! pool_lock {
    ($m:expr) => {
        $m.lock().unwrap_or_else(|e| e.into_inner())
    };
}

thread_local! {
    /// True while this thread is executing a pool job — set around both
    /// the worker-loop job call and the submitter's own slot-0 run. See
    /// the re-entrancy guard in [`WorkerPool::run`].
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Worker count for this machine (1 when parallelism is unavailable).
pub(crate) fn workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

/// A published job: a fat pointer to the submitter's stack closure.
/// Valid only while the submitter blocks in [`WorkerPool::run`], which
/// never returns before every participant has finished the round.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for JobPtr {}

struct PoolState {
    job: Option<JobPtr>,
    /// Round number; each worker runs each round at most once.
    generation: u64,
    /// Workers that joined the current round and have not finished it.
    active: usize,
    /// A participant panicked during the current round.
    panicked: bool,
}

/// A persistent pool of workers driving morsel jobs.
///
/// The process-wide instance behind [`par_chunks_profiled`] is sized to
/// the machine; tests build small private pools to exercise the
/// parallel path on single-core hosts.
pub struct WorkerPool {
    m: Mutex<PoolState>,
    /// Wakes workers when a round is published.
    work_cv: Condvar,
    /// Wakes the submitter when the last worker finishes a round.
    done_cv: Condvar,
    /// Serializes submitters: one round in flight at a time.
    submit: Mutex<()>,
    /// Workers actually running (spawn failures just shrink the pool).
    live: AtomicUsize,
    /// Fork/join rounds completed (telemetry).
    rounds: AtomicU64,
    /// Morsels pulled across all rounds (telemetry).
    morsels: AtomicU64,
}

impl WorkerPool {
    /// Spawn a pool with `extra_workers` persistent threads (the
    /// submitting thread is participant 0, so total parallelism is
    /// `extra_workers + 1`). Workers park on a condvar between rounds.
    pub fn new(extra_workers: usize) -> &'static WorkerPool {
        let pool = Box::leak(Box::new(WorkerPool {
            m: Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            live: AtomicUsize::new(0),
            rounds: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
        }));
        let spawned: &'static WorkerPool = pool;
        let mut live = 0;
        for slot in 1..=extra_workers {
            let p: &'static WorkerPool = spawned;
            // Worker threads are daemons: they live for the process and
            // park between rounds, so handles are not retained.
            if thread::Builder::new()
                .name(format!("nimble-pool-{}", slot))
                .spawn(move || p.worker_loop(slot))
                .is_ok()
            {
                live += 1;
            }
        }
        spawned.live.store(live, Ordering::SeqCst);
        spawned
    }

    /// Participants a round can use (pool workers + the submitter).
    pub fn participants(&self) -> usize {
        self.live.load(Ordering::SeqCst) + 1
    }

    fn worker_loop(&'static self, slot: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = pool_lock!(self.m);
                loop {
                    if st.generation != seen {
                        seen = st.generation;
                        // A round the submitter has already closed is
                        // skipped, not joined.
                        if let Some(j) = st.job {
                            st.active += 1;
                            break j;
                        }
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            IN_JOB.with(|f| f.set(true));
            let ok = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(slot)));
            IN_JOB.with(|f| f.set(false));
            let mut st = pool_lock!(self.m);
            if ok.is_err() {
                st.panicked = true;
            }
            st.active -= 1;
            if st.active == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Run `job(slot)` on the calling thread (slot 0) and on every worker
    /// that wakes before the caller's own pass returns, and wait for
    /// those. Jobs pull work off a shared cursor, so a worker that wakes
    /// after the caller drained it has nothing to add: the round is
    /// closed under the lock and that worker skips it, which keeps the
    /// cost of a round of tiny tasks independent of how soon the
    /// scheduler runs a parked thread. Returns `false` if any participant
    /// panicked — the caller must then fall back to its serial kernel.
    /// Never returns while a worker still holds the job pointer (a worker
    /// takes it only by joining an open round under the lock), which is
    /// what makes publishing a stack closure sound.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> bool {
        // Re-entrancy guard: a job already running on this pool must not
        // submit another round. The submitter blocks on `submit` until
        // the current round finishes, and the current round cannot finish
        // while one of its participants is blocked here — a deadlock.
        // Declining (like any other "could not parallelize" condition)
        // sends nested sections down their serial fallback instead.
        if IN_JOB.with(|f| f.get()) {
            return false;
        }
        let _turn = pool_lock!(self.submit);
        {
            // Erase the borrow lifetime: `JobPtr` defaults to `+ 'static`,
            // but the pointer is only ever dereferenced before this call
            // returns (see the doc invariant above).
            let ptr: *const (dyn Fn(usize) + Sync) = job;
            let ptr: *const (dyn Fn(usize) + Sync + 'static) =
                unsafe { std::mem::transmute(ptr) };
            let mut st = pool_lock!(self.m);
            st.job = Some(JobPtr(ptr));
            st.generation = st.generation.wrapping_add(1);
            st.active = 0;
            st.panicked = false;
        }
        self.work_cv.notify_all();
        IN_JOB.with(|f| f.set(true));
        let caller_ok = catch_unwind(AssertUnwindSafe(|| job(0))).is_ok();
        IN_JOB.with(|f| f.set(false));
        let mut st = pool_lock!(self.m);
        // Close the round: no worker joins from here on.
        st.job = None;
        while st.active > 0 {
            st = self
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        self.rounds.fetch_add(1, Ordering::Relaxed);
        caller_ok && !st.panicked
    }
}

/// The process-wide pool, or `None` on single-core machines (parallel
/// sections then decline and callers run their serial kernels).
/// `NIMBLE_POOL_WORKERS` overrides the participant count (useful to
/// exercise the pool on CI hosts that report one core).
pub fn pool() -> Option<&'static WorkerPool> {
    static POOL: OnceLock<Option<&'static WorkerPool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let participants = std::env::var("NIMBLE_POOL_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(workers)
            .min(MAX_WORKERS);
        if participants < 2 {
            return None;
        }
        Some(WorkerPool::new(participants - 1))
    })
}

/// Pool telemetry snapshot: `(participants, rounds, morsels)`. All
/// zeros when no pool exists (single-core host).
pub fn pool_stats() -> (usize, u64, u64) {
    match pool() {
        Some(p) => (
            p.participants(),
            p.rounds.load(Ordering::Relaxed),
            p.morsels.load(Ordering::Relaxed),
        ),
        None => (0, 0, 0),
    }
}

/// Map `f` over morsels of `items` on the pool, concatenating the
/// per-morsel outputs in input order. `f` receives the morsel's base
/// index into `items` plus the morsel itself. Each participant also
/// measures its own wall-clock over the morsels it ran, so the caller
/// can surface utilization (and imbalance) instead of guessing it from
/// end-to-end time.
///
/// Returns `None` when the input is too small, no pool exists (single
/// core), or any participant panicked — callers must then run their
/// serial kernel instead.
pub(crate) fn par_chunks_profiled<T, R, F>(
    items: &[T],
    f: F,
) -> Option<(Vec<R>, crate::ops::ParProfile)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let pool = pool()?;
    if items.len() < PAR_THRESHOLD {
        return None;
    }
    par_chunks_on(pool, items, f)
}

/// Map `f` over `items` with a serial fallback: on the pool when the
/// caller's `parallel` hint is set and [`par_chunks_profiled`] accepts
/// the input, as one chunk on this thread otherwise. The profile is
/// `None` when parallelism was never asked for and has `workers == 0`
/// when it was asked for and declined, so utilization telemetry can tell
/// the two apart.
pub(crate) fn map_chunks<T, R, F>(
    parallel: bool,
    items: &[T],
    f: F,
) -> (Vec<R>, Option<crate::ops::ParProfile>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    if !parallel {
        return (f(0, items), None);
    }
    match par_chunks_profiled(items, &f) {
        Some((out, prof)) => (out, Some(prof)),
        None => (f(0, items), Some(crate::ops::ParProfile::default())),
    }
}

/// [`par_chunks_profiled`] on an explicit pool, with no size gate —
/// the building block tests use to drive the parallel path
/// deterministically.
pub(crate) fn par_chunks_on<T, R, F>(
    pool: &WorkerPool,
    items: &[T],
    f: F,
) -> Option<(Vec<R>, crate::ops::ParProfile)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let participants = pool.participants();
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let busy: Vec<AtomicU64> = (0..participants).map(|_| AtomicU64::new(0)).collect();
    let pulled = AtomicU64::new(0);
    let job = |slot: usize| {
        let start = std::time::Instant::now();
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            let base = m * MORSEL_SIZE;
            if base >= items.len() {
                break;
            }
            let end = (base + MORSEL_SIZE).min(items.len());
            local.push((m, f(base, &items[base..end])));
        }
        if !local.is_empty() {
            pulled.fetch_add(local.len() as u64, Ordering::Relaxed);
            pool_lock!(parts).extend(local);
        }
        let busy_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        if let Some(b) = busy.get(slot) {
            b.store(busy_us, Ordering::Relaxed);
        }
    };
    if !pool.run(&job) {
        return None;
    }
    pool.morsels
        .fetch_add(pulled.load(Ordering::Relaxed), Ordering::Relaxed);
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|(m, _)| *m);
    let mut out = Vec::with_capacity(items.len());
    for (_, p) in parts {
        out.extend(p);
    }
    let profile = crate::ops::ParProfile {
        workers: participants,
        busy_us: busy.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
    };
    Some((out, profile))
}

/// Run `n` independent coarse-grained tasks on the process-wide pool,
/// returning their results in task order. Unlike
/// [`par_chunks_profiled`], which carves one slice into fixed-size
/// morsels, each *task index* here is one unit of work — the shape of
/// scatter-gather fan-out (one task per shard) and of multi-source fetch
/// (one task per source), where units are few and heavy rather than
/// many and tiny.
///
/// Returns `None` when there is at most one task, no pool exists
/// (single-core host), this thread is already inside a pool job (nested
/// submission declines, see [`WorkerPool::run`]), or a participant
/// panicked — the caller must then run its serial loop. On `None` some
/// tasks may already have executed; callers whose tasks are not
/// idempotent must re-run from scratch only if that is safe, or use the
/// serial path outright.
pub fn par_tasks<R, F>(n: usize, f: F) -> Option<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n < 2 {
        return None;
    }
    par_tasks_on(pool()?, n, f)
}

/// [`par_tasks`] on an explicit pool with no size gate — the building
/// block tests use to drive the parallel path on single-core hosts.
pub(crate) fn par_tasks_on<R, F>(pool: &WorkerPool, n: usize, f: F) -> Option<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let pulled = AtomicU64::new(0);
    let job = |_slot: usize| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(i);
        pulled.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = slots.get(i) {
            *pool_lock!(slot) = Some(r);
        }
    };
    if !pool.run(&job) {
        return None;
    }
    pool.morsels
        .fetch_add(pulled.load(Ordering::Relaxed), Ordering::Relaxed);
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.push(slot.into_inner().unwrap_or_else(|e| e.into_inner())?);
    }
    Some(out)
}

/// A small shared pool for exercising parallel paths deterministically
/// on single-core hosts (crate tests only).
#[cfg(test)]
pub(crate) fn tests_pool() -> &'static WorkerPool {
    static P: OnceLock<&'static WorkerPool> = OnceLock::new();
    P.get_or_init(|| WorkerPool::new(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pool() -> &'static WorkerPool {
        tests_pool()
    }

    #[test]
    fn small_inputs_decline() {
        let items: Vec<u32> = (0..100).collect();
        // Either no pool exists (single core) or the threshold gates.
        assert!(par_chunks_profiled(&items, |_, c| c.to_vec()).is_none());
    }

    #[test]
    fn profiled_variant_reports_one_busy_time_per_participant() {
        let items: Vec<u32> = (0..10_000).collect();
        let (mapped, profile) =
            par_chunks_on(test_pool(), &items, |_, c| c.to_vec()).unwrap();
        assert_eq!(mapped.len(), items.len());
        assert_eq!(profile.workers, 3);
        assert_eq!(profile.busy_us.len(), profile.workers);
    }

    #[test]
    fn preserves_order_across_morsels() {
        let items: Vec<u32> = (0..10_000).collect();
        let (mapped, _) = par_chunks_on(test_pool(), &items, |base, c| {
            c.iter()
                .enumerate()
                .map(|(i, v)| (base + i, *v * 2))
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(mapped.len(), items.len());
        for (i, (idx, v)) in mapped.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, items[i] * 2);
        }
    }

    #[test]
    fn participant_panic_falls_back() {
        let items: Vec<u32> = (0..10_000).collect();
        let got = par_chunks_on(test_pool(), &items, |base, c| {
            if base == 0 {
                panic!("worker bug");
            }
            c.to_vec()
        });
        assert!(got.is_none());
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let items: Vec<u32> = (0..5_000).collect();
        let _ = par_chunks_on(test_pool(), &items, |base, c| {
            if base == 0 {
                panic!("worker bug");
            }
            c.to_vec()
        });
        // The same pool serves the next round normally.
        let (mapped, _) =
            par_chunks_on(test_pool(), &items, |_, c| c.to_vec()).unwrap();
        assert_eq!(mapped.len(), items.len());
    }

    #[test]
    fn par_tasks_returns_results_in_task_order() {
        let got = par_tasks_on(test_pool(), 37, |i| i * 3).unwrap();
        assert_eq!(got, (0..37).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_tasks_declines_on_panicked_task() {
        let got = par_tasks_on(test_pool(), 8, |i| {
            if i == 3 {
                panic!("task bug");
            }
            i
        });
        assert!(got.is_none());
        // The pool still serves the next round.
        assert_eq!(par_tasks_on(test_pool(), 4, |i| i).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tiny_rounds_are_right_whoever_runs_them() {
        // Rounds this short are usually closed before a worker wakes; a
        // worker that does join mid-round must still be waited for, and
        // one that wakes late must skip the round, not read its job.
        for round in 0..2_000usize {
            let got = par_tasks_on(test_pool(), 2, |i| round * 2 + i).unwrap();
            assert_eq!(got, vec![round * 2, round * 2 + 1]);
        }
    }

    #[test]
    fn par_tasks_declines_below_two_tasks() {
        // The public entry gates on task count before touching the pool.
        assert!(par_tasks(0, |i| i).is_none());
        assert!(par_tasks(1, |i| i).is_none());
    }

    #[test]
    fn nested_submission_declines_instead_of_deadlocking() {
        // A task that itself tries to run a pool round must get a clean
        // `false`/`None` (serial fallback), not a deadlock: the outer
        // round cannot finish while its participant waits on `submit`.
        let got = par_tasks_on(test_pool(), 6, |i| {
            let inner = par_tasks_on(test_pool(), 4, |j| j);
            assert!(inner.is_none(), "nested round must decline");
            i * 10
        })
        .unwrap();
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn many_rounds_reuse_the_same_workers() {
        let before = test_pool().rounds.load(Ordering::Relaxed);
        for _ in 0..20 {
            let items: Vec<u32> = (0..3_000).collect();
            let (mapped, _) =
                par_chunks_on(test_pool(), &items, |_, c| c.to_vec()).unwrap();
            assert_eq!(mapped.len(), items.len());
        }
        let after = test_pool().rounds.load(Ordering::Relaxed);
        assert!(after >= before + 20);
    }
}
