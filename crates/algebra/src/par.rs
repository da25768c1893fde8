//! The task pool: a round of a few coarse, independent tasks — one per
//! source of a fetch round, one per child of an Exchange gather — run
//! at once, so a round's latency tracks its slowest task, not the sum.
//!
//! One process-wide pool of persistent workers serves every round:
//! [`par_tasks`] publishes a *job* (a closure every participant runs
//! once), and participants pull task indices off a shared atomic cursor
//! until none is left. The submitting thread participates too, so a pool
//! of `N - 1` workers saturates `N` cores and a round never waits on a
//! thread spawn. Workers *join* a round when they wake; the submitter
//! closes the round once its own pass has drained the cursor and waits
//! only for the workers that joined, so a round of tiny tasks costs one
//! wake-up signal and never a wait on the scheduler.
//!
//! There is one path: where no pool can run a round (one core, one
//! task, or a caller that is itself a pool task) the same tasks run
//! inline, in order, and a task's panic reaches the caller either way.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Upper bound on participants (pool workers + the submitting thread):
/// a round holds one task per source or shard, which are few.
const MAX_WORKERS: usize = 8;

/// Recover a poisoned pool lock: a participant's panic is caught and
/// handed to the submitter, so the state itself is never half-written.
macro_rules! pool_lock {
    ($m:expr) => {
        $m.lock().unwrap_or_else(|e| e.into_inner())
    };
}

thread_local! {
    /// True while this thread is executing a pool job — set around both
    /// the worker-loop job call and the submitter's own slot-0 run. A
    /// round submitted from inside a job runs inline (see
    /// [`par_tasks`]).
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Worker count for this machine (1 when parallelism is unavailable).
fn workers() -> usize {
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
// SAFETY: the one field points at a `Sync` closure, so calling it from
// another thread is sound; the pointer is dereferenced only while it is
// valid (see `WorkerPool::run`).
unsafe impl Send for JobPtr {}

struct PoolState {
    job: Option<JobPtr>,
    /// Round number; each worker runs each round at most once.
    generation: u64,
    /// Workers that joined the current round and have not finished it.
    active: usize,
    /// The first panic a worker caught during the current round.
    panic: Option<Box<dyn Any + Send>>,
}

/// A persistent pool of workers driving task rounds.
///
/// The process-wide instance behind [`par_tasks`] is sized to the
/// machine; tests build a small private pool to exercise the pooled
/// path on single-core hosts.
pub(crate) struct WorkerPool {
    m: Mutex<PoolState>,
    /// Wakes workers when a round is published.
    work_cv: Condvar,
    /// Wakes the submitter when the last worker finishes a round.
    done_cv: Condvar,
    /// Serializes submitters: one round in flight at a time.
    submit: Mutex<()>,
    /// Workers actually running (spawn failures just shrink the pool).
    live: AtomicUsize,
    /// Rounds completed (telemetry).
    rounds: AtomicU64,
    /// Tasks run across all rounds (telemetry).
    tasks: AtomicU64,
}

impl WorkerPool {
    /// Spawn a pool with `extra_workers` persistent threads (the
    /// submitting thread is participant 0, so total parallelism is
    /// `extra_workers + 1`). Workers park on a condvar between rounds.
    fn new(extra_workers: usize) -> &'static WorkerPool {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            m: Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            live: AtomicUsize::new(0),
            rounds: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }));
        let mut live = 0;
        for slot in 1..=extra_workers {
            // Worker threads are daemons: they live for the process and
            // park between rounds, so handles are not retained.
            if thread::Builder::new()
                .name(format!("nimble-pool-{}", slot))
                .spawn(move || pool.worker_loop(slot))
                .is_ok()
            {
                live += 1;
            }
        }
        pool.live.store(live, Ordering::SeqCst);
        pool
    }

    /// Participants a round can use (pool workers + the submitter).
    fn participants(&self) -> usize {
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
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            IN_JOB.with(|f| f.set(true));
            // SAFETY: this worker joined an open round under the lock, and
            // `run` does not return — so the submitter's closure lives —
            // until every joined worker has left the round below.
            let ran = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(slot)));
            IN_JOB.with(|f| f.set(false));
            let mut st = pool_lock!(self.m);
            if let Err(payload) = ran {
                st.panic.get_or_insert(payload);
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
    /// scheduler runs a parked thread. A participant's panic is re-raised
    /// here once the round is over. Never returns while a worker still
    /// holds the job pointer (a worker takes it only by joining an open
    /// round under the lock), which is what makes publishing a stack
    /// closure sound.
    ///
    /// Must not be called from inside a job: the round in flight cannot
    /// finish while one of its participants waits on `submit` here.
    /// [`par_tasks_on`] runs such a round inline instead.
    fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let panic = {
            let _turn = pool_lock!(self.submit);
            {
                // Erase the borrow lifetime: `JobPtr` defaults to
                // `+ 'static`.
                // SAFETY: the two pointer types differ only in lifetime,
                // and the pointer is dereferenced only before this call
                // returns (see the doc invariant above).
                let ptr: *const (dyn Fn(usize) + Sync) = job;
                let ptr: *const (dyn Fn(usize) + Sync + 'static) =
                    unsafe { std::mem::transmute(ptr) };
                let mut st = pool_lock!(self.m);
                st.job = Some(JobPtr(ptr));
                st.generation = st.generation.wrapping_add(1);
                st.active = 0;
                st.panic = None;
            }
            self.work_cv.notify_all();
            IN_JOB.with(|f| f.set(true));
            let ran = catch_unwind(AssertUnwindSafe(|| job(0)));
            IN_JOB.with(|f| f.set(false));
            let mut st = pool_lock!(self.m);
            // Close the round: no worker joins from here on.
            st.job = None;
            while st.active > 0 {
                st = self.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            self.rounds.fetch_add(1, Ordering::Relaxed);
            ran.err().or_else(|| st.panic.take())
        };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// One round of tasks `f(0)` … `f(n - 1)`, their results in task
    /// order.
    fn round<R: Send>(&self, n: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(&|_slot| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let r = f(i);
            *pool_lock!(slot) = Some(r);
        });
        self.tasks.fetch_add(n as u64, Ordering::Relaxed);
        // No participant panicked, so the cursor was drained and every
        // slot holds its result.
        slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }
}

/// The process-wide pool, or `None` on single-core machines (rounds then
/// run inline). `NIMBLE_POOL_WORKERS` overrides the participant count
/// (useful to exercise the pool on CI hosts that report one core).
fn pool() -> Option<&'static WorkerPool> {
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

/// Pool telemetry snapshot: `(participants, rounds, tasks)`, starting
/// the pool if it has not started yet. All zeros when no pool exists
/// (single-core host).
pub fn pool_stats() -> (usize, u64, u64) {
    match pool() {
        Some(p) => (
            p.participants(),
            p.rounds.load(Ordering::Relaxed),
            p.tasks.load(Ordering::Relaxed),
        ),
        None => (0, 0, 0),
    }
}

/// The results of [`par_tasks`], in task order.
#[must_use = "tasks that run inline run only as their results are taken"]
pub struct Tasks<R, F> {
    /// The results, when the pool ran the round.
    pooled: Option<std::vec::IntoIter<R>>,
    /// The tasks left to run inline (empty when the pool ran them).
    inline: Range<usize>,
    f: F,
}

impl<R, F> Tasks<R, F> {
    /// Whether the pool ran the round (else the tasks run inline).
    pub fn pooled(&self) -> bool {
        self.pooled.is_some()
    }
}

impl<R, F: Fn(usize) -> R> Iterator for Tasks<R, F> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        match &mut self.pooled {
            Some(done) => done.next(),
            None => self.inline.next().map(|i| (self.f)(i)),
        }
    }
}

/// Run `n` independent tasks, `f(0)` … `f(n - 1)`, and yield their
/// results in task order.
///
/// A round of two or more tasks runs on the process-wide pool when one
/// exists and the caller is not itself running a pool task (a nested
/// round would wait on the round it runs in); all of it has run when
/// this returns. Otherwise the tasks run inline, in order, each as its
/// result is taken — a round of one task allocates nothing. Either way
/// a task's panic reaches the caller: a pooled round re-raises the
/// first once every participant has finished.
pub fn par_tasks<R, F>(n: usize, f: F) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_tasks_on(pool(), n, f)
}

/// [`par_tasks`] on an explicit pool (or none) — the building block
/// tests use to drive the pooled path on single-core hosts.
pub(crate) fn par_tasks_on<R, F>(pool: Option<&WorkerPool>, n: usize, f: F) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let pooled = pool
        .filter(|_| n > 1 && !IN_JOB.with(Cell::get))
        .map(|pool| pool.round(n, &f).into_iter());
    let inline = if pooled.is_some() { n..n } else { 0..n };
    Tasks { pooled, inline, f }
}

/// A small shared pool for exercising the pooled path on single-core
/// hosts (crate tests only).
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

    fn tests_par_tasks<R: Send, F: Fn(usize) -> R + Sync>(n: usize, f: F) -> Tasks<R, F> {
        par_tasks_on(Some(test_pool()), n, f)
    }

    /// The panic message a round raised, if it panicked.
    fn raised(round: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let payload = catch_unwind(round).err()?;
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
    }

    #[test]
    fn par_tasks_returns_results_in_task_order() {
        let tasks = tests_par_tasks(37, |i| i * 3);
        assert!(tasks.pooled());
        assert_eq!(
            tasks.collect::<Vec<_>>(),
            (0..37).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_tasks_reraises_a_panicked_task() {
        let got = raised(|| {
            tests_par_tasks(8, |i| assert!(i != 3, "task bug")).for_each(drop);
        });
        assert_eq!(got.as_deref(), Some("task bug"));
        // Inline, the panic reaches the caller as the task runs.
        let got = raised(|| {
            par_tasks_on(None, 2, |i| assert!(i < 1, "inline bug")).for_each(drop);
        });
        assert_eq!(got.as_deref(), Some("inline bug"));
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let _ = raised(|| {
            tests_par_tasks(50, |i| assert!(i != 0, "worker bug")).for_each(drop);
        });
        // The same pool serves the next round normally.
        let tasks = tests_par_tasks(4, |i| i);
        assert!(tasks.pooled());
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn tiny_rounds_are_right_whoever_runs_them() {
        // Rounds this short are usually closed before a worker wakes; a
        // worker that does join mid-round must still be waited for, and
        // one that wakes late must skip the round, not read its job.
        for round in 0..2_000usize {
            let got: Vec<usize> = tests_par_tasks(2, |i| round * 2 + i).collect();
            assert_eq!(got, vec![round * 2, round * 2 + 1]);
        }
    }

    #[test]
    fn par_tasks_runs_inline_below_two_tasks() {
        // One task is not worth a round: it runs inline, as every round
        // does when there is no pool.
        let before = test_pool().rounds.load(Ordering::Relaxed);
        for n in [0, 1] {
            let tasks = tests_par_tasks(n, |i| i + 7);
            assert!(!tasks.pooled());
            assert_eq!(tasks.collect::<Vec<_>>(), (7..7 + n).collect::<Vec<_>>());
        }
        let tasks = par_tasks_on(None, 3, |i| i + 7);
        assert!(!tasks.pooled());
        assert_eq!(tasks.collect::<Vec<_>>(), [7, 8, 9]);
        assert_eq!(test_pool().rounds.load(Ordering::Relaxed), before);
    }

    #[test]
    fn nested_submission_declines_instead_of_deadlocking() {
        // A task that itself submits a round gets it run inline, not a
        // deadlock: the outer round cannot finish while its participant
        // waits on `submit`.
        let got: Vec<usize> = tests_par_tasks(6, |i| {
            let inner = tests_par_tasks(4, |j| j);
            assert!(!inner.pooled(), "nested round must run inline");
            assert_eq!(inner.collect::<Vec<_>>(), [0, 1, 2, 3]);
            i * 10
        })
        .collect();
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn many_rounds_reuse_the_same_workers() {
        let before = test_pool().rounds.load(Ordering::Relaxed);
        for _ in 0..20 {
            let got: Vec<usize> = tests_par_tasks(30, |i| i).collect();
            assert_eq!(got, (0..30).collect::<Vec<_>>());
        }
        let after = test_pool().rounds.load(Ordering::Relaxed);
        assert!(after >= before + 20);
    }
}
