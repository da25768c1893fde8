//! The task pool: a round of a few coarse, independent tasks — one per
//! fetch task of a fetch round: an unsharded unit, or one surviving
//! shard of a sharded one — run at once, so a round's latency tracks its
//! slowest task, not the sum.
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
//! A round goes to the pool only when it pays. Each worker measures its
//! own wake-up — the delay from a round being published to its waking,
//! on every wake, one too late to join the round included — and the
//! caller gives each task's expected cost ([`Costs`]). Run inline, a
//! round takes its tasks' total; on the pool, its largest task's plus a
//! wake-up. So a round runs on the pool when its expected total less its
//! largest task exceeds the measured wake-up, or when any task's cost or
//! the wake-up is unknown (a plan's first serve, say), and inline
//! otherwise ([`Fork`]). The wake-up priced is the median of the last
//! [`WAKES_KNOWN`] wakes, and it is known only while the last of them is
//! less than [`WAKE_TTL`] old: a round priced inline wakes no worker, so
//! only an expiry brings a measurement back.
//!
//! There is one path: where the pool does not take a round (one core,
//! one task, a round that does not pay, or a caller that is itself a
//! pool task) the same tasks run inline, in order, and a task's panic
//! reaches the caller either way.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on participants (pool workers + the submitting thread):
/// a round holds one task per source or shard, which are few.
const MAX_WORKERS: usize = 8;

/// Wakes the wake-up is the median of. Until that many were measured
/// every round of two or more is pooled, as a plan's first serve is, and
/// measures one: a single wake says little, since the first after a long
/// idle can take ten times the pool's usual.
const WAKES_KNOWN: usize = 16;

/// How long a measured wake-up is known. A round priced inline wakes no
/// worker and so measures nothing: without an expiry, a run of late
/// wakes — another process holding the other core — would price every
/// round inline for good. Once it expires the next rounds are pooled
/// until [`WAKES_KNOWN`] fresh wakes were measured.
const WAKE_TTL: Duration = Duration::from_secs(1);

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
    /// When the first round no worker has woken for since was published:
    /// a wake-up is measured from here, not from a round published while
    /// the worker was already waking.
    published: Option<Instant>,
    /// The last wakes measured, a ring of which `wakes` hold one.
    samples: [Duration; WAKES_KNOWN],
    wakes: usize,
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
    /// The workers' wake-up in nanoseconds: the median of the last
    /// [`WAKES_KNOWN`] wakes' delays from their round's publication; 0
    /// until that many were measured.
    wake_ns: AtomicU64,
    /// When the wake-up expires, in nanoseconds since `epoch`: a
    /// [`WAKE_TTL`] after the last wake was measured.
    wake_expires: AtomicU64,
    epoch: Instant,
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
                published: None,
                samples: [Duration::ZERO; WAKES_KNOWN],
                wakes: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            live: AtomicUsize::new(0),
            rounds: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            wake_ns: AtomicU64::new(0),
            wake_expires: AtomicU64::new(0),
            epoch: Instant::now(),
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

    /// Nanoseconds since the pool started.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// The workers' measured wake-up, while it is known.
    fn wake(&self) -> Option<Duration> {
        match self.wake_ns.load(Ordering::Relaxed) {
            0 => None,
            _ if self.now_ns() > self.wake_expires.load(Ordering::Relaxed) => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Note one wake's delay from its round's publication: the wake-up
    /// is the median of the last [`WAKES_KNOWN`], a wake the host
    /// scheduled late moving it no further than one more sample. Wakes
    /// from before an expiry are forgotten. Called under the pool lock,
    /// so wakes never race here.
    fn note_wake(&self, st: &mut PoolState, delay: Duration) {
        let now = self.now_ns();
        if now > self.wake_expires.load(Ordering::Relaxed) {
            st.wakes = 0;
        }
        st.samples[st.wakes % WAKES_KNOWN] = delay.max(Duration::from_nanos(1));
        st.wakes += 1;
        let median = if st.wakes >= WAKES_KNOWN {
            let mut sorted = st.samples;
            sorted.sort_unstable();
            sorted[WAKES_KNOWN / 2].as_nanos().min(u64::MAX as u128) as u64
        } else {
            0
        };
        self.wake_ns.store(median, Ordering::Relaxed);
        let ttl = WAKE_TTL.as_nanos() as u64;
        self.wake_expires.store(now.saturating_add(ttl), Ordering::Relaxed);
    }

    fn worker_loop(&'static self, slot: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = pool_lock!(self.m);
                let mut woke = false;
                loop {
                    if st.generation != seen {
                        seen = st.generation;
                        // Every wake is measured, one too late to join
                        // included: the delay is the pool's, not the
                        // round's. A worker that finds a round without
                        // having slept did not wake.
                        if let (Some(published), true) = (st.published.take(), woke) {
                            self.note_wake(&mut st, published.elapsed());
                        }
                        // A round the submitter has already closed is
                        // skipped, not joined.
                        if let Some(j) = st.job {
                            st.active += 1;
                            break j;
                        }
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    woke = true;
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
                st.published.get_or_insert_with(Instant::now);
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

/// What each task of a round is expected to cost, `None` where nobody
/// knows yet. A bare count is that many tasks of unknown cost.
pub trait Costs {
    /// How many tasks the round has.
    fn tasks(&self) -> usize;
    /// Task `i`'s expected cost.
    fn cost(&self, i: usize) -> Option<Duration>;
}

impl Costs for usize {
    fn tasks(&self) -> usize {
        *self
    }

    fn cost(&self, _: usize) -> Option<Duration> {
        None
    }
}

impl Costs for &[Option<Duration>] {
    fn tasks(&self) -> usize {
        self.len()
    }

    fn cost(&self, i: usize) -> Option<Duration> {
        self.get(i).copied().flatten()
    }
}

/// How a round ran, and what it was priced at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fork {
    /// The pool ran the round; else its tasks ran inline, in order.
    pub pooled: bool,
    /// The tasks' expected total and largest cost, when every task's was
    /// known.
    pub expected: Option<(Duration, Duration)>,
    /// The wake-up the round was priced against: `None` where no pool
    /// could take the round, or before any worker woke.
    pub wake: Option<Duration>,
}

impl Fork {
    /// Whether a round priced at `expected` pays for waking the pool:
    /// inline, it takes all of its tasks; pooled, its largest and a
    /// wake-up. Unknown is worth the pool — that is how a plan's first
    /// serve is measured.
    fn pays(expected: Option<(Duration, Duration)>, wake: Option<Duration>) -> bool {
        match (expected, wake) {
            (Some((total, largest)), Some(wake)) => total - largest > wake,
            _ => true,
        }
    }
}

/// The results of [`par_tasks`], in task order.
#[must_use = "tasks that run inline run only as their results are taken"]
pub struct Tasks<R, F> {
    /// The results, when the pool ran the round.
    pooled: Option<std::vec::IntoIter<R>>,
    /// The tasks left to run inline (empty when the pool ran them).
    inline: Range<usize>,
    fork: Fork,
    f: F,
}

impl<R, F> Tasks<R, F> {
    /// Whether the pool ran the round (else the tasks run inline).
    pub fn pooled(&self) -> bool {
        self.pooled.is_some()
    }

    /// How the round ran, and what it was priced at.
    pub fn fork(&self) -> Fork {
        self.fork
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

/// Run the round of tasks `f(0)` … `f(n - 1)` whose expected costs are
/// `costs` (`n` of them), and yield their results in task order.
///
/// A round of two or more tasks runs on the process-wide pool when one
/// exists, the caller is not itself running a pool task (a nested round
/// would wait on the round it runs in), and the round pays for a
/// wake-up ([`Fork`]): its expected total less its largest task exceeds
/// the pool's measured wake-up, or a cost or the wake-up is unknown. All
/// of a pooled round has run when this returns. Otherwise the tasks run
/// inline, in order, each as its result is taken — a round of one task
/// allocates nothing. Either way a task's panic reaches the caller: a
/// pooled round re-raises the first once every participant has finished.
pub fn par_tasks<R, F>(costs: impl Costs, f: F) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_tasks_on(pool(), costs, f)
}

/// [`par_tasks`] on an explicit pool (or none) — the building block
/// tests use to drive the pooled path on single-core hosts.
pub(crate) fn par_tasks_on<R, F>(pool: Option<&WorkerPool>, costs: impl Costs, f: F) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = costs.tasks();
    let expected = (0..n).try_fold((Duration::ZERO, Duration::ZERO), |(total, largest), i| {
        let cost = costs.cost(i)?;
        Some((total + cost, largest.max(cost)))
    });
    let pool = pool.filter(|_| n > 1 && !IN_JOB.with(Cell::get));
    let wake = pool.and_then(WorkerPool::wake);
    let pooled = pool
        .filter(|_| Fork::pays(expected, wake))
        .map(|pool| pool.round(n, &f).into_iter());
    let fork = Fork {
        pooled: pooled.is_some(),
        expected,
        wake,
    };
    let inline = if pooled.is_some() { n..n } else { 0..n };
    Tasks { pooled, inline, fork, f }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small shared pool for exercising the pooled path on single-core
    /// hosts.
    fn test_pool() -> &'static WorkerPool {
        static P: OnceLock<&'static WorkerPool> = OnceLock::new();
        P.get_or_init(|| WorkerPool::new(2))
    }

    fn tests_par_tasks<R: Send, F: Fn(usize) -> R + Sync>(costs: impl Costs, f: F) -> Tasks<R, F> {
        par_tasks_on(Some(test_pool()), costs, f)
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

    /// A pool of no worker whose wake-up is `wake_us`: no worker ever
    /// wakes to measure another, and a round it takes runs on the
    /// submitter alone.
    fn priced_pool(wake_us: u64) -> &'static WorkerPool {
        let pool = WorkerPool::new(0);
        pool.wake_ns.store(wake_us * 1_000, Ordering::Relaxed);
        pool.wake_expires.store(u64::MAX, Ordering::Relaxed);
        pool
    }

    fn us(us: u64) -> Option<Duration> {
        Some(Duration::from_micros(us))
    }

    #[test]
    fn an_unknown_cost_runs_pooled() {
        let pool = priced_pool(10);
        for costs in [[None, us(1)], [us(1), None], [None, None]] {
            let tasks = par_tasks_on(Some(pool), &costs[..], |i| i);
            assert_eq!(tasks.fork(), Fork { pooled: true, expected: None, wake: us(10) });
            assert_eq!(tasks.collect::<Vec<_>>(), [0, 1]);
        }
        // A bare count is as many unknown costs.
        assert!(par_tasks_on(Some(pool), 2, |i| i).pooled());
        // So is a wake-up no worker has measured yet.
        let unmeasured = priced_pool(0);
        let tasks = par_tasks_on(Some(unmeasured), &[us(1), us(1)][..], |i| i);
        assert_eq!(tasks.fork(), Fork { pooled: true, expected: Some((Duration::from_micros(2), Duration::from_micros(1))), wake: None });
        tasks.for_each(drop);
        assert_eq!(pool.rounds.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_round_the_wake_up_outweighs_runs_inline() {
        let pool = priced_pool(10);
        // 1 + 9 beside the largest, 50: no more than the wake-up.
        let costs = [us(1), us(50), us(9)];
        let tasks = par_tasks_on(Some(pool), &costs[..], |i| i * 3);
        assert_eq!(
            tasks.fork(),
            Fork { pooled: false, expected: Some((Duration::from_micros(60), Duration::from_micros(50))), wake: us(10) }
        );
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 3, 6]);
        // Inline, the panic reaches the caller as the task runs.
        let got = raised(move || {
            par_tasks_on(Some(pool), &costs[..], |i| assert!(i != 2, "priced bug")).for_each(drop);
        });
        assert_eq!(got.as_deref(), Some("priced bug"));
        assert_eq!(pool.rounds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_round_that_outweighs_the_wake_up_runs_pooled() {
        let pool = priced_pool(10);
        // 6 + 5 beside the largest, 50: more than the wake-up.
        let tasks = par_tasks_on(Some(pool), &[us(6), us(50), us(5)][..], |i| i * 3);
        assert!(tasks.pooled());
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 3, 6]);
        assert_eq!(pool.rounds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_nested_round_runs_inline_whatever_it_costs() {
        let outer = tests_par_tasks(2, |_| {
            let inner = tests_par_tasks(&[us(1_000_000), us(1_000_000)][..], |j| j);
            assert!(!inner.fork().pooled, "a nested round must run inline");
            inner.collect::<Vec<_>>()
        });
        assert!(outer.pooled());
        assert!(outer.flatten().eq([0, 1, 0, 1]));
    }

    #[test]
    fn a_worker_measures_its_wake_up_even_too_late_to_join() {
        let pool = WorkerPool::new(1);
        // A round of no work is closed before the worker wakes, as a
        // rule: the worker skips it, and measures its wake all the same.
        // The wake-up is known once enough wakes were measured.
        let mut rounds = 0;
        while pool.wake().is_none() && rounds < 2_000 {
            assert!(par_tasks_on(Some(pool), 2, |_| ()).pooled());
            thread::sleep(Duration::from_millis(1));
            rounds += 1;
        }
        assert!(rounds >= WAKES_KNOWN, "known after {} rounds", rounds);
        let wake = pool.wake().expect("a wake-up measured");
        let mut samples = pool_lock!(pool.m).samples;
        samples.sort_unstable();
        assert_eq!(wake, samples[WAKES_KNOWN / 2]);
    }

    #[test]
    fn an_expired_wake_up_is_unknown_and_measured_again() {
        let pool = priced_pool(10);
        assert_eq!(pool.wake(), us(10));
        pool.wake_expires.store(0, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(1));
        assert_eq!(pool.wake(), None);
        let tasks = par_tasks_on(Some(pool), &[us(1), us(1)][..], |i| i);
        assert_eq!((tasks.fork().pooled, tasks.fork().wake), (true, None));
        tasks.for_each(drop);
        // A wake after the expiry starts the count again.
        let mut st = pool_lock!(pool.m);
        st.wakes = WAKES_KNOWN;
        pool.note_wake(&mut st, Duration::from_micros(20));
        assert_eq!((st.wakes, pool.wake_ns.load(Ordering::Relaxed)), (1, 0));
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
