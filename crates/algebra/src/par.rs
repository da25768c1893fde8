//! Task rounds: a few coarse, independent tasks — one per fetch task of
//! a fetch round: an unsharded unit, or one surviving shard of a sharded
//! one — run at once, so a round's latency tracks its slowest task, not
//! the sum.
//!
//! A round goes to the pool only when it pays ([`Fork`]): inline, it
//! takes its tasks' expected total ([`Costs`]); pooled, its largest task
//! plus a worker's wake-up ([`WAKE`]). So a round of two or more is
//! pooled when its total less its largest exceeds [`WAKE`], or when a
//! task's cost is unknown (a plan's first serve, say).
//!
//! The pool is `min(cores, 8) − 1` persistent workers, started by the
//! first round it could take. A pooled round publishes a job — a pass
//! over one atomic cursor of task indices — which the caller runs too; a
//! worker joins the round if it wakes while the round is open. The
//! caller closes the round once its own pass has drained the cursor and
//! waits only for the workers that joined, so a worker the scheduler
//! runs late never holds a round up. Where the pool takes no round (one
//! core, one task, a round that does not pay, or a caller that is itself
//! running a job) the same tasks run inline, in order. A task's panic
//! reaches the caller either way.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Upper bound on a round's participants (pool workers + the caller): a
/// round holds one task per source or shard, which are few.
const MAX_PARTICIPANTS: usize = 8;

/// What a pooled round pays before a worker helps: the median delay from
/// a round's publication to a parked worker's waking, with rounds
/// published every 0.75 ms as a closed loop of serves does, on a 2-core
/// VM (EXPERIMENTS.md E46).
pub const WAKE: Duration = Duration::from_micros(25);

thread_local! {
    /// True while this thread runs a job: a round it submits runs inline,
    /// since it would wait on the round it runs in.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Pooled rounds and their tasks, since the process started.
static ROUNDS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Lock `m`, poisoned or not: a participant's panic is caught and handed
/// to the caller, so nothing a lock guards is left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published job: the caller's pass with its lifetime erased. It is
/// dereferenced only by a worker that joined its round while the round
/// was open, and the caller waits for every such worker before its pass
/// goes out of scope ([`WorkerPool::round`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound; when it may be called is `Job`'s invariant above.
unsafe impl Send for Job {}

/// The round the workers may join.
#[derive(Default)]
struct Round {
    /// The job, while the round is open.
    job: Option<Job>,
    /// Round number: a worker joins each round at most once.
    generation: u64,
    /// Workers that joined the round and have not left it.
    active: usize,
    /// The first panic a worker caught in the round.
    panic: Option<Box<dyn Any + Send>>,
}

/// Persistent workers driving task rounds; they park between rounds.
pub(crate) struct WorkerPool {
    round: Mutex<Round>,
    /// Wakes the workers when a round opens.
    opened: Condvar,
    /// Wakes the caller when the last worker that joined leaves.
    left: Condvar,
    /// One round in flight at a time.
    turn: Mutex<()>,
}

impl WorkerPool {
    /// A pool of `workers` threads beside a round's caller; one that fails
    /// to spawn just leaves the pool smaller.
    fn new(workers: usize) -> &'static WorkerPool {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            round: Mutex::default(),
            opened: Condvar::new(),
            left: Condvar::new(),
            turn: Mutex::new(()),
        }));
        for slot in 1..=workers {
            let worker = thread::Builder::new().name(format!("nimble-pool-{}", slot));
            let _ = worker.spawn(move || pool.work());
        }
        pool
    }

    /// A worker's life: join each round that is still open when it wakes,
    /// run the round's job, and leave it.
    fn work(&self) {
        let mut seen = 0;
        loop {
            let job = {
                let mut r = lock(&self.round);
                loop {
                    if r.generation != seen {
                        seen = r.generation;
                        // A round the caller has already closed is skipped.
                        if let Some(job) = r.job {
                            r.active += 1;
                            break job;
                        }
                    }
                    r = self.opened.wait(r).unwrap_or_else(PoisonError::into_inner);
                }
            };
            IN_JOB.set(true);
            // SAFETY: this worker joined an open round under the lock, and
            // the caller does not leave `round` — so the job lives — until
            // every worker that joined has left below.
            let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
            IN_JOB.set(false);
            let mut r = lock(&self.round);
            if let Err(payload) = ran {
                r.panic.get_or_insert(payload);
            }
            r.active -= 1;
            if r.active == 0 {
                self.left.notify_one();
            }
        }
    }

    /// One pooled round of tasks `f(0)` … `f(n - 1)`, their results in
    /// task order. The caller runs the job too, then closes the round and
    /// waits only for the workers that joined it; the first panic — the
    /// caller's, else a worker's — is re-raised once they have left.
    fn round<R: Send>(&self, n: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let pass = || loop {
            let i = cursor.fetch_add(1, Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let r = f(i);
            *lock(slot) = Some(r);
        };
        let panic = {
            let _turn = lock(&self.turn);
            let job: *const (dyn Fn() + Sync + '_) = &pass;
            // SAFETY: the two pointer types differ only in the pointee's
            // lifetime, and `Job`'s invariant holds: the round is closed
            // and every worker that joined it has left before `pass` ends.
            let job: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(job) };
            {
                let mut r = lock(&self.round);
                r.job = Some(Job(job));
                r.generation = r.generation.wrapping_add(1);
            }
            self.opened.notify_all();
            IN_JOB.set(true);
            let mine = catch_unwind(AssertUnwindSafe(&pass));
            IN_JOB.set(false);
            let mut r = lock(&self.round);
            r.job = None;
            while r.active > 0 {
                r = self.left.wait(r).unwrap_or_else(PoisonError::into_inner);
            }
            let theirs = r.panic.take();
            mine.err().or(theirs)
        };
        ROUNDS.fetch_add(1, Relaxed);
        TASKS.fetch_add(n as u64, Relaxed);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        // No participant panicked, so the cursor was drained and every
        // slot holds its result.
        let done = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner));
        done.flatten().collect()
    }
}

/// Participants a round may use on this host: one per core, up to
/// [`MAX_PARTICIPANTS`] (1 when parallelism is unavailable).
fn participants() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_PARTICIPANTS)
}

/// The process-wide pool, or `None` on one core (rounds then run inline).
fn pool() -> Option<&'static WorkerPool> {
    static POOL: OnceLock<Option<&'static WorkerPool>> = OnceLock::new();
    *POOL.get_or_init(|| (participants() > 1).then(|| WorkerPool::new(participants() - 1)))
}

/// Round telemetry: `(participants, rounds, tasks)` — the participants a
/// pooled round may use (0 on one core, where every round runs inline),
/// and the pooled rounds and their tasks so far. Starts nothing.
pub fn pool_stats() -> (usize, u64, u64) {
    let p = participants();
    let p = if p > 1 { p } else { 0 };
    (p, ROUNDS.load(Relaxed), TASKS.load(Relaxed))
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

/// How a round ran, and what it was priced at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fork {
    /// The pool ran the round; else its tasks ran inline, in order.
    pub pooled: bool,
    /// The tasks' expected total and largest cost, when every task's was
    /// known.
    pub expected: Option<(Duration, Duration)>,
    /// A pool could take the round, which was priced against [`WAKE`]:
    /// not on one core, for one task, or for a round nested in a job.
    pub poolable: bool,
}

impl Fork {
    /// Whether a round priced at `expected` pays for a wake-up. Unknown is
    /// worth one — that is how a plan's first serve is measured.
    fn pays(expected: Option<(Duration, Duration)>) -> bool {
        expected.is_none_or(|(total, largest)| total - largest > WAKE)
    }
}

/// The results of [`par_tasks`], in task order.
#[must_use = "tasks that run inline run only as their results are taken"]
pub struct Tasks<R, F> {
    /// The results, when the pool ran the round (else empty).
    done: std::vec::IntoIter<R>,
    /// The tasks left to run inline (empty when the pool ran them).
    inline: Range<usize>,
    fork: Fork,
    f: F,
}

impl<R, F> Tasks<R, F> {
    /// How the round ran, and what it was priced at.
    pub fn fork(&self) -> Fork {
        self.fork
    }
}

impl<R, F: Fn(usize) -> R> Iterator for Tasks<R, F> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        let inline = || self.inline.next().map(|i| (self.f)(i));
        self.done.next().or_else(inline)
    }
}

/// Run the round of tasks `f(0)` … `f(n - 1)` whose expected costs are
/// `costs` (`n` of them), and yield their results in task order: all at
/// once on the pool, or inline, each as its result is taken (see the
/// module docs).
pub fn par_tasks<R, F>(costs: impl Costs, f: F) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_tasks_on(pool, costs, f)
}

/// [`par_tasks`] on the pool `pool` yields, asked for only when a pool
/// could take the round — the entry tests use to drive a pool of their
/// own on single-core hosts.
pub(crate) fn par_tasks_on<R, F>(
    pool: impl FnOnce() -> Option<&'static WorkerPool>,
    costs: impl Costs,
    f: F,
) -> Tasks<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = costs.tasks();
    let expected = (0..n).try_fold((Duration::ZERO, Duration::ZERO), |(total, largest), i| {
        let cost = costs.cost(i)?;
        Some((total + cost, largest.max(cost)))
    });
    let pool = (n > 1 && !IN_JOB.get()).then(pool).flatten();
    let done = pool
        .filter(|_| Fork::pays(expected))
        .map(|p| p.round(n, &f));
    let fork = Fork {
        pooled: done.is_some(),
        expected,
        poolable: pool.is_some(),
    };
    let inline = if fork.pooled { n..n } else { 0..n };
    Tasks {
        done: done.unwrap_or_default().into_iter(),
        inline,
        fork,
        f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Costs for &[Option<Duration>] {
        fn tasks(&self) -> usize {
            self.len()
        }

        fn cost(&self, i: usize) -> Option<Duration> {
            self.get(i).copied().flatten()
        }
    }

    /// A pool of two workers, shared by the tests: it drives the pooled
    /// path on single-core hosts too.
    fn test_pool() -> Option<&'static WorkerPool> {
        static P: OnceLock<&'static WorkerPool> = OnceLock::new();
        Some(*P.get_or_init(|| WorkerPool::new(2)))
    }

    fn no_pool() -> Option<&'static WorkerPool> {
        None
    }

    /// The panic message a round raised, if it panicked.
    fn raised(round: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let payload = catch_unwind(round).err()?;
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
    }

    fn us(us: u64) -> Option<Duration> {
        Some(Duration::from_micros(us))
    }

    #[test]
    fn par_tasks_returns_results_in_task_order() {
        let tasks = par_tasks_on(test_pool, 37, |i| i * 3);
        let pooled = Fork {
            pooled: true,
            expected: None,
            poolable: true,
        };
        assert_eq!(tasks.fork(), pooled);
        assert_eq!(
            tasks.collect::<Vec<_>>(),
            (0..37).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_tasks_reraises_a_panicked_task() {
        // Whichever participant runs the task that panics — the caller or
        // a worker — its own payload is the one re-raised.
        for bad in 0..4 {
            let got = raised(move || {
                par_tasks_on(test_pool, 4, |i| assert!(i != bad, "task {} bug", i)).for_each(drop);
            });
            assert_eq!(got, Some(format!("task {} bug", bad)));
        }
        // Inline, the panic reaches the caller as the task runs.
        let got = raised(|| {
            par_tasks_on(no_pool, 2, |i| assert!(i < 1, "inline bug")).for_each(drop);
        });
        assert_eq!(got.as_deref(), Some("inline bug"));
    }

    #[test]
    fn pool_survives_a_panicked_round() {
        let _ = raised(|| {
            par_tasks_on(test_pool, 50, |i| assert!(i != 0, "caller bug")).for_each(drop);
        });
        // The caller's mark as a job did not outlive the round: the next
        // round is pooled, and answers normally.
        assert!(!IN_JOB.get());
        let tasks = par_tasks_on(test_pool, 4, |i| i);
        assert!(tasks.fork().pooled);
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn tiny_rounds_are_right_whoever_runs_them() {
        // Rounds this short are usually closed before a worker wakes; a
        // worker that does join mid-round must still be waited for, and
        // one that wakes late must skip the round, not read its job.
        for round in 0..2_000usize {
            let got: Vec<usize> = par_tasks_on(test_pool, 2, |i| round * 2 + i).collect();
            assert_eq!(got, vec![round * 2, round * 2 + 1]);
        }
    }

    #[test]
    fn a_round_no_worker_joins_is_the_callers_alone() {
        // A pool whose workers never come: the caller's own pass drains
        // the round, and nothing waits for them.
        let idle = WorkerPool::new(0);
        let tasks = par_tasks_on(|| Some(idle), 5, |i| i + 1);
        assert!(tasks.fork().pooled);
        assert_eq!(tasks.collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn par_tasks_runs_inline_below_two_tasks() {
        // One task is not worth a round: it runs inline, without asking
        // for a pool, as every round does on one core.
        for n in [0, 1] {
            let tasks = par_tasks_on(|| unreachable!("no pool for {} tasks", n), n, |i| i + 7);
            assert_eq!((tasks.fork().pooled, tasks.fork().poolable), (false, false));
            assert_eq!(tasks.collect::<Vec<_>>(), (7..7 + n).collect::<Vec<_>>());
        }
        let tasks = par_tasks_on(no_pool, 3, |i| i + 7);
        let inline = Fork {
            pooled: false,
            expected: None,
            poolable: false,
        };
        assert_eq!(tasks.fork(), inline);
        assert_eq!(tasks.collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    fn nested_submission_declines_instead_of_deadlocking() {
        // A task that itself submits a round gets it run inline, not a
        // deadlock: the outer round cannot finish while its participant
        // waits for its turn on the pool.
        let got: Vec<usize> = par_tasks_on(test_pool, 6, |i| {
            let inner = par_tasks_on(test_pool, 4, |j| j);
            assert!(!inner.fork().pooled, "nested round must run inline");
            assert_eq!(inner.collect::<Vec<_>>(), [0, 1, 2, 3]);
            i * 10
        })
        .collect();
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn a_nested_round_runs_inline_whatever_it_costs() {
        // A task that itself submits a round gets it run inline, its costs
        // known or not: it would wait on the round it runs in.
        let id = |j: usize| j;
        let outer = par_tasks_on(test_pool, 6, |i| {
            for inner in [
                par_tasks_on(test_pool, 4, id),
                par_tasks_on(test_pool, &[us(1_000_000); 4][..], id),
            ] {
                assert!(!inner.fork().poolable, "a nested round must run inline");
                assert!(!inner.fork().pooled);
                assert_eq!(inner.collect::<Vec<_>>(), [0, 1, 2, 3]);
            }
            i * 10
        });
        assert!(outer.fork().pooled);
        assert_eq!(outer.collect::<Vec<_>>(), [0, 10, 20, 30, 40, 50]);
        // The caller's own mark is cleared once the round is over.
        assert!(!IN_JOB.get());
    }

    #[test]
    fn an_unknown_cost_runs_pooled() {
        for costs in [[None, us(1)], [us(1), None], [None, None]] {
            let tasks = par_tasks_on(test_pool, &costs[..], |i| i);
            let pooled = Fork {
                pooled: true,
                expected: None,
                poolable: true,
            };
            assert_eq!(tasks.fork(), pooled);
            assert_eq!(tasks.collect::<Vec<_>>(), [0, 1]);
        }
    }

    #[test]
    fn a_round_the_wake_up_outweighs_runs_inline() {
        // 1 + (wake - 1) beside the largest, 500: exactly a wake-up.
        let wake = WAKE.as_micros() as u64;
        let costs = [us(1), us(500), us(wake - 1)];
        let tasks = par_tasks_on(test_pool, &costs[..], |i| i * 3);
        let inline = Fork {
            pooled: false,
            expected: Some((
                WAKE + Duration::from_micros(500),
                Duration::from_micros(500),
            )),
            poolable: true,
        };
        assert_eq!(tasks.fork(), inline);
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 3, 6]);
        // Inline, the panic reaches the caller as the task runs.
        let got = raised(move || {
            par_tasks_on(test_pool, &costs[..], |i| assert!(i != 2, "priced bug")).for_each(drop);
        });
        assert_eq!(got.as_deref(), Some("priced bug"));
    }

    #[test]
    fn a_round_that_outweighs_the_wake_up_runs_pooled() {
        // A microsecond more beside the largest than a wake-up.
        let wake = WAKE.as_micros() as u64;
        let tasks = par_tasks_on(test_pool, &[us(2), us(500), us(wake - 1)][..], |i| i * 3);
        assert!(tasks.fork().pooled);
        assert_eq!(tasks.collect::<Vec<_>>(), [0, 3, 6]);
    }

    #[test]
    fn many_rounds_reuse_the_same_workers() {
        // Every round on one pool is served by the same parked workers.
        let pool = WorkerPool::new(1);
        for _ in 0..20 {
            let got: Vec<usize> = par_tasks_on(|| Some(pool), 30, |i| i).collect();
            assert_eq!(got, (0..30).collect::<Vec<_>>());
        }
        // Task 0 waits for task 1's word: it gets it only if the one
        // worker, still there after twenty rounds, runs task 1 at once.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let tasks = par_tasks_on(
            || Some(pool),
            2,
            |i| match i {
                0 => lock(&rx).recv_timeout(Duration::from_secs(10)).is_ok(),
                _ => tx.send(()).is_ok(),
            },
        );
        assert_eq!(tasks.collect::<Vec<_>>(), [true, true]);
    }

    #[test]
    fn pool_stats_count_pooled_rounds_only() {
        let (participants, rounds, tasks) = pool_stats();
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let expected = if cores > 1 {
            cores.min(MAX_PARTICIPANTS)
        } else {
            0
        };
        assert_eq!(participants, expected);
        // An inline round counts nothing; a pooled one counts itself and
        // its tasks. Other tests' rounds may land in between, so the
        // counts only rise by at least as much.
        par_tasks_on(no_pool, 3, |i| i).for_each(drop);
        par_tasks_on(test_pool, 3, |i| i).for_each(drop);
        let (_, rounds_after, tasks_after) = pool_stats();
        assert!(rounds_after > rounds && tasks_after >= tasks + 3);
    }
}
