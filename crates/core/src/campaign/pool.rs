//! Persistent host compute pool for a campaign's round advancement.
//!
//! [`ComputePool`] is the one place host threads come from. Its budget
//! is fixed when it is built: [`super::scheduler::Campaign::new`] sizes
//! it from `host_threads`, capped at the campaign's app count (a round
//! runs at most one step task per app), and spawns `budget - 1` workers
//! once. They park on a condvar while idle and serve one consumer, the
//! campaign's per-app step tasks. A single-app session is a one-app
//! campaign, so its budget is 1 and it spawns no worker. No round ever
//! spawns a thread.
//!
//! # Scheduling model
//!
//! A [`ComputePool::run`] call publishes one *job*: `tasks` indexed
//! units plus a closure invoked as `f(task_index, worker_id)`. The task
//! indices are split into `budget` contiguous *home ranges*, range `w`
//! belonging to the participant with worker id `w`: the calling thread
//! is always worker 0 and pool thread `w` keeps id `w` for its lifetime.
//! Each participant drains its own range front to back; only when that
//! range is empty does it steal, one task at a time, from the *back* of
//! another range. A campaign publishes its runnable apps in app-index
//! order every round, so app `i` runs on the same host thread round
//! after round — its session state, traces and allocator arena stay on
//! one core — and a steal (a task run by anyone but its range's owner,
//! see `home_worker`) happens only on imbalance. Each range is one
//! packed `(lo, hi)` word updated by compare-and-swap, so the owner's
//! front pop and a thief's back pop can never hand out one index twice.
//!
//! At most `budget` threads ever execute tasks (the caller plus
//! `budget - 1` pool workers), and at most one job is live at a time:
//! the pool has one submitter, and a task must not submit to its own
//! pool. [`ComputePool::run`] panics on a second live job rather than
//! wait for a slot that the waiting task itself may be holding. A task
//! that panics does not strand its job: the panic is caught, the job
//! still completes, and `run` re-raises it on the submitter.
//!
//! # Determinism
//!
//! The pool adds no ordering of its own: tasks are independent by
//! contract (each touches disjoint state behind its own lock), and the
//! ranges decide only *which thread* runs a task, never what it
//! computes. The campaign determinism suites pin whole-campaign reports
//! across `host_threads` budgets. See `DESIGN.md` §16.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// The bounds `[lo, hi)` of worker `worker`'s home range when `tasks`
/// indices are split into `budget` contiguous ranges whose sizes differ
/// by at most one (the first `tasks % budget` ranges get the extra
/// index, so worker 0 — the caller — always has work when any exists).
fn home_bounds(tasks: usize, budget: usize, worker: usize) -> (usize, usize) {
    let (size, extra) = (tasks / budget, tasks % budget);
    let lo = worker * size + worker.min(extra);
    (lo, lo + size + usize::from(worker < extra))
}

/// The worker whose home range holds `task` in a job of `tasks` indices
/// on a pool of `budget` (the inverse of the split [`ComputePool::run`]
/// uses). A task executed by any other worker id was stolen.
pub(crate) fn home_worker(tasks: usize, budget: usize, task: usize) -> usize {
    (0..budget)
        .find(|&w| task < home_bounds(tasks, budget, w).1)
        .expect("task index below the job's task count")
}

/// One home range `[lo, hi)` packed into a single word (`lo` in the high
/// half, `hi` in the low half), so a pop from either end is one CAS.
///
/// Orderings are `Relaxed`: a claim publishes no data. The task's inputs
/// are owned by the job closure, and its results are published through
/// the job's `done` mutex, which the submitter locks before it returns.
struct HomeRange(AtomicU64);

impl HomeRange {
    fn new(lo: usize, hi: usize) -> Self {
        let lo = u32::try_from(lo).expect("pool jobs hold fewer than 2^32 tasks");
        let hi = u32::try_from(hi).expect("pool jobs hold fewer than 2^32 tasks");
        HomeRange(AtomicU64::new(Self::pack(lo, hi)))
    }

    fn pack(lo: u32, hi: u32) -> u64 {
        (u64::from(lo) << 32) | u64::from(hi)
    }

    /// The owner's claim: the lowest unclaimed index.
    fn pop_front(&self) -> Option<usize> {
        self.pop(|lo, hi| (lo, Self::pack(lo + 1, hi)))
    }

    /// A thief's claim: the highest unclaimed index.
    fn pop_back(&self) -> Option<usize> {
        self.pop(|lo, hi| (hi - 1, Self::pack(lo, hi - 1)))
    }

    /// Claims one index chosen by `take(lo, hi) -> (index, new word)` on
    /// a non-empty range; `None` once the range is empty.
    fn pop(&self, take: impl Fn(u32, u32) -> (u32, u64)) -> Option<usize> {
        let mut word = self.0.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = ((word >> 32) as u32, word as u32);
            if lo >= hi {
                return None;
            }
            let (index, next) = take(lo, hi);
            match self
                .0
                .compare_exchange_weak(word, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(index as usize),
                Err(current) => word = current,
            }
        }
    }

    fn is_empty(&self) -> bool {
        let word = self.0.load(Ordering::Relaxed);
        (word >> 32) as u32 >= word as u32
    }
}

/// One published batch of tasks: `run` is invoked as `(task, worker)`
/// for every claimed index, `ranges` are the per-worker home ranges
/// (one per budget member), and `done` records finished tasks (the
/// submitter waits on `done_cv` until all `tasks` have finished).
struct JobState {
    run: Box<dyn Fn(usize, usize) + Send + Sync>,
    tasks: usize,
    ranges: Vec<HomeRange>,
    done: Mutex<Done>,
    done_cv: Condvar,
}

/// What a job's participants report back: how many tasks finished, and
/// the payload of the first task that panicked.
#[derive(Default)]
struct Done {
    tasks: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl JobState {
    fn new(tasks: usize, budget: usize, run: Box<dyn Fn(usize, usize) + Send + Sync>) -> Self {
        JobState {
            run,
            tasks,
            ranges: (0..budget)
                .map(|w| {
                    let (lo, hi) = home_bounds(tasks, budget, w);
                    HomeRange::new(lo, hi)
                })
                .collect(),
            done: Mutex::new(Done::default()),
            done_cv: Condvar::new(),
        }
    }

    /// The next task for `worker_id`: the front of its own range, else
    /// the back of the first non-empty range after it.
    fn claim(&self, worker_id: usize) -> Option<usize> {
        let n = self.ranges.len();
        self.ranges[worker_id]
            .pop_front()
            .or_else(|| (1..n).find_map(|d| self.ranges[(worker_id + d) % n].pop_back()))
    }

    /// Claims and executes tasks until every range is empty, then
    /// reports how many this thread completed. A panicking task still
    /// counts as finished, so the submitter always wakes; it re-raises
    /// the first payload.
    fn participate(&self, worker_id: usize) {
        let mut completed = 0usize;
        let mut panic = None;
        while let Some(k) = self.claim(worker_id) {
            let task = AssertUnwindSafe(|| (self.run)(k, worker_id));
            if let Err(payload) = std::panic::catch_unwind(task) {
                panic.get_or_insert(payload);
            }
            completed += 1;
        }
        if completed > 0 {
            let mut done = self.done.lock();
            done.tasks += completed;
            if done.panic.is_none() {
                done.panic = panic;
            }
            if done.tasks == self.tasks {
                self.done_cv.notify_all();
            }
        }
    }

    /// Whether every task index has been claimed (not necessarily
    /// finished): an exhausted job has nothing left for a worker.
    fn exhausted(&self) -> bool {
        self.ranges.iter().all(HomeRange::is_empty)
    }
}

/// The live-job slot plus the shutdown latch, under one small mutex
/// (locked only to publish, look, or park — task execution never holds
/// it).
struct PoolSlot {
    job: Option<Arc<JobState>>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    slot: Mutex<PoolSlot>,
    work_ready: Condvar,
}

/// A persistent work-stealing thread pool with per-worker home ranges,
/// sized by one campaign-wide `host_threads` budget (see
/// [`crate::campaign::CampaignConfig::host_threads`]).
///
/// Created once per campaign and threaded down to every consumer as an
/// `Arc`; dropping the last handle signals shutdown and joins the
/// workers. A budget of 1 spawns
/// no threads at all — [`ComputePool::run`] then executes inline, so
/// serial configurations pay nothing.
pub struct ComputePool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
    budget: usize,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl ComputePool {
    /// Creates a pool with the given host-thread budget (≥ 1), spawning
    /// `budget - 1` long-lived workers (the submitting thread is the
    /// budget's first member).
    ///
    /// Every spawn increments the `host_threads_spawned_total` counter,
    /// so `/metrics` shows that rounds stop spawning threads after the
    /// pool is built.
    pub fn new(budget: usize) -> Arc<ComputePool> {
        assert!(budget >= 1, "a pool needs a budget of at least one thread");
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(PoolSlot {
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let spawn_counter = taopt_telemetry::global().counter("host_threads_spawned_total");
        let threads = (1..budget)
            .map(|worker_id| {
                spawn_counter.inc();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taopt-pool-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(ComputePool {
            shared,
            threads,
            budget,
        })
    }

    /// The host-thread budget (≥ 1): the maximum number of threads that
    /// ever execute tasks concurrently, counting the submitter.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Executes `f(task, worker)` for every `task in 0..tasks`,
    /// returning when all have finished. Tasks must be independent
    /// (any may run concurrently with any other, on any thread).
    ///
    /// With a budget of 1 — or a single task — this is a plain inline
    /// loop: no job slot, no locks, no allocation. Otherwise the job is
    /// published to the pool, the calling thread drains home range 0
    /// (then steals) alongside the workers, and parks until the last
    /// straggler finishes. `worker` is the executing participant's id;
    /// it differs from `home_worker(tasks, budget, task)` exactly when
    /// the task was stolen. If a task panicked, `run` panics with its
    /// payload once every task has finished.
    ///
    /// Panics if another job is live: a pool has one submitter, and a
    /// task must not call `run` on its own pool.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize, usize) + Send + Sync + 'static,
    {
        if tasks == 0 {
            return;
        }
        if self.budget <= 1 || tasks == 1 {
            for k in 0..tasks {
                f(k, 0);
            }
            return;
        }
        let job = Arc::new(JobState::new(tasks, self.budget, Box::new(f)));
        {
            let mut q = self.shared.slot.lock();
            assert!(
                q.job.is_none(),
                "ComputePool::run while another job is live: a pool has one \
                 submitter, and a task must not submit to its own pool"
            );
            q.job = Some(Arc::clone(&job));
        }
        // Wake only as many workers as could usefully help: the caller
        // claims tasks itself, so a `tasks`-unit job needs at most
        // `tasks - 1` helpers. A broadcast here would stampede the whole
        // budget through the scheduler for every small job.
        for _ in 0..(tasks - 1).min(self.budget - 1) {
            self.shared.work_ready.notify_one();
        }
        // The caller is worker 0.
        job.participate(0);
        let mut done = job.done.lock();
        while done.tasks < job.tasks {
            job.done_cv.wait(&mut done);
        }
        let panic = done.panic.take();
        drop(done);
        // Empty the slot eagerly so the job's captures (slot Arcs) are
        // not pinned until the next job.
        self.shared.slot.lock().job = None;
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.slot.lock();
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The long-lived worker body: take the live job while it has unclaimed
/// tasks, help finish it, park otherwise.
fn worker_loop(shared: &PoolShared, worker_id: usize) {
    loop {
        let job = {
            let mut q = shared.slot.lock();
            loop {
                if q.shutdown {
                    return;
                }
                match &q.job {
                    Some(job) if !job.exhausted() => break Arc::clone(job),
                    _ => shared.work_ready.wait(&mut q),
                }
            }
        };
        job.participate(worker_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn home_ranges_split_and_claim_every_index_once() {
        // Single-threaded law of the claim primitive: the owner pops its
        // range front to back, a thief pops it back to front, and across
        // every split — empty, one task, fewer tasks than workers,
        // uneven — each index is handed out exactly once.
        for budget in [1usize, 2, 3, 8] {
            for tasks in [0usize, 1, budget - 1, budget, budget + 1, 7, 97] {
                let job = JobState::new(tasks, budget, Box::new(|_, _| {}));
                let mut seen = vec![0u32; tasks];
                let mut next_lo = 0;
                for (w, range) in job.ranges.iter().enumerate() {
                    let (lo, hi) = home_bounds(tasks, budget, w);
                    assert_eq!(lo, next_lo, "ranges are contiguous");
                    assert!(hi - lo <= tasks.div_ceil(budget), "split is balanced");
                    next_lo = hi;
                    // Owner and thief alternate and meet in the middle.
                    let (mut front, mut back) = (lo, hi);
                    for step in 0.. {
                        let claimed = if step % 2 == 0 {
                            range.pop_front()
                        } else {
                            range.pop_back()
                        };
                        let Some(k) = claimed else { break };
                        if step % 2 == 0 {
                            assert_eq!(k, front, "owner pops from the front");
                            front += 1;
                        } else {
                            back -= 1;
                            assert_eq!(k, back, "thief pops from the back");
                        }
                        assert_eq!(home_worker(tasks, budget, k), w);
                        seen[k] += 1;
                    }
                    assert!(range.is_empty());
                    assert_eq!(range.pop_back(), None);
                }
                assert_eq!(next_lo, tasks, "ranges cover every index");
                assert!(job.exhausted());
                assert!(
                    seen.iter().all(|&n| n == 1),
                    "tasks={tasks} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn claim_drains_home_range_then_steals_from_the_back() {
        let job = JobState::new(10, 3, Box::new(|_, _| {}));
        // Worker 1 owns 4..7; then it steals range 2 (7..10) and range 0
        // (0..4) in that order, always taking the last index.
        let order: Vec<usize> = std::iter::from_fn(|| job.claim(1)).collect();
        assert_eq!(order, [4, 5, 6, 9, 8, 7, 3, 2, 1, 0]);
        assert_eq!(job.claim(0), None);
    }

    #[test]
    fn runs_every_task_exactly_once() {
        for budget in [1usize, 2, 3, 8] {
            let pool = ComputePool::new(budget);
            for tasks in [0usize, 1, budget - 1, budget, budget + 1, 97] {
                let hits: Arc<Vec<AtomicU64>> =
                    Arc::new((0..tasks).map(|_| AtomicU64::new(0)).collect());
                let h = Arc::clone(&hits);
                pool.run(tasks, move |k, w| {
                    assert!(w < budget, "worker id {w} outside budget {budget}");
                    h[k].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "tasks={tasks} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn budget_one_runs_inline() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.budget(), 1);
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        pool.run(10, move |k, w| {
            assert_eq!(w, 0, "inline path is the caller only");
            s.fetch_add(k as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    #[should_panic(expected = "a task must not submit to its own pool")]
    fn submission_from_a_task_panics_instead_of_deadlocking() {
        let pool = ComputePool::new(3);
        let inner = Arc::clone(&pool);
        pool.run(6, move |_, _| inner.run(5, |_, _| {}));
    }

    #[test]
    fn a_panicking_task_reaches_the_submitter_and_frees_the_pool() {
        let pool = ComputePool::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(9, |k, _| assert_ne!(k, 7, "task 7 fails"));
        }));
        let payload = caught.expect_err("the task's panic is re-raised");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("task 7 fails"), "{message}");
        // The slot was emptied, so the pool takes the next job.
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        pool.run(4, move |_, _| {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        // Other tests in this binary build pools concurrently, so the
        // process-global spawn counter is only bounded from below here;
        // the exact law is checked on this pool's own threads.
        let spawned = taopt_telemetry::global().counter("host_threads_spawned_total");
        let before = spawned.get();
        let pool = ComputePool::new(3);
        assert!(spawned.get() - before >= 2, "spawns reach the counter");
        assert_eq!(pool.threads.len(), 2, "budget 3 spawns exactly 2 workers");
        let members: HashSet<ThreadId> = pool
            .threads
            .iter()
            .map(|t| t.thread().id())
            .chain([std::thread::current().id()])
            .collect();
        let ran = Arc::new(Mutex::new(HashSet::new()));
        for _ in 0..20 {
            let flag = Arc::new(AtomicU64::new(0));
            let (f, r) = (Arc::clone(&flag), Arc::clone(&ran));
            pool.run(8, move |_, _| {
                f.fetch_add(1, Ordering::Relaxed);
                r.lock().insert(std::thread::current().id());
            });
            assert_eq!(flag.load(Ordering::Relaxed), 8);
        }
        assert!(
            ran.lock().is_subset(&members),
            "run() executed a task outside the caller and the 2 workers"
        );
    }
}
