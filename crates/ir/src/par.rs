//! The pool behind a sweep.
//!
//! Threads exist at exactly one level of the compiler: the design points of a
//! sweep (`hida::sweep`; an exploration is a sweep too) are compiled
//! concurrently, one work item per point. A single compilation — every pass,
//! every estimate — runs on the thread that asked for it. This module is the
//! std-only machinery of that one level:
//!
//! * [`run_batch`] — a pool whose caller is one of its workers: each worker
//!   takes the next item index from one shared counter until the items run
//!   out, and writes its result into that item's slot, so results come back
//!   *in item order* and what a batch returns is independent of thread
//!   scheduling. A batch is a few dozen design points of milliseconds each;
//!   one counter balances that as well as per-worker queues with stealing
//!   did, with nothing to lock.
//! * [`ParallelStats`] — the worker-count / imbalance counters of a batch,
//!   reported as a sweep's `pool`.
//! * [`default_jobs`] — the pool width used when the caller names none.
//!
//! **Parked helpers.** The workers besides the caller are helper threads
//! that outlive the batch. The process keeps a set of them, created on first
//! use and never more than `default_jobs() − 1`; between batches each sleeps
//! on its own mailbox. A batch claims the idle ones it needs, lends each its
//! worker loop, waits until every one has reported done and parks them
//! again, so a sweep after the first starts no thread and its workers reuse
//! the allocator arenas they already hold. A batch that finds fewer idle
//! helpers than it needs — another batch holds them, it was started inside
//! an item, or it is wider than the cap — spawns scoped threads for the rest.
//! Nothing waits on another batch.
//!
//! The executor never touches the pass registry or any global state but the
//! set of parked helpers; within a batch the only shared mutable state is
//! the item counter and the result slots.
//!
//! **Faults.** The pool runs items; it does not isolate them. A sweep point
//! is its own fault domain (`hida::sweep::isolated` turns a panic or an
//! expired deadline into the point's error), so an item that reaches the
//! pool returns. One that panics anyway is a bug: its siblings run to the
//! end, and the panic resumes on the caller once every worker is done. A
//! helper catches the panic, hands its payload back and stays parked for the
//! next batch.

use crate::fault::lock_recover;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, OnceLock, PoisonError};
use std::thread::Result as ThreadResult;

/// The default worker count for `--jobs`-style knobs: the machine's available
/// parallelism, falling back to 1 when it cannot be queried. The single
/// source of the policy for the CLI, the bench binaries and any embedder.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counters describing one parallel batch. `max_worker_items` /
/// `min_worker_items` expose how unevenly the items fell to the workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Number of worker threads used (1 = inline execution).
    pub workers: usize,
    /// Total work items executed.
    pub items: u64,
    /// Always 0: no worker takes an item from another, each takes the next
    /// from the shared counter. Kept because the benchmark harness, whose
    /// report format stays fixed, still reads it (`benchmark/src/run.rs`,
    /// `benchmark/src/layers.rs`).
    pub steals: u64,
    /// Items executed by the busiest worker.
    pub max_worker_items: u64,
    /// Items executed by the idlest worker.
    pub min_worker_items: u64,
}

impl ParallelStats {
    /// Difference between the busiest and idlest worker: 0 means perfectly
    /// balanced execution.
    pub fn imbalance(&self) -> u64 {
        self.max_worker_items.saturating_sub(self.min_worker_items)
    }
}

impl std::fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers / {} items / {} steals / imbalance {}",
            self.workers,
            self.items,
            self.steals,
            self.imbalance()
        )
    }
}

/// Runs `work` over every item of `items` on up to `jobs` workers, returning
/// the results **in item order** plus the batch's execution counters.
///
/// Each worker takes the next unclaimed item index from one shared counter
/// until none is left; the calling thread is worker 0, parked helpers (or,
/// when too few are idle, scoped threads) are the others. With `jobs <= 1`
/// (or a single item) everything runs inline on the calling thread — the
/// bitwise-reproducibility escape hatch — but because results are always
/// collected by item index, the output is identical either way.
///
/// # Panics
/// When an item panics: inline, at once; on the pool, after every worker
/// has finished, with the payload of the first worker (by index, the
/// caller first) that panicked.
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], work: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    POOL.run_batch(jobs, items, work)
}

/// The process's parked helpers: at most `default_jobs() − 1`, since the
/// caller of a batch is a worker too.
static POOL: LazyLock<Pool> = LazyLock::new(|| Pool::new(default_jobs().saturating_sub(1)));

/// A batch's worker loop as lent to a helper: it returns how many items it
/// ran. The lifetime is erased; see the `SAFETY` comment in
/// [`Pool::run_batch`].
type Job = &'static (dyn Fn() -> u64 + Sync);

/// What a helper's mailbox holds.
enum Mail {
    /// Parked, or done and collected.
    Idle,
    /// Lent a job, which it is running or about to run.
    Job(Job),
    /// The job returned (its item count) or panicked (its payload).
    Done(ThreadResult<u64>),
}

/// One parked helper thread, reached through its mailbox.
struct Helper {
    mail: Mutex<Mail>,
    /// Signals a change of `mail`. At most one side waits at a time: the
    /// helper while there is no job, the batch while there is one.
    signal: Condvar,
}

impl Helper {
    /// Starts a helper thread that serves its mailbox until the process
    /// ends; `None` when the system refuses a thread.
    fn spawn() -> Option<Arc<Helper>> {
        let helper = Arc::new(Helper {
            mail: Mutex::new(Mail::Idle),
            signal: Condvar::new(),
        });
        let served = Arc::clone(&helper);
        std::thread::Builder::new()
            .spawn(move || served.serve())
            .ok()?;
        Some(helper)
    }

    fn serve(&self) {
        loop {
            // The job is not touched once it has returned or unwound.
            let outcome = catch_unwind(AssertUnwindSafe(self.next_job()));
            *lock_recover(&self.mail) = Mail::Done(outcome);
            self.signal.notify_one();
        }
    }

    /// Sleeps until a batch lends this helper a job.
    fn next_job(&self) -> Job {
        let mail = lock_recover(&self.mail);
        let wait = self.signal.wait_while(mail, |m| !matches!(m, Mail::Job(_)));
        match *wait.unwrap_or_else(PoisonError::into_inner) {
            Mail::Job(job) => job,
            _ => unreachable!("the wait ends on a job"),
        }
    }

    fn lend(&self, job: Job) {
        *lock_recover(&self.mail) = Mail::Job(job);
        self.signal.notify_one();
    }

    /// Waits until the lent job is done, and collects its outcome.
    fn collect(&self) -> ThreadResult<u64> {
        let mail = lock_recover(&self.mail);
        let wait = self
            .signal
            .wait_while(mail, |m| !matches!(m, Mail::Done(_)));
        match std::mem::replace(
            &mut *wait.unwrap_or_else(PoisonError::into_inner),
            Mail::Idle,
        ) {
            Mail::Done(outcome) => outcome,
            _ => unreachable!("the wait ends on an outcome"),
        }
    }
}

/// A set of parked helpers.
struct Pool {
    /// The most helpers this pool ever starts.
    cap: usize,
    parked: Mutex<Parked>,
}

struct Parked {
    idle: Vec<Arc<Helper>>,
    /// Helpers started so far, idle or lent.
    started: usize,
}

/// The helpers one batch has lent its job to. Dropping it waits until every
/// one of them has reported done — on the caller's panic path too — and
/// parks them again.
struct Lent<'p> {
    pool: &'p Pool,
    helpers: Vec<Arc<Helper>>,
}

impl Lent<'_> {
    /// Waits for every helper and parks it again; the outcomes of their
    /// jobs, by worker index.
    fn join(&mut self) -> Vec<ThreadResult<u64>> {
        let helpers = std::mem::take(&mut self.helpers);
        let outcomes = helpers.iter().map(|helper| helper.collect()).collect();
        lock_recover(&self.pool.parked).idle.extend(helpers);
        outcomes
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if !self.helpers.is_empty() {
            self.join();
        }
    }
}

impl Pool {
    const fn new(cap: usize) -> Pool {
        Pool {
            cap,
            parked: Mutex::new(Parked {
                idle: Vec::new(),
                started: 0,
            }),
        }
    }

    /// Lends `job` to up to `wanted` helpers: idle ones first, then new
    /// ones while the pool is below its cap.
    fn lend(&self, wanted: usize, job: Job) -> Lent<'_> {
        let mut parked = lock_recover(&self.parked);
        let keep = parked.idle.len().saturating_sub(wanted);
        let mut helpers = parked.idle.split_off(keep);
        while helpers.len() < wanted && parked.started < self.cap {
            let Some(helper) = Helper::spawn() else {
                break;
            };
            parked.started += 1;
            helpers.push(helper);
        }
        drop(parked);
        for helper in &helpers {
            helper.lend(job);
        }
        Lent {
            pool: self,
            helpers,
        }
    }

    fn run_batch<T, R, F>(&self, jobs: usize, items: &[T], work: F) -> (Vec<R>, ParallelStats)
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(&T) -> R + Sync,
    {
        let workers = jobs.min(items.len()).max(1);
        if workers == 1 {
            let results = items.iter().map(work).collect();
            let stats = ParallelStats {
                workers: 1,
                items: items.len() as u64,
                steals: 0,
                max_worker_items: items.len() as u64,
                min_worker_items: items.len() as u64,
            };
            return (results, stats);
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
        let worker = || {
            let mut executed = 0_u64;
            loop {
                // Relaxed: the counter only claims an index; the result
                // reaches the caller through its slot and the helper's
                // mailbox (or the thread's join).
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return executed;
                };
                // The counter hands each index out once: the slot is empty.
                let _ = slots[index].set(work(item));
                executed += 1;
            }
        };
        let job: &(dyn Fn() -> u64 + Sync + '_) = &worker;
        // SAFETY: only the lifetime changes. The helpers use `job` — and
        // through it `items`, `work`, `next` and `slots` — until they report
        // done, and nothing here returns or unwinds before that: `Lent::join`
        // waits for every helper on the way out, and `Lent`'s `Drop` performs
        // the same wait when the caller's own items panic. Both run inside
        // the scope below, while everything `job` borrows is still alive.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() -> u64 + Sync + '_), Job>(job) };
        let counts: Vec<u64> = std::thread::scope(|scope| {
            // The caller is worker 0 and the helpers 1..; a batch short of
            // idle helpers spawns the rest.
            let mut lent = self.lend(workers - 1, job);
            let spawned: Vec<_> = (1 + lent.helpers.len()..workers)
                .map(|_| scope.spawn(worker))
                .collect();
            let own = worker();
            let mut counts = Vec::with_capacity(workers);
            counts.push(own);
            let mut first_panic = None;
            let mut record = |outcome: ThreadResult<u64>| match outcome {
                Ok(executed) => counts.push(executed),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            };
            lent.join().into_iter().for_each(&mut record);
            // An explicit join waits for a spawned thread itself, not only
            // for its closure (the scope's implicit join): a batch started
            // right after this one would otherwise spawn while these threads
            // still hold their allocator arenas, and get fresh arenas instead
            // of reusing those. (A panic in the caller's own item leaves
            // through the scope's implicit join.)
            spawned.into_iter().for_each(|handle| record(handle.join()));
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            counts
        });

        let results: Vec<R> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every batch item produces a result")
            })
            .collect();
        let stats = ParallelStats {
            workers,
            items: items.len() as u64,
            steals: 0,
            max_worker_items: counts.iter().copied().max().unwrap_or(0),
            min_worker_items: counts.iter().copied().min().unwrap_or(0),
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::fault::error_from_panic;
    use crate::IrError;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Checkpoints hold a `Context` that every worker forking them reads.
    #[test]
    fn context_and_stats_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Context>();
        assert_sync::<ParallelStats>();
    }

    #[test]
    fn run_batch_returns_results_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let (results, stats) = run_batch(jobs, &items, |&x| x * x);
            assert_eq!(results, items.iter().map(|x| x * x).collect::<Vec<_>>());
            assert_eq!(stats.items, 100);
            assert!(stats.workers <= jobs.max(1));
            let per_worker_total = stats.max_worker_items + stats.min_worker_items;
            assert!(per_worker_total <= 2 * stats.items);
        }
    }

    #[test]
    fn run_batch_inline_mode_reports_one_worker_and_no_steals() {
        let items = vec![1, 2, 3];
        let (results, stats) = run_batch(1, &items, |&x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.imbalance(), 0);
    }

    #[test]
    fn run_batch_with_more_jobs_than_items_caps_workers() {
        let items = vec![10, 20];
        let (results, stats) = run_batch(16, &items, |&x| x / 10);
        assert_eq!(results, vec![1, 2]);
        assert!(stats.workers <= 2);
    }

    #[test]
    fn every_item_runs_once_and_no_worker_steals() {
        // Heavy items first: a worker busy with one leaves the light ones to
        // the others. (Spinning keeps the heavy items genuinely slow without
        // sleeping.)
        let items: Vec<u64> = (0..64).map(|i| if i < 32 { 200_000 } else { 1 }).collect();
        let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let jobs = 4;
        let (results, stats) = run_batch(jobs, &(0..items.len()).collect::<Vec<_>>(), |&i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            let mut acc = 0_u64;
            for step in 0..items[i] {
                acc = acc.wrapping_add(std::hint::black_box(step));
            }
            (i, acc)
        });
        assert!(runs.iter().all(|count| count.load(Ordering::Relaxed) == 1));
        let order: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..items.len()).collect::<Vec<_>>());
        assert_eq!(stats.items, 64);
        assert_eq!(stats.steals, 0);
        assert!(stats.workers <= jobs);
        assert!(stats.max_worker_items >= stats.min_worker_items);
        assert!(stats.max_worker_items <= stats.items);
    }

    #[test]
    fn run_batch_reraises_the_first_fault_on_the_caller() {
        crate::fault::silence_expected_panics();
        let items = vec![1_u64, 2, 3];
        for jobs in [1, 2] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_batch(jobs, &items, |&x| {
                    if x == 2 {
                        panic!("injected fault: re-raise me");
                    }
                    x
                })
            }));
            let payload = caught.expect_err("the fault must propagate");
            assert!(
                matches!(error_from_panic("batch", payload),
                    IrError::WorkerPanic { message, .. } if message.contains("re-raise me")),
                "--jobs {jobs}"
            );
        }
    }

    /// The thread ids of a two-item batch on `pool`, one item per worker.
    fn two_workers(pool: &Pool) -> Vec<ThreadId> {
        // Each item waits for the other, so they run on two workers.
        let meet = Barrier::new(2);
        let (ids, stats) = pool.run_batch(2, &[0, 1], |_| {
            meet.wait();
            std::thread::current().id()
        });
        assert_eq!((stats.workers, stats.imbalance()), (2, 0));
        ids
    }

    #[test]
    fn four_threads_run_batches_at_once_and_each_gets_item_order() {
        let items: Vec<u64> = (0..40).collect();
        std::thread::scope(|scope| {
            for thread in 0..4_u64 {
                let items = &items;
                scope.spawn(move || {
                    for round in 0..25 {
                        let jobs = 2 + (round + thread as usize) % 3;
                        let (results, stats) = run_batch(jobs, items, |&x| x * 100 + thread);
                        let expected: Vec<u64> = items.iter().map(|x| x * 100 + thread).collect();
                        assert_eq!(results, expected);
                        assert_eq!(stats.workers, jobs);
                    }
                });
            }
        });
        assert_eq!(POOL.cap, default_jobs() - 1);
        assert!(lock_recover(&POOL.parked).started <= POOL.cap);
    }

    #[test]
    fn a_second_batch_starts_no_thread() {
        static POOL: Pool = Pool::new(1);
        let caller = std::thread::current().id();
        let first = two_workers(&POOL);
        let second = two_workers(&POOL);
        assert!(first.contains(&caller) && second.contains(&caller));
        // Thread ids are never reused: the same one is the same thread.
        assert_eq!(
            first.iter().find(|&&id| id != caller),
            second.iter().find(|&&id| id != caller)
        );
        assert_eq!(lock_recover(&POOL.parked).started, 1);
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_helper_runs_the_next_batch() {
        static POOL: Pool = Pool::new(1);
        crate::fault::silence_expected_panics();
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let helper = Mutex::new(None);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            POOL.run_batch(2, &[0, 1], |_| {
                meet.wait();
                if std::thread::current().id() != caller {
                    *helper.lock().unwrap() = Some(std::thread::current().id());
                    panic!("injected fault: on the helper");
                }
            })
        }));
        let payload = caught.expect_err("the helper's fault must propagate");
        assert!(matches!(error_from_panic("batch", payload),
            IrError::WorkerPanic { message, .. } if message.contains("on the helper")));
        let helper = helper
            .into_inner()
            .unwrap()
            .expect("one item ran on the helper");
        assert!(two_workers(&POOL).contains(&helper));
        assert_eq!(lock_recover(&POOL.parked).started, 1);
    }

    #[test]
    fn a_caller_panic_returns_only_after_the_helpers_finish() {
        static POOL: Pool = Pool::new(1);
        crate::fault::silence_expected_panics();
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let panicking = AtomicBool::new(false);
        let written = [AtomicBool::new(false), AtomicBool::new(false)];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            POOL.run_batch(2, &[0, 1], |&i| {
                meet.wait();
                if std::thread::current().id() == caller {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("injected fault: on the caller");
                }
                // Still busy after the caller's item has begun to unwind.
                while !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                written[i].store(true, Ordering::SeqCst);
            })
        }));
        assert!(caught.is_err());
        assert!(written.iter().any(|w| w.load(Ordering::SeqCst)));
        assert_eq!(lock_recover(&POOL.parked).idle.len(), 1);
    }

    #[test]
    fn a_batch_started_inside_an_item_completes() {
        let outer: Vec<u64> = (1..=6).collect();
        let inner: Vec<u64> = (1..=10).collect();
        let (sums, _) = run_batch(2, &outer, |&x| {
            run_batch(2, &inner, |&y| x * y).0.iter().sum::<u64>()
        });
        assert_eq!(sums, outer.iter().map(|x| x * 55).collect::<Vec<_>>());
    }
}
