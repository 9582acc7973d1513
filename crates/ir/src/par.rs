//! The work-stealing pool behind a sweep or an exploration.
//!
//! Threads exist at exactly one level of the compiler: the design points of a
//! batch (`hida::sweep`, `hida::explore`) are compiled concurrently, one work
//! item per point. A single compilation — every pass, every estimate — runs
//! on the thread that asked for it. This module is the std-only machinery of
//! that one level:
//!
//! * [`run_batch_isolated`] — a scoped work-stealing executor: items are
//!   partitioned into contiguous per-worker queues, idle workers steal from
//!   the back of their neighbours' queues, and results come back *in item
//!   order* so what a batch returns is independent of thread scheduling.
//! * [`ParallelStats`] — the worker-count / steal / imbalance counters of a
//!   batch, reported as a sweep's `pool`.
//! * [`default_jobs`] — the pool width used when the caller names none.
//!
//! The executor never touches the pass registry or any global state; the only
//! shared mutable state is the per-worker queues and the result slots, both
//! behind `std::sync` primitives.
//!
//! **Fault isolation.** Items run under `catch_unwind`: an unwinding item
//! becomes a per-item [`WorkerFault`] (carrying the panic payload message)
//! instead of aborting the scope, and the internal locks are poison-tolerant,
//! so one panicked item can neither take down the batch nor wedge the queues
//! for its siblings.

use crate::fault::{fault_from_panic, lock_recover, WorkerFault};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The default worker count for `--jobs`-style knobs: the machine's available
/// parallelism, falling back to 1 when it cannot be queried. The single
/// source of the policy for the CLI, the bench binaries and any embedder.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counters describing one parallel batch (or, accumulated, all batches of a
/// run). `max_worker_items` / `min_worker_items` expose the load imbalance the
/// work-stealing had to correct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Number of worker threads used (1 = inline execution).
    pub workers: usize,
    /// Total work items executed.
    pub items: u64,
    /// Items a worker took from another worker's queue.
    pub steals: u64,
    /// Items executed by the busiest worker (summed over batches).
    pub max_worker_items: u64,
    /// Items executed by the idlest worker (summed over batches).
    pub min_worker_items: u64,
}

impl ParallelStats {
    /// Difference between the busiest and idlest worker: 0 means perfectly
    /// balanced execution.
    pub fn imbalance(&self) -> u64 {
        self.max_worker_items.saturating_sub(self.min_worker_items)
    }

    /// Folds another batch's counters into `self` (workers: maximum; items,
    /// steals and per-worker extremes: summed).
    pub fn accumulate(&mut self, other: &ParallelStats) {
        self.workers = self.workers.max(other.workers);
        self.items += other.items;
        self.steals += other.steals;
        self.max_worker_items += other.max_worker_items;
        self.min_worker_items += other.min_worker_items;
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
/// per-item `Result`s **in item order** plus the batch's execution counters.
///
/// Items are partitioned into contiguous chunks, one queue per worker; a worker
/// that drains its own queue steals from the back of the fullest neighbour.
/// With `jobs <= 1` (or a single item) everything runs inline on the calling
/// thread — the bitwise-reproducibility escape hatch — but because results are
/// always collected by item index, the output is identical either way.
///
/// Every item runs under `catch_unwind`: an unwinding item yields
/// `Err(WorkerFault)` in its slot (panic payload message preserved,
/// cooperative [cancellation unwinds](crate::fault::CancelUnwind) flagged as
/// `cancelled`) and its worker moves on to the next item. The queue and slot
/// locks recover from poison, so a panicked sibling never wedges the batch.
pub fn run_batch_isolated<T, R, F>(
    jobs: usize,
    items: &[T],
    work: F,
) -> (Vec<Result<R, WorkerFault>>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let isolated =
        |item: &T| catch_unwind(AssertUnwindSafe(|| work(item))).map_err(fault_from_panic);
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        let results = items.iter().map(isolated).collect();
        let stats = ParallelStats {
            workers: 1,
            items: items.len() as u64,
            steals: 0,
            max_worker_items: items.len() as u64,
            min_worker_items: items.len() as u64,
        };
        return (results, stats);
    }

    // Contiguous partition: worker w owns indices [w*chunk, ...).
    let chunk = items.len().div_ceil(workers);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let start = (w * chunk).min(items.len());
            let end = ((w + 1) * chunk).min(items.len());
            Mutex::new((start..end).collect())
        })
        .collect();
    let slots: Vec<Mutex<Option<Result<R, WorkerFault>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let steals = &steals;
            let executed = &executed;
            let isolated = &isolated;
            handles.push(scope.spawn(move || loop {
                // Own queue first (front), then steal from the back of the
                // other queues; queues only ever shrink, so one full empty
                // scan means the batch is drained.
                let mut next = lock_recover(&queues[me]).pop_front();
                if next.is_none() {
                    for other in (0..workers).filter(|&o| o != me) {
                        if let Some(stolen) = lock_recover(&queues[other]).pop_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            next = Some(stolen);
                            break;
                        }
                    }
                }
                let Some(index) = next else { break };
                let result = isolated(&items[index]);
                *lock_recover(&slots[index]) = Some(result);
                executed[me].fetch_add(1, Ordering::Relaxed);
            }));
        }
        // The scope's own implicit join only waits for the closures to
        // return, not for the OS threads to exit. A batch started right
        // after this one would then spawn while these workers still hold
        // their allocator arenas, and the allocator would create new arenas
        // instead of reusing those (measured: twice the arenas and a quarter
        // more resident memory on an exploration, which runs its batches
        // back to back). An explicit join waits for the thread itself.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let results: Vec<Result<R, WorkerFault>> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every batch item produces a result or a fault")
        })
        .collect();
    let counts: Vec<u64> = executed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let stats = ParallelStats {
        workers,
        items: items.len() as u64,
        steals: steals.load(Ordering::Relaxed),
        max_worker_items: counts.iter().copied().max().unwrap_or(0),
        min_worker_items: counts.iter().copied().min().unwrap_or(0),
    };
    (results, stats)
}

/// [`run_batch_isolated`] with the first fault re-raised as a panic on the
/// calling thread. Nothing in the workspace calls it; it stays because
/// `benchmark/src/run.rs:855` (frozen) times an empty batch through it.
#[doc(hidden)]
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], work: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, stats) = run_batch_isolated(jobs, items, work);
    let reraise = |fault: WorkerFault| -> R { panic!("{}", fault.message) };
    let results = results.into_iter().map(|r| r.unwrap_or_else(reraise));
    (results.collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::fault::CancelUnwind;

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
            let (results, stats) = run_batch_isolated(jobs, &items, |&x| x * x);
            let results: Vec<u64> = results.into_iter().map(Result::unwrap).collect();
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
        let (results, stats) = run_batch_isolated(1, &items, |&x| x + 1);
        assert_eq!(results, vec![Ok(2), Ok(3), Ok(4)]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.imbalance(), 0);
    }

    #[test]
    fn run_batch_with_more_jobs_than_items_caps_workers() {
        let items = vec![10, 20];
        let (results, stats) = run_batch_isolated(16, &items, |&x| x / 10);
        assert_eq!(results, vec![Ok(1), Ok(2)]);
        assert!(stats.workers <= 2);
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // Worker 0's chunk carries all the heavy items; with enough of them the
        // other workers must steal. (Spinning on an atomic keeps the heavy items
        // genuinely slow without sleeping.)
        let items: Vec<u64> = (0..64).map(|i| if i < 32 { 200_000 } else { 1 }).collect();
        let (results, stats) = run_batch_isolated(4, &items, |&spin| {
            let mut acc = 0_u64;
            for i in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert_eq!(results.len(), 64);
        assert_eq!(stats.items, 64);
        // Not asserting steals > 0 (scheduling-dependent), but the counters
        // must stay internally consistent.
        assert!(stats.max_worker_items >= stats.min_worker_items);
        assert!(stats.max_worker_items <= stats.items);
    }

    #[test]
    fn panicked_items_become_faults_and_siblings_survive() {
        crate::fault::silence_expected_panics();
        let items: Vec<u64> = (0..20).collect();
        for jobs in [1, 4] {
            let (results, stats) = run_batch_isolated(jobs, &items, |&x| {
                if x % 7 == 3 {
                    panic!("injected fault: boom at {x}");
                }
                x * 2
            });
            assert_eq!(stats.items, 20);
            for (i, result) in results.iter().enumerate() {
                let x = i as u64;
                match result {
                    Ok(v) => {
                        assert_ne!(x % 7, 3);
                        assert_eq!(*v, x * 2);
                    }
                    Err(fault) => {
                        assert_eq!(x % 7, 3);
                        assert!(fault.message.contains(&format!("boom at {x}")));
                        assert!(!fault.cancelled);
                    }
                }
            }
        }
    }

    #[test]
    fn cancel_unwinds_are_flagged_as_cancelled_faults() {
        crate::fault::silence_expected_panics();
        let items = vec![0_u64, 1];
        let (results, _) = run_batch_isolated(1, &items, |&x| {
            if x == 1 {
                std::panic::panic_any(CancelUnwind {
                    site: "test".to_string(),
                    detail: "deadline of 5ms exceeded".to_string(),
                });
            }
            x
        });
        assert!(results[0].is_ok());
        let fault = results[1].as_ref().unwrap_err();
        assert!(fault.cancelled);
        assert!(fault.message.contains("deadline of 5ms exceeded"));
    }

    #[test]
    fn run_batch_reraises_the_first_fault_on_the_caller() {
        crate::fault::silence_expected_panics();
        let items = vec![1_u64, 2, 3];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_batch(2, &items, |&x| {
                if x == 2 {
                    panic!("injected fault: re-raise me");
                }
                x
            })
        }));
        let payload = caught.expect_err("the fault must propagate");
        let fault = fault_from_panic(payload);
        assert!(fault.message.contains("re-raise me"));
    }

    #[test]
    fn parallel_stats_accumulate_and_render() {
        let mut total = ParallelStats::default();
        total.accumulate(&ParallelStats {
            workers: 4,
            items: 10,
            steals: 2,
            max_worker_items: 4,
            min_worker_items: 1,
        });
        total.accumulate(&ParallelStats {
            workers: 2,
            items: 6,
            steals: 0,
            max_worker_items: 3,
            min_worker_items: 3,
        });
        assert_eq!(total.workers, 4);
        assert_eq!(total.items, 16);
        assert_eq!(total.steals, 2);
        assert_eq!(total.imbalance(), 3);
        let rendered = total.to_string();
        assert!(rendered.contains("4 workers"));
        assert!(rendered.contains("2 steals"));
    }
}
