//! The work-stealing pool behind a sweep.
//!
//! Threads exist at exactly one level of the compiler: the design points of a
//! sweep (`hida::sweep`; an exploration is a sweep too) are compiled
//! concurrently, one work item per point. A single compilation — every pass,
//! every estimate — runs on the thread that asked for it. This module is the
//! std-only machinery of that one level:
//!
//! * [`run_batch`] — a scoped work-stealing executor: items are partitioned
//!   into contiguous per-worker queues, idle workers steal from the back of
//!   their neighbours' queues, and results come back *in item order* so what
//!   a batch returns is independent of thread scheduling.
//! * [`ParallelStats`] — the worker-count / steal / imbalance counters of a
//!   batch, reported as a sweep's `pool`.
//! * [`default_jobs`] — the pool width used when the caller names none.
//!
//! The executor never touches the pass registry or any global state; the only
//! shared mutable state is the per-worker queues and the result slots, both
//! behind `std::sync` primitives.
//!
//! **Faults.** The pool runs items; it does not isolate them. A sweep point
//! is its own fault domain (`hida::sweep::isolated` turns a panic or an
//! expired deadline into the point's error), so an item that reaches the
//! pool returns. One that panics anyway is a bug: its siblings run to the
//! end, and the panic resumes on the caller after the join.

use crate::fault::lock_recover;
use std::collections::VecDeque;
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

/// Counters describing one parallel batch. `max_worker_items` /
/// `min_worker_items` expose the load imbalance the work-stealing had to
/// correct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Number of worker threads used (1 = inline execution).
    pub workers: usize,
    /// Total work items executed.
    pub items: u64,
    /// Items a worker took from another worker's queue.
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
/// Items are partitioned into contiguous chunks, one queue per worker; a worker
/// that drains its own queue steals from the back of the fullest neighbour.
/// With `jobs <= 1` (or a single item) everything runs inline on the calling
/// thread — the bitwise-reproducibility escape hatch — but because results are
/// always collected by item index, the output is identical either way.
///
/// # Panics
/// When an item panics: inline, at once; on the pool, after every worker
/// has joined, with the payload of the first worker (by index) that
/// panicked.
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], work: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
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

    // Contiguous partition: worker w owns indices [w*chunk, ...).
    let chunk = items.len().div_ceil(workers);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let start = (w * chunk).min(items.len());
            let end = ((w + 1) * chunk).min(items.len());
            Mutex::new((start..end).collect())
        })
        .collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let steals = &steals;
            let executed = &executed;
            let work = &work;
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
                let result = work(&items[index]);
                *lock_recover(&slots[index]) = Some(result);
                executed[me].fetch_add(1, Ordering::Relaxed);
            }));
        }
        // The scope's own implicit join only waits for the closures to
        // return, not for the OS threads to exit. A batch started right
        // after this one would then spawn while these workers still hold
        // their allocator arenas, and the allocator would create new arenas
        // instead of reusing those (measured: twice the arenas and a quarter
        // more resident memory on PR 13's generational explorer, which ran
        // its batches back to back). An explicit join waits for the thread
        // itself — every one of them, before a panic resumes.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    let results: Vec<R> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every batch item produces a result")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::fault::error_from_panic;
    use crate::IrError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
    fn unbalanced_work_is_stolen() {
        // Worker 0's chunk carries all the heavy items; with enough of them the
        // other workers must steal. (Spinning on an atomic keeps the heavy items
        // genuinely slow without sleeping.)
        let items: Vec<u64> = (0..64).map(|i| if i < 32 { 200_000 } else { 1 }).collect();
        let (results, stats) = run_batch(4, &items, |&spin| {
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
}
