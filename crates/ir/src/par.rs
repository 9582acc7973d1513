//! The pool behind a sweep.
//!
//! Threads exist at exactly one level of the compiler: the design points of a
//! sweep (`hida::sweep`; an exploration is a sweep too) are compiled
//! concurrently, one work item per point. A single compilation — every pass,
//! every estimate — runs on the thread that asked for it. This module is the
//! std-only machinery of that one level:
//!
//! * [`run_batch`] — a scoped pool, the caller one of its workers: each
//!   worker takes the next item index from one shared counter until the
//!   items run out, and writes its result into that item's slot, so results
//!   come back *in item order* and what a batch returns is independent of
//!   thread scheduling. A batch is a few dozen design points of
//!   milliseconds each; one counter balances that as well as per-worker
//!   queues with stealing did, with nothing to lock.
//! * [`ParallelStats`] — the worker-count / imbalance counters of a batch,
//!   reported as a sweep's `pool`.
//! * [`default_jobs`] — the pool width used when the caller names none.
//!
//! The executor never touches the pass registry or any global state; the only
//! shared mutable state is the item counter and the result slots.
//!
//! **Faults.** The pool runs items; it does not isolate them. A sweep point
//! is its own fault domain (`hida::sweep::isolated` turns a panic or an
//! expired deadline into the point's error), so an item that reaches the
//! pool returns. One that panics anyway is a bug: its siblings run to the
//! end, and the panic resumes on the caller after the join.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// until none is left; the calling thread is one of the workers. With
/// `jobs <= 1` (or a single item) everything runs inline on the calling
/// thread — the bitwise-reproducibility escape hatch — but because results
/// are always collected by item index, the output is identical either way.
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
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let worker = || {
            let mut executed = 0_u64;
            loop {
                // Relaxed: the counter only claims an index; the result
                // reaches the caller through its slot and the join.
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return executed;
                };
                // The counter hands each index out once: the slot is empty.
                let _ = slots[index].set(work(item));
                executed += 1;
            }
        };
        // The caller is worker 0: a batch spawns one thread fewer than it
        // has workers (measured: the thread arenas that held the spawned
        // workers' allocations then peaked ~1.5 MiB lower on repeated
        // Fig. 10 sweeps).
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let own = worker();
        // The scope's own implicit join only waits for the closures to
        // return, not for the OS threads to exit. A batch started right
        // after this one would then spawn while these workers still hold
        // their allocator arenas, and the allocator would create new arenas
        // instead of reusing those (measured: twice the arenas and a quarter
        // more resident memory on a generational explorer that ran its
        // batches back to back). An explicit join waits for the thread
        // itself — every one of them, before a panic resumes. (A panic in
        // the caller's own item leaves through the scope's implicit join.)
        let mut counts = Vec::with_capacity(workers);
        counts.push(own);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(executed) => counts.push(executed),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
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
}
