//! Work-stealing parallel execution of per-node pass work.
//!
//! HIDA's dataflow nodes are hierarchical and independent enough to be
//! optimized intensively per node, so the hottest passes (tiling,
//! parallelization, per-node profiling and estimation) decompose into one work
//! item per `hida.node`. This module provides the std-only machinery the
//! [`PassManager`](crate::pass::PassManager) uses to run those items on worker
//! threads:
//!
//! * [`run_batch`] — a scoped work-stealing executor: items are partitioned
//!   into contiguous per-worker queues, idle workers steal from the back of
//!   their neighbours' queues, and results come back *in item order* so the
//!   merge is deterministic regardless of thread scheduling.
//! * [`NodeScope`] — the facade a worker mutates the IR through. Workers share
//!   the [`Context`] read-only; every write is recorded as an [`AttrEdit`]
//!   against an op inside the worker's declared node subtree and applied later
//!   on the main thread by [`Context::apply_attr_edits`] with a single
//!   generation bump.
//! * [`ParallelStats`] — worker-count / steal / imbalance counters recorded
//!   into [`PassStatistics`](crate::pass::PassStatistics).
//!
//! The executor never touches the pass registry or any global state; the only
//! shared mutable state is the per-worker queues and the result slots, both
//! behind `std::sync` primitives.
//!
//! **Fault isolation.** Worker items run under `catch_unwind`: an unwinding
//! item becomes a per-item [`WorkerFault`] (carrying the panic payload
//! message) instead of aborting the scope, and the internal locks are
//! poison-tolerant, so one panicked item can neither take down the batch nor
//! wedge the queues for its siblings. [`run_batch_isolated`] surfaces the
//! per-item `Result`s; [`run_batch`] keeps the infallible signature for
//! callers whose work cannot unwind (re-raising the first fault on the
//! calling thread otherwise).

use crate::analysis::{Analysis, AnalysisManager};
use crate::attributes::Attribute;
use crate::context::Context;
use crate::error::{IrError, IrResult};
use crate::fault::{fault_from_panic, lock_recover, CancelUnwind, WorkerFault};
use crate::ids::OpId;
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

/// Counters describing one parallel batch (or, accumulated, all batches a pass
/// executed). `max_worker_items` / `min_worker_items` expose the load imbalance
/// the work-stealing had to correct.
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
/// cooperative [`CancelUnwind`]s flagged as `cancelled`) and its worker moves
/// on to the next item. The queue and slot locks recover from poison, so a
/// panicked sibling never wedges the batch.
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

/// Infallible wrapper over [`run_batch_isolated`] for work that cannot
/// unwind: returns the plain results in item order. If an item *did* fault,
/// the first fault is re-raised on the calling thread (cooperative
/// cancellations as a [`CancelUnwind`], genuine panics as a panic with the
/// original message), so the failure propagates to the caller's own
/// isolation layer instead of silently dropping items.
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], work: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, stats) = run_batch_isolated(jobs, items, work);
    let results = results
        .into_iter()
        .map(|result| match result {
            Ok(value) => value,
            Err(fault) if fault.cancelled => std::panic::panic_any(CancelUnwind {
                site: "run_batch".to_string(),
                detail: fault.message,
            }),
            Err(fault) => panic!("{}", fault.message),
        })
        .collect();
    (results, stats)
}

/// One recorded attribute write: the only mutation workers may produce.
/// Applied in batch by [`Context::apply_attr_edits`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttrEdit {
    /// The op to annotate.
    pub op: OpId,
    /// Attribute key.
    pub key: String,
    /// Attribute value.
    pub value: Attribute,
}

/// A deferred analysis installation produced by a worker thread: applied to
/// the live [`AnalysisManager`] on the main thread during the merge, so
/// results computed over a snapshot (e.g. per-node profiles) are not thrown
/// away.
pub type PublishFn = Box<dyn FnOnce(&mut AnalysisManager, &Context) + Send>;

/// The scoped [`Context`] facade a worker thread sees while processing one
/// declared root: reads go straight to the shared context, writes are recorded
/// as [`AttrEdit`]s and rejected unless they target an op inside the worker's
/// node subtree. This is what makes concurrent per-node pass work safe — two
/// workers can never race on the same op because their subtrees are disjoint
/// by construction (each declared root is processed by exactly one worker).
pub struct NodeScope<'c> {
    ctx: &'c Context,
    root: OpId,
    edits: Vec<AttrEdit>,
    published: Vec<PublishFn>,
}

impl<'c> NodeScope<'c> {
    /// Creates a scope rooted at `root` (typically one `hida.node`).
    pub fn new(ctx: &'c Context, root: OpId) -> Self {
        NodeScope {
            ctx,
            root,
            edits: Vec::new(),
            published: Vec::new(),
        }
    }

    /// The shared, read-only context.
    pub fn ctx(&self) -> &'c Context {
        self.ctx
    }

    /// The root op this scope is allowed to mutate (including everything
    /// nested below it).
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Records an attribute write on `op`.
    ///
    /// # Errors
    /// Fails when `op` is not the scope's root or nested below it — the edit
    /// would escape the worker's disjoint region.
    pub fn set_attr(
        &mut self,
        op: OpId,
        key: impl Into<String>,
        value: impl Into<Attribute>,
    ) -> IrResult<()> {
        if !self.ctx.is_ancestor(self.root, op) {
            return Err(IrError::verification(format!(
                "scoped edit on op {op} escapes the worker's node region rooted at {}",
                self.root
            )));
        }
        self.edits.push(AttrEdit {
            op,
            key: key.into(),
            value: value.into(),
        });
        Ok(())
    }

    /// Records an analysis result computed by this worker for installation
    /// into the live [`AnalysisManager`] at merge time (e.g. a per-node
    /// [`Analysis`] the snapshot did not hold yet).
    ///
    /// Published values install *before* the wave's attribute edits apply, so
    /// they must be computed from the frozen pre-merge state only. A value
    /// outlives the merge's generation bump only when the pass's
    /// [`preserved_analyses`](crate::pass::Pass::preserved_analyses)
    /// declaration covers it — publishing something the wave's own edits
    /// change is a preservation lie (caught by the debug-mode check), not a
    /// cache update.
    ///
    /// # Errors
    /// Fails when `root` lies outside the scope's node region.
    pub fn publish<A: Analysis>(&mut self, root: OpId, value: A) -> IrResult<()> {
        if !self.ctx.is_ancestor(self.root, root) {
            return Err(IrError::verification(format!(
                "published analysis for op {root} escapes the worker's node region rooted at {}",
                self.root
            )));
        }
        self.published.push(Box::new(move |analyses, ctx| {
            analyses.install(ctx, root, value)
        }));
        Ok(())
    }

    /// Number of recorded edits.
    pub fn num_edits(&self) -> usize {
        self.edits.len()
    }

    /// Consumes the scope, returning the recorded attribute edits and deferred
    /// analysis installations for the main-thread merge.
    pub fn into_parts(self) -> (Vec<AttrEdit>, Vec<PublishFn>) {
        (self.edits, self.published)
    }

    /// Consumes the scope, returning only the recorded edits (test/diagnostic
    /// helper; [`NodeScope::into_parts`] is the merge entry point).
    pub fn into_edits(self) -> Vec<AttrEdit> {
        self.edits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;

    /// The whole point of the snapshot/scope design: the shared context must
    /// be readable from worker threads, and per-worker scopes must be movable
    /// into them.
    #[test]
    fn context_and_stats_are_sync() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<Context>();
        assert_sync::<ParallelStats>();
        assert_send::<NodeScope<'_>>();
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

    #[test]
    fn node_scope_records_edits_inside_the_region_and_rejects_escapes() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let other = OpBuilder::at_end_of(&mut ctx, module).create_func("g", vec![], vec![]);
        let body = ctx.body_block(func);
        let (inner, _) = ctx.build_op(body, "test.inner", vec![], vec![], vec![]);

        let mut scope = NodeScope::new(&ctx, func);
        assert_eq!(scope.root(), func);
        scope.set_attr(func, "a", 1_i64).unwrap();
        scope.set_attr(inner, "b", "deep").unwrap();
        // A sibling function is outside the scope's region.
        let err = scope.set_attr(other, "c", 3_i64).unwrap_err();
        assert!(err.to_string().contains("escapes"));
        assert_eq!(scope.num_edits(), 2);

        let edits = scope.into_edits();
        ctx.apply_attr_edits(edits);
        assert_eq!(ctx.op(func).attr_int("a"), Some(1));
        assert_eq!(ctx.op(inner).attr_str("b"), Some("deep"));
    }

    #[test]
    fn apply_attr_edits_bumps_the_generation_once() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let before = ctx.generation();
        let edits = vec![
            AttrEdit {
                op: module,
                key: "x".into(),
                value: Attribute::Int(1),
            },
            AttrEdit {
                op: module,
                key: "y".into(),
                value: Attribute::Int(2),
            },
        ];
        ctx.apply_attr_edits(edits);
        assert_eq!(ctx.generation(), before + 1);
        assert_eq!(ctx.op(module).attr_int("x"), Some(1));
        assert_eq!(ctx.op(module).attr_int("y"), Some(2));
        // An empty merge is free.
        ctx.apply_attr_edits(Vec::new());
        assert_eq!(ctx.generation(), before + 1);
    }
}
