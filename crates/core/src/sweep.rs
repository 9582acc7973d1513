//! Sweep-level parallel compilation with cross-compilation sharing.
//!
//! HIDA's evaluation is a design-space sweep: dozens of [`Compiler`]
//! invocations — pipeline-string variants of one workload — whose wall-clock
//! sum, not any single compile, is what users wait for. This module makes the
//! whole sweep the unit of optimization:
//!
//! * [`SweepEngine`] fans [`SweepPoint`]s out over the pool
//!   ([`hida_ir_core::par::run_batch`]: the caller plus helper threads
//!   parked between batches) — the one level of the compiler that runs
//!   threads; each point compiles on the worker that picked it up. Each
//!   design point ends up with a [`Context`](hida_ir_core::Context) of its
//!   own, so the only coordination past lowering is the result slot per
//!   point — results come back in declaration order regardless of
//!   scheduling.
//! * The points are variants of each other, identical above the pass they
//!   differ in, and a run lowers each distinct pipeline prefix once: a prefix
//!   tree planned from every point's `(workload, normalized pass
//!   invocations)` holds a checkpoint wherever the set of points sharing a
//!   prefix shrinks, and a point forks the deepest checkpoint on its path and
//!   runs only its own suffix (`docs/ARCHITECTURE.md`, "The prefix tree";
//!   [`SweepOutcome::prefix`] counts what that saved). What does *not* share
//!   is the fault domain: a point with armed faults and every point whose
//!   shared prefix could not be lowered compile share-nothing, front end to
//!   emission.
//! * Each point is one attempt under one fault domain (`isolated`): a
//!   panic, a per-point deadline or the whole-run budget fails that point
//!   with a structured [`FailureReason`], and the others compile on. The
//!   pool itself catches nothing — everything a point does that can fail
//!   runs inside its `isolated` call — and a deadline is not an unwind: it
//!   is an [`IrError::Cancelled`] from the first checkpoint (a pass boundary
//!   or the start of [`Compiler::finish`]) after it passes.
//! * A [`JobBudget`] is the pool's width: as many design points compile
//!   concurrently as the thread total allows, never more than there are
//!   points.
//! * A [`SharedEstimateCache`] handed in with [`SweepEngine::with_cache`] is
//!   attached to every point. Over a persistent store, per-node QoR
//!   estimates are keyed by the node model's inputs and the device, served
//!   from what earlier processes published, and what the run evaluates is
//!   published as one segment when it ends. Without one, every point
//!   estimates as it would alone.
//!
//! Neither kind of sharing shows in the results: every point is
//! **byte-identical** to a sequential, share-nothing compile of that point
//! alone — the determinism CI enforces.

use crate::prefix::{PrefixStats, PrefixTree};
use crate::{CompilationResult, Compiler, HidaOptions, PassStatistics, Workload};
use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
use hida_estimator::store::PersistentStoreStats;
use hida_ir_core::fault::{self, CancelToken, FaultPlan, PointFaults};
use hida_ir_core::par::{default_jobs, run_batch};
use hida_ir_core::{IrError, IrResult, ParallelStats};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub use crate::report::json_escape;

/// One design point of a sweep: a workload plus the compiler configuration
/// (options and, usually, an explicit pipeline-string variant) to build it
/// with.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Short label identifying the point in reports (e.g. `"pf64-tile8"`).
    pub label: String,
    /// The workload to compile.
    pub workload: Workload,
    /// Compiler options (device, workload construction knobs).
    pub options: HidaOptions,
    /// Explicit textual pipeline overriding the options-derived flow.
    pub pipeline: Option<String>,
}

impl SweepPoint {
    /// Creates a design point compiling `workload` with `options`.
    pub fn new(label: impl Into<String>, workload: Workload, options: HidaOptions) -> Self {
        SweepPoint {
            label: label.into(),
            workload,
            options,
            pipeline: None,
        }
    }

    /// Sets an explicit pipeline-string variant (builder style).
    pub fn with_pipeline(mut self, text: impl Into<String>) -> Self {
        self.pipeline = Some(text.into());
        self
    }

    /// The compiler this point describes — its options and, when set, its
    /// explicit pipeline — with every other knob at its default.
    pub fn compiler(&self) -> Compiler {
        let compiler = Compiler::new(self.options.clone());
        match &self.pipeline {
            Some(text) => compiler.with_pipeline(text.clone()),
            None => compiler,
        }
    }

    /// The fault-isolation site of this point, as failure reports name it.
    fn site(&self) -> String {
        format!("sweep point '{}'", self.label)
    }

    /// The textual pipeline this point runs: the explicit variant, or the
    /// options-derived flow.
    pub fn pipeline_text(&self) -> String {
        self.pipeline
            .clone()
            .unwrap_or_else(|| self.options.pipeline_text())
    }
}

/// How many of a batch's design points compile concurrently. A point itself
/// compiles on one thread, so this is every thread a batch occupies.
///
/// ```
/// use hida::JobBudget;
///
/// // 8 threads over 12 points: 8 at a time.
/// assert_eq!(JobBudget::for_points(8, 12), JobBudget { pool_jobs: 8 });
/// // 8 threads over 2 points: both at once; the other 6 threads stay idle.
/// assert_eq!(JobBudget::for_points(8, 2), JobBudget { pool_jobs: 2 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBudget {
    /// Design points compiling concurrently.
    pub pool_jobs: usize,
}

impl JobBudget {
    /// The pool width for `num_points` design points under `total_jobs`
    /// threads: the smaller of the two, and never zero — a zero thread total
    /// and an empty batch both compile one point at a time on the calling
    /// thread.
    pub fn for_points(total_jobs: usize, num_points: usize) -> Self {
        JobBudget {
            pool_jobs: total_jobs.min(num_points).max(1),
        }
    }
}

/// Runs `compile` as one fault domain: `token` (its deadline) and any armed
/// `faults` are this thread's point context for the duration, and a panic
/// unwinding out of it comes back as the [`IrError::WorkerPanic`] of `site`
/// instead of crossing into the caller (an expired token is already an
/// error: `compile`'s checkpoints return it). Every point of every run —
/// `hida-opt`'s single compilation is a one-point run — goes through here.
fn isolated<T>(
    site: &str,
    token: CancelToken,
    faults: Option<PointFaults>,
    compile: impl FnOnce() -> IrResult<T>,
) -> IrResult<T> {
    let _guard = fault::install_point(token, faults);
    catch_unwind(AssertUnwindSafe(compile))
        .unwrap_or_else(|payload| Err(fault::error_from_panic(site, payload)))
}

/// Structured classification of why a design point failed, used by reports,
/// the CLI summary, and the chaos CI assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// A worker or pass panicked; the unwind was isolated.
    Panicked,
    /// A per-point deadline or the whole-run budget cancelled the point.
    TimedOut,
    /// An ordinary compilation error (verification, pass failure, ...).
    Failed,
}

impl FailureReason {
    /// Stable report name (`Panicked` / `TimedOut` / `Failed`).
    pub fn name(&self) -> &'static str {
        match self {
            FailureReason::Panicked => "Panicked",
            FailureReason::TimedOut => "TimedOut",
            FailureReason::Failed => "Failed",
        }
    }
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Maps a structured [`IrError`] onto the report-level [`FailureReason`].
pub fn classify_failure(error: &IrError) -> FailureReason {
    match error {
        IrError::WorkerPanic { .. } => FailureReason::Panicked,
        IrError::Cancelled { .. } => FailureReason::TimedOut,
        _ => FailureReason::Failed,
    }
}

/// Everything produced for one design point.
#[derive(Debug)]
pub struct SweepPointOutcome {
    /// The point's label.
    pub label: String,
    /// The textual pipeline the point ran.
    pub pipeline: String,
    /// Wall-clock seconds this point's own compilation took, front end
    /// through emission (and, for a point that forks a shared checkpoint, any
    /// wait for another point to lower it).
    pub seconds: f64,
    /// The compilation result, or the error that stopped it.
    pub result: IrResult<CompilationResult>,
    /// The per-pass statistics of a pipeline that failed, up to and including
    /// the failing pass (marked `failed`), so a report can still say where
    /// the point died. Empty when the point compiled, and when it failed
    /// before its first pass or after its last.
    pub failed_pass_statistics: Vec<PassStatistics>,
}

impl SweepPointOutcome {
    /// The structured reason the point failed, if it did.
    pub fn failure_reason(&self) -> Option<FailureReason> {
        self.result.as_ref().err().map(classify_failure)
    }
}

/// The result of one sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-point outcomes, in declaration order.
    pub points: Vec<SweepPointOutcome>,
    /// The budget the sweep ran under.
    pub budget: JobBudget,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Always `None`: there is no in-memory estimate tier to count. Kept
    /// only because `benchmark/src/run.rs:446` and `:475` (frozen) read it.
    #[doc(hidden)]
    pub shared_cache: Option<SharedCacheStats>,
    /// Traffic of the persistent estimate store (`None` unless the engine's
    /// cache was created with [`SharedEstimateCache::with_store`]): nonzero
    /// hits mean this sweep reused estimates written by an *earlier
    /// process*. Hits plus misses are the run's lookups, and every counter
    /// is the same at any thread total.
    pub persistent_cache: Option<PersistentStoreStats>,
    /// Worker/steal counters of the sweep-level pool.
    pub pool: ParallelStats,
    /// What sharing pipeline prefixes between the points saved.
    pub prefix: PrefixStats,
}

impl SweepOutcome {
    /// True when every point compiled successfully.
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(|p| p.result.is_ok())
    }

    /// Labels of the points whose compilation failed, in declaration order
    /// (the CLI's failure summary and nonzero-exit decision).
    pub fn failed_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.result.is_err())
            .map(|p| p.label.as_str())
            .collect()
    }

    /// Sum of the per-point wall-clock times (the time a sequential loop
    /// would have spent compiling).
    pub fn point_seconds_total(&self) -> f64 {
        self.points.iter().map(|p| p.seconds).sum()
    }
}

/// Runs a list of independent design points through the compiler, pooled and
/// sharing lowered pipeline prefixes between points.
///
/// ```no_run
/// use hida::{HidaOptions, PolybenchKernel, SweepEngine, SweepPoint, Workload};
///
/// let points: Vec<SweepPoint> = [4, 8, 16]
///     .iter()
///     .map(|&factor| {
///         SweepPoint::new(
///             format!("pf{factor}"),
///             Workload::Polybench(PolybenchKernel::TwoMm),
///             HidaOptions {
///                 max_parallel_factor: factor,
///                 ..HidaOptions::polybench()
///             },
///         )
///     })
///     .collect();
/// let outcome = SweepEngine::new().run(&points);
/// assert!(outcome.all_ok());
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    total_jobs: Option<usize>,
    cache: Option<Arc<SharedEstimateCache>>,
    verification: bool,
    deadline_ms: Option<u64>,
    run_budget_ms: Option<u64>,
    fault_plan: Option<FaultPlan>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Creates an engine with the default thread total (the machine's
    /// available parallelism) and no estimate cache.
    pub fn new() -> Self {
        SweepEngine {
            total_jobs: None,
            cache: None,
            verification: true,
            deadline_ms: None,
            run_budget_ms: None,
            fault_plan: None,
        }
    }

    /// Sets a per-point deadline in milliseconds (builder style). Work stops
    /// at the next cancellation checkpoint (a pass boundary, or the start of
    /// [`Compiler::finish`]) and the point reports a `TimedOut` outcome.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets a whole-run wall-clock budget in milliseconds (builder style):
    /// one deadline shared by every point of a run — a sweep, or the
    /// exploration handed this engine — chained above the per-point
    /// deadlines. Points that have not finished when it expires stop at their
    /// next checkpoint with a `TimedOut` outcome.
    pub fn with_run_budget_ms(mut self, budget_ms: u64) -> Self {
        self.run_budget_ms = Some(budget_ms);
        self
    }

    /// Arms a deterministic fault-injection plan (builder style): faults are
    /// assigned to points by seeded label shuffle — independent of job count
    /// and scheduling — and fire at named sites inside the afflicted points'
    /// compilations. Used by the chaos CI stage and `--inject-faults`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Sets the thread total (builder style): every batch runs
    /// [`JobBudget::for_points`] of it and the batch's size wide. `1` compiles
    /// the points in declaration order on the calling thread.
    pub fn with_total_jobs(mut self, total_jobs: usize) -> Self {
        self.total_jobs = Some(total_jobs.max(1));
        self
    }

    /// Attaches `cache` to every point of every run (builder style). Hand in
    /// a cache created with [`SharedEstimateCache::with_store`] to persist
    /// estimates across runs and *processes*: each run publishes what it
    /// evaluated when it ends, the next run is served it, and the outcome's
    /// [`persistent_cache`](SweepOutcome::persistent_cache) reports the
    /// store's traffic.
    pub fn with_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables or disables IR verification inside every point's compilation
    /// (builder style); maps to [`Compiler::with_verification`]. On by
    /// default — the CLI's `--no-verify` sets `false`.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.verification = enabled;
        self
    }

    /// Compiles every point. Points are independent; under a pooled budget
    /// they run concurrently, and the outcome vector is always in declaration
    /// order. Per-point failures are recorded, not propagated — one infeasible
    /// design point must not kill the other 99.
    pub fn run(&self, points: &[SweepPoint]) -> SweepOutcome {
        let start = Instant::now();
        let budget = self.budget_for(points.len());
        let run = self.start(points);
        let indices: Vec<usize> = (0..points.len()).collect();
        let (outcomes, pool) = run_batch(budget.pool_jobs, &indices, |&index| {
            self.run_point(&run, index)
        });
        // One segment per sweep, on disk before the counters are read and
        // before the caller has the outcome.
        let cache = self.cache.as_deref();
        if let Some(cache) = cache {
            cache.flush();
        }
        SweepOutcome {
            points: outcomes,
            budget,
            wall_seconds: start.elapsed().as_secs_f64(),
            persistent_cache: cache.and_then(SharedEstimateCache::persistent_stats),
            shared_cache: None,
            pool,
            prefix: run.tree.stats(),
        }
    }

    /// The budget a batch of `num_points` runs under.
    fn budget_for(&self, num_points: usize) -> JobBudget {
        JobBudget::for_points(self.total_jobs.unwrap_or_else(default_jobs), num_points)
    }

    /// Sets up what one run over `points` shares: the token carrying the
    /// whole-run budget (its clock starts here), the prefix tree of the
    /// points, and the faults the plan arms among the points. Faults go by a
    /// seeded shuffle of the *labels*, computed before any point runs —
    /// which points are afflicted is independent of job count and thread
    /// scheduling.
    fn start<'p>(&self, points: &'p [SweepPoint]) -> Run<'p> {
        let armed = self.fault_plan.as_ref().map_or_else(BTreeMap::new, |plan| {
            let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
            let assigned = plan.assign(&labels).into_iter();
            assigned
                .map(|(label, kind)| (label, plan.arm(kind)))
                .collect()
        });
        Run {
            points,
            tree: PrefixTree::plan(points, |point| self.point_compiler(point)),
            token: self
                .run_budget_ms
                .map_or_else(CancelToken::new, CancelToken::with_deadline_ms),
            armed,
        }
    }

    /// The compiler of `point` under this engine: its verification setting
    /// and the engine's estimate cache, if it has one.
    fn point_compiler(&self, point: &SweepPoint) -> Compiler {
        let compiler = point.compiler().with_verification(self.verification);
        match &self.cache {
            Some(cache) => compiler.with_shared_estimates(Arc::clone(cache)),
            None => compiler,
        }
    }

    /// Takes point `index` of the run to an outcome in one attempt: one
    /// fault domain from front end to emission — one [`isolated`] call under
    /// one cancellation token (the per-point deadline chained below the run
    /// budget) and the point's armed faults, holding all of the point's work
    /// that can fail, so panics and cancellations land as structured errors.
    /// A pipeline that fails hands its statistics to the outcome.
    fn run_point(&self, run: &Run<'_>, index: usize) -> SweepPointOutcome {
        let point = &run.points[index];
        let start = Instant::now();
        let armed = run.armed.get(&point.label);
        let token = run.token.child(self.deadline_ms);
        let mut failed_pass_statistics = Vec::new();
        let result = isolated(&point.site(), token, armed.cloned(), || {
            // The compiler the tree planned the point with; one of its own
            // for a point off the tree.
            let own;
            let compiler = match run.tree.compiler(index) {
                Some(compiler) => compiler,
                None => {
                    own = self.point_compiler(point);
                    &own
                }
            };
            // A point with armed faults is a fault domain of its own from the
            // first instruction — it neither lowers a shared checkpoint (its
            // panic or stall would be everyone's) nor starts from one (its
            // faults fire where they always did). The others share prefixes
            // through the run's tree.
            let from_tree = armed
                .is_none()
                .then(|| run.tree.lower(index, &point.workload))
                .flatten();
            let lowered = match from_tree {
                Some(lowered) => lowered,
                None => compiler.lower(point.workload.clone()),
            };
            match lowered {
                Ok(design) => compiler.finish(design),
                Err(failure) => {
                    failed_pass_statistics = failure.pass_statistics;
                    Err(failure.error)
                }
            }
        });
        SweepPointOutcome {
            label: point.label.clone(),
            pipeline: point.pipeline_text(),
            seconds: start.elapsed().as_secs_f64(),
            result,
            failed_pass_statistics,
        }
    }
}

/// What one run shares: the points, the run-level token carrying the
/// whole-run budget (every point gets a child token chaining its own
/// deadline below it), the prefix tree the points lower through, and the
/// faults armed among the points, by the label of the point they afflict.
struct Run<'p> {
    points: &'p [SweepPoint],
    token: CancelToken,
    tree: PrefixTree,
    armed: BTreeMap<String, PointFaults>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolybenchKernel;

    /// The passes a failed point's outcome reports, with their `failed` marks.
    fn passes_of(point: &SweepPointOutcome) -> Vec<(&'static str, bool)> {
        let statistics = &point.failed_pass_statistics;
        statistics.iter().map(|s| (s.pass, s.failed)).collect()
    }

    fn small_points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                SweepPoint::new(
                    format!("p{:02}", i + 1),
                    Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                    HidaOptions {
                        max_parallel_factor: 4 << i,
                        ..HidaOptions::polybench()
                    },
                )
            })
            .collect()
    }

    #[test]
    fn classify_failure_maps_structured_variants() {
        assert_eq!(
            classify_failure(&IrError::WorkerPanic {
                site: "s".into(),
                message: "m".into()
            }),
            FailureReason::Panicked
        );
        assert_eq!(
            classify_failure(&IrError::Cancelled {
                site: "s".into(),
                detail: "d".into()
            }),
            FailureReason::TimedOut
        );
        assert_eq!(
            classify_failure(&IrError::verification("bad")),
            FailureReason::Failed
        );
        assert_eq!(FailureReason::Panicked.to_string(), "Panicked");
    }

    /// The point's fault domain is the only catch outside a pass body: a
    /// panic anywhere else in the point becomes its `WorkerPanic`, and an
    /// expired token is the `Cancelled` its checkpoint returned.
    #[test]
    fn isolated_catches_panics_and_passes_cancellations_through() {
        hida_ir_core::fault::silence_expected_panics();
        let site = "sweep point 'p'";
        let panicked: IrResult<()> = isolated(site, CancelToken::new(), None, || {
            panic!("injected fault: outside any pass")
        });
        assert_eq!(
            panicked,
            Err(IrError::WorkerPanic {
                site: site.to_string(),
                message: "injected fault: outside any pass".to_string(),
            })
        );

        let expired = CancelToken::with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let cancelled = isolated(site, expired, None, || fault::checkpoint(|| "finish"));
        assert_eq!(
            cancelled,
            Err(IrError::Cancelled {
                site: "finish".to_string(),
                detail: "deadline of 0ms exceeded".to_string(),
            })
        );
        // The guard went with the call.
        assert!(fault::checkpoint(|| "after").is_ok());
    }

    #[test]
    fn injected_pass_panic_is_isolated_and_schedule_independent() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(4);
        let plan = FaultPlan::parse("seed=7,pass-panic=1").unwrap();
        let run = |jobs: usize| {
            SweepEngine::new()
                .with_total_jobs(jobs)
                .with_fault_plan(plan.clone())
                .run(&points)
        };
        let sequential = run(1);
        let parallel = run(4);
        // Which point is afflicted is a pure function of (seed, labels):
        // identical at any job count.
        assert_eq!(sequential.failed_labels(), parallel.failed_labels());
        assert_eq!(sequential.failed_labels().len(), 1);
        assert!(!sequential.all_ok());
        let failed = sequential
            .points
            .iter()
            .find(|p| p.result.is_err())
            .unwrap();
        assert_eq!(failed.failure_reason(), Some(FailureReason::Panicked));
        let error = failed.result.as_ref().unwrap_err().to_string();
        assert!(error.contains("injected"), "{error}");
        assert_eq!(passes_of(failed), [("hida-construct-dataflow", true)]);
        // The surviving points compiled, and their QoR is byte-identical to a
        // fault-free run — isolation, not contamination.
        let clean = SweepEngine::new().with_total_jobs(1).run(&points);
        assert!(clean.all_ok());
        for (chaos, baseline) in sequential.points.iter().zip(&clean.points) {
            if let (Ok(x), Ok(y)) = (&chaos.result, &baseline.result) {
                assert_eq!(x.estimate, y.estimate);
                assert_eq!(x.hls_cpp, y.hls_cpp);
                assert_eq!(
                    PassStatistics::without_micros(&x.pass_statistics),
                    PassStatistics::without_micros(&y.pass_statistics)
                );
            }
        }
        // The four points are one group — five shared passes, then their own
        // `parallelize` — and the afflicted one stays out of it: it neither
        // lowers the group's checkpoint nor starts from it.
        let shared_by_three = PrefixStats {
            passes_run: 5 + 3,
            passes_reused: 2 * 5,
            checkpoints: 1,
        };
        assert_eq!(sequential.prefix, shared_by_three);
        assert_eq!(parallel.prefix, shared_by_three);
        let shared_by_four = PrefixStats {
            passes_run: 5 + 4,
            passes_reused: 3 * 5,
            checkpoints: 1,
        };
        assert_eq!(clean.prefix, shared_by_four);
    }

    /// `construct,tiling,parallelize` has no `lower`: tiling, the second pass
    /// of the prefix all four points share, fails.
    #[test]
    fn a_failing_shared_prefix_fails_every_point_of_its_group_on_its_own() {
        let points: Vec<SweepPoint> = [2, 4, 8, 16]
            .iter()
            .map(|pf| {
                SweepPoint::new(
                    format!("pf{pf}"),
                    Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                    HidaOptions::polybench(),
                )
                .with_pipeline(format!(
                    "construct,tiling{{factor=4}},parallelize{{max-factor={pf},device=zu3eg}}"
                ))
            })
            .collect();
        for jobs in [1, 4] {
            let outcome = SweepEngine::new().with_total_jobs(jobs).run(&points);
            assert_eq!(outcome.failed_labels(), ["pf2", "pf4", "pf8", "pf16"]);
            for (point, spec) in outcome.points.iter().zip(&points) {
                // Exactly what the point reports compiled alone: stopped by
                // the pass that failed it.
                let alone = spec.compiler().compile(spec.workload.clone());
                let error = point.result.as_ref().unwrap_err();
                assert!(
                    matches!(error, IrError::PassFailed { pass, .. } if pass == "hida-tiling"),
                    "{error}"
                );
                assert_eq!(error, &alone.unwrap_err());
                assert_eq!(point.failure_reason(), Some(FailureReason::Failed));
                // ... with the statistics of the two passes it ran.
                let alone = spec.compiler().lower(spec.workload.clone()).unwrap_err();
                assert_eq!(
                    PassStatistics::without_micros(&point.failed_pass_statistics),
                    PassStatistics::without_micros(&alone.pass_statistics)
                );
                assert_eq!(
                    passes_of(point),
                    [("hida-construct-dataflow", false), ("hida-tiling", true)]
                );
            }
            // The failed checkpoint was lowered once (two passes), never
            // served, and every point then compiled share-nothing.
            let failed_once = PrefixStats {
                passes_run: 2,
                passes_reused: 0,
                checkpoints: 0,
            };
            assert_eq!(outcome.prefix, failed_once, "--jobs {jobs}");
        }
    }

    /// Two engines over one run: the first point comes with a deadline that
    /// has already passed, so the group's checkpoint — which it is the first
    /// to ask for — is cancelled at its first pass boundary.
    #[test]
    fn a_leader_cancelled_mid_prefix_does_not_fail_its_followers() {
        let points = small_points(3);
        let engine = SweepEngine::new().with_total_jobs(1);
        let run = engine.start(&points);

        let hasty = engine.clone().with_deadline_ms(0);
        let leader = hasty.run_point(&run, 0);
        assert_eq!(leader.failure_reason(), Some(FailureReason::TimedOut));
        let detail = leader.result.unwrap_err().to_string();
        assert!(detail.contains("deadline of 0ms exceeded"), "{detail}");

        for (index, point) in points.iter().enumerate().skip(1) {
            let follower = engine.run_point(&run, index);
            let result = follower.result.expect("a follower compiles on its own");
            let alone = point.compiler().compile(point.workload.clone()).unwrap();
            assert_eq!(result.hls_cpp, alone.hls_cpp);
            assert_eq!(result.estimate, alone.estimate);
            assert_eq!(
                PassStatistics::without_micros(&result.pass_statistics),
                PassStatistics::without_micros(&alone.pass_statistics)
            );
        }
        // The cancelled checkpoint is never served: nobody reused a pass.
        assert_eq!(run.tree.stats().checkpoints, 0);
        assert_eq!(run.tree.stats().passes_reused, 0);
    }

    #[test]
    fn stalled_point_hits_its_deadline_and_reports_timed_out() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(2);
        let plan = FaultPlan::parse("seed=5,stall=1,stall-ms=300").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(1)
            .with_deadline_ms(50)
            .with_fault_plan(plan)
            .run(&points);
        assert_eq!(outcome.failed_labels().len(), 1, "{:?}", outcome.points);
        let failed = outcome.points.iter().find(|p| p.result.is_err()).unwrap();
        assert_eq!(failed.failure_reason(), Some(FailureReason::TimedOut));
        let detail = failed.result.as_ref().unwrap_err().to_string();
        assert!(detail.contains("deadline"), "{detail}");
        // Cancelled at the first pass boundary past the stall.
        assert_eq!(passes_of(failed), [("hida-construct-dataflow", true)]);
    }

    /// A point whose pipeline fails hands the statistics of the passes it
    /// ran to its outcome, the failing one last and marked; a point that
    /// compiled hands none, at any job count.
    #[test]
    fn only_a_failed_pipeline_hands_its_statistics_to_the_outcome() {
        let mut points = small_points(2);
        points.push(
            SweepPoint::new(
                "no-lower",
                Workload::PolybenchSized(PolybenchKernel::TwoMm, 32),
                HidaOptions::polybench(),
            )
            .with_pipeline("construct,fusion,tiling{factor=4},parallelize{device=zu3eg}"),
        );
        for jobs in [1, 4] {
            let outcome = SweepEngine::new().with_total_jobs(jobs).run(&points);
            assert_eq!(outcome.failed_labels(), ["no-lower"], "--jobs {jobs}");
            for compiled in &outcome.points[..2] {
                assert!(compiled.result.is_ok());
                assert!(compiled.failed_pass_statistics.is_empty());
            }
            assert_eq!(
                passes_of(&outcome.points[2]),
                [
                    ("hida-construct-dataflow", false),
                    ("hida-task-fusion", false),
                    ("hida-tiling", true),
                ],
                "--jobs {jobs}"
            );
        }
    }

    #[test]
    fn the_pool_is_no_wider_than_the_batch_and_its_width_changes_no_point() {
        let points = small_points(2);
        let sequential = SweepEngine::new().with_total_jobs(1).run(&points);
        let pooled = SweepEngine::new().with_total_jobs(8).run(&points);
        assert_eq!(sequential.budget.pool_jobs, 1);
        assert_eq!(pooled.budget.pool_jobs, 2);
        for (a, b) in sequential.points.iter().zip(&pooled.points) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.hls_cpp, b.hls_cpp);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.estimate_sequential, b.estimate_sequential);
            assert_eq!(
                PassStatistics::without_micros(&a.pass_statistics),
                PassStatistics::without_micros(&b.pass_statistics)
            );
        }
    }

    #[test]
    fn for_points_handles_degenerate_budgets() {
        let sequential = JobBudget { pool_jobs: 1 };
        // Zero budget clamps to one thread.
        assert_eq!(JobBudget::for_points(0, 12), sequential);
        // One thread is always the sequential budget.
        assert_eq!(JobBudget::for_points(1, 12), sequential);
        // Budget smaller than the point count: one point per thread.
        assert_eq!(JobBudget::for_points(3, 12), JobBudget { pool_jobs: 3 });
        // More threads than points: the pool is as wide as the batch.
        assert_eq!(JobBudget::for_points(7, 3), JobBudget { pool_jobs: 3 });
        // Never zero, never over the total.
        for total in 0..10 {
            for points in 0..10 {
                let b = JobBudget::for_points(total, points);
                assert!(
                    (1..=total.max(1)).contains(&b.pool_jobs),
                    "{total}/{points}: {b:?}"
                );
            }
        }
        // An empty sweep gets the sequential budget, not an 8-wide idle lane.
        assert_eq!(JobBudget::for_points(8, 0), sequential);
    }
}
