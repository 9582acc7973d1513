//! Sweep-level parallel compilation with cross-compilation sharing.
//!
//! HIDA's evaluation is a design-space sweep: dozens of [`Compiler`]
//! invocations — pipeline-string variants of one workload — whose wall-clock
//! sum, not any single compile, is what users wait for. This module makes the
//! whole sweep the unit of optimization:
//!
//! * [`SweepEngine`] fans [`SweepPoint`]s out over a work-stealing pool
//!   ([`hida_ir_core::par::run_batch_isolated`]) — the one level of the
//!   compiler that starts threads; each point compiles on the worker that
//!   picked it up. Each design point ends up with a
//!   [`Context`](hida_ir_core::Context) of its own, so the only coordination
//!   past lowering is the result slot per point — results come back in
//!   declaration order regardless of scheduling.
//! * The points are variants of each other, identical above the pass they
//!   differ in, and a run lowers each distinct pipeline prefix once: a prefix
//!   tree planned from every point's `(workload, normalized pass
//!   invocations)` holds a checkpoint wherever the set of points sharing a
//!   prefix shrinks, and a point forks the deepest checkpoint on its path and
//!   runs only its own suffix (`docs/ARCHITECTURE.md`, "The prefix tree";
//!   [`SweepOutcome::prefix`] counts what that saved). What does *not* share
//!   is the fault domain: a point with armed faults, every retry, and every
//!   point whose shared prefix could not be lowered compile share-nothing,
//!   front end to emission.
//! * A [`JobBudget`] is the pool's width: as many design points compile
//!   concurrently as the thread total allows, never more than there are
//!   points.
//! * A content-addressed [`SharedEstimateCache`] is handed to every point:
//!   per-node QoR estimates are keyed by the node model's inputs and the
//!   device, so the 100th ResNet-18 design point evaluates only inputs no
//!   earlier node had. The per-node model is handed exactly the hashed
//!   inputs and nothing else.
//!
//! Neither kind of sharing shows in the results: every point is
//! **byte-identical** to a sequential, share-nothing compile of that point
//! alone — the determinism CI enforces.

use crate::prefix::{PrefixStats, PrefixTree};
use crate::{CompilationResult, Compiler, HidaOptions, LoweredDesign, Workload};
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
use hida_estimator::store::PersistentStoreStats;
use hida_estimator::surrogate::DesignBound;
use hida_ir_core::fault::{self, CancelToken, FaultPlan, PointFaults, WorkerFault};
use hida_ir_core::par::{default_jobs, run_batch_isolated};
use hida_ir_core::{IrError, IrResult, ParallelStats};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

    /// The fault-isolation site of this point's attempts, as failure reports
    /// name it.
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
/// `faults` are this thread's point context for the duration, and a panic or
/// cancellation unwinding out of it comes back as the structured error for
/// `site` instead of crossing into the caller. Every sweep/explore attempt
/// runs through here, and so does `hida-opt`'s single compilation.
pub fn isolated<T>(
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
    /// The persistent estimate store degraded fatally for this point.
    StoreDegraded,
    /// An ordinary compilation error (verification, pass failure, ...).
    Failed,
}

impl FailureReason {
    /// Stable report name (`Panicked` / `TimedOut` / `StoreDegraded` /
    /// `Failed`).
    pub fn name(&self) -> &'static str {
        match self {
            FailureReason::Panicked => "Panicked",
            FailureReason::TimedOut => "TimedOut",
            FailureReason::StoreDegraded => "StoreDegraded",
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
        IrError::StoreDegraded(_) => FailureReason::StoreDegraded,
        _ => FailureReason::Failed,
    }
}

/// One failed attempt in a point's retry history.
#[derive(Debug, Clone)]
pub struct PointAttempt {
    /// Zero-based attempt index (0 = the original attempt).
    pub attempt: usize,
    /// Structured failure classification.
    pub reason: FailureReason,
    /// The rendered error.
    pub detail: String,
    /// Whether the attempt ran under the degradation ladder (retries run with
    /// verification on and the shared cache bypassed).
    pub degraded: bool,
}

impl fmt::Display for PointAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempt {}: {} ({})",
            self.attempt, self.reason, self.detail
        )?;
        if self.degraded {
            write!(f, " [degraded]")?;
        }
        Ok(())
    }
}

/// The full attempt history of a point that never converged to a clean
/// result.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Every failed attempt, in order. Never empty.
    pub attempts: Vec<PointAttempt>,
}

impl PointFailure {
    /// The final attempt's classification — what the point ultimately died of.
    pub fn reason(&self) -> FailureReason {
        self.attempts
            .last()
            .map(|a| a.reason)
            .unwrap_or(FailureReason::Failed)
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
    /// through emission and including retries. For an explored point that is
    /// its lowering plus its finish — not the wait at the barrier between the
    /// explorer's two stages.
    pub seconds: f64,
    /// The compilation result, or the (final) error that stopped it.
    pub result: IrResult<CompilationResult>,
    /// Number of attempts made (1 without retries; up to `retries + 1`).
    pub attempts: usize,
    /// The structured attempt history when the point never converged
    /// (`None` for points that compiled cleanly, possibly after retries).
    pub failure: Option<PointFailure>,
}

impl SweepPointOutcome {
    /// The structured reason the point failed, if it did.
    pub fn failure_reason(&self) -> Option<FailureReason> {
        match (&self.failure, &self.result) {
            (Some(failure), _) => Some(failure.reason()),
            (None, Err(e)) => Some(classify_failure(e)),
            (None, Ok(_)) => None,
        }
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
    /// Aggregate traffic of the cross-compilation estimate cache (`None` when
    /// sharing was disabled).
    pub shared_cache: Option<SharedCacheStats>,
    /// Traffic of the persistent estimate-store tier (`None` unless the
    /// engine's cache was created with
    /// [`SharedEstimateCache::with_store`]): nonzero hits mean this sweep
    /// reused estimates written by an *earlier process*.
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
/// (by default) sharing per-node estimates across points.
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
    share_estimates: bool,
    pub(crate) cache: Option<Arc<SharedEstimateCache>>,
    verification: bool,
    retries: usize,
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
    /// available parallelism) and estimate sharing enabled.
    pub fn new() -> Self {
        SweepEngine {
            total_jobs: None,
            share_estimates: true,
            cache: None,
            verification: true,
            retries: 0,
            deadline_ms: None,
            run_budget_ms: None,
            fault_plan: None,
        }
    }

    /// Sets the retry budget per point (builder style). A failed or timed-out
    /// point re-compiles up to `retries` more times under the degradation
    /// ladder — verification forced on, shared cache bypassed — so transient
    /// faults converge to a clean result and persistent ones to a structured
    /// [`PointFailure`] carrying the full attempt history.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets a per-point deadline in milliseconds (builder style). Work stops
    /// at the next cancellation checkpoint (pass boundary or estimator node
    /// loop) and the point reports a `TimedOut` outcome.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets a whole-run wall-clock budget in milliseconds (builder style):
    /// one deadline shared by every point — of a sweep, or of all generations
    /// of an exploration handed this engine — chained above the per-point
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

    /// Enables or disables the cross-compilation estimate cache (builder
    /// style). Disabled, every point is a fully isolated compilation — the
    /// share-nothing baseline the cache's results are verified against.
    pub fn with_shared_estimates(mut self, enabled: bool) -> Self {
        self.share_estimates = enabled;
        self
    }

    /// Reuses an existing cache instead of creating a fresh one per run, so
    /// consecutive sweeps (e.g. CLI invocations in one process) keep sharing.
    /// Hand in a cache created with [`SharedEstimateCache::with_store`] to
    /// also persist estimates across *processes*: the outcome's
    /// [`persistent_cache`](SweepOutcome::persistent_cache) then reports the
    /// disk tier's traffic.
    pub fn with_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.cache = Some(cache);
        self.share_estimates = true;
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
        let armed = self.arm(points.iter());
        let indices: Vec<usize> = (0..points.len()).collect();
        let (results, pool) = run_batch_isolated(budget.pool_jobs, &indices, |&index| {
            let lowered = self.lower_point(&run, &armed, index);
            self.finish_point(&run, lowered)
        });
        // One segment per sweep, on disk before the counters are read and
        // before the caller has the outcome.
        if let Some(cache) = &run.cache {
            cache.flush();
        }
        SweepOutcome {
            points: self.collect(&run, results, points.iter()),
            budget,
            wall_seconds: start.elapsed().as_secs_f64(),
            persistent_cache: run.cache.as_ref().and_then(|c| c.persistent_stats()),
            shared_cache: run.cache.as_ref().map(|c| c.stats()),
            pool,
            prefix: run.prefix(),
        }
    }

    /// The budget a batch of `num_points` runs under.
    pub(crate) fn budget_for(&self, num_points: usize) -> JobBudget {
        JobBudget::for_points(self.total_jobs.unwrap_or_else(default_jobs), num_points)
    }

    /// Sets up what one whole run over `points` shares — a sweep, or every
    /// generation of an exploration: the estimate cache, the token carrying
    /// the whole-run budget (its clock starts here), and the prefix tree of
    /// the points' first attempts.
    pub(crate) fn start<'p>(&self, points: &'p [SweepPoint]) -> Run<'p> {
        let cache = self.share_estimates.then(|| {
            self.cache
                .clone()
                .unwrap_or_else(|| Arc::new(SharedEstimateCache::new()))
        });
        Run {
            points,
            tree: PrefixTree::plan(points, |point| {
                self.attempt_compiler(cache.as_ref(), point, false)
            }),
            cache,
            token: self
                .run_budget_ms
                .map_or_else(CancelToken::new, CancelToken::with_deadline_ms),
        }
    }

    /// The faults the plan arms among the points of one wave — a sweep, or
    /// one generation of an exploration — by the label of the point they
    /// afflict. The assignment is a seeded shuffle of the *labels*, computed
    /// once before any point runs — which points are afflicted is independent
    /// of job count and thread scheduling.
    pub(crate) fn arm<'p>(&self, wave: impl Iterator<Item = &'p SweepPoint>) -> Armed {
        self.fault_plan.as_ref().map_or_else(BTreeMap::new, |plan| {
            let labels: Vec<String> = wave.map(|p| p.label.clone()).collect();
            let assigned = plan.assign(&labels).into_iter();
            assigned
                .map(|(label, kind)| (label, plan.arm(kind)))
                .collect()
        })
    }

    /// The pool's per-point results as outcomes, in point order. Both halves
    /// isolate every attempt themselves, so a fault here means a panic
    /// escaped *between* attempts; the point takes it as its first failed
    /// attempt rather than aborting the others.
    pub(crate) fn collect<'p>(
        &self,
        run: &Run<'_>,
        results: Vec<Result<SweepPointOutcome, WorkerFault>>,
        points: impl Iterator<Item = &'p SweepPoint>,
    ) -> Vec<SweepPointOutcome> {
        results
            .into_iter()
            .zip(points)
            .map(|(result, point)| {
                result.unwrap_or_else(|fault| {
                    self.finish_point(run, LoweredPoint::escaped(point, fault))
                })
            })
            .collect()
    }

    /// Finishes points parked after their lower half, through the pool and in
    /// the order given: the second stage of an explorer generation. Returns
    /// the outcomes and the budget the stage ran under.
    pub(crate) fn finish_all(
        &self,
        run: &Run<'_>,
        lowered: Vec<LoweredPoint<'_>>,
    ) -> (Vec<SweepPointOutcome>, JobBudget) {
        let budget = self.budget_for(lowered.len());
        let points: Vec<&SweepPoint> = lowered.iter().map(|l| l.point).collect();
        // The pool lends its items out; finishing consumes the design.
        let parked: Vec<Mutex<Option<LoweredPoint<'_>>>> =
            lowered.into_iter().map(|l| Mutex::new(Some(l))).collect();
        let (results, _) = run_batch_isolated(budget.pool_jobs, &parked, |slot| {
            let lowered = fault::lock_recover(slot)
                .take()
                .expect("the pool runs every item once");
            self.finish_point(run, lowered)
        });
        (self.collect(run, results, points.into_iter()), budget)
    }

    /// The compiler of one attempt at `point`. Retries are `degraded`, the
    /// degradation ladder: verification forced on (catch IR corruption a
    /// crashed attempt may have exposed), shared cache bypassed (a poisoned
    /// or degraded cache cannot re-fail the retry).
    fn attempt_compiler(
        &self,
        cache: Option<&Arc<SharedEstimateCache>>,
        point: &SweepPoint,
        degraded: bool,
    ) -> Compiler {
        let compiler = point
            .compiler()
            .with_verification(degraded || self.verification);
        match cache {
            Some(cache) if !degraded => compiler.with_shared_estimates(Arc::clone(cache)),
            _ => compiler,
        }
    }

    /// The lower half of the first attempt at point `index` of the run: front
    /// end and pass pipeline, under the point's deadline and armed faults. A
    /// point with armed faults is a fault domain of its own from the first
    /// instruction — it neither lowers a shared checkpoint (its panic or stall
    /// would be everyone's) nor starts from one (its faults fire where they
    /// always did); the others share prefixes through the run's tree.
    pub(crate) fn lower_point<'p>(
        &self,
        run: &Run<'p>,
        armed: &Armed,
        index: usize,
    ) -> LoweredPoint<'p> {
        let point = &run.points[index];
        let start = Instant::now();
        let faults = armed.get(&point.label).cloned();
        let compiler = self.attempt_compiler(run.cache.as_ref(), point, false);
        let lowered = isolated(
            &point.site(),
            run.token.child(self.deadline_ms),
            faults.clone(),
            || {
                let shared = match faults {
                    None => run.tree.lower(index, &point.workload),
                    Some(_) => None,
                };
                match shared {
                    Some(lowered) => Ok(lowered?),
                    None => compiler.lower(point.workload.clone()),
                }
            },
        );
        LoweredPoint {
            point,
            faults,
            lowered: lowered.map(|mut design| {
                let estimator = compiler.estimator(&mut design);
                (compiler, design, estimator)
            }),
            lower_time: start.elapsed(),
        }
    }

    /// Takes a point from its lower half to an outcome: the finish half of
    /// the first attempt (final verify, both estimates, emission, on the
    /// design that attempt lowered) and, if either half failed, the retries —
    /// each a full share-nothing recompile under the degradation ladder. Every
    /// attempt runs under its own cancellation token (per-point deadline
    /// chained below the run budget) and an installed fault context inside
    /// [`isolated`] — panics, cancellations and store degradations all land as
    /// structured [`PointAttempt`]s.
    pub(crate) fn finish_point(
        &self,
        run: &Run<'_>,
        lowered: LoweredPoint<'_>,
    ) -> SweepPointOutcome {
        let LoweredPoint {
            point,
            faults,
            lowered,
            lower_time,
        } = lowered;
        let start = Instant::now();
        let site = point.site();
        let transient = self.fault_plan.as_ref().is_some_and(|p| p.transient);
        let outcome = |attempts, failure, result| SweepPointOutcome {
            label: point.label.clone(),
            pipeline: point.pipeline_text(),
            seconds: (lower_time + start.elapsed()).as_secs_f64(),
            attempts,
            failure,
            result,
        };
        let mut first_half = Some(lowered);
        let mut history: Vec<PointAttempt> = Vec::new();
        let mut last_error = None;
        let mut attempts = 0;
        for attempt in 0..=self.retries {
            attempts = attempt + 1;
            // Transient plans fire on the first attempt only (so retries
            // recover); persistent plans re-arm every attempt. The finish
            // half re-installs what the lower half had: the sites of the two
            // halves are disjoint, so each still fires once per attempt.
            let attempt_faults = faults.clone().filter(|_| attempt == 0 || !transient);
            let result = match first_half.take() {
                // The deadline clock resumes where the lower half stopped it.
                Some(lowered) => lowered.and_then(|(compiler, design, estimator)| {
                    isolated(
                        &site,
                        run.token.child_after(self.deadline_ms, lower_time),
                        attempt_faults,
                        || compiler.finish_with(design, &estimator),
                    )
                }),
                None => {
                    let compiler = self.attempt_compiler(run.cache.as_ref(), point, true);
                    isolated(
                        &site,
                        run.token.child(self.deadline_ms),
                        attempt_faults,
                        || {
                            // A retry trusts nothing of the attempt before
                            // it: its final verification walks everything.
                            let mut design = compiler.lower(point.workload.clone())?;
                            design.verified = None;
                            compiler.finish(design)
                        },
                    )
                }
            };
            match result {
                Ok(compiled) => return outcome(attempts, None, Ok(compiled)),
                Err(error) => {
                    history.push(PointAttempt {
                        attempt,
                        reason: classify_failure(&error),
                        detail: error.to_string(),
                        degraded: attempt > 0,
                    });
                    last_error = Some(error);
                    // A run-budget cancellation dooms every further attempt;
                    // stop retrying instead of burning checkpoints.
                    if run.token.is_cancelled() {
                        break;
                    }
                }
            }
        }
        let error = last_error.unwrap_or_else(|| {
            IrError::pass_failed("sweep", "point failed without an attempt record")
        });
        let failure = PointFailure { attempts: history };
        outcome(attempts, Some(failure), Err(error))
    }
}

/// What one whole run shares — a sweep, or every generation of an
/// exploration: the points, the estimate cache, the run-level token carrying
/// the whole-run budget (every attempt gets a child token chaining its own
/// deadline below it), and the prefix tree the first attempts lower through.
pub(crate) struct Run<'p> {
    points: &'p [SweepPoint],
    cache: Option<Arc<SharedEstimateCache>>,
    token: CancelToken,
    tree: PrefixTree,
}

impl Run<'_> {
    /// What sharing pipeline prefixes has saved the run so far.
    pub(crate) fn prefix(&self) -> PrefixStats {
        self.tree.stats()
    }
}

/// The faults armed among the points of one wave, by the label of the point
/// they afflict ([`SweepEngine::arm`]).
pub(crate) type Armed = BTreeMap<String, PointFaults>;

/// A point between the two halves of its first attempt: through the pass
/// pipeline (or failed in it), not yet estimated or emitted — the design's
/// estimator ([`Compiler::estimator`]) parked beside it.
pub(crate) struct LoweredPoint<'p> {
    point: &'p SweepPoint,
    faults: Option<PointFaults>,
    lowered: IrResult<(Compiler, LoweredDesign, DataflowEstimator)>,
    lower_time: Duration,
}

impl<'p> LoweredPoint<'p> {
    /// The optimistic QoR bound of the lowered design (`None` when the lower
    /// half failed), from the estimator the finish half goes on with:
    /// whatever the bound keys, profiles and estimates stays with the point
    /// and is not done again.
    pub(crate) fn bound(&self) -> Option<DesignBound> {
        let (_, design, estimator) = self.lowered.as_ref().ok()?;
        Some(estimator.bound(&design.ctx, design.schedule))
    }

    /// A point whose pool worker unwound outside any attempt: the fault
    /// stands in for its first attempt.
    pub(crate) fn escaped(point: &'p SweepPoint, fault: WorkerFault) -> Self {
        let (site, message) = (point.site(), fault.message);
        let error = if fault.cancelled {
            let detail = message;
            IrError::Cancelled { site, detail }
        } else {
            IrError::WorkerPanic { site, message }
        };
        LoweredPoint {
            point,
            faults: None,
            lowered: Err(error),
            lower_time: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PassStatistics, PolybenchKernel};

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
            classify_failure(&IrError::StoreDegraded("x".into())),
            FailureReason::StoreDegraded
        );
        assert_eq!(
            classify_failure(&IrError::verification("bad")),
            FailureReason::Failed
        );
        assert_eq!(FailureReason::Panicked.to_string(), "Panicked");
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
        let failure = failed.failure.as_ref().unwrap();
        assert_eq!(failure.attempts.len(), 1);
        assert!(failure.attempts[0].detail.contains("injected"));
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

    #[test]
    fn transient_faults_converge_under_retries() {
        hida_ir_core::fault::silence_expected_panics();
        let points = small_points(3);
        let plan = FaultPlan::parse("seed=3,pass-panic=1,transient").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(1)
            .with_verification(false)
            .with_fault_plan(plan)
            .with_retries(1)
            .run(&points);
        assert!(outcome.all_ok(), "failed: {:?}", outcome.failed_labels());
        // The degradation ladder: a retry verifies although the engine was
        // told not to, and stays off the cache the first attempts share.
        for point in &outcome.points {
            let degraded = point.attempts == 2;
            let result = point.result.as_ref().unwrap();
            for stat in &result.pass_statistics {
                assert_eq!(stat.verified, degraded, "{}: {stat}", point.label);
            }
            assert_eq!(
                result.shared_estimator_cache.is_none(),
                degraded,
                "{}",
                point.label
            );
        }
        let retried = outcome
            .points
            .iter()
            .find(|p| p.attempts == 2)
            .expect("the afflicted point must have retried");
        assert!(retried.failure.is_none());
        assert!(retried.result.is_ok());
        // The retry compiled share-nothing: only the other two went through
        // the group's checkpoint.
        assert_eq!(outcome.prefix.passes_run, 5 + 2);
        assert_eq!(outcome.prefix.passes_reused, 5);
        let alone = points
            .iter()
            .find(|p| p.label == retried.label)
            .map(|p| p.compiler().compile(p.workload.clone()).unwrap())
            .unwrap();
        let result = retried.result.as_ref().unwrap();
        assert_eq!(result.hls_cpp, alone.hls_cpp);
        assert_eq!(result.estimate, alone.estimate);
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
                // Exactly what the point reports compiled alone: one
                // attempt, stopped by the pass that failed it.
                let alone = spec.compiler().compile(spec.workload.clone());
                let error = point.result.as_ref().unwrap_err();
                assert!(
                    matches!(error, IrError::PassFailed { pass, .. } if pass == "hida-tiling"),
                    "{error}"
                );
                assert_eq!(error, &alone.unwrap_err());
                assert_eq!(point.attempts, 1);
                let attempts = &point.failure.as_ref().unwrap().attempts;
                assert_eq!(attempts.len(), 1);
                assert_eq!(attempts[0].reason, FailureReason::Failed);
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
        let unarmed = Armed::new();

        let hasty = engine.clone().with_deadline_ms(0);
        let leader = hasty.finish_point(&run, hasty.lower_point(&run, &unarmed, 0));
        assert_eq!(leader.failure_reason(), Some(FailureReason::TimedOut));
        let detail = &leader.failure.as_ref().unwrap().attempts[0].detail;
        assert!(detail.contains("deadline of 0ms exceeded"), "{detail}");

        for (index, point) in points.iter().enumerate().skip(1) {
            let follower = engine.finish_point(&run, engine.lower_point(&run, &unarmed, index));
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
        assert_eq!(run.prefix().checkpoints, 0);
        assert_eq!(run.prefix().passes_reused, 0);
    }

    /// What the explorer does to a survivor: the bound keys, profiles and
    /// estimates every node once, and the finish that follows adds no miss to
    /// the design's cache — while the shared cache sees the traffic of a
    /// plainly swept point.
    #[test]
    fn finishing_a_bounded_point_estimates_nothing_again() {
        let points = small_points(2);
        let engine = SweepEngine::new().with_total_jobs(1);
        let swept = engine.run(&points);

        let run = engine.start(&points);
        for (index, swept) in swept.points.iter().enumerate() {
            let lowered = engine.lower_point(&run, &Armed::new(), index);
            let bound = lowered.bound().expect("the point lowers");
            // Every node is estimated now, and nothing counted or published.
            let (_, _, estimator) = lowered.lowered.as_ref().unwrap();
            let bounded = estimator.cache_stats();
            assert_eq!(bounded.misses, bound.nodes as u64 + 1);
            assert_eq!(estimator.shared_cache_stats().misses, 0);

            let swept = swept.result.as_ref().unwrap();
            let finished = engine.finish_point(&run, lowered).result.unwrap();
            assert_eq!(finished.estimator_cache.misses, bounded.misses);
            assert_eq!(finished.estimate, swept.estimate);
            assert_eq!(finished.estimate_sequential, swept.estimate_sequential);
            assert_eq!(finished.hls_cpp, swept.hls_cpp);
            assert_eq!(
                finished.shared_estimator_cache,
                swept.shared_estimator_cache
            );
            assert_eq!(bound.interval_lb, finished.estimate.interval_cycles);
            assert_eq!(bound.resources, finished.estimate.resources);
        }
    }

    #[test]
    fn injected_store_read_fault_reports_store_degraded() {
        let points = small_points(2);
        let plan = FaultPlan::parse("seed=1,store-read=1").unwrap();
        let outcome = SweepEngine::new()
            .with_total_jobs(1)
            .with_fault_plan(plan)
            .run(&points);
        assert_eq!(outcome.failed_labels().len(), 1);
        let failed = outcome.points.iter().find(|p| p.result.is_err()).unwrap();
        assert_eq!(failed.failure_reason(), Some(FailureReason::StoreDegraded));
        assert!(matches!(&failed.result, Err(IrError::StoreDegraded(_))));
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
        let detail = &failed.failure.as_ref().unwrap().attempts[0].detail;
        assert!(detail.contains("deadline"), "{detail}");
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
