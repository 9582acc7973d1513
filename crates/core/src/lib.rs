//! # hida — an end-to-end reproduction of the HIDA hierarchical dataflow HLS compiler
//!
//! HIDA (ASPLOS 2024) converts algorithmic descriptions — PyTorch models or HLS C++
//! kernels — into optimized dataflow architectures for FPGAs. This crate ties the
//! workspace together into one user-facing pipeline:
//!
//! ```text
//! front-end (model zoo / PolyBench)      hida-frontend
//!   -> Functional dataflow (dispatch/task)    hida-opt::construct, ::fusion
//!   -> Structural dataflow (schedule/node/buffer)  hida-opt::lower
//!   -> structural optimization + IA/CA parallelization  hida-opt
//!   -> QoR estimation (throughput, resources, DSP efficiency)  hida-estimator
//!   -> HLS C++ emission  hida-emitter
//! ```
//!
//! # Quickstart
//!
//! ```
//! use hida::{Compiler, Workload};
//!
//! let result = Compiler::polybench_defaults()
//!     .compile(Workload::Polybench(hida::PolybenchKernel::TwoMm))
//!     .expect("compilation succeeds");
//! assert!(result.hls_cpp.contains("#pragma HLS dataflow"));
//! assert!(result.estimate.throughput() > 0.0);
//! ```
//!
//! One compilation runs on the calling thread. Many of them — the points of
//! a design-space sweep — run side by side on a [`SweepEngine`]'s pool, and
//! any pool width produces byte-identical results (see
//! `docs/ARCHITECTURE.md`).

pub mod explore;
mod prefix;
pub mod report;
pub mod sweep;

pub use hida_baselines as baselines;
pub use hida_dataflow_ir as dataflow_ir;
pub use hida_dialects as dialects;
pub use hida_emitter as emitter;
pub use hida_estimator as estimator;
pub use hida_frontend as frontend;
pub use hida_ir_core as ir;
pub use hida_opt as opt;
pub use hida_sim as sim;

pub use explore::{
    ExploreConfig, ExploreOutcome, Explorer, Frontier, FrontierPoint, GenerationStats, Objective,
};
pub use hida_estimator::device::FpgaDevice;
pub use hida_estimator::report::DesignEstimate;
pub use hida_estimator::shared_cache::{SharedCacheStats, SharedEstimateCache};
pub use hida_estimator::store::{EstimateStore, PersistentStoreStats};
pub use hida_frontend::nn::Model;
pub use hida_frontend::polybench::PolybenchKernel;
pub use hida_ir_core::analysis::{
    Analysis, AnalysisCacheStats, AnalysisManager, PreservedAnalyses,
};
pub use hida_ir_core::fault::{CancelToken, FaultKind, FaultPlan, PointFaults, WorkerFault};
pub use hida_ir_core::pass::{PassOption, PassStatistics, PipelineState, Verified};
pub use hida_ir_core::registry::{PassRegistry, PipelineError};
pub use hida_ir_core::PassInvocation;
pub use hida_opt::{registry, registry_listing, Checkpoint, HidaOptions, ParallelMode, Pipeline};
pub use prefix::PrefixStats;
pub use sweep::{
    classify_failure, FailureReason, JobBudget, PointAttempt, PointFailure, SweepEngine,
    SweepOutcome, SweepPoint, SweepPointOutcome,
};

use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::dataflow::DataflowEstimator;
use hida_ir_core::{Context, IrError, IrResult, OpId};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// A workload accepted by the compiler: a neural network from the model zoo, a
/// PolyBench kernel, or a module parsed from textual IR.
///
/// `Clone` is cheap for every variant (`TextIr` holds its text behind an
/// `Arc`), so the sweep and explore engines clone freely per design point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A neural network from the PyTorch-style model zoo.
    Model(Model),
    /// A PolyBench kernel with its default problem size.
    Polybench(PolybenchKernel),
    /// A PolyBench kernel with an explicit square problem size.
    PolybenchSized(PolybenchKernel, i64),
    /// A module parsed from textual IR (`hida-opt --input file.hir`).
    TextIr {
        /// Display name (typically the input file stem).
        name: Arc<str>,
        /// Module text, re-parsed into each compilation's fresh context.
        text: Arc<str>,
    },
}

impl Workload {
    /// A textual-IR workload from a display name and module text.
    pub fn text_ir(name: impl Into<Arc<str>>, text: impl Into<Arc<str>>) -> Self {
        Workload::TextIr {
            name: name.into(),
            text: text.into(),
        }
    }

    /// Human-readable workload name.
    pub fn name(&self) -> String {
        match self {
            Workload::Model(m) => m.name().to_string(),
            Workload::Polybench(k) | Workload::PolybenchSized(k, _) => k.name().to_string(),
            Workload::TextIr { name, .. } => name.to_string(),
        }
    }
}

/// Everything produced by one compilation run.
#[derive(Debug)]
pub struct CompilationResult {
    /// The IR context holding the compiled design.
    pub ctx: Context,
    /// The compiled function.
    pub func: OpId,
    /// The optimized structural schedule.
    pub schedule: ScheduleOp,
    /// The QoR estimate of the dataflow design.
    pub estimate: DesignEstimate,
    /// The QoR estimate with dataflow disabled (sequential execution).
    pub estimate_sequential: DesignEstimate,
    /// Generated Vitis-HLS-style C++.
    pub hls_cpp: String,
    /// Compile time of the HIDA flow itself, in seconds.
    pub compile_seconds: f64,
    /// Per-pass statistics recorded by the optimizer's pass pipeline (timing, op
    /// deltas, configured options, analysis cache traffic), in execution order.
    pub pass_statistics: Vec<PassStatistics>,
    /// Aggregate analysis-cache counters over the whole pipeline: how often the
    /// optimizer reused a cached profile/graph instead of re-walking the IR.
    pub analysis_cache: AnalysisCacheStats,
    /// What the QoR estimator added to the counters of the design's analysis
    /// cache: hits on the profiles and the graph the pass pipeline left in it
    /// and on the node results the dataflow and sequential estimates share,
    /// one miss per node estimated.
    pub estimator_cache: AnalysisCacheStats,
    /// This compilation's traffic against the cross-compilation estimate
    /// cache, when one was attached with [`Compiler::with_shared_estimates`]
    /// (e.g. by the [`sweep`] engine). `None` for isolated compilations.
    pub shared_estimator_cache: Option<SharedCacheStats>,
}

/// A workload lowered through the pass pipeline but not yet estimated or
/// emitted — the output of [`Compiler::lower`] / [`Compiler::lower_func`] and
/// the input of [`Compiler::finish`].
#[derive(Debug)]
pub struct LoweredDesign {
    /// The IR context holding the lowered design.
    pub ctx: Context,
    /// The module op.
    pub module: OpId,
    /// The compiled function.
    pub func: OpId,
    /// The optimized structural schedule.
    pub schedule: ScheduleOp,
    /// Per-pass statistics of the pipeline run, in execution order.
    pub pass_statistics: Vec<PassStatistics>,
    /// The analysis cache the passes ran with. Every compute profile and
    /// graph the last pass preserved is still valid in it:
    /// [`Compiler::finish`] estimates and emits from here instead of
    /// deriving the design a second and a third time.
    pub analyses: AnalysisManager,
    /// The last pass's post-pass verification, when it ran and passed. While
    /// it [holds](Verified::holds_for) for `ctx` — no mutation since —
    /// [`Compiler::finish`] does not walk that subtree a second time; clear
    /// it to have the whole module verified again.
    pub verified: Option<Verified>,
    /// Seconds the pass pipeline took — the first part of
    /// [`CompilationResult::compile_seconds`].
    pub lower_seconds: f64,
}

/// A pass pipeline that stopped early: the error, plus the statistics of every
/// pass that ran (the last one marked `failed`) so a report can still say
/// where, and after how long, the compilation died.
#[derive(Debug)]
pub struct LowerFailure {
    /// What stopped the pipeline.
    pub error: IrError,
    /// Per-pass statistics up to and including the failing pass; empty when
    /// the pipeline text itself did not parse.
    pub pass_statistics: Vec<PassStatistics>,
}

impl From<LowerFailure> for IrError {
    fn from(failure: LowerFailure) -> IrError {
        failure.error
    }
}

/// Runs `pipeline` from where `checkpoint` stands to its end — the one place
/// a compilation's passes run. [`Compiler::lower_func`] resumes the empty
/// checkpoint over the function it was given; a sweep or exploration point
/// resumes a fork of the deepest checkpoint its run shares with other points
/// (see `docs/ARCHITECTURE.md`, "The prefix tree"). `start` is when the
/// caller began this lowering: what came before the resume counts into
/// [`LoweredDesign::lower_seconds`].
pub(crate) fn resume(
    pipeline: &Pipeline,
    mut checkpoint: Checkpoint,
    start: Instant,
) -> Result<LoweredDesign, LowerFailure> {
    let run = pipeline
        .resume(&mut checkpoint, pipeline.len())
        .and_then(|()| checkpoint.schedule());
    let (module, func, verified) = (checkpoint.module, checkpoint.func, checkpoint.verified());
    let (ctx, analyses, pass_statistics) = checkpoint.into_parts();
    match run {
        Ok(schedule) => Ok(LoweredDesign {
            ctx,
            module,
            func,
            schedule,
            pass_statistics,
            analyses,
            verified,
            lower_seconds: start.elapsed().as_secs_f64(),
        }),
        Err(error) => Err(LowerFailure {
            error,
            pass_statistics,
        }),
    }
}

/// Builds `workload`'s IR into a fresh module inside `ctx`; returns the
/// module and the workload function.
///
/// # Errors
/// Fails for [`Workload::TextIr`] when the module text does not parse or
/// contains no `func.func`; builder-based workloads are infallible.
pub fn build_workload(ctx: &mut Context, workload: Workload) -> IrResult<(OpId, OpId)> {
    match workload {
        Workload::Model(model) => {
            let module = ctx.create_module(model.name());
            Ok((module, hida_frontend::nn::build_model(ctx, module, model)))
        }
        Workload::Polybench(kernel) => {
            let module = ctx.create_module(kernel.name());
            let func =
                hida_frontend::polybench::build_kernel(ctx, module, kernel, kernel.default_size());
            Ok((module, func))
        }
        Workload::PolybenchSized(kernel, n) => {
            let module = ctx.create_module(kernel.name());
            let func = hida_frontend::polybench::build_kernel(ctx, module, kernel, n);
            Ok((module, func))
        }
        Workload::TextIr { name, text } => {
            let module = hida_ir_core::parse_module_into(ctx, &text)
                .map_err(|e| IrError::InvalidEntity(format!("parsing textual IR '{name}': {e}")))?;
            if !ctx.op(module).is(hida_ir_core::op_names::MODULE) {
                return Err(IrError::InvalidEntity(format!(
                    "textual IR '{name}' must have a builtin.module root, found \"{}\"",
                    ctx.op(module).name
                )));
            }
            let func = ctx
                .body_ops(module)
                .into_iter()
                .find(|&op| ctx.op(op).is(hida_ir_core::op_names::FUNC))
                .ok_or_else(|| {
                    IrError::InvalidEntity(format!(
                        "textual IR '{name}' contains no func.func to compile"
                    ))
                })?;
            Ok((module, func))
        }
    }
}

/// The end-to-end HIDA compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    options: HidaOptions,
    /// Explicit textual pipeline overriding the options-derived flow, when set.
    pipeline: Option<String>,
    /// Cross-compilation estimate cache shared with other compilations of the
    /// same sweep, when attached.
    shared_estimates: Option<Arc<SharedEstimateCache>>,
    /// Whether the pipeline verifies the IR between passes and after the run
    /// (on by default; disable to trade safety for compile time).
    verification: bool,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new(HidaOptions::default())
    }
}

impl Compiler {
    /// Creates a compiler with explicit options.
    pub fn new(options: HidaOptions) -> Self {
        Compiler {
            options,
            pipeline: None,
            shared_estimates: None,
            verification: true,
        }
    }

    /// Compiler tuned for the PolyBench kernels on the ZU3EG device (Table 7 setup).
    pub fn polybench_defaults() -> Self {
        Compiler::new(HidaOptions::polybench())
    }

    /// Compiler tuned for DNN models on one VU9P SLR (Table 8 setup).
    pub fn dnn_defaults() -> Self {
        Compiler::new(HidaOptions::dnn())
    }

    /// Returns the configured options.
    pub fn options(&self) -> &HidaOptions {
        &self.options
    }

    /// Replaces the options (builder style).
    pub fn with_options(mut self, options: HidaOptions) -> Self {
        self.options = options;
        self
    }

    /// Uses an explicit textual pass pipeline instead of the flow derived from
    /// the options (builder style). The text is parsed through the HIDA pass
    /// registry at compile time; the options still drive workload construction
    /// and QoR estimation (the target device).
    pub fn with_pipeline(mut self, text: impl Into<String>) -> Self {
        self.pipeline = Some(text.into());
        self
    }

    /// The explicit pipeline text, when one was set with
    /// [`Compiler::with_pipeline`].
    pub fn pipeline_text(&self) -> Option<&str> {
        self.pipeline.as_deref()
    }

    /// Ignores `jobs`: a compilation runs on the calling thread. Kept only
    /// because `benchmark/src/run.rs:132` and `:147` (frozen) call it.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Always 1. Kept only because `benchmark/src/run.rs:553` (frozen) calls it.
    #[doc(hidden)]
    pub fn jobs(&self) -> usize {
        1
    }

    /// Attaches a cross-compilation estimate cache (builder style): per-node
    /// QoR estimates are shared with every other compilation holding a clone
    /// of the same `Arc`, keyed by the node model's inputs and the device, so
    /// a design-space sweep evaluates each distinct set of inputs once. Results are byte-identical with or without the
    /// cache; [`CompilationResult::shared_estimator_cache`] reports the
    /// traffic.
    pub fn with_shared_estimates(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared_estimates = Some(cache);
        self
    }

    /// The attached cross-compilation estimate cache, if any.
    pub fn shared_estimates(&self) -> Option<&Arc<SharedEstimateCache>> {
        self.shared_estimates.as_ref()
    }

    /// Enables or disables IR verification (builder style): inter-pass
    /// verification inside the pipeline and the final whole-module check.
    /// On by default; the CLI's `--no-verify` maps to `false`.
    pub fn with_verification(mut self, enabled: bool) -> Self {
        self.verification = enabled;
        self
    }

    /// Whether IR verification runs (see [`Compiler::with_verification`]).
    pub fn verification(&self) -> bool {
        self.verification
    }

    /// Compiles a workload end to end: [`Compiler::lower`], then
    /// [`Compiler::finish`].
    ///
    /// # Errors
    /// Propagates front-end or optimization failures.
    pub fn compile(&self, workload: Workload) -> IrResult<CompilationResult> {
        self.finish(self.lower(workload)?)
    }

    /// Runs the front end and the pass pipeline only — no QoR estimation, no
    /// emission: the first half of [`Compiler::compile`]. The returned design
    /// holds the optimized structural schedule; [`Compiler::finish`] takes it
    /// the rest of the way, and
    /// [`hida_estimator::surrogate::design_bound`] can bound its QoR first —
    /// the question the design-space explorer asks between the two halves to
    /// decide whether a candidate is worth finishing.
    ///
    /// # Errors
    /// Propagates front-end or optimization failures.
    pub fn lower(&self, workload: Workload) -> IrResult<LoweredDesign> {
        let mut ctx = Context::new();
        let (module, func) = build_workload(&mut ctx, workload)?;
        Ok(self.lower_func(ctx, module, func)?)
    }

    /// Runs the pass pipeline over an already-constructed function: assembles
    /// the compilation's pipeline (explicit text or the options-derived flow,
    /// worker count, verification) and resumes the empty [`Checkpoint`] over
    /// `func` with it. Custom front-ends call this and then
    /// [`Compiler::finish`].
    ///
    /// # Errors
    /// A [`LowerFailure`] carrying the optimization or inter-pass
    /// verification error and the statistics of the passes that ran.
    pub fn lower_func(
        &self,
        ctx: Context,
        module: OpId,
        func: OpId,
    ) -> Result<LoweredDesign, LowerFailure> {
        let start = Instant::now();
        // Chaos-harness site: an armed stall sleeps here, at the very start of
        // the point's compilation, where a per-point deadline will catch it.
        hida_ir_core::fault::injected_stall("compile:start");
        let (pipeline, _) = self.assemble(&registry())?;
        resume(&pipeline, Checkpoint::new(ctx, module, func), start)
    }

    /// Assembles this compilation's pipeline — the explicit text or the
    /// options-derived flow, with the verification setting — the one place
    /// that is done. The flag says whether the pipeline came out of
    /// `registry`: its [`Pipeline::invocations`] then determine its passes,
    /// so two such pipelines run equal passes wherever their invocation lists
    /// agree. It is false for the direct fallback of
    /// [`Pipeline::from_options`] (a device outside the catalog is carried by
    /// name only).
    ///
    /// # Errors
    /// An explicit text that does not parse through the registry.
    pub(crate) fn assemble(
        &self,
        registry: &PassRegistry,
    ) -> Result<(Pipeline, bool), LowerFailure> {
        let text = match &self.pipeline {
            Some(text) => Cow::Borrowed(text.as_str()),
            None => Cow::Owned(self.options.pipeline_text()),
        };
        let (pipeline, from_registry) = match Pipeline::parse(registry, &text) {
            Ok(pipeline) => (pipeline, true),
            Err(e) if self.pipeline.is_some() => {
                return Err(LowerFailure {
                    error: IrError::pass_failed("hida-pipeline", e.to_string()),
                    pass_statistics: Vec::new(),
                })
            }
            Err(_) => (Pipeline::from_options(&self.options), false),
        };
        Ok((pipeline.with_verification(self.verification), from_registry))
    }

    /// Finishes a lowered design: the final whole-module verification, both
    /// QoR estimates (dataflow and sequential) and HLS C++ emission, all three
    /// reading the design's one analysis cache (see `docs/ARCHITECTURE.md`,
    /// "The finish half"). The verification leaves out the subtree the last
    /// pass's own verification walked, as long as
    /// [`LoweredDesign::verified`] still holds for the context.
    ///
    /// # Errors
    /// Propagates IR verification errors and estimate-store degradation.
    pub fn finish(&self, mut lowered: LoweredDesign) -> IrResult<CompilationResult> {
        let estimator = self.estimator(&mut lowered);
        self.finish_with(lowered, &estimator)
    }

    /// The one estimator of `lowered`'s design: for this compiler's device,
    /// attached to its estimate cache, over the design's analysis cache —
    /// which it takes along, leaving the design an empty one.
    pub(crate) fn estimator(&self, lowered: &mut LoweredDesign) -> DataflowEstimator {
        let analyses = std::mem::take(&mut lowered.analyses);
        let estimator = DataflowEstimator::over(self.options.device.clone(), analyses);
        match &self.shared_estimates {
            Some(cache) => estimator.with_shared_cache(cache.clone()),
            None => estimator,
        }
    }

    /// [`Compiler::finish`] with the design's estimator — the one
    /// [`Compiler::estimator`] made of it, which may have
    /// [bounded](DataflowEstimator::bound) the design since: what it keyed,
    /// profiled and estimated then is not done again.
    pub(crate) fn finish_with(
        &self,
        lowered: LoweredDesign,
        estimator: &DataflowEstimator,
    ) -> IrResult<CompilationResult> {
        let start = Instant::now();
        let LoweredDesign {
            ctx,
            module,
            func,
            schedule,
            pass_statistics,
            verified,
            lower_seconds,
            ..
        } = lowered;
        let analysis_cache = PassStatistics::aggregate_cache(&pass_statistics);
        if self.verification {
            let verified = verified.filter(|v| v.holds_for(&ctx)).map(|v| v.root());
            hida_ir_core::verifier::verify_except(&ctx, module, verified)
                .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
        }
        // Chaos-harness site: an armed store-read fault surfaces as the
        // `StoreDegraded` error a real unrecoverable EIO on the estimate
        // store's read path would produce, and lands in the same counter.
        if let Err(e) = hida_ir_core::fault::injected_store_read("estimator/store-read") {
            if let Some(store) = self.shared_estimates.as_ref().and_then(|c| c.store()) {
                store.note_injected_read_error();
            }
            return Err(e);
        }
        let estimate = estimator.estimate_schedule(&ctx, schedule, true);
        let estimate_sequential = estimator.estimate_schedule(&ctx, schedule, false);
        // Chaos-harness site: an armed short write drops one store publish —
        // a counted, non-fatal degradation, exactly like a real ENOSPC.
        if hida_ir_core::fault::injected_short_write() {
            if let Some(store) = self.shared_estimates.as_ref().and_then(|c| c.store()) {
                store.note_injected_write_error();
            }
        }
        let estimator_cache = estimator.cache_stats();
        let shared_estimator_cache = self
            .shared_estimates
            .as_ref()
            .map(|_| estimator.shared_cache_stats());
        let hls_cpp = hida_emitter::emit_schedule_with(&ctx, schedule, &mut estimator.analyses());
        Ok(CompilationResult {
            ctx,
            func,
            schedule,
            estimate,
            estimate_sequential,
            hls_cpp,
            compile_seconds: lower_seconds + start.elapsed().as_secs_f64(),
            pass_statistics,
            analysis_cache,
            estimator_cache,
            shared_estimator_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_polybench_compilation_works_end_to_end() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        assert!(result.estimate.throughput() > 0.0);
        assert!(result.estimate.throughput() >= result.estimate_sequential.throughput());
        assert!(result.hls_cpp.contains("#pragma HLS dataflow"));
        assert!(result.compile_seconds < 60.0);
        assert_eq!(result.schedule.nodes(&result.ctx).len(), 2);
    }

    #[test]
    fn dnn_compilation_produces_a_deep_pipeline() {
        let result = Compiler::dnn_defaults()
            .compile(Workload::Model(Model::LeNet))
            .unwrap();
        assert!(result.schedule.nodes(&result.ctx).len() >= 3);
        assert!(result.estimate.macs_per_sample > 100_000);
        assert!(result.estimate.dsp_efficiency() > 0.0);
    }

    #[test]
    fn workload_names_are_stable() {
        assert_eq!(Workload::Model(Model::ResNet18).name(), "resnet-18");
        assert_eq!(Workload::Polybench(PolybenchKernel::Atax).name(), "atax");
        assert_eq!(
            Workload::PolybenchSized(PolybenchKernel::Mvt, 64).name(),
            "mvt"
        );
    }

    #[test]
    fn compilation_result_exposes_per_pass_statistics() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        let expected = Pipeline::from_options(&HidaOptions::polybench()).pass_names();
        let recorded: Vec<String> = result
            .pass_statistics
            .iter()
            .map(|s| s.pass.clone())
            .collect();
        assert!(!recorded.is_empty());
        assert_eq!(recorded, expected);
        // Statistics are genuinely per-pass: every record carries op counts, and the
        // construction pass visibly grows the IR.
        assert!(result.pass_statistics[0].op_delta() > 0);
        for stat in &result.pass_statistics {
            assert!(stat.live_ops_after > 0);
        }
    }

    #[test]
    fn explicit_pipeline_overrides_the_options_flow() {
        let result = Compiler::polybench_defaults()
            .with_pipeline("construct,lower,parallelize{max-factor=16,device=zu3eg}")
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        let recorded: Vec<String> = result
            .pass_statistics
            .iter()
            .map(|s| s.pass.clone())
            .collect();
        assert_eq!(
            recorded,
            vec![
                "hida-construct-dataflow",
                "hida-lower-structural",
                "hida-parallelize",
            ]
        );
        // A malformed pipeline surfaces as an error, not a panic.
        let err = Compiler::polybench_defaults()
            .with_pipeline("construct,,lower")
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32));
        assert!(err.is_err());
    }

    #[test]
    fn compilation_reports_analysis_cache_reuse() {
        let result = Compiler::polybench_defaults()
            .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 32))
            .unwrap();
        // The pipeline reuses profiles across passes: tiling consumes the node
        // profiles warmed during lowering, parallelization re-queries them for
        // connection analysis, node sorting and partition assignment.
        assert!(
            result.analysis_cache.hits >= 2,
            "expected cross-pass cache hits, got {:?}",
            result.analysis_cache
        );
        assert!(result.analysis_cache.misses >= 1);
        // The polybench preset may omit tiling; when present it must reuse the
        // node profiles warmed during lowering.
        if let Some(tiling) = result
            .pass_statistics
            .iter()
            .find(|s| s.pass == "hida-tiling")
        {
            assert!(tiling.cache.hits >= 1, "{:?}", tiling.cache);
        }
        let parallelize = result
            .pass_statistics
            .iter()
            .find(|s| s.pass == "hida-parallelize")
            .unwrap();
        assert!(parallelize.cache.hits >= 1, "{:?}", parallelize.cache);
        // The finish half reads the same cache: of its two nodes the dataflow
        // estimate finds the profiles and the schedule's graph (3 hits) and
        // computes only the estimates and the buffer totals (3 misses), all
        // of which the sequential estimate then finds (3 hits).
        assert_eq!(
            result.estimator_cache,
            AnalysisCacheStats {
                hits: 6,
                misses: 3,
                invalidations: 0,
                preserved: 0,
            }
        );
        assert!(result.pass_statistics.iter().all(|s| !s.failed));
    }

    #[test]
    fn options_builder_round_trips() {
        let compiler = Compiler::default().with_options(HidaOptions {
            max_parallel_factor: 128,
            ..HidaOptions::dnn()
        });
        assert_eq!(compiler.options().max_parallel_factor, 128);
    }
}
