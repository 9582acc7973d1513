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
//! `docs/ARCHITECTURE.md`). An [`Explorer`] is that sweep plus the Pareto
//! frontier of its results.

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

pub use explore::{ExploreConfig, ExploreOutcome, Explorer, Frontier, FrontierPoint, Objective};
pub use hida_estimator::device::FpgaDevice;
pub use hida_estimator::report::DesignEstimate;
pub use hida_estimator::shared_cache::SharedEstimateCache;
pub use hida_estimator::store::{EstimateStore, PersistentStoreStats};
pub use hida_frontend::nn::Model;
pub use hida_frontend::polybench::PolybenchKernel;
pub use hida_ir_core::analysis::{
    Analysis, AnalysisCacheStats, AnalysisManager, PreservedAnalyses,
};
pub use hida_ir_core::fault::{CancelToken, FaultKind, FaultPlan, PointFaults};
pub use hida_ir_core::pass::{PassOption, PassStatistics, Verified};
pub use hida_ir_core::PassInvocation;
pub use hida_opt::{
    registry, registry_listing, Checkpoint, HidaOptions, ParallelMode, Pipeline, PipelineError,
    Registry,
};
pub use prefix::PrefixStats;
pub use sweep::{
    classify_failure, FailureReason, JobBudget, SweepEngine, SweepOutcome, SweepPoint,
    SweepPointOutcome,
};

use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::dataflow::DataflowEstimator;
use hida_ir_core::{Context, IrError, IrResult, OpId};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A workload accepted by the compiler: a neural network from the model zoo, a
/// PolyBench kernel, or a module parsed from textual IR.
///
/// `Clone` is cheap for every variant (`TextIr` holds its text behind an
/// `Arc`), so the sweep engine clones freely per design point.
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
    /// What the QoR estimator added to the counters of the design's analysis
    /// cache: hits on the profiles and the graph the pass pipeline left in it
    /// and on the node results the dataflow and sequential estimates share,
    /// one miss per node estimated.
    pub estimator_cache: AnalysisCacheStats,
}

impl CompilationResult {
    /// Aggregate analysis-cache counters over the whole pipeline: how often the
    /// optimizer reused a cached profile/graph instead of re-walking the IR.
    pub fn analysis_cache(&self) -> AnalysisCacheStats {
        PassStatistics::aggregate_cache(&self.pass_statistics)
    }
}

/// A workload lowered through the pass pipeline but not yet estimated or
/// emitted — the output of [`Compiler::lower`] and the input of
/// [`Compiler::finish`].
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
    /// the front end failed or the pipeline text itself did not parse.
    pub pass_statistics: Vec<PassStatistics>,
}

impl From<LowerFailure> for IrError {
    fn from(failure: LowerFailure) -> IrError {
        failure.error
    }
}

/// A failure before any pass ran: no statistics.
impl From<IrError> for LowerFailure {
    fn from(error: IrError) -> LowerFailure {
        LowerFailure {
            error,
            pass_statistics: Vec::new(),
        }
    }
}

impl fmt::Display for LowerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

/// Runs `pipeline` from where `checkpoint` stands to its end — the one place
/// a compilation's passes run. [`Compiler::lower`] resumes the empty
/// checkpoint over the workload's function; a sweep point resumes a fork
/// of the deepest checkpoint its run shares with other points (see
/// `docs/ARCHITECTURE.md`, "The prefix tree"). `start` is when the
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
/// Fails for [`Workload::TextIr`] when the module text does not parse, does
/// not [verify](hida_ir_core::verifier::verify) or contains no `func.func`;
/// builder-based workloads are infallible.
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
            // Broken input is an error in the input, not in the first pass
            // that happens to verify after it.
            hida_ir_core::verifier::verify(ctx, module).map_err(|e| {
                IrError::InvalidEntity(format!("verifying textual IR '{name}': {e}"))
            })?;
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

    /// Attaches a cross-compilation estimate cache (builder style). When it
    /// holds a persistent store, per-node QoR estimates are looked up there
    /// under the node model's inputs and the device, and what this
    /// compilation evaluates is saved for the next batch. Results are
    /// byte-identical with or without the cache; its
    /// [`persistent_stats`](SharedEstimateCache::persistent_stats) count the
    /// traffic.
    pub fn with_shared_estimates(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared_estimates = Some(cache);
        self
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
    /// emission: the first half of [`Compiler::compile`]. Assembles the
    /// compilation's pipeline (explicit text or the options-derived flow,
    /// verification) and resumes the empty [`Checkpoint`] over the workload's
    /// function with it. The returned design holds the optimized structural
    /// schedule; [`Compiler::finish`] takes it the rest of the way, and a
    /// caller may read or edit it in between.
    ///
    /// # Errors
    /// A [`LowerFailure`] carrying a front-end failure or the pipeline text's
    /// rejection (no pass statistics), or the optimization or inter-pass
    /// verification error and the statistics of the passes that ran.
    pub fn lower(&self, workload: Workload) -> Result<LoweredDesign, LowerFailure> {
        let mut ctx = Context::new();
        let (module, func) = build_workload(&mut ctx, workload)?;
        let start = Instant::now();
        // Chaos-harness site: an armed stall sleeps here, at the very start of
        // the point's compilation, where a per-point deadline will catch it.
        hida_ir_core::fault::injected_stall("compile:start");
        let pipeline = self.assemble()?;
        resume(&pipeline, Checkpoint::new(ctx, module, func), start)
    }

    /// Assembles this compilation's pipeline — the explicit text or the text
    /// of the options ([`HidaOptions::pipeline_text`]), parsed through the
    /// pass table, with the verification setting — the one place that is
    /// done. Its [`Pipeline::invocations`] determine its passes, so two
    /// pipelines run equal passes wherever their invocation lists agree.
    ///
    /// # Errors
    /// A text the table rejects, as a `hida-pipeline` failure with the
    /// table's message: malformed syntax, an unknown pass, a knob below 1, a
    /// device outside the catalog.
    pub(crate) fn assemble(&self) -> Result<Pipeline, LowerFailure> {
        let text = match &self.pipeline {
            Some(text) => Cow::Borrowed(text.as_str()),
            None => Cow::Owned(self.options.pipeline_text()),
        };
        match Pipeline::parse(&registry(), &text) {
            Ok(pipeline) => Ok(pipeline.with_verification(self.verification)),
            Err(e) => Err(IrError::pass_failed("hida-pipeline", e.to_string()).into()),
        }
    }

    /// Finishes a lowered design: the final whole-module verification, both
    /// QoR estimates (dataflow and sequential) and HLS C++ emission, all three
    /// reading the design's one analysis cache (see `docs/ARCHITECTURE.md`,
    /// "The finish half"). The verification leaves out the subtree the last
    /// pass's own verification walked, as long as
    /// [`LoweredDesign::verified`] still holds for the context.
    ///
    /// Its start is a cancellation checkpoint, like every pass boundary: a
    /// deadline that ran out after the last pass stops the design here,
    /// before it is estimated.
    ///
    /// # Errors
    /// [`IrError::Cancelled`] at `finish` when the thread's point token has
    /// expired; IR verification errors.
    pub fn finish(&self, lowered: LoweredDesign) -> IrResult<CompilationResult> {
        hida_ir_core::fault::checkpoint(|| "finish")?;
        let start = Instant::now();
        let LoweredDesign {
            ctx,
            module,
            func,
            schedule,
            pass_statistics,
            analyses,
            verified,
            lower_seconds,
        } = lowered;
        if self.verification {
            let verified = verified.filter(|v| v.holds_for(&ctx)).map(|v| v.root());
            hida_ir_core::verifier::verify_except(&ctx, module, verified)
                .map_err(|e| IrError::pass_failed("hida-pipeline", e.to_string()))?;
        }
        // The design's one estimator: this compiler's device and estimate
        // cache, over the analysis cache the passes ran with.
        let estimator = DataflowEstimator::over(self.options.device.clone(), analyses);
        let estimator = match &self.shared_estimates {
            Some(cache) => estimator.with_shared_cache(cache.clone()),
            None => estimator,
        };
        let estimate = estimator.estimate(&ctx, schedule.id(), true);
        let estimate_sequential = estimator.estimate(&ctx, schedule.id(), false);
        let estimator_cache = estimator.cache_stats();
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
            estimator_cache,
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
        let recorded: Vec<&str> = result.pass_statistics.iter().map(|s| s.pass).collect();
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
        let recorded: Vec<&str> = result.pass_statistics.iter().map(|s| s.pass).collect();
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
            result.analysis_cache().hits >= 2,
            "expected cross-pass cache hits, got {:?}",
            result.analysis_cache()
        );
        assert!(result.analysis_cache().misses >= 1);
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
    fn options_the_pass_table_rejects_fail_the_compilation() {
        let custom_board = FpgaDevice {
            name: "custom-board".to_string(),
            ..FpgaDevice::zu3eg()
        };
        let cases = [
            (
                HidaOptions {
                    max_parallel_factor: 0,
                    ..HidaOptions::polybench()
                },
                "invalid options for pass 'parallelize': option 'max-factor': 0 must be >= 1",
            ),
            (
                HidaOptions {
                    max_parallel_factor: -4,
                    ..HidaOptions::polybench()
                },
                "invalid options for pass 'parallelize': option 'max-factor': -4 must be >= 1",
            ),
            (
                HidaOptions {
                    tile_size: Some(0),
                    ..HidaOptions::polybench()
                },
                "invalid options for pass 'tiling': option 'factor': 0 must be >= 1",
            ),
            (
                HidaOptions {
                    external_threshold_bytes: 0,
                    ..HidaOptions::polybench()
                },
                "invalid options for pass 'balance': \
                 option 'external-threshold-bytes': 0 must be >= 1",
            ),
            (
                HidaOptions {
                    device: custom_board,
                    ..HidaOptions::polybench()
                },
                "invalid options for pass 'parallelize': option 'device': \
                 unknown device 'custom-board' (known: pynq-z2, zu3eg, vu9p-slr)",
            ),
        ];
        for (options, reason) in cases {
            let err = Compiler::new(options)
                .compile(Workload::PolybenchSized(PolybenchKernel::TwoMm, 16))
                .unwrap_err();
            assert_eq!(
                err,
                IrError::PassFailed {
                    pass: "hida-pipeline".into(),
                    reason: reason.into(),
                }
            );
        }
    }

    /// A deadline that runs out after the last pass stops the design where
    /// `finish` starts, as an error rather than an unwind.
    #[test]
    fn an_expired_token_stops_finish_before_estimation() {
        let compiler = Compiler::polybench_defaults();
        let lowered = compiler
            .lower(Workload::PolybenchSized(PolybenchKernel::TwoMm, 16))
            .unwrap();
        let _guard = hida_ir_core::fault::install_point(CancelToken::with_deadline_ms(0), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = compiler.finish(lowered).unwrap_err();
        assert_eq!(
            err,
            IrError::Cancelled {
                site: "finish".into(),
                detail: "deadline of 0ms exceeded".into(),
            }
        );
        assert_eq!(classify_failure(&err), FailureReason::TimedOut);
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
