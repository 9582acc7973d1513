//! The HIDA-OPT pass pipeline.
//!
//! Every step of the optimizer (paper §6) is one variant of [`HidaPass`], a
//! [`Pass`], so the whole flow becomes *data*: a [`Pipeline`] parsed from
//! text through the pass table ([`mod@crate::registry`]) and run by
//! [`run_passes`]. [`Pipeline::from_options`] renders [`HidaOptions`] as that
//! text: the tiling pass is absent without a tile size, and scalar knobs
//! become pass-instance options, visible in the recorded [`PassStatistics`].
//! Any other flow — without fusion or balancing, or with another
//! parallelization mode — is a pipeline string of its own.
//!
//! Passes hand each other the IR and nothing else. Lowering appends the
//! structural [`ScheduleOp`] to the function body, and every later
//! structural pass finds it there, so a custom pipeline can put any of the
//! structural passes between lowering and parallelization. Compute profiles
//! and dataflow graphs flow through the run's `AnalysisManager`: each pass
//! fetches them from the cache and declares which analyses its mutations
//! preserve, so a profile computed once (e.g. while lowering a task to a
//! node) is reused by every later pass until the IR underneath it actually
//! changes.
//!
//! The default pipeline assembled from [`HidaOptions`] is:
//!
//! | pass | gated by |
//! |------|----------|
//! | [`HidaPass::Construct`] (`hida-construct-dataflow`) | always |
//! | [`HidaPass::Fusion`] (`hida-task-fusion`) | always |
//! | [`HidaPass::Lower`] (`hida-lower-structural`) | always |
//! | [`HidaPass::MultiProducerElim`] (`hida-eliminate-multi-producers`) | always |
//! | [`HidaPass::Tiling`] (`hida-tiling`) | `tile_size.is_some()` |
//! | [`HidaPass::Balance`] (`hida-balance-data-paths`) | always |
//! | [`HidaPass::Parallelize`] (`hida-parallelize`) | always (IA+CA) |
//!
//! A pipeline runs on the thread that calls it, one pass after the other;
//! Algorithm 4 itself is a sequential walk in which each node reads the
//! factors of the connected nodes visited before it. Concurrency lives one
//! level up, where a sweep compiles independent design points side by side.

use crate::fusion::FusionPattern;
use crate::registry::{PipelineError, Registry, PASSES};
use crate::{construct, fusion, lower, parallelize, structural_opt, tiling};
use crate::{HidaOptions, ParallelMode};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_dialects::analysis::ComputeProfile;
use hida_ir_core::analysis::{AnalysisManager, PreservedAnalyses};
use hida_ir_core::pass::{run_passes, Pass, PassStatistics, RunState, Verified};
use hida_ir_core::{
    parse_pipeline, print_pipeline, Context, IrError, IrResult, OpId, PassInvocation,
};

/// The schedule the structural passes work on and a run produces: the
/// one `func` is made of ([`ScheduleOp::first_within`]), where lowering appends
/// it — or the failure of `pass` (a structural pass, or `hida-pipeline` at
/// the end of a run) when there is none.
fn lowered(ctx: &Context, func: OpId, pass: &str) -> IrResult<ScheduleOp> {
    ScheduleOp::first_within(ctx, func).ok_or_else(|| {
        IrError::pass_failed(
            pass,
            format!(
                "no hida.schedule in the function — run {} first",
                HidaPass::Lower.name()
            ),
        )
    })
}

/// One configured HIDA-OPT pass (paper §6), as the pass table
/// ([`mod@crate::registry`]) builds it from an invocation.
pub enum HidaPass {
    /// Functional dataflow construction (Algorithm 1).
    Construct,
    /// Task fusion (Algorithm 2) with a pattern set (the table's default is
    /// [`fusion::default_fusion_patterns`]).
    Fusion {
        /// The patterns of the pattern phase, in the order they are tried.
        patterns: Vec<Box<dyn FusionPattern>>,
    },
    /// Structural dataflow construction (§6.3): lowers the functional
    /// dataflow to a `hida.schedule` appended to the function body, where
    /// the structural passes below find it.
    Lower,
    /// Multi-producer elimination (Algorithm 3).
    MultiProducerElim,
    /// Loop tiling and external-memory spilling.
    Tiling {
        /// Square spatial tile size applied to large layers.
        tile_size: i64,
        /// Buffers larger than this many bytes are spilled to external memory.
        external_threshold_bytes: i64,
    },
    /// Data-path balancing (§6.4.2).
    Balance {
        /// Buffers whose deepened footprint exceeds this become soft FIFOs.
        external_threshold_bytes: i64,
    },
    /// Intensity- and connection-aware parallelization (Algorithm 4); the
    /// [`ParallelMode`] ablation axis is plain pass configuration. The
    /// device an invocation names is in its options only: Algorithm 4 does
    /// not read it; `hida-opt` estimates QoR against it when `--device` is
    /// absent, and a compilation against `HidaOptions::device`.
    Parallelize {
        /// Maximum parallel factor granted to any single node.
        max_parallel_factor: i64,
        /// Parallelization strategy (IA/CA ablation axis).
        mode: ParallelMode,
    },
}

impl Pass for HidaPass {
    /// The alias of the pass's entry in the pass table.
    fn name(&self) -> &'static str {
        let entry = match self {
            HidaPass::Construct => 0,
            HidaPass::Fusion { .. } => 1,
            HidaPass::Lower => 2,
            HidaPass::MultiProducerElim => 3,
            HidaPass::Tiling { .. } => 4,
            HidaPass::Balance { .. } => 5,
            HidaPass::Parallelize { .. } => 6,
        };
        PASSES[entry].alias
    }

    fn preserved_analyses(&self) -> PreservedAnalyses {
        match self {
            HidaPass::Construct => PreservedAnalyses::none(),
            // Fusing two tasks erases them (their cache entries die with them)
            // and moves their bodies into a fresh task; every surviving task's
            // body is untouched, so its cached profile stays exact.
            HidaPass::Fusion { .. } => PreservedAnalyses::none().preserve::<ComputeProfile>(),
            // Lowering clones task bodies into fresh nodes and erases the
            // functional ops afterwards: live roots keep their exact profiles
            // (which is what lets lowering consume the profiles fusion cached).
            HidaPass::Lower => PreservedAnalyses::none().preserve::<ComputeProfile>(),
            // Buffer duplication only rewires node operands; fused producer
            // nodes are erased (dropping their entries). Node body profiles
            // survive. The dataflow graph does change (new buffers/copy
            // nodes), so it is not declared.
            HidaPass::MultiProducerElim => PreservedAnalyses::none().preserve::<ComputeProfile>(),
            // Tiling annotates nodes with tile sizes and adds tile-local
            // buffers; node bodies and hence their profiles are untouched.
            HidaPass::Tiling { .. } => PreservedAnalyses::none().preserve::<ComputeProfile>(),
            // Deepening buffers edits attributes; soft FIFOs insert token
            // push/pop ops, which carry no arithmetic or memory-access
            // semantics the profile counts. The dataflow graph gains token
            // edges, so only the profile is declared.
            HidaPass::Balance { .. } => PreservedAnalyses::none().preserve::<ComputeProfile>(),
            // Parallelization records unroll factors, budgets and partitions
            // as attributes only; neither node bodies nor the schedule's
            // producer/consumer topology change.
            HidaPass::Parallelize { .. } => PreservedAnalyses::none()
                .preserve::<ComputeProfile>()
                .preserve::<DataflowGraph>(),
        }
    }

    fn run(&self, ctx: &mut Context, root: OpId, analyses: &mut AnalysisManager) -> IrResult<()> {
        match self {
            HidaPass::Construct => construct::construct_functional_dataflow(ctx, root),
            HidaPass::Fusion { patterns } => fusion::fuse_tasks(ctx, analyses, root, patterns),
            HidaPass::Lower => lower::lower_to_structural(ctx, analyses, root).map(drop),
            HidaPass::MultiProducerElim => {
                let schedule = lowered(ctx, root, self.name())?;
                structural_opt::eliminate_multi_producers(ctx, schedule)
            }
            HidaPass::Tiling {
                tile_size,
                external_threshold_bytes,
            } => {
                let schedule = lowered(ctx, root, self.name())?;
                tiling::apply_tiling(
                    ctx,
                    analyses,
                    schedule,
                    *tile_size,
                    *external_threshold_bytes,
                );
                Ok(())
            }
            HidaPass::Balance {
                external_threshold_bytes,
            } => {
                let schedule = lowered(ctx, root, self.name())?;
                structural_opt::balance_data_paths(
                    ctx,
                    analyses,
                    schedule,
                    *external_threshold_bytes,
                )
            }
            HidaPass::Parallelize {
                max_parallel_factor,
                mode,
            } => {
                let schedule = lowered(ctx, root, self.name())?;
                parallelize::parallelize_schedule(
                    ctx,
                    analyses,
                    schedule,
                    *max_parallel_factor,
                    *mode,
                )
            }
        }
    }
}

/// A pipeline run stopped between two passes: the IR as the passes run so far
/// left it, and the run's state ([`RunState`]: analysis cache, one
/// statistics record per pass run). [`Pipeline::resume`] continues it;
/// [`Checkpoint::fork`] copies it first, so several pipelines that share a
/// pass prefix can each continue from the one run of that prefix. A fresh
/// checkpoint ([`Checkpoint::new`]) is where every run starts.
#[derive(Debug)]
pub struct Checkpoint {
    /// The IR, as the passes run so far left it.
    pub ctx: Context,
    /// The module op.
    pub module: OpId,
    /// The function the pipeline runs on.
    pub func: OpId,
    run: RunState,
}

impl Checkpoint {
    /// The empty checkpoint over a freshly built function: no pass run yet.
    pub fn new(ctx: Context, module: OpId, func: OpId) -> Self {
        Checkpoint {
            ctx,
            module,
            func,
            run: RunState::default(),
        }
    }

    /// Number of passes run so far — where [`Pipeline::resume`] continues.
    pub fn passes_done(&self) -> usize {
        self.run.statistics.len()
    }

    /// An independent copy to continue from: the context cloned (every
    /// entity id stays valid in the clone), statistics copied, the
    /// analysis cache carried over under the clone's identity — so the passes
    /// still to come produce the IR, statistics and cache counters they would
    /// have produced on the original.
    pub fn fork(&self) -> Checkpoint {
        let ctx = self.ctx.clone();
        Checkpoint {
            run: self.run.fork(&self.ctx, &ctx),
            ctx,
            module: self.module,
            func: self.func,
        }
    }

    /// The structural schedule the passes run so far produced.
    ///
    /// # Errors
    /// Fails when none of them lowered the function.
    pub fn schedule(&self) -> IrResult<ScheduleOp> {
        lowered(&self.ctx, self.func, "hida-pipeline")
    }

    /// The post-pass verification of the last pass run, when it ran and
    /// passed ([`RunState::verified`]): the subtree a final whole-module
    /// verification need not walk again while the record holds.
    pub fn verified(&self) -> Option<Verified> {
        self.run.verified
    }

    /// Takes the checkpoint apart into its context, the analysis cache the
    /// passes left — what the last pass preserved is still valid for the
    /// context, and whoever estimates or emits the design next reads it from
    /// there — and the statistics of the passes run — a failed run's too, its
    /// last record marked `failed`.
    pub fn into_parts(self) -> (Context, AnalysisManager, Vec<PassStatistics>) {
        (self.ctx, self.run.analyses, self.run.statistics)
    }
}

/// A declarative HIDA-OPT pipeline: an ordered pass list run by
/// [`run_passes`], producing a structural [`ScheduleOp`] plus per-pass
/// statistics.
///
/// Every pipeline is parsed from text ([`Pipeline::parse`], grammar
/// `name{key=value,...},name,...`) through the pass table; [`HidaOptions`]
/// become text first ([`Pipeline::from_options`]). Every pipeline remembers
/// its textual form: [`Pipeline::to_text`] prints a string that re-parses to
/// the identical configuration.
pub struct Pipeline {
    /// Each pass with its normalized invocation, whose options every record
    /// of the pass shares.
    passes: Vec<(PassInvocation, HidaPass)>,
    verify_each: bool,
    /// Analyses and statistics of the most recent [`Pipeline::run`].
    last: RunState,
}

impl Pipeline {
    /// Parses a textual pipeline through the pass table ([`crate::registry()`]).
    ///
    /// The stored invocations are *normalized*: canonical pass names, alias
    /// option names resolved and defaults filled in, so
    /// `Pipeline::parse(&r, &p.to_text())` reconstructs `p` exactly.
    ///
    /// # Example
    ///
    /// ```
    /// use hida_opt::{registry, Pipeline};
    ///
    /// let pipeline = Pipeline::parse(
    ///     &registry(),
    ///     "construct,lower,parallelize{max-factor=8,device=zu3eg}",
    /// )
    /// .expect("a well-formed pipeline");
    /// assert_eq!(pipeline.len(), 3);
    /// // The text round-trips through the normalized invocations.
    /// let reparsed = Pipeline::parse(&registry(), &pipeline.to_text()).unwrap();
    /// assert_eq!(reparsed.to_text(), pipeline.to_text());
    /// ```
    ///
    /// # Errors
    /// Returns structured [`PipelineError`]s: parse errors with position and
    /// expected token, unknown pass names, and per-pass option failures.
    pub fn parse(registry: &Registry, text: &str) -> Result<Pipeline, PipelineError> {
        let passes = parse_pipeline(text)?
            .iter()
            .map(|invocation| registry.create(invocation))
            .collect::<Result<_, _>>()?;
        Ok(Pipeline {
            passes,
            verify_each: true,
            last: RunState::default(),
        })
    }

    /// Prints the pipeline in the textual syntax; the inverse of
    /// [`Pipeline::parse`].
    pub fn to_text(&self) -> String {
        print_pipeline(self.invocations())
    }

    /// The normalized pass invocations, in execution order.
    pub fn invocations(
        &self,
    ) -> impl DoubleEndedIterator<Item = &PassInvocation> + ExactSizeIterator {
        self.passes.iter().map(|(invocation, _)| invocation)
    }

    /// The standard HIDA-OPT pipeline of `options`: their text
    /// ([`HidaOptions::pipeline_text`]) parsed through the pass table, so
    /// option-built and string-built pipelines cannot drift apart. The tile
    /// size controls the tiling pass's membership; scalar options configure
    /// the individual pass instances.
    ///
    /// # Panics
    /// When the table rejects the options — a knob below 1, or a device
    /// outside `FpgaDevice::catalog()` — with the [`PipelineError`] message
    /// that `Pipeline::parse` of the same text returns. A `Compiler` reports
    /// the same options as a failed compilation instead.
    pub fn from_options(options: &HidaOptions) -> Self {
        Pipeline::parse(&crate::registry::registry(), &options.pipeline_text())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enables or disables inter-pass verification (on by default).
    pub fn with_verification(mut self, verify_each: bool) -> Self {
        self.verify_each = verify_each;
        self
    }

    /// Ignores `jobs`: a pipeline runs on the calling thread. Kept only because
    /// `benchmark/src/layers.rs:218` (frozen) calls it.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Names of the pass instances, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|(_, pass)| pass.name()).collect()
    }

    /// Per-pass statistics of the most recent [`Pipeline::run`] — a failed
    /// run's too, its last record marked `failed`.
    pub fn statistics(&self) -> &[PassStatistics] {
        &self.last.statistics
    }

    /// The analysis cache of the most recent [`Pipeline::run`].
    pub fn analyses(&self) -> &AnalysisManager {
        &self.last.analyses
    }

    /// Mutable access to that cache, so post-run reporting reuses the
    /// profiles the passes left behind instead of recomputing them.
    pub fn analyses_mut(&mut self) -> &mut AnalysisManager {
        &mut self.last.analyses
    }

    /// Executes every pass on `func` from a fresh [`RunState`], keeps that
    /// state for [`Pipeline::statistics`] and [`Pipeline::analyses`], and
    /// returns the structural schedule the passes produced.
    ///
    /// # Errors
    /// Propagates pass failures and inter-pass verification failures, and fails
    /// when the executed passes produced no schedule.
    pub fn run(&mut self, ctx: &mut Context, func: OpId) -> IrResult<ScheduleOp> {
        self.last = RunState::default();
        run_passes(&self.passes, self.verify_each, ctx, func, &mut self.last)?;
        lowered(ctx, func, "hida-pipeline")
    }

    /// Continues `checkpoint` with this pipeline's passes, from the first one
    /// it has not run up to (excluding) pass `upto`; the statistics are
    /// appended to the checkpoint's. The passes the checkpoint has already
    /// run must be this pipeline's first ones — run by this pipeline or by
    /// one whose [`Pipeline::invocations`] start with the same prefix.
    ///
    /// # Errors
    /// Propagates pass failures and inter-pass verification failures; the
    /// checkpoint then holds the failed run's statistics and nothing to
    /// continue from.
    pub fn resume(&self, checkpoint: &mut Checkpoint, upto: usize) -> IrResult<()> {
        run_passes(
            &self.passes[checkpoint.passes_done()..upto],
            self.verify_each,
            &mut checkpoint.ctx,
            checkpoint.func,
            &mut checkpoint.run,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_ir_core::PassOption;

    fn twomm_func(ctx: &mut Context) -> (OpId, OpId) {
        let module = ctx.create_module("m");
        let func = build_kernel(ctx, module, PolybenchKernel::TwoMm, 16);
        (module, func)
    }

    #[test]
    fn from_options_membership_follows_toggles() {
        let full = Pipeline::from_options(&HidaOptions::default());
        assert_eq!(
            full.pass_names(),
            vec![
                "hida-construct-dataflow",
                "hida-task-fusion",
                "hida-lower-structural",
                "hida-eliminate-multi-producers",
                "hida-tiling",
                "hida-balance-data-paths",
                "hida-parallelize",
            ]
        );

        let untiled = Pipeline::from_options(&HidaOptions {
            tile_size: None,
            ..HidaOptions::default()
        });
        assert_eq!(
            untiled.pass_names(),
            vec![
                "hida-construct-dataflow",
                "hida-task-fusion",
                "hida-lower-structural",
                "hida-eliminate-multi-producers",
                "hida-balance-data-paths",
                "hida-parallelize",
            ]
        );
    }

    #[test]
    fn parse_builds_the_same_flow_as_from_options() {
        let options = HidaOptions::polybench();
        let from_options = Pipeline::from_options(&options);
        let parsed =
            Pipeline::parse(&crate::registry::registry(), &options.pipeline_text()).unwrap();
        assert_eq!(parsed.pass_names(), from_options.pass_names());
        assert!(parsed.invocations().eq(from_options.invocations()));
    }

    #[test]
    fn to_text_round_trips_through_parse() {
        let registry = crate::registry::registry();
        let presets = [
            HidaOptions::default(),
            HidaOptions::polybench(),
            HidaOptions::dnn(),
        ];
        let texts = presets.map(|options| options.pipeline_text());
        let naive = "construct,lower,parallelize{mode=Naive}".to_string();
        for text in texts.into_iter().chain([naive]) {
            let pipeline = Pipeline::parse(&registry, &text).unwrap();
            let reparsed = Pipeline::parse(&registry, &pipeline.to_text()).unwrap();
            assert!(reparsed.invocations().eq(pipeline.invocations()));
            assert_eq!(reparsed.to_text(), pipeline.to_text());
        }
    }

    #[test]
    #[should_panic(expected = "invalid options for pass 'parallelize': \
                               option 'device': unknown device 'custom-board'")]
    fn from_options_panics_on_a_non_catalog_device() {
        let mut device = hida_estimator::device::FpgaDevice::vu9p_slr();
        device.name = "custom-board".to_string();
        let _ = Pipeline::from_options(&HidaOptions {
            device,
            ..HidaOptions::default()
        });
    }

    #[test]
    fn parsed_pipelines_execute_like_option_built_ones() {
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::parse(
            &crate::registry::registry(),
            "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,\
             parallelize{max-factor=16,mode=IA+CA,device=zu3eg}",
        )
        .unwrap();
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        assert!(!schedule.nodes(&ctx).is_empty());
        assert_eq!(pipeline.statistics().len(), 7);
    }

    #[test]
    fn pipeline_produces_schedule_and_statistics() {
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::from_options(&HidaOptions::polybench());
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        assert_eq!(schedule.nodes(&ctx).len(), 2);
        // One statistics record per executed pass, all verified.
        assert_eq!(pipeline.statistics().len(), pipeline.len());
        for stat in pipeline.statistics() {
            assert!(stat.verified);
        }
        // Construction creates ops; the recorded deltas see it.
        let construct_stat = &pipeline.statistics()[0];
        assert_eq!(construct_stat.pass, "hida-construct-dataflow");
        assert!(construct_stat.op_delta() > 0);
    }

    #[test]
    fn resuming_a_forked_checkpoint_equals_running_the_whole_pipeline() {
        let text = "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,\
                    parallelize{max-factor=16,mode=IA+CA,device=zu3eg}";
        let registry = crate::registry::registry();
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut whole = Pipeline::parse(&registry, text).unwrap();
        let schedule = whole.run(&mut ctx, func).unwrap();
        let expected_ir = hida_ir_core::printer::print_op(&ctx, module);

        // Stop after every prefix, including the empty and the full one, and
        // let a second pipeline — parsed on its own — finish a fork.
        for stop in 0..=whole.len() {
            let mut ctx = Context::new();
            let (module, func) = twomm_func(&mut ctx);
            let mut prefix = Checkpoint::new(ctx, module, func);
            let first = Pipeline::parse(&registry, text).unwrap();
            first.resume(&mut prefix, stop).unwrap();
            assert_eq!(prefix.passes_done(), stop);

            let second = Pipeline::parse(&registry, text).unwrap();
            let mut forked = prefix.fork();
            second.resume(&mut forked, second.len()).unwrap();
            assert_eq!(forked.schedule().unwrap(), schedule, "stop {stop}");
            assert_eq!(
                hida_ir_core::printer::print_op(&forked.ctx, forked.module),
                expected_ir,
                "stop {stop}"
            );
            let (_, _, statistics) = forked.into_parts();
            assert_eq!(
                PassStatistics::without_micros(&statistics),
                PassStatistics::without_micros(whole.statistics()),
                "stop {stop}: statistics and analysis-cache counters"
            );
            // The prefix itself still stands where it stopped.
            assert_eq!(prefix.passes_done(), stop);
        }
    }

    #[test]
    fn a_checkpoint_without_lowering_has_no_schedule() {
        let mut ctx = Context::new();
        let (module, func) = twomm_func(&mut ctx);
        let mut checkpoint = Checkpoint::new(ctx, module, func);
        let pipeline = Pipeline::parse(&crate::registry::registry(), "construct").unwrap();
        pipeline.resume(&mut checkpoint, 1).unwrap();
        let message = checkpoint.schedule().unwrap_err().to_string();
        assert_eq!(
            message,
            "pass 'hida-pipeline' failed: no hida.schedule in the function — \
             run hida-lower-structural first"
        );
    }

    #[test]
    fn structural_passes_fail_without_lowering() {
        let mut ctx = Context::new();
        let (_module, func) = twomm_func(&mut ctx);
        let mut pipeline = Pipeline::parse(
            &crate::registry::registry(),
            "construct,multi-producer-elim",
        )
        .unwrap();
        let err = pipeline.run(&mut ctx, func).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("hida-lower-structural"));
        // The manager must not re-wrap the pass's own attribution.
        assert_eq!(message.matches("failed:").count(), 1, "{message}");
    }

    #[test]
    fn a_structural_pass_before_lowering_fails_and_names_itself() {
        for (text, pass) in [
            ("construct,parallelize", "hida-parallelize"),
            ("construct,tiling", "hida-tiling"),
        ] {
            let mut ctx = Context::new();
            let (_module, func) = twomm_func(&mut ctx);
            let mut pipeline = Pipeline::parse(&crate::registry::registry(), text).unwrap();
            let message = pipeline.run(&mut ctx, func).unwrap_err().to_string();
            assert_eq!(
                message,
                format!(
                    "pass '{pass}' failed: no hida.schedule in the function — \
                     run hida-lower-structural first"
                ),
                "{text}"
            );
            let last = pipeline.statistics().last().unwrap();
            assert!(last.pass == pass && last.failed, "{text}");
        }
    }

    #[test]
    fn lowering_names_itself_once_when_there_is_nothing_to_lower() {
        let mut ctx = Context::new();
        let (_module, func) = twomm_func(&mut ctx);
        let mut pipeline =
            Pipeline::parse(&crate::registry::registry(), "construct,lower,lower").unwrap();
        let message = pipeline.run(&mut ctx, func).unwrap_err().to_string();
        assert_eq!(
            message,
            "pass 'hida-lower-structural' failed: \
             function contains no compute operations to lower"
        );
        assert!(pipeline.statistics()[2].failed);
    }

    #[test]
    fn every_structural_pass_finds_the_schedule_lowering_appended() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 96);
        let mut pipeline = Pipeline::parse(
            &crate::registry::registry(),
            "construct,lower,tiling,tiling,parallelize",
        )
        .unwrap();
        let schedule = pipeline.run(&mut ctx, func).unwrap();
        assert_eq!(
            ctx.collect_ops(func, hida_dataflow_ir::op_names::SCHEDULE),
            [schedule.id()]
        );
        assert_eq!(schedule.nodes(&ctx).len(), 2);
        // Both tilings tile the one schedule: each adds its tile buffers.
        let live_ops: Vec<usize> = pipeline
            .statistics()
            .iter()
            .map(|s| s.live_ops_after)
            .collect();
        assert_eq!(live_ops, [31, 28, 34, 40, 40]);
    }

    #[test]
    fn pass_options_are_recorded_in_statistics() {
        let mut ctx = Context::new();
        let (_module, func) = twomm_func(&mut ctx);
        let options = HidaOptions {
            tile_size: Some(4),
            ..HidaOptions::polybench()
        };
        let mut pipeline = Pipeline::from_options(&options);
        pipeline.run(&mut ctx, func).unwrap();
        let tiling = pipeline
            .statistics()
            .iter()
            .find(|s| s.pass == "hida-tiling")
            .unwrap();
        assert!(tiling
            .options
            .iter()
            .any(|o| o == &PassOption::new("tile-size", 4)));
        let parallelize = pipeline
            .statistics()
            .iter()
            .find(|s| s.pass == "hida-parallelize")
            .unwrap();
        assert!(parallelize
            .options
            .iter()
            .any(|o| o == &PassOption::new("mode", "IA+CA")));
    }
}
