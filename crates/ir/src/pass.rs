//! Pass abstraction and pass manager.
//!
//! HIDA-OPT is organised as a pipeline of passes over the IR (Functional dataflow
//! construction, task fusion, lowering, structural optimization, parallelization,
//! ...). The [`PassManager`] runs passes in order, verifies the IR between passes,
//! and records per-pass [`PassStatistics`].
//!
//! Passes communicate through a [`PipelineState`]: a typed, heterogeneous slot map
//! keyed by `TypeId`. A lowering pass can deposit the structural handle it produced
//! (e.g. a `ScheduleOp`) and every later pass retrieves it by type, which keeps the
//! `Pass` trait itself independent of any particular dialect crate.

// `PipelineState` slots are keyed by `TypeId`, which has no dense index; the
// map is touched a handful of times per pass, never inside an IR walk.
#![allow(clippy::disallowed_types)]

use crate::analysis::{AnalysisCacheStats, AnalysisManager, PreservedAnalyses};
use crate::context::Context;
use crate::error::{IrError, IrResult};
use crate::fault;
use crate::ids::OpId;
use crate::par::ParallelStats;
use crate::verifier::verify;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A stored slot value: any `Clone` type, so a whole [`PipelineState`] can be
/// copied when a run forks.
trait Slot: Any + Send + Sync {
    fn clone_slot(&self) -> Box<dyn Slot>;
}

impl<T: Any + Clone + Send + Sync> Slot for T {
    fn clone_slot(&self) -> Box<dyn Slot> {
        Box::new(self.clone())
    }
}

/// Typed cross-pass state: at most one value per Rust type.
///
/// The slot map lets structurally-typed results (schedules, analyses, caches) flow
/// from producing passes to consuming passes without widening the [`Pass`] trait
/// for every new artifact kind. Values are `Clone + Send + Sync`: a state is
/// copied whenever a run forks from a checkpoint, and checkpoints are shared
/// between the threads of a sweep.
#[derive(Default)]
pub struct PipelineState {
    slots: HashMap<TypeId, Box<dyn Slot>>,
}

impl PipelineState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning the previously stored value of the same type.
    pub fn insert<T: Any + Clone + Send + Sync>(&mut self, value: T) -> Option<T> {
        let old: Box<dyn Any> = self.slots.insert(TypeId::of::<T>(), Box::new(value))?;
        old.downcast::<T>().ok().map(|b| *b)
    }

    /// Borrows the stored value of type `T`, if any.
    pub fn get<T: Any>(&self) -> Option<&T> {
        let slot: &dyn Any = &**self.slots.get(&TypeId::of::<T>())?;
        slot.downcast_ref::<T>()
    }
}

impl Clone for PipelineState {
    fn clone(&self) -> Self {
        PipelineState {
            slots: self
                .slots
                .iter()
                .map(|(&id, slot)| (id, (**slot).clone_slot()))
                .collect(),
        }
    }
}

impl fmt::Debug for PipelineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineState")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// One configured option of a pass instance (`name = value`), recorded into the
/// pass's [`PassStatistics`] so pipeline reports show the exact configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PassOption {
    /// Option name (e.g. `"tile-size"`).
    pub name: String,
    /// Rendered option value (e.g. `"8"`).
    pub value: String,
}

impl PassOption {
    /// Creates an option from any displayable value.
    pub fn new(name: impl Into<String>, value: impl fmt::Display) -> Self {
        PassOption {
            name: name.into(),
            value: value.to_string(),
        }
    }
}

impl fmt::Display for PassOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A transformation or analysis applied to the IR rooted at a module op.
///
/// Passes are `Send + Sync` so one configured pipeline can be shared by the
/// design points a sweep compiles concurrently; a pass itself runs on the
/// thread that called the [`PassManager`].
pub trait Pass: Send + Sync {
    /// Unique, human-readable pass name (e.g. `"hida-task-fusion"`).
    fn name(&self) -> &str;

    /// The instance's configured options, recorded into its statistics.
    fn options(&self) -> Vec<PassOption> {
        Vec::new()
    }

    /// Whether the IR should be re-verified after this pass. The pass manager's
    /// global verification toggle must also be enabled; analysis-only passes can
    /// return `false` to skip the redundant walk.
    fn verify_after(&self) -> bool {
        true
    }

    /// The analyses this pass provably does not invalidate. The pass manager
    /// keeps the declared entries alive across the pass's generation bumps
    /// (and, in debug builds, verifies the declaration by recomputation at pass
    /// exit). The conservative default invalidates everything.
    fn preserved_analyses(&self) -> PreservedAnalyses {
        PreservedAnalyses::none()
    }

    /// Runs the pass over the IR rooted at `root`. Cross-pass artifacts are
    /// exchanged through `state`; structural facts (profiles, graphs) are
    /// fetched through `analyses` so repeated queries hit the cache.
    ///
    /// # Errors
    /// Returns an error when the pass cannot complete; the pass manager aborts the
    /// pipeline in that case.
    fn run(
        &self,
        ctx: &mut Context,
        root: OpId,
        state: &mut PipelineState,
        analyses: &mut AnalysisManager,
    ) -> IrResult<()>;
}

/// Timing and size statistics recorded for each executed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStatistics {
    /// Name of the executed pass.
    pub pass: String,
    /// Wall-clock duration in microseconds (excluding post-pass verification).
    pub micros: u128,
    /// Number of live ops before the pass.
    pub live_ops_before: usize,
    /// Number of live ops after the pass.
    pub live_ops_after: usize,
    /// Whether the IR this pass left was verified: by a walk, or — after a
    /// pass that changed no structure — by the [`Verified`] record of the
    /// pass before it.
    pub verified: bool,
    /// True when this pass aborted the pipeline (its own failure or a post-pass
    /// verification failure); always the last record of a failing run.
    pub failed: bool,
    /// Analysis cache traffic attributed to this pass.
    pub cache: AnalysisCacheStats,
    /// Always `None`: a pass runs on the calling thread. Kept only because
    /// `benchmark/src/layers.rs:278` (frozen) reads it.
    #[doc(hidden)]
    pub parallel: Option<ParallelStats>,
    /// The pass instance's configured options.
    pub options: Vec<PassOption>,
}

impl PassStatistics {
    /// Net change in live op count produced by the pass (positive = ops created).
    pub fn op_delta(&self) -> i64 {
        self.live_ops_after as i64 - self.live_ops_before as i64
    }

    /// The records of a pass sequence with `micros` zeroed: everything a run
    /// records except how long it took — what two runs of the same passes
    /// over the same IR agree on, whether or not they shared a prefix.
    pub fn without_micros(statistics: &[PassStatistics]) -> Vec<PassStatistics> {
        let zeroed = |s: &PassStatistics| PassStatistics {
            micros: 0,
            ..s.clone()
        };
        statistics.iter().map(zeroed).collect()
    }

    /// Sums the analysis-cache counters of a pass sequence (pipeline reports,
    /// `--stats-json`, `CompilationResult::analysis_cache`).
    pub fn aggregate_cache(statistics: &[PassStatistics]) -> AnalysisCacheStats {
        let mut totals = AnalysisCacheStats::default();
        for stat in statistics {
            totals.accumulate(&stat.cache);
        }
        totals
    }
}

impl fmt::Display for PassStatistics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} us, ops {} -> {} ({:+})",
            self.pass,
            self.micros,
            self.live_ops_before,
            self.live_ops_after,
            self.op_delta()
        )?;
        if self.cache.total_queries() > 0 || self.cache.preserved > 0 {
            write!(f, ", analyses {}", self.cache)?;
        }
        if !self.options.is_empty() {
            let rendered: Vec<String> = self.options.iter().map(|o| o.to_string()).collect();
            write!(f, " [{}]", rendered.join(", "))?;
        }
        if self.failed {
            write!(f, " FAILED")?;
        }
        Ok(())
    }
}

/// Where the IR last passed verification: the subtree below `root`, in one
/// context, at one reading of its [structure counter](Context::structure).
/// The record [holds](Verified::holds_for) exactly as long as nothing but
/// attributes (and name hints) of that context has been written since.
/// [`verifier`](crate::verifier) reads parent links, result back-links,
/// operand visibility — operand lists, value definitions, liveness, op
/// order — and the `isolated` flag, and no attribute: while the record
/// holds, walking the subtree again would find what the walk that made the
/// record found. [`PassManager::run_range`] then does not walk after a pass,
/// and [`verify_except`](crate::verifier::verify_except) may leave the
/// subtree out. A verifier that reads attributes must not skip by this
/// record; it keys on [`Context::generation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verified {
    context: u64,
    root: OpId,
    structure: u64,
}

impl Verified {
    fn at(ctx: &Context, root: OpId) -> Self {
        Verified {
            context: ctx.id(),
            root,
            structure: ctx.structure(),
        }
    }

    /// The op whose subtree was verified.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// True when `ctx` is the context the record was made in and no
    /// structural mutation has moved its [structure
    /// counter](Context::structure) since.
    pub fn holds_for(&self, ctx: &Context) -> bool {
        self.context == ctx.id() && self.structure == ctx.structure()
    }
}

/// What a run of a pass list carries from pass to pass besides the IR itself:
/// the typed slots the passes hand each other, the analysis cache, and one
/// statistics record per pass run so far. Together with the [`Context`] it is
/// everything a run needs to stop between two passes and continue later — or,
/// [forked](RunState::fork), to continue several times.
#[derive(Debug, Default)]
pub struct RunState {
    /// Typed artifacts deposited by the passes run so far.
    pub slots: PipelineState,
    /// The analysis cache threaded through every pass.
    pub analyses: AnalysisManager,
    /// One record per pass run so far, in execution order; a failed run's
    /// last record is marked `failed`.
    pub statistics: Vec<PassStatistics>,
    /// The post-pass verification of the *last* pass run, when that pass was
    /// verified — by a walk, or by the record of the pass before it still
    /// holding: `None` after a pass that opted out of
    /// [`Pass::verify_after`], with inter-pass verification off, and after a
    /// failed run, so the next pass finds nothing to trust.
    pub verified: Option<Verified>,
}

impl RunState {
    /// The state a run over `fork` — a clone of `original` as it stands now —
    /// continues from: the slots and statistics copied, the analysis cache
    /// carried over under the clone's identity
    /// ([`AnalysisManager::fork`]), so the passes still to come behave, hit
    /// and miss exactly as they would have on `original`.
    pub fn fork(&self, original: &Context, fork: &Context) -> RunState {
        RunState {
            slots: self.slots.clone(),
            analyses: self.analyses.fork(original, fork),
            statistics: self.statistics.clone(),
            // A clone is at its original's structure counter: what held there
            // holds here, under the clone's identity.
            verified: self
                .verified
                .filter(|verified| verified.holds_for(original))
                .map(|verified| Verified::at(fork, verified.root)),
        }
    }
}

/// Runs a sequence of passes with optional inter-pass verification. The
/// passes run over a [`RunState`]: its [`AnalysisManager`] is threaded
/// through every pass, so cached analyses survive from pass to pass and
/// per-pass cache traffic lands in [`PassStatistics`]. [`PassManager::run`]
/// keeps the state of its most recent run; [`PassManager::run_range`] runs
/// part of the list over a state the caller holds.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    /// Analyses and statistics of the most recent [`PassManager::run`].
    last: RunState,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// Creates an empty pass manager with inter-pass verification enabled.
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            verify_each: true,
            last: RunState::default(),
        }
    }

    /// Enables or disables verification after each pass.
    pub fn with_verification(mut self, verify_each: bool) -> Self {
        self.verify_each = verify_each;
        self
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns true when no passes are registered.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name().to_string()).collect()
    }

    /// Statistics of the most recent [`PassManager::run`] invocation — a
    /// failed run's too, its last record marked `failed`.
    pub fn statistics(&self) -> &[PassStatistics] {
        &self.last.statistics
    }

    /// The analysis cache of [`PassManager::run`].
    pub fn analyses(&self) -> &AnalysisManager {
        &self.last.analyses
    }

    /// Mutable access to that cache, e.g. for post-pipeline reporting that
    /// wants to reuse results the passes left behind.
    pub fn analyses_mut(&mut self) -> &mut AnalysisManager {
        &mut self.last.analyses
    }

    /// Runs all registered passes in order over the IR rooted at `root` — the
    /// whole range from empty slots — returning the final pipeline state so
    /// callers can extract produced artifacts. The manager's own analysis
    /// cache is kept from run to run.
    ///
    /// # Errors
    /// Propagates the first pass failure or inter-pass verification failure.
    pub fn run(&mut self, ctx: &mut Context, root: OpId) -> IrResult<PipelineState> {
        let mut run = std::mem::take(&mut self.last);
        run.slots = PipelineState::new();
        run.statistics.clear();
        run.verified = None;
        // Entries from other contexts (a reused manager across compiles) can
        // never be valid here; drop them before any counters are recorded.
        run.analyses.retain_context(ctx);
        let result = self.run_range(ctx, root, 0..self.passes.len(), &mut run);
        let slots = std::mem::take(&mut run.slots);
        self.last = run;
        result.map(|()| slots)
    }

    /// Runs the passes at `range` of the list over `run`, a state the caller
    /// holds — a fresh one, or one an earlier call (of this manager or of one
    /// with an equal pass prefix) left off at `range.start` — and appends
    /// their statistics to it.
    ///
    /// # Errors
    /// Propagates the first pass failure or inter-pass verification failure.
    pub fn run_range(
        &self,
        ctx: &mut Context,
        root: OpId,
        range: Range<usize>,
        run: &mut RunState,
    ) -> IrResult<()> {
        let RunState {
            slots: state,
            analyses,
            statistics,
            verified: last_verified,
        } = run;
        for pass in &self.passes[range] {
            // The previous pass's record; trusted below only if this pass is
            // verified too, and gone whatever this pass turns out to be.
            let trusted = last_verified.take();
            let name = pass.name();
            let live_ops_before = ctx.num_live_ops();
            analyses.begin_pass(ctx, name, pass.preserved_analyses());
            let start = Instant::now();
            // Built only for the error of a cancelled or panicking pass.
            let site = || format!("pass '{name}'");
            // Pass boundaries are cancellation checkpoints: a deadline or an
            // explicit cancel stops the pipeline here, before the next pass
            // starts, with a deterministic `Cancelled` error.
            let result = fault::checkpoint(site).and_then(|()| {
                // The pass body runs under `catch_unwind`, so a panicking
                // pass (injected or real) becomes a structured `WorkerPanic`
                // failure instead of aborting the process. The injection
                // hook fires *inside* the caught region to exercise exactly
                // this machinery.
                catch_unwind(AssertUnwindSafe(|| {
                    fault::injected_pass_panic(name);
                    pass.run(ctx, root, state, analyses)
                }))
                .unwrap_or_else(|payload| Err(fault::error_from_panic(&site(), payload)))
            });
            let result = result.map_err(|e| {
                match e {
                    // Don't re-wrap errors the pass already attributed to itself.
                    IrError::PassFailed { pass: ref p, .. } if p == name => e,
                    // Structured fault and cancellation errors keep their
                    // variant so callers can classify the failure; wrapping
                    // would collapse them into a generic `PassFailed`.
                    e @ (IrError::Cancelled { .. }
                    | IrError::WorkerPanic { .. }
                    | IrError::StoreDegraded(_)) => e,
                    other => IrError::pass_failed(name, other.to_string()),
                }
            });
            let micros = start.elapsed().as_micros();
            // Even a failing pass leaves a statistics record, so pipeline
            // reports show where and after how long a run died. One record
            // per pass: it owns the only copies of the name and the options.
            let record = |verified: bool, failed: bool, cache: AnalysisCacheStats| PassStatistics {
                pass: name.to_string(),
                micros,
                live_ops_before,
                live_ops_after: ctx.num_live_ops(),
                verified,
                failed,
                cache,
                parallel: None,
                options: pass.options(),
            };
            if let Err(error) = result {
                let cache = analyses.abort_pass(ctx);
                statistics.push(record(false, true, cache));
                return Err(error);
            }
            let (cache, lie) = analyses.end_pass(ctx);
            if let Some(lie) = lie {
                statistics.push(record(false, true, cache));
                return Err(IrError::pass_failed(name, lie.to_string()));
            }
            let verified = self.verify_each && pass.verify_after();
            if verified {
                // A pass that wrote attributes only left the IR where the
                // walk behind `trusted` found it: verified, by that record.
                let already_walked = trusted.is_some_and(|v| v.root == root && v.holds_for(ctx));
                if !already_walked {
                    if let Err(e) = verify(ctx, root) {
                        statistics.push(record(false, true, cache));
                        return Err(IrError::pass_failed(
                            name,
                            format!("post-pass verification: {e}"),
                        ));
                    }
                }
                *last_verified = Some(Verified::at(ctx, root));
            }
            statistics.push(record(verified, false, cache));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    struct CountConstantsPass {
        expected: usize,
    }

    impl Pass for CountConstantsPass {
        fn name(&self) -> &str {
            "count-constants"
        }
        fn options(&self) -> Vec<PassOption> {
            vec![PassOption::new("expected", self.expected)]
        }
        fn verify_after(&self) -> bool {
            // Analysis-only: nothing to re-verify.
            false
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            let n = ctx.collect_ops(root, "arith.constant").len();
            if n == self.expected {
                Ok(())
            } else {
                Err(IrError::verification(format!(
                    "expected {} constants, found {n}",
                    self.expected
                )))
            }
        }
    }

    struct EraseConstantsPass;

    impl Pass for EraseConstantsPass {
        fn name(&self) -> &str {
            "erase-constants"
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            let mut erased = 0_usize;
            for op in ctx.collect_ops(root, "arith.constant") {
                ctx.erase_op(op);
                erased += 1;
            }
            state.insert(ErasedCount(erased));
            Ok(())
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct ErasedCount(usize);

    fn module_with_constants(ctx: &mut Context, n: usize) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        for i in 0..n {
            b.create_constant_int(i as i64, Type::i32());
        }
        module
    }

    #[test]
    fn pipeline_runs_passes_in_order_and_records_statistics() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 3 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 0 }));
        assert_eq!(pm.len(), 3);
        assert!(!pm.is_empty());
        assert_eq!(
            pm.pass_names(),
            vec!["count-constants", "erase-constants", "count-constants"]
        );
        let state = pm.run(&mut ctx, module).unwrap();
        assert_eq!(pm.statistics().len(), 3);
        assert_eq!(pm.statistics()[0].pass, "count-constants");
        assert!(pm.statistics()[1].live_ops_after < pm.statistics()[1].live_ops_before);
        assert_eq!(pm.statistics()[1].op_delta(), -3);
        assert_eq!(pm.statistics()[0].op_delta(), 0);
        // The erase pass deposited its artifact into the pipeline state.
        assert_eq!(state.get::<ErasedCount>(), Some(&ErasedCount(3)));
    }

    #[test]
    fn the_run_state_records_the_last_pass_verification_and_nothing_older() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 0 }));

        // After the verifying pass the record names the root and holds…
        let mut run = RunState::default();
        pm.run_range(&mut ctx, module, 0..1, &mut run).unwrap();
        let verified = run.verified.expect("erase-constants verifies after itself");
        assert_eq!(verified.root(), module);
        assert!(verified.holds_for(&ctx));

        // …a fork carries it over under the clone's identity…
        let fork = ctx.clone();
        let forked = run.fork(&ctx, &fork).verified.expect("forked with the run");
        assert!(forked.holds_for(&fork) && !forked.holds_for(&ctx));
        assert!(!verified.holds_for(&fork));

        // …a last pass that opts out of `verify_after` leaves none behind,
        // untouched IR or not; an attribute edit leaves the old one holding,
        // any structural mutation outdates it.
        pm.run_range(&mut ctx, module, 1..2, &mut run).unwrap();
        assert_eq!(run.verified, None);
        ctx.set_attr(module, "touched", true);
        assert!(verified.holds_for(&ctx));
        ctx.op_mut(module).isolated = true;
        assert!(!verified.holds_for(&ctx));

        // With inter-pass verification off there is never one.
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new().with_verification(false);
        pm.add_pass(Box::new(EraseConstantsPass));
        let mut run = RunState::default();
        pm.run_range(&mut ctx, module, 0..1, &mut run).unwrap();
        assert_eq!(run.verified, None);
    }

    /// A pass over the first constant of the module, configured by what it
    /// does to it.
    struct EditPass {
        name: &'static str,
        edit: fn(&mut Context, OpId),
        verify_after: bool,
    }

    impl EditPass {
        fn boxed(name: &'static str, edit: fn(&mut Context, OpId)) -> Box<dyn Pass> {
            Box::new(EditPass {
                name,
                edit,
                verify_after: true,
            })
        }
    }

    impl Pass for EditPass {
        fn name(&self) -> &str {
            self.name
        }
        fn verify_after(&self) -> bool {
            self.verify_after
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            let constant = ctx.collect_ops(root, "arith.constant")[0];
            (self.edit)(ctx, constant);
            Ok(())
        }
    }

    fn annotate(ctx: &mut Context, constant: OpId) {
        ctx.set_attr(constant, "annotated", true);
    }

    /// Appends to the first constant an operand defined after it: invalid IR.
    fn use_before_def(ctx: &mut Context, constant: OpId) {
        let block = ctx.op(constant).parent_block.unwrap();
        let (_, late) = ctx.build_op(block, "arith.constant", vec![], vec![Type::i32()], vec![]);
        ctx.add_operand(constant, late[0]);
    }

    /// Runs `pass` alone over `run` and returns the record the run held
    /// before it and the one it holds after.
    fn records_around(
        pass: Box<dyn Pass>,
        ctx: &mut Context,
        module: OpId,
        run: &mut RunState,
    ) -> (Option<Verified>, IrResult<Option<Verified>>) {
        let before = run.verified;
        let mut pm = PassManager::new();
        pm.add_pass(pass);
        let result = pm.run_range(ctx, module, 0..1, run);
        (before, result.map(|()| run.verified))
    }

    /// A context whose module passed a walking verification, and the run
    /// state holding the record of it.
    fn verified_module(constants: usize) -> (Context, OpId, RunState) {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, constants);
        let mut run = RunState::default();
        let noop = EditPass::boxed("noop", |_, _| ());
        let (_, after) = records_around(noop, &mut ctx, module, &mut run);
        assert!(after.unwrap().is_some());
        (ctx, module, run)
    }

    #[test]
    fn an_attribute_only_pass_is_verified_by_the_record_of_the_pass_before_it() {
        let (mut ctx, module, mut run) = verified_module(2);
        let structure = ctx.structure();
        let (before, after) = records_around(
            EditPass::boxed("annotate", annotate),
            &mut ctx,
            module,
            &mut run,
        );
        // No walk: the structure counter did not move, so the re-stamped
        // record is the one the earlier walk made, and it still holds.
        assert_eq!(ctx.structure(), structure);
        assert_eq!(after.unwrap(), before);
        assert!(run.verified.unwrap().holds_for(&ctx));
        assert!(run.statistics.last().unwrap().verified);

        // A pass that also moves a use before its def moves the counter, is
        // walked, and is rejected as it always was.
        let (_, after) = records_around(
            EditPass::boxed("annotate-and-break", |ctx, constant| {
                annotate(ctx, constant);
                use_before_def(ctx, constant);
            }),
            &mut ctx,
            module,
            &mut run,
        );
        let error = after.unwrap_err().to_string();
        assert!(
            error.contains("annotate-and-break") && error.contains("post-pass verification"),
            "{error}"
        );
        assert!(error.contains("not visible"), "{error}");
        assert_eq!(run.verified, None);
        let failed = run.statistics.last().unwrap();
        assert!(failed.failed && !failed.verified);
    }

    #[test]
    fn a_structural_pass_is_walked_whatever_record_precedes_it() {
        type Edit = fn(&mut Context, OpId);
        let edits: [(&'static str, Edit); 3] = [
            ("erase", |ctx, constant| ctx.erase_op(constant)),
            ("add-operand", |ctx, constant| {
                let first = ctx.op(constant).results[0];
                let other = ctx.collect_ops(ctx.parent_op(constant).unwrap(), "arith.constant")[1];
                ctx.add_operand(other, first);
            }),
            ("flip-isolated", |ctx, constant| {
                ctx.op_mut(constant).isolated = true;
            }),
        ];
        for (name, edit) in edits {
            let (mut ctx, module, mut run) = verified_module(2);
            let (before, after) =
                records_around(EditPass::boxed(name, edit), &mut ctx, module, &mut run);
            let (before, after) = (before.unwrap(), after.unwrap().unwrap());
            assert_ne!(after, before, "{name}: a new record, by a new walk");
            assert!(!before.holds_for(&ctx) && after.holds_for(&ctx), "{name}");
        }
        // The same walk rejects what the skip would have let through.
        let (mut ctx, module, mut run) = verified_module(2);
        let broken = EditPass::boxed("break", use_before_def);
        assert!(records_around(broken, &mut ctx, module, &mut run)
            .1
            .is_err());
    }

    #[test]
    fn a_pass_that_is_not_verified_leaves_no_record_for_the_next_to_trust() {
        // `verify_after() == false`: the record is gone although nothing changed…
        let (mut ctx, module, mut run) = verified_module(2);
        let unverified = Box::new(EditPass {
            name: "break-unverified",
            edit: use_before_def,
            verify_after: false,
        });
        let (_, after) = records_around(unverified, &mut ctx, module, &mut run);
        assert_eq!(after.unwrap(), None);
        // …so the attribute-only pass after it walks, and finds the break.
        let (before, after) = records_around(
            EditPass::boxed("annotate", annotate),
            &mut ctx,
            module,
            &mut run,
        );
        assert_eq!(before, None);
        assert!(after.unwrap_err().to_string().contains("not visible"));

        // Verification off: no record, before or after.
        let (mut ctx, module, mut run) = verified_module(2);
        let mut pm = PassManager::new().with_verification(false);
        pm.add_pass(EditPass::boxed("annotate", annotate));
        pm.run_range(&mut ctx, module, 0..1, &mut run).unwrap();
        assert_eq!(run.verified, None);
        assert!(!run.statistics.last().unwrap().verified);

        // A record for another root is not trusted either.
        let (mut ctx, module, mut run) = verified_module(2);
        let func = ctx.find_in_body(module, "func.func").unwrap();
        let (before, after) = records_around(
            EditPass::boxed("annotate", annotate),
            &mut ctx,
            func,
            &mut run,
        );
        assert_eq!(before.unwrap().root(), module);
        assert_eq!(after.unwrap().unwrap().root(), func);
    }

    #[test]
    fn a_fork_re_issues_the_record_so_its_attribute_only_pass_is_not_walked() {
        let (mut ctx, module, run) = verified_module(2);
        let mut fork = ctx.clone();
        let mut forked = run.fork(&ctx, &fork);
        let record = forked.verified.expect("re-issued");
        assert!(record.holds_for(&fork) && !record.holds_for(&ctx));
        let (before, after) = records_around(
            EditPass::boxed("annotate", annotate),
            &mut fork,
            module,
            &mut forked,
        );
        assert_eq!(after.unwrap(), before);
        // A record that no longer holds for the original is not carried over.
        ctx.op_mut(module).isolated = true;
        assert_eq!(run.fork(&ctx, &ctx.clone()).verified, None);
    }

    #[test]
    fn pipeline_aborts_on_pass_failure() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 99 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(matches!(err, IrError::PassFailed { .. }));
        // The failing pipeline never reached the erase pass.
        assert_eq!(ctx.collect_ops(module, "arith.constant").len(), 2);
    }

    #[test]
    fn inter_pass_verification_catches_broken_ir() {
        struct BreakIrPass;
        impl Pass for BreakIrPass {
            fn name(&self) -> &str {
                "break-ir"
            }
            fn run(
                &self,
                ctx: &mut Context,
                root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                // Erase a constant that still has users, leaving a dangling operand.
                let consts = ctx.collect_ops(root, "arith.constant");
                let c = consts[0];
                let result = ctx.op(c).results[0];
                let block = ctx.op(c).parent_block.unwrap();
                ctx.build_op(block, "arith.negi", vec![result], vec![Type::i32()], vec![]);
                ctx.erase_op(c);
                Ok(())
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(BreakIrPass));
        assert!(pm.run(&mut ctx, module).is_err());

        // With verification disabled, the same pipeline "succeeds".
        let mut ctx2 = Context::new();
        let module2 = module_with_constants(&mut ctx2, 1);
        let mut pm2 = PassManager::new().with_verification(false);
        pm2.add_pass(Box::new(BreakIrPass));
        assert!(pm2.run(&mut ctx2, module2).is_ok());
        assert!(!pm2.statistics()[0].verified);
    }

    #[test]
    fn per_pass_verification_toggle_is_respected() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.run(&mut ctx, module).unwrap();
        // The analysis pass opted out of verification, the transform did not.
        assert!(!pm.statistics()[0].verified);
        assert!(pm.statistics()[1].verified);
    }

    #[test]
    fn pipeline_state_slots_are_typed() {
        let mut state = PipelineState::new();
        assert_eq!(state.get::<i64>(), None);
        assert_eq!(state.insert(3_i64), None);
        assert_eq!(state.insert("hello"), None);
        assert_eq!(state.get::<i64>(), Some(&3));
        assert_eq!(state.get::<&str>(), Some(&"hello"));
        assert_eq!(state.get::<f64>(), None);
        // Replacing returns the old value; a copy has slots of its own.
        let copy = state.clone();
        assert_eq!(state.insert(4_i64), Some(3));
        assert_eq!(state.get::<i64>(), Some(&4));
        assert_eq!(copy.get::<i64>(), Some(&3));
        assert_eq!(copy.get::<&str>(), Some(&"hello"));
    }

    #[test]
    fn statistics_and_options_render_for_reports() {
        let stats = PassStatistics {
            pass: "hida-tiling".into(),
            micros: 120,
            live_ops_before: 10,
            live_ops_after: 14,
            verified: true,
            failed: false,
            cache: AnalysisCacheStats {
                hits: 3,
                misses: 1,
                invalidations: 0,
                preserved: 2,
            },
            parallel: None,
            options: vec![PassOption::new("tile-size", 8)],
        };
        let rendered = stats.to_string();
        assert!(rendered.contains("hida-tiling"));
        assert!(rendered.contains("10 -> 14 (+4)"));
        assert!(rendered.contains("tile-size=8"));
        assert!(rendered.contains("3 hit / 1 miss"));
        assert!(!rendered.contains("FAILED"));
        assert_eq!(stats.op_delta(), 4);
    }

    #[test]
    fn failing_pass_still_records_statistics() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 99 }));
        pm.add_pass(Box::new(EraseConstantsPass));
        assert!(pm.run(&mut ctx, module).is_err());
        // The aborting pass leaves a (failed) record; the never-run third pass
        // does not.
        assert_eq!(pm.statistics().len(), 2);
        assert!(!pm.statistics()[0].failed);
        let aborted = &pm.statistics()[1];
        assert_eq!(aborted.pass, "count-constants");
        assert!(aborted.failed);
        assert!(!aborted.verified);
        assert!(aborted.to_string().contains("FAILED"));
    }

    /// Toy analysis for preservation tests: the number of constants below root.
    #[derive(Debug, Clone, PartialEq)]
    struct ConstantCount(usize);

    impl crate::analysis::Analysis for ConstantCount {
        const NAME: &'static str = "constant-count";
        fn compute(ctx: &Context, root: OpId) -> Self {
            ConstantCount(ctx.collect_ops(root, "arith.constant").len())
        }
    }

    /// Queries the analysis and records whether the query hit the cache.
    struct QueryCountPass;

    impl Pass for QueryCountPass {
        fn name(&self) -> &str {
            "query-count"
        }
        fn verify_after(&self) -> bool {
            false
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            analyses.get::<ConstantCount>(ctx, root);
            Ok(())
        }
    }

    /// Mutates the IR in a way that provably keeps the constant count stable
    /// (attribute annotation only) and declares so.
    struct AnnotatePass;

    impl Pass for AnnotatePass {
        fn name(&self) -> &str {
            "annotate"
        }
        fn preserved_analyses(&self) -> PreservedAnalyses {
            PreservedAnalyses::none().preserve::<ConstantCount>()
        }
        fn run(
            &self,
            ctx: &mut Context,
            root: OpId,
            _state: &mut PipelineState,
            _analyses: &mut AnalysisManager,
        ) -> IrResult<()> {
            ctx.set_attr(root, "annotated", 1_i64);
            Ok(())
        }
    }

    #[test]
    fn declared_preservation_keeps_analyses_alive_across_a_mutating_pass() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(AnnotatePass));
        pm.add_pass(Box::new(QueryCountPass));
        pm.run(&mut ctx, module).unwrap();
        let stats = pm.statistics();
        assert_eq!(stats[0].cache.misses, 1);
        assert_eq!(stats[1].cache.preserved, 1, "annotate kept the entry alive");
        assert_eq!(
            stats[2].cache.hits, 1,
            "the second query must be served from the preserved cache"
        );
        assert_eq!(stats[2].cache.misses, 0);
    }

    #[test]
    fn undeclared_mutation_forces_recomputation() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(EraseConstantsPass)); // preserves nothing
        pm.add_pass(Box::new(QueryCountPass));
        pm.run(&mut ctx, module).unwrap();
        let stats = pm.statistics();
        assert_eq!(stats[1].cache.invalidations, 1);
        assert_eq!(stats[2].cache.misses, 1);
        assert_eq!(stats[2].cache.hits, 0);
    }

    /// The preservation pipeline of the two tests above, which both hits and
    /// invalidates the cache.
    fn query_annotate_erase_query() -> PassManager {
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(AnnotatePass));
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(QueryCountPass));
        pm
    }

    #[test]
    fn a_run_stopped_at_any_pass_and_resumed_on_a_fork_equals_the_whole_run() {
        let mut whole_ctx = Context::new();
        let whole_module = module_with_constants(&mut whole_ctx, 3);
        let mut whole = query_annotate_erase_query();
        let whole_state = whole.run(&mut whole_ctx, whole_module).unwrap();
        let expected = PassStatistics::without_micros(whole.statistics());
        assert_eq!(
            expected[2].cache.hits, 1,
            "the pipeline exercises the cache"
        );
        assert_eq!(expected[4].cache.misses, 1);

        for stop in 0..=5 {
            let mut ctx = Context::new();
            let module = module_with_constants(&mut ctx, 3);
            let first = query_annotate_erase_query();
            let mut run = RunState::default();
            first
                .run_range(&mut ctx, module, 0..stop, &mut run)
                .unwrap();
            assert_eq!(run.statistics.len(), stop);

            // Two continuations from the same stop, by a manager of their
            // own: neither sees the other, both see what the prefix cached.
            for _ in 0..2 {
                let mut forked_ctx = ctx.clone();
                let mut forked = run.fork(&ctx, &forked_ctx);
                let second = query_annotate_erase_query();
                second
                    .run_range(&mut forked_ctx, module, stop..5, &mut forked)
                    .unwrap();
                assert_eq!(
                    PassStatistics::without_micros(&forked.statistics),
                    expected,
                    "stop {stop}"
                );
                assert_eq!(
                    forked.slots.get::<ErasedCount>(),
                    whole_state.get::<ErasedCount>()
                );
                assert_eq!(
                    crate::printer::print_op(&forked_ctx, module),
                    crate::printer::print_op(&whole_ctx, whole_module)
                );
            }
            // The original is untouched by its forks.
            assert_eq!(run.statistics.len(), stop);
            assert_eq!(
                ctx.collect_ops(module, "arith.constant").len(),
                if stop > 3 { 0 } else { 3 }
            );
        }
    }

    #[test]
    fn run_range_appends_to_the_statistics_it_is_given() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 99 }));
        let mut run = RunState::default();
        pm.run_range(&mut ctx, module, 0..1, &mut run).unwrap();
        assert!(pm.run_range(&mut ctx, module, 1..2, &mut run).is_err());
        let passes: Vec<&str> = run.statistics.iter().map(|s| s.pass.as_str()).collect();
        assert_eq!(passes, ["erase-constants", "count-constants"]);
        assert!(run.statistics[1].failed);
        // `run` keeps no record of ranges run over a caller's state.
        assert!(pm.statistics().is_empty());
    }

    #[test]
    fn panicking_pass_is_isolated_into_a_structured_failure() {
        crate::fault::silence_expected_panics();
        struct PanicPass;
        impl Pass for PanicPass {
            fn name(&self) -> &str {
                "panic-pass"
            }
            fn run(
                &self,
                _ctx: &mut Context,
                _root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                panic!("injected fault: deliberate unwind");
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(PanicPass));
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        let err = pm.run(&mut ctx, module).unwrap_err();
        match &err {
            IrError::WorkerPanic { site, message } => {
                assert_eq!(site, "pass 'panic-pass'");
                assert!(message.contains("deliberate unwind"));
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The panicking pass left a failed record; the second pass never ran.
        assert_eq!(pm.statistics().len(), 1);
        assert!(pm.statistics()[0].failed);
    }

    #[test]
    fn injected_pass_panic_fires_under_an_installed_point_guard() {
        crate::fault::silence_expected_panics();
        let token = crate::fault::CancelToken::new();
        let faults = crate::fault::PointFaults {
            pass_panic: true,
            ..Default::default()
        };
        let _guard = crate::fault::install_point(token, Some(faults));
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 1);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(CountConstantsPass { expected: 1 }));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(
            matches!(&err, IrError::WorkerPanic { message, .. } if message.contains("injected")),
            "expected an injected WorkerPanic, got {err:?}"
        );
    }

    #[test]
    fn cancelled_token_stops_the_pipeline_at_a_pass_boundary() {
        let token = crate::fault::CancelToken::new();
        token.cancel();
        let _guard = crate::fault::install_point(token, None);
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new();
        pm.add_pass(Box::new(EraseConstantsPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        assert!(
            matches!(&err, IrError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
        // The pass never ran: its mutation did not happen.
        assert_eq!(ctx.collect_ops(module, "arith.constant").len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lying_preservation_declaration_fails_the_pipeline() {
        /// Erases a constant while claiming the count is preserved.
        struct LyingPass;
        impl Pass for LyingPass {
            fn name(&self) -> &str {
                "liar"
            }
            fn preserved_analyses(&self) -> PreservedAnalyses {
                PreservedAnalyses::none().preserve::<ConstantCount>()
            }
            fn run(
                &self,
                ctx: &mut Context,
                root: OpId,
                _state: &mut PipelineState,
                _analyses: &mut AnalysisManager,
            ) -> IrResult<()> {
                let consts = ctx.collect_ops(root, "arith.constant");
                let c = consts[0];
                ctx.erase_op(c);
                Ok(())
            }
        }
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut pm = PassManager::new().with_verification(false);
        pm.add_pass(Box::new(QueryCountPass));
        pm.add_pass(Box::new(LyingPass));
        let err = pm.run(&mut ctx, module).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("liar"), "{message}");
        assert!(message.contains("constant-count"), "{message}");
        // The lying pass still left a failed statistics record.
        assert!(pm.statistics().last().unwrap().failed);
    }
}
