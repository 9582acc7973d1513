//! Functional dataflow task fusion (Algorithm 2).
//!
//! Two mechanisms reduce the number of dataflow tasks while balancing their
//! workloads:
//!
//! 1. **Pattern-driven fusion** — one sweep over the adjacent task pairs merges each
//!    pair that matches a profitable pattern (element-wise consumers like
//!    ReLU/Add/Flatten fuse into their producer, pooling fuses into the preceding
//!    convolution); after a merge the sweep steps back one pair, the only earlier
//!    pair the merge can make match, so no pattern matches when it ends.
//! 2. **Criticality-driven fusion** — the two least-critical (lowest-intensity)
//!    adjacent tasks are merged while doing so does not create a new critical task,
//!    re-balancing the dataflow.
//!
//! Finally the dispatch/task hierarchy is canonicalized (single-task dispatches and
//! single-op tasks are simplified).

use hida_dataflow_ir::functional::{unwrap_op, DispatchOp, TaskOp, TASK_NAME};
use hida_dataflow_ir::op_names as hida_ops;
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::linalg;
use hida_ir_core::{symbol, AnalysisManager, Context, IrResult, OpId, ValueId};

/// A profitable task-fusion pattern: decides whether `task` should be fused with the
/// adjacent `next` task. `Send + Sync` because pattern sets live inside pass
/// instances, which a sweep shares between the threads compiling its points.
pub trait FusionPattern: Send + Sync {
    /// Pattern name for diagnostics.
    fn name(&self) -> &str;

    /// Returns true when fusing `task` with `next` is profitable.
    ///
    /// Reads only the ops in the two tasks' bodies: the pattern phase checks a
    /// pair again only when a merge has changed one of its two tasks.
    fn matches(&self, ctx: &Context, task: TaskOp, next: TaskOp) -> bool;
}

/// Fuses element-wise tasks (ReLU, residual Add, Flatten) into their producer.
pub struct ElementwiseFusion;

impl FusionPattern for ElementwiseFusion {
    fn name(&self) -> &str {
        "elementwise-fusion"
    }

    fn matches(&self, ctx: &Context, _task: TaskOp, next: TaskOp) -> bool {
        // The consumer task must consist purely of element-wise layers; otherwise we
        // would keep gluing heavy compute tasks together through their activations.
        let mut has_elementwise = false;
        for &op in body(ctx, next) {
            let name = ctx.op(op).name.as_str();
            if name == linalg::RELU || name == linalg::FLATTEN || name == linalg::ADD {
                has_elementwise = true;
            } else if linalg::is_linalg_op_name(name) || ctx.op(op).is(hida_dialects::loops::FOR) {
                return false;
            }
        }
        has_elementwise
    }
}

/// Fuses a pooling task into the preceding convolution task (the LeNet case-study
/// grouping of Table 1: Conv+ReLU+Pool form one task).
pub struct ConvPoolFusion;

impl FusionPattern for ConvPoolFusion {
    fn name(&self) -> &str {
        "conv-pool-fusion"
    }

    fn matches(&self, ctx: &Context, task: TaskOp, next: TaskOp) -> bool {
        let task_has_conv = body(ctx, task).iter().any(|&op| {
            let name = ctx.op(op).name.as_str();
            name == linalg::CONV2D || name == linalg::DEPTHWISE_CONV2D
        });
        // The pooling task must contain only pooling / element-wise layers: fusing a
        // pool that already leads another convolution would chain heavy tasks.
        let mut next_has_pool = false;
        for &op in body(ctx, next) {
            let name = ctx.op(op).name.as_str();
            if name == linalg::MAXPOOL2D || name == linalg::AVGPOOL2D {
                next_has_pool = true;
            } else if name == linalg::CONV2D
                || name == linalg::DEPTHWISE_CONV2D
                || name == linalg::LINEAR
                || ctx.op(op).is(hida_dialects::loops::FOR)
            {
                return false;
            }
        }
        task_has_conv && next_has_pool
    }
}

/// The ops directly in `task`'s body, borrowed from the context.
fn body(ctx: &Context, task: TaskOp) -> &[OpId] {
    &ctx.block(ctx.body_block(task.id())).ops
}

/// The default profitable fusion patterns used by HIDA.
pub fn default_fusion_patterns() -> Vec<Box<dyn FusionPattern>> {
    vec![Box::new(ElementwiseFusion), Box::new(ConvPoolFusion)]
}

/// Computational intensity of a task (total scalar operations), fetched through
/// the analysis cache, where lowering finds the profile again.
pub fn task_intensity(ctx: &Context, analyses: &mut AnalysisManager, task: TaskOp) -> i64 {
    analyses.get::<ComputeProfile>(ctx, task.id()).intensity
}

/// Fuses two adjacent tasks of the same dispatch into one: `second`'s body
/// joins `first`'s in one splice, and `first`, renamed `first+second`, is the
/// fused task. Each result of either task still used outside the pair
/// becomes a fresh result of the fused task, and its users outside read that
/// one; the other results drop. Returns the fused task.
///
/// What is cached for `first` and for the ops that read the fused task's
/// results describes the IR before the fusion: the caller drops it.
pub fn fuse_two_tasks(ctx: &mut Context, first: TaskOp, second: TaskOp) -> TaskOp {
    let name = match (
        ctx.op(first.id()).attr_str(TASK_NAME),
        ctx.op(second.id()).attr_str(TASK_NAME),
    ) {
        (Some(a), Some(b)) => [a, "+", b].concat(),
        _ => format!("{}+{}", first.name(ctx), second.name(ctx)),
    };
    let (first_yield, second_yield) = (terminator(ctx, first), terminator(ctx, second));
    // Each result the pair still returns, with the value its body yields.
    let mut escaping: Vec<(ValueId, ValueId)> = Vec::new();
    for index in 0..ctx.op(first.id()).results.len() {
        let result = ctx.op(first.id()).results[index];
        let inner = ctx.op(first_yield).operands[index];
        // Inside the pair, `second` reads the value `first` yields.
        loop {
            let inside = ctx
                .users(result)
                .find(|&user| ctx.is_ancestor(second.id(), user));
            let Some(user) = inside else {
                break;
            };
            ctx.replace_uses_in_op(user, result, inner);
        }
        if ctx.has_users(result) {
            escaping.push((result, inner));
        }
    }
    for index in 0..ctx.op(second.id()).results.len() {
        let result = ctx.op(second.id()).results[index];
        if ctx.has_users(result) {
            escaping.push((result, ctx.op(second_yield).operands[index]));
        }
    }

    let mut moved = ctx.body_ops(second.id());
    moved.retain(|&op| op != second_yield);
    let body = ctx.body_block(first.id());
    let at = ctx.block(body).position_of(first_yield).unwrap();
    ctx.move_ops(&moved, body, at);
    ctx.erase_op(second.id());
    ctx.clear_operands(first_yield);
    let mut results = Vec::with_capacity(escaping.len());
    for (old, inner) in escaping {
        let new = ctx.add_result(first.id(), *ctx.value_type(old));
        ctx.replace_all_uses(old, new);
        ctx.add_operand(first_yield, inner);
        results.push(new);
    }
    ctx.set_results(first.id(), &results);
    ctx.set_attr(first.id(), symbol!(TASK_NAME), name.as_str());
    first
}

/// Drops what is cached for the fused task and for every op that reads one
/// of its results, with the ops around them.
fn invalidate_fused(ctx: &Context, analyses: &mut AnalysisManager, fused: TaskOp) {
    let results = &ctx.op(fused.id()).payload().results;
    analyses.invalidate_roots(|root| {
        root == fused.id()
            || results
                .iter()
                .any(|&result| ctx.users(result).any(|user| ctx.is_ancestor(root, user)))
    });
}

/// The `hida.yield` that ends `task`'s body.
fn terminator(ctx: &Context, task: TaskOp) -> OpId {
    body(ctx, task)
        .iter()
        .rev()
        .copied()
        .find(|&op| ctx.op(op).is(hida_ops::YIELD))
        .expect("a task ends in its yield")
}

/// Runs task fusion (Algorithm 2) over every dispatch below `root`.
///
/// # Errors
/// Currently infallible; the `Result` keeps the pass signature uniform.
pub fn fuse_tasks(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    root: OpId,
    patterns: &[Box<dyn FusionPattern>],
) -> IrResult<()> {
    // Pre-order: partition each dispatch top-down.
    let dispatches: Vec<OpId> = hida_ir_core::walk::collect_preorder(ctx, root)
        .into_iter()
        .filter(|&op| ctx.is_alive(op) && ctx.op(op).is(hida_ops::DISPATCH))
        .collect();
    for dispatch in dispatches {
        if !ctx.is_alive(dispatch) {
            continue;
        }
        fuse_patterns(ctx, analyses, DispatchOp(dispatch), patterns);
        fuse_least_critical(ctx, analyses, DispatchOp(dispatch));
    }
    canonicalize(ctx, analyses, root);
    Ok(())
}

/// Pattern-driven fusion: one sweep over the adjacent task pairs, with the task
/// list kept in step with the IR. A merge at pair `i` changes only pairs `i - 1`
/// and `i`; every pair before `i - 1` is unchanged and already failed to match,
/// so the sweep resumes at `i - 1`.
fn fuse_patterns(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    dispatch: DispatchOp,
    patterns: &[Box<dyn FusionPattern>],
) {
    let mut tasks = dispatch.tasks(ctx);
    let mut i = 0;
    while i + 1 < tasks.len() {
        let (a, b) = (tasks[i], tasks[i + 1]);
        if patterns.iter().any(|p| p.matches(ctx, a, b)) {
            let merged = fuse_two_tasks(ctx, a, b);
            invalidate_fused(ctx, analyses, merged);
            tasks[i] = merged;
            tasks.remove(i + 1);
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
}

/// Criticality-driven re-balancing: repeatedly fuse the two least-critical
/// adjacent tasks while the result stays below the critical task's intensity.
/// The task list and the intensities are kept in step with the IR: a merge
/// computes the fused task's profile, and only when the loop goes on to read
/// it; no other task changed.
fn fuse_least_critical(ctx: &mut Context, analyses: &mut AnalysisManager, dispatch: DispatchOp) {
    let mut tasks = dispatch.tasks(ctx);
    if tasks.len() < 3 {
        return;
    }
    let mut intensities: Vec<i64> = tasks
        .iter()
        .map(|&t| task_intensity(ctx, analyses, t))
        .collect();
    while tasks.len() >= 3 {
        let critical = intensities.iter().copied().max().unwrap_or(0);
        // Find the adjacent pair with the smallest combined intensity.
        let mut best: Option<(usize, i64)> = None;
        for i in 0..tasks.len() - 1 {
            let combined = intensities[i] + intensities[i + 1];
            if best.map(|(_, b)| combined < b).unwrap_or(true) {
                best = Some((i, combined));
            }
        }
        match best {
            Some((i, combined)) if combined <= critical => {
                let merged = fuse_two_tasks(ctx, tasks[i], tasks[i + 1]);
                invalidate_fused(ctx, analyses, merged);
                tasks.remove(i + 1);
                intensities.remove(i + 1);
                if tasks.len() >= 3 {
                    intensities[i] = task_intensity(ctx, analyses, merged);
                }
            }
            _ => break,
        }
    }
}

/// Canonicalizes the dispatch/task hierarchy: dispatches containing a single task are
/// dissolved, as are tasks that directly contain a single nested task.
///
/// Unwrapping moves ops into the enclosing body, so the cached analyses of every
/// ancestor of an unwrapped op are dropped through `analyses`.
pub fn canonicalize(ctx: &mut Context, analyses: &mut AnalysisManager, root: OpId) {
    // Tasks wrapping exactly one nested task collapse into one level.
    loop {
        let candidate = hida_ir_core::walk::collect_preorder(ctx, root)
            .into_iter()
            .filter(|&op| ctx.is_alive(op) && ctx.op(op).is(hida_ops::TASK))
            .find(|&task| {
                let mut inner = body(ctx, TaskOp(task))
                    .iter()
                    .filter(|&&o| !ctx.op(o).is(hida_ops::YIELD));
                matches!(
                    (inner.next(), inner.next()),
                    (Some(&only), None) if ctx.op(only).is(hida_ops::TASK)
                )
            });
        match candidate {
            Some(task) => {
                let inner = ctx
                    .body_ops(task)
                    .into_iter()
                    .find(|&o| ctx.op(o).is(hida_ops::TASK))
                    .unwrap();
                unwrap_op(ctx, inner);
                analyses.invalidate_roots(|root| ctx.is_ancestor(root, task));
            }
            None => break,
        }
    }
    // Dispatches with a single task dissolve entirely (no dataflow to exploit).
    let single_task_dispatches: Vec<OpId> = hida_ir_core::walk::collect_preorder(ctx, root)
        .into_iter()
        .filter(|&op| {
            ctx.is_alive(op)
                && ctx.op(op).is(hida_ops::DISPATCH)
                && DispatchOp(op).tasks(ctx).len() <= 1
        })
        .collect();
    for dispatch in single_task_dispatches {
        if !ctx.is_alive(dispatch) {
            continue;
        }
        analyses.invalidate_roots(|root| root != dispatch && ctx.is_ancestor(root, dispatch));
        for task in DispatchOp(dispatch).tasks(ctx) {
            unwrap_op(ctx, task.id());
        }
        unwrap_op(ctx, dispatch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_functional_dataflow;
    use hida_frontend::nn::{build_model, Model};
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};

    fn lenet_dispatch(ctx: &mut Context) -> (OpId, DispatchOp) {
        let module = ctx.create_module("m");
        let func = build_model(ctx, module, Model::LeNet);
        construct_functional_dataflow(ctx, func).unwrap();
        fuse_tasks(
            ctx,
            &mut AnalysisManager::new(),
            func,
            &default_fusion_patterns(),
        )
        .unwrap();
        let d = ctx.collect_ops(func, hida_ops::DISPATCH)[0];
        (func, DispatchOp(d))
    }

    #[test]
    fn lenet_fuses_into_conv_relu_pool_tasks() {
        let mut ctx = Context::new();
        let (func, dispatch) = lenet_dispatch(&mut ctx);
        let tasks = dispatch.tasks(&ctx);
        // 12 single-layer tasks fuse down to the Table 1 grouping scale (4-6 tasks).
        assert!(
            tasks.len() >= 3 && tasks.len() <= 6,
            "expected 3-6 fused tasks, got {}",
            tasks.len()
        );
        // At least one task combines a convolution with a pooling layer.
        let has_conv_pool_task = tasks.iter().any(|t| {
            let ops = ctx.collect_ops(t.id(), linalg::CONV2D).len()
                + ctx.collect_ops(t.id(), linalg::DEPTHWISE_CONV2D).len();
            let pools = ctx.collect_ops(t.id(), linalg::MAXPOOL2D).len();
            ops > 0 && pools > 0
        });
        assert!(has_conv_pool_task);
        hida_ir_core::verifier::verify(&ctx, ctx.ancestors(func).pop().unwrap()).unwrap();
    }

    #[test]
    fn fusion_balances_intensities() {
        let mut ctx = Context::new();
        let (_, dispatch) = lenet_dispatch(&mut ctx);
        let tasks = dispatch.tasks(&ctx);
        let mut analyses = AnalysisManager::new();
        let intensities: Vec<i64> = tasks
            .iter()
            .map(|&t| task_intensity(&ctx, &mut analyses, t))
            .collect();
        let max = *intensities.iter().max().unwrap();
        let min = *intensities.iter().min().unwrap();
        // The fused dataflow should not contain tasks thousands of times lighter than
        // the critical task (the unfused ReLU-only tasks were).
        assert!(min * 10_000 > max, "imbalance too high: {intensities:?}");
    }

    #[test]
    fn single_loop_kernels_are_untouched_by_fusion() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::Symm, 16);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        fuse_tasks(
            &mut ctx,
            &mut AnalysisManager::new(),
            func,
            &default_fusion_patterns(),
        )
        .unwrap();
        assert!(ctx.collect_ops(func, hida_ops::DISPATCH).is_empty());
        assert!(ctx.collect_ops(func, hida_ops::TASK).is_empty());
    }

    #[test]
    fn multi_nest_kernel_keeps_separate_compute_tasks() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::ThreeMm, 16);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        fuse_tasks(
            &mut ctx,
            &mut AnalysisManager::new(),
            func,
            &default_fusion_patterns(),
        )
        .unwrap();
        let dispatch = DispatchOp(ctx.collect_ops(func, hida_ops::DISPATCH)[0]);
        // Three equally heavy matmuls: criticality fusion must not collapse them.
        assert_eq!(dispatch.tasks(&ctx).len(), 3);
    }

    /// The pattern phase before it became one sweep: after every merge it
    /// re-reads the dispatch's tasks and rescans from the first pair. The
    /// oracle the sweep must agree with.
    fn fuse_patterns_rescanning(
        ctx: &mut Context,
        analyses: &mut AnalysisManager,
        dispatch: DispatchOp,
        patterns: &[Box<dyn FusionPattern>],
    ) {
        let mut changed = true;
        while changed {
            changed = false;
            let tasks = dispatch.tasks(ctx);
            for window in tasks.windows(2) {
                let (a, b) = (window[0], window[1]);
                if patterns.iter().any(|p| p.matches(ctx, a, b)) {
                    let merged = fuse_two_tasks(ctx, a, b);
                    invalidate_fused(ctx, analyses, merged);
                    changed = true;
                    break;
                }
            }
        }
    }

    /// [`fuse_tasks`] with [`fuse_patterns_rescanning`] as its pattern phase.
    fn fuse_tasks_rescanning(ctx: &mut Context, root: OpId, patterns: &[Box<dyn FusionPattern>]) {
        let analyses = &mut AnalysisManager::new();
        let dispatches: Vec<OpId> = hida_ir_core::walk::collect_preorder(ctx, root)
            .into_iter()
            .filter(|&op| ctx.is_alive(op) && ctx.op(op).is(hida_ops::DISPATCH))
            .collect();
        for dispatch in dispatches {
            if !ctx.is_alive(dispatch) {
                continue;
            }
            fuse_patterns_rescanning(ctx, analyses, DispatchOp(dispatch), patterns);
            fuse_least_critical(ctx, analyses, DispatchOp(dispatch));
        }
        canonicalize(ctx, analyses, root);
    }

    #[test]
    fn the_sweep_fuses_exactly_as_the_rescanning_loop() {
        let mut subjects: Vec<(String, Context, OpId)> = Vec::new();
        for model in Model::all() {
            let mut ctx = Context::new();
            let module = ctx.create_module(model.name());
            build_model(&mut ctx, module, model);
            subjects.push((model.name().to_string(), ctx, module));
        }
        for kernel in PolybenchKernel::all() {
            let mut ctx = Context::new();
            let module = ctx.create_module(kernel.name());
            build_kernel(&mut ctx, module, kernel, kernel.default_size());
            subjects.push((kernel.name().to_string(), ctx, module));
        }
        for (name, text) in [
            ("two_mm.hir", include_str!("../../../examples/two_mm.hir")),
            (
                "attention.hir",
                include_str!("../../../examples/attention.hir"),
            ),
        ] {
            let (ctx, module) = hida_ir_core::parse_module(text).unwrap();
            subjects.push((name.to_string(), ctx, module));
        }
        assert_eq!(subjects.len(), 7 + 11 + 2);

        for (name, mut ctx, module) in subjects {
            let func = ctx
                .find_in_body(module, hida_ir_core::op_names::FUNC)
                .unwrap();
            construct_functional_dataflow(&mut ctx, func).unwrap();
            // The default patterns never make a pair match by merging the
            // pair after it; `AbsorbMerged` does, so the step back is checked.
            let absorbing: Vec<Box<dyn FusionPattern>> =
                vec![Box::new(ElementwiseFusion), Box::new(AbsorbMerged)];
            for patterns in [default_fusion_patterns(), absorbing] {
                let (mut swept, mut rescanned) = (ctx.clone(), ctx.clone());
                fuse_tasks(&mut swept, &mut AnalysisManager::new(), func, &patterns).unwrap();
                fuse_tasks_rescanning(&mut rescanned, func, &patterns);
                assert_eq!(
                    hida_ir_core::printer::print_op(&swept, module),
                    hida_ir_core::printer::print_op(&rescanned, module),
                    "{name}: the sweep and the rescanning loop fused differently"
                );
            }
        }
    }

    /// Fuses any task into its predecessor once its body holds more than one
    /// op and a terminator, as a merged single-layer task's does.
    struct AbsorbMerged;

    impl FusionPattern for AbsorbMerged {
        fn name(&self) -> &str {
            "absorb-merged"
        }

        fn matches(&self, ctx: &Context, _task: TaskOp, next: TaskOp) -> bool {
            body(ctx, next).len() > 2
        }
    }

    #[test]
    fn fuse_two_tasks_produces_single_level_task() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 8);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let dispatch = DispatchOp(ctx.collect_ops(func, hida_ops::DISPATCH)[0]);
        let tasks = dispatch.tasks(&ctx);
        let fused = fuse_two_tasks(&mut ctx, tasks[0], tasks[1]);
        // No nested tasks remain inside the fused task.
        assert!(ctx
            .body_ops(fused.id())
            .iter()
            .all(|&o| !ctx.op(o).is(hida_ops::TASK)));
        assert_eq!(
            ctx.collect_ops(fused.id(), hida_dialects::loops::FOR).len(),
            6
        );
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
    }
}
