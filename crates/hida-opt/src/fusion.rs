//! Functional dataflow task fusion (Algorithm 2).
//!
//! Two mechanisms reduce the number of dataflow tasks while balancing their
//! workloads:
//!
//! 1. **Pattern-driven fusion** — a worklist repeatedly merges adjacent tasks that
//!    match a profitable pattern (element-wise consumers like ReLU/Add/Flatten fuse
//!    into their producer, pooling fuses into the preceding convolution), until no
//!    pattern matches.
//! 2. **Criticality-driven fusion** — the two least-critical (lowest-intensity)
//!    adjacent tasks are merged while doing so does not create a new critical task,
//!    re-balancing the dataflow.
//!
//! Finally the dispatch/task hierarchy is canonicalized (single-task dispatches and
//! single-op tasks are simplified).

use hida_dataflow_ir::functional::{unwrap_op, wrap_ops, DispatchOp, TaskOp};
use hida_dataflow_ir::op_names as hida_ops;
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::linalg;
use hida_ir_core::{AnalysisManager, Context, IrResult, OpId};

/// A profitable task-fusion pattern: decides whether `task` should be fused with the
/// adjacent `next` task. `Send + Sync` because pattern sets live inside pass
/// instances, which a sweep shares between the threads compiling its points.
pub trait FusionPattern: Send + Sync {
    /// Pattern name for diagnostics.
    fn name(&self) -> &str;

    /// Returns true when fusing `task` with `next` is profitable.
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
        for &op in &ctx.body_ops(next.id()) {
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
        let task_has_conv = ctx.body_ops(task.id()).iter().any(|&op| {
            let name = ctx.op(op).name.as_str();
            name == linalg::CONV2D || name == linalg::DEPTHWISE_CONV2D
        });
        // The pooling task must contain only pooling / element-wise layers: fusing a
        // pool that already leads another convolution would chain heavy tasks.
        let mut next_has_pool = false;
        for &op in &ctx.body_ops(next.id()) {
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

/// The default profitable fusion patterns used by HIDA.
pub fn default_fusion_patterns() -> Vec<Box<dyn FusionPattern>> {
    vec![Box::new(ElementwiseFusion), Box::new(ConvPoolFusion)]
}

/// Computational intensity of a task (total scalar operations), fetched through
/// the analysis cache so the criticality loop re-queries surviving tasks for
/// free.
pub fn task_intensity(ctx: &Context, analyses: &mut AnalysisManager, task: TaskOp) -> i64 {
    analyses.get::<ComputeProfile>(ctx, task.id()).intensity
}

/// Drops cached analyses of every op (and enclosing task/func) that consumes a
/// result of `producer`: fusing rewires those consumers' operands to the fused
/// task's fresh result values, so their cached profiles reference dead values.
fn invalidate_consumers(ctx: &Context, analyses: &mut AnalysisManager, producer: TaskOp) {
    for &result in &ctx.op(producer.id()).results {
        for user in ctx.users_of(result) {
            analyses.invalidate_root(user);
            for ancestor in ctx.ancestors(user) {
                analyses.invalidate_root(ancestor);
            }
        }
    }
}

/// Fuses two adjacent tasks of the same dispatch into one new task.
/// Returns the fused task.
pub fn fuse_two_tasks(ctx: &mut Context, first: TaskOp, second: TaskOp) -> TaskOp {
    let name = format!("{}+{}", first.name(ctx), second.name(ctx));
    let merged = wrap_ops(ctx, &[first.id(), second.id()], hida_ops::TASK, &name);
    // Flatten: pull the two old tasks' contents directly into the new task so the
    // result is a single-level task rather than a task of tasks.
    let inner_tasks: Vec<OpId> = ctx
        .body_ops(merged)
        .into_iter()
        .filter(|&o| ctx.op(o).is(hida_ops::TASK))
        .collect();
    for t in inner_tasks {
        unwrap_op(ctx, t);
    }
    TaskOp(merged)
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
        fuse_dispatch(ctx, analyses, DispatchOp(dispatch), patterns);
    }
    canonicalize(ctx, analyses, root);
    Ok(())
}

fn fuse_dispatch(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    dispatch: DispatchOp,
    patterns: &[Box<dyn FusionPattern>],
) {
    // Pattern-driven worklist: fuse adjacent tasks until no pattern matches.
    let mut changed = true;
    while changed {
        changed = false;
        let tasks = dispatch.tasks(ctx);
        for window in tasks.windows(2) {
            let (a, b) = (window[0], window[1]);
            if patterns.iter().any(|p| p.matches(ctx, a, b)) {
                let merged = fuse_two_tasks(ctx, a, b);
                invalidate_consumers(ctx, analyses, merged);
                changed = true;
                break;
            }
        }
    }

    // Criticality-driven re-balancing: repeatedly fuse the two least-critical
    // adjacent tasks while the result stays below the critical task's intensity.
    loop {
        let tasks = dispatch.tasks(ctx);
        if tasks.len() < 3 {
            break;
        }
        let intensities: Vec<i64> = tasks
            .iter()
            .map(|&t| task_intensity(ctx, analyses, t))
            .collect();
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
                invalidate_consumers(ctx, analyses, merged);
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
                let inner: Vec<OpId> = ctx
                    .body_ops(task)
                    .into_iter()
                    .filter(|&o| !ctx.op(o).is(hida_ops::YIELD))
                    .collect();
                inner.len() == 1 && ctx.op(inner[0]).is(hida_ops::TASK)
            });
        match candidate {
            Some(task) => {
                let inner = ctx
                    .body_ops(task)
                    .into_iter()
                    .find(|&o| ctx.op(o).is(hida_ops::TASK))
                    .unwrap();
                unwrap_op(ctx, inner);
                analyses.invalidate_root(task);
                for ancestor in ctx.ancestors(task) {
                    analyses.invalidate_root(ancestor);
                }
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
        for ancestor in ctx.ancestors(dispatch) {
            analyses.invalidate_root(ancestor);
        }
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
