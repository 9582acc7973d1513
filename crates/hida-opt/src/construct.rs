//! Functional dataflow construction (Algorithm 1).
//!
//! Walking the module bottom-up, every *dispatchable* region — one owned by an
//! iterative operation (a function or a loop) and containing at least two iterative
//! operations — is wrapped into a `hida.dispatch`; every compute operation inside
//! the dispatch is then wrapped into its own `hida.task`, producing a legal (if
//! unfused) Functional dataflow.

use hida_dataflow_ir::functional::wrap_ops;
use hida_dataflow_ir::op_names as hida_ops;
use hida_dialects::{linalg, loops};
use hida_ir_core::{Context, IrResult, OpId};
use std::fmt::Write;

/// Returns true when `op` is a compute unit worth becoming a dataflow task:
/// an affine loop nest or a named linalg layer.
pub fn is_compute_unit(ctx: &Context, op: OpId) -> bool {
    ctx.op(op).is(loops::FOR) || linalg::is_linalg_op_name(ctx.op(op).name.as_str())
}

/// Returns true when `op` can own a dispatch: its body contains at least two compute
/// units (paper: "a region is dispatchable if it is owned by an iterative operation
/// ... while containing at least two iterative operations").
pub fn is_dispatchable(ctx: &Context, op: OpId) -> bool {
    if ctx.op(op).regions.is_empty() {
        return false;
    }
    let owner_ok = ctx.op(op).is(hida_ir_core::op_names::FUNC)
        || ctx.op(op).is(loops::FOR)
        || ctx.op(op).is(hida_ops::TASK);
    if !owner_ok {
        return false;
    }
    let compute_units = ctx
        .body_ops(op)
        .into_iter()
        .filter(|&o| is_compute_unit(ctx, o))
        .count();
    compute_units >= 2
}

/// Converts the body of `func` into a Functional dataflow (Algorithm 1).
///
/// Ops that do not belong in a task (buffer allocations, the synthetic input/output
/// markers) are left in the surrounding transparent context; every compute unit and
/// its trailing element-wise consumers become individual `hida.task`s inside a single
/// `hida.dispatch`.
///
/// # Errors
/// Currently infallible; the `Result` keeps the pass signature uniform.
pub fn construct_functional_dataflow(ctx: &mut Context, func: OpId) -> IrResult<()> {
    // Bottom-up: nested dispatchable regions first (hierarchical dataflow).
    let mut dispatchable: Vec<OpId> = hida_ir_core::walk::collect_postorder(ctx, func)
        .into_iter()
        .filter(|&op| ctx.is_alive(op) && is_dispatchable(ctx, op))
        .collect();
    if !dispatchable.contains(&func) && is_dispatchable(ctx, func) {
        dispatchable.push(func);
    }

    for region_owner in dispatchable {
        if !ctx.is_alive(region_owner) || !is_dispatchable(ctx, region_owner) {
            continue;
        }
        build_dispatch_in(ctx, region_owner);
    }
    Ok(())
}

/// Wraps the task-worthy ops of `owner`'s body into a dispatch of single-op tasks.
fn build_dispatch_in(ctx: &mut Context, owner: OpId) {
    let body_ops = ctx.body_ops(owner);
    // Ops to be placed inside the dispatch: everything from the first compute unit to
    // the last, excluding allocations and interface markers which stay transparent.
    let taskable: Vec<OpId> = body_ops
        .iter()
        .copied()
        .filter(|&op| is_compute_unit(ctx, op))
        .collect();
    if taskable.len() < 2 {
        return;
    }
    // Wrap each compute unit into its own task first (so the later dispatch wrap
    // keeps whole tasks as its units).
    let mut tasks = Vec::with_capacity(taskable.len());
    let mut name = String::new();
    for (index, op) in taskable.iter().enumerate() {
        name.clear();
        write!(name, "task{index}").unwrap();
        tasks.push(wrap_ops(ctx, &[*op], hida_ops::TASK, &name));
    }
    // Then wrap all tasks into one dispatch.
    wrap_ops(ctx, &tasks, hida_ops::DISPATCH, "dispatch0");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dataflow_ir::functional::{DispatchOp, TaskOp};
    use hida_frontend::nn::{build_model, Model};
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};

    #[test]
    fn polybench_2mm_becomes_two_tasks_in_one_dispatch() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 16);
        assert!(is_dispatchable(&ctx, func));
        construct_functional_dataflow(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();

        let dispatches = ctx.collect_ops(func, hida_ops::DISPATCH);
        assert_eq!(dispatches.len(), 1);
        let dispatch = DispatchOp::try_from_op(&ctx, dispatches[0]).unwrap();
        assert_eq!(dispatch.tasks(&ctx).len(), 2);
        // Allocations stay outside the dispatch (transparent context).
        let func_level: Vec<_> = ctx
            .body_ops(func)
            .into_iter()
            .filter(|&o| ctx.op(o).is(hida_dialects::memory::ALLOC))
            .collect();
        assert_eq!(func_level.len(), 5);
    }

    #[test]
    fn single_nest_kernel_is_not_dispatchable() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::Gesummv, 16);
        assert!(!is_dispatchable(&ctx, func));
        construct_functional_dataflow(&mut ctx, func).unwrap();
        assert!(ctx.collect_ops(func, hida_ops::DISPATCH).is_empty());
    }

    #[test]
    fn lenet_layers_each_become_a_task() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::LeNet);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        let dispatch =
            DispatchOp::try_from_op(&ctx, ctx.collect_ops(func, hida_ops::DISPATCH)[0]).unwrap();
        // LeNet: 3 convs + 3 relus + 2 pools + flatten + 2 linears + 1 relu = 12 layers.
        let tasks = dispatch.tasks(&ctx);
        assert_eq!(tasks.len(), 12);
        for task in tasks {
            assert!(TaskOp::try_from_op(&ctx, task.id()).is_some());
            assert_eq!(
                ctx.body_ops(task.id())
                    .iter()
                    .filter(|&&o| is_compute_unit(&ctx, o))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn construction_is_idempotent_enough_to_rerun() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::ThreeMm, 8);
        construct_functional_dataflow(&mut ctx, func).unwrap();
        let before = ctx.collect_ops(func, hida_ops::TASK).len();
        // Tasks now own the loops; the func body holds a dispatch, not two loops, so
        // a second run must not create nested dispatches at the function level.
        construct_functional_dataflow(&mut ctx, func).unwrap();
        assert_eq!(ctx.collect_ops(func, hida_ops::TASK).len(), before);
        assert_eq!(ctx.collect_ops(func, hida_ops::DISPATCH).len(), 1);
    }
}
