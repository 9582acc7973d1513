//! Functional dataflow operations: `hida.dispatch`, `hida.task`, `hida.yield`.
//!
//! Functional dataflow captures the high-level characteristics and hierarchy of HLS
//! designs (paper §5.1). `dispatch` and `task` are *transparent from above*: buffers
//! and tensors defined in the global context can be accessed by tasks at all
//! hierarchies without indirection, which keeps task fusion and splitting cheap.

use crate::op_names;
use hida_ir_core::{Attribute, BlockId, Context, OpBuilder, OpId, Type, ValueId};

/// Typed view over a `hida.dispatch` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOp(pub OpId);

/// Typed view over a `hida.task` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOp(pub OpId);

impl DispatchOp {
    /// Wraps `op` if it is a `hida.dispatch`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<DispatchOp> {
        if ctx.op(op).is(op_names::DISPATCH) {
            Some(DispatchOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// Tasks directly nested in this dispatch, in program order.
    pub fn tasks(self, ctx: &Context) -> Vec<TaskOp> {
        ctx.body_ops(self.0)
            .into_iter()
            .filter(|&o| ctx.op(o).is(op_names::TASK))
            .map(TaskOp)
            .collect()
    }
}

impl TaskOp {
    /// Wraps `op` if it is a `hida.task`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<TaskOp> {
        if ctx.op(op).is(op_names::TASK) {
            Some(TaskOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// Nested dispatches directly inside this task (hierarchical dataflow).
    pub fn dispatches(self, ctx: &Context) -> Vec<DispatchOp> {
        ctx.body_ops(self.0)
            .into_iter()
            .filter(|&o| ctx.op(o).is(op_names::DISPATCH))
            .map(DispatchOp)
            .collect()
    }

    /// Human-readable task name (defaults to `task{id}`).
    pub fn name(self, ctx: &Context) -> String {
        ctx.op(self.0)
            .attr_str("task_name")
            .map(str::to_string)
            .unwrap_or_else(|| format!("task{}", self.0.index()))
    }

    /// Sets the task name.
    pub fn set_name(self, ctx: &mut Context, name: &str) {
        ctx.set_attr(self.0, "task_name", name);
    }
}

/// Creates an empty `hida.dispatch` at the builder's insertion point. Returns the op
/// and its body block.
pub fn build_dispatch(builder: &mut OpBuilder<'_>) -> (DispatchOp, BlockId) {
    let (op, body, _) = builder.create_with_body(op_names::DISPATCH, vec![], vec![], vec![], false);
    (DispatchOp(op), body)
}

/// Creates an empty `hida.task` with the given result types at the builder's
/// insertion point. Returns the op, its body block and its result values.
pub fn build_task(
    builder: &mut OpBuilder<'_>,
    result_types: Vec<Type>,
    name: &str,
) -> (TaskOp, BlockId, Vec<ValueId>) {
    let (op, body, results) = builder.create_with_body(
        op_names::TASK,
        vec![],
        result_types,
        vec![("task_name", Attribute::from(name))],
        false,
    );
    (TaskOp(op), body, results)
}

/// Appends a `hida.yield` terminator to `block`.
pub fn build_yield(ctx: &mut Context, block: BlockId, operands: Vec<ValueId>) -> OpId {
    let mut b = OpBuilder::at_block_end(ctx, block);
    b.create(op_names::YIELD, operands, vec![], vec![]).0
}

/// Wraps a contiguous range of operations of a block into a new op with one region
/// (the `wrap_ops` primitive of Algorithms 1 and 2).
///
/// The wrapped ops are moved, in order, into the new op's body. Results of wrapped
/// ops that are used outside the wrapped set are yielded from the new op and the
/// external uses are rewired to the wrapper's results. The wrapper is inserted at the
/// position of the first wrapped op.
///
/// # Panics
/// Panics if `ops` is empty or the ops do not all belong to the same block.
pub fn wrap_ops(ctx: &mut Context, ops: &[OpId], wrapper_name: &str, name_attr: &str) -> OpId {
    assert!(!ops.is_empty(), "wrap_ops requires at least one op");
    let block = ctx.op(ops[0]).parent_block.expect("ops must be attached");
    for &op in ops {
        assert_eq!(
            ctx.op(op).parent_block,
            Some(block),
            "all wrapped ops must belong to the same block"
        );
    }
    let insert_pos = ctx.block(block).position_of(ops[0]).unwrap();

    // Collect results escaping the wrapped set.
    let mut escaping: Vec<ValueId> = Vec::new();
    for &op in ops {
        for &res in &ctx.op(op).results.clone() {
            let escapes = ctx
                .users_of(res)
                .iter()
                .any(|&user| !ops.iter().any(|&o| ctx.is_ancestor(o, user)));
            if escapes {
                escaping.push(res);
            }
        }
    }
    let result_types: Vec<Type> = escaping
        .iter()
        .map(|&v| ctx.value_type(v).clone())
        .collect();

    // Create the wrapper op with a body.
    let mut wrapper_op = hida_ir_core::Operation::new(wrapper_name);
    wrapper_op.set_attr("task_name", name_attr);
    let wrapper = ctx.create_op(wrapper_op);
    let wrapper_results: Vec<ValueId> = result_types
        .into_iter()
        .map(|ty| ctx.add_result(wrapper, ty))
        .collect();
    let region = ctx.create_region(wrapper);
    let body = ctx.create_block(region);
    ctx.insert_op(block, insert_pos, wrapper);

    // Move the ops into the body (in their original order).
    for &op in ops {
        ctx.detach_op(op);
        ctx.append_op(body, op);
    }
    // Yield escaping results.
    build_yield(ctx, body, escaping.clone());
    // Rewire external uses.
    for (old, new) in escaping.iter().zip(&wrapper_results) {
        let users = ctx.users_of(*old);
        for user in users {
            let inside =
                ops.iter().any(|&o| ctx.is_ancestor(o, user)) || ctx.is_ancestor(wrapper, user);
            if !inside {
                ctx.replace_uses_in_op(user, *old, *new);
            }
        }
    }
    wrapper
}

/// Unwraps a wrapper op created by [`wrap_ops`]: moves its body ops back into the
/// parent block at the wrapper's position, rewires the wrapper's results to the
/// yielded values, and erases the wrapper. Used by dispatch/task canonicalization
/// ("a task containing only one sub-task should be canonicalized to a single task").
pub fn unwrap_op(ctx: &mut Context, wrapper: OpId) {
    let parent_block = ctx
        .op(wrapper)
        .parent_block
        .expect("wrapper must be attached");
    let pos = ctx.block(parent_block).position_of(wrapper).unwrap();
    let body_ops = ctx.body_ops(wrapper);
    // Find the yield, rewire results.
    let mut yielded: Vec<ValueId> = Vec::new();
    for &op in &body_ops {
        if ctx.op(op).is(op_names::YIELD) {
            yielded = ctx.op(op).operands.to_vec();
        }
    }
    let results = ctx.op(wrapper).results.clone();
    for (res, y) in results.iter().zip(&yielded) {
        ctx.replace_all_uses(*res, *y);
    }
    // Move non-yield ops out, preserving order.
    let mut insert_at = pos;
    for &op in &body_ops {
        if ctx.op(op).is(op_names::YIELD) {
            ctx.erase_op(op);
            continue;
        }
        ctx.detach_op(op);
        ctx.insert_op(parent_block, insert_at, op);
        insert_at += 1;
    }
    ctx.erase_op(wrapper);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::verifier::verify;

    fn test_func(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![])
    }

    #[test]
    fn dispatch_and_task_views() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let (dispatch, dispatch_body) = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_dispatch(&mut b)
        };
        let (task, _, results) = {
            let mut b = OpBuilder::at_block_end(&mut ctx, dispatch_body);
            build_task(&mut b, vec![Type::tensor(vec![4], Type::f32())], "t0")
        };
        assert_eq!(dispatch.tasks(&ctx), vec![task]);
        assert_eq!(task.name(&ctx), "t0");
        assert_eq!(results.len(), 1);
        assert!(DispatchOp::try_from_op(&ctx, task.id()).is_none());
        assert!(TaskOp::try_from_op(&ctx, dispatch.id()).is_none());
        task.set_name(&mut ctx, "renamed");
        assert_eq!(task.name(&ctx), "renamed");
        assert!(task.dispatches(&ctx).is_empty());
    }

    #[test]
    fn wrap_ops_moves_ops_and_forwards_results() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(1, Type::i32());
        let (_, sum) = b.create("arith.addi", vec![c0, c0], vec![Type::i32()], vec![]);
        let (_, user) = b.create("arith.muli", vec![sum[0], c0], vec![Type::i32()], vec![]);
        b.create_return(vec![user[0]]);

        // Wrap the constant and the add into a task; the mul stays outside and must
        // now use the task's result.
        let c0_op = ctx.value(c0).defining_op().unwrap();
        let add_op = ctx.value(sum[0]).defining_op().unwrap();
        let task = wrap_ops(&mut ctx, &[c0_op, add_op], op_names::TASK, "t");

        assert!(ctx.op(task).is(op_names::TASK));
        // The task yields both escaping values: c0 (used by the mul) and sum.
        assert_eq!(ctx.op(task).results.len(), 2);
        let mul_op = ctx.value(user[0]).defining_op().unwrap();
        for &operand in &ctx.op(mul_op).operands {
            let def = ctx.value(operand).defining_op().unwrap();
            assert_eq!(def, task, "external user must consume the task results");
        }
        // Inside, the yield returns the original values.
        let body_ops = ctx.body_ops(task);
        assert!(ctx.op(*body_ops.last().unwrap()).is(op_names::YIELD));
        let module = ctx.ancestors(func).pop().unwrap();
        verify(&ctx, module).unwrap();
    }

    #[test]
    fn wrap_then_unwrap_restores_structure() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(7, Type::i32());
        let (_, neg) = b.create("arith.negi", vec![c0], vec![Type::i32()], vec![]);
        b.create_return(vec![neg[0]]);
        let before = ctx.body_ops(func).len();

        let c0_op = ctx.value(c0).defining_op().unwrap();
        let task = wrap_ops(&mut ctx, &[c0_op], op_names::TASK, "t");
        assert_eq!(ctx.body_ops(func).len(), before); // constant replaced by task
        unwrap_op(&mut ctx, task);
        assert_eq!(ctx.body_ops(func).len(), before);
        // The negi uses the original constant again.
        let neg_op = ctx.value(neg[0]).defining_op().unwrap();
        assert_eq!(ctx.op(neg_op).operands, vec![c0]);
        let module = ctx.ancestors(func).pop().unwrap();
        verify(&ctx, module).unwrap();
    }

    #[test]
    fn wrap_ops_without_escaping_results_yields_nothing() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(1, Type::i32());
        b.create("arith.negi", vec![c0], vec![Type::i32()], vec![]);
        let ops = ctx.body_ops(func);
        let task = wrap_ops(&mut ctx, &ops, op_names::TASK, "all");
        assert!(ctx.op(task).results.is_empty());
        assert_eq!(ctx.body_ops(func), vec![task]);
    }

    #[test]
    #[should_panic(expected = "wrap_ops requires at least one op")]
    fn wrap_ops_rejects_empty_input() {
        let mut ctx = Context::new();
        wrap_ops(&mut ctx, &[], op_names::TASK, "t");
    }
}
