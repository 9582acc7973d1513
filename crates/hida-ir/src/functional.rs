//! Functional dataflow operations: `hida.dispatch`, `hida.task`, `hida.yield`.
//!
//! Functional dataflow captures the high-level characteristics and hierarchy of HLS
//! designs (paper §5.1). `dispatch` and `task` are *transparent from above*: buffers
//! and tensors defined in the global context can be accessed by tasks at all
//! hierarchies without indirection, which keeps task fusion and splitting cheap.

use crate::op_names;
use hida_ir_core::{symbol, BlockId, Context, OpBuilder, OpId, ValueId};

/// Attribute key of a task's name (a wrapper's, in general).
pub const TASK_NAME: &str = "task_name";

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
            .attr_str(TASK_NAME)
            .map(str::to_string)
            .unwrap_or_else(|| format!("task{}", self.0.index()))
    }

    /// Sets the task name.
    pub fn set_name(self, ctx: &mut Context, name: &str) {
        ctx.set_attr(self.0, symbol!(TASK_NAME), name);
    }
}

/// Appends a `hida.yield` terminator to `block`.
pub fn build_yield(ctx: &mut Context, block: BlockId, operands: Vec<ValueId>) -> OpId {
    let mut b = OpBuilder::at_block_end(ctx, block);
    b.create(op_names::YIELD, operands, vec![], vec![]).0
}

/// Wraps operations of one block into a new op with one region (the
/// `wrap_ops` primitive of Algorithms 1 and 2).
///
/// The wrapped ops are moved, in order and in one splice, into the new op's
/// body. Results of wrapped ops that are used outside the wrapped set are
/// yielded from the new op and the external uses are rewired to the wrapper's
/// results. The wrapper is inserted at the position of the first wrapped op.
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

    let wrapper = ctx.create_op(hida_ir_core::Operation::new(wrapper_name));
    ctx.set_attr(wrapper, symbol!(TASK_NAME), name_attr);
    let region = ctx.create_region(wrapper);
    let body = ctx.create_block(region);
    ctx.insert_op(block, insert_pos, wrapper);
    ctx.move_ops(ops, body, 0);

    // A result escapes when one of its users is not below the wrapper — the
    // wrapped set is exactly what the wrapper now holds — and those users
    // read a result of the wrapper instead.
    let terminator = build_yield(ctx, body, Vec::new());
    for &op in ops {
        for index in 0..ctx.op(op).results.len() {
            let old = ctx.op(op).results[index];
            let mut new = None;
            loop {
                let outside = ctx.users(old).find(|&user| !ctx.is_ancestor(wrapper, user));
                let Some(user) = outside else {
                    break;
                };
                let new = *new.get_or_insert_with(|| {
                    ctx.add_operand(terminator, old);
                    ctx.add_result(wrapper, *ctx.value_type(old))
                });
                ctx.replace_uses_in_op(user, old, new);
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
    let (yields, moved): (Vec<OpId>, Vec<OpId>) = ctx
        .body_ops(wrapper)
        .into_iter()
        .partition(|&op| ctx.op(op).is(op_names::YIELD));
    // Uses of the wrapper's results read what its (last) yield yields.
    if let Some(&last) = yields.last() {
        let count = ctx
            .op(wrapper)
            .results
            .len()
            .min(ctx.op(last).operands.len());
        for index in 0..count {
            let (result, yielded) = (ctx.op(wrapper).results[index], ctx.op(last).operands[index]);
            ctx.replace_all_uses(result, yielded);
        }
    }
    for yield_op in yields {
        ctx.erase_op(yield_op);
    }
    ctx.move_ops(&moved, parent_block, pos);
    ctx.erase_op(wrapper);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::verifier::verify;
    use hida_ir_core::Type;

    fn test_func(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![])
    }

    #[test]
    fn dispatch_and_task_views() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        // Wrapped the way the construct pass wraps compute units: each into
        // a task, then the tasks into a dispatch.
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let value = b.create_constant_int(1, Type::i32());
        b.create_return(vec![value]);
        let op = ctx.value(value).defining_op().unwrap();
        let task = wrap_ops(&mut ctx, &[op], op_names::TASK, "t0");
        let task = TaskOp::try_from_op(&ctx, task).unwrap();
        let dispatch = wrap_ops(&mut ctx, &[task.id()], op_names::DISPATCH, "d0");
        let dispatch = DispatchOp::try_from_op(&ctx, dispatch).unwrap();
        assert_eq!(dispatch.tasks(&ctx), vec![task]);
        assert_eq!(task.name(&ctx), "t0");
        assert_eq!(
            ctx.op(task.id()).results.len(),
            1,
            "the returned value escapes"
        );
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
