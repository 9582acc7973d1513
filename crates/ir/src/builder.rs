//! [`OpBuilder`]: ergonomic operation construction at an insertion point.
//!
//! Mirrors MLIR's `OpBuilder`: the builder holds a mutable borrow of the context and
//! an insertion point (a block and an index within it); every `create_*` call inserts
//! at that point and advances it.

use crate::attributes::Attribute;
use crate::context::Context;
use crate::ids::{BlockId, OpId, ValueId};
use crate::op_names;
use crate::operation::{OpName, Operation};
use crate::types::Type;

/// Builder inserting operations at a movable insertion point.
pub struct OpBuilder<'a> {
    ctx: &'a mut Context,
    block: BlockId,
    index: usize,
}

impl<'a> OpBuilder<'a> {
    /// Creates a builder inserting at the end of `block`.
    pub fn at_block_end(ctx: &'a mut Context, block: BlockId) -> Self {
        let index = ctx.block(block).ops.len();
        OpBuilder { ctx, block, index }
    }

    /// Creates a builder inserting at position `index` of `block`.
    pub fn at_block_index(ctx: &'a mut Context, block: BlockId, index: usize) -> Self {
        OpBuilder { ctx, block, index }
    }

    /// Creates a builder inserting at the end of the body (first region, entry block)
    /// of `op`. Convenient for module- and function-level insertion.
    ///
    /// # Panics
    /// Panics if `op` has no region or its first region has no block.
    pub fn at_end_of(ctx: &'a mut Context, op: OpId) -> Self {
        let block = ctx.body_block(op);
        Self::at_block_end(ctx, block)
    }

    /// Creates a builder inserting immediately before `anchor`.
    pub fn before(ctx: &'a mut Context, anchor: OpId) -> Self {
        let block = ctx
            .op(anchor)
            .parent_block
            .expect("anchor op must be attached to a block");
        let index = ctx.block(block).position_of(anchor).unwrap();
        OpBuilder { ctx, block, index }
    }

    /// Returns the underlying context.
    pub fn context(&mut self) -> &mut Context {
        self.ctx
    }

    /// Returns the block the builder currently inserts into.
    pub fn insertion_block(&self) -> BlockId {
        self.block
    }

    /// Moves the insertion point to the end of another block.
    pub fn set_insertion_point_to_end(&mut self, block: BlockId) {
        self.index = self.ctx.block(block).ops.len();
        self.block = block;
    }

    /// Creates an operation from raw pieces and inserts it at the insertion point.
    /// Returns the op id and its result values.
    pub fn create(
        &mut self,
        name: impl Into<OpName>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: Vec<(&str, Attribute)>,
    ) -> (OpId, Vec<ValueId>) {
        let mut op = Operation::new(name);
        op.operands = operands.into();
        for (k, v) in attrs {
            op.set_attr(k, v);
        }
        let id = self.ctx.create_op(op);
        let results: Vec<ValueId> = result_types
            .into_iter()
            .map(|ty| self.ctx.add_result(id, ty))
            .collect();
        self.ctx.insert_op(self.block, self.index, id);
        self.index += 1;
        (id, results)
    }

    /// Creates an operation that owns one region with one empty entry block.
    /// Returns the op id and the entry block id.
    pub fn create_with_body(
        &mut self,
        name: impl Into<OpName>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: Vec<(&str, Attribute)>,
        isolated: bool,
    ) -> (OpId, BlockId, Vec<ValueId>) {
        let (id, results) = self.create(name, operands, result_types, attrs);
        self.ctx.op_mut(id).isolated = isolated;
        let region = self.ctx.create_region(id);
        let block = self.ctx.create_block(region);
        (id, block, results)
    }

    /// Creates a `func.func` operation with the given symbol name and signature.
    /// Block arguments matching `arg_types` are added to the entry block.
    pub fn create_func(
        &mut self,
        name: &str,
        arg_types: Vec<Type>,
        result_types: Vec<Type>,
    ) -> OpId {
        let (id, block, _) = self.create_with_body(
            op_names::FUNC,
            vec![],
            vec![],
            vec![
                ("sym_name", Attribute::from(name)),
                (
                    "result_types",
                    Attribute::Array(result_types.into_iter().map(Attribute::TypeAttr).collect()),
                ),
            ],
            true,
        );
        for ty in arg_types {
            self.ctx.add_block_arg(block, ty);
        }
        id
    }

    /// Creates an integer `arith.constant` with the given value and type.
    pub fn create_constant_int(&mut self, value: i64, ty: Type) -> ValueId {
        let (_, results) = self.create(
            op_names::CONSTANT,
            vec![],
            vec![ty],
            vec![("value", Attribute::Int(value))],
        );
        results[0]
    }

    /// Creates a float `arith.constant` with the given value and type.
    pub fn create_constant_float(&mut self, value: f64, ty: Type) -> ValueId {
        let (_, results) = self.create(
            op_names::CONSTANT,
            vec![],
            vec![ty],
            vec![("value", Attribute::Float(value))],
        );
        results[0]
    }

    /// Creates a `func.return` terminator.
    pub fn create_return(&mut self, operands: Vec<ValueId>) -> OpId {
        self.create(op_names::RETURN, operands, vec![], vec![]).0
    }

    /// Creates a generic `builtin.yield` terminator.
    pub fn create_yield(&mut self, operands: Vec<ValueId>) -> OpId {
        self.create(op_names::YIELD, operands, vec![], vec![]).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_inserts_in_order_and_advances() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func =
            OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![Type::i32()], vec![]);
        let body = ctx.body_block(func);
        assert_eq!(ctx.block(body).args.len(), 1);

        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c0 = b.create_constant_int(0, Type::i32());
        let c1 = b.create_constant_int(1, Type::i32());
        b.create_return(vec![]);
        let ops = ctx.body_ops(func);
        assert_eq!(ops.len(), 3);
        assert_eq!(ctx.op(ops[0]).attr_int("value"), Some(0));
        assert_eq!(ctx.op(ops[1]).attr_int("value"), Some(1));
        assert!(ctx.op(ops[2]).is(op_names::RETURN));
        assert_ne!(c0, c1);
    }

    #[test]
    fn builder_before_anchor() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let ret = OpBuilder::at_end_of(&mut ctx, func).create_return(vec![]);
        let mut b = OpBuilder::before(&mut ctx, ret);
        let c = b.create_constant_int(3, Type::i8());
        let ops = ctx.body_ops(func);
        assert_eq!(ops.len(), 2);
        assert_eq!(ctx.op(ops[0]).results[0], c);
        assert_eq!(ops[1], ret);
    }

    #[test]
    fn create_with_body_builds_region_and_block() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let mut b = OpBuilder::at_end_of(&mut ctx, module);
        let (task, body, results) = b.create_with_body(
            "hida.task",
            vec![],
            vec![Type::tensor(vec![2], Type::f32())],
            vec![],
            false,
        );
        assert_eq!(results.len(), 1);
        assert!(!ctx.op(task).isolated);
        assert_eq!(ctx.body_block(task), body);

        let (node, _, _) = OpBuilder::at_end_of(&mut ctx, module).create_with_body(
            "hida.node",
            vec![],
            vec![],
            vec![],
            true,
        );
        assert!(ctx.op(node).isolated);
    }

    #[test]
    fn constant_float_and_yield() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_float(0.5, Type::f32());
        let y = b.create_yield(vec![c]);
        assert_eq!(ctx.value_type(c), &Type::f32());
        assert_eq!(ctx.op(y).operands, vec![c]);
    }
}
