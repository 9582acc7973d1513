//! IR traversal utilities: pre-order and post-order walks over nested operations.
//!
//! HIDA's algorithms traverse the dataflow hierarchy in both directions: the
//! Functional dataflow construction (Algorithm 1) walks post-order ("bottom-up"),
//! while task fusion (Algorithm 2) walks pre-order ("top-down").

use crate::context::Context;
use crate::ids::OpId;

/// Traversal order for [`walk_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOrder {
    /// Visit an op before the ops nested in its regions.
    PreOrder,
    /// Visit an op after the ops nested in its regions.
    PostOrder,
}

/// Walks `root` and every operation nested below it in the requested order, invoking
/// `visit` for each (including `root` itself).
pub fn walk_ops(
    ctx: &Context,
    root: OpId,
    order: WalkOrder,
    visit: &mut dyn FnMut(&Context, OpId),
) {
    if order == WalkOrder::PreOrder {
        visit(ctx, root);
    }
    // The context is borrowed shared for the whole walk, so the structure
    // vectors can be iterated in place — no per-op clones.
    for &region in &ctx.op(root).regions {
        for &block in &ctx.region(region).blocks {
            for &op in &ctx.block(block).ops {
                walk_ops(ctx, op, order, visit);
            }
        }
    }
    if order == WalkOrder::PostOrder {
        visit(ctx, root);
    }
}

/// Pre-order walk that `visit` can prune: the ops nested in an op are walked
/// only when `visit` returned true for it.
pub fn walk_ops_pruned(ctx: &Context, root: OpId, visit: &mut dyn FnMut(&Context, OpId) -> bool) {
    if !visit(ctx, root) {
        return;
    }
    for &region in &ctx.op(root).regions {
        for &block in &ctx.region(region).blocks {
            for &op in &ctx.block(block).ops {
                walk_ops_pruned(ctx, op, visit);
            }
        }
    }
}

/// Pre-order walk: parents before children.
pub fn walk_ops_preorder(ctx: &Context, root: OpId, visit: &mut dyn FnMut(&Context, OpId)) {
    walk_ops(ctx, root, WalkOrder::PreOrder, visit);
}

/// Post-order walk: children before parents.
pub fn walk_ops_postorder(ctx: &Context, root: OpId, visit: &mut dyn FnMut(&Context, OpId)) {
    walk_ops(ctx, root, WalkOrder::PostOrder, visit);
}

/// Collects every op visited by a pre-order walk, including `root`.
pub fn collect_preorder(ctx: &Context, root: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_ops_preorder(ctx, root, &mut |_, op| out.push(op));
    out
}

/// Collects every op visited by a post-order walk, including `root`.
pub fn collect_postorder(ctx: &Context, root: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_ops_postorder(ctx, root, &mut |_, op| out.push(op));
    out
}

/// Collects every op below `root` (pre-order, excluding `root`) that satisfies the
/// predicate. Mirrors `postorder_walk(m, has_region())`-style filtered walks in the
/// paper's pseudo-code.
pub fn collect_matching(
    ctx: &Context,
    root: OpId,
    mut pred: impl FnMut(&Context, OpId) -> bool,
) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_ops_preorder(ctx, root, &mut |ctx, op| {
        if op != root && pred(ctx, op) {
            out.push(op);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    fn nested_module(ctx: &mut Context) -> (OpId, OpId, OpId, OpId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (outer, outer_body, _) = OpBuilder::at_end_of(ctx, func).create_with_body(
            "test.outer",
            vec![],
            vec![],
            vec![],
            false,
        );
        let mut b = OpBuilder::at_block_end(ctx, outer_body);
        let (inner, _, _) = b.create_with_body("test.inner", vec![], vec![], vec![], false);
        OpBuilder::at_end_of(ctx, inner).create_constant_int(1, Type::i32());
        (module, func, outer, inner)
    }

    #[test]
    fn preorder_visits_parents_first() {
        let mut ctx = Context::new();
        let (module, func, outer, inner) = nested_module(&mut ctx);
        let order = collect_preorder(&ctx, module);
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        assert!(pos(module) < pos(func));
        assert!(pos(func) < pos(outer));
        assert!(pos(outer) < pos(inner));
        assert_eq!(order.len(), 5); // module, func, outer, inner, constant
    }

    #[test]
    fn postorder_visits_children_first() {
        let mut ctx = Context::new();
        let (module, func, outer, inner) = nested_module(&mut ctx);
        let order = collect_postorder(&ctx, module);
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        assert!(pos(inner) < pos(outer));
        assert!(pos(outer) < pos(func));
        assert!(pos(func) < pos(module));
    }

    #[test]
    fn collect_matching_filters_by_predicate() {
        let mut ctx = Context::new();
        let (module, _, outer, inner) = nested_module(&mut ctx);
        let with_regions = collect_matching(&ctx, module, |ctx, op| !ctx.op(op).regions.is_empty());
        assert!(with_regions.contains(&outer));
        assert!(with_regions.contains(&inner));
        assert!(!with_regions.contains(&module));

        let constants = collect_matching(&ctx, module, |ctx, op| ctx.op(op).is("arith.constant"));
        assert_eq!(constants.len(), 1);
    }
}
