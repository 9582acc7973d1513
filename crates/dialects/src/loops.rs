//! `affine.for` loop nests.
//!
//! Loops are the control IR of both dataflow levels (Figure 5). Each `affine.for`
//! owns a single-block region whose first block argument is the induction variable,
//! and carries its bounds and step as compile-time attributes — exactly the
//! "structured control flow" representation HIDA analyses and transforms.

use hida_ir_core::walk::walk_ops_pruned;
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Operation, Type, ValueId};

/// Operation name of the affine loop.
pub const FOR: &str = "affine.for";
/// Operation name of the affine loop terminator.
pub const FOR_YIELD: &str = "affine.yield";

/// Builds an `affine.for` loop `[lower, upper) step step` at the builder's insertion
/// point. Returns the loop op, its induction variable and its body block.
pub fn build_for(
    builder: &mut OpBuilder<'_>,
    lower: i64,
    upper: i64,
    step: i64,
    name: &str,
) -> (OpId, ValueId, hida_ir_core::BlockId) {
    assert!(step > 0, "loop step must be positive");
    // The attribute and the name hint share one string.
    let name: std::sync::Arc<str> = name.into();
    let (op, body, _) = builder.create_with_body(
        FOR,
        vec![],
        vec![],
        vec![
            ("lower_bound", Attribute::Int(lower)),
            ("upper_bound", Attribute::Int(upper)),
            ("step", Attribute::Int(step)),
            ("loop_name", Attribute::Str(name.clone())),
        ],
        false,
    );
    let iv = builder.context().add_block_arg(body, Type::Index);
    builder.context().set_name_hint(iv, name);
    (op, iv, body)
}

/// Builds a perfect loop nest from `(lower, upper, name)` triples with unit steps.
/// Returns the loop ops (outermost first), the induction variables, and the innermost
/// body block.
pub fn build_loop_nest(
    ctx: &mut Context,
    block: hida_ir_core::BlockId,
    bounds: &[(i64, i64, &str)],
) -> (Vec<OpId>, Vec<ValueId>, hida_ir_core::BlockId) {
    assert!(!bounds.is_empty(), "loop nest needs at least one loop");
    let mut loops = Vec::new();
    let mut ivs = Vec::new();
    let mut insert_block = block;
    for &(lower, upper, name) in bounds {
        let mut builder = OpBuilder::at_block_end(ctx, insert_block);
        let (op, iv, body) = build_for(&mut builder, lower, upper, 1, name);
        loops.push(op);
        ivs.push(iv);
        insert_block = body;
    }
    (loops, ivs, insert_block)
}

/// Typed view over an `affine.for` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForOp(pub OpId);

impl ForOp {
    /// Wraps `op` if it is an `affine.for`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<ForOp> {
        if ctx.op(op).is(FOR) {
            Some(ForOp(op))
        } else {
            None
        }
    }

    /// The underlying operation id.
    pub fn id(self) -> OpId {
        self.0
    }

    /// Lower bound (inclusive).
    pub fn lower_bound(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("lower_bound").unwrap_or(0)
    }

    /// Upper bound (exclusive).
    pub fn upper_bound(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("upper_bound").unwrap_or(0)
    }

    /// Loop step.
    pub fn step(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("step").unwrap_or(1).max(1)
    }

    /// Human-readable loop name (defaults to the empty string).
    pub fn name(self, ctx: &Context) -> String {
        ctx.op(self.0)
            .attr_str("loop_name")
            .unwrap_or("")
            .to_string()
    }

    /// Number of iterations executed by the loop.
    pub fn trip_count(self, ctx: &Context) -> i64 {
        let range = self.upper_bound(ctx) - self.lower_bound(ctx);
        if range <= 0 {
            0
        } else {
            (range + self.step(ctx) - 1) / self.step(ctx)
        }
    }

    /// The induction variable (first block argument of the body).
    pub fn induction_var(self, ctx: &Context) -> ValueId {
        let body = ctx.body_block(self.0);
        ctx.block(body).args[0]
    }

    /// The body block of the loop.
    pub fn body(self, ctx: &Context) -> hida_ir_core::BlockId {
        ctx.body_block(self.0)
    }

    /// Directly nested `affine.for` children in the loop body.
    pub fn child_loops(self, ctx: &Context) -> Vec<ForOp> {
        ctx.body_ops(self.0)
            .into_iter()
            .filter(|&o| ctx.op(o).is(FOR))
            .map(ForOp)
            .collect()
    }

    /// Returns true when the body contains no nested `affine.for`.
    pub fn is_innermost(self, ctx: &Context) -> bool {
        self.child_loops(ctx).is_empty()
    }

    /// Unroll factor annotated on the loop (1 when absent).
    pub fn unroll_factor(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("unroll_factor").unwrap_or(1).max(1)
    }

    /// Sets the unroll factor directive on the loop.
    pub fn set_unroll_factor(self, ctx: &mut Context, factor: i64) {
        ctx.set_attr(self.0, "unroll_factor", factor.max(1));
    }

    /// Returns true when the loop carries a pipeline directive.
    pub fn is_pipelined(self, ctx: &Context) -> bool {
        ctx.op(self.0).has_flag("pipeline")
    }

    /// Annotates the loop with a pipeline directive and target initiation interval.
    pub fn set_pipeline(self, ctx: &mut Context, ii: i64) {
        ctx.set_attr(self.0, "pipeline", Attribute::Unit);
        ctx.set_attr(self.0, "pipeline_ii", ii.max(1));
    }

    /// Target initiation interval of a pipelined loop (1 when unset).
    pub fn pipeline_ii(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("pipeline_ii").unwrap_or(1).max(1)
    }
}

/// Returns the maximal perfect loop band rooted at `outer`: `outer` followed by each
/// single nested loop whose parent body contains no other compute operations.
pub fn loop_band(ctx: &Context, outer: OpId) -> Vec<ForOp> {
    let mut band = Vec::new();
    let mut cur = match ForOp::try_from_op(ctx, outer) {
        Some(f) => f,
        None => return band,
    };
    loop {
        band.push(cur);
        let body_ops: Vec<OpId> = ctx
            .body_ops(cur.0)
            .into_iter()
            .filter(|&o| !ctx.op(o).is(FOR_YIELD))
            .collect();
        if body_ops.len() == 1 {
            if let Some(child) = ForOp::try_from_op(ctx, body_ops[0]) {
                cur = child;
                continue;
            }
        }
        break;
    }
    band
}

/// Returns the `affine.for` ops directly nested in the body of `op` (not inside other
/// loops), in program order.
pub fn top_level_loops(ctx: &Context, op: OpId) -> Vec<ForOp> {
    if ctx.op(op).regions.is_empty() {
        return Vec::new();
    }
    let body = &ctx.block(ctx.body_block(op)).ops;
    body.iter()
        .filter(|&&o| ctx.op(o).is(FOR))
        .map(|&o| ForOp(o))
        .collect()
}

/// Returns every `affine.for` nested anywhere below `op` (pre-order).
pub fn all_loops(ctx: &Context, op: OpId) -> Vec<ForOp> {
    ctx.collect_ops(op, FOR).into_iter().map(ForOp).collect()
}

/// True when some `affine.for` nested anywhere below `op` satisfies `pred`;
/// the walk stops at the first that does and builds nothing.
pub fn any_loop(ctx: &Context, op: OpId, mut pred: impl FnMut(ForOp) -> bool) -> bool {
    let mut found = false;
    walk_ops_pruned(ctx, op, &mut |ctx, nested| {
        found = found || (nested != op && ctx.op(nested).is(FOR) && pred(ForOp(nested)));
        !found
    });
    found
}

/// Total iteration count of a loop band (product of trip counts).
pub fn band_trip_count(ctx: &Context, band: &[ForOp]) -> i64 {
    band.iter()
        .map(|l| l.trip_count(ctx))
        .product::<i64>()
        .max(1)
}

/// Creates a detached `affine.for` with the given bounds; used by transforms that
/// splice loops into existing structures.
pub fn create_detached_for(
    ctx: &mut Context,
    lower: i64,
    upper: i64,
    step: i64,
    name: &str,
) -> (OpId, ValueId) {
    let mut op = Operation::new(FOR);
    // The attribute and the name hint share one string.
    let name: std::sync::Arc<str> = name.into();
    op.set_attr("lower_bound", lower);
    op.set_attr("upper_bound", upper);
    op.set_attr("step", step);
    op.set_attr("loop_name", Attribute::Str(name.clone()));
    let id = ctx.create_op(op);
    let region = ctx.create_region(id);
    let body = ctx.create_block(region);
    let iv = ctx.add_block_arg(body, Type::Index);
    ctx.set_name_hint(iv, name);
    (id, iv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_func(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![])
    }

    #[test]
    fn build_for_creates_iv_and_bounds() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let body = ctx.body_block(func);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (op, iv, _) = build_for(&mut b, 0, 16, 1, "i");
        let f = ForOp(op);
        assert_eq!(f.lower_bound(&ctx), 0);
        assert_eq!(f.upper_bound(&ctx), 16);
        assert_eq!(f.step(&ctx), 1);
        assert_eq!(f.trip_count(&ctx), 16);
        assert_eq!(f.induction_var(&ctx), iv);
        assert_eq!(f.name(&ctx), "i");
        assert_eq!(ctx.value_type(iv), &Type::Index);
        assert!(f.is_innermost(&ctx));
    }

    #[test]
    fn trip_count_rounds_up_with_strides() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let body = ctx.body_block(func);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (op, _, _) = build_for(&mut b, 0, 10, 3, "i");
        assert_eq!(ForOp(op).trip_count(&ctx), 4);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (empty, _, _) = build_for(&mut b, 5, 5, 1, "j");
        assert_eq!(ForOp(empty).trip_count(&ctx), 0);
    }

    #[test]
    fn loop_nest_and_band_detection() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let body = ctx.body_block(func);
        let (loops, ivs, innermost) =
            build_loop_nest(&mut ctx, body, &[(0, 16, "i"), (0, 16, "j"), (0, 16, "k")]);
        assert_eq!(loops.len(), 3);
        assert_eq!(ivs.len(), 3);
        // Add a payload op in the innermost body so the band ends there.
        OpBuilder::at_block_end(&mut ctx, innermost).create_constant_int(0, Type::i32());

        let band = loop_band(&ctx, loops[0]);
        assert_eq!(band.len(), 3);
        assert_eq!(band_trip_count(&ctx, &band), 16 * 16 * 16);
        assert_eq!(band[0].child_loops(&ctx).len(), 1);
        assert!(band[2].is_innermost(&ctx));

        assert_eq!(top_level_loops(&ctx, func).len(), 1);
        assert_eq!(all_loops(&ctx, func).len(), 3);
    }

    #[test]
    fn band_stops_at_imperfect_nesting() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let body = ctx.body_block(func);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (outer, _, outer_body) = build_for(&mut b, 0, 8, 1, "i");
        // Two children: a constant and a loop -> the band is only the outer loop.
        OpBuilder::at_block_end(&mut ctx, outer_body).create_constant_int(1, Type::i32());
        let mut b2 = OpBuilder::at_block_end(&mut ctx, outer_body);
        build_for(&mut b2, 0, 8, 1, "j");
        let band = loop_band(&ctx, outer);
        assert_eq!(band.len(), 1);
    }

    #[test]
    fn directives_round_trip() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        let body = ctx.body_block(func);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (op, _, _) = build_for(&mut b, 0, 32, 1, "i");
        let f = ForOp(op);
        assert_eq!(f.unroll_factor(&ctx), 1);
        assert!(!f.is_pipelined(&ctx));
        f.set_unroll_factor(&mut ctx, 4);
        f.set_pipeline(&mut ctx, 2);
        assert_eq!(f.unroll_factor(&ctx), 4);
        assert!(f.is_pipelined(&ctx));
        assert_eq!(f.pipeline_ii(&ctx), 2);
    }

    #[test]
    fn try_from_op_rejects_non_loops() {
        let mut ctx = Context::new();
        let func = test_func(&mut ctx);
        assert!(ForOp::try_from_op(&ctx, func).is_none());
    }
}
