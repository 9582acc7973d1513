//! `design_bound`: the exact dataflow estimate of a schedule, as a
//! `DesignBound` (an exact value bounds itself). Nothing in the compiler
//! bounds a design before finishing it — an exploration compiles every
//! point (`docs/ARCHITECTURE.md`, "Design-space exploration") — so this
//! module exists only because the frozen `benchmark/src/layers.rs` times
//! `design_bound`.

use crate::dataflow::DataflowEstimator;
use crate::device::FpgaDevice;
use crate::resource::Resources;
use crate::shared_cache::SharedEstimateCache;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_ir_core::Context;

/// A design's QoR vector from below: the interval and the resources.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct DesignBound {
    /// The dataflow interval (cycles).
    pub interval_lb: i64,
    /// The design's resources, compute and buffers.
    pub resources: Resources,
}

/// The dataflow estimate of `schedule` on `device`, as a `DesignBound`;
/// `cache` is not read. Kept only because `benchmark/src/layers.rs:261`
/// (frozen) calls it.
#[doc(hidden)]
pub fn design_bound(
    ctx: &Context,
    schedule: ScheduleOp,
    device: &FpgaDevice,
    _cache: Option<&SharedEstimateCache>,
) -> DesignBound {
    let estimate = DataflowEstimator::new(device.clone()).estimate(ctx, schedule.id(), true);
    DesignBound {
        interval_lb: estimate.interval_cycles,
        resources: estimate.resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dataflow_ir::structural::{build_buffer, build_node, NodeOp};
    use hida_dialects::analysis::MemEffect;
    use hida_dialects::arith;
    use hida_dialects::loops::build_loop_nest;
    use hida_dialects::memory::{build_load, build_store};
    use hida_ir_core::{OpBuilder, Type};

    fn fill_node_body(ctx: &mut Context, node: NodeOp, n: i64) {
        let body = node.body(ctx);
        let args = node.body_args(ctx);
        let (_l, ivs, inner) = build_loop_nest(ctx, body, &[(0, n, "i")]);
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let x = build_load(&mut b, args[0], &[ivs[0]]);
        let y = arith::build_binary(&mut b, arith::MULF, x, x);
        build_store(&mut b, y, args[1], &[ivs[0]]);
    }

    fn two_node_schedule(ctx: &mut Context, n0: i64, n1: i64) -> ScheduleOp {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(ctx, func);
            hida_dataflow_ir::structural::build_schedule(&mut b, "pipe")
        };
        let ty = Type::memref(vec![n0.max(n1)], Type::f32());
        let mk = |ctx: &mut Context, name: &str| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            build_buffer(&mut b, ty, 2, name).1
        };
        let b_in = mk(ctx, "in");
        let b_mid = mk(ctx, "mid");
        let b_out = mk(ctx, "out");
        let (node0, _) = build_node(
            ctx,
            body,
            "n0",
            &[(b_in, MemEffect::Read), (b_mid, MemEffect::Write)],
        );
        fill_node_body(ctx, node0, n0);
        let (node1, _) = build_node(
            ctx,
            body,
            "n1",
            &[(b_mid, MemEffect::Read), (b_out, MemEffect::Write)],
        );
        fill_node_body(ctx, node1, n1);
        schedule
    }

    #[test]
    fn bound_never_exceeds_exact_schedule_estimate() {
        let device = FpgaDevice::zu3eg();
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 1024, 4096);
        let exact = DataflowEstimator::new(device.clone()).estimate(&ctx, schedule.id(), true);

        // The bound is the estimate itself: as tight as a bound gets.
        let bound = design_bound(&ctx, schedule, &device, None);
        assert_eq!(bound.interval_lb, exact.interval_cycles);
        assert_eq!(bound.resources, exact.resources);
    }
}
