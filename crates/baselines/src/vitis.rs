//! Vitis-HLS-only baseline ("Vitis designs are solely optimized by Vitis HLS").
//!
//! Out of the box, Vitis HLS pipelines innermost loops but performs no loop
//! unrolling, no array partitioning, no dataflow restructuring and no external-memory
//! tiling. The resulting design executes the kernel as one sequential task.

use hida_dialects::loops;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::device::FpgaDevice;
use hida_estimator::report::DesignEstimate;
use hida_ir_core::{Context, OpId};

/// Applies the default Vitis HLS behaviour to `func`: pipeline every innermost loop
/// with no unrolling. Returns the annotated function (unchanged id).
pub fn compile(ctx: &mut Context, func: OpId) -> OpId {
    for loop_op in loops::all_loops(ctx, func) {
        if loop_op.is_innermost(ctx) {
            loop_op.set_pipeline(ctx, 1);
        }
    }
    func
}

/// Compiles and estimates `func` as a sequential Vitis-only design.
pub fn estimate(ctx: &mut Context, func: OpId, device: &FpgaDevice) -> DesignEstimate {
    compile(ctx, func);
    DataflowEstimator::new(device.clone()).estimate(ctx, func, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_opt::{HidaOptions, Pipeline};

    #[test]
    fn vitis_pipelines_innermost_loops_only() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::Gesummv, 32);
        compile(&mut ctx, func);
        for loop_op in loops::all_loops(&ctx, func) {
            if loop_op.is_innermost(&ctx) {
                assert!(loop_op.is_pipelined(&ctx));
            } else {
                assert!(!loop_op.is_pipelined(&ctx));
            }
            assert_eq!(loop_op.unroll_factor(&ctx), 1);
        }
    }

    #[test]
    fn hida_beats_vitis_by_a_wide_margin() {
        let device = FpgaDevice::zu3eg();
        let mut ctx_v = Context::new();
        let module = ctx_v.create_module("m");
        let func_v = build_kernel(&mut ctx_v, module, PolybenchKernel::TwoMm, 64);
        let vitis = estimate(&mut ctx_v, func_v, &device);

        let mut ctx_h = Context::new();
        let module = ctx_h.create_module("m");
        let func_h = build_kernel(&mut ctx_h, module, PolybenchKernel::TwoMm, 64);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx_h, func_h)
            .unwrap();
        let hida = DataflowEstimator::new(device).estimate(&ctx_h, schedule.id(), true);

        // Table 7 reports 1.2x-195x: HIDA must be at least several times faster.
        assert!(
            hida.speedup_over(&vitis) > 3.0,
            "hida speedup over vitis was only {:.2}x",
            hida.speedup_over(&vitis)
        );
    }
}
