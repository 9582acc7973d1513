//! ScaleHLS-style baseline.
//!
//! ScaleHLS (the paper's main comparison point) legalizes a computation graph into a
//! dataflow design and optimizes each task with a QoR-estimator-driven DSE, but —
//! per §6 and §7.2 of the HIDA paper —
//!
//! * it ignores the inter-task design-space coupling (no connection awareness),
//! * it performs no dataflow-oriented balancing (shortcut paths stall),
//! * it has no external-memory access support, so every intermediate result stays in
//!   on-chip memory at full size,
//! * it cannot compile models with irregular convolutions or high-resolution inputs
//!   (ZFNet, YOLO).

use hida_dataflow_ir::structural::ScheduleOp;
use hida_frontend::nn::Model;
use hida_ir_core::{AnalysisManager, Context, IrResult, OpId};
use hida_opt::{construct, lower, parallelize, ParallelMode};

/// Returns true when the ScaleHLS baseline supports the model (the paper reports no
/// results for ZFNet and YOLO).
pub fn supports(model: Model) -> bool {
    !matches!(model, Model::ZfNet | Model::TinyYolo)
}

/// Compiles `func` with the ScaleHLS-style flow and returns the resulting schedule.
///
/// # Errors
/// Propagates pass failures from the shared pass implementations.
pub fn compile(ctx: &mut Context, func: OpId, max_parallel_factor: i64) -> IrResult<ScheduleOp> {
    construct::construct_functional_dataflow(ctx, func)?;
    // No task fusion, no multi-producer elimination, no balancing, no tiling.
    let mut analyses = AnalysisManager::new();
    let schedule = lower::lower_to_structural(ctx, &mut analyses, func)?;
    // Per-task intensity-aware DSE without connection awareness.
    parallelize::parallelize_schedule(
        ctx,
        &mut analyses,
        schedule,
        max_parallel_factor,
        ParallelMode::IaOnly,
    )?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dialects::hls::MemoryKind;
    use hida_estimator::dataflow::DataflowEstimator;
    use hida_estimator::device::FpgaDevice;
    use hida_frontend::nn::build_model;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_opt::{HidaOptions, Pipeline};

    #[test]
    fn scalehls_keeps_all_intermediates_on_chip() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::LeNet);
        let schedule = compile(&mut ctx, func, 16).unwrap();
        let external = schedule
            .internal_buffers(&ctx)
            .iter()
            .filter(|b| b.memory_kind(&ctx) == MemoryKind::External)
            // The host input buffer is external in both flows.
            .filter(|b| !b.name(&ctx).contains("input"))
            .count();
        assert_eq!(external, 0, "scalehls has no external memory support");
    }

    #[test]
    fn hida_outperforms_scalehls_on_multi_loop_kernels() {
        let device = FpgaDevice::zu3eg();
        let estimator = DataflowEstimator::new(device.clone());

        let mut ctx_scale = Context::new();
        let module = ctx_scale.create_module("m");
        let func = build_kernel(&mut ctx_scale, module, PolybenchKernel::Mvt, 64);
        let scale_schedule = compile(&mut ctx_scale, func, 16).unwrap();
        let scale = estimator.estimate_schedule(&ctx_scale, scale_schedule, true);

        let mut ctx_hida = Context::new();
        let module = ctx_hida.create_module("m");
        let func = build_kernel(&mut ctx_hida, module, PolybenchKernel::Mvt, 64);
        let hida_schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx_hida, func)
            .unwrap();
        let hida = estimator.estimate_schedule(&ctx_hida, hida_schedule, true);

        assert!(
            hida.throughput() >= scale.throughput() * 0.99,
            "hida {} vs scalehls {}",
            hida.throughput(),
            scale.throughput()
        );
    }

    #[test]
    fn unsupported_models_are_reported() {
        assert!(!supports(Model::ZfNet));
        assert!(!supports(Model::TinyYolo));
        assert!(supports(Model::ResNet18));
        assert!(supports(Model::Mlp));
    }
}
