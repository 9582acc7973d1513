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

use hida_estimator::device::FpgaDevice;
use hida_frontend::nn::Model;

/// Returns true when the ScaleHLS baseline supports the model (the paper reports no
/// results for ZFNet and YOLO).
pub fn supports(model: Model) -> bool {
    !matches!(model, Model::ZfNet | Model::TinyYolo)
}

/// The ScaleHLS-style flow as a pass pipeline, sized for `device`: dataflow
/// legalization and lowering with no task fusion, no multi-producer
/// elimination, no tiling and no balancing, then per-task intensity-aware DSE
/// without connection awareness. A compiler given this text builds the
/// baseline design from the same IR as HIDA's.
pub fn pipeline(max_parallel_factor: i64, device: &FpgaDevice) -> String {
    format!(
        "construct,lower,parallelize{{max-factor={max_parallel_factor},mode=IA,device={}}}",
        device.name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dataflow_ir::structural::ScheduleOp;
    use hida_dialects::hls::MemoryKind;
    use hida_estimator::dataflow::DataflowEstimator;
    use hida_frontend::nn::build_model;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_ir_core::{Context, OpId};
    use hida_opt::{registry, HidaOptions, ParallelMode, Pipeline};

    /// Runs the baseline's pipeline over `func`.
    fn compile(ctx: &mut Context, func: OpId, max_parallel_factor: i64) -> ScheduleOp {
        let text = pipeline(max_parallel_factor, &FpgaDevice::zu3eg());
        let mut pipeline = Pipeline::parse(&registry(), &text).unwrap();
        pipeline.run(ctx, func).unwrap()
    }

    #[test]
    fn the_pipeline_is_ia_only_without_fusion_tiling_or_balancing() {
        let text = pipeline(64, &FpgaDevice::vu9p_slr());
        let pipeline = Pipeline::parse(&registry(), &text).unwrap();
        assert_eq!(
            pipeline.pass_names(),
            [
                "hida-construct-dataflow",
                "hida-lower-structural",
                "hida-parallelize"
            ]
        );
        let mode = ParallelMode::IaOnly.label();
        assert_eq!(
            pipeline.to_text(),
            format!(
                "construct,lower,parallelize{{max-parallel-factor=64,mode={mode},device=vu9p-slr}}"
            )
        );
    }

    #[test]
    fn scalehls_keeps_all_intermediates_on_chip() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_model(&mut ctx, module, Model::LeNet);
        let schedule = compile(&mut ctx, func, 16);
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
        let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());

        let mut ctx_scale = Context::new();
        let module = ctx_scale.create_module("m");
        let func = build_kernel(&mut ctx_scale, module, PolybenchKernel::Mvt, 64);
        let scale_schedule = compile(&mut ctx_scale, func, 16);
        let scale = estimator.estimate(&ctx_scale, scale_schedule.id(), true);

        let mut ctx_hida = Context::new();
        let module = ctx_hida.create_module("m");
        let func = build_kernel(&mut ctx_hida, module, PolybenchKernel::Mvt, 64);
        let hida_schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx_hida, func)
            .unwrap();
        let hida = estimator.estimate(&ctx_hida, hida_schedule.id(), true);

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
