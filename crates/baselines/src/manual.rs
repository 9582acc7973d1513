//! Manual LeNet designs for the §2 case study (Table 1/2, Figure 1).
//!
//! The case study sweeps the parallel factors of Table 1 (batch, per-task kernel and
//! channel parallel factors) with and without coarse-grained dataflow. Each design
//! point is constructed by lowering LeNet to a structural schedule, applying the
//! requested per-node unroll factors exactly as a human would write unroll pragmas,
//! partitioning the touched arrays accordingly, and estimating the result.

use hida_dataflow_ir::structural::ScheduleOp;
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::transforms;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::device::FpgaDevice;
use hida_estimator::report::DesignEstimate;
use hida_frontend::nn::{build_model, Model};
use hida_ir_core::{AnalysisManager, Context, IrResult};
use hida_opt::{construct, fusion, lower, parallelize};

/// One manually chosen configuration of the LeNet accelerator (the Table 1 factors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LenetConfig {
    /// Batch size processed per invocation.
    pub batch: i64,
    /// Kernel (output-channel) parallel factor of task 1.
    pub kpf1: i64,
    /// Kernel parallel factor of task 2.
    pub kpf2: i64,
    /// Channel (input-channel) parallel factor of task 2.
    pub cpf2: i64,
    /// Kernel parallel factor of task 3.
    pub kpf3: i64,
    /// Channel parallel factor of task 3.
    pub cpf3: i64,
    /// Whether coarse-grained dataflow is enabled.
    pub dataflow: bool,
}

impl LenetConfig {
    /// The hand-tuned expert design of Table 2.
    pub fn expert() -> Self {
        LenetConfig {
            batch: 10,
            kpf1: 3,
            kpf2: 8,
            cpf2: 3,
            kpf3: 6,
            cpf3: 8,
            dataflow: true,
        }
    }

    /// The factor ranges swept by the exhaustive search of Figure 1.
    pub fn search_space() -> Vec<LenetConfig> {
        let mut points = Vec::new();
        for &batch in &[1_i64, 5, 10] {
            for &kpf1 in &[1_i64, 2, 6] {
                for &kpf2 in &[1_i64, 4, 16] {
                    for &cpf2 in &[1_i64, 3, 6] {
                        for &kpf3 in &[1_i64, 4, 8] {
                            for &cpf3 in &[1_i64, 4, 16] {
                                for &dataflow in &[false, true] {
                                    points.push(LenetConfig {
                                        batch,
                                        kpf1,
                                        kpf2,
                                        cpf2,
                                        kpf3,
                                        cpf3,
                                        dataflow,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

/// Builds, configures and estimates one LeNet design point.
///
/// # Errors
/// Propagates lowering failures.
pub fn lenet_design_point(config: LenetConfig, device: &FpgaDevice) -> IrResult<DesignEstimate> {
    let mut ctx = Context::new();
    let module = ctx.create_module("lenet_manual");
    let func = build_model(&mut ctx, module, Model::LeNet);
    construct::construct_functional_dataflow(&mut ctx, func)?;
    let mut analyses = AnalysisManager::new();
    fusion::fuse_tasks(
        &mut ctx,
        &mut analyses,
        func,
        &fusion::default_fusion_patterns(),
    )?;
    let schedule = lower::lower_to_structural(&mut ctx, &mut analyses, func)?;
    apply_manual_factors(&mut ctx, &mut analyses, schedule, config)?;
    let estimator = DataflowEstimator::new(device.clone());
    let mut estimate = estimator.estimate(&ctx, schedule.id(), config.dataflow);
    // Batched execution: the pipeline amortizes per-frame latency over the batch.
    if config.batch > 1 && config.dataflow {
        estimate.interval_cycles = (estimate.interval_cycles as f64
            / (1.0 + 0.05 * (config.batch - 1) as f64).min(2.0))
            as i64;
        estimate.interval_cycles = estimate.interval_cycles.max(1);
    }
    estimate.name = format!(
        "lenet[b{} k{}/{}/{} c{}/{} df={}]",
        config.batch,
        config.kpf1,
        config.kpf2,
        config.kpf3,
        config.cpf2,
        config.cpf3,
        config.dataflow
    )
    .into();
    Ok(estimate)
}

/// Applies the manual kernel/channel parallel factors of a config to the convolution
/// nodes of the schedule (in program order), mirroring hand-written unroll pragmas.
fn apply_manual_factors(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    config: LenetConfig,
) -> IrResult<()> {
    // Unroll factors are attribute edits only, so the node profiles warmed by
    // lowering survive this whole function (including the partition
    // assignment) — declare it so the mid-loop mutations don't evict them.
    analyses.begin_pass(
        ctx,
        "manual-factors",
        hida_ir_core::PreservedAnalyses::none().preserve::<ComputeProfile>(),
    );
    // Held across the attribute edits below, which change nothing they record.
    let (graph, profiles) = parallelize::schedule_profiles(ctx, analyses, schedule);
    // (kpf, cpf) per convolution task in network order; the fully-connected tail is
    // left with a modest unroll.
    let conv_factors = [
        (config.kpf1, 1),
        (config.kpf2, config.cpf2),
        (config.kpf3, config.cpf3),
    ];
    let mut conv_index = 0_usize;
    // Chosen factors by node position.
    let mut chosen = parallelize::NodeFactors::new(&profiles);
    for (position, (node, profile)) in graph.nodes().iter().zip(&profiles).enumerate() {
        if profile.loop_dims.is_empty() {
            continue;
        }
        let is_conv = profile.loop_dims.len() >= 5;
        let factors: Vec<i64> = if is_conv && conv_index < conv_factors.len() {
            let (kpf, cpf) = conv_factors[conv_index];
            conv_index += 1;
            profile
                .loop_dims
                .iter()
                .enumerate()
                .map(|(i, d)| match i {
                    0 => kpf.clamp(1, d.trip.max(1)),
                    1 => cpf.clamp(1, d.trip.max(1)),
                    _ => 1,
                })
                .collect()
        } else {
            // Fully-connected / pooling tail: unroll the first dimension modestly.
            profile
                .loop_dims
                .iter()
                .enumerate()
                .map(|(i, d)| if i == 0 { 4.clamp(1, d.trip.max(1)) } else { 1 })
                .collect()
        };
        transforms::apply_unroll_factors(ctx, node.id(), &factors);
        chosen.set(position, &factors);
    }
    parallelize::assign_array_partitions(ctx, schedule, &graph, &profiles, &chosen);
    let (_, lie) = analyses.end_pass(ctx);
    if let Some(error) = lie {
        return Err(error);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_design_fits_the_pynq_and_runs_tens_of_kimages() {
        let device = FpgaDevice::pynq_z2();
        let expert = lenet_design_point(LenetConfig::expert(), &device).unwrap();
        assert!(
            expert.throughput() > 1_000.0,
            "throughput {}",
            expert.throughput()
        );
        assert!(expert.utilization > 0.0);
    }

    #[test]
    fn dataflow_designs_dominate_non_dataflow_at_same_factors() {
        let device = FpgaDevice::pynq_z2();
        let mut with_df = LenetConfig::expert();
        with_df.dataflow = true;
        let mut without_df = with_df;
        without_df.dataflow = false;
        let a = lenet_design_point(with_df, &device).unwrap();
        let b = lenet_design_point(without_df, &device).unwrap();
        assert!(
            a.throughput() > 1.5 * b.throughput(),
            "dataflow {} vs sequential {}",
            a.throughput(),
            b.throughput()
        );
    }

    #[test]
    fn search_space_has_hundreds_of_points_with_both_settings() {
        let space = LenetConfig::search_space();
        assert!(space.len() > 500);
        assert!(space.iter().any(|c| c.dataflow));
        assert!(space.iter().any(|c| !c.dataflow));
    }
}
