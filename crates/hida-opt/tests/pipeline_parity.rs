//! The pipeline-driven optimizer must produce the same schedule and QoR as the
//! hand-rolled pass sequence it replaced (the pre-pipeline `HidaOptimizer::run`).
//!
//! The reference below replays that exact sequence by calling the pass-module free
//! functions directly. Two subjects are compared against it: the
//! `Pipeline::from_options` flow (which renders the options as pipeline text and
//! parses it through the pass registry) and an explicitly registry-built pipeline
//! (`Pipeline::parse` of the textual form, round-tripped once through
//! `to_text`). All are compared structurally (nodes, unroll factors, partitions,
//! buffer placement) and on the estimated QoR.

use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::report::DesignEstimate;
use hida_frontend::nn::{build_model, Model};
use hida_frontend::polybench::{build_kernel, PolybenchKernel};
use hida_ir_core::{Context, OpId};
use hida_opt::{construct, fusion, lower, parallelize, structural_opt, tiling};
use hida_opt::{registry, HidaOptimizer, HidaOptions, Pipeline};

/// One comparable snapshot of an optimized schedule.
#[derive(Debug, PartialEq)]
struct ScheduleSnapshot {
    nodes: Vec<NodeSnapshot>,
    buffers: Vec<BufferSnapshot>,
}

#[derive(Debug, PartialEq)]
struct NodeSnapshot {
    name: String,
    unroll: Vec<i64>,
    parallel_factor: i64,
}

#[derive(Debug, PartialEq)]
struct BufferSnapshot {
    name: String,
    depth: i64,
    external: bool,
    partition_factors: Vec<i64>,
}

fn snapshot(ctx: &Context, schedule: ScheduleOp) -> ScheduleSnapshot {
    let mut analyses = hida_ir_core::AnalysisManager::new();
    let nodes = schedule
        .nodes(ctx)
        .into_iter()
        .map(|node| {
            let rank = analyses
                .get::<hida_dialects::analysis::ComputeProfile>(ctx, node.id())
                .loop_dims
                .len();
            NodeSnapshot {
                name: node.name(ctx),
                unroll: hida_dialects::transforms::unroll_factors_of(ctx, node.id(), rank)
                    .into_owned(),
                parallel_factor: ctx.op(node.id()).attr_int("parallel_factor").unwrap_or(0),
            }
        })
        .collect();
    let buffers = schedule
        .internal_buffers(ctx)
        .into_iter()
        .map(|buffer| BufferSnapshot {
            name: buffer.name(ctx),
            depth: buffer.depth(ctx),
            external: buffer.memory_kind(ctx) == hida_dialects::hls::MemoryKind::External,
            partition_factors: buffer.partition(ctx).factors,
        })
        .collect();
    ScheduleSnapshot { nodes, buffers }
}

/// Replays the seed's hand-rolled optimizer sequence step by step.
fn run_hand_rolled(ctx: &mut Context, func: OpId, options: &HidaOptions) -> ScheduleOp {
    let mut analyses = hida_ir_core::AnalysisManager::new();
    construct::construct_functional_dataflow(ctx, func).unwrap();
    if options.enable_fusion {
        fusion::fuse_tasks(ctx, &mut analyses, func, &fusion::default_fusion_patterns()).unwrap();
    }
    let schedule = lower::lower_to_structural(ctx, &mut analyses, func).unwrap();
    if options.enable_balancing {
        structural_opt::eliminate_multi_producers(ctx, schedule).unwrap();
    }
    if let Some(tile) = options.tile_size {
        tiling::apply_tiling(
            ctx,
            &mut analyses,
            schedule,
            tile,
            options.external_threshold_bytes,
        );
    }
    if options.enable_balancing {
        structural_opt::balance_data_paths(
            ctx,
            &mut analyses,
            schedule,
            options.external_threshold_bytes,
        )
        .unwrap();
    }
    parallelize::parallelize_schedule(
        ctx,
        &mut analyses,
        schedule,
        options.max_parallel_factor,
        options.mode,
    )
    .unwrap();
    schedule
}

fn estimate(ctx: &Context, schedule: ScheduleOp, options: &HidaOptions) -> DesignEstimate {
    DataflowEstimator::new(options.device.clone()).estimate_schedule(ctx, schedule, true)
}

enum TestWorkload {
    Polybench(PolybenchKernel, i64),
    Nn(Model),
}

fn build(ctx: &mut Context, workload: &TestWorkload) -> OpId {
    let module = ctx.create_module("m");
    match workload {
        TestWorkload::Polybench(kernel, n) => build_kernel(ctx, module, *kernel, *n),
        TestWorkload::Nn(model) => build_model(ctx, module, *model),
    }
}

fn assert_parity(workload: TestWorkload, options: HidaOptions) {
    // Reference: the seed's hand-rolled call sequence.
    let mut ref_ctx = Context::new();
    let ref_func = build(&mut ref_ctx, &workload);
    let ref_schedule = run_hand_rolled(&mut ref_ctx, ref_func, &options);
    let ref_snapshot = snapshot(&ref_ctx, ref_schedule);
    let ref_estimate = estimate(&ref_ctx, ref_schedule, &options);

    // Subject: the pipeline-driven optimizer.
    let mut ctx = Context::new();
    let func = build(&mut ctx, &workload);
    let (schedule, statistics) = HidaOptimizer::new(options.clone())
        .run_with_statistics(&mut ctx, func)
        .unwrap();
    let pipe_snapshot = snapshot(&ctx, schedule);
    let pipe_estimate = estimate(&ctx, schedule, &options);

    assert_eq!(pipe_snapshot, ref_snapshot, "schedules diverged");
    assert_eq!(
        pipe_estimate.throughput(),
        ref_estimate.throughput(),
        "throughput QoR diverged"
    );
    assert_eq!(
        pipe_estimate.resources, ref_estimate.resources,
        "resource QoR diverged"
    );
    assert!(!statistics.is_empty());

    // Second subject: the registry-built flow, parsed from the textual pipeline
    // and round-tripped once through to_text.
    let text = options.pipeline_text();
    let parsed = Pipeline::parse(&registry(), &text).expect("options text parses");
    let mut parsed = Pipeline::parse(&registry(), &parsed.to_text()).expect("to_text re-parses");
    let mut reg_ctx = Context::new();
    let reg_func = build(&mut reg_ctx, &workload);
    let reg_schedule = parsed.run(&mut reg_ctx, reg_func).unwrap();
    assert_eq!(
        snapshot(&reg_ctx, reg_schedule),
        ref_snapshot,
        "registry-built schedule diverged from the hand-rolled reference"
    );
    let reg_estimate = estimate(&reg_ctx, reg_schedule, &options);
    assert_eq!(reg_estimate.throughput(), ref_estimate.throughput());
    assert_eq!(reg_estimate.resources, ref_estimate.resources);
}

#[test]
fn twomm_pipeline_matches_hand_rolled_sequence() {
    assert_parity(
        TestWorkload::Polybench(PolybenchKernel::TwoMm, 32),
        HidaOptions::polybench(),
    );
}

#[test]
fn lenet_pipeline_matches_hand_rolled_sequence() {
    assert_parity(TestWorkload::Nn(Model::LeNet), HidaOptions::dnn());
}

#[test]
fn parity_holds_with_fusion_and_balancing_disabled() {
    assert_parity(
        TestWorkload::Nn(Model::LeNet),
        HidaOptions {
            enable_fusion: false,
            enable_balancing: false,
            tile_size: None,
            ..HidaOptions::dnn()
        },
    );
}
