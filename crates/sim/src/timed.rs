//! Frame-level timed simulation of a coarse-grained dataflow pipeline.
//!
//! Each node is a pipeline stage with a fixed per-frame latency; buffers between
//! stages hold a bounded number of in-flight frames (the ping-pong depth). The
//! simulator pushes a stream of frames through the pipeline and reports the steady
//! state interval actually achieved, which cross-checks the analytic model in
//! `hida-estimator` (critical-stage interval, stalls caused by shallow buffers on
//! reconvergent paths, and the sequential behaviour when dataflow is disabled).

use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_estimator::dataflow::DataflowEstimator;
use hida_estimator::latency::buffer_depth;
use hida_ir_core::Context;

/// Result of a timed pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// Cycle at which each frame left the pipeline.
    pub completion_cycles: Vec<i64>,
    /// Steady-state interval between consecutive frame completions.
    pub steady_interval: i64,
    /// Total cycles to drain all frames.
    pub makespan: i64,
}

/// Simulates `frames` frames flowing through the schedule's dataflow pipeline.
///
/// With `dataflow` disabled the nodes run back-to-back for each frame (sequential
/// execution). With it enabled, a node may start frame `k` as soon as (a) it finished
/// frame `k-1`, (b) all its producers finished frame `k`, and (c) every buffer it
/// writes has a free stage, i.e. its consumers are at most `depth-1` frames behind.
pub fn simulate_pipeline(
    ctx: &Context,
    schedule: ScheduleOp,
    estimator: &DataflowEstimator,
    frames: usize,
    dataflow: bool,
) -> PipelineTrace {
    // Every per-node table below goes by node position.
    let nodes = schedule.nodes(ctx);
    let latencies: Vec<i64> = nodes
        .iter()
        .map(|&n| estimator.estimate_node(ctx, n).latency_cycles.max(1))
        .collect();
    if nodes.is_empty() || frames == 0 {
        return PipelineTrace {
            completion_cycles: vec![],
            steady_interval: 1,
            makespan: 0,
        };
    }

    if !dataflow {
        let per_frame: i64 = latencies.iter().sum();
        let completion: Vec<i64> = (1..=frames as i64).map(|k| k * per_frame).collect();
        return PipelineTrace {
            steady_interval: per_frame,
            makespan: *completion.last().unwrap(),
            completion_cycles: completion,
        };
    }

    let graph = DataflowGraph::from_schedule(ctx, schedule);
    let position = |node| graph.position(node).expect("an edge joins nodes");
    // finish[node][frame] = cycle when the node finished that frame.
    let mut finish: Vec<Vec<i64>> = vec![Vec::with_capacity(frames); nodes.len()];
    // Buffer depth between producer/consumer pairs.
    let edge_depth: Vec<(usize, usize, i64)> = graph
        .edges()
        .iter()
        .map(|e| {
            (
                position(e.producer),
                position(e.consumer),
                buffer_depth(ctx, e.buffer).max(1),
            )
        })
        .collect();

    for frame in 0..frames {
        for (node, &latency) in latencies.iter().enumerate() {
            let mut start: i64 = 0;
            // (a) The node itself is busy until it finished the previous frame.
            if frame > 0 {
                start = start.max(finish[node][frame - 1]);
            }
            // (b) Producers must have delivered this frame.
            for &pred in graph.predecessors(nodes[node]) {
                start = start.max(finish[position(pred)][frame]);
            }
            // (c) Back-pressure: a producer may run at most `depth` frames ahead of
            // each consumer on the connecting buffer.
            for &(producer, consumer, depth) in &edge_depth {
                if producer == node {
                    let lag = frame as i64 - depth;
                    if lag >= 0 {
                        start = start.max(finish[consumer][lag as usize]);
                    }
                }
            }
            finish[node].push(start + latency);
        }
    }

    let completion: Vec<i64> = (0..frames)
        .map(|frame| finish.iter().map(|done| done[frame]).max().unwrap())
        .collect();
    let steady_interval = if frames >= 3 {
        completion[frames - 1] - completion[frames - 2]
    } else {
        completion[0]
    };
    PipelineTrace {
        steady_interval: steady_interval.max(1),
        makespan: *completion.last().unwrap(),
        completion_cycles: completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_estimator::device::FpgaDevice;
    use hida_frontend::polybench::{build_kernel, PolybenchKernel};
    use hida_opt::{HidaOptions, Pipeline};

    fn optimized(kernel: PolybenchKernel) -> (Context, ScheduleOp) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, kernel, 32);
        let schedule = Pipeline::from_options(&HidaOptions::polybench())
            .run(&mut ctx, func)
            .unwrap();
        (ctx, schedule)
    }

    #[test]
    fn dataflow_simulation_matches_the_analytic_interval_model() {
        let (ctx, schedule) = optimized(PolybenchKernel::ThreeMm);
        let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
        let analytic = estimator.estimate(&ctx, schedule.id(), true);
        let trace = simulate_pipeline(&ctx, schedule, &estimator, 8, true);
        // Steady-state interval must match the analytic critical-node interval within
        // a small tolerance (the analytic model adds stall factors conservatively).
        let ratio = trace.steady_interval as f64 / analytic.interval_cycles as f64;
        assert!(
            (0.5..=1.5).contains(&ratio),
            "simulated {} vs analytic {}",
            trace.steady_interval,
            analytic.interval_cycles
        );
    }

    #[test]
    fn sequential_simulation_is_slower_than_dataflow() {
        let (ctx, schedule) = optimized(PolybenchKernel::TwoMm);
        let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
        let df = simulate_pipeline(&ctx, schedule, &estimator, 6, true);
        let seq = simulate_pipeline(&ctx, schedule, &estimator, 6, false);
        assert!(df.steady_interval < seq.steady_interval);
        assert!(df.makespan < seq.makespan);
        assert_eq!(df.completion_cycles.len(), 6);
        // Completion times are monotone.
        assert!(df.completion_cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_request_yields_empty_trace() {
        let (ctx, schedule) = optimized(PolybenchKernel::TwoMm);
        let estimator = DataflowEstimator::new(FpgaDevice::zu3eg());
        let trace = simulate_pipeline(&ctx, schedule, &estimator, 0, true);
        assert!(trace.completion_cycles.is_empty());
        assert_eq!(trace.makespan, 0);
    }
}
