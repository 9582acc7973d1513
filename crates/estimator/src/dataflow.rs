//! Schedule-level dataflow throughput estimation.
//!
//! A well-formed HIDA dataflow executes its nodes in a coarse-grained pipeline: with
//! ping-pong buffers between stages, a new data frame can enter the design every
//! `max_i(latency_i)` cycles (the critical node determines the achievable rate,
//! paper §1). Unbalanced data paths stall the producer (Figure 8) unless buffers on
//! the short path are deep enough; with dataflow disabled, the design degenerates to
//! sequential execution and the interval equals the sum of node latencies.

use crate::device::FpgaDevice;
use crate::latency::{
    buffer_depth, buffer_info, evaluate, gather, named, NodeEstimate, NodeModelInputs,
};
use crate::report::DesignEstimate;
use crate::resource::Resources;
use crate::shared_cache::{device_fingerprint, inputs_key, SharedCacheStats, SharedEstimateCache};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::{NodeOp, ScheduleOp};
use hida_dialects::analysis::ComputeProfile;
use hida_ir_core::analysis::{AnalysisCacheStats, AnalysisManager};
use hida_ir_core::Fingerprint;
use hida_ir_core::{Context, OpId, ParallelStats};
use std::cell::{RefCell, RefMut};
use std::fmt;
use std::sync::Arc;

/// Estimates complete designs (schedules or plain functions) on a target device.
///
/// Everything the estimator derives from the IR goes through one
/// [`AnalysisManager`]: compute profiles, the schedule's dataflow graph, its
/// buffer totals and the per-node estimates themselves. Repeated estimations
/// of an unchanged design (the dataflow and sequential variants of one
/// schedule, a [bound](DataflowEstimator::bound) and then the estimate)
/// recompute nothing, and an estimator built [over](DataflowEstimator::over)
/// the manager the pass pipeline ran with starts from the profiles and the
/// graph the passes left in it. The cache is keyed by context identity and
/// mutation generation, so estimating a design after an IR edit
/// transparently recomputes exactly the stale nodes.
///
/// The interior cache makes the estimator `Send` but **not `Sync`**: share-
/// nothing parallel sweeps should give each worker its own [`Clone`] (clones
/// start with a cold cache and the same device). One estimation runs on the
/// calling thread.
///
/// For design-space sweeps, [`DataflowEstimator::with_shared_cache`] attaches
/// a content-addressed [`SharedEstimateCache`]: local misses consult the
/// shared cache under the [key](crate::shared_cache::inputs_key) of the
/// node's model inputs before evaluating them, so nodes the model cannot
/// tell apart are evaluated once *across* independent compilations.
pub struct DataflowEstimator {
    device: FpgaDevice,
    /// Fingerprint of the full device description: half of every cache key.
    device_key: Fingerprint,
    analyses: RefCell<AnalysisManager>,
    /// What `analyses` had counted before this estimator got it.
    baseline: AnalysisCacheStats,
    /// Cross-compilation estimate cache, when one is attached.
    shared: Option<Arc<SharedEstimateCache>>,
    /// This estimator's own traffic against the shared cache.
    shared_traffic: RefCell<SharedCacheStats>,
    /// Nodes a [bound](DataflowEstimator::bound) keyed and estimated without
    /// counting or publishing; the next `estimate_schedule` settles them.
    probed: RefCell<Vec<(OpId, Fingerprint)>>,
}

impl Clone for DataflowEstimator {
    fn clone(&self) -> Self {
        // The per-context cache is an implementation detail; clones start with
        // a cold local cache but keep sharing the cross-compilation cache.
        let mut clone = DataflowEstimator::new(self.device.clone());
        clone.shared = self.shared.clone();
        clone
    }
}

impl fmt::Debug for DataflowEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataflowEstimator")
            .field("device", &self.device)
            .field("cache", &self.cache_stats())
            .field("shared", &self.shared.as_ref().map(|c| c.stats()))
            .finish()
    }
}

/// Resources and number of the buffers a schedule declares: the same for its
/// dataflow estimate, its sequential estimate and its bound.
struct BufferTotals {
    resources: Resources,
    count: i64,
}

impl DataflowEstimator {
    /// Creates an estimator for the given device, with an empty cache.
    pub fn new(device: FpgaDevice) -> Self {
        DataflowEstimator::over(device, AnalysisManager::new())
    }

    /// Creates an estimator that reads and memoizes through `analyses`. Handed
    /// the cache a design's pass pipeline ran with, it finds every profile
    /// and graph the last pass preserved instead of re-deriving them.
    pub fn over(device: FpgaDevice, analyses: AnalysisManager) -> Self {
        DataflowEstimator {
            device_key: device_fingerprint(&device),
            device,
            baseline: analyses.stats().clone(),
            analyses: RefCell::new(analyses),
            shared: None,
            shared_traffic: RefCell::new(SharedCacheStats::default()),
            probed: RefCell::new(Vec::new()),
        }
    }

    /// Ignores `jobs`: an estimation runs on the calling thread. Kept only
    /// because `benchmark/src/layers.rs:237` (frozen) calls it.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Attaches a cross-compilation [`SharedEstimateCache`]: when the local
    /// per-context memoization misses, the key of the node's model inputs is
    /// looked up in (and evaluated results are published to) the shared
    /// cache, so equal inputs are evaluated only once across a whole
    /// design-space sweep. Estimates are unchanged by sharing — the key is
    /// every input of the per-node model.
    pub fn with_shared_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// The attached cross-compilation cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedEstimateCache>> {
        self.shared.as_ref()
    }

    /// This estimator's own hit/miss traffic against the attached shared
    /// cache (all-zero when none is attached). The cache's
    /// [`SharedEstimateCache::stats`] aggregates over every attached
    /// estimator instead.
    pub fn shared_cache_stats(&self) -> SharedCacheStats {
        let mut stats = *self.shared_traffic.borrow();
        if let Some(cache) = &self.shared {
            stats.entries = cache.len() as u64;
        }
        stats
    }

    /// All-zero: the estimator runs no batch. Kept only because
    /// `benchmark/src/layers.rs:283` (frozen) calls it.
    #[doc(hidden)]
    pub fn parallel_stats(&self) -> ParallelStats {
        ParallelStats::default()
    }

    /// The target device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Cache traffic this estimator caused on its analysis manager: what the
    /// manager has counted since the estimator got it.
    pub fn cache_stats(&self) -> AnalysisCacheStats {
        self.analyses.borrow().stats().since(&self.baseline)
    }

    /// The analysis manager, lent to whoever reads the design next (the
    /// emitter takes its compute profiles from it).
    pub fn analyses(&self) -> RefMut<'_, AnalysisManager> {
        self.analyses.borrow_mut()
    }

    /// Estimates one node of a schedule (memoized per IR generation).
    pub fn estimate_node(&self, ctx: &Context, node: NodeOp) -> NodeEstimate {
        NodeEstimate::clone(&self.body_estimate(ctx, node.id()))
    }

    /// The memoized estimate of `op`'s body, or what `on_miss` makes of it,
    /// memoized. The device is fixed per estimator, so the (type, op) cache
    /// key is unambiguous within one instance. `on_miss` reads this same
    /// manager (the node's profile), so it runs before the manager is
    /// borrowed for the result.
    fn memoized(
        &self,
        ctx: &Context,
        op: OpId,
        on_miss: impl FnOnce() -> NodeEstimate,
    ) -> Arc<NodeEstimate> {
        let valid = self
            .analyses
            .borrow()
            .cached_any::<NodeEstimate>(ctx, op)
            .is_some();
        let estimate = (!valid).then(on_miss);
        let mut analyses = self.analyses.borrow_mut();
        analyses.get_with(ctx, op, "node-estimate", |_, _| {
            estimate.expect("an entry that is not valid was just computed")
        })
    }

    /// The node model's inputs, gathered from `op`'s cached compute profile.
    fn inputs(&self, ctx: &Context, op: OpId) -> NodeModelInputs {
        let profile = self.analyses.borrow_mut().get::<ComputeProfile>(ctx, op);
        gather(ctx, op, &profile)
    }

    /// The estimate of `op`'s body: gather, then evaluate. With a shared
    /// cache attached the gathered inputs are keyed and looked up in between,
    /// and what a miss evaluates is published — without a name, which is no
    /// input of the key: every estimate leaves here under `op`'s own.
    fn body_estimate(&self, ctx: &Context, op: OpId) -> Arc<NodeEstimate> {
        self.memoized(ctx, op, || {
            let inputs = self.inputs(ctx, op);
            let Some(cache) = &self.shared else {
                return named(ctx, op, evaluate(&inputs, &self.device));
            };
            let key = inputs_key(&inputs, self.device_key);
            let served = cache.lookup(key);
            self.record_shared_traffic(served.is_some());
            let estimate = served.unwrap_or_else(|| {
                let estimate = evaluate(&inputs, &self.device);
                cache.publish(key, estimate.clone());
                estimate
            });
            named(ctx, op, estimate)
        })
    }

    /// The estimate of `op`'s body for a bound: `cache` is only peeked —
    /// nothing is counted and nothing published, so a bound leaves no trace
    /// another design point could see — and the node is remembered for the
    /// next `estimate_schedule` to settle.
    pub(crate) fn probe(
        &self,
        ctx: &Context,
        op: OpId,
        cache: Option<&SharedEstimateCache>,
        probe_hits: &mut usize,
    ) -> Arc<NodeEstimate> {
        self.memoized(ctx, op, || {
            let inputs = self.inputs(ctx, op);
            let served = cache.and_then(|cache| {
                let key = inputs_key(&inputs, self.device_key);
                self.probed.borrow_mut().push((op, key));
                cache.peek(key)
            });
            *probe_hits += usize::from(served.is_some());
            let estimate = served.unwrap_or_else(|| evaluate(&inputs, &self.device));
            named(ctx, op, estimate)
        })
    }

    /// Does for every probed node what `body_estimate` would have done on its
    /// local miss — the counted lookup, and the publish when that misses —
    /// with the key and the estimate the probe left behind.
    fn settle_probed(&self, ctx: &Context) {
        let probed = std::mem::take(&mut *self.probed.borrow_mut());
        let Some(cache) = &self.shared else { return };
        for (op, key) in probed {
            let analyses = self.analyses.borrow();
            // The IR changed since the bound: the node is estimated afresh.
            let Some(estimate) = analyses.cached_any::<NodeEstimate>(ctx, op) else {
                continue;
            };
            let hit = cache.lookup(key).is_some();
            if !hit {
                let unnamed = NodeEstimate {
                    name: String::new(),
                    ..*estimate
                };
                cache.publish(key, unnamed);
            }
            self.record_shared_traffic(hit);
        }
    }

    /// Folds one lookup into this estimator's local view of the shared-cache
    /// traffic.
    fn record_shared_traffic(&self, hit: bool) {
        let mut traffic = self.shared_traffic.borrow_mut();
        if hit {
            traffic.hits += 1;
        } else {
            traffic.misses += 1;
        }
    }

    pub(crate) fn graph(&self, ctx: &Context, schedule: ScheduleOp) -> Arc<DataflowGraph> {
        self.analyses
            .borrow_mut()
            .get::<DataflowGraph>(ctx, schedule.id())
    }

    /// Buffer resources of `schedule`: every buffer declared in it, and the
    /// `memref.alloc`s nested anywhere inside (baseline flows keep full
    /// intermediate arrays on chip this way).
    pub(crate) fn buffer_totals(&self, ctx: &Context, schedule: ScheduleOp) -> (Resources, i64) {
        let mut analyses = self.analyses.borrow_mut();
        let totals = analyses.get_with(ctx, schedule.id(), "buffer-totals", |ctx, op| {
            let buffers = schedule.internal_buffers(ctx).into_iter();
            let allocs = ctx.collect_ops(op, hida_dialects::memory::ALLOC);
            let values = buffers
                .map(|buffer| buffer.value(ctx))
                .chain(allocs.into_iter().map(|alloc| ctx.op(alloc).results[0]));
            let mut totals = BufferTotals {
                resources: Resources::zero(),
                count: 0,
            };
            for value in values {
                totals.resources += buffer_info(ctx, value).resources();
                totals.count += 1;
            }
            totals
        });
        (totals.resources, totals.count)
    }

    /// Estimates a structural dataflow schedule.
    ///
    /// When `dataflow_enabled` is false the nodes execute sequentially (the paper's
    /// "w/o df" configurations); otherwise the schedule is a coarse-grained pipeline.
    pub fn estimate_schedule(
        &self,
        ctx: &Context,
        schedule: ScheduleOp,
        dataflow_enabled: bool,
    ) -> DesignEstimate {
        self.settle_probed(ctx);
        let nodes = schedule.nodes(ctx);
        let node_estimates: Vec<NodeEstimate> = nodes
            .iter()
            .map(|&n| {
                // Per-node cancellation checkpoint: estimation is infallible,
                // so a hit deadline unwinds cooperatively and is classified at
                // the nearest isolation layer (pass manager or sweep engine).
                hida_ir_core::fault::checkpoint_or_unwind("estimator/node-loop");
                // The caller owns its `DesignEstimate`; this is the one copy
                // per query.
                NodeEstimate::clone(&self.body_estimate(ctx, n.id()))
            })
            .collect();

        let (buffer_res, buffer_count) = self.buffer_totals(ctx, schedule);
        let compute_res: Resources = node_estimates.iter().map(|e| e.resources).sum();
        let total_res = compute_res + buffer_res;
        let total_macs: i64 = node_estimates.iter().map(|e| e.macs).sum();

        let (mut interval, mut latency) = if dataflow_enabled {
            self.pipeline_timing(ctx, schedule, &node_estimates)
        } else {
            let total: i64 = node_estimates.iter().map(|e| e.latency_cycles).sum();
            (total.max(1), total.max(1))
        };
        // Over-subscribed designs cannot sustain their nominal parallelism: a design
        // demanding more BRAM/DSP/LUT than the device provides must serialise or
        // time-multiplex the excess, so the achieved rate degrades proportionally to
        // the over-subscription (this is what limits ScaleHLS-style all-on-chip
        // designs and the Naive parallelization mode at large parallel factors).
        let over = total_res.utilization(&self.device);
        if over > 1.0 {
            interval = (interval as f64 * over).ceil() as i64;
            latency = (latency as f64 * over).ceil() as i64;
        }

        DesignEstimate {
            name: schedule_name(ctx, schedule.id()),
            interval_cycles: interval,
            latency_cycles: latency,
            resources: total_res,
            macs_per_sample: total_macs,
            node_estimates,
            buffer_count,
            clock_mhz: self.device.clock_mhz,
            utilization: total_res.utilization(&self.device),
        }
    }

    /// Estimates a plain function body (no dataflow structure), e.g. the Vitis-only
    /// baseline or a single fused task.
    pub fn estimate_function(&self, ctx: &Context, func: OpId) -> DesignEstimate {
        let est = NodeEstimate::clone(&self.body_estimate(ctx, func));
        let mut buffer_res = Resources::zero();
        let mut buffer_count = 0;
        for op in ctx.collect_ops(func, hida_dialects::memory::ALLOC) {
            let value = ctx.op(op).results[0];
            buffer_res += buffer_info(ctx, value).resources();
            buffer_count += 1;
        }
        for op in ctx.collect_ops(func, hida_dataflow_ir::op_names::BUFFER) {
            let value = ctx.op(op).results[0];
            buffer_res += buffer_info(ctx, value).resources();
            buffer_count += 1;
        }
        let total_res = est.resources + buffer_res;
        let over = total_res.utilization(&self.device).max(1.0);
        let cycles = (est.latency_cycles as f64 * over).ceil() as i64;
        DesignEstimate {
            name: est.name.clone(),
            interval_cycles: cycles,
            latency_cycles: cycles,
            resources: total_res,
            macs_per_sample: est.macs,
            node_estimates: vec![est],
            buffer_count,
            clock_mhz: self.device.clock_mhz,
            utilization: total_res.utilization(&self.device),
        }
    }

    /// Stall factors from unbalanced reconvergent paths, by node position:
    /// the producer of a short path cannot issue a new frame until the long
    /// path drains, unless the buffer on the short edge holds enough
    /// in-flight frames. Purely topological — path-depth imbalance against
    /// buffer depth, no timing — so a bound charges them exactly as the
    /// estimate does.
    pub(crate) fn stall_factors(ctx: &Context, graph: &DataflowGraph) -> Vec<i64> {
        let mut stall = vec![1_i64; graph.nodes().len()];
        for (edge, imbalance) in graph.unbalanced_edges() {
            let required_depth = imbalance as i64 + 1;
            let actual_depth = buffer_depth(ctx, edge.buffer).max(1);
            if actual_depth < required_depth {
                let factor = (required_depth + actual_depth - 1) / actual_depth;
                let producer = graph.position(edge.producer).expect("an edge joins nodes");
                stall[producer] = stall[producer].max(factor);
            }
        }
        stall
    }

    /// Computes the pipeline interval and end-to-end latency of a dataflow schedule,
    /// accounting for unbalanced-path stalls. `estimates` go by node position.
    fn pipeline_timing(
        &self,
        ctx: &Context,
        schedule: ScheduleOp,
        estimates: &[NodeEstimate],
    ) -> (i64, i64) {
        if estimates.is_empty() {
            return (1, 1);
        }
        let graph = self.graph(ctx, schedule);
        let stall = Self::stall_factors(ctx, &graph);
        let interval = estimates
            .iter()
            .zip(&stall)
            .map(|(estimate, stall)| estimate.latency_cycles * stall)
            .max()
            .unwrap_or(1)
            .max(1);

        // End-to-end latency: longest-latency path through the dataflow graph.
        // Predecessors come first in program order, so theirs is known.
        let mut path_latency: Vec<i64> = Vec::with_capacity(estimates.len());
        for (&node, estimate) in graph.nodes().iter().zip(estimates) {
            let best_pred = graph
                .predecessors(node)
                .iter()
                .filter_map(|&pred| graph.position(pred).map(|at| path_latency[at]))
                .max()
                .unwrap_or(0);
            path_latency.push(best_pred + estimate.latency_cycles);
        }
        let latency = path_latency.iter().copied().max().unwrap_or(1).max(1);
        (interval, latency)
    }
}

fn schedule_name(ctx: &Context, op: OpId) -> String {
    ctx.op(op)
        .attr_str("schedule_name")
        .map(str::to_string)
        .unwrap_or_else(|| format!("schedule{}", op.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dataflow_ir::structural::{build_buffer, build_node, build_schedule, NodeOp};
    use hida_dialects::analysis::MemEffect;
    use hida_dialects::arith;
    use hida_dialects::loops::build_loop_nest;
    use hida_dialects::memory::{build_load, build_store};
    use hida_ir_core::{OpBuilder, Type, ValueId};

    /// Adds a simple compute body (elementwise copy with one multiply) to a node,
    /// iterating `n` elements of its first two args.
    fn fill_node_body(ctx: &mut Context, node: NodeOp, n: i64) {
        let body = node.body(ctx);
        let args = node.body_args(ctx);
        let (_l, ivs, inner) = build_loop_nest(ctx, body, &[(0, n, "i")]);
        let mut b = OpBuilder::at_block_end(ctx, inner);
        let x = build_load(&mut b, args[0], &[ivs[0]]);
        let y = arith::build_binary(&mut b, arith::MULF, x, x);
        build_store(&mut b, y, args[1], &[ivs[0]]);
    }

    /// Two-node pipeline: n0 writes buf, n1 reads buf; node workloads differ.
    fn two_node_schedule(ctx: &mut Context, n0_elems: i64, n1_elems: i64) -> ScheduleOp {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(ctx, func);
            build_schedule(&mut b, "pipe")
        };
        let ty = Type::memref(vec![n0_elems.max(n1_elems)], Type::f32());
        let mk = |ctx: &mut Context, name: &str| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            build_buffer(&mut b, ty.clone(), 2, name).1
        };
        let b_in: ValueId = mk(ctx, "in");
        let b_mid = mk(ctx, "mid");
        let b_out = mk(ctx, "out");
        let (n0, _) = build_node(
            ctx,
            body,
            "n0",
            &[(b_in, MemEffect::Read), (b_mid, MemEffect::Write)],
        );
        // Note: node body args order = operand order, so args[0]=read, args[1]=write.
        fill_node_body(ctx, n0, n0_elems);
        let (n1, _) = build_node(
            ctx,
            body,
            "n1",
            &[(b_mid, MemEffect::Read), (b_out, MemEffect::Write)],
        );
        fill_node_body(ctx, n1, n1_elems);
        schedule
    }

    #[test]
    fn dataflow_interval_is_max_of_node_latencies() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 1000, 4000);
        let df = est.estimate_schedule(&ctx, schedule, true);
        let seq = est.estimate_schedule(&ctx, schedule, false);
        assert!(df.interval_cycles < seq.interval_cycles);
        // Sequential interval equals the sum; dataflow equals (roughly) the max.
        let lats: Vec<i64> = df.node_estimates.iter().map(|e| e.latency_cycles).collect();
        assert_eq!(seq.interval_cycles, lats.iter().sum::<i64>());
        assert_eq!(df.interval_cycles, *lats.iter().max().unwrap());
        // Latency is the same chain in both cases here (single path).
        assert_eq!(df.latency_cycles, lats.iter().sum::<i64>());
        assert!(df.throughput() > seq.throughput());
    }

    #[test]
    fn buffers_contribute_bram_and_count() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 4096, 4096);
        let d = est.estimate_schedule(&ctx, schedule, true);
        assert_eq!(d.buffer_count, 3);
        assert!(d.resources.bram_18k > 0);
        assert!(d.utilization > 0.0);
        assert!(d.macs_per_sample > 0);
    }

    #[test]
    fn unbalanced_shortcut_stalls_unless_buffer_is_deep() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        // Residual pattern: n0 -> n1 -> n2 and n0 -> n2 through a shallow buffer.
        let build = |depth: i64| {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
            let (schedule, body) = {
                let mut b = OpBuilder::at_end_of(&mut ctx, func);
                build_schedule(&mut b, "res")
            };
            let ty = Type::memref(vec![1024], Type::f32());
            let mk = |ctx: &mut Context, name: &str, d: i64| {
                let mut b = OpBuilder::at_block_end(ctx, body);
                build_buffer(&mut b, ty.clone(), d, name).1
            };
            let b_in = mk(&mut ctx, "in", 2);
            let b_mid = mk(&mut ctx, "mid", 2);
            let b_mid2 = mk(&mut ctx, "mid2", 2);
            let b_skip = mk(&mut ctx, "skip", depth);
            let b_out = mk(&mut ctx, "out", 2);
            let (n0, _) = build_node(
                &mut ctx,
                body,
                "n0",
                &[
                    (b_in, MemEffect::Read),
                    (b_mid, MemEffect::Write),
                    (b_skip, MemEffect::Write),
                ],
            );
            fill_node_body(&mut ctx, n0, 1024);
            let (n1, _) = build_node(
                &mut ctx,
                body,
                "n1",
                &[(b_mid, MemEffect::Read), (b_mid2, MemEffect::Write)],
            );
            fill_node_body(&mut ctx, n1, 1024);
            let (n2, _) = build_node(
                &mut ctx,
                body,
                "n2",
                &[
                    (b_mid2, MemEffect::Read),
                    (b_skip, MemEffect::Read),
                    (b_out, MemEffect::Write),
                ],
            );
            fill_node_body(&mut ctx, n2, 1024);
            let d = est.estimate_schedule(&ctx, schedule, true);
            d.interval_cycles
        };
        let shallow = build(1);
        let deep = build(3);
        assert!(
            shallow > deep,
            "shallow skip buffer must stall the pipeline"
        );
    }

    #[test]
    fn repeated_estimates_reuse_memoized_node_results() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut ctx = Context::new();
        let schedule = two_node_schedule(&mut ctx, 1024, 2048);
        let first = est.estimate_schedule(&ctx, schedule, true);
        let after_first = est.cache_stats();
        // 2 node estimates + 1 dataflow graph were computed.
        assert!(after_first.misses >= 3, "{after_first:?}");
        assert_eq!(after_first.hits, 0);

        // The sequential variant and a repeat of the dataflow estimate recompute
        // nothing: the IR did not change.
        let sequential = est.estimate_schedule(&ctx, schedule, false);
        let second = est.estimate_schedule(&ctx, schedule, true);
        let after_repeats = est.cache_stats();
        assert!(after_repeats.hits >= 4, "{after_repeats:?}");
        assert_eq!(after_repeats.misses, after_first.misses);
        assert_eq!(first.node_estimates, second.node_estimates);
        assert_eq!(first.node_estimates, sequential.node_estimates);

        // Mutating the IR invalidates the memoized estimates.
        let node = schedule.nodes(&ctx)[0];
        fill_node_body(&mut ctx, node, 16);
        let third = est.estimate_schedule(&ctx, schedule, true);
        assert!(est.cache_stats().misses > after_repeats.misses);
        assert!(third.node_estimates[0].latency_cycles >= first.node_estimates[0].latency_cycles);

        // A clone starts with a cold cache but the same device.
        let cloned = est.clone();
        assert_eq!(cloned.cache_stats(), AnalysisCacheStats::default());
        assert_eq!(cloned.device().name, est.device().name);
    }

    #[test]
    fn shared_cache_reuses_estimates_across_contexts() {
        let cache = Arc::new(SharedEstimateCache::new());
        // Two independent compilations of the same design: separate contexts,
        // different op numbering (the second context builds junk IR first).
        let mut ctx_a = Context::new();
        let schedule_a = two_node_schedule(&mut ctx_a, 1024, 2048);
        let mut ctx_b = Context::new();
        ctx_b.create_module("junk");
        let schedule_b = two_node_schedule(&mut ctx_b, 1024, 2048);

        let est_a = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        let est_b = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        let a = est_a.estimate_schedule(&ctx_a, schedule_a, true);
        assert_eq!(est_a.shared_cache_stats().hits, 0);
        assert_eq!(est_a.shared_cache_stats().misses, 2);

        let b = est_b.estimate_schedule(&ctx_b, schedule_b, true);
        // The second compilation's node estimates are pure shared hits, and
        // the results are bit-identical to an isolated estimation.
        assert_eq!(est_b.shared_cache_stats().hits, 2);
        assert_eq!(est_b.shared_cache_stats().misses, 0);
        assert_eq!(a.node_estimates, b.node_estimates);
        assert_eq!(a.interval_cycles, b.interval_cycles);
        let isolated = DataflowEstimator::new(FpgaDevice::zu3eg());
        let reference = isolated.estimate_schedule(&ctx_b, schedule_b, true);
        assert_eq!(reference, b);

        // A design point where only the first node changed (same buffer
        // shapes: the buffer size is the max of both nodes) re-estimates
        // exactly that node.
        let mut ctx_c = Context::new();
        let schedule_c = two_node_schedule(&mut ctx_c, 2000, 2048);
        let est_c = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        est_c.estimate_schedule(&ctx_c, schedule_c, true);
        let traffic = est_c.shared_cache_stats();
        // The 2048-element node is shared; the 4096-element one is new.
        assert_eq!(traffic.hits, 1, "{traffic:?}");
        assert_eq!(traffic.misses, 1, "{traffic:?}");
        assert_eq!(cache.stats().entries, 3);

        // Clones keep the shared cache but reset local traffic.
        let cloned = est_c.clone();
        assert!(cloned.shared_cache().is_some());
        assert_eq!(cloned.shared_cache_stats().hits, 0);
    }

    #[test]
    fn estimate_keys_ignore_contexts_numbering_and_names() {
        use crate::shared_cache::estimate_key;
        let device = device_fingerprint(&FpgaDevice::zu3eg());
        let mut ctx_a = Context::new();
        let schedule_a = two_node_schedule(&mut ctx_a, 1024, 2048);
        // Another context, every id shifted, every node renamed.
        let mut ctx_b = Context::new();
        ctx_b.create_module("junk");
        let schedule_b = two_node_schedule(&mut ctx_b, 1024, 2048);
        for node in schedule_b.nodes(&ctx_b) {
            ctx_b.set_attr(node.id(), "node_name", "renamed");
        }
        let keys = |ctx: &Context, schedule: ScheduleOp| -> Vec<Fingerprint> {
            let nodes = schedule.nodes(ctx);
            nodes
                .iter()
                .map(|n| estimate_key(ctx, n.id(), device))
                .collect()
        };
        let (a, b) = (keys(&ctx_a, schedule_a), keys(&ctx_b, schedule_b));
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "1024 iterations are not 2048");
        // What the estimator looks up is what `estimate_key` says.
        let cache = Arc::new(SharedEstimateCache::new());
        DataflowEstimator::new(FpgaDevice::zu3eg())
            .with_shared_cache(cache.clone())
            .estimate_schedule(&ctx_b, schedule_b, true);
        assert!(a.iter().all(|&key| cache.peek(key).is_some()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn estimate_function_includes_on_chip_allocs() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("plain", vec![], vec![]);
        let body = ctx.body_block(func);
        let a = {
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            hida_dialects::memory::build_alloc(&mut b, Type::memref(vec![8192], Type::f32()), "A")
        };
        let (_l, ivs, inner) = build_loop_nest(&mut ctx, body, &[(0, 8192, "i")]);
        let mut b = OpBuilder::at_block_end(&mut ctx, inner);
        let x = build_load(&mut b, a, &[ivs[0]]);
        build_store(&mut b, x, a, &[ivs[0]]);
        let d = est.estimate_function(&ctx, func);
        assert_eq!(d.buffer_count, 1);
        assert!(d.resources.bram_18k >= 14); // 32 KiB of f32 data in 18 Kb blocks.
        assert_eq!(d.interval_cycles, d.latency_cycles);
    }
}
