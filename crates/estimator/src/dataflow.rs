//! Schedule-level dataflow throughput estimation.
//!
//! A well-formed HIDA dataflow executes its nodes in a coarse-grained pipeline: with
//! ping-pong buffers between stages, a new data frame can enter the design every
//! `max_i(latency_i)` cycles (the critical node determines the achievable rate,
//! paper §1). Unbalanced data paths stall the producer (Figure 8) unless buffers on
//! the short path are deep enough; with dataflow disabled, the design degenerates to
//! sequential execution and the interval equals the sum of node latencies.

use crate::device::FpgaDevice;
use crate::latency::{buffer_info, estimate_body, NodeEstimate};
use crate::report::DesignEstimate;
use crate::resource::Resources;
use crate::shared_cache::{
    device_fingerprint, estimate_key, SharedCacheStats, SharedEstimateCache,
};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::structural::ScheduleOp;
use hida_ir_core::analysis::{AnalysisCacheStats, AnalysisManager};
use hida_ir_core::Fingerprint;
use hida_ir_core::{Context, OpId, ParallelStats};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Estimates complete designs (schedules or plain functions) on a target device.
///
/// Per-node estimates and the schedule's dataflow graph are memoized through an
/// internal [`AnalysisManager`]: repeated estimations of an unchanged design
/// (e.g. the dataflow and sequential variants of the same schedule, or QoR
/// queries inside a design-space sweep iteration) recompute nothing. The cache
/// is keyed by context identity and mutation generation, so estimating a design
/// after an IR edit transparently recomputes exactly the stale nodes.
///
/// The interior cache makes the estimator `Send` but **not `Sync`**: share-
/// nothing parallel sweeps should give each worker its own [`Clone`] (clones
/// start with a cold cache and the same device). One estimation runs on the
/// calling thread.
///
/// For design-space sweeps, [`DataflowEstimator::with_shared_cache`] attaches
/// a content-addressed [`SharedEstimateCache`]: local misses consult the
/// shared cache under the node's [structural
/// fingerprint](crate::shared_cache::estimate_fingerprint) before computing,
/// so structurally identical nodes are estimated once *across* independent
/// compilations.
pub struct DataflowEstimator {
    device: FpgaDevice,
    analyses: RefCell<AnalysisManager>,
    /// Cross-compilation estimate cache, when one is attached, plus the
    /// precomputed fingerprint of this estimator's full device description
    /// (part of every cache key).
    shared: Option<(Arc<SharedEstimateCache>, Fingerprint)>,
    /// This estimator's own traffic against the shared cache.
    shared_traffic: RefCell<SharedCacheStats>,
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
            .field("cache", &self.analyses.borrow().stats())
            .field("shared", &self.shared.as_ref().map(|(c, _)| c.stats()))
            .finish()
    }
}

impl DataflowEstimator {
    /// Creates an estimator for the given device.
    pub fn new(device: FpgaDevice) -> Self {
        DataflowEstimator {
            device,
            analyses: RefCell::new(AnalysisManager::new()),
            shared: None,
            shared_traffic: RefCell::new(SharedCacheStats::default()),
        }
    }

    /// Ignores `jobs`: an estimation runs on the calling thread. Kept only
    /// because `benchmark/src/layers.rs:237` (frozen) calls it.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Attaches a cross-compilation [`SharedEstimateCache`]: when the local
    /// per-context memoization misses, the node's content fingerprint is
    /// looked up in (and computed results are published to) the shared cache,
    /// so structurally identical nodes are estimated only once across a whole
    /// design-space sweep. Estimates are unchanged by sharing — the cache key
    /// captures every input of the per-node model.
    pub fn with_shared_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared = Some((cache, device_fingerprint(&self.device)));
        self
    }

    /// The attached cross-compilation cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedEstimateCache>> {
        self.shared.as_ref().map(|(cache, _)| cache)
    }

    /// This estimator's own hit/miss traffic against the attached shared
    /// cache (all-zero when none is attached). The cache's
    /// [`SharedEstimateCache::stats`] aggregates over every attached
    /// estimator instead.
    pub fn shared_cache_stats(&self) -> SharedCacheStats {
        let mut stats = *self.shared_traffic.borrow();
        if let Some((cache, _)) = &self.shared {
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

    /// Cache traffic of the estimator's internal analysis manager.
    pub fn cache_stats(&self) -> AnalysisCacheStats {
        self.analyses.borrow().stats().clone()
    }

    /// Estimates one node of a schedule (memoized per IR generation).
    pub fn estimate_node(
        &self,
        ctx: &Context,
        node: hida_dataflow_ir::structural::NodeOp,
    ) -> NodeEstimate {
        self.body_estimate(ctx, node.id())
    }

    /// Memoized [`estimate_body`]: the device is fixed per estimator, so the
    /// (type, op) cache key is unambiguous within one instance. With a shared
    /// cache attached, local misses consult it by content fingerprint before
    /// computing.
    fn body_estimate(&self, ctx: &Context, op: OpId) -> NodeEstimate {
        let locally_cached = self
            .analyses
            .borrow()
            .cached_any::<NodeEstimate>(ctx, op)
            .is_some();
        let estimate = if locally_cached || self.shared.is_none() {
            self.analyses
                .borrow_mut()
                .get_with(ctx, op, "node-estimate", |ctx, op| {
                    estimate_body(ctx, op, &self.device)
                })
        } else {
            let (estimate, was_hit) = self.shared_lookup_or_compute(ctx, op);
            self.record_shared_traffic(was_hit, 1);
            self.analyses
                .borrow_mut()
                .get_with(ctx, op, "node-estimate", move |_, _| estimate)
        };
        // The caller owns its `DesignEstimate`; this is the one copy per query.
        NodeEstimate::clone(&estimate)
    }

    /// Consults the attached shared cache for `op`'s estimate, computing and
    /// publishing it on a miss. Returns the estimate and whether it was a hit.
    fn shared_lookup_or_compute(&self, ctx: &Context, op: OpId) -> (NodeEstimate, bool) {
        let (cache, device_key) = self.shared.as_ref().expect("caller checked a cache exists");
        let key = estimate_key(ctx, op, *device_key);
        if let Some(mut estimate) = cache.lookup(key) {
            // The key deliberately ignores name attributes (so structurally
            // repeated nodes share an entry); the display name is re-derived from
            // the local IR, exactly as `estimate_body` would have.
            estimate.name = crate::latency::node_name(ctx, op);
            return (estimate, true);
        }
        let estimate = estimate_body(ctx, op, &self.device);
        cache.publish(key, estimate.clone());
        (estimate, false)
    }

    /// Folds `count` lookups (hits when `hit`, misses otherwise) into this
    /// estimator's local view of the shared-cache traffic.
    fn record_shared_traffic(&self, hit: bool, count: u64) {
        let mut traffic = self.shared_traffic.borrow_mut();
        if hit {
            traffic.hits += count;
        } else {
            traffic.misses += count;
        }
    }

    fn graph(&self, ctx: &Context, schedule: ScheduleOp) -> Arc<DataflowGraph> {
        self.analyses
            .borrow_mut()
            .get::<DataflowGraph>(ctx, schedule.id())
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
        let nodes = schedule.nodes(ctx);
        let node_estimates: Vec<NodeEstimate> = nodes
            .iter()
            .map(|&n| {
                // Per-node cancellation checkpoint: estimation is infallible,
                // so a hit deadline unwinds cooperatively and is classified at
                // the nearest isolation layer (pass manager or sweep engine).
                hida_ir_core::fault::checkpoint_or_unwind("estimator/node-loop");
                self.body_estimate(ctx, n.id())
            })
            .collect();

        // Buffer resources: every buffer declared in the schedule.
        let mut buffer_res = Resources::zero();
        let mut buffer_count = 0_i64;
        for buf in schedule.internal_buffers(ctx) {
            let info = buffer_info(ctx, buf.value(ctx));
            buffer_res += info.resources();
            buffer_count += 1;
        }
        // memref.allocs nested anywhere inside the schedule (baseline flows keep
        // full intermediate arrays on chip this way).
        for op in ctx.collect_ops(schedule.id(), hida_dialects::memory::ALLOC) {
            let value = ctx.op(op).results[0];
            let info = buffer_info(ctx, value);
            buffer_res += info.resources();
            buffer_count += 1;
        }

        let compute_res: Resources = node_estimates.iter().map(|e| e.resources).sum();
        let total_res = compute_res + buffer_res;
        let total_macs: i64 = node_estimates.iter().map(|e| e.macs).sum();

        let (mut interval, mut latency) = if dataflow_enabled {
            self.pipeline_timing(ctx, schedule, &nodes, &node_estimates)
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
        let est = self.body_estimate(ctx, func);
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

    /// Computes the pipeline interval and end-to-end latency of a dataflow schedule,
    /// accounting for unbalanced-path stalls.
    fn pipeline_timing(
        &self,
        ctx: &Context,
        schedule: ScheduleOp,
        nodes: &[hida_dataflow_ir::structural::NodeOp],
        estimates: &[NodeEstimate],
    ) -> (i64, i64) {
        if nodes.is_empty() {
            return (1, 1);
        }
        let latency_of: HashMap<_, i64> = nodes
            .iter()
            .zip(estimates)
            .map(|(&n, e)| (n, e.latency_cycles))
            .collect();

        let graph = self.graph(ctx, schedule);

        // Stall factors from unbalanced reconvergent paths: the producer of a short
        // path cannot issue a new frame until the long path drains, unless the buffer
        // on the short edge holds enough in-flight frames.
        let mut stall: HashMap<_, i64> = nodes.iter().map(|&n| (n, 1_i64)).collect();
        for (edge, imbalance) in graph.unbalanced_edges() {
            let required_depth = imbalance as i64 + 1;
            let actual_depth = buffer_info(ctx, edge.buffer).depth.max(1);
            if actual_depth < required_depth {
                let factor = (required_depth + actual_depth - 1) / actual_depth;
                let entry = stall.entry(edge.producer).or_insert(1);
                *entry = (*entry).max(factor);
            }
        }

        let interval = nodes
            .iter()
            .map(|n| latency_of[n] * stall[n])
            .max()
            .unwrap_or(1)
            .max(1);

        // End-to-end latency: longest-latency path through the dataflow graph.
        let mut path_latency: HashMap<_, i64> = HashMap::new();
        for &node in nodes {
            let best_pred = graph
                .predecessors(node)
                .iter()
                .filter_map(|p| path_latency.get(p).copied())
                .max()
                .unwrap_or(0);
            path_latency.insert(node, best_pred + latency_of[&node]);
        }
        let latency = path_latency.values().copied().max().unwrap_or(1).max(1);
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
