//! Dataflow throughput estimation, one rule for every level of the hierarchy.
//!
//! A well-formed HIDA dataflow executes its nodes in a coarse-grained pipeline: with
//! ping-pong buffers between stages, a new data frame can enter the design every
//! `max_i(latency_i)` cycles (the critical node determines the achievable rate,
//! paper §1). Unbalanced data paths stall the producer (Figure 8) unless buffers on
//! the short path are deep enough; with dataflow disabled, the design degenerates to
//! sequential execution and the interval equals the sum of node latencies.

use crate::device::FpgaDevice;
use crate::latency::{
    buffer_depth, buffer_info, evaluate, gather, node_name, NodeEstimate, NodeModelInputs,
};
use crate::report::DesignEstimate;
use crate::resource::Resources;
use crate::shared_cache::{device_fingerprint, inputs_key, SharedEstimateCache};
use hida_dataflow_ir::graph::DataflowGraph;
use hida_dataflow_ir::op_names;
use hida_dataflow_ir::structural::{NodeOp, ScheduleOp};
use hida_dialects::analysis::ComputeProfile;
use hida_dialects::loops::{self, ForOp};
use hida_dialects::memory;
use hida_ir_core::analysis::{AnalysisCacheStats, AnalysisManager};
use hida_ir_core::walk::walk_ops_pruned;
use hida_ir_core::Fingerprint;
use hida_ir_core::{symbol, Context, OpId, ParallelStats, Symbol};
use std::cell::{RefCell, RefMut};
use std::fmt;
use std::sync::Arc;

/// Estimates designs (functions, schedules and nodes, at any depth) on a target device.
///
/// Everything the estimator derives from the IR goes through one
/// [`AnalysisManager`]: compute profiles, the schedule's dataflow graph, its
/// buffer totals and the per-node estimates themselves. Repeated estimations
/// of an unchanged design (the dataflow and sequential variants of one
/// schedule) recompute nothing, and an estimator built
/// [over](DataflowEstimator::over) the manager the pass pipeline ran with
/// starts from the profiles and the graph the passes left in it. The cache
/// is keyed by context identity and mutation generation, so estimating a
/// design after an IR edit transparently recomputes exactly the stale nodes.
///
/// The interior cache makes the estimator `Send` but **not `Sync`**: share-
/// nothing parallel sweeps should give each worker its own [`Clone`] (clones
/// start with a cold cache and the same device). One estimation runs on the
/// calling thread.
///
/// [`DataflowEstimator::with_shared_cache`] attaches a
/// [`SharedEstimateCache`]; when it holds a persistent store, local misses
/// look the node up there under the [key](crate::shared_cache::inputs_key)
/// of its model inputs before evaluating them, so nodes the model cannot
/// tell apart are evaluated once *across* processes. Without a store the
/// estimator keys nothing.
pub struct DataflowEstimator {
    device: FpgaDevice,
    /// Fingerprint of the full device description: half of every cache key.
    device_key: Fingerprint,
    analyses: RefCell<AnalysisManager>,
    /// What `analyses` had counted before this estimator got it.
    baseline: AnalysisCacheStats,
    /// Cross-compilation estimate cache, when one is attached.
    shared: Option<Arc<SharedEstimateCache>>,
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
            .field("shared", &self.shared)
            .finish()
    }
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
        }
    }

    /// Ignores `jobs`: an estimation runs on the calling thread. Kept only
    /// because `benchmark/src/layers.rs:237` (frozen) calls it.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Attaches a cross-compilation [`SharedEstimateCache`]. When it holds
    /// a persistent store and the local per-context memoization misses, the
    /// key of the node's model inputs is looked up in the store, and what
    /// the estimator had to evaluate is saved there, so equal inputs are
    /// evaluated once across the processes sharing the store's directory.
    /// Estimates are unchanged by sharing — the key is every input of the
    /// per-node model.
    pub fn with_shared_cache(mut self, cache: Arc<SharedEstimateCache>) -> Self {
        self.shared = Some(cache);
        self
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

    /// Estimates one node of a schedule as a stage of its dataflow (a leaf's is
    /// memoized per IR generation).
    pub fn estimate_node(&self, ctx: &Context, node: NodeOp) -> NodeEstimate {
        self.node(ctx, node.id(), true)
    }

    /// The node model's inputs, gathered from `op`'s cached compute profile.
    fn inputs(&self, ctx: &Context, op: OpId) -> NodeModelInputs {
        let profile = self.analyses.borrow_mut().get::<ComputeProfile>(ctx, op);
        gather(ctx, op, &profile)
    }

    /// The estimate of `op`'s body, memoized per IR generation in the
    /// analysis manager (the device is fixed per estimator, so the (type,
    /// op) key is unambiguous within one instance): gather, then evaluate —
    /// unless `valid`, the manager holding a valid one already.
    /// With a store attached the gathered inputs are keyed and looked up in
    /// between, and what a miss evaluates is saved — without a name, which
    /// is no input of the key (an entry may come from a body with equal
    /// inputs under another name): every estimate leaves here under `op`'s
    /// own.
    /// A miss reads this same manager (the node's profile), so it is
    /// computed before the manager is borrowed for the result.
    fn body_estimate(&self, ctx: &Context, op: OpId, valid: bool) -> Arc<NodeEstimate> {
        let estimate = (!valid).then(|| {
            let inputs = self.inputs(ctx, op);
            let name = node_name(ctx, op);
            let Some(store) = self.shared.as_deref().and_then(SharedEstimateCache::store) else {
                return evaluate(&inputs, &self.device, name);
            };
            let key = inputs_key(&inputs, self.device_key);
            let unnamed = store.load(key).unwrap_or_else(|| {
                let estimate = evaluate(&inputs, &self.device, symbol!(""));
                store.save(key, &estimate);
                estimate
            });
            NodeEstimate { name, ..unnamed }
        });
        self.analyses
            .borrow_mut()
            .get_with(ctx, op, "node-estimate", |_, _| {
                estimate.expect("an entry that is not valid was just computed")
            })
    }

    fn graph(&self, ctx: &Context, schedule: ScheduleOp) -> Arc<DataflowGraph> {
        self.analyses
            .borrow_mut()
            .get::<DataflowGraph>(ctx, schedule.id())
    }

    /// Resources and number of the buffers `op`'s own level charges: the
    /// `hida.buffer`s and `memref.alloc`s (baseline flows keep whole arrays on
    /// chip) below it that no nested schedule holds.
    fn buffer_totals(&self, ctx: &Context, op: OpId) -> (Resources, i64) {
        let mut analyses = self.analyses.borrow_mut();
        *analyses.get_with(ctx, op, "buffer-totals", |ctx, op| {
            let mut totals = (Resources::zero(), 0);
            walk_ops_pruned(ctx, op, &mut |ctx, nested| {
                let operation = ctx.op(nested);
                if nested != op && (operation.is(op_names::BUFFER) || operation.is(memory::ALLOC)) {
                    totals.0 += buffer_info(ctx, operation.results[0]).resources();
                    totals.1 += 1;
                }
                nested == op || !operation.is(op_names::SCHEDULE)
            });
            totals
        })
    }

    /// Estimates one level of a design — a function, a schedule or a node —
    /// by one rule at any depth. A schedule combines its nodes: a
    /// coarse-grained pipeline, or with `dataflow` false (the paper's
    /// "w/o df") one node after the other. A function or node whose body
    /// holds no schedule is one node. One that holds a schedule costs its
    /// interval `I` once per trip `T` of the `affine.for`s around it, plus
    /// fill and drain: `I·T + (L − I)`. Each level charges its own buffers;
    /// an over-subscribed design is slowed down once, at the level asked for.
    pub fn estimate(&self, ctx: &Context, op: OpId, dataflow: bool) -> DesignEstimate {
        let mut design = self.level(ctx, op, dataflow);
        // A design demanding more BRAM/DSP/LUT than the device provides must
        // serialise or time-multiplex the excess, so its rate degrades with the
        // over-subscription (this limits ScaleHLS-style all-on-chip designs
        // and the Naive mode at large parallel factors).
        let over = design.utilization;
        if over > 1.0 {
            design.interval_cycles = (design.interval_cycles as f64 * over).ceil() as i64;
            design.latency_cycles = (design.latency_cycles as f64 * over).ceil() as i64;
        }
        design
    }

    /// [`DataflowEstimator::estimate`] of `schedule`. Kept only because
    /// `benchmark/src/layers.rs:241` (frozen) calls it.
    #[doc(hidden)]
    pub fn estimate_schedule(
        &self,
        ctx: &Context,
        schedule: ScheduleOp,
        dataflow: bool,
    ) -> DesignEstimate {
        self.estimate(ctx, schedule.id(), dataflow)
    }

    /// [`DataflowEstimator::estimate`] without the over-subscription divisor.
    fn level(&self, ctx: &Context, op: OpId, dataflow: bool) -> DesignEstimate {
        let schedule = ScheduleOp::try_from_op(ctx, op);
        let estimates: Vec<_> = match schedule {
            Some(s) => s
                .nodes(ctx)
                .iter()
                .map(|n| self.node(ctx, n.id(), dataflow))
                .collect(),
            None => vec![self.node(ctx, op, dataflow)],
        };
        let (interval_cycles, latency_cycles) = self.timing(ctx, schedule, &estimates, dataflow);
        let (buffers, buffer_count) = self.buffer_totals(ctx, op);
        let resources = estimates.iter().map(|e| e.resources).sum::<Resources>() + buffers;
        DesignEstimate {
            name: schedule.map_or_else(|| estimates[0].name, |_| schedule_name(ctx, op)),
            interval_cycles,
            latency_cycles,
            resources,
            macs_per_sample: estimates.iter().map(|e| e.macs).sum(),
            node_estimates: estimates,
            buffer_count,
            clock_mhz: self.device.clock_mhz,
            utilization: resources.utilization(&self.device),
        }
    }

    /// Node (or function) `op` as one stage: the node model over a leaf's
    /// body, or the schedule it holds composed (never memoized nor saved to
    /// the store: its key would not be the node model's inputs), so a valid
    /// memoized estimate is a leaf's, found without looking for a schedule.
    fn node(&self, ctx: &Context, op: OpId, dataflow: bool) -> NodeEstimate {
        let leaf = self
            .analyses
            .borrow()
            .cached_any::<NodeEstimate>(ctx, op)
            .is_some();
        let inner = (!leaf).then(|| ScheduleOp::first_within(ctx, op));
        let Some(inner) = inner.flatten() else {
            return *self.body_estimate(ctx, op, leaf);
        };
        let trips: i64 = std::iter::successors(ctx.parent_op(inner.id()), |&p| ctx.parent_op(p))
            .take_while(|&p| p != op)
            .filter(|&p| ctx.op(p).is(loops::FOR))
            .map(|p| ForOp(p).trip_count(ctx).max(1))
            .product();
        let level = self.level(ctx, inner.id(), dataflow);
        let nodes = &level.node_estimates;
        NodeEstimate {
            name: node_name(ctx, op),
            latency_cycles: level.interval_cycles * (trips - 1) + level.latency_cycles,
            ii: nodes.iter().map(|e| e.ii).max().unwrap_or(1),
            resources: level.resources,
            macs: level.macs_per_sample * trips,
            external_bytes: nodes.iter().map(|e| e.external_bytes).sum::<i64>() * trips,
            parallelism: nodes.iter().map(|e| e.parallelism).sum(),
        }
    }

    /// Stall factors from unbalanced reconvergent paths, by node position:
    /// the producer of a short path cannot issue a new frame until the long
    /// path drains, unless the buffer on the short edge holds enough
    /// in-flight frames. Purely topological — path-depth imbalance against
    /// buffer depth, no timing.
    fn stall_factors(ctx: &Context, graph: &DataflowGraph) -> Vec<i64> {
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

    /// The interval and end-to-end latency of a level whose stages have
    /// `estimates` (by node position): a schedule's as a pipeline, accounting
    /// for unbalanced-path stalls, or else one stage after the other.
    fn timing(
        &self,
        ctx: &Context,
        schedule: Option<ScheduleOp>,
        estimates: &[NodeEstimate],
        dataflow: bool,
    ) -> (i64, i64) {
        let total: i64 = estimates.iter().map(|e| e.latency_cycles).sum();
        let Some(schedule) = schedule.filter(|_| dataflow && !estimates.is_empty()) else {
            return (total.max(1), total.max(1));
        };
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

fn schedule_name(ctx: &Context, op: OpId) -> Symbol {
    ctx.op(op)
        .attr_symbol("schedule_name")
        .unwrap_or_else(|| format!("schedule{}", op.index()).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EstimateStore;
    use hida_dataflow_ir::structural::{build_buffer, build_node, build_schedule, NodeOp};
    use hida_dialects::analysis::MemEffect;
    use hida_dialects::arith;
    use hida_dialects::loops::build_loop_nest;
    use hida_dialects::memory::{build_load, build_store};
    use hida_ir_core::{BlockId, OpBuilder, Operation, Type, ValueId};

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
            build_buffer(&mut b, ty, 2, name).1
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
        let df = est.estimate(&ctx, schedule.id(), true);
        let seq = est.estimate(&ctx, schedule.id(), false);
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
        let d = est.estimate(&ctx, schedule.id(), true);
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
                build_buffer(&mut b, ty, d, name).1
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
            let d = est.estimate(&ctx, schedule.id(), true);
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
        let first = est.estimate(&ctx, schedule.id(), true);
        let after_first = est.cache_stats();
        // 2 node estimates + 1 dataflow graph were computed.
        assert!(after_first.misses >= 3, "{after_first:?}");
        assert_eq!(after_first.hits, 0);

        // The sequential variant and a repeat of the dataflow estimate recompute
        // nothing: the IR did not change.
        let sequential = est.estimate(&ctx, schedule.id(), false);
        let second = est.estimate(&ctx, schedule.id(), true);
        let after_repeats = est.cache_stats();
        assert!(after_repeats.hits >= 4, "{after_repeats:?}");
        assert_eq!(after_repeats.misses, after_first.misses);
        assert_eq!(first.node_estimates, second.node_estimates);
        assert_eq!(first.node_estimates, sequential.node_estimates);

        // Mutating the IR invalidates the memoized estimates.
        let node = schedule.nodes(&ctx)[0];
        fill_node_body(&mut ctx, node, 16);
        let third = est.estimate(&ctx, schedule.id(), true);
        assert!(est.cache_stats().misses > after_repeats.misses);
        assert!(third.node_estimates[0].latency_cycles >= first.node_estimates[0].latency_cycles);

        // A clone starts with a cold cache but the same device.
        let cloned = est.clone();
        assert_eq!(cloned.cache_stats(), AnalysisCacheStats::default());
        assert_eq!(cloned.device().name, est.device().name);
    }

    /// A cache over a store in a fresh directory of its own.
    fn store_backed(tag: &str) -> (Arc<SharedEstimateCache>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hida_dataflow_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = EstimateStore::open(&dir).unwrap();
        (Arc::new(SharedEstimateCache::with_store(store)), dir)
    }

    #[test]
    fn shared_cache_reuses_estimates_across_contexts() {
        let (cache, dir) = store_backed("reuse");
        let traffic = || {
            let stats = cache.persistent_stats().unwrap();
            (stats.hits, stats.misses)
        };
        // Two independent compilations of the same design: separate contexts,
        // different op numbering (the second context builds junk IR first).
        let mut ctx_a = Context::new();
        let schedule_a = two_node_schedule(&mut ctx_a, 1024, 2048);
        let mut ctx_b = Context::new();
        ctx_b.create_module("junk");
        let schedule_b = two_node_schedule(&mut ctx_b, 1024, 2048);

        let est_a = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        let est_b = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        let a = est_a.estimate(&ctx_a, schedule_a.id(), true);
        assert_eq!(traffic(), (0, 2));
        // Saved entries are served once the batch is flushed.
        cache.flush();
        assert_eq!(cache.persistent_stats().unwrap().writes, 2);

        let b = est_b.estimate(&ctx_b, schedule_b.id(), true);
        // The second compilation's node estimates are pure store hits, and
        // the results are bit-identical to an isolated estimation.
        assert_eq!(traffic(), (2, 2));
        assert_eq!(a.node_estimates, b.node_estimates);
        assert_eq!(a.interval_cycles, b.interval_cycles);
        let isolated = DataflowEstimator::new(FpgaDevice::zu3eg());
        let reference = isolated.estimate(&ctx_b, schedule_b.id(), true);
        assert_eq!(reference, b);

        // A design point where only the first node changed (same buffer
        // shapes: the buffer size is the max of both nodes) re-estimates
        // exactly that node: the 2048-element node is served, the
        // 4096-element one is new.
        let mut ctx_c = Context::new();
        let schedule_c = two_node_schedule(&mut ctx_c, 2000, 2048);
        let est_c = DataflowEstimator::new(FpgaDevice::zu3eg()).with_shared_cache(cache.clone());
        est_c.estimate(&ctx_c, schedule_c.id(), true);
        assert_eq!(traffic(), (3, 3));
        cache.flush();
        assert_eq!(cache.persistent_stats().unwrap().writes, 3);

        // Clones start with a cold local cache but keep the store.
        est_c.clone().estimate(&ctx_c, schedule_c.id(), true);
        assert_eq!(traffic(), (5, 3));
        let _ = std::fs::remove_dir_all(&dir);
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
        // What the estimator saves is what `estimate_key` says.
        let (cache, dir) = store_backed("keys");
        DataflowEstimator::new(FpgaDevice::zu3eg())
            .with_shared_cache(cache.clone())
            .estimate(&ctx_b, schedule_b.id(), true);
        cache.flush();
        let reopened = EstimateStore::open(&dir).unwrap();
        assert!(a.iter().all(|&key| reopened.load(key).is_some()));
        assert_eq!(reopened.disk_entries(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `hida.schedule` appended to `block` that takes `operands` in: its
    /// body has one argument per operand.
    fn inner_schedule(
        ctx: &mut Context,
        block: BlockId,
        name: &str,
        operands: &[ValueId],
    ) -> (ScheduleOp, BlockId, Vec<ValueId>) {
        let mut op = Operation::new(op_names::SCHEDULE);
        op.operands = operands.iter().copied().collect();
        let id = ctx.create_op(op);
        ctx.set_attr(id, "schedule_name", name);
        let region = ctx.create_region(id);
        let body = ctx.create_block(region);
        let args = operands
            .iter()
            .map(|&value| {
                let ty = *ctx.value_type(value);
                ctx.add_block_arg(body, ty)
            })
            .collect();
        ctx.append_op(block, id);
        (ScheduleOp(id), body, args)
    }

    /// A schedule over two 1024-element f32 ping-pong buffers with one node
    /// `n` that reads the first and writes the second; the node comes back
    /// with its body arguments, its body empty.
    fn one_node_design(ctx: &mut Context) -> (ScheduleOp, NodeOp, Vec<ValueId>) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = build_schedule(&mut OpBuilder::at_end_of(ctx, func), "top");
        let mut buffer = |name: &str| {
            let ty = Type::memref(vec![1024], Type::f32());
            build_buffer(&mut OpBuilder::at_block_end(ctx, body), ty, 2, name).1
        };
        let (input, output) = (buffer("in"), buffer("out"));
        let (node, args) = build_node(
            ctx,
            body,
            "n",
            &[(input, MemEffect::Read), (output, MemEffect::Write)],
        );
        (schedule, node, args)
    }

    /// Node `n` holds, inside a 4-trip loop, a schedule of two stages of
    /// 1000 and 4000 elements joined by a buffer, and the first stage keeps
    /// an 8192-element f32 array to itself.
    #[test]
    fn a_node_holding_a_schedule_costs_its_interval_per_trip_plus_fill_and_drain() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut ctx = Context::new();
        let (top, node, args) = one_node_design(&mut ctx);
        let node_body = node.body(&ctx);
        let (_, _, around) = build_loop_nest(&mut ctx, node_body, &[(0, 4, "t")]);
        let (inner, body, inner_args) = inner_schedule(&mut ctx, around, "stages", &args);
        let mid = {
            let ty = Type::memref(vec![1024], Type::f32());
            build_buffer(&mut OpBuilder::at_block_end(&mut ctx, body), ty, 2, "mid").1
        };
        let (n0, _) = build_node(
            &mut ctx,
            body,
            "n0",
            &[(inner_args[0], MemEffect::Read), (mid, MemEffect::Write)],
        );
        fill_node_body(&mut ctx, n0, 1000);
        let (n1, _) = build_node(
            &mut ctx,
            body,
            "n1",
            &[(mid, MemEffect::Read), (inner_args[1], MemEffect::Write)],
        );
        fill_node_body(&mut ctx, n1, 4000);
        let array = Type::memref(vec![8192], Type::f32());
        let n0_body = n0.body(&ctx);
        hida_dialects::memory::build_alloc(
            &mut OpBuilder::at_block_end(&mut ctx, n0_body),
            array,
            "scratch",
        );

        let (l0, l1) = (
            est.estimate_node(&ctx, n0).latency_cycles,
            est.estimate_node(&ctx, n1).latency_cycles,
        );
        assert!(l0 < l1);
        let stages = est.estimate(&ctx, inner.id(), true);
        assert_eq!(
            (stages.interval_cycles, stages.latency_cycles),
            (l1, l0 + l1)
        );

        // I·T + (L − I) with I = l1, L = l0 + l1, T = 4.
        let design = est.estimate(&ctx, top.id(), true);
        let composed = design.node_estimates[0];
        assert_eq!(composed.name, Symbol::intern("n"));
        assert_eq!(composed.latency_cycles, 4 * l1 + l0);
        assert_eq!(composed.macs, 4 * (1000 + 4000));
        assert_eq!(composed.parallelism, 2);
        assert_eq!(design.interval_cycles, composed.latency_cycles);
        assert_eq!(design.macs_per_sample, 20_000);
        // Without dataflow the stages run back to back on each trip.
        let sequential = est.estimate(&ctx, top.id(), false);
        assert_eq!(sequential.node_estimates[0].latency_cycles, 4 * (l0 + l1));

        // Each buffer once, at its own level: a 1024-element f32 ping-pong
        // buffer is 2 BRAM18K a stage, 4 in all; the 262144-bit array is 15.
        assert_eq!(
            (stages.buffer_count, stages.resources.bram_18k),
            (2, 4 + 15)
        );
        assert_eq!(composed.resources, stages.resources);
        assert_eq!(
            (design.buffer_count, design.resources.bram_18k),
            (2, 4 + 4 + 4 + 15)
        );
        let alone = est.estimate(&ctx, node.id(), true);
        assert_eq!((alone.buffer_count, alone.resources.bram_18k), (0, 4 + 15));
    }

    #[test]
    fn a_one_node_schedule_at_trip_one_estimates_as_the_node_flattened() {
        let est = DataflowEstimator::new(FpgaDevice::zu3eg());
        let mut flat = Context::new();
        let (flat_top, flat_node, _) = one_node_design(&mut flat);
        fill_node_body(&mut flat, flat_node, 3000);
        let mut nested = Context::new();
        let (top, node, args) = one_node_design(&mut nested);
        let node_body = node.body(&nested);
        let (_, body, inner_args) = inner_schedule(&mut nested, node_body, "only", &args);
        let (inner_node, _) = build_node(
            &mut nested,
            body,
            "inner",
            &[
                (inner_args[0], MemEffect::Read),
                (inner_args[1], MemEffect::Write),
            ],
        );
        fill_node_body(&mut nested, inner_node, 3000);
        for dataflow in [true, false] {
            for (flat_op, nested_op) in [(flat_top.id(), top.id()), (flat_node.id(), node.id())] {
                assert_eq!(
                    est.estimate(&nested, nested_op, dataflow),
                    est.estimate(&flat, flat_op, dataflow),
                    "dataflow {dataflow}"
                );
            }
        }
    }

    /// The estimate of a function whose body holds no schedule: one node,
    /// its allocs charged at its level.
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
        let d = est.estimate(&ctx, func, false);
        assert_eq!(d.buffer_count, 1);
        assert!(d.resources.bram_18k >= 14); // 32 KiB of f32 data in 18 Kb blocks.
        assert_eq!(d.interval_cycles, d.latency_cycles);
    }
}
