//! What estimating a design point costs, counted in allocator calls on a
//! fork of a lowered ResNet-18 the way a sweep point meets it: the estimator
//! over the forked analysis cache, attached to a shared estimate cache. A
//! count, so the ceiling holds on any machine: reading the node model's
//! inputs off the IR and keying them builds nothing, a cache entry carries
//! no string, and what is left is the per-node results a caller owns.

use hida::dialects::analysis::ComputeProfile;
use hida::estimator::dataflow::DataflowEstimator;
use hida::estimator::latency::gather;
use hida::estimator::shared_cache::{device_fingerprint, inputs_key};
use hida::{Compiler, HidaOptions, Model, SharedEstimateCache, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread, so the tests of this binary can run side by side; no
    // destructor, so the allocator may touch it for as long as the thread
    // allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain thread-local cell that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 98 today (882 while the key was a structural walk of the node's IR and a
/// `BufferInfo` two vectors); the ceiling is measured x 1.1: room for the
/// design to grow, not for a per-node or per-buffer allocation to come back
/// into the gather or the key.
const FINISH_ALLOCATION_CEILING: u64 = 107;

#[test]
fn estimating_a_forked_resnet18_stays_under_the_allocation_ceiling() {
    // The Fig. 10 subject at one of its grid points.
    let options = HidaOptions {
        tile_size: Some(8),
        max_parallel_factor: 64,
        ..HidaOptions::dnn()
    };
    assert!(options.pipeline_text().contains("tiling{factor=8,"));
    let device = options.device.clone();
    let lowered = Compiler::new(options)
        .lower(Workload::Model(Model::ResNet18))
        .expect("ResNet-18 lowers");
    let schedule = lowered.schedule;

    // What a sweep point does: fork the checkpoint, estimate both ways
    // through the run's shared cache.
    let ctx = lowered.ctx.clone();
    let analyses = lowered.analyses.fork(&lowered.ctx, &ctx);
    let cache = Arc::new(SharedEstimateCache::new());
    let estimator = DataflowEstimator::over(device.clone(), analyses).with_shared_cache(cache);
    let before = ALLOCS.get();
    let dataflow = estimator.estimate_schedule(&ctx, schedule, true);
    let sequential = estimator.estimate_schedule(&ctx, schedule, false);
    let allocs = ALLOCS.get() - before;
    assert_eq!(dataflow.node_estimates.len(), 20);
    assert_eq!(dataflow.node_estimates, sequential.node_estimates);
    assert!(
        allocs <= FINISH_ALLOCATION_CEILING,
        "both estimates of a forked ResNet-18 made {allocs} allocator calls, \
         ceiling {FINISH_ALLOCATION_CEILING}"
    );

    // Gathering the model's inputs and keying them builds nothing at all.
    let nodes = schedule.nodes(&ctx);
    let profiles: Vec<Arc<ComputeProfile>> = nodes
        .iter()
        .map(|node| estimator.analyses().get::<ComputeProfile>(&ctx, node.id()))
        .collect();
    let device_key = device_fingerprint(&device);
    let before = ALLOCS.get();
    let mut keys = 0_u64;
    for (node, profile) in nodes.iter().zip(&profiles) {
        let key = inputs_key(&gather(&ctx, node.id(), profile), device_key);
        keys ^= key.lo;
    }
    let allocs = ALLOCS.get() - before;
    assert_ne!(keys, 0);
    assert_eq!(allocs, 0, "gather + key of 20 nodes");
}
