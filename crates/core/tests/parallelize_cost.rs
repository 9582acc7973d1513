//! `parallelize` is the one pass a Fig. 10 sweep still runs per design point
//! (everything above it is shared through the prefix tree), so what one run
//! of it costs — with the verification after it — is counted here in
//! allocator calls, on a fork of the checkpoint `balance` left, the way a
//! sweep point meets it. A count, so the ceiling holds on any machine: the
//! pass builds the schedule's dataflow graph once into a handful of flat
//! arrays, keeps Algorithm 4's books in vectors by node position, and writes
//! attributes only, which the runner verifies by the record `balance`'s
//! walk left instead of walking again. An attribute write allocates nothing
//! once its payload has been interned: the count is taken on a second fork,
//! after the first one has run the same point. The same count is taken on a
//! Fig. 11 point in `Naive` mode, the search's other path: no connection is
//! analysed and every node gets the whole budget.

use hida::frontend::nn::build_model;
use hida::ir::{parse_pipeline, run_passes, AnalysisManager, Context, Pass, RunState};
use hida::{HidaOptions, Model};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// 2 222 a point over the Fig. 10 grid before the graph was built in one
/// walk (1 730 in the pass, 492 in the verification after it), 758 before
/// attribute payloads were interned into one arena per context, 413 before
/// Algorithm 4 kept its books in per-pass buffers (163 of them in building
/// candidate lists, four vectors per connection, one per constraint
/// vector), 50 since; the ceiling leaves room for the design to grow, not
/// for a per-node, per-edge, per-buffer or per-attribute allocation to come
/// back.
const PARALLELIZE_ALLOCATION_CEILING: u64 = 55;

/// MobileNet-V1 at the Fig. 11 point `Naive`-pf256: 310 allocator calls
/// before the per-pass buffers, 29 since.
const NAIVE_ALLOCATION_CEILING: u64 = 32;

/// Allocator calls of `parallelize` plus its verification on a fork of the
/// checkpoint `balance` left for `model` under the pipeline `text`, counted
/// on the second of two forks.
fn parallelize_allocations(model: Model, text: &str) -> u64 {
    // The pipeline as `Pipeline::parse` builds it, over a run state of this
    // test's own: a debug build re-computes every analysis a pass declared
    // preserved to check the declaration, which is not what is counted here.
    let passes: Vec<_> = parse_pipeline(text)
        .unwrap()
        .iter()
        .map(|invocation| hida::registry().create(invocation).unwrap())
        .collect();
    let parallelize = passes.len() - 1;
    assert_eq!(passes[parallelize].1.name(), "hida-parallelize");
    let mut shared = RunState {
        analyses: AnalysisManager::new().with_consistency_checks(false),
        ..RunState::default()
    };

    let mut ctx = Context::new();
    let module = ctx.create_module(model.name());
    let func = build_model(&mut ctx, module, model);
    run_passes(&passes[..parallelize], true, &mut ctx, func, &mut shared)
        .expect("the model lowers");
    assert!(shared.verified.is_some(), "balance was verified by a walk");

    // What a sweep point does: fork the checkpoint, run the last pass —
    // once to intern what the point writes, then counted.
    let mut warm_ctx = ctx.clone();
    let mut warm = shared.fork(&ctx, &warm_ctx);
    run_passes(&passes[parallelize..], true, &mut warm_ctx, func, &mut warm)
        .expect("parallelize runs");
    let mut point_ctx = ctx.clone();
    let mut point = shared.fork(&ctx, &point_ctx);
    let issued = point.verified.expect("re-issued under the fork's id");
    let before = ALLOCS.get();
    run_passes(
        &passes[parallelize..],
        true,
        &mut point_ctx,
        func,
        &mut point,
    )
    .expect("parallelize runs");
    let allocs = ALLOCS.get() - before;

    // Verified without a walk: the record is still the one the fork was
    // issued, which it could not be had the structure counter moved.
    assert_eq!(point.verified, Some(issued));
    let record = point.statistics.last().unwrap();
    assert!(record.pass == "hida-parallelize" && record.verified && !record.failed);
    hida::ir::verifier::verify(&point_ctx, module).expect("and the IR is valid");
    allocs
}

#[test]
fn parallelizing_a_forked_resnet18_stays_under_the_allocation_ceiling() {
    // The Fig. 10 subject at one of its grid points.
    let options = HidaOptions {
        tile_size: Some(8),
        max_parallel_factor: 64,
        ..HidaOptions::dnn()
    };
    let text = options.pipeline_text();
    assert!(text.contains("tiling{factor=8,"));
    let allocs = parallelize_allocations(Model::ResNet18, &text);
    assert!(
        allocs <= PARALLELIZE_ALLOCATION_CEILING,
        "parallelize + its verification of a forked ResNet-18 made {allocs} allocator \
         calls, ceiling {PARALLELIZE_ALLOCATION_CEILING}"
    );
}

#[test]
fn parallelizing_a_forked_naive_mobilenet_stays_under_the_allocation_ceiling() {
    // The Fig. 11 point `Naive`-pf256 (tile 16): the DNN preset's flow in
    // `Naive` mode.
    let text = HidaOptions::dnn().pipeline_text();
    let text = text.replace("mode=IA+CA", "mode=Naive");
    assert!(text.contains("max-factor=256,mode=Naive"));
    let allocs = parallelize_allocations(Model::MobileNetV1, &text);
    assert!(
        allocs <= NAIVE_ALLOCATION_CEILING,
        "parallelize + its verification of a forked Naive MobileNet-V1 made {allocs} \
         allocator calls, ceiling {NAIVE_ALLOCATION_CEILING}"
    );
}
