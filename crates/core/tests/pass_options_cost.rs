//! What a pass's configuration costs once its pipeline is parsed: nothing.
//! `Pipeline::parse` renders each pass's options once, into its normalized
//! invocation, as one interned list; every statistics record of every run
//! and of every fork holds that list's handle, so recording, copying or
//! forking a record renders and copies no option. Counted in allocator
//! calls, so the test holds on any machine.

use hida::frontend::nn::build_model;
use hida::ir::{Context, RunState};
use hida::{Checkpoint, HidaOptions, Model, PassStatistics, Pipeline};
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

/// A fresh ResNet-18, as the front end builds it: (context, module, function).
fn resnet18() -> (Context, hida::ir::OpId, hida::ir::OpId) {
    let mut ctx = Context::new();
    let module = ctx.create_module("resnet18");
    let func = build_model(&mut ctx, module, Model::ResNet18);
    (ctx, module, func)
}

/// Asserts that every record holds the options list the parse rendered for
/// its pass — the same handle, so nothing was rendered or copied for it.
fn assert_shared(records: &[PassStatistics], pipeline: &Pipeline, what: &str) {
    assert_eq!(records.len(), pipeline.len(), "{what}");
    for (record, invocation) in records.iter().zip(pipeline.invocations()) {
        assert!(
            record.options.ptr_eq(invocation.options),
            "{what}: {}'s options are not the parsed rendering",
            record.pass
        );
    }
}

#[test]
fn runs_and_forks_share_the_options_the_parse_rendered() {
    // The Fig. 10 subject at one of its grid points: four of its seven
    // passes carry options, seven option values in all.
    let options = HidaOptions {
        tile_size: Some(8),
        max_parallel_factor: 64,
        ..HidaOptions::dnn()
    };
    let mut pipeline = Pipeline::from_options(&options);
    assert_eq!(pipeline.len(), 7);

    for run in ["first run", "second run"] {
        let (mut ctx, _, func) = resnet18();
        pipeline.run(&mut ctx, func).expect("ResNet-18 lowers");
        assert_shared(pipeline.statistics(), &pipeline, run);
    }

    // Copying the records copies handles: one allocator call, for the
    // vector (19 while each record owned its options as strings).
    let records = pipeline.statistics();
    let before = ALLOCS.get();
    let copied = records.to_vec();
    let allocs = ALLOCS.get() - before;
    assert_eq!(allocs, 1, "copying 7 records made {allocs} allocator calls");
    assert_eq!(copied, records);

    // So does forking a run state that holds them, with no cache entry to
    // carry over.
    let (ctx, ..) = resnet18();
    let fork_ctx = ctx.clone();
    let state = RunState {
        statistics: copied,
        ..RunState::default()
    };
    let before = ALLOCS.get();
    let forked = state.fork(&ctx, &fork_ctx);
    let allocs = ALLOCS.get() - before;
    assert_eq!(allocs, 1, "forking 7 records made {allocs} allocator calls");
    assert_shared(&forked.statistics, &pipeline, "forked run state");

    // A checkpoint stopped after lowering, forked and finished: its records,
    // inherited and new, hold the parse's lists too.
    let (ctx, module, func) = resnet18();
    let mut checkpoint = Checkpoint::new(ctx, module, func);
    pipeline
        .resume(&mut checkpoint, 3)
        .expect("the front half lowers");
    let mut fork = checkpoint.fork();
    pipeline
        .resume(&mut fork, pipeline.len())
        .expect("the fork finishes");
    let (_, _, statistics) = fork.into_parts();
    assert_shared(&statistics, &pipeline, "forked checkpoint");
}
