//! `construct`, task fusion and the `lower` pass after them are the front
//! half of every DNN compile, and the compute profile fusion and lowering
//! query is the analysis they call most. What one ResNet-18 run of each
//! costs is counted here: pattern checks, compute profiles, and allocator
//! calls with the verification after each pass. Counts, so the ceilings hold
//! on any machine: the pattern phase checks each pair of adjacent tasks once
//! and again only after a merge changed it, a check borrows the tasks'
//! bodies instead of copying them, two tasks merge in one move of one body
//! into the other, the criticality phase computes each task's profile once,
//! and a profile walks its body once and builds the virtual loop nest of its
//! dominant layer only. The allocator calls are counted on a second compile,
//! after the first one has interned what the passes write.

use hida::dataflow_ir::functional::TaskOp;
use hida::frontend::nn::build_model;
use hida::ir::{run_passes, AnalysisManager, Context, Pass, PassInvocation, RunState};
use hida::opt::fusion::{default_fusion_patterns, FusionPattern};
use hida::opt::HidaPass;
use hida::Model;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// 628 when the pattern phase rescanned from the first pair after every
/// merge; one sweep makes 122.
const MATCHES_CEILING: u64 = 150;
/// 493 while every wrap collected each escaping result's users and tested
/// them against each wrapped op, and formatted each task's name afresh; 32
/// after.
const CONSTRUCT_ALLOCATION_CEILING: u64 = 36;
/// 3 696 before the sweep and the one-walk profile, 1 275 while a merge
/// wrapped the two tasks into a third and unwrapped both, 428 after, 406
/// since a layer's loop nest no longer allocates its output shape.
const FUSION_ALLOCATION_CEILING: u64 = 470;
/// 2 445 while a profile built each layer's loop nest two or three times
/// and named every loop dimension, 1 105 while it built every layer's, 622
/// with the dominant layer's only and one value map per lowering, 601 since
/// the nest no longer allocates its output shape.
const LOWER_ALLOCATION_CEILING: u64 = 685;
/// Compute profiles fusion and lowering compute: one per task the
/// criticality phase reads (21), per fused task it goes on to read (1) and
/// per node (20).
const PROFILES_CEILING: u64 = 42;

/// A pattern that counts its checks and answers as the wrapped one does.
struct CountingPattern {
    inner: Box<dyn FusionPattern>,
    calls: Arc<AtomicU64>,
}

impl FusionPattern for CountingPattern {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matches(&self, ctx: &hida::ir::Context, task: TaskOp, next: TaskOp) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.matches(ctx, task, next)
    }
}

/// Allocator calls of `construct`, `fusion` and `lower` (each with its
/// verification) over a fresh ResNet-18, the pattern checks of `fusion` and
/// the compute profiles `fusion` and `lower` compute.
fn compile_resnet18() -> [u64; 5] {
    let calls = Arc::new(AtomicU64::new(0));
    let patterns = default_fusion_patterns()
        .into_iter()
        .map(|inner| {
            Box::new(CountingPattern {
                inner,
                calls: Arc::clone(&calls),
            }) as Box<dyn FusionPattern>
        })
        .collect();
    let passes = [
        HidaPass::Construct,
        HidaPass::Fusion { patterns },
        HidaPass::Lower,
    ]
    .map(|pass| (PassInvocation::new(pass.name()), pass));
    // A debug build re-computes every analysis a pass declared preserved to
    // check the declaration, which is not what is counted here.
    let mut state = RunState {
        analyses: AnalysisManager::new().with_consistency_checks(false),
        ..RunState::default()
    };

    let mut ctx = Context::new();
    let module = ctx.create_module("resnet18");
    let func = build_model(&mut ctx, module, Model::ResNet18);
    let mut allocs = [0; 3];
    for (pass, count) in passes.chunks(1).zip(&mut allocs) {
        let before = ALLOCS.get();
        run_passes(pass, true, &mut ctx, func, &mut state).expect("ResNet-18 lowers");
        *count = ALLOCS.get() - before;
    }
    assert!(state.statistics.iter().all(|record| !record.failed));
    hida::ir::verifier::verify(&ctx, module).expect("and the IR is valid");
    let profiles = state.statistics[1..]
        .iter()
        .map(|record| record.cache.misses)
        .sum();
    [
        allocs[0],
        allocs[1],
        allocs[2],
        calls.load(Ordering::Relaxed),
        profiles,
    ]
}

#[test]
fn fusing_and_lowering_resnet18_stay_under_their_ceilings() {
    let [_, _, _, warm_matches, warm_profiles] = compile_resnet18();
    let [construct, fusion, lower, matches, profiles] = compile_resnet18();
    assert_eq!(matches, warm_matches, "pattern checks are deterministic");
    assert_eq!(
        profiles, warm_profiles,
        "profile computations are deterministic"
    );
    assert!(
        matches <= MATCHES_CEILING,
        "fusion of ResNet-18 made {matches} pattern checks, ceiling {MATCHES_CEILING}"
    );
    assert!(
        profiles <= PROFILES_CEILING,
        "fusion and lower of ResNet-18 computed {profiles} compute profiles, \
         ceiling {PROFILES_CEILING}"
    );
    assert!(
        construct <= CONSTRUCT_ALLOCATION_CEILING,
        "construct + its verification of ResNet-18 made {construct} allocator calls, \
         ceiling {CONSTRUCT_ALLOCATION_CEILING}"
    );
    assert!(
        fusion <= FUSION_ALLOCATION_CEILING,
        "fusion + its verification of ResNet-18 made {fusion} allocator calls, \
         ceiling {FUSION_ALLOCATION_CEILING}"
    );
    assert!(
        lower <= LOWER_ALLOCATION_CEILING,
        "lower + its verification of ResNet-18 made {lower} allocator calls, \
         ceiling {LOWER_ALLOCATION_CEILING}"
    );
}
