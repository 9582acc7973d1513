//! What a design-space run pays per point beyond the point's own passes is a
//! `Context::clone` on the way in (`Checkpoint::fork`) and the drop of a
//! `Context` on the way out. Both are counted here in allocator calls — a
//! count, so the ceiling holds on any machine: entities keep their short id
//! lists in place and share every leaf payload (types, attribute strings and
//! arrays, name hints) with the context they were cloned from, so a clone
//! allocates the arenas and, per entity, only what cannot sit in place.

use hida::{Compiler, HidaOptions, Model, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the tests of this binary can run side by side; no
    // destructor, so the allocator may touch them for as long as the thread
    // allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local cells that allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, frees)` this thread made while `work` ran.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.get(), FREES.get());
    let out = work();
    (out, ALLOCS.get() - before.0, FREES.get() - before.1)
}

/// The Fig. 10 subject at one of its grid points.
fn lowered_resnet18() -> hida::LoweredDesign {
    let options = HidaOptions {
        tile_size: Some(8),
        max_parallel_factor: 64,
        ..HidaOptions::dnn()
    };
    assert!(options.pipeline_text().contains("tiling{factor=8,"));
    Compiler::new(options)
        .lower(Workload::Model(Model::ResNet18))
        .expect("ResNet-18 lowers")
}

/// Over 2 000 before payloads were shared and id lists inline; the ceiling leaves
/// room for the design to grow, not for a per-entity allocation to come back
/// (one more heap block per op or per value is +200…+360).
const CLONE_ALLOCATION_CEILING: u64 = 600;

#[test]
fn cloning_a_lowered_resnet18_stays_under_the_allocation_ceiling() {
    let lowered = lowered_resnet18();
    let (ops, _, _, values) = lowered.ctx.arena_sizes();
    assert!(ops >= 150 && values >= 300, "{ops} ops, {values} values");

    let (clone, allocs, frees) = counted(|| lowered.ctx.clone());
    assert_eq!(frees, 0, "a clone frees nothing");
    assert!(
        allocs <= CLONE_ALLOCATION_CEILING,
        "Context::clone of ResNet-18 ({ops} op slots, {values} values) made {allocs} \
         allocator calls, ceiling {CLONE_ALLOCATION_CEILING}"
    );

    // Releasing the clone returns exactly what making it took: nothing it
    // shares with the original is freed, nothing it owns is leaked.
    let ((), drop_allocs, drop_frees) = counted(|| drop(clone));
    assert_eq!(drop_allocs, 0, "a drop allocates nothing");
    assert_eq!(drop_frees, allocs, "clone + drop must balance");
}

#[test]
fn a_clone_outlives_the_context_it_shares_payloads_with() {
    let lowered = lowered_resnet18();
    let (clone, module) = (lowered.ctx.clone(), lowered.module);
    let printed = hida::ir::printer::print_op(&lowered.ctx, module);
    drop(lowered);
    assert_eq!(hida::ir::printer::print_op(&clone, module), printed);
}
