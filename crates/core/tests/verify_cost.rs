//! What verifying a design costs, counted in allocator calls: the verifier
//! keeps its scope marks and isolation stack between verifications, so once
//! a design of some size has been verified, verifying it again makes none —
//! on this thread or on a worker spawned after. A count, so it holds on any
//! machine; a per-op or per-isolated-op `Vec` in the walk trips it.

use hida::{Compiler, HidaOptions, Model, Workload};
use hida_ir_core::verifier::{verify, verify_except};
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

#[test]
fn verifying_a_lowered_resnet18_again_allocates_nothing() {
    let lowered = Compiler::new(HidaOptions::dnn())
        .lower(Workload::Model(Model::ResNet18))
        .expect("ResNet-18 lowers");
    let (ctx, module, func) = (&lowered.ctx, lowered.module, lowered.func);
    verify(ctx, module).expect("the lowered design verifies");

    let before = ALLOCS.get();
    verify(ctx, module).expect("and verifies again");
    assert_eq!(
        ALLOCS.get() - before,
        0,
        "a second verification on one thread"
    );

    // A compile's final check: everything but the function the last pass
    // verified.
    let before = ALLOCS.get();
    verify_except(ctx, module, Some(func)).expect("the module around it verifies");
    assert_eq!(
        ALLOCS.get() - before,
        0,
        "a verification that skips a subtree"
    );

    // A thread spawned now finds the scratch the first one left.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let before = ALLOCS.get();
            verify(ctx, module).expect("and verifies on another thread");
            assert_eq!(ALLOCS.get() - before, 0, "a verification on a fresh thread");
        });
    });
}
