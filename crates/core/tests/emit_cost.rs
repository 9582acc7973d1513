//! What emitting a design's HLS C++ costs the allocator, counted on the
//! thread that emits. The emitter writes into a buffer that belongs to the
//! thread and keeps its capacity, so once a thread has emitted a design as
//! large, an emission allocates the `String` it returns and nothing else:
//! exactly the output's length, never a capacity guessed from a constant.

use hida::emitter::emit_schedule_with;
use hida::{Compiler, HidaOptions, LoweredDesign, Model, PolybenchKernel, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the tests of this binary can run side by side; no
    // destructor, so the allocator may touch them for as long as the thread
    // allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local cells that allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
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

/// Emits `lowered` twice on this thread and returns the second emission's
/// C++ with the allocator calls and bytes it made.
fn second_emission(lowered: &mut LoweredDesign) -> (String, u64, u64) {
    let (ctx, schedule) = (&lowered.ctx, lowered.schedule);
    let first = emit_schedule_with(ctx, schedule, &mut lowered.analyses);
    let (calls, bytes) = (ALLOCS.get(), BYTES.get());
    let cpp = emit_schedule_with(ctx, schedule, &mut lowered.analyses);
    let counted = (ALLOCS.get() - calls, BYTES.get() - bytes);
    assert_eq!(cpp, first);
    (cpp, counted.0, counted.1)
}

/// 1 today: the returned `String`, 23 838 bytes. 12 calls and 61 552 bytes
/// while the output started from the banner and doubled its way to 32 KiB
/// and the node and buffer lists were collected twice over. The ceiling is
/// measured x 1.1.
const RESNET_EMIT_ALLOCATION_CEILING: u64 = 1;

#[test]
fn a_second_resnet18_emission_stays_under_the_allocation_ceiling() {
    // The Fig. 10 subject at one of its grid points.
    let options = HidaOptions {
        tile_size: Some(8),
        max_parallel_factor: 64,
        ..HidaOptions::dnn()
    };
    let mut lowered = Compiler::new(options)
        .lower(Workload::Model(Model::ResNet18))
        .expect("ResNet-18 lowers");
    let (cpp, calls, _) = second_emission(&mut lowered);
    assert_eq!(cpp.matches("#pragma HLS inline off").count(), 20);
    assert!(
        calls <= RESNET_EMIT_ALLOCATION_CEILING,
        "a second emission of ResNet-18 made {calls} allocator calls, \
         ceiling {RESNET_EMIT_ALLOCATION_CEILING}"
    );
}

/// What an emission may request beyond its output's length: nothing today
/// (765 bytes for 765; 7 calls and 1 872 bytes while the output grew by
/// doubling).
const GESUMMV_EXTRA_BYTES: u64 = 64;

#[test]
fn a_gesummv_emission_requests_its_output_length() {
    let mut lowered = Compiler::new(HidaOptions::polybench())
        .lower(Workload::Polybench(PolybenchKernel::Gesummv))
        .expect("gesummv lowers");
    let (cpp, _, bytes) = second_emission(&mut lowered);
    let len = cpp.len() as u64;
    assert!(
        bytes <= len + GESUMMV_EXTRA_BYTES,
        "a {len}-byte emission requested {bytes} bytes, ceiling {}",
        len + GESUMMV_EXTRA_BYTES
    );
}
