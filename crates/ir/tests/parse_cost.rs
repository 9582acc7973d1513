//! What reading a module from `.hir` text costs, counted in allocator calls:
//! `examples/two_mm.hir` parsed into a fresh context, the way every
//! `hida-opt --input` compile and every `polybench-hir` subject meets it. A
//! count, so the ceiling holds on any machine.

use hida_ir_core::parse::parse_module;
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

const TWO_MM: &str = include_str!("../../../examples/two_mm.hir");

/// 17 today (233 while every identifier and value name was a `String` and
/// the value table a `HashMap<String, ValueId>`): the context's arenas, each
/// allocated once at a size read off the text's length, the parser's
/// reusable scratch vectors, and the id lists of blocks and values that
/// outgrow their inline slots. The ceiling is measured x 1.1: room for the
/// module to grow, not for a per-token allocation to come back.
const PARSE_ALLOCATION_CEILING: u64 = 19;

#[test]
fn parsing_two_mm_stays_under_the_allocation_ceiling() {
    // The first parse interns the module's strings, types and arrays for
    // the rest of the process; what every later parse pays is counted.
    parse_module(TWO_MM).expect("two_mm parses");
    let before = ALLOCS.get();
    let (ctx, root) = parse_module(TWO_MM).expect("two_mm parses");
    let allocs = ALLOCS.get() - before;
    assert_eq!(ctx.body_ops(root).len(), 1, "two_mm is one function");
    assert!(
        allocs <= PARSE_ALLOCATION_CEILING,
        "parsing examples/two_mm.hir made {allocs} allocator calls, \
         ceiling {PARSE_ALLOCATION_CEILING}"
    );
}
