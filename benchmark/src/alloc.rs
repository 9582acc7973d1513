//! A counting `#[global_allocator]`: every allocation the harness binary makes
//! (the compiler's included, on every thread) is counted, so `allocs_per_op`
//! and `alloc_mb_per_op` are counts, not timings — they repeat exactly
//! wherever the compiler is deterministic.
//!
//! Counting must not slow the measured code, least of all the parallel
//! workloads: two process-wide atomics made a 2-thread sweep 3x slower (the
//! counters' cache line bounced between the cores on each of its 2.2 million
//! allocations). So every thread counts in a cache-line-sized slot of its
//! own, with plain loads and stores; a thread claims a free slot at its first
//! allocation and hands it back when it ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// More slots than threads ever alive at once (`N <= 4` workers per pool
/// level, two levels, plus the main thread).
const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    taken: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            taken: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

static OWNED: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];
/// Counts whatever cannot go to an owned slot (all slots taken, or a thread
/// past its own clean-up), with read-modify-write adds.
static SHARED: Slot = Slot::new();

const UNCLAIMED: usize = usize::MAX;
const USE_SHARED: usize = usize::MAX - 1;

/// Hands the thread's slot back when the thread ends.
struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        let slot = MINE.replace(USE_SHARED);
        if slot < SLOTS {
            // Release: the next owner's claim (Acquire) sees our final counts.
            OWNED[slot].taken.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    /// No destructor, so it stays readable for as long as the thread allocates.
    static MINE: Cell<usize> = const { Cell::new(UNCLAIMED) };
    static RELEASE: Release = const { Release };
}

fn claim() -> usize {
    // First use registers `Release`'s destructor for this thread; a thread
    // already tearing down gets the shared slot.
    if RELEASE.try_with(|_| ()).is_err() {
        return USE_SHARED;
    }
    OWNED
        .iter()
        .position(|slot| {
            slot.taken
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        })
        .unwrap_or(USE_SHARED)
}

fn count(bytes: u64) {
    let mut slot = MINE.get();
    if slot == UNCLAIMED {
        // Anything `claim` itself allocates is counted in the shared slot.
        MINE.set(USE_SHARED);
        slot = claim();
        MINE.set(slot);
    }
    // Relaxed throughout: the counters publish no other data. They are read
    // by the benchmark thread after the measured call returned, which is
    // after its scoped workers' closures ended.
    match OWNED.get(slot) {
        Some(own) => {
            own.allocs
                .store(own.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            own.bytes
                .store(own.bytes.load(Ordering::Relaxed) + bytes, Ordering::Relaxed);
        }
        None => {
            SHARED.allocs.fetch_add(1, Ordering::Relaxed);
            SHARED.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// Forwards to the system allocator, counting calls and requested bytes.
pub struct CountingAlloc;

/// Bytes a `realloc` adds to the running total: only the growth, so a vector
/// doubling from 1 MiB to 2 MiB counts 1 MiB, and a shrink counts nothing.
pub fn realloc_growth(old_size: usize, new_size: usize) -> u64 {
    new_size.saturating_sub(old_size) as u64
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        // SAFETY: same layout the caller guaranteed valid for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(realloc_growth(layout.size(), new_size));
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through one of the methods
        // above with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    /// Everything counted so far, on every thread.
    pub fn now() -> Snapshot {
        let mut total = Snapshot::default();
        for slot in OWNED.iter().chain([&SHARED]) {
            total.allocs += slot.allocs.load(Ordering::Relaxed);
            total.bytes += slot.bytes.load(Ordering::Relaxed);
        }
        total
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn add(&mut self, other: &Snapshot) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realloc_counts_growth_only() {
        assert_eq!(realloc_growth(1024, 4096), 3072);
        assert_eq!(realloc_growth(4096, 1024), 0);
        assert_eq!(realloc_growth(64, 64), 0);
    }

    #[test]
    fn snapshots_subtract_and_accumulate() {
        let a = Snapshot {
            allocs: 10,
            bytes: 1000,
        };
        let b = Snapshot {
            allocs: 13,
            bytes: 1600,
        };
        let delta = b.since(&a);
        assert_eq!(
            delta,
            Snapshot {
                allocs: 3,
                bytes: 600
            }
        );
        let mut total = Snapshot::default();
        total.add(&delta);
        total.add(&delta);
        assert_eq!(
            total,
            Snapshot {
                allocs: 6,
                bytes: 1200
            }
        );
    }

    #[test]
    fn worker_threads_count_exactly_and_return_their_slots() {
        // Many more threads than slots, two alive at a time: each counts its
        // own allocation, visible once the scope has joined it.
        for _ in 0..4 * SLOTS {
            let before = Snapshot::now();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| std::hint::black_box(Vec::<u8>::with_capacity(4096)));
                }
            });
            let delta = Snapshot::now().since(&before);
            assert!(delta.allocs >= 2 && delta.bytes >= 8192, "{delta:?}");
        }
        // Had exited threads kept their slots, the array would be full by now.
        assert!(OWNED.iter().any(|slot| !slot.taken.load(Ordering::Relaxed)));
    }

    #[test]
    fn live_counters_see_an_allocation() {
        // Other test threads allocate too, so only a lower bound is exact.
        let before = Snapshot::now();
        let v: Vec<u8> = Vec::with_capacity(12345);
        let delta = Snapshot::now().since(&before);
        std::hint::black_box(&v);
        assert!(delta.allocs >= 1);
        assert!(delta.bytes >= 12345);
    }
}
