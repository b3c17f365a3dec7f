//! Heap accounting for the counting runs.
//!
//! The allocator is inert unless a counting run has armed it: a timed
//! run pays one relaxed load of a flag nobody writes, with no shared
//! counter traffic. Armed, it counts allocations (reallocations count
//! as one) and tracks live bytes and their high-water mark relative to
//! the moment it was armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(delta: i64, new_block: bool) {
    if new_block {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note(layout.size() as i64, true);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note(layout.size() as i64, true);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            note(-(layout.size() as i64), false);
        }
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            note(new_size as i64 - layout.size() as i64, true);
        }
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counting run saw.
#[derive(Debug, Clone, Copy)]
pub struct HeapCounts {
    pub allocs: u64,
    /// High-water live heap above the level at arming, in bytes.
    pub peak_bytes: u64,
}

/// Run `f` with the allocator armed. Not reentrant: the benchmark's
/// main thread is the only caller.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, HeapCounts) {
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let counts = HeapCounts {
        allocs: ALLOCS.load(Ordering::SeqCst),
        peak_bytes: PEAK.load(Ordering::SeqCst).max(0) as u64,
    };
    (out, counts)
}
