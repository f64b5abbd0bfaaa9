//! Counting global allocator: live bytes, peak live bytes and the
//! number of allocations, read from outside the crates under test.
//!
//! The counters are per thread (`const`-initialised thread-locals
//! without destructors, so the allocator never allocates or registers
//! anything itself). Every workload runs on one thread, which makes the
//! thread's counters the workload's counters, costs two plain stores per
//! allocation where shared atomics would cost three locked operations,
//! and keeps parallel unit tests out of each other's numbers. Memory
//! freed on another thread than the one that allocated it would skew
//! `live`; nothing in the benchmark does that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by `lib.rs`; forwards to [`System`].
pub struct Counting;

thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn grew(by: u64) {
    // `try_with` only fails while the thread is being torn down; the
    // counts no longer matter then.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = LIVE.try_with(|l| {
        let live = l.get() + by;
        l.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

fn shrank(by: u64) {
    let _ = LIVE.try_with(|l| l.set(l.get().saturating_sub(by)));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size() as u64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size() as u64);
        grew(new_size as u64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes this thread currently holds.
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}

/// Highest [`live_bytes`] seen since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.with(Cell::get)
}

/// Allocations (including reallocations) made by this thread.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_peak_and_count_follow_a_vec() {
        const MB: u64 = 1 << 20;
        let live0 = live_bytes();
        let n0 = allocations();
        reset_peak();
        let v = vec![1u8; 8 << 20];
        std::hint::black_box(&v);
        assert_eq!(allocations(), n0 + 1);
        assert_eq!(live_bytes(), live0 + 8 * MB);
        drop(v);
        // Freed memory leaves `live` but stays in `peak` until reset.
        assert_eq!(live_bytes(), live0);
        assert_eq!(peak_bytes(), live0 + 8 * MB);
        reset_peak();
        assert_eq!(peak_bytes(), live0);

        // A growing realloc counts once and moves live by the new size.
        let mut w: Vec<u8> = Vec::with_capacity(1 << 20);
        let n1 = allocations();
        w.reserve_exact(6 << 20);
        std::hint::black_box(&w);
        assert_eq!(allocations(), n1 + 1);
        assert_eq!(live_bytes(), live0 + w.capacity() as u64);
        assert_eq!(peak_bytes(), live_bytes());
    }
}
