//! Counting global allocator.
//!
//! Wraps [`std::alloc::System`] and counts allocation calls (`alloc`,
//! `alloc_zeroed` and `realloc`) per thread. The benchmark reads the
//! count before and after a call into a layer, so allocations are
//! attributed exactly to the layer that made them. The count is per
//! thread, so the sweep's worker threads never disturb the main thread's
//! figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls made so far by the current thread.
pub fn count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    // `try_with`: the slot is gone while the thread is exiting; losing
    // those few counts cannot touch a measured span.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] that counts allocation calls and delegates to the
/// system allocator.
pub struct Counting;

// SAFETY: every method delegates to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged. The counter is
// a const-initialized thread-local `Cell`, which never allocates, so the
// allocator cannot recurse into itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
