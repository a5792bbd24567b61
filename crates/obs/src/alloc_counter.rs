//! A counting global allocator for zero-allocation regression tests.
//!
//! The simulator's hot path is specified to make *zero* heap allocations
//! per cycle in steady state (ROADMAP: the compiled value plane). That
//! claim is only worth having if a test can falsify it, so this module
//! provides a delegating [`GlobalAlloc`] that counts allocations
//! per-thread. A consuming test crate installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hwdbg_obs::CountingAlloc = hwdbg_obs::CountingAlloc;
//! ```
//!
//! then brackets the region of interest with [`thread_allocs`] snapshots,
//! or with [`thread_live_bytes`] snapshots to see how many bytes a value
//! built in the region keeps. Counts are per-thread so parallel test
//! runners don't bleed into each other's measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that delegates to [`System`], counts every
/// allocation (including reallocations) on the calling thread, and keeps
/// the thread's live byte total.
///
/// Deallocations do not lower the allocation count: the regression tests
/// care about allocation pressure, and a free with no matching alloc in
/// the window is not a defect. They do lower the live byte total.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

/// Heap allocations made by the current thread since it started (only
/// meaningful when [`CountingAlloc`] is installed as the global
/// allocator; always 0 otherwise).
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes allocated minus bytes freed by the current thread since it
/// started (0 unless [`CountingAlloc`] is installed). The difference of
/// two snapshots is what the code in between left allocated; it can be
/// negative when that code frees memory allocated before it.
pub fn thread_live_bytes() -> i64 {
    LIVE.try_with(Cell::get).unwrap_or(0)
}

// `try_with`: allocation can happen during thread teardown after the
// thread-locals have been dropped; those events are uncountable but must
// not panic.

#[inline]
fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn add_live(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        add_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in this crate's own tests (that would
    // tax every other test); we only check the counter plumbing.
    #[test]
    fn counter_starts_at_zero_without_installation() {
        assert_eq!(thread_allocs(), 0);
    }

    #[test]
    fn live_bytes_follow_allocs_and_frees() {
        let before = thread_live_bytes();
        add_live(64);
        add_live(-16);
        assert_eq!(thread_live_bytes(), before + 48);
    }

    #[test]
    fn bump_increments_thread_counter() {
        let before = thread_allocs();
        bump();
        bump();
        assert_eq!(thread_allocs(), before + 2);
    }
}
