//! The recording path allocates nothing in steady state. An always-on
//! window store sits on every span site of every run, and the scheduler
//! emits each stall on the *woken* actor's behalf — one thread alternating
//! between lanes. Found by name, that pattern cost two `String`s per
//! alternation; found by handle, it costs none.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary; it counts only the calling thread's allocations, so libtest's
//! own threads cannot move the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use impacc_obs::{Recorder, SpanSink};
use impacc_vtime::SimTime;

struct CountThread;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountThread = CountThread;

#[test]
fn a_warm_window_store_records_without_allocating() {
    const WINDOW: usize = 256;
    let store = Recorder::windowed(WINDOW);
    let lanes = [store.lane("rank0"), store.lane("rank1")];
    let push = |i: u64| {
        let lane = &lanes[(i % 2) as usize];
        let label = if i % 4 < 2 { "kernel" } else { "stall" };
        lane.span(label, SimTime(i), SimTime(i + 1), &mut || {
            panic!("a window keeps no attributes of bulk kinds")
        });
    };
    // Warm up: both rings grow to their capacity.
    (0..4 * WINDOW as u64).for_each(push);
    let before = ALLOCS.with(Cell::get);
    (0..10_000).for_each(push);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(store.span_count(), 2 * WINDOW);
}
