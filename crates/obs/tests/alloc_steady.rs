//! The recording path allocates nothing in steady state. An always-on
//! window store sits on every span site of every run, and the scheduler
//! emits each stall on the *woken* actor's behalf — one thread alternating
//! between lanes. Found by name, that pattern cost two `String`s per
//! alternation; found by handle, it costs none.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use impacc_obs::{Recorder, SpanSink};
use impacc_vtime::SimTime;

struct Count;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Count {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: a statistic, read on the one thread that allocates.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Count = Count;

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
    let before = ALLOCS.load(Ordering::Relaxed);
    (0..10_000).for_each(push);
    assert_eq!(ALLOCS.load(Ordering::Relaxed) - before, 0);
    assert_eq!(store.span_count(), 2 * WINDOW);
}
