//! Allocation budget of the message path's completion handle. A fused
//! message used to cost each side a four-`Arc` completion handle, a status
//! side-cell and three formatted `String`s (the wait cause and the actor
//! name, twice) before the handler had done anything; now it is one
//! [`Request`] — the shared record and its latch — whose cause is a value
//! and whose provenance is the `Arc<str>` the engine already holds.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary, and the launch is pinned to one worker so it counts alike
//! under any ambient `IMPACC_PARALLEL`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use impacc_core::{Launch, MpiOpts, RuntimeOptions};
use impacc_machine::presets;
use impacc_mpi::{Request, WaitCause};
use impacc_vtime::Sim;

struct CountAll;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn allocs() -> u64 {
    // Relaxed: a statistic, read on the one thread that is running (one
    // worker runs one actor at a time) or after the run is joined.
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountAll {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountAll = CountAll;

/// Allocations of one 2-rank same-node launch that exchanges `rounds`
/// 64-byte `mpi_sendrecv`s (two fused messages a round) under the default
/// window store.
fn sendrecv_allocs(rounds: usize) -> u64 {
    let before = allocs();
    let s = Launch::new(presets::test_cluster(1, 2), RuntimeOptions::impacc())
        .parallelism(1)
        .run_async(move |tc| async move {
            let peer = 1 - tc.rank();
            let (out, inn) = (tc.malloc(64).await, tc.malloc(64).await);
            for _ in 0..rounds {
                tc.mpi_sendrecv(&out, peer, &inn, peer, 3, MpiOpts::host())
                    .await;
            }
        })
        .expect("simulation completes");
    assert_eq!(s.report.metrics["fused_msgs"], 2 * rounds as u64);
    allocs() - before
}

#[test]
fn the_completion_handle_stays_within_its_allocation_budget() {
    // One handle: the shared record and its latch, nothing per field, and
    // nothing more to complete it or to wait on it once complete.
    let mut sim = Sim::new();
    sim.spawn("solo", |ctx| {
        let round = || {
            let before = allocs();
            let req = Request::pending(WaitCause::FusedSend { dst: 1, tag: 7 });
            req.complete_named(ctx, ctx.now(), None);
            assert!(req.test(ctx));
            assert_eq!(ctx.block_on(req.completion(ctx)), None);
            allocs() - before
        };
        round(); // the engine's first `mpi_wait` accounting entry
        assert_eq!(round(), 2);
    });
    sim.run().expect("simulation completes");

    // Warm marginal cost of a fused message: the difference between a long
    // and a short run cancels launch, spawn and first-touch growth. 24.5 at
    // the parent of this handle, 11.0 while a suspended waiter's stall cause
    // was formatted for a window store that drops it; what remains is two
    // handles and two queue nodes a message and the suspended waiters'
    // latch slots.
    let (short, long) = (sendrecv_allocs(200), sendrecv_allocs(1200));
    let per_msg = (long - short) as f64 / 2000.0;
    println!("ALLOCS per fused 64 B message: {per_msg:.3}");
    assert!(per_msg <= 7.5, "{per_msg} allocations per fused message");
}
