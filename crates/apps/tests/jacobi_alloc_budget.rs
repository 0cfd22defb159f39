//! Allocation budget of a Jacobi sweep. The sweep runs on the array layer
//! (inferred halo exchange, row-kernel stencil), which must allocate no
//! more per sweep than the hand-written rank body it replaced: 33,743
//! allocations for 100 sweeps of 8 PSG ranks (n = 64, unified queue) when
//! that body was deleted. The array layer of that time took 56,940; with
//! runs lowered at build, stack-held bounds, computed coordinates, bulk
//! array span kinds and a caller-owned residual slot it takes 33,740.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary, and the launch is pinned to one worker so it counts alike
//! under any ambient `IMPACC_PARALLEL`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_core::{Launch, RuntimeOptions};
use impacc_machine::presets;

struct CountAll;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn allocs() -> u64 {
    // Relaxed: a statistic, read on the one thread that is running (one
    // worker runs one actor at a time) or after the run is joined.
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state. The
// default `alloc_zeroed` and `realloc` go through `alloc`, so each
// allocation, zeroed or grown, counts once.
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
}

#[global_allocator]
static ALLOC: CountAll = CountAll;

/// Allocations of one `iters`-sweep Jacobi on PSG's 8 GPUs, n = 64.
fn jacobi_allocs(iters: usize) -> u64 {
    let p = JacobiParams {
        n: 64,
        iters,
        verify: false,
    };
    let before = allocs();
    Launch::new(presets::psg(), RuntimeOptions::impacc())
        .parallelism(1)
        .run_async(move |tc| {
            let p = p.clone();
            async move { jacobi_task(&tc, &p, None).await }
        })
        .expect("jacobi completes");
    allocs() - before
}

#[test]
fn a_jacobi_sweep_allocates_no_more_than_the_handwritten_one() {
    // The difference between a long and a short run cancels launch,
    // spawn, tile setup and first-touch growth.
    let (short, long) = (jacobi_allocs(10), jacobi_allocs(110));
    let per_100 = long - short;
    println!("ALLOCS per 100 jacobi sweeps (8 ranks): {per_100}");
    assert!(per_100 <= 33743, "{per_100} allocations per 100 sweeps");
}
