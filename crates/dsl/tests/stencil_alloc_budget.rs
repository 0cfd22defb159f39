//! Allocation budget of a compiled stencil sweep: `examples/jacobi.acc`
//! on PSG's 8 GPUs (n = 64, unified queue), counted as allocations(110
//! sweeps) − allocations(10 sweeps). A site's stencil spec and row kernel
//! are built once per run, not once per sweep: rebuilding them every
//! sweep took 49,716 allocations per 100 sweeps, building them once took
//! 36,116. The host loop allocates nothing per iteration either: cloning
//! the loop variable's name into the scalar table on every iteration (and
//! on every reduced residual) and boxing the body future once per
//! iteration took those 36,116; updating the scalar in place and boxing
//! each loop once takes 33,716. The array Jacobi the program compiles to
//! (`apps/tests/jacobi_alloc_budget.rs`) takes 33,740, which is the
//! bound: a compiled sweep allocates no more than the hand-written one.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary, and the launch is pinned to one worker so it counts alike
//! under any ambient `IMPACC_PARALLEL`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use impacc_core::{Launch, RuntimeOptions};
use impacc_dsl::{compile_with_overrides, example, run_program};
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

/// Allocations of one `iters`-sweep run of compiled `jacobi.acc` on PSG's
/// 8 GPUs, n = 64. Compiling is outside the count.
fn dsl_jacobi_allocs(iters: usize) -> u64 {
    let overrides = [("n".to_string(), 64.0), ("iters".to_string(), iters as f64)];
    let c = Arc::new(
        compile_with_overrides(example("jacobi").unwrap(), &overrides)
            .expect("jacobi.acc compiles"),
    );
    let before = allocs();
    Launch::new(presets::psg(), RuntimeOptions::impacc())
        .parallelism(1)
        .run_async(move |tc| {
            let c = c.clone();
            async move {
                run_program(&tc, &c, None, false).await;
            }
        })
        .expect("jacobi.acc completes");
    allocs() - before
}

#[test]
fn a_compiled_stencil_sweep_reuses_its_kernel() {
    // The difference between a long and a short run cancels launch,
    // spawn, tile setup and first-touch growth.
    let (short, long) = (dsl_jacobi_allocs(10), dsl_jacobi_allocs(110));
    let per_100 = long - short;
    println!("ALLOCS per 100 jacobi.acc sweeps (8 ranks): {per_100}");
    assert!(per_100 <= 33740, "{per_100} allocations per 100 sweeps");
}
