//! Allocation budget of a payload-sized collective. The serve `allreduce`
//! job at 1 MiB per rank used to create five payload-sized buffers per
//! rank-round (58–80 allocations of ≥ 64 KiB per 8-rank, 2-round job, each
//! an `mmap`, a page fault per 4 KiB and an `munmap`). Now a rank keeps one
//! buffer, folds in it, and its collective scratch is reissued: the whole
//! job stays within a fixed budget, and a further round allocates nothing
//! of that size at all.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use impacc_serve::workload::run_job;
use impacc_serve::JobSpec;

/// What the budget counts: glibc serves requests from 128 KiB up by
/// `mmap`; 64 KiB leaves a margin and still excludes everything in a job
/// that is not a payload buffer.
const LARGE: usize = 64 * 1024;

struct CountLarge;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE {
        // Relaxed: a statistic, read after the job's threads are joined.
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

/// Large allocations of one 8-rank `elems=131072` allreduce job.
fn large_allocs(algo: &str, rounds: u32) -> u64 {
    let job = JobSpec::parse(&format!(
        "workload=allreduce\nspec=test_cluster\nnodes=2\ngpus=4\nelems=131072\n\
         rounds={rounds}\nalgo={algo}"
    ))
    .expect("valid job");
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    run_job(&job).expect("job runs");
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_payload_sized_allreduce_job_stays_within_its_allocation_budget() {
    for algo in ["flat", "binomial", "ring", "rd", "rabenseifner", "hier"] {
        let (one, two, three) = (
            large_allocs(algo, 1),
            large_allocs(algo, 2),
            large_allocs(algo, 3),
        );
        println!(
            "BUDGET {algo}: {one} / {two} / {three} allocations >= 64 KiB at 1 / 2 / 3 rounds"
        );
        assert!(
            two <= 24,
            "{algo}: {two} large allocations in a 2-round job"
        );
        assert_eq!(two, one, "{algo}: round 2 allocated payload-sized buffers");
        assert_eq!(
            three, one,
            "{algo}: round 3 allocated payload-sized buffers"
        );
    }
}
