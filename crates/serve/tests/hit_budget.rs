//! Allocation budget of a cache hit: a request answered from the cache
//! costs `JobSpec::parse` + `Serve::submit` + `Ticket::try_wait`, and
//! that path allocates only what the API hands back — the job's own
//! strings (`spec`, and a DSL job's `program`) and the two copies of the
//! key (`Ticket::key`, `JobDone::key`). Validation, the DSL front lookup
//! and keying allocate nothing.
//!
//! The counting allocator is process-wide, so this test is alone in its
//! binary; it counts only the calling thread's allocations, so an idle
//! worker cannot move the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use impacc_serve::{JobSpec, Serve, ServeConfig};

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

/// Allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_cache_hit_allocates_only_what_it_returns() {
    let dsl = JobSpec::parse("workload=dsl\nprogram=jacobi\nnodes=2\ngpus=2\nparams=n:32,iters:3")
        .expect("dsl job");
    // As a client writes them: the DSL request carries its inline normal
    // form, as the spool wire format does.
    let requests = [
        (
            "allreduce",
            "workload=allreduce\nnodes=2\ngpus=4\nelems=4096\nalgo=ring\nseed=5\n".to_string(),
            3,
        ),
        (
            "stencil2d",
            "workload=stencil2d\nnodes=2\ngpus=2\nn=64\nhalo=2\niters=4\nseed=5\n".to_string(),
            3,
        ),
        ("dsl", dsl.to_file(), 4),
    ];
    let serve = Serve::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (name, text, _) in &requests {
        let job = JobSpec::parse(text).expect("request parses");
        let done = serve.submit(job).expect("admitted").wait();
        assert!(done.is_ok() && !done.cache_hit, "{name}: {:?}", done.error);
    }
    for (name, text, budget) in &requests {
        // The first hit of a request warms whatever is lazily built once
        // per process; the budget holds from the second on.
        for pass in 0..3 {
            let (done, n) = allocations(|| {
                let job = JobSpec::parse(text).expect("request parses");
                let mut ticket = serve.submit(job).expect("admitted");
                ticket.try_wait().expect("a hit is resolved at submission")
            });
            assert!(done.cache_hit, "{name}: a resubmitted request must hit");
            if pass > 0 {
                println!("ALLOCS per hit {name} {n}");
                assert_eq!(n, *budget, "{name}: allocations per hit");
            }
        }
    }
}
