//! The engine's own count of the OS threads a launch started
//! (`SimReport::threads_spawned`). A rank launched through the stack
//! (`Launch::run_async`) is a handler, as are the node message handlers,
//! the activity queues and the MPI delivery handlers: such a launch starts
//! no thread at all, on one node or on 512. Only the synchronous facade
//! kept for the benchmark package gives each rank an OS thread of its own;
//! `crates/core/tests/runtime.rs` counts those beside the schedule it pins.

use impacc_apps::{run_jacobi, JacobiParams};
use impacc_core::{Launch, MpiOpts, RuntimeOptions};
use impacc_machine::{presets, KernelCost};

#[test]
fn titan_jacobi_on_512_nodes_spawns_no_thread() {
    let p = JacobiParams {
        n: 1024,
        iters: 2,
        verify: false,
    };
    let s = run_jacobi(presets::titan(512), RuntimeOptions::impacc(), Some(4096), p)
        .expect("jacobi completes");
    assert_eq!(s.tasks.len(), 512);
    // 512 node handlers, 512 queues and 512 delivery handlers ran beside
    // the ranks.
    assert!(s.report.actor("handler.n511").is_some());
    assert!(s.report.actor("q1.rank511").is_some());
    assert_eq!(s.report.threads_spawned, 0);
}

#[test]
fn unified_queue_exchange_on_psg_spawns_no_thread() {
    // Figure 4(c)'s shape on all eight PSG GPUs: kernel, send, receive and
    // kernel on queue 1 in every rank, the host waiting once at the end.
    let s = Launch::new(presets::psg(), RuntimeOptions::impacc())
        .run_async(|tc| async move {
            let peer = tc.rank() ^ 1;
            let (out, inn) = (tc.malloc_f64(512).await, tc.malloc_f64(512).await);
            tc.acc_create(&out);
            tc.acc_create(&inn);
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {}).await;
            tc.mpi_send(&out, 0, out.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.mpi_recv(&inn, 0, inn.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {}).await;
            tc.acc_wait(1).await;
        })
        .expect("exchange completes");
    assert_eq!(s.tasks.len(), 8);
    assert_eq!(s.report.metrics["fused_msgs"], 8);
    assert_eq!(s.report.threads_spawned, 0);
}

#[test]
fn baseline_mode_spawns_no_thread() {
    let p = JacobiParams {
        n: 64,
        iters: 3,
        verify: true,
    };
    let s =
        run_jacobi(presets::psg(), RuntimeOptions::baseline(), None, p).expect("jacobi completes");
    assert_eq!(s.report.threads_spawned, 0);
}
