//! The engine's own count of the OS threads a launch started
//! (`SimReport::threads_spawned`): one per rank, whatever else the runtime
//! runs. The node message handlers, the activity queues and the MPI
//! delivery handlers are handlers — actors that own no thread — so the
//! count is the rank count in both runtime modes, on one node or on 64.

use impacc_apps::{run_jacobi, JacobiParams};
use impacc_core::{Launch, MpiOpts, RuntimeOptions};
use impacc_machine::{presets, KernelCost};

#[test]
fn titan_jacobi_on_64_nodes_spawns_one_thread_per_rank() {
    let p = JacobiParams {
        n: 256,
        iters: 3,
        verify: false,
    };
    let s = run_jacobi(presets::titan(64), RuntimeOptions::impacc(), Some(4096), p)
        .expect("jacobi completes");
    assert_eq!(s.tasks.len(), 64);
    // 64 node handlers, 64 queues and 64 delivery handlers ran beside them.
    assert!(s.report.actor("handler.n63").is_some());
    assert!(s.report.actor("q1.rank63").is_some());
    assert_eq!(s.report.threads_spawned, 64);
}

#[test]
fn unified_queue_exchange_on_psg_spawns_one_thread_per_rank() {
    // Figure 4(c)'s shape on all eight PSG GPUs: kernel, send, receive and
    // kernel on queue 1 in every rank, the host waiting once at the end.
    let s = Launch::new(presets::psg(), RuntimeOptions::impacc())
        .run(|tc| {
            let peer = tc.rank() ^ 1;
            let (out, inn) = (tc.malloc_f64(512), tc.malloc_f64(512));
            tc.acc_create(&out);
            tc.acc_create(&inn);
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {});
            tc.mpi_send(&out, 0, out.len, peer, 0, MpiOpts::device().on_queue(1));
            tc.mpi_recv(&inn, 0, inn.len, peer, 0, MpiOpts::device().on_queue(1));
            tc.acc_kernel(Some(1), KernelCost::flops(1e8), || {});
            tc.acc_wait(1);
        })
        .expect("exchange completes");
    assert_eq!(s.tasks.len(), 8);
    assert_eq!(s.report.metrics["fused_msgs"], 8);
    assert_eq!(s.report.threads_spawned, 8);
}

#[test]
fn baseline_mode_spawns_ranks_only() {
    let p = JacobiParams {
        n: 64,
        iters: 3,
        verify: true,
    };
    let s =
        run_jacobi(presets::psg(), RuntimeOptions::baseline(), None, p).expect("jacobi completes");
    assert_eq!(s.report.threads_spawned, s.tasks.len() as u64);
}
