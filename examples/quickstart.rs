//! Quickstart: launch an MPI+OpenACC program under the IMPACC runtime.
//!
//! A two-GPU node: each task fills a buffer on its accelerator, the tasks
//! exchange the buffers with unified MPI routines (device pointers
//! straight into `MPI_Send`, `#pragma acc mpi sendbuf(device)` style),
//! and we print where the time went.
//!
//! Run with: `cargo run --release --example quickstart`

use impacc::prelude::*;

fn main() {
    // A single PSG-like node, trimmed to two GPUs.
    let mut spec = impacc::machine::presets::psg();
    spec.nodes[0].devices.truncate(2);

    let summary = Launch::new(spec, RuntimeOptions::impacc())
        .run_async(|tc| async move {
            let peer = 1 - tc.rank();
            let n = 1 << 20; // 1 Mi f64 elements = 8 MiB
            let buf = tc.malloc_f64(n).await;
            let inbox = tc.malloc_f64(n).await;
            tc.acc_create(&buf);
            tc.acc_create(&inbox);

            // Fill our buffer on the device.
            let view = tc.dev_view(&buf);
            let me = tc.rank() as f64;
            tc.acc_kernel(
                Some(1),
                KernelCost::new(n as f64, n as f64 * 8.0),
                move || {
                    let vals: Vec<f64> = (0..n).map(|i| me * 1000.0 + i as f64).collect();
                    view.write_f64s(0, &vals);
                },
            )
            .await;

            // Exchange device buffers — no explicit staging, no waits:
            // the unified activity queue keeps everything in order.
            tc.mpi_send(&buf, 0, buf.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.mpi_recv(&inbox, 0, inbox.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.acc_wait(1).await;

            // The peer's data is now in our device memory.
            let got = tc.dev_view(&inbox).read_f64s(0, 2);
            assert_eq!(got, vec![peer as f64 * 1000.0, peer as f64 * 1000.0 + 1.0]);
            if tc.rank() == 0 {
                println!(
                    "rank 0 received [{}, {}] from rank 1 (direct device-to-device)",
                    got[0], got[1]
                );
            }
        })
        .expect("simulation runs to completion");

    println!(
        "\nvirtual wall clock: {:.3} ms",
        summary.elapsed_secs() * 1e3
    );
    println!(
        "bytes moved device-to-device: {} MiB (no host staging: {} HtoH bytes)",
        summary.report.metrics.get("DtoD").unwrap_or(&0) >> 20,
        summary.report.metrics.get("HtoH").unwrap_or(&0),
    );
    for t in &summary.tasks {
        println!(
            "task {} -> node {} device {} ({:?}), pinned on socket {}",
            t.rank, t.node, t.dev_idx, t.kind, t.socket
        );
    }
}
