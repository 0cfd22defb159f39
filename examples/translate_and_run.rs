//! End-to-end compiler story: take the paper's Figure 4(c) source listing,
//! run it through the directive front end (parse → validate → lower), and
//! *execute* the lowered plan on the IMPACC runtime.
//!
//! Run with: `cargo run --release --example translate_and_run`

use impacc::directives::{translate, RuntimeCall};
use impacc::obs::{EventKind, Recorder};
use impacc::prelude::*;

/// The paper's Figure 4(c), verbatim modulo variable spelling.
const FIGURE_4C: &str = r#"
/* IMPACC Unified Activity Queue */
#pragma acc kernels loop async(1)
for (i = 0; i < n; i++) { buf0[i] = f(i); }
#pragma acc mpi sendbuf(device) async(1)
MPI_Isend(buf0, n, MPI_DOUBLE, peer, 0, MPI_COMM_WORLD, &req[0]);
#pragma acc mpi recvbuf(device) async(1)
MPI_Irecv(buf1, n, MPI_DOUBLE, peer, 0, MPI_COMM_WORLD, &req[1]);
#pragma acc kernels loop async(1)
for (i = 0; i < n; i++) { g(buf1[i]); }
"#;

fn main() {
    let lowering = translate(FIGURE_4C);
    assert!(lowering.issues.is_empty(), "{:?}", lowering.issues);
    println!("lowered plan for Figure 4(c):");
    for (line, call) in &lowering.calls {
        println!("  line {line:>2}: {call:?}");
    }

    // Execute the plan on two GPUs of a PSG node. The interpreter below is
    // a miniature of what the compiler's generated host code does.
    let mut spec = impacc::machine::presets::psg();
    spec.nodes[0].devices.truncate(2);
    let plan: Vec<RuntimeCall> = lowering.calls.iter().map(|(_, c)| c.clone()).collect();

    let rec = Recorder::new();
    let summary = Launch::new(spec, RuntimeOptions::impacc())
        .recorder(&rec)
        .run_async(move |tc| {
            let plan = plan.clone();
            async move {
                let n = 4096usize;
                let peer = 1 - tc.rank();
                let me = tc.rank() as f64;
                let buf0 = tc.malloc_f64(n).await;
                let buf1 = tc.malloc_f64(n).await;
                tc.acc_create(&buf0);
                tc.acc_create(&buf1);

                let mut kernel_no = 0;
                for call in &plan {
                    match call {
                        RuntimeCall::KernelLaunch { queue, .. } => {
                            kernel_no += 1;
                            let cost = KernelCost::new(2.0 * n as f64, 16.0 * n as f64);
                            if kernel_no == 1 {
                                // "buf0[i] = f(i)"
                                let d = tc.dev_view(&buf0);
                                tc.acc_kernel(*queue, cost, move || {
                                    let vals: Vec<f64> =
                                        (0..n).map(|i| me * 10_000.0 + i as f64).collect();
                                    d.write_f64s(0, &vals);
                                })
                                .await;
                            } else {
                                // "g(buf1[i])" — checks what arrived.
                                let d = tc.dev_view(&buf1);
                                let expect = peer as f64 * 10_000.0;
                                tc.acc_kernel(*queue, cost, move || {
                                    assert_eq!(d.read_f64s(0, 1)[0], expect);
                                })
                                .await;
                            }
                        }
                        RuntimeCall::UnifiedMpi {
                            call,
                            send_opts,
                            recv_opts,
                        } => match call.as_str() {
                            "MPI_Isend" => {
                                tc.mpi_send(&buf0, 0, buf0.len, peer, 0, *send_opts).await
                            }
                            "MPI_Irecv" => {
                                tc.mpi_recv(&buf1, 0, buf1.len, peer, 0, *recv_opts).await;
                            }
                            other => panic!("plan contains unexpected call {other}"),
                        },
                        RuntimeCall::Wait { queues } => {
                            for q in queues {
                                tc.acc_wait(*q).await;
                            }
                        }
                        other => panic!("Figure 4(c) should not lower {other:?}"),
                    }
                }
                tc.acc_wait(1).await;
            }
        })
        .expect("the lowered program runs");

    println!("\nexecution profile:\n{}", summary.profile());
    println!("runtime trace (fusions observed by the message handlers):");
    for s in rec.spans().iter().filter(|s| s.kind == EventKind::Fuse) {
        let attr = |key| s.attr(key).unwrap_or("?");
        println!(
            "  {} {} {} -> {} tag {} ({} B, {})",
            s.t0,
            s.actor,
            attr("src"),
            attr("dst"),
            attr("tag"),
            attr("bytes"),
            attr("path")
        );
    }
}
