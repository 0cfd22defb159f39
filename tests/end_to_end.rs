//! Cross-crate integration tests through the public facade: whole
//! applications, both runtimes, several machines.

use impacc::apps::{
    run_dgemm, run_ep, run_jacobi, run_lulesh, DgemmParams, EpParams, JacobiParams, LuleshParams,
};
use impacc::prelude::*;

#[test]
fn all_four_apps_verify_on_all_three_systems_impacc() {
    // Small instances with full physical backing: results checked inside
    // the apps (DGEMM & Jacobi against serial references, LULESH halos
    // against expected payloads, EP against its own invariants).
    let mut psg = impacc::machine::presets::psg();
    psg.nodes[0].devices.truncate(4);
    let beacon = impacc::machine::presets::beacon(2); // 8 tasks
    let titan = impacc::machine::presets::titan(8);

    for spec in [psg, beacon, titan] {
        run_dgemm(
            spec.clone(),
            RuntimeOptions::impacc(),
            None,
            DgemmParams {
                n: 24,
                verify: true,
            },
        )
        .unwrap();
        run_jacobi(
            spec.clone(),
            RuntimeOptions::impacc(),
            None,
            JacobiParams {
                n: 16,
                iters: 5,
                verify: true,
            },
        )
        .unwrap();
        run_ep(
            spec.clone(),
            RuntimeOptions::impacc(),
            EpParams {
                total_pairs: 1 << 20,
                sample_pairs: 1 << 10,
            },
        )
        .unwrap();
        let cube = impacc::machine::presets::titan(8); // 8 = 2^3 tasks
        run_lulesh(
            cube,
            RuntimeOptions::impacc(),
            None,
            LuleshParams {
                s: 3,
                iters: 2,
                verify: true,
            },
        )
        .unwrap();
        drop(spec);
    }
}

#[test]
fn all_four_apps_verify_under_the_baseline() {
    let mut psg = impacc::machine::presets::psg();
    psg.nodes[0].devices.truncate(4);
    run_dgemm(
        psg.clone(),
        RuntimeOptions::baseline(),
        None,
        DgemmParams {
            n: 20,
            verify: true,
        },
    )
    .unwrap();
    run_jacobi(
        psg.clone(),
        RuntimeOptions::baseline(),
        None,
        JacobiParams {
            n: 12,
            iters: 4,
            verify: true,
        },
    )
    .unwrap();
    run_ep(
        psg,
        RuntimeOptions::baseline(),
        EpParams {
            total_pairs: 1 << 20,
            sample_pairs: 1 << 10,
        },
    )
    .unwrap();
    run_lulesh(
        impacc::machine::presets::titan(8),
        RuntimeOptions::baseline(),
        None,
        LuleshParams {
            s: 3,
            iters: 2,
            verify: true,
        },
    )
    .unwrap();
}

#[test]
fn simulations_are_deterministic() {
    // Identical runs produce identical virtual end times, metrics and
    // event counts — the foundation every experiment rests on.
    let run = || {
        run_dgemm(
            impacc::machine::presets::psg(),
            RuntimeOptions::impacc(),
            Some(4096),
            DgemmParams {
                n: 256,
                verify: false,
            },
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report.end_time, b.report.end_time);
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.report.metrics, b.report.metrics);

    let run = || {
        run_lulesh(
            impacc::machine::presets::titan(27),
            RuntimeOptions::impacc(),
            Some(4096),
            LuleshParams {
                s: 8,
                iters: 3,
                verify: false,
            },
        )
        .unwrap()
    };
    assert_eq!(run().report.end_time, run().report.end_time);
}

#[test]
fn headline_claims_hold_end_to_end() {
    // The paper's abstract: "higher performance and better scalability
    // than the current MPI+OpenACC model" — spot-check one representative
    // configuration per claim through the public API.

    // Higher intra-node communication performance (Figure 9 family):
    let spec = impacc::machine::presets::psg();
    let p = JacobiParams {
        n: 1024,
        iters: 8,
        verify: false,
    };
    let i = run_jacobi(
        spec.clone(),
        RuntimeOptions::impacc(),
        Some(4096),
        p.clone(),
    )
    .unwrap();
    let b = run_jacobi(spec, RuntimeOptions::baseline(), Some(4096), p).unwrap();
    assert!(i.elapsed_secs() < b.elapsed_secs());

    // Better strong scaling on communication-bound DGEMM (Figure 10):
    let d1 = run_dgemm(
        impacc::machine::presets::psg(),
        RuntimeOptions::baseline(),
        Some(4096),
        DgemmParams {
            n: 512,
            verify: false,
        },
    )
    .unwrap();
    let speedup = |s: &RunSummary| d1.elapsed_secs() / s.elapsed_secs();
    let i8 = run_dgemm(
        impacc::machine::presets::psg(),
        RuntimeOptions::impacc(),
        Some(4096),
        DgemmParams {
            n: 512,
            verify: false,
        },
    )
    .unwrap();
    assert!(speedup(&i8) > 1.0, "IMPACC 8-task beats baseline 1-task");

    // Parity where there is nothing to optimize (EP, Figure 12):
    let p = EpParams {
        total_pairs: 1 << 28,
        sample_pairs: 1 << 10,
    };
    let ei = run_ep(
        impacc::machine::presets::psg(),
        RuntimeOptions::impacc(),
        p.clone(),
    )
    .unwrap();
    let eb = run_ep(
        impacc::machine::presets::psg(),
        RuntimeOptions::baseline(),
        p,
    )
    .unwrap();
    let ratio = eb.elapsed_secs() / ei.elapsed_secs();
    assert!((0.9..1.15).contains(&ratio), "EP parity: {ratio}");
}

#[test]
fn mixed_cluster_runs_every_figure2_mask() {
    let spec = impacc::machine::presets::mixed_demo();
    for (mask, expect_tasks) in [
        (DeviceTypeMask::DEFAULT, 5),
        (DeviceTypeMask::NVIDIA, 3),
        (DeviceTypeMask::CPU, 3),
        (DeviceTypeMask::XEONPHI, 1),
        (DeviceTypeMask::NVIDIA.or(DeviceTypeMask::XEONPHI), 4),
    ] {
        let s = Launch::new(spec.clone(), RuntimeOptions::impacc())
            .device_mask(mask)
            .run_async(|tc| async move {
                let total = tc.mpi_allreduce_f64(&[1.0], ReduceOp::Sum).await;
                assert_eq!(total[0] as u32, tc.size());
            })
            .unwrap();
        assert_eq!(s.tasks.len(), expect_tasks, "{mask:?}");
    }
}

#[test]
fn serialized_mpi_library_still_works() {
    // §3.7: without MPI_THREAD_MULTIPLE the runtime serializes internode
    // calls per node; results are unchanged, time increases.
    let mut spec = impacc::machine::presets::beacon(2);
    let p = JacobiParams {
        n: 64,
        iters: 5,
        verify: true,
    };
    run_jacobi(spec.clone(), RuntimeOptions::impacc(), None, p.clone()).unwrap();
    spec.mpi_threading = impacc::machine::MpiThreading::Serialized;
    run_jacobi(spec, RuntimeOptions::impacc(), None, p).unwrap();
}

#[test]
fn fusion_ablated_impacc_still_correct() {
    let mut opts = RuntimeOptions::impacc();
    opts.fusion = false;
    run_dgemm(
        impacc::machine::presets::psg(),
        opts,
        None,
        DgemmParams {
            n: 24,
            verify: true,
        },
    )
    .unwrap();
}

#[test]
fn directive_options_drive_the_runtime() {
    // Parse the paper's Figure 4(c) directive and use the resulting
    // options in a real exchange — the compiler-to-runtime handshake.
    let d =
        impacc::directives::parse_directive("#pragma acc mpi sendbuf(device) async(1)").unwrap();
    let send_opts = d.send_opts();
    let d2 =
        impacc::directives::parse_directive("#pragma acc mpi recvbuf(device) async(1)").unwrap();
    let recv_opts = d2.recv_opts();
    let mut spec = impacc::machine::presets::psg();
    spec.nodes[0].devices.truncate(2);
    Launch::new(spec, RuntimeOptions::impacc())
        .run_async(move |tc| async move {
            let peer = 1 - tc.rank();
            let buf = tc.malloc_f64(128).await;
            let inbox = tc.malloc_f64(128).await;
            tc.acc_create(&buf);
            tc.acc_create(&inbox);
            tc.dev_view(&buf).write_f64s(0, &[tc.rank() as f64; 128]);
            tc.mpi_send(&buf, 0, buf.len, peer, 0, send_opts).await;
            tc.mpi_recv(&inbox, 0, inbox.len, peer, 0, recv_opts).await;
            tc.acc_wait(1).await;
            assert_eq!(tc.dev_view(&inbox).read_f64s(0, 1), vec![peer as f64]);
        })
        .unwrap();
}
