//! Conservative-engine determinism: the parallel DES scheduler is a
//! wall-clock optimization only. The same workload run under
//! `IMPACC_PARALLEL=1`, `2`, and `8` must produce bit-identical
//! virtual-time observables — end time, event counts, engine metrics,
//! per-actor tag breakdowns, the canonicalized span stream, and the
//! serialized critical-path profile (`PROF_*.json` payload).
//!
//! Both workloads run on multi-node Titan specs so cross-partition MPI
//! traffic (the mailbox + lookahead-clamp machinery) is actually
//! exercised; single-node specs would never leave one partition.

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_bench::specs::titan_tasks;
use impacc_core::{Launch, MpiOpts, RunSummary, RuntimeOptions};
use impacc_machine::{presets, FaultPlan, KernelCost};
use impacc_obs::Recorder;

/// The parallelism degrees the satellite pins: single-worker conservative,
/// a middling count, and more workers than partitions.
const DEGREES: [usize; 3] = [1, 2, 8];

struct Observed {
    summary: RunSummary,
    spans: Vec<impacc_obs::Span>,
    prof_json: String,
}

fn observe(summary: RunSummary, rec: &Recorder, name: &str) -> Observed {
    let spans = rec.spans();
    let prof_json = impacc_prof::analyze(&spans, &rec.edges()).to_json(name);
    Observed {
        summary,
        spans,
        prof_json,
    }
}

fn assert_bit_identical(base: &Observed, other: &Observed, degree: usize) {
    let (a, b) = (&base.summary.report, &other.summary.report);
    assert_eq!(a.end_time, b.end_time, "virtual end time @ p={degree}");
    assert_eq!(a.events, b.events, "dispatch count @ p={degree}");
    assert_eq!(a.metrics, b.metrics, "engine metrics @ p={degree}");
    assert_eq!(a.actors, b.actors, "per-actor tags @ p={degree}");
    assert_eq!(
        a.handoffs_elided, b.handoffs_elided,
        "elision count @ p={degree}"
    );
    assert_eq!(
        a.parallel_advances, b.parallel_advances,
        "parallel advances @ p={degree}"
    );
    assert_eq!(
        a.horizon_stalls, b.horizon_stalls,
        "horizon stalls @ p={degree}"
    );
    assert_eq!(base.spans, other.spans, "span streams @ p={degree}");
    assert_eq!(
        base.prof_json, other.prof_json,
        "PROF json payload @ p={degree}"
    );
}

/// Multi-node Jacobi through the app runner, with the parallelism degree
/// supplied the way users supply it: the `IMPACC_PARALLEL` environment
/// knob (resolved by `Launch` via `impacc_core::config::parallelism`).
/// Two shapes: 4 Titan nodes, and 64 Titan nodes of handler ranks run
/// three times at each degree. Every rank activation still runs on the
/// thread whose release granted it, so this pins the window schedule's
/// independence from the worker count, not cross-worker polling.
#[test]
fn jacobi_is_bit_identical_across_impacc_parallel() {
    let ambient = std::env::var("IMPACC_PARALLEL").ok();
    let run = |spec: &impacc_machine::MachineSpec, n: usize, iters: usize, degree: usize| {
        std::env::set_var("IMPACC_PARALLEL", degree.to_string());
        let rec = Recorder::new();
        let p = JacobiParams {
            n,
            iters,
            verify: false,
        };
        let s = Launch::new(spec.clone(), RuntimeOptions::impacc())
            .phys_cap(4096)
            .recorder(&rec)
            .run_async(move |tc| {
                let p = p.clone();
                async move { jacobi_task(&tc, &p, None).await }
            })
            .expect("jacobi run");
        assert_eq!(s.report.threads_spawned, 0, "ranks are handlers");
        observe(s, &rec, "jacobi")
    };
    let shapes = [
        ("titan4", titan_tasks(4), 256, 8, 1),
        ("titan64", presets::titan(64), 512, 4, 3),
    ];
    let mut observed = Vec::new();
    for (name, spec, n, iters, repeats) in &shapes {
        let base = run(spec, *n, *iters, DEGREES[0]);
        let rest: Vec<(usize, Observed)> = DEGREES
            .iter()
            .flat_map(|&d| std::iter::repeat_n(d, *repeats))
            .skip(1)
            .map(|d| (d, run(spec, *n, *iters, d)))
            .collect();
        observed.push((name, base, rest));
    }
    // Restore whatever the harness had exported (ci runs tier-1 under
    // IMPACC_PARALLEL=4; clobbering it would leak into sibling tests).
    match ambient {
        Some(v) => std::env::set_var("IMPACC_PARALLEL", v),
        None => std::env::remove_var("IMPACC_PARALLEL"),
    }
    for (name, base, rest) in &observed {
        assert!(
            base.summary.report.parallel_advances > 0,
            "a multi-node jacobi ({name}) should overlap partitions in at least one window"
        );
        for (d, other) in rest {
            assert_bit_identical(base, other, *d);
            assert_eq!(
                format!("{:?}", base.summary.report),
                format!("{:?}", other.summary.report),
                "{name} report @ p={d}"
            );
        }
    }
}

/// Cross-node unified-queue exchange pinned through the typed
/// `Launch::parallelism` builder (immune to ambient `IMPACC_PARALLEL`):
/// kernel → device send → device recv over the wire, repeated.
#[test]
fn unified_queue_exchange_is_bit_identical_across_parallelism() {
    const N: usize = 1 << 12;
    let run = |degree: usize| -> Observed {
        let rec = Recorder::new();
        let s = Launch::new(titan_tasks(2), RuntimeOptions::impacc())
            .phys_cap(4096)
            .parallelism(degree)
            .recorder(&rec)
            .run_async(move |tc| async move {
                let peer = 1 - tc.rank();
                let buf0 = tc.malloc_f64(N).await;
                let buf1 = tc.malloc_f64(N).await;
                tc.acc_create(&buf0);
                tc.acc_create(&buf1);
                let cost = KernelCost::new(10.0 * N as f64, 16.0 * N as f64);
                for i in 0..8 {
                    tc.acc_kernel(Some(1), cost, || {}).await;
                    tc.mpi_send(&buf0, 0, buf0.len, peer, i, MpiOpts::device().on_queue(1))
                        .await;
                    tc.mpi_recv(&buf1, 0, buf1.len, peer, i, MpiOpts::device().on_queue(1))
                        .await;
                    tc.acc_wait(1).await;
                }
            })
            .expect("exchange run");
        observe(s, &rec, "exchange")
    };
    let base = run(DEGREES[0]);
    assert!(
        base.summary.report.parallel_advances > 0,
        "a 2-node exchange should overlap partitions in at least one window"
    );
    for &d in &DEGREES[1..] {
        assert_bit_identical(&base, &run(d), d);
    }
}

/// The same Jacobi under a fault plan: every site rolls (links, handler,
/// queues, copies), each actor with its own dice, so the faulted schedule
/// is as worker-count-independent as the clean one.
#[test]
fn faulted_jacobi_is_bit_identical_across_parallelism() {
    let run = |degree: usize| -> Observed {
        let rec = Recorder::new();
        let p = JacobiParams {
            n: 256,
            iters: 8,
            verify: false,
        };
        let s = Launch::new(titan_tasks(4), RuntimeOptions::impacc())
            .phys_cap(4096)
            .chaos(FaultPlan::new(17).with_uniform_rate(0.1))
            .parallelism(degree)
            .recorder(&rec)
            .run_async(move |tc| {
                let p = p.clone();
                async move { jacobi_task(&tc, &p, None).await }
            })
            .expect("faulted jacobi run");
        observe(s, &rec, "jacobi_faulted")
    };
    let base = run(DEGREES[0]);
    let m = &base.summary.report.metrics;
    assert!(m.get("retries").copied().unwrap_or(0) > 0, "faults fired");
    assert!(
        m.get("chaos_link_drop").copied().unwrap_or(0) > 0,
        "and reached the wire"
    );
    for &d in &DEGREES[1..] {
        assert_bit_identical(&base, &run(d), d);
    }
}
