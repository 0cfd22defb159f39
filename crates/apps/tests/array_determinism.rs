//! Array-layer acceptance tests.
//!
//! 1. **Hand-written parity** — jacobi re-expressed on the array API
//!    must be indistinguishable from the hand-written app in all three
//!    runtime modes: bit-identical residual history, identical engine
//!    metrics (modulo the array layer's own `array_*` counters), and
//!    the same virtual end time. The array layer charges for exactly
//!    the traffic and compute the hand-written code issues — no hidden
//!    packing, no extra synchronization.
//! 2. **Parallel determinism** — the array jacobi is bit-identical
//!    (report, spans, PROF json) across conservative-engine
//!    parallelism degrees 1/2/8.
//! 3. **Chaos** — the 3-d stencil under a fixed-seed fault plan
//!    recovers bit-identically (its built-in serial-replay verification
//!    runs inside the faulted launch) and reruns reproduce the same
//!    observables exactly.
//! 4. **Scenario sweeps** — every new scenario verifies against its
//!    serial replay across task counts, runtime modes and halo depths,
//!    and `map`/`reduce`/`gather` round-trip exactly, block-cyclic
//!    layout included.

use std::collections::BTreeMap;

use impacc_apps::{jacobi_task_probed, launch_app, run_jacobi, JacobiParams};
use impacc_array::scenarios::{
    jacobi_array_task, redblack_task, stencil2d_task, stencil3d_task, ArrayJacobiParams,
    RedBlackParams, Stencil2dParams, Stencil3dParams,
};
use impacc_array::{ArraySpec, CartGrid, DistArray, Layout, ResProbe};
use impacc_chaos::{FaultPlan, FaultSite};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::presets;
use impacc_mpi::ReduceOp;
use impacc_obs::Recorder;

fn modes() -> Vec<(&'static str, RuntimeOptions)> {
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    vec![
        ("impacc-unified", RuntimeOptions::impacc()),
        ("impacc-split", split),
        ("baseline", RuntimeOptions::baseline()),
    ]
}

/// Engine metrics with the array layer's own counters removed — the
/// hand-written app has no analogue for those, and everything else must
/// match exactly.
fn stripped(s: &RunSummary) -> BTreeMap<&'static str, u64> {
    s.report
        .metrics
        .iter()
        .filter(|(k, _)| !k.starts_with("array_"))
        .map(|(k, v)| (*k, *v))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Jacobi on the array API vs the hand-written app: same machine, same
/// mode, same parameters — same residual bits, same metrics, same
/// virtual end time. Runs with verification on, so both sides also do
/// their full gather + serial-reference comparison inside the launch.
#[test]
fn array_jacobi_matches_handwritten_in_all_modes() {
    for (name, opts) in modes() {
        let hand_probe = ResProbe::new();
        let probe_in = hand_probe.clone();
        let params = JacobiParams {
            n: 24,
            iters: 6,
            verify: true,
        };
        let hand = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            let params = params.clone();
            let probe_in = probe_in.clone();
            async move { jacobi_task_probed(&tc, &params, Some(&probe_in)).await }
        })
        .expect("hand-written jacobi");

        let arr_probe = ResProbe::new();
        let probe_in = arr_probe.clone();
        let arr = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            let probe_in = probe_in.clone();
            async move {
                jacobi_array_task(
                    &tc,
                    &ArrayJacobiParams {
                        n: 24,
                        iters: 6,
                        verify: true,
                    },
                    Some(&probe_in),
                )
                .await
            }
        })
        .expect("array jacobi");

        let h = hand_probe.take();
        let a = arr_probe.take();
        assert!(!h.is_empty(), "{name}: probe captured no residuals");
        assert_eq!(bits(&h), bits(&a), "{name}: residual history bits");
        assert_eq!(stripped(&hand), stripped(&arr), "{name}: engine metrics");
        assert_eq!(
            hand.report.end_time, arr.report.end_time,
            "{name}: virtual end time"
        );
        assert_eq!(
            hand.report.events, arr.report.events,
            "{name}: dispatch count"
        );
    }
}

/// Same parity under physical truncation: math is skipped, timing and
/// traffic are charged identically.
#[test]
fn array_jacobi_matches_handwritten_under_phys_cap() {
    let hand = run_jacobi(
        presets::test_cluster(2, 2),
        RuntimeOptions::impacc(),
        Some(4096),
        JacobiParams {
            n: 256,
            iters: 4,
            verify: false,
        },
    )
    .expect("hand-written jacobi (capped)");
    let arr = launch_app(
        presets::test_cluster(2, 2),
        RuntimeOptions::impacc(),
        Some(4096),
        move |tc| async move {
            jacobi_array_task(
                &tc,
                &ArrayJacobiParams {
                    n: 256,
                    iters: 4,
                    verify: false,
                },
                None,
            )
            .await
        },
    )
    .expect("array jacobi (capped)");
    assert_eq!(stripped(&hand), stripped(&arr), "capped metrics");
    assert_eq!(hand.report.end_time, arr.report.end_time, "capped end time");
}

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

/// Array jacobi on a 4-node cluster is bit-identical across
/// conservative-engine parallelism degrees, pinned through the typed
/// `Launch::parallelism` builder (immune to ambient `IMPACC_PARALLEL`).
#[test]
fn array_jacobi_is_bit_identical_across_parallelism() {
    let run = |degree: usize| -> Observed {
        let rec = Recorder::new();
        let s = Launch::new(presets::test_cluster(4, 2), RuntimeOptions::impacc())
            .parallelism(degree)
            .recorder(&rec)
            .run_async(move |tc| async move {
                jacobi_array_task(
                    &tc,
                    &ArrayJacobiParams {
                        n: 64,
                        iters: 6,
                        verify: false,
                    },
                    None,
                )
                .await
            })
            .expect("array jacobi run");
        observe(s, &rec, "array_jacobi")
    };
    let base = run(1);
    assert!(
        base.summary.report.parallel_advances > 0,
        "a 4-node array jacobi should overlap partitions in at least one window"
    );
    assert!(
        base.spans
            .iter()
            .any(|sp| sp.attr("label") == Some("array.halo")),
        "halo exchanges must reach the recorded trace"
    );
    for d in [2usize, 8] {
        assert_bit_identical(&base, &run(d), d);
    }
}

/// 3-d stencil under a fixed-seed fault plan: link drops and copy
/// faults fire, the run still verifies bit-exactly against its serial
/// replay (recovery is lossless), and a rerun with the same seed
/// reproduces every observable.
#[test]
fn stencil3d_chaos_fixed_seed_is_repeatable() {
    let run = || -> Observed {
        let rec = Recorder::new();
        let plan = FaultPlan::new(0x5EED_A88A)
            .with_rate(FaultSite::LinkDrop, 0.2)
            .with_rate(FaultSite::CopyFault, 0.1);
        let s = Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
            .chaos(plan)
            .recorder(&rec)
            .run_async(move |tc| async move {
                stencil3d_task(
                    &tc,
                    &Stencil3dParams {
                        n: 8,
                        iters: 4,
                        verify: true,
                    },
                    None,
                )
                .await
            })
            .expect("faulted stencil3d");
        observe(s, &rec, "stencil3d_chaos")
    };
    let first = run();
    let retries = first
        .summary
        .report
        .metrics
        .get("retries")
        .copied()
        .unwrap_or(0);
    assert!(retries > 0, "seeded 20% link-drop plan must cause retries");
    let again = run();
    assert_bit_identical(&first, &again, 1);
}

/// Every scenario verifies against its serial replay — across task
/// counts, runtime modes, and (for the variable-depth stencil) halo
/// radii. The verification itself is inside each task: a failure
/// panics the launch.
#[test]
fn stencil2d_verifies_across_halo_depths_tasks_and_modes() {
    for halo in 1usize..=3 {
        for tasks in [1usize, 2, 4] {
            for (name, opts) in modes() {
                let p = Stencil2dParams {
                    n: 16,
                    iters: 4,
                    halo,
                    verify: true,
                };
                launch_app(presets::test_cluster(1, tasks), opts, None, move |tc| {
                    let p = p.clone();
                    async move { stencil2d_task(&tc, &p, None).await }
                })
                .unwrap_or_else(|e| panic!("stencil2d h={halo} t={tasks} {name}: {e:?}"));
            }
        }
    }
}

#[test]
fn stencil3d_verifies_across_tasks() {
    // tasks=4 puts a 2x2 grid on dims 0/1, so dim-1 halos exercise the
    // strided multi-run lowering.
    for tasks in [1usize, 2, 4] {
        for (name, opts) in modes() {
            let p = Stencil3dParams {
                n: 10,
                iters: 3,
                verify: true,
            };
            launch_app(presets::test_cluster(1, tasks), opts, None, move |tc| {
                let p = p.clone();
                async move { stencil3d_task(&tc, &p, None).await }
            })
            .unwrap_or_else(|e| panic!("stencil3d t={tasks} {name}: {e:?}"));
        }
    }
}

#[test]
fn redblack_verifies_across_tasks() {
    for tasks in [1usize, 2, 3] {
        for (name, opts) in modes() {
            let p = RedBlackParams {
                n: 15,
                iters: 4,
                verify: true,
            };
            launch_app(presets::test_cluster(1, tasks), opts, None, move |tc| {
                let p = p.clone();
                async move { redblack_task(&tc, &p, None).await }
            })
            .unwrap_or_else(|e| panic!("redblack t={tasks} {name}: {e:?}"));
        }
    }
}

/// `map`/`reduce`/`gather` round-trip with exact integer arithmetic, on
/// both layouts. Block-cyclic gathers take the strided staging path.
#[test]
fn map_reduce_gather_are_exact_on_both_layouts() {
    let shape = vec![9usize, 7];
    // Integer-valued cells keep every fold order exact.
    let cell = |g: &[isize]| (g[0] * 7 + g[1]) as f64;
    let expect_sum: f64 = {
        let mut s = 0.0;
        for i in 0..9isize {
            for j in 0..7isize {
                s += 2.0 * cell(&[i, j]);
            }
        }
        s
    };
    let mut layouts = vec![(
        ArraySpec::block(shape.clone(), CartGrid::line(2), 1),
        "block",
    )];
    let mut cyc = ArraySpec::block(shape.clone(), CartGrid::line(2), 0);
    cyc.layout = Layout::BlockCyclic { block: 2 };
    layouts.push((cyc, "cyclic"));

    for (spec, tag) in layouts {
        let spec_in = spec.clone();
        launch_app(
            presets::test_cluster(1, 2),
            RuntimeOptions::impacc(),
            None,
            move |tc| {
                let spec_in = spec_in.clone();
                async move {
                    let u = DistArray::build(&tc, &spec_in).await;
                    u.fill(&tc, cell);
                    u.to_device(&tc).await;
                    u.map(&tc, 1.0, |_g, old| 2.0 * old).await;
                    let got = u.reduce(&tc, ReduceOp::Sum, 1.0, |_g, v| v).await;
                    assert_eq!(got.to_bits(), expect_sum.to_bits(), "reduce sum");
                    if let Some(full) = u.gather(&tc, 0).await {
                        for i in 0..9isize {
                            for j in 0..7isize {
                                let got = full[(i * 7 + j) as usize];
                                let want = 2.0 * cell(&[i, j]);
                                assert_eq!(got.to_bits(), want.to_bits(), "gather[{i},{j}]");
                            }
                        }
                    }
                }
            },
        )
        .unwrap_or_else(|e| panic!("map/reduce {tag}: {e:?}"));
    }
}
