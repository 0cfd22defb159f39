//! The compiler's acceptance bar: a DSL program lowered to the same
//! operations as a hand-written app is indistinguishable from it in the
//! simulator — bit-identical residual history, byte-identical engine
//! metrics (the array layer's own counters stripped), the same virtual
//! end time and the same dispatch count — in all three runtime modes
//! and across conservative-engine parallelism degrees.

use std::collections::BTreeMap;
use std::sync::Arc;

use impacc_apps::{jacobi_task_probed, launch_app, JacobiParams};
use impacc_array::scenarios::{jacobi_array_task, ArrayJacobiParams};
use impacc_array::ResProbe;
use impacc_core::{Launch, RunSummary, RuntimeOptions, TaskCtx};
use impacc_dsl::{compile_with_overrides, example, interpret_serial, run_program, Compiled};
use impacc_machine::presets;
use parking_lot::Mutex;

fn modes() -> Vec<(&'static str, RuntimeOptions)> {
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    vec![
        ("impacc-unified", RuntimeOptions::impacc()),
        ("impacc-split", split),
        ("baseline", RuntimeOptions::baseline()),
    ]
}

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

fn jacobi_compiled(n: usize, iters: usize) -> Arc<Compiled> {
    Arc::new(
        compile_with_overrides(
            example("jacobi").unwrap(),
            &[
                ("n".to_string(), n as f64),
                ("iters".to_string(), iters as f64),
            ],
        )
        .expect("jacobi.acc compiles"),
    )
}

fn launch_dsl(
    spec: impacc_machine::MachineSpec,
    opts: RuntimeOptions,
    parallelism: Option<usize>,
    c: Arc<Compiled>,
    probe: ResProbe,
) -> RunSummary {
    let mut l = Launch::new(spec, opts);
    if let Some(p) = parallelism {
        l = l.parallelism(p);
    }
    l.run(move |tc: &TaskCtx| {
        run_program(tc, &c, Some(&probe), false);
    })
    .expect("dsl run")
}

/// Compiled `jacobi.acc` vs the hand-written MPI+OpenACC jacobi app:
/// bit-and-tick identical in all three runtime modes.
#[test]
fn dsl_jacobi_matches_handwritten_in_all_modes() {
    let c = jacobi_compiled(24, 6);
    for (name, opts) in modes() {
        let hand_probe = ResProbe::new();
        let probe_in = hand_probe.clone();
        let params = JacobiParams {
            n: 24,
            iters: 6,
            verify: false,
        };
        let hand = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            jacobi_task_probed(tc, &params, Some(&probe_in))
        })
        .expect("hand-written jacobi");

        let dsl_probe = ResProbe::new();
        let dsl = launch_dsl(
            presets::test_cluster(2, 2),
            opts,
            None,
            c.clone(),
            dsl_probe.clone(),
        );

        let h = hand_probe.take();
        let d = dsl_probe.take();
        assert!(!h.is_empty(), "{name}: probe captured no residuals");
        assert_eq!(bits(&h), bits(&d), "{name}: residual history bits");
        assert_eq!(stripped(&hand), stripped(&dsl), "{name}: engine metrics");
        assert_eq!(
            hand.report.end_time, dsl.report.end_time,
            "{name}: virtual end time"
        );
        assert_eq!(
            hand.report.events, dsl.report.events,
            "{name}: dispatch count"
        );
    }
}

/// Same bar against the array-API scenario (the layer the DSL lowers
/// through), and bit-identical across `IMPACC_PARALLEL`-style engine
/// parallelism degrees 1 and 4, pinned via the typed builder.
#[test]
fn dsl_jacobi_matches_array_scenario_across_parallelism() {
    let c = jacobi_compiled(32, 5);
    for degree in [1usize, 4] {
        let arr_probe = ResProbe::new();
        let probe_in = arr_probe.clone();
        let arr = Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
            .parallelism(degree)
            .run(move |tc| {
                jacobi_array_task(
                    tc,
                    &ArrayJacobiParams {
                        n: 32,
                        iters: 5,
                        verify: false,
                    },
                    Some(&probe_in),
                )
            })
            .expect("array jacobi");

        let dsl_probe = ResProbe::new();
        let dsl = launch_dsl(
            presets::test_cluster(2, 2),
            RuntimeOptions::impacc(),
            Some(degree),
            c.clone(),
            dsl_probe.clone(),
        );

        assert_eq!(
            bits(&arr_probe.take()),
            bits(&dsl_probe.take()),
            "degree {degree}: residual bits"
        );
        assert_eq!(
            stripped(&arr),
            stripped(&dsl),
            "degree {degree}: engine metrics"
        );
        assert_eq!(
            arr.report.end_time, dsl.report.end_time,
            "degree {degree}: virtual end time"
        );
        assert_eq!(
            arr.report.events, dsl.report.events,
            "degree {degree}: dispatch count"
        );
    }
}

/// The gathered distributed field matches the serial interpreter bit
/// for bit, and the reduced residual history matches on every rank
/// count tried.
#[test]
fn dsl_jacobi_field_matches_serial_oracle() {
    let c = jacobi_compiled(20, 4);
    let serial = interpret_serial(&c).expect("serial replay");
    for ranks in [(1usize, 1usize), (1, 3), (2, 2)] {
        let probe = ResProbe::new();
        let (cc, pp) = (c.clone(), probe.clone());
        let fields: Arc<Mutex<BTreeMap<String, Vec<f64>>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let sink = fields.clone();
        Launch::new(
            presets::test_cluster(ranks.0, ranks.1),
            RuntimeOptions::impacc(),
        )
        .run(move |tc| {
            let out = run_program(tc, &cc, Some(&pp), true);
            if tc.rank() == 0 {
                *sink.lock() = out.fields;
            }
        })
        .expect("dsl run");
        assert_eq!(
            bits(&probe.take()),
            bits(&serial.residuals),
            "{ranks:?}: residuals vs oracle"
        );
        let fields = fields.lock();
        let got = fields.get("u").expect("gathered u");
        assert_eq!(
            bits(got),
            bits(&serial.fields["u"]),
            "{ranks:?}: field u vs oracle"
        );
    }
}

/// The testmpi.cpp-pattern program: comm split by node, device binding
/// by shared-memory rank, reduction(+:sum) → allreduce. The sum is
/// exactly n² on every launch geometry, and the stencil2d example
/// (deep inferred halo + map epilogue) holds to its oracle too.
#[test]
fn dot_and_stencil2d_run_end_to_end() {
    for (nodes, gpus) in [(1usize, 1usize), (1, 4), (2, 3)] {
        let c = Arc::new(
            compile_with_overrides(example("dot").unwrap(), &[("n".to_string(), 1024.0)])
                .expect("dot.acc compiles"),
        );
        let cc = c.clone();
        let sums: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = sums.clone();
        let run = Launch::new(presets::test_cluster(nodes, gpus), RuntimeOptions::impacc())
            .run(move |tc| {
                let out = run_program(tc, &cc, None, false);
                sink.lock().push(out.scalars["sum"]);
            })
            .expect("dot run");
        let sums = sums.lock();
        assert_eq!(sums.len(), nodes * gpus, "one result per rank");
        for s in sums.iter() {
            assert_eq!(*s, 1024.0 * 1024.0, "({nodes},{gpus}): dot sum");
        }
        if nodes > 1 {
            assert!(
                run.report
                    .metrics
                    .get("mpi_bytes_sent")
                    .is_some_and(|&b| b > 0),
                "({nodes},{gpus}): a multi-node reduction must reach the wire"
            );
        }
    }

    let c = Arc::new(compile_with_overrides(example("stencil2d").unwrap(), &[]).unwrap());
    let serial = interpret_serial(&c).expect("stencil2d serial");
    let probe = ResProbe::new();
    let (cc, pp) = (c.clone(), probe.clone());
    let fields: Arc<Mutex<BTreeMap<String, Vec<f64>>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let sink = fields.clone();
    Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
        .run(move |tc| {
            let out = run_program(tc, &cc, Some(&pp), true);
            if tc.rank() == 0 {
                *sink.lock() = out.fields;
            }
        })
        .expect("stencil2d run");
    assert_eq!(
        bits(&probe.take()),
        bits(&serial.residuals),
        "stencil2d residuals vs oracle"
    );
    let fields = fields.lock();
    assert_eq!(
        bits(fields.get("u").expect("gathered u")),
        bits(&serial.fields["u"]),
        "stencil2d field u vs oracle (stencil sweeps + clamp map)"
    );
}

/// JACC-style single-loop device split: the same annotated jacobi,
/// re-launched with one rank per GPU, runs at least 3x faster in virtual
/// time on a node's four devices than on one. Physical truncation skips
/// the arithmetic and leaves every virtual time as it is.
#[test]
fn one_annotated_loop_splits_across_a_nodes_devices() {
    let c = jacobi_compiled(2048, 4);
    let elapsed = |gpus: usize| {
        let cc = c.clone();
        Launch::new(presets::test_cluster(1, gpus), RuntimeOptions::impacc())
            .phys_cap(4096)
            .run(move |tc: &TaskCtx| {
                run_program(tc, &cc, None, false);
            })
            .expect("dsl run")
            .elapsed_secs()
    };
    let (one, four) = (elapsed(1), elapsed(4));
    assert!(
        one / four >= 3.0,
        "device split too weak: 1 GPU {one:.6}s vs 4 GPUs {four:.6}s ({:.2}x < 3.0x)",
        one / four
    );
}
