//! The compiler's acceptance bar: a DSL program lowered to the same
//! operations as an app written against the array API is
//! indistinguishable from it in the simulator — bit-identical residual history, byte-identical engine
//! metrics (the array layer's own counters stripped), the same virtual
//! end time and the same dispatch count — in all three runtime modes
//! and across conservative-engine parallelism degrees.

use std::collections::BTreeMap;
use std::sync::Arc;

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_array::ResProbe;
use impacc_core::{Launch, RunSummary, RuntimeOptions};
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

/// One run of `c` on the 2 × 2 cluster, its residual history probed.
fn launch_dsl(opts: RuntimeOptions, parallelism: usize, c: Arc<Compiled>) -> Run {
    let probe = ResProbe::new();
    let inner = probe.clone();
    let s = Launch::new(presets::test_cluster(2, 2), opts)
        .parallelism(parallelism)
        .run_async(move |tc| {
            let (c, inner) = (c.clone(), inner.clone());
            async move {
                run_program(&tc, &c, Some(&inner), false).await;
            }
        })
        .expect("dsl run");
    (s, probe.take())
}

/// One run of the Jacobi the stack runs, [`jacobi_task`], on the 2 × 2
/// cluster, its residual history probed.
fn launch_jacobi(opts: RuntimeOptions, parallelism: usize, n: usize, iters: usize) -> Run {
    let probe = ResProbe::new();
    let inner = probe.clone();
    let p = JacobiParams {
        n,
        iters,
        verify: false,
    };
    let s = Launch::new(presets::test_cluster(2, 2), opts)
        .parallelism(parallelism)
        .run_async(move |tc| {
            let (p, inner) = (p.clone(), inner.clone());
            async move { jacobi_task(&tc, &p, Some(&inner)).await }
        })
        .expect("jacobi run");
    (s, probe.take())
}

/// A run and its probed residual history.
type Run = (RunSummary, Vec<f64>);

/// Bit-and-tick identity: residual bits, stripped metrics, end time and
/// dispatch count.
fn assert_identical((a, ra): &Run, (b, rb): &Run, what: &str) {
    assert!(!ra.is_empty(), "{what}: probe captured no residuals");
    assert_eq!(bits(ra), bits(rb), "{what}: residual history bits");
    assert_eq!(stripped(a), stripped(b), "{what}: engine metrics");
    assert_eq!(
        a.report.end_time, b.report.end_time,
        "{what}: virtual end time"
    );
    assert_eq!(a.report.events, b.report.events, "{what}: dispatch count");
}

/// Compiled `jacobi.acc` vs `jacobi_task`: bit-and-tick identical in all
/// three runtime modes.
#[test]
fn dsl_jacobi_matches_jacobi_task_in_all_modes() {
    let c = jacobi_compiled(24, 6);
    for (name, opts) in modes() {
        let jac = launch_jacobi(opts, 1, 24, 6);
        let dsl = launch_dsl(opts, 1, c.clone());
        assert_identical(&jac, &dsl, name);
    }
}

/// The same bar, bit-identical across `IMPACC_PARALLEL`-style engine
/// parallelism degrees 1 and 4, pinned via the typed builder.
#[test]
fn dsl_jacobi_matches_jacobi_task_across_parallelism() {
    let c = jacobi_compiled(32, 5);
    for degree in [1usize, 4] {
        let opts = RuntimeOptions::impacc();
        let jac = launch_jacobi(opts, degree, 32, 5);
        let dsl = launch_dsl(opts, degree, c.clone());
        assert_identical(&jac, &dsl, &format!("degree {degree}"));
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
        .run_async(move |tc| {
            let cc = cc.clone();
            let pp = pp.clone();
            let sink = sink.clone();
            async move {
                let out = run_program(&tc, &cc, Some(&pp), true).await;
                if tc.rank() == 0 {
                    *sink.lock() = out.fields;
                }
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
            .run_async(move |tc| {
                let cc = cc.clone();
                let sink = sink.clone();
                async move {
                    let out = run_program(&tc, &cc, None, false).await;
                    sink.lock().push(out.scalars["sum"]);
                }
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
        .run_async(move |tc| {
            let cc = cc.clone();
            let pp = pp.clone();
            let sink = sink.clone();
            async move {
                let out = run_program(&tc, &cc, Some(&pp), true).await;
                if tc.rank() == 0 {
                    *sink.lock() = out.fields;
                }
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
            .run_async(move |tc| {
                let cc = cc.clone();
                async move {
                    run_program(&tc, &cc, None, false).await;
                }
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
