//! The in-place data plane is a wall-clock optimization only: kernels and
//! reduction folds that borrow `Backing` bytes instead of copying them out
//! and back must leave every virtual-time observable where the copying
//! kernels put it. The parity suites only hold the three Jacobis, the
//! array scenarios and the six collective algorithms to *each other*; these
//! tests hold them to constants captured before the conversion, so a bug
//! that moves all of them together still shows.
//!
//! Each pin is `end_time / dispatch count / hash(stripped metrics) /
//! hash(value bits)`: the residual history for the solvers, the reduced
//! vector for the collectives. A pin holds for every worker count; 1 and 4
//! are run.

use std::sync::Arc;

use impacc_apps::{jacobi_task_probed, JacobiParams};
use impacc_array::scenarios::{redblack_task, stencil3d_task, RedBlackParams, Stencil3dParams};
use impacc_array::ResProbe;
use impacc_core::{CollAlgo, Launch, RunSummary, RuntimeOptions};
use impacc_dsl::{compile, example, run_program};
use impacc_machine::presets;
use impacc_mpi::ReduceOp;
use parking_lot::Mutex;

const DEGREES: [usize; 2] = [1, 4];

fn modes() -> [(&'static str, RuntimeOptions); 3] {
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    [
        ("unified", RuntimeOptions::impacc()),
        ("split", split),
        ("baseline", RuntimeOptions::baseline()),
    ]
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `end_time/events/metrics hash/value-bits hash`, the array layer's own
/// counters stripped as in the parity suites.
fn pin(s: &RunSummary, vals: &[f64]) -> String {
    let metrics: String = s
        .report
        .metrics
        .iter()
        .filter(|(k, _)| !k.starts_with("array_"))
        .map(|(k, v)| format!("{k}={v};"))
        .collect();
    format!(
        "{:?}/{}/{:016x}/{:016x}",
        s.report.end_time,
        s.report.events,
        fnv(metrics.bytes()),
        fnv(vals.iter().flat_map(|v| v.to_bits().to_le_bytes()))
    )
}

/// Run `case` at every parallelism degree and hold it to its pin.
fn check(name: &str, want: &str, case: impl Fn(usize) -> String) {
    for degree in DEGREES {
        let got = case(degree);
        println!("PIN {name} p={degree} {got}");
        assert_eq!(got, want, "{name} @ parallelism {degree}");
    }
}

#[test]
fn handwritten_jacobi_is_pinned_in_all_modes() {
    let want = [
        "t=459.244us/1539/9231ede82c667fd9/ae853b00d19d8c63",
        "t=402.844us/1411/186db4923b29a540/ae853b00d19d8c63",
        "t=754.381us/2126/f6aeafad8f42e8bb/ae853b00d19d8c63",
    ];
    for ((mode, opts), want) in modes().into_iter().zip(want) {
        check(&format!("jacobi/{mode}"), want, |degree| {
            // The degree is pinned through the typed builder (immune to
            // ambient IMPACC_PARALLEL).
            let probe = ResProbe::new();
            let inner = probe.clone();
            let p = JacobiParams {
                n: 64,
                iters: 8,
                verify: true,
            };
            let s = Launch::new(presets::psg(), opts)
                .parallelism(degree)
                .run_async(move |tc| {
                    let inner = inner.clone();
                    let p = p.clone();
                    async move { jacobi_task_probed(&tc, &p, Some(&inner)).await }
                })
                .expect("jacobi run");
            pin(&s, &probe.take())
        });
    }
}

#[test]
fn array_scenarios_are_pinned() {
    check(
        "redblack",
        "t=626.616us/842/7707e2a962b3e90f/c7a58ee372e7544e",
        |degree| {
            let probe = ResProbe::new();
            let inner = probe.clone();
            let s = Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
                .parallelism(degree)
                .run_async(move |tc| {
                    let inner = inner.clone();
                    async move {
                        redblack_task(
                            &tc,
                            &RedBlackParams {
                                n: 24,
                                iters: 5,
                                verify: true,
                            },
                            Some(&inner),
                        )
                        .await
                    }
                })
                .expect("redblack run");
            pin(&s, &probe.take())
        },
    );
    check(
        "stencil3d",
        "t=658.016us/1213/37f8d6af35cb2c09/e19a2af5b7195675",
        |degree| {
            let probe = ResProbe::new();
            let inner = probe.clone();
            let s = Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
                .parallelism(degree)
                .run_async(move |tc| {
                    let inner = inner.clone();
                    async move {
                        stencil3d_task(
                            &tc,
                            &Stencil3dParams {
                                n: 12,
                                iters: 4,
                                verify: true,
                            },
                            Some(&inner),
                        )
                        .await
                    }
                })
                .expect("stencil3d run");
            pin(&s, &probe.take())
        },
    );
}

#[test]
fn compiled_examples_are_pinned() {
    for (prog, want) in [
        (
            "jacobi",
            "t=279.847us/424/4e51c4c4ae9b1888/6b799a57e85d1fa4",
        ),
        ("dot", "t=45.917us/116/14f8eb7eaa41d208/153fa7378fe034b2"),
    ] {
        let c = Arc::new(compile(example(prog).expect("shipped example")).expect("compiles"));
        check(&format!("dsl/{prog}"), want, |degree| {
            let probe = ResProbe::new();
            let inner = probe.clone();
            let c = c.clone();
            let scalars = Arc::new(Mutex::new(Vec::new()));
            let out = scalars.clone();
            let s = Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
                .parallelism(degree)
                .run_async(move |tc| {
                    let c = c.clone();
                    let inner = inner.clone();
                    let out = out.clone();
                    async move {
                        let r = run_program(&tc, &c, Some(&inner), false).await;
                        if tc.rank() == 0 {
                            *out.lock() = r.scalars.values().copied().collect();
                        }
                    }
                })
                .expect("dsl run");
            let mut vals = probe.take();
            vals.extend(scalars.lock().iter());
            pin(&s, &vals)
        });
    }
}

/// One allreduce of `elems` f64s under `algo`, through the `&[f64]`
/// convenience: staged into scratch, folded in place there.
fn allreduce_pin(algo: CollAlgo, elems: usize, degree: usize) -> String {
    let result = Arc::new(Mutex::new(Vec::new()));
    let out = result.clone();
    // 2 nodes x 4 ranks: every algorithm crosses the wire and the
    // hierarchical one has a real intra-node phase.
    let s = Launch::new(presets::test_cluster(2, 4), RuntimeOptions::impacc())
        .parallelism(degree)
        .coll_algo(algo)
        .run_async(move |tc| {
            let out = out.clone();
            async move {
                let mine: Vec<f64> = (0..elems)
                    .map(|i| ((tc.rank() as usize * 13 + i * 7) % 97) as f64 - 40.0)
                    .collect();
                let sum = tc.mpi_allreduce_f64(&mine, ReduceOp::Sum).await;
                if tc.rank() == 5 {
                    *out.lock() = sum;
                }
            }
        })
        .expect("allreduce run");
    let vals = result.lock().clone();
    assert_eq!(vals.len(), elems);
    pin(&s, &vals)
}

#[test]
fn every_allreduce_algorithm_is_pinned() {
    const ALGOS: [CollAlgo; 6] = [
        CollAlgo::Flat,
        CollAlgo::Binomial,
        CollAlgo::Ring,
        CollAlgo::RecursiveDoubling,
        CollAlgo::Rabenseifner,
        CollAlgo::Hier,
    ];
    // Per payload size, `ALGOS` order. 4096 elems predate the in-place
    // fold; 131072 (1 MiB: every buffer is `mmap`-sized) and 4099 (odd:
    // uneven ring chunks and halving splits) were captured on its parent.
    let want: [(usize, [&str; 6]); 3] = [
        (
            4096,
            [
                "t=33.998us/136/5bf6ab1ed4b1e4cd/2e40ee556545b3cc",
                "t=33.998us/136/bb220e187c8c3273/2e40ee556545b3cc",
                "t=52.397us/856/392fe1395b76c5c5/2e40ee556545b3cc",
                "t=47.105us/182/3c0252defedf3b75/2e40ee556545b3cc",
                "t=48.166us/366/1abf32159a9ce918/2e40ee556545b3cc",
                "t=26.360us/50/44140b23f64db89c/2e40ee556545b3cc",
            ],
        ),
        (
            131072,
            [
                "t=765.551us/136/bc1d635b7cab6cb1/4f0af99840349093",
                "t=765.551us/136/1813a3fca5f25fbf/4f0af99840349093",
                "t=395.206us/928/7c7c3931123d62ae/4f0af99840349093",
                "t=1.256ms/182/5173610eb9418402/4f0af99840349093",
                "t=1.009ms/364/7d9a63098fad0f9a/4f0af99840349093",
                "t=707.122us/50/d1c03c155429830a/4f0af99840349093",
            ],
        ),
        (
            4099,
            [
                "t=34.016us/136/a87bf3cf8a126245/9c56a2f6e1c81597",
                "t=34.016us/136/f5d874cef46ed77f/9c56a2f6e1c81597",
                "t=52.403us/853/1ea001b4f6c9ed23/9c56a2f6e1c81597",
                "t=47.134us/182/a25463788a0d7ecc/9c56a2f6e1c81597",
                "t=48.193us/366/0d4f1e1a70430146/9c56a2f6e1c81597",
                "t=26.376us/50/bd50dd8d681e8419/9c56a2f6e1c81597",
            ],
        ),
    ];
    for (elems, want) in want {
        for (algo, want) in ALGOS.into_iter().zip(want) {
            check(&format!("allreduce/{algo:?}/{elems}"), want, |degree| {
                allreduce_pin(algo, elems, degree)
            });
        }
    }
}
