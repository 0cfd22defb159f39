//! DSL compiler sweep — what the source-to-source translator inferred
//! and the fidelity of the compiled programs.
//!
//! Three tables. The first lists, per shipped example, what the compiler
//! inferred (plan ops, stencil sites, halo depth); how long a compile
//! takes is the repo benchmark's `dsl.compile_us`. The second reruns the
//! *compiled* jacobi under all three runtime modes — the DSL lowers
//! through the array layer, so the IMPACC-vs-baseline ordering must
//! survive two layers of lowering. The third is the JACC-style claim: one
//! annotated loop, re-launched with one rank per device, splits across a
//! node's GPUs and the virtual time drops accordingly.

use std::sync::Arc;

use impacc_apps::{jacobi_task_probed, launch_app, JacobiParams};
use impacc_array::ResProbe;
use impacc_core::{RunSummary, RuntimeOptions, TaskCtx};
use impacc_dsl::{
    compile, compile_with_overrides, dump_plan, example, run_program, source_hash, Compiled,
    EXAMPLES,
};
use impacc_machine::presets;

use crate::util::{fmt_bytes, quick, Table};

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

/// Launch a compiled program on `nodes`×`gpus` (one rank per GPU).
pub fn run_dsl(
    c: &Arc<Compiled>,
    nodes: usize,
    gpus: usize,
    opts: RuntimeOptions,
    probe: Option<ResProbe>,
) -> RunSummary {
    let cc = c.clone();
    launch_app(
        presets::test_cluster(nodes, gpus),
        opts,
        None,
        move |tc: &TaskCtx| {
            run_program(tc, &cc, probe.as_ref(), false);
        },
    )
    .expect("dsl run")
}

/// Run the translation and fidelity sweep; returns the report.
pub fn run() -> String {
    let mut out = String::from(
        "impacc-dsl: source-to-source translation and compiled-program fidelity\n\
         (test cluster; one rank per GPU; elapsed is virtual time)\n\n",
    );
    let mut t = Table::new(&["program", "plan ops", "stencils", "halo", "src hash"]);
    for (name, src) in EXAMPLES {
        let c = compile(src).expect("example compiles");
        t.row(vec![
            name.to_string(),
            c.plan.len().to_string(),
            c.stencil_sites.to_string(),
            c.arrays[0].halo.to_string(),
            source_hash(src),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nCompiled jacobi under the three runtime modes (2 nodes x 2 GPUs):\n\n");
    let n = if quick() { 64 } else { 128 };
    let jac = Arc::new(
        compile_with_overrides(
            example("jacobi").unwrap(),
            &[("n".to_string(), n as f64), ("iters".to_string(), 4.0)],
        )
        .unwrap(),
    );
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    let mut t = Table::new(&["mode", "elapsed", "halo bytes"]);
    for (name, opts) in [
        ("impacc unified", RuntimeOptions::impacc()),
        ("impacc split", split),
        ("baseline", RuntimeOptions::baseline()),
    ] {
        let s = run_dsl(&jac, 2, 2, opts, None);
        t.row(vec![
            name.to_string(),
            format!("{:.1}us", s.elapsed_secs() * 1e6),
            fmt_bytes(metric(&s, "array_halo_bytes")),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nJACC-style device split: the same annotated loop, one rank per GPU\n(single node):\n\n",
    );
    let n = if quick() { 512 } else { 2048 };
    let jac_split = Arc::new(
        compile_with_overrides(
            example("jacobi").unwrap(),
            &[("n".to_string(), n as f64), ("iters".to_string(), 4.0)],
        )
        .unwrap(),
    );
    let mut t = Table::new(&["gpus", "elapsed", "speedup"]);
    let mut base = 0.0f64;
    for gpus in [1usize, 2, 4] {
        let s = run_dsl(&jac_split, 1, gpus, RuntimeOptions::impacc(), None);
        let el = s.elapsed_secs();
        if gpus == 1 {
            base = el;
        }
        t.row(vec![
            gpus.to_string(),
            format!("{:.1}us", el * 1e6),
            format!("{:.2}x", base / el),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nthe lowered programs keep the array layer's schedules: mode ordering\n\
         and device-split scaling both survive the extra lowering step.\n",
    );
    out
}

/// CI smoke — the compiler's acceptance checks:
///
/// 1. the compiled `jacobi.acc` must match the hand-written app
///    bit-for-bit (residual history) and tick-for-tick (virtual end
///    time + dispatch count) in all three runtime modes;
/// 2. the testmpi.cpp-pattern `dot.acc` (comm split shared, device
///    binding by shm rank, reduction(+:sum) → allreduce) must run end
///    to end on single- and multi-node launches with the exact sum;
/// 3. splitting the annotated loop across a node's 4 devices must beat
///    the single-device launch by at least 3x in virtual time;
/// 4. translation must be byte-stable.
///
/// Panics (nonzero exit) on any violation.
pub fn smoke() -> String {
    let mut out =
        String::from("dsl smoke: parity, testmpi pattern, device split, plan stability\n");

    // 1. Bit-and-tick parity with the hand-written jacobi, all modes.
    let jac = Arc::new(
        compile_with_overrides(
            example("jacobi").unwrap(),
            &[("n".to_string(), 32.0), ("iters".to_string(), 5.0)],
        )
        .unwrap(),
    );
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    for (name, opts) in [
        ("impacc unified", RuntimeOptions::impacc()),
        ("impacc split", split),
        ("baseline", RuntimeOptions::baseline()),
    ] {
        let hand_probe = ResProbe::new();
        let probe_in = hand_probe.clone();
        let params = JacobiParams {
            n: 32,
            iters: 5,
            verify: false,
        };
        let hand = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            jacobi_task_probed(tc, &params, Some(&probe_in))
        })
        .expect("hand-written jacobi");
        let dsl_probe = ResProbe::new();
        let dsl = run_dsl(&jac, 2, 2, opts, Some(dsl_probe.clone()));
        let (h, d) = (hand_probe.take(), dsl_probe.take());
        assert!(
            !h.is_empty()
                && h.len() == d.len()
                && h.iter().zip(&d).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: compiled jacobi residuals diverged: {h:?} vs {d:?}"
        );
        assert_eq!(
            hand.report.end_time, dsl.report.end_time,
            "{name}: compiled jacobi end time drifted from hand-written"
        );
        assert_eq!(
            hand.report.events, dsl.report.events,
            "{name}: compiled jacobi dispatch count drifted"
        );
        out.push_str(&format!(
            "  parity [{name}]: residual bits + end time + {} dispatches identical\n",
            dsl.report.events
        ));
    }

    // 2. The testmpi.cpp pattern end to end: the program itself asserts
    // the device binding (acc_get_device_num == shm rank) and the exact
    // allreduced sum; completion is the correctness result.
    let dot = Arc::new(
        compile_with_overrides(example("dot").unwrap(), &[("n".to_string(), 2048.0)]).unwrap(),
    );
    for (nodes, gpus) in [(1usize, 4usize), (2, 2)] {
        let s = run_dsl(&dot, nodes, gpus, RuntimeOptions::impacc(), None);
        assert!(
            s.report.events > 0,
            "({nodes},{gpus}): the program must dispatch work"
        );
        if nodes > 1 {
            assert!(
                metric(&s, "mpi_bytes_sent") > 0,
                "({nodes},{gpus}): a multi-node reduction must reach the wire"
            );
        }
        out.push_str(&format!(
            "  testmpi dot [{nodes}x{gpus}]: split+bind+allreduce ok, sum exact ({} events)\n",
            s.report.events
        ));
    }

    // 3. JACC-style single-loop device split: 4 GPUs vs 1, virtual time.
    let jac_big = Arc::new(
        compile_with_overrides(
            example("jacobi").unwrap(),
            &[("n".to_string(), 2048.0), ("iters".to_string(), 4.0)],
        )
        .unwrap(),
    );
    let one = run_dsl(&jac_big, 1, 1, RuntimeOptions::impacc(), None).elapsed_secs();
    let four = run_dsl(&jac_big, 1, 4, RuntimeOptions::impacc(), None).elapsed_secs();
    let speedup = one / four;
    assert!(
        speedup >= 3.0,
        "device split too weak: 1 GPU {one:.6}s vs 4 GPUs {four:.6}s ({speedup:.2}x < 3.0x)"
    );
    out.push_str(&format!(
        "  device split: 2048x2048 jacobi, 1 -> 4 GPUs: {:.1}us -> {:.1}us ({speedup:.2}x >= 3.0x)\n",
        one * 1e6,
        four * 1e6
    ));

    // 4. Translation stability.
    for (name, src) in EXAMPLES {
        assert_eq!(
            dump_plan(&compile(src).unwrap()),
            dump_plan(&compile(src).unwrap()),
            "{name}: translation is not byte-stable"
        );
        out.push_str(&format!("  compile [{name}]: plan byte-stable\n"));
    }
    out.push_str("dsl smoke: ok\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes() {
        let out = smoke();
        assert!(out.contains("dsl smoke: ok"));
    }
}
