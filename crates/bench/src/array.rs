//! Distributed-array sweep — halo depth × mesh size on the inferred
//! exchange schedules, plus the runtime-mode comparison for the array
//! jacobi.
//!
//! The first table turns the `impacc-array` halo knob: a radius-`h` star
//! stencil exchanges `h` rows per neighbour per sweep, so wire bytes
//! grow linearly with depth while the per-sweep arithmetic grows with
//! the star size — the update rate (owned-cell updates per virtual
//! second) prices that trade. The second table reruns the array jacobi
//! under all three runtime modes: the array layer lowers the *same*
//! schedule to unified-queue device sends, split isend/irecv, or the
//! host-staged baseline, so the IMPACC win carries over unchanged.

use impacc_apps::launch_app;
use impacc_array::scenarios::{
    jacobi_array_task, stencil2d_task, ArrayJacobiParams, Stencil2dParams,
};
use impacc_core::{RunSummary, RuntimeOptions};
use impacc_machine::presets;

use crate::util::{fmt_bytes, quick, Table};

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

/// Run the radius-`halo` 2-d star stencil on the 2×2-GPU cluster.
pub fn run_stencil2d(n: usize, iters: usize, halo: usize, opts: RuntimeOptions) -> RunSummary {
    let p = Stencil2dParams {
        n,
        iters,
        halo,
        verify: false,
    };
    launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
        stencil2d_task(tc, &p, None)
    })
    .expect("stencil2d run")
}

/// Run the array-API jacobi on the 2×2-GPU cluster.
pub fn run_array_jacobi(n: usize, iters: usize, opts: RuntimeOptions) -> RunSummary {
    let p = ArrayJacobiParams {
        n,
        iters,
        verify: false,
    };
    launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
        jacobi_array_task(tc, &p, None)
    })
    .expect("array jacobi run")
}

/// Run the halo-depth × mesh-size sweep; returns the rendered report.
pub fn run() -> String {
    let mut out = String::from(
        "Distributed arrays: halo depth vs update rate (inferred exchange schedules)\n\
         (test cluster, 2 nodes x 2 GPUs = 4 ranks; elapsed is virtual time)\n\n",
    );
    let sizes: &[usize] = if quick() { &[256] } else { &[64, 256] };
    let halos: &[usize] = &[1, 2, 4];
    let iters = 4;
    let mut t = Table::new(&[
        "mesh",
        "halo",
        "elapsed",
        "halo bytes",
        "cell updates",
        "updates/us",
    ]);
    for &n in sizes {
        for &h in halos {
            let s = run_stencil2d(n, iters, h, RuntimeOptions::impacc());
            let cells = metric(&s, "array_cells");
            t.row(vec![
                format!("{n}x{n}"),
                h.to_string(),
                format!("{:.1}us", s.elapsed_secs() * 1e6),
                fmt_bytes(metric(&s, "array_halo_bytes")),
                cells.to_string(),
                format!("{:.0}", cells as f64 / (s.elapsed_secs() * 1e6)),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str("\nArray jacobi under the three runtime modes (same inferred schedule):\n\n");
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    let modes = [
        ("impacc unified", RuntimeOptions::impacc()),
        ("impacc split", split),
        ("baseline", RuntimeOptions::baseline()),
    ];
    let n = if quick() { 256 } else { 512 };
    let mut t = Table::new(&["mode", "elapsed", "halo bytes"]);
    for (name, opts) in modes {
        let s = run_array_jacobi(n, iters, opts);
        t.row(vec![
            name.to_string(),
            format!("{:.1}us", s.elapsed_secs() * 1e6),
            fmt_bytes(metric(&s, "array_halo_bytes")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nhalo traffic scales linearly with depth (the schedule sends h rows\n\
         per neighbour per sweep) while the star stencil's arithmetic grows\n\
         with radius, so deeper halos buy fewer exchanges per unit of work\n\
         at a per-sweep bandwidth cost — the trade EXPERIMENTS.md tabulates.\n",
    );
    out
}

/// CI smoke — the array layer's acceptance checks:
///
/// 1. the array jacobi must match the hand-written app bit-for-bit
///    (residual history) and tick-for-tick (virtual end time);
/// 2. halo bytes must scale exactly linearly with the exchange depth;
/// 3. the array jacobi must keep the IMPACC-beats-baseline property.
///
/// Panics (nonzero exit) on any violation.
pub fn smoke() -> String {
    use impacc_apps::{jacobi_task_probed, JacobiParams};
    use impacc_array::ResProbe;

    let mut out = String::from("array smoke: parity, halo scaling, mode win\n");

    // 1. Bit-parity with the hand-written jacobi, all three modes.
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
            verify: true,
        };
        let hand = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            jacobi_task_probed(tc, &params, Some(&probe_in))
        })
        .expect("hand-written jacobi");
        let arr_probe = ResProbe::new();
        let probe_in = arr_probe.clone();
        let p = ArrayJacobiParams {
            n: 32,
            iters: 5,
            verify: true,
        };
        let arr = launch_app(presets::test_cluster(2, 2), opts, None, move |tc| {
            jacobi_array_task(tc, &p, Some(&probe_in))
        })
        .expect("array jacobi");
        let (h, a) = (hand_probe.take(), arr_probe.take());
        assert!(
            !h.is_empty()
                && h.len() == a.len()
                && h.iter().zip(&a).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: array residuals diverged from hand-written: {h:?} vs {a:?}"
        );
        assert_eq!(
            hand.report.end_time, arr.report.end_time,
            "{name}: array jacobi end time drifted from hand-written"
        );
        out.push_str(&format!(
            "  parity [{name}]: residual bits + end time identical over {} sweeps\n",
            h.len()
        ));
    }

    // 2. Exact linear halo-byte scaling with exchange depth.
    let base = metric(
        &run_stencil2d(64, 3, 1, RuntimeOptions::impacc()),
        "array_halo_bytes",
    );
    assert!(base > 0, "depth-1 sweep must exchange halos");
    for h in [2u64, 4] {
        let b = metric(
            &run_stencil2d(64, 3, h as usize, RuntimeOptions::impacc()),
            "array_halo_bytes",
        );
        assert_eq!(
            b,
            base * h,
            "halo bytes must scale exactly with depth {h}: {b} vs {base}x{h}"
        );
    }
    out.push_str(&format!(
        "  halo scaling: depth 1/2/4 -> {}/{}/{} (exactly linear)\n",
        fmt_bytes(base),
        fmt_bytes(base * 2),
        fmt_bytes(base * 4)
    ));

    // 3. The array layer inherits the IMPACC-vs-baseline win.
    let i = run_array_jacobi(256, 4, RuntimeOptions::impacc());
    let b = run_array_jacobi(256, 4, RuntimeOptions::baseline());
    assert!(
        i.elapsed_secs() < b.elapsed_secs(),
        "array jacobi must keep the IMPACC win: {:.1}us vs {:.1}us",
        i.elapsed_secs() * 1e6,
        b.elapsed_secs() * 1e6
    );
    out.push_str(&format!(
        "  mode win: impacc {:.1}us vs baseline {:.1}us ({:.2}x)\n",
        i.elapsed_secs() * 1e6,
        b.elapsed_secs() * 1e6,
        b.elapsed_secs() / i.elapsed_secs()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes() {
        let out = smoke();
        assert!(out.contains("array smoke"));
        assert!(out.contains("exactly linear"));
    }

    #[test]
    fn deeper_halos_cost_bandwidth_not_messages_per_cell() {
        let (n, iters) = (64u64, 2u64);
        let h1 = run_stencil2d(n as usize, iters as usize, 1, RuntimeOptions::impacc());
        let h4 = run_stencil2d(n as usize, iters as usize, 4, RuntimeOptions::impacc());
        assert!(metric(&h4, "array_halo_bytes") > metric(&h1, "array_halo_bytes"));
        // The update count moves only by the fixed-boundary margin (a
        // radius-h star leaves h rows untouched at each global edge);
        // the exchange depth itself only moves traffic.
        let margin_rows = n * (2 * 4 - 2) * iters;
        assert_eq!(
            metric(&h1, "array_cells") - metric(&h4, "array_cells"),
            margin_rows
        );
        assert_eq!(metric(&h1, "array_cells"), n * (n - 2) * iters);
    }
}
