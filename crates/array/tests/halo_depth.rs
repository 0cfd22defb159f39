//! What the halo-depth knob costs, on the radius-`h` 2-d star stencil
//! over a 2-node × 2-GPU cluster (1-d row decomposition), and what the
//! array lowering keeps of the IMPACC win:
//!
//! 1. **Halo bytes are exactly linear in depth** — the inferred schedule
//!    sends `h` rows per neighbour per sweep, so `bytes(h) == h · bytes(1)`:
//!    the schedule is depth-scaled, not re-derived.
//! 2. **Depth moves traffic, not work** — the update count moves only by
//!    the fixed-boundary margin a wider star leaves untouched.
//! 3. **The IMPACC win survives the lowering** — the array jacobi runs
//!    faster under IMPACC than under the host-staged baseline.

use impacc_array::scenarios::{jacobi_task, stencil2d_task, JacobiParams, Stencil2dParams};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::presets;

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

fn stencil2d(n: usize, iters: usize, halo: usize) -> RunSummary {
    let p = Stencil2dParams {
        n,
        iters,
        halo,
        verify: false,
    };
    Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
        .run_async(move |tc| {
            let p = p.clone();
            async move { stencil2d_task(&tc, &p, None).await }
        })
        .expect("stencil2d run")
}

#[test]
fn halo_bytes_scale_exactly_with_depth() {
    let base = metric(&stencil2d(64, 3, 1), "array_halo_bytes");
    assert!(base > 0, "depth-1 sweep must exchange halos");
    for h in [2u64, 4] {
        let b = metric(&stencil2d(64, 3, h as usize), "array_halo_bytes");
        assert_eq!(
            b,
            base * h,
            "halo bytes must scale exactly with depth {h}: {b} vs {base}x{h}"
        );
    }
}

#[test]
fn deeper_halos_cost_bandwidth_not_messages_per_cell() {
    let (n, iters) = (64u64, 2u64);
    let h1 = stencil2d(n as usize, iters as usize, 1);
    let h4 = stencil2d(n as usize, iters as usize, 4);
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

#[test]
fn array_jacobi_keeps_the_impacc_win() {
    let run = |opts: RuntimeOptions| {
        let p = JacobiParams {
            n: 256,
            iters: 4,
            verify: false,
        };
        Launch::new(presets::test_cluster(2, 2), opts)
            .run_async(move |tc| {
                let p = p.clone();
                async move { jacobi_task(&tc, &p, None).await }
            })
            .expect("array jacobi run")
            .elapsed_secs()
    };
    let (i, b) = (
        run(RuntimeOptions::impacc()),
        run(RuntimeOptions::baseline()),
    );
    assert!(
        i < b,
        "array jacobi must keep the IMPACC win: {:.1}us vs {:.1}us",
        i * 1e6,
        b * 1e6
    );
}
