//! Figure 8 — NUMA-friendly task-CPU pinning: HtoD and DtoH accelerator
//! copy bandwidth with the task pinned on the near vs the far socket, on
//! PSG (CUDA GPUs) and Beacon (OpenCL MICs), 64 B .. 1 GiB.
//!
//! Paper's result: NUMA-friendly pinning delivers up to 3.5× higher
//! bandwidth; small transfers are latency-bound so the gap closes.

use std::sync::Arc;

use impacc_acc::Device;
use impacc_machine::{presets, ClusterResources, HdDir, MachineSpec};
use impacc_mem::{AddressSpace, MemSpace};
use impacc_vtime::Sim;

use crate::util::{fmt_bytes, gbps, quick, size_sweep, Table};

/// One measured copy: time for a single transfer of `bytes`.
fn copy_time(spec: MachineSpec, dir: HdDir, far: bool, bytes: u64) -> f64 {
    let out = crate::util::probe::<f64>();
    let out2 = out.clone();
    let mut sim = Sim::new();
    sim.spawn_async_on(0, "task", move |ctx| async move {
        let res = Arc::new(ClusterResources::new(Arc::new(spec)));
        let space = Arc::new(AddressSpace::new(1 << 42, Some(4096)));
        let dev = Device::new(0, 0, res, space.clone());
        let host = space.alloc(MemSpace::Host, bytes).expect("host alloc");
        let d = dev.alloc(bytes).expect("device alloc");
        let t0 = ctx.now();
        dev.copy(
            &ctx,
            dir,
            far,
            true, // bandwidth microbenchmarks use page-locked memory
            (&host.backing, 0),
            (&d.region.backing, 0),
            bytes,
        )
        .await;
        *out2.lock() = Some(ctx.now().since(t0).as_secs_f64());
    });
    sim.run().expect("fig8 run");
    let v = *out.lock();
    v.expect("probe filled")
}

/// Run the Figure 8 sweep; returns the rendered report.
pub fn run() -> String {
    let max = if quick() { 1 << 24 } else { 1 << 30 };
    let sizes = size_sweep(64, max, 4);
    let mut out = String::new();
    out.push_str("Figure 8: NUMA-friendly task-CPU pinning (copy bandwidth, GB/s)\n\n");
    for (name, spec_fn) in [
        ("PSG (CUDA GPU)", presets::psg as fn() -> MachineSpec),
        ("Beacon (OpenCL MIC)", || presets::beacon(1)),
    ] {
        for dir in [HdDir::HtoD, HdDir::DtoH] {
            let mut t = Table::new(&["size", "near GB/s", "far GB/s", "near/far"]);
            let mut peak_ratio: f64 = 0.0;
            for &s in &sizes {
                let near = copy_time(spec_fn(), dir, false, s);
                let far = copy_time(spec_fn(), dir, true, s);
                let ratio = far / near;
                peak_ratio = peak_ratio.max(ratio);
                t.row(vec![
                    fmt_bytes(s),
                    format!("{:.2}", gbps(s, near)),
                    format!("{:.2}", gbps(s, far)),
                    format!("{ratio:.2}x"),
                ]);
            }
            out.push_str(&format!("{name}, {dir:?}:\n"));
            out.push_str(&t.render());
            out.push_str(&format!("  peak near/far advantage: {peak_ratio:.2}x\n\n"));
        }
    }
    out.push_str("paper: NUMA-friendly delivers up to 3.5x higher bandwidth; ~1x at 64B.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_penalty_grows_with_size_on_psg() {
        let small_ratio = copy_time(presets::psg(), HdDir::HtoD, true, 64)
            / copy_time(presets::psg(), HdDir::HtoD, false, 64);
        let big_ratio = copy_time(presets::psg(), HdDir::HtoD, true, 1 << 28)
            / copy_time(presets::psg(), HdDir::HtoD, false, 1 << 28);
        assert!(small_ratio < 1.3, "latency-bound: {small_ratio}");
        assert!(
            big_ratio > 3.0 && big_ratio < 4.0,
            "bandwidth-bound: {big_ratio}"
        );
    }

    #[test]
    fn beacon_penalty_matches_its_numa_factor() {
        let r = copy_time(presets::beacon(1), HdDir::DtoH, true, 1 << 28)
            / copy_time(presets::beacon(1), HdDir::DtoH, false, 1 << 28);
        assert!(r > 2.0 && r < 3.0, "Beacon far factor is 2.5x: {r}");
    }
}
