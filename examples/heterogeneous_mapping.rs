//! Automatic task-device mapping on a heterogeneous cluster (Figure 2).
//!
//! Three nodes: one with two GPUs, one with a GPU and a MIC, one with no
//! accelerator at all. The IMPACC launcher creates one task per matching
//! device (`IMPACC_ACC_DEVICE_TYPE` bit-field), falls back to CPU cores,
//! and pins each task near its device — with no `acc_set_device_num()`
//! calls in the program. The program then splits work by device type,
//! exactly as §3.2 suggests (`acc_get_device_type()`-based distribution).
//!
//! Run with: `cargo run --release --example heterogeneous_mapping`

use impacc::prelude::*;

fn run_mask(name: &str, mask: DeviceTypeMask) {
    let spec = impacc::machine::presets::mixed_demo();
    let summary = Launch::new(spec, RuntimeOptions::impacc())
        .device_mask(mask)
        .run_async(|tc| async move {
            // Divide work by attached device speed: GPUs take 4 units,
            // MICs 3, CPU fallback 1.
            let my_share = match tc.acc_device_kind() {
                DeviceKind::CudaGpu => 4.0,
                DeviceKind::OpenClMic => 3.0,
                DeviceKind::CpuCores => 1.0,
            };
            let totals = tc.mpi_allreduce_f64(&[my_share, 1.0], ReduceOp::Sum).await;
            let (total_share, ntasks) = (totals[0], totals[1]);
            // Each task computes its fraction of a fixed 1 TFLOP job.
            let my_flops = 1e12 * my_share / total_share;
            tc.acc_kernel(None, KernelCost::flops(my_flops), || {})
                .await;
            if tc.rank() == 0 {
                println!("    {ntasks} tasks, total share {total_share}");
            }
        })
        .expect("mapping run");
    println!("  {name}:");
    for t in &summary.tasks {
        println!(
            "    rank {} -> node {} dev {} ({:?}) socket {}{}",
            t.rank,
            t.node,
            t.dev_idx,
            t.kind,
            t.socket,
            if t.far { " FAR" } else { "" }
        );
    }
    println!("    elapsed: {:.3} ms\n", summary.elapsed_secs() * 1e3);
}

fn main() {
    println!("cluster: node0 = 2x GPU, node1 = GPU + MIC, node2 = CPU only\n");
    run_mask("acc_device_default", DeviceTypeMask::DEFAULT);
    run_mask("acc_device_nvidia", DeviceTypeMask::NVIDIA);
    run_mask("acc_device_cpu", DeviceTypeMask::CPU);
    run_mask("acc_device_xeonphi", DeviceTypeMask::XEONPHI);
    run_mask(
        "acc_device_nvidia | acc_device_xeonphi",
        DeviceTypeMask::NVIDIA.or(DeviceTypeMask::XEONPHI),
    );
}
