//! Figure 9 — point-to-point communication bandwidth between two tasks,
//! IMPACC vs MPI+OpenACC: intra-node on PSG and Beacon (panels a–f) and
//! internode on Titan (panels g–i), for host-to-host, host-to-device and
//! device-to-device transfers.
//!
//! Paper's results: IMPACC wins everywhere there is a copy to eliminate —
//! ≈2× on intra-node HtoH (one fused copy vs two + IPC), ≈8× on PSG
//! intra-node DtoD (direct PCIe peer copy vs DtoH+HtoH+HtoD), and on
//! Titan internode via GPUDirect RDMA.

use impacc_core::{MpiOpts, Rank, RuntimeOptions};
use impacc_machine::{presets, MachineSpec};

use crate::util::{fmt_bytes, gbps, probe, quick, size_sweep, Table};

/// Transfer endpoint kinds for one panel.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Host buffer to host buffer.
    HtoH,
    /// Host send buffer into a device receive buffer.
    HtoD,
    /// Device buffer to device buffer.
    DtoD,
}

const REPS: u64 = 4;

/// Measure the per-message transfer time between ranks 0 and 1.
pub fn measure(spec: MachineSpec, options: RuntimeOptions, kind: Kind, bytes: u64) -> f64 {
    let out = probe::<f64>();
    let out2 = out.clone();
    let impacc = options.is_impacc();
    let app = move |tc: Rank| {
        let out2 = out2.clone();
        async move {
            if tc.rank() >= 2 {
                return;
            }
            let buf = tc.malloc(bytes).await;
            let send_dev = kind == Kind::DtoD;
            let recv_dev = kind != Kind::HtoH;
            if (tc.rank() == 0 && send_dev) || (tc.rank() == 1 && recv_dev) {
                tc.acc_create(&buf);
            }
            tc.mpi_barrier().await;
            let t0 = tc.ctx().now();
            for i in 0..REPS {
                let tag = i as i32;
                if tc.rank() == 0 {
                    if impacc {
                        let o = if send_dev {
                            MpiOpts::device()
                        } else {
                            MpiOpts::host()
                        };
                        tc.mpi_send(&buf, 0, bytes, 1, tag, o).await;
                    } else {
                        // Baseline: stage the device buffer through the host.
                        if send_dev {
                            tc.acc_update_host(&buf, 0, bytes, None).await;
                        }
                        tc.mpi_send(&buf, 0, bytes, 1, tag, MpiOpts::host()).await;
                    }
                } else {
                    if impacc {
                        let o = if recv_dev {
                            MpiOpts::device()
                        } else {
                            MpiOpts::host()
                        };
                        tc.mpi_recv(&buf, 0, bytes, 0, tag, o).await;
                    } else {
                        tc.mpi_recv(&buf, 0, bytes, 0, tag, MpiOpts::host()).await;
                        if recv_dev {
                            tc.acc_update_device(&buf, 0, bytes, None).await;
                        }
                    }
                }
            }
            if tc.rank() == 1 {
                let dt = tc.ctx().now().since(t0).as_secs_f64() / REPS as f64;
                *out2.lock() = Some(dt);
            }
        }
    };
    impacc_apps::launch_app(spec, options, Some(4096), app).expect("fig9 run");
    let v = *out.lock();
    v.expect("probe filled")
}

fn two_device_node(mut spec: MachineSpec) -> MachineSpec {
    for n in spec.nodes.iter_mut() {
        n.devices.truncate(2);
    }
    spec
}

/// One Fig 9 panel: label, machine under test, and transfer direction.
type Panel = (&'static str, fn() -> MachineSpec, Kind);

/// Run the Figure 9 sweep; returns the rendered report.
pub fn run() -> String {
    let max = if quick() { 1 << 22 } else { 1 << 28 };
    let sizes = size_sweep(1024, max, 4);
    let mut out = String::new();
    out.push_str("Figure 9: point-to-point communication bandwidth (GB/s)\n\n");
    let panels: Vec<Panel> = vec![
        (
            "(a) PSG intra-node HtoH",
            || two_device_node(presets::psg()),
            Kind::HtoH,
        ),
        (
            "(b) PSG intra-node HtoD",
            || two_device_node(presets::psg()),
            Kind::HtoD,
        ),
        (
            "(c) PSG intra-node DtoD",
            || two_device_node(presets::psg()),
            Kind::DtoD,
        ),
        (
            "(d) Beacon intra-node HtoH",
            || two_device_node(presets::beacon(1)),
            Kind::HtoH,
        ),
        (
            "(e) Beacon intra-node HtoD",
            || two_device_node(presets::beacon(1)),
            Kind::HtoD,
        ),
        (
            "(f) Beacon intra-node DtoD",
            || two_device_node(presets::beacon(1)),
            Kind::DtoD,
        ),
        ("(g) Titan internode HtoH", || presets::titan(2), Kind::HtoH),
        ("(h) Titan internode HtoD", || presets::titan(2), Kind::HtoD),
        ("(i) Titan internode DtoD", || presets::titan(2), Kind::DtoD),
    ];
    for (name, spec_fn, kind) in panels {
        let mut t = Table::new(&["size", "IMPACC GB/s", "MPI+X GB/s", "speedup"]);
        let mut peak: f64 = 0.0;
        for &s in &sizes {
            let i = measure(spec_fn(), RuntimeOptions::impacc(), kind, s);
            let b = measure(spec_fn(), RuntimeOptions::baseline(), kind, s);
            let speedup = b / i;
            peak = peak.max(speedup);
            t.row(vec![
                fmt_bytes(s),
                format!("{:.2}", gbps(s, i)),
                format!("{:.2}", gbps(s, b)),
                format!("{speedup:.2}x"),
            ]);
        }
        out.push_str(&format!("{name}:\n{}", t.render()));
        out.push_str(&format!("  peak IMPACC advantage: {peak:.2}x\n\n"));
    }
    out.push_str(
        "paper: ~2x intra-node HtoH, ~8x PSG intra-node DtoD (direct PCIe peer copy),\n\
         higher Titan internode bandwidth via GPUDirect RDMA.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psg_dtod_advantage_is_large() {
        let spec = || two_device_node(presets::psg());
        let i = measure(spec(), RuntimeOptions::impacc(), Kind::DtoD, 1 << 26);
        let b = measure(spec(), RuntimeOptions::baseline(), Kind::DtoD, 1 << 26);
        let speedup = b / i;
        assert!(
            speedup > 4.0 && speedup < 12.0,
            "paper reports ~8x, got {speedup:.2}x"
        );
    }

    #[test]
    fn intra_node_htoh_advantage_is_about_2x() {
        let spec = || two_device_node(presets::psg());
        let i = measure(spec(), RuntimeOptions::impacc(), Kind::HtoH, 1 << 26);
        let b = measure(spec(), RuntimeOptions::baseline(), Kind::HtoH, 1 << 26);
        let speedup = b / i;
        assert!(
            speedup > 1.5 && speedup < 3.0,
            "one copy vs two: {speedup:.2}x"
        );
    }

    #[test]
    fn titan_dtod_uses_rdma() {
        let i = measure(
            presets::titan(2),
            RuntimeOptions::impacc(),
            Kind::DtoD,
            1 << 26,
        );
        let b = measure(
            presets::titan(2),
            RuntimeOptions::baseline(),
            Kind::DtoD,
            1 << 26,
        );
        assert!(
            b / i > 1.2,
            "RDMA skips two PCIe staging hops: {:.2}",
            b / i
        );
    }
}
