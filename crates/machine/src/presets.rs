//! The evaluation systems of Table 1, plus synthetic clusters for tests.
//!
//! Bandwidth/latency constants are practical (not peak) figures from public
//! specifications of the hardware in Table 1; software overhead constants
//! are calibrated so that the microbenchmark figures (Figures 8 and 9)
//! reproduce the paper's reported ratios (≈3.5× NUMA penalty on PSG, ≈8×
//! IMPACC DtoD advantage on PSG, ≈2× HtoH advantage intra-node).

use crate::spec::*;

/// Host memory of a PSG node (and of a `test_cluster` node, which is one).
pub const PSG_HOST_MEM: u64 = 256 << 30;

/// Host memory of a Titan node.
pub const TITAN_HOST_MEM: u64 = 32 << 30;

/// NVIDIA PSG cluster node (Table 1, column 1): 2× Xeon E5-2698 v3,
/// 8× Kepler GK210 (K80 halves), PCIe Gen3 x16, CUDA.
pub fn psg_node() -> NodeSpec {
    NodeSpec {
        sockets: vec![
            SocketSpec {
                cores: 16,
                core_gflops: 18.0,
            };
            2
        ],
        devices: (0..8)
            .map(|i| DeviceSpec {
                model: "NVIDIA Kepler GK210".into(),
                kind: DeviceKind::CudaGpu,
                mem_bytes: 12 << 30,
                cores: 2496,
                gflops: 1450.0,
                mem_bw: 240e9,
                socket: i / 4, // 4 GPUs per socket's root complex
                pcie_bw: 12e9, // Gen3 x16 practical
                pcie_lat: 6e-6,
            })
            .collect(),
        numa: NumaSpec {
            cross_lat: 0.6e-6,
            // Figure 8(a)(b): far-socket transfers reach ~1/3.5 of the
            // near-socket bandwidth at large sizes.
            far_bw_factor: 1.0 / 3.5,
        },
        p2p_dtod: true, // GPUDirect peer-to-peer across the shared root complex
        mem_bytes: PSG_HOST_MEM,
    }
}

/// The PSG system as used in the paper: one node (of 16).
pub fn psg() -> MachineSpec {
    MachineSpec::homogeneous(
        "PSG",
        1,
        psg_node(),
        NetworkSpec {
            latency: 1.3e-6,
            nic_bw: 6.8e9, // InfiniBand FDR
            gpudirect_rdma: false,
            bisect: 0.0,
        },
        MpiThreading::Multiple,
        CostParams::default(),
    )
}

/// Beacon node (Table 1, column 2): 2× Xeon E5-2670, 4× Xeon Phi 5110P,
/// PCIe Gen2 x16, Intel OpenCL.
pub fn beacon_node() -> NodeSpec {
    NodeSpec {
        sockets: vec![
            SocketSpec {
                cores: 8,
                core_gflops: 20.0,
            };
            2
        ],
        devices: (0..4)
            .map(|i| DeviceSpec {
                model: "Intel Xeon Phi 5110P".into(),
                kind: DeviceKind::OpenClMic,
                mem_bytes: 8 << 30,
                cores: 60,
                gflops: 1011.0,
                mem_bw: 320e9,
                socket: i / 2,
                pcie_bw: 6e9, // Gen2 x16 practical
                pcie_lat: 10e-6,
            })
            .collect(),
        numa: NumaSpec {
            cross_lat: 0.8e-6,
            far_bw_factor: 0.4,
        },
        p2p_dtod: false, // MIC peer copies stage through the host
        mem_bytes: 256 << 30,
    }
}

/// The Beacon system: `nodes` of the 48 (the paper uses up to 32).
pub fn beacon(nodes: usize) -> MachineSpec {
    MachineSpec::homogeneous(
        "Beacon",
        nodes,
        beacon_node(),
        NetworkSpec {
            latency: 1.3e-6,
            nic_bw: 6.8e9,
            gpudirect_rdma: false,
            bisect: 0.0,
        },
        MpiThreading::Multiple,
        CostParams {
            host_memcpy_bw: 16e9,
            ..CostParams::default()
        },
    )
}

/// Titan node (Table 1, column 3): AMD Opteron 6274, one Tesla K20x,
/// PCIe Gen2, Cray Gemini interconnect.
pub fn titan_node() -> NodeSpec {
    NodeSpec {
        sockets: vec![SocketSpec {
            cores: 16,
            core_gflops: 9.0,
        }],
        devices: vec![DeviceSpec {
            model: "NVIDIA Tesla K20x".into(),
            kind: DeviceKind::CudaGpu,
            mem_bytes: 6 << 30,
            cores: 2688,
            gflops: 1310.0,
            mem_bw: 250e9,
            socket: 0,
            pcie_bw: 6e9,
            pcie_lat: 7e-6,
        }],
        numa: NumaSpec {
            cross_lat: 0.0,
            far_bw_factor: 1.0, // single socket: no NUMA penalty
        },
        p2p_dtod: false, // single GPU per node
        mem_bytes: TITAN_HOST_MEM,
    }
}

/// The Titan system: `nodes` of the 18,688 (the paper uses up to 8,192).
pub fn titan(nodes: usize) -> MachineSpec {
    MachineSpec::homogeneous(
        "Titan",
        nodes,
        titan_node(),
        NetworkSpec {
            latency: 1.5e-6,
            nic_bw: 4.5e9, // Gemini per-node injection
            gpudirect_rdma: true,
            bisect: 0.05, // 3-D torus bisection pressure at scale
        },
        MpiThreading::Multiple,
        CostParams {
            host_memcpy_bw: 12e9,
            ..CostParams::default()
        },
    )
}

/// A small synthetic GPU cluster for tests: `nodes` × `gpus` identical
/// CUDA devices, 2 sockets, PSG-like constants.
pub fn test_cluster(nodes: usize, gpus: usize) -> MachineSpec {
    let mut node = psg_node();
    node.devices.truncate(gpus);
    for (i, d) in node.devices.iter_mut().enumerate() {
        d.socket = if gpus > 1 { i * 2 / gpus } else { 0 };
    }
    MachineSpec::homogeneous(
        "TestCluster",
        nodes,
        node,
        NetworkSpec {
            latency: 1.3e-6,
            nic_bw: 6.8e9,
            gpudirect_rdma: false,
            bisect: 0.0,
        },
        MpiThreading::Multiple,
        CostParams::default(),
    )
}

/// A Figure-2-style heterogeneous cluster: node 0 has two GPUs, node 1 has
/// one GPU and one MIC, node 2 has no accelerators at all (its CPU cores
/// serve as the accelerator under `acc_device_cpu` / CPU fallback).
pub fn mixed_demo() -> MachineSpec {
    let gpu_node = {
        let mut n = psg_node();
        n.devices.truncate(2);
        n.devices[1].socket = 1;
        n
    };
    let hybrid_node = {
        let mut n = psg_node();
        n.devices.truncate(1);
        let mut mic = beacon_node().devices.remove(0);
        mic.socket = 1;
        n.devices.push(mic);
        n
    };
    let cpu_node = {
        let mut n = psg_node();
        n.devices.clear();
        n
    };
    MachineSpec {
        name: "MixedDemo".into(),
        nodes: vec![gpu_node, hybrid_node, cpu_node],
        network: NetworkSpec {
            latency: 1.3e-6,
            nic_bw: 6.8e9,
            gpudirect_rdma: false,
            bisect: 0.0,
        },
        mpi_threading: MpiThreading::Multiple,
        costs: CostParams::default(),
    }
}

/// Render Table 1 (the target systems) for the `table1` harness binary.
pub fn table1() -> String {
    let systems = [psg(), beacon(32), titan(8192)];
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12}\n",
        "System", "PSG", "Beacon", "Titan"
    ));
    let row = |label: &str, f: &dyn Fn(&MachineSpec) -> String| {
        format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            label,
            f(&systems[0]),
            f(&systems[1]),
            f(&systems[2])
        )
    };
    out.push_str(&row("Nodes (modelled)", &|m| m.node_count().to_string()));
    out.push_str(&row("Sockets/node", &|m| {
        m.nodes[0].sockets.len().to_string()
    }));
    out.push_str(&row("Devices/node", &|m| {
        m.nodes[0].devices.len().to_string()
    }));
    out.push_str(&row("Device kind", &|m| {
        m.nodes[0]
            .devices
            .first()
            .map(|d| format!("{:?}", d.kind))
            .unwrap_or_default()
    }));
    out.push_str(&row("Cores/accelerator", &|m| {
        m.nodes[0].devices[0].cores.to_string()
    }));
    out.push_str(&row("Device mem (GB)", &|m| {
        (m.nodes[0].devices[0].mem_bytes >> 30).to_string()
    }));
    out.push_str(&row("PCIe BW (GB/s)", &|m| {
        format!("{:.0}", m.nodes[0].devices[0].pcie_bw / 1e9)
    }));
    out.push_str(&row("NIC BW (GB/s)", &|m| {
        format!("{:.1}", m.network.nic_bw / 1e9)
    }));
    out.push_str(&row("GPUDirect RDMA", &|m| {
        m.network.gpudirect_rdma.to_string()
    }));
    out.push_str(&row("MPI threading", &|m| format!("{:?}", m.mpi_threading)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_structure() {
        let p = psg();
        assert_eq!(p.nodes[0].devices.len(), 8);
        assert_eq!(p.nodes[0].sockets.len(), 2);
        assert!(p.nodes[0].p2p_dtod);
        assert_eq!(p.nodes[0].devices[0].kind, DeviceKind::CudaGpu);

        let b = beacon(32);
        assert_eq!(b.node_count(), 32);
        assert_eq!(b.nodes[0].devices.len(), 4);
        assert_eq!(b.nodes[0].devices[0].kind, DeviceKind::OpenClMic);
        assert!(!b.nodes[0].p2p_dtod);

        let t = titan(8192);
        assert_eq!(t.node_count(), 8192);
        assert_eq!(t.nodes[0].devices.len(), 1);
        assert!(t.network.gpudirect_rdma);
    }

    #[test]
    fn psg_numa_penalty_is_3_5x() {
        let p = psg();
        assert!((p.nodes[0].numa.far_bw_factor - 1.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_demo_matches_figure2() {
        let m = mixed_demo();
        assert_eq!(m.nodes[0].devices.len(), 2);
        assert_eq!(m.nodes[1].devices.len(), 2);
        assert_eq!(m.nodes[1].devices[1].kind, DeviceKind::OpenClMic);
        assert!(m.nodes[2].devices.is_empty());
    }

    #[test]
    fn table1_renders_all_columns() {
        let t = table1();
        assert!(t.contains("PSG"));
        assert!(t.contains("Beacon"));
        assert!(t.contains("Titan"));
        assert!(t.contains("GPUDirect RDMA"));
    }

    #[test]
    fn test_cluster_socket_spread() {
        let m = test_cluster(2, 4);
        let sockets: Vec<usize> = m.nodes[0].devices.iter().map(|d| d.socket).collect();
        assert_eq!(sockets, vec![0, 0, 1, 1]);
    }
}
