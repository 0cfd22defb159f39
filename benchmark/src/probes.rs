//! Isolated per-layer probes: each times one public operation of one layer
//! in a tight loop, outside any workload. A traced pass (never an
//! end-to-end run) runs the probes of the layers its workload leans on, and
//! they give the unit costs the share tables multiply by exact counts.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use impacc_apps::serial_jacobi;
use impacc_array::{infer, tile_geom, ArraySpec, CartGrid, Layout};
use impacc_core::{Launch, MpscQueue, RuntimeOptions, TaskCtx};
use impacc_machine::{presets, ClusterResources, KernelCost};
use impacc_mem::{
    Backing, DevPtr, MemSpace, PresentEntry, PresentTable, Region, RegionId, VirtAddr,
};
use impacc_mpi::ReduceOp;
use impacc_vtime::{Sim, SimConfig, SimDur};

use crate::sim::{msg_storm, StormOpts};
use crate::spec::Sizes;
use crate::stats::median;
use crate::trace::{Tracer, ROOT};

/// Unit costs measured by the probes, by per-layer metric name.
pub type Probes = Vec<(&'static str, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f`, seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Wall seconds rank 0 spends in `body`, measured inside a launch so the
/// launch's own fixed cost stays out.
fn rank0_secs(
    spec: impacc_machine::MachineSpec,
    body: impl Fn(&TaskCtx) + Send + Sync + 'static,
) -> Result<f64, String> {
    let wall = Arc::new(Mutex::new(0.0f64));
    let w = wall.clone();
    Launch::new(spec, RuntimeOptions::impacc())
        .run(move |tc| {
            let t0 = Instant::now();
            body(tc);
            if tc.rank() == 0 {
                *w.lock().expect("rank 0 is the only writer") = t0.elapsed().as_secs_f64();
            }
        })
        .map_err(|e| e.to_string())?;
    let secs = *wall.lock().expect("the launch has ended");
    Ok(secs)
}

fn engine_ns_per_event(actors: u64, iters: u64, phased: bool) -> Result<f64, String> {
    let mut sim = Sim::with_config(SimConfig {
        stack_size: 128 * 1024,
        ..SimConfig::default()
    });
    for i in 0..actors {
        // Phased: actor i first jumps into its own disjoint time window,
        // so no advance ever meets another actor's event and the elided
        // fast path fires every time. Otherwise every advance ties.
        let offset = if phased { i * (iters + 2) } else { 0 };
        sim.spawn(format!("p{i}"), move |ctx| {
            if offset > 0 {
                ctx.advance(SimDur::from_ns(offset), "phase");
            }
            for _ in 0..iters {
                ctx.advance(SimDur::from_ns(1), "w");
            }
        });
    }
    let t0 = Instant::now();
    let report = sim.run().map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64() * 1e9 / report.events as f64)
}

/// The probes of one layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Vtime,
    Machine,
    Mem,
    Acc,
    Core,
    Coll,
    Array,
    Dsl,
    Apps,
    Flight,
}

/// Run the probes of `layers`. `tr` records one span per layer probed.
pub fn run(layers: &[Layer], sz: &Sizes, tr: &Arc<Tracer>) -> Result<Probes, String> {
    let div = sz.probe_div;
    let mut out: Probes = Vec::new();
    let all = tr.span("probes", ROOT);
    let parent = all.id();
    let want = |layer| layers.contains(&layer);

    if want(Layer::Vtime) {
        let _s = tr.span("probe.vtime", parent);
        out.push((
            "vtime.phased_ns_per_event",
            engine_ns_per_event(8, 20_000 / div, true)?,
        ));
        out.push((
            "vtime.tie_ns_per_event",
            engine_ns_per_event(8, 10_000 / div, false)?,
        ));
        let actors = 512 / div;
        let spawn_s = median_secs(3, || {
            let mut sim = Sim::new();
            for i in 0..actors {
                sim.spawn(format!("s{i}"), |_ctx| {});
            }
            sim.run().expect("actors that return at once cannot fail");
        });
        out.push(("vtime.spawn_us_per_actor", spawn_s * 1e6 / actors as f64));
    }

    if want(Layer::Machine) {
        let _s = tr.span("probe.machine", parent);
        let spec = Arc::new(presets::titan(sz.fleet_nodes));
        let build_s = median_secs(5, || {
            black_box(ClusterResources::new(spec.clone()));
        });
        out.push(("machine.build_us", build_s * 1e6));
    }

    if want(Layer::Mem) {
        let _s = tr.span("probe.mem", parent);
        let table = PresentTable::new();
        let shared = Backing::new(4096, Some(0));
        for i in 0..1024u64 {
            table.insert(PresentEntry {
                host_addr: VirtAddr(i * 8192),
                len: 4096,
                dev: DevPtr::Cuda {
                    addr: VirtAddr((1 << 40) + i * 8192),
                },
                dev_region: Region {
                    id: RegionId(i),
                    addr: VirtAddr((1 << 40) + i * 8192),
                    len: 4096,
                    space: MemSpace::Device(0),
                    backing: shared.clone(),
                },
            });
        }
        let lookups = 200_000 / div;
        let lookup_s = secs(|| {
            let mut x = 12345u64;
            for _ in 0..lookups {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = VirtAddr(((x >> 33) % 1024) * 8192 + 100);
                black_box(table.find_by_host(black_box(addr)));
            }
        });
        out.push(("mem.present_lookup_ns", lookup_s * 1e9 / lookups as f64));

        const COPY_LEN: u64 = 8 << 20;
        let (src, dst) = (Backing::new(COPY_LEN, None), Backing::new(COPY_LEN, None));
        // Touch every page of both sides first: the probe times a copy
        // between materialised buffers, not first-touch page faults.
        src.write(0, &vec![7u8; COPY_LEN as usize]);
        dst.write(0, &vec![9u8; COPY_LEN as usize]);
        let copies = (24 / div).max(2);
        let copy_s = secs(|| {
            for _ in 0..copies {
                Backing::copy(&src, 0, &dst, 0, COPY_LEN);
            }
        });
        out.push((
            "mem.backing_copy_gbps",
            (copies * COPY_LEN) as f64 / copy_s / 1e9,
        ));

        let snap_src = Backing::new(1 << 20, None);
        let snaps = 50_000 / div;
        let snap_s = secs(|| {
            for _ in 0..snaps {
                black_box(snap_src.snapshot(0, 1 << 20));
            }
        });
        out.push(("mem.snapshot_ns", snap_s * 1e9 / snaps as f64));
    }

    if want(Layer::Acc) {
        let _s = tr.span("probe.acc", parent);
        let ops = 2_000 / div;
        let kernel_s = rank0_secs(presets::test_cluster(1, 1), move |tc| {
            for _ in 0..ops {
                tc.acc_kernel(Some(1), KernelCost::flops(1.0), || {});
                tc.acc_wait(1);
            }
        })?;
        out.push(("acc.kernel_us", kernel_s * 1e6 / ops as f64));
    }

    if want(Layer::Core) {
        let _s = tr.span("probe.core", parent);
        let launch_s = median_secs((20 / div).max(3) as usize, || {
            Launch::new(presets::test_cluster(2, 2), RuntimeOptions::impacc())
                .run(|_tc| {})
                .expect("an empty app cannot fail");
        });
        out.push(("core.launch_empty_us", launch_s * 1e6));

        let q: MpscQueue<u64> = MpscQueue::new();
        let hops = 2_000_000 / div;
        let hop_s = secs(|| {
            for i in 0..hops {
                q.push(black_box(i));
                black_box(q.pop());
            }
        });
        out.push(("core.mpsc_hop_ns", hop_s * 1e9 / hops as f64));
    }

    if want(Layer::Coll) {
        let _s = tr.span("probe.coll", parent);
        let ops = 200 / div;
        let coll_s = rank0_secs(presets::test_cluster(2, 4), move |tc| {
            let vals = [tc.rank() as f64; 128]; // 1 KiB
            for _ in 0..ops {
                black_box(tc.mpi_allreduce_f64(&vals, ReduceOp::Sum));
            }
        })?;
        out.push(("coll.allreduce_us", coll_s * 1e6 / ops as f64));
    }

    if want(Layer::Array) {
        let _s = tr.span("probe.array", parent);
        let spec = ArraySpec {
            shape: vec![64, 64, 64],
            grid: CartGrid::new(8, 3),
            layout: Layout::Block,
            halo: 1,
            corners: true,
        };
        let rounds = 200 / div;
        let infer_s = secs(|| {
            for _ in 0..rounds {
                for rank in 0..8 {
                    black_box(infer(&spec.grid, rank, spec.halo, spec.corners, &|r| {
                        tile_geom(&spec, r)
                    }));
                }
            }
        });
        out.push(("array.infer_us", infer_s * 1e6 / rounds as f64));
    }

    if want(Layer::Dsl) {
        let _s = tr.span("probe.dsl", parent);
        let rounds = (60 / div).max(2);
        let mut plan_ops = 0usize;
        let compile_s = secs(|| {
            for _ in 0..rounds {
                plan_ops = 0;
                for (name, src) in impacc_dsl::EXAMPLES {
                    let c = impacc_dsl::compile(black_box(src))
                        .unwrap_or_else(|e| panic!("shipped example {name} must compile: {e}"));
                    plan_ops += c.plan.len();
                }
            }
        });
        let programs = rounds as usize * impacc_dsl::EXAMPLES.len();
        out.push(("dsl.compile_us", compile_s * 1e6 / programs as f64));
        out.push(("dsl.plan_ops", plan_ops as f64));
    }

    if want(Layer::Apps) {
        let _s = tr.span("probe.apps", parent);
        let sweeps = 4;
        let sweep_s = secs(|| {
            black_box(serial_jacobi(sz.jacobi_n, sweeps));
        });
        out.push(("apps.jacobi_sweep_ms", sweep_s * 1e3 / sweeps as f64));
    }

    if want(Layer::Flight) {
        // The always-on flight recorder's price: the msg_storm body at a
        // quarter of its size, recorder detached vs default, alternating so
        // drift hits both sides alike.
        let _s = tr.span("probe.flight", parent);
        let off = Arc::new(Tracer::new(false));
        let mut walls = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (side, flight_off) in [(0, true), (1, false)] {
                let opts = StormOpts {
                    rounds: (sz.storm_rounds / 4).max(1),
                    options: RuntimeOptions::impacc(),
                    flight_off,
                };
                let t0 = Instant::now();
                msg_storm(0, opts, &off, ROOT)?;
                walls[side].push(t0.elapsed().as_secs_f64());
            }
        }
        let (bare, recorded) = (median(&walls[0]), median(&walls[1]));
        out.push(("flight.overhead_pct", (recorded - bare) / bare * 100.0));
    }

    Ok(out)
}
