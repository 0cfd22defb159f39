//! LULESH-style shock hydrodynamics proxy (§4.2).
//!
//! LULESH solves the hydrodynamics equations on a staggered 3-D mesh; a
//! task owns an `s×s×s` element cube and exchanges its surface with up to
//! 26 nearest neighbours in a Cartesian topology each iteration
//! (computation O(s³), communication O(s²)). The task count must be a
//! perfect cube.
//!
//! As in the paper's experiment — which runs the *unmodified* LULESH 2.0
//! MPI+OpenACC code — **all communication is host-to-host** in both
//! models; IMPACC's gains come from NUMA-friendly pinning and message
//! fusion (one host copy instead of two + IPC), while its per-message
//! handler overhead is what costs ~5% on Beacon.
//!
//! Each iteration performs LULESH's three communication phases over the
//! proxy field, with device kernels between them, and a periodic
//! allreduce standing in for the `dtcourant`/`dthydro` reduction.

use impacc_core::{MpiOpts, RunSummary, RuntimeOptions, TaskCtx};
use impacc_machine::{KernelCost, MachineSpec};
use impacc_mpi::{ReduceOp, Request};
use impacc_vtime::SimError;

use crate::common::{launch_app, math_ok};

/// LULESH workload parameters (weak scaling: `s` is per-task).
#[derive(Clone, Debug)]
pub struct LuleshParams {
    /// Elements per cube edge per task (problem size s³ per task).
    pub s: usize,
    /// Time-step iterations.
    pub iters: usize,
    /// Verify halo contents every iteration.
    pub verify: bool,
}

/// 3-D task grid coordinates for a cubic decomposition.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Coord {
    /// Grid extent per dimension (tasks = q³).
    pub q: usize,
    /// Position.
    pub x: usize,
    /// Position.
    pub y: usize,
    /// Position.
    pub z: usize,
}

impl Coord {
    /// Coordinates of `rank` in a `q³` grid (x fastest).
    pub fn of(rank: usize, q: usize) -> Coord {
        Coord {
            q,
            x: rank % q,
            y: (rank / q) % q,
            z: rank / (q * q),
        }
    }

    /// Rank of these coordinates.
    pub fn rank(&self) -> usize {
        self.x + self.q * (self.y + self.q * self.z)
    }

    /// The neighbour displaced by `(dx,dy,dz)`, if inside the grid.
    pub fn neighbor(&self, d: (i32, i32, i32)) -> Option<Coord> {
        let shift = |v: usize, dv: i32| -> Option<usize> {
            let nv = v as i32 + dv;
            (nv >= 0 && nv < self.q as i32).then_some(nv as usize)
        };
        Some(Coord {
            q: self.q,
            x: shift(self.x, d.0)?,
            y: shift(self.y, d.1)?,
            z: shift(self.z, d.2)?,
        })
    }
}

/// All 26 neighbour displacement vectors, in deterministic order.
pub fn directions() -> Vec<(i32, i32, i32)> {
    let mut v = Vec::with_capacity(26);
    for dz in -1..=1 {
        for dy in -1..=1 {
            for dx in -1..=1 {
                if (dx, dy, dz) != (0, 0, 0) {
                    v.push((dx, dy, dz));
                }
            }
        }
    }
    v
}

/// Surface-patch element count for a displacement on an `s`-cube:
/// faces are s², edges s, corners 1.
pub fn patch_elems(d: (i32, i32, i32), s: usize) -> usize {
    match d.0.abs() + d.1.abs() + d.2.abs() {
        1 => s * s,
        2 => s,
        3 => 1,
        _ => unreachable!("displacement out of range"),
    }
}

/// Deterministic halo payload marker: what `rank` sends in `dir` at `iter`.
fn payload(rank: usize, dir_idx: usize, iter: usize) -> f64 {
    (rank * 1_000_000 + iter * 100 + dir_idx) as f64
}

/// The per-task LULESH proxy program.
pub fn lulesh_task(tc: &TaskCtx, p: &LuleshParams) {
    let size = tc.size() as usize;
    let q = (size as f64).cbrt().round() as usize;
    assert_eq!(q * q * q, size, "LULESH requires a cubic task count");
    let me = Coord::of(tc.rank() as usize, q);
    let s = p.s;
    let dirs = directions();

    // One send and one receive buffer per direction (host heap; LULESH's
    // comm buffers are plain mallocs).
    let send_bufs: Vec<_> = dirs
        .iter()
        .map(|d| tc.malloc_f64(patch_elems(*d, s)))
        .collect();
    let recv_bufs: Vec<_> = dirs
        .iter()
        .map(|d| tc.malloc_f64(patch_elems(*d, s)))
        .collect();
    // The element field lives on the device.
    let field = tc.malloc_f64(s * s * s);
    tc.acc_copyin(&field);

    // Per-iteration costs: three kernel phases like LULESH's
    // CalcForce / CalcLagrange / CalcTimeConstraints split.
    let elems = (s * s * s) as f64;
    // ~2.5k flops and ~1KB of traffic per element per step, split like
    // LULESH's CalcForce / CalcLagrange / CalcTimeConstraints phases.
    let phase_cost = [
        KernelCost::new(1500.0 * elems, 480.0 * elems),
        KernelCost::new(800.0 * elems, 320.0 * elems),
        KernelCost::new(250.0 * elems, 160.0 * elems),
    ];

    // Boundary data lives on the device; LULESH updates it to the host
    // before each exchange and back after (unmodified app: both models
    // pay these PCIe transfers — pinning decides how fast they are).
    let boundary_bytes = ((6 * s * s * 8) as u64).min(field.len);

    // The Courant-style time constraint: each rank derives a local dt
    // from the boundary state it actually received this iteration, and
    // the global step is the Min-allreduce of those. Advancing the
    // simulated clock by the reduced value is what makes every rank
    // march in lock-step.
    let mut sim_time = 0.0f64;
    let mut prev_dt = f64::INFINITY;

    for iter in 0..p.iters {
        // ---- phase 1: node-centred exchange over all 26 neighbours -----
        tc.acc_update_host(&field, 0, boundary_bytes, None);
        let mut reqs: Vec<Request> = Vec::new();
        for (di, d) in dirs.iter().enumerate() {
            let Some(nb) = me.neighbor(*d) else { continue };
            let sb = &send_bufs[di];
            {
                let v = tc.host_view(sb);
                if math_ok(&v) {
                    let val = payload(me.rank(), di, iter);
                    v.with_f64s_mut(0, sb.elems(), |out| out.fill(val));
                }
            }
            let tag = di as i32;
            reqs.push(tc.mpi_isend(sb, 0, sb.len, nb.rank() as u32, tag, MpiOpts::host()));
            // The matching receive uses the opposite direction's tag.
            let opp = dirs
                .iter()
                .position(|o| *o == (-d.0, -d.1, -d.2))
                .expect("directions are symmetric");
            reqs.push(tc.mpi_irecv(
                &recv_bufs[di],
                0,
                recv_bufs[di].len,
                nb.rank() as u32,
                opp as i32,
                MpiOpts::host(),
            ));
        }
        tc.mpi_waitall(&reqs);
        tc.acc_update_device(&field, 0, boundary_bytes, None);

        if p.verify {
            for (di, d) in dirs.iter().enumerate() {
                let Some(nb) = me.neighbor(*d) else { continue };
                let v = tc.host_view(&recv_bufs[di]);
                if math_ok(&v) {
                    let opp = dirs
                        .iter()
                        .position(|o| *o == (-d.0, -d.1, -d.2))
                        .expect("symmetric");
                    let expect = payload(nb.rank(), opp, iter);
                    let got = v.read_f64s(0, 1)[0];
                    assert_eq!(got, expect, "halo from {:?} dir {d:?}", nb);
                }
            }
        }

        tc.acc_kernel(None, phase_cost[0], || {});

        // ---- phase 2: element-centred exchange over the 6 faces --------
        let mut reqs: Vec<Request> = Vec::new();
        for (di, d) in dirs.iter().enumerate() {
            if d.0.abs() + d.1.abs() + d.2.abs() != 1 {
                continue;
            }
            let Some(nb) = me.neighbor(*d) else { continue };
            let tag = 100 + di as i32;
            let sb = &send_bufs[di];
            reqs.push(tc.mpi_isend(sb, 0, sb.len, nb.rank() as u32, tag, MpiOpts::host()));
            let opp = dirs
                .iter()
                .position(|o| *o == (-d.0, -d.1, -d.2))
                .expect("symmetric");
            reqs.push(tc.mpi_irecv(
                &recv_bufs[di],
                0,
                recv_bufs[di].len,
                nb.rank() as u32,
                100 + opp as i32,
                MpiOpts::host(),
            ));
        }
        tc.mpi_waitall(&reqs);
        tc.acc_kernel(None, phase_cost[1], || {});
        tc.acc_kernel(None, phase_cost[2], || {});

        // ---- time-constraint reduction ----------------------------------
        // Local constraint from the received boundary payloads (their
        // magnitude grows with the iteration stamp, so dt shrinks);
        // huge-scale runs without live data fall back to a deterministic
        // decreasing sequence.
        let mut boundary_max = 0.0f64;
        let mut have_data = false;
        for (di, d) in dirs.iter().enumerate() {
            if me.neighbor(*d).is_none() {
                continue;
            }
            let v = tc.host_view(&recv_bufs[di]);
            if math_ok(&v) {
                boundary_max = boundary_max.max(v.read_f64s(0, 1)[0].abs());
                have_data = true;
            }
        }
        let local_dt = if have_data {
            1.0 / (2.0 + boundary_max)
        } else {
            1.0 / (iter + 1) as f64
        };
        let dt = tc.mpi_allreduce_f64(&[local_dt], ReduceOp::Min);
        assert!(
            dt[0] > 0.0 && dt[0] <= local_dt,
            "global dt must satisfy every rank's constraint"
        );
        assert!(
            dt[0] < prev_dt,
            "time constraint must tighten as the boundary state advances"
        );
        prev_dt = dt[0];
        sim_time += dt[0];
    }
    assert!(
        p.iters == 0 || sim_time > 0.0,
        "the reduced dt drives the simulated clock"
    );
}

/// Run the LULESH proxy and return the report.
pub fn run_lulesh(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    params: LuleshParams,
) -> Result<RunSummary, SimError> {
    launch_app(spec, options, phys_cap, move |tc| lulesh_task(tc, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;

    #[test]
    fn coordinates_round_trip() {
        for q in [1usize, 2, 3] {
            for r in 0..q * q * q {
                assert_eq!(Coord::of(r, q).rank(), r);
            }
        }
    }

    #[test]
    fn directions_are_26_and_symmetric() {
        let dirs = directions();
        assert_eq!(dirs.len(), 26);
        for d in &dirs {
            assert!(dirs.contains(&(-d.0, -d.1, -d.2)));
        }
    }

    #[test]
    fn patch_sizes_follow_geometry() {
        assert_eq!(patch_elems((1, 0, 0), 8), 64);
        assert_eq!(patch_elems((1, 1, 0), 8), 8);
        assert_eq!(patch_elems((1, 1, 1), 8), 1);
    }

    #[test]
    fn interior_task_has_26_neighbors() {
        let c = Coord::of(13, 3); // centre of a 3x3x3 grid
        assert_eq!((c.x, c.y, c.z), (1, 1, 1));
        let n = directions()
            .iter()
            .filter(|d| c.neighbor(**d).is_some())
            .count();
        assert_eq!(n, 26);
        // A corner task has 7.
        let corner = Coord::of(0, 3);
        let n = directions()
            .iter()
            .filter(|d| corner.neighbor(**d).is_some())
            .count();
        assert_eq!(n, 7);
    }

    #[test]
    fn single_task_lulesh_runs() {
        run_lulesh(
            presets::test_cluster(1, 1),
            RuntimeOptions::impacc(),
            None,
            LuleshParams {
                s: 4,
                iters: 3,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn eight_tasks_halo_contents_verified_both_modes() {
        for opts in [RuntimeOptions::impacc(), RuntimeOptions::baseline()] {
            run_lulesh(
                presets::test_cluster(1, 8),
                opts,
                None,
                LuleshParams {
                    s: 3,
                    iters: 2,
                    verify: true,
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn twenty_seven_tasks_across_nodes() {
        // 27 tasks over 4 nodes x 8 devices = 32 slots (5 idle is fine:
        // use 27 of them by trimming the spec).
        let mut spec = presets::test_cluster(4, 8);
        spec.nodes[3].devices.truncate(3); // 8+8+8+3 = 27
        run_lulesh(
            spec,
            RuntimeOptions::impacc(),
            None,
            LuleshParams {
                s: 2,
                iters: 2,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn impacc_wins_on_psg_single_node() {
        // Paper-scale per-task problem (its Figure 15 titles use sizes in
        // the tens per edge): faces are large enough that fusing away a
        // copy beats the message-command overhead.
        let p = LuleshParams {
            s: 48,
            iters: 4,
            verify: false,
        };
        let i = run_lulesh(presets::psg(), RuntimeOptions::impacc(), None, p.clone()).unwrap();
        let b = run_lulesh(presets::psg(), RuntimeOptions::baseline(), None, p).unwrap();
        assert!(
            i.elapsed_secs() < b.elapsed_secs(),
            "pinning + fusion should win: {} vs {}",
            i.elapsed_secs(),
            b.elapsed_secs()
        );
    }
}
