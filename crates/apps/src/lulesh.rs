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

use impacc_array::{directions, CartGrid};
use impacc_core::{MpiOpts, Rank, RunSummary, RuntimeOptions};
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

/// A task's neighbour directions, `directions(3, 3, true)`: every
/// `[dz, dy, dx]` in `{-1,0,1}³` but zero, lexicographic, so direction
/// `di`'s mirror is `NEIGHBORS - 1 - di`.
const NEIGHBORS: usize = 26;

/// Steps a displacement takes (1 face, 2 edge, 3 corner).
fn reach(d: &[isize]) -> isize {
    d.iter().map(|x| x.abs()).sum()
}

/// Surface-patch element count for a displacement on an `s`-cube:
/// faces are s², edges s, corners 1.
pub fn patch_elems(d: &[isize], s: usize) -> usize {
    match reach(d) {
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
pub async fn lulesh_task(tc: &Rank, p: &LuleshParams) {
    let size = tc.size() as usize;
    let q = (size as f64).cbrt().round() as usize;
    assert_eq!(q * q * q, size, "LULESH requires a cubic task count");
    // z slowest, x fastest: rank = x + q·(y + q·z).
    let grid = CartGrid {
        dims: vec![q, q, q],
    };
    let me = tc.rank() as usize;
    let s = p.s;
    let dirs = directions(3, 3, true);
    debug_assert_eq!(dirs.len(), NEIGHBORS);
    let peers: Vec<Option<usize>> = dirs.iter().map(|d| grid.step(me, d)).collect();

    // One send and one receive buffer per direction (host heap; LULESH's
    // comm buffers are plain mallocs).
    let mut send_bufs = Vec::with_capacity(dirs.len());
    for d in &dirs {
        send_bufs.push(tc.malloc_f64(patch_elems(d, s)).await);
    }
    let mut recv_bufs = Vec::with_capacity(dirs.len());
    for d in &dirs {
        recv_bufs.push(tc.malloc_f64(patch_elems(d, s)).await);
    }
    // The element field lives on the device.
    let field = tc.malloc_f64(s * s * s).await;
    tc.acc_copyin(&field).await;

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
        tc.acc_update_host(&field, 0, boundary_bytes, None).await;
        let mut reqs: Vec<Request> = Vec::new();
        for (di, nb) in peers.iter().enumerate() {
            let Some(nb) = *nb else { continue };
            let sb = &send_bufs[di];
            {
                let v = tc.host_view(sb);
                if math_ok(&v) {
                    let val = payload(me, di, iter);
                    v.with_f64s_mut(0, sb.elems(), |out| out.fill(val));
                }
            }
            let tag = di as i32;
            reqs.push(
                tc.mpi_isend(sb, 0, sb.len, nb as u32, tag, MpiOpts::host())
                    .await,
            );
            // The matching receive uses the opposite direction's tag.
            let opp = NEIGHBORS - 1 - di;
            reqs.push(
                tc.mpi_irecv(
                    &recv_bufs[di],
                    0,
                    recv_bufs[di].len,
                    nb as u32,
                    opp as i32,
                    MpiOpts::host(),
                )
                .await,
            );
        }
        tc.mpi_waitall(&reqs).await;
        tc.acc_update_device(&field, 0, boundary_bytes, None).await;

        if p.verify {
            for (di, nb) in peers.iter().enumerate() {
                let Some(nb) = *nb else { continue };
                let v = tc.host_view(&recv_bufs[di]);
                if math_ok(&v) {
                    let expect = payload(nb, NEIGHBORS - 1 - di, iter);
                    let got = v.read_f64s(0, 1)[0];
                    assert_eq!(got, expect, "halo from {nb} dir {:?}", dirs[di]);
                }
            }
        }

        tc.acc_kernel(None, phase_cost[0], || {}).await;

        // ---- phase 2: element-centred exchange over the 6 faces --------
        let mut reqs: Vec<Request> = Vec::new();
        for (di, nb) in peers.iter().enumerate() {
            if reach(&dirs[di]) != 1 {
                continue;
            }
            let Some(nb) = *nb else { continue };
            let tag = 100 + di as i32;
            let sb = &send_bufs[di];
            reqs.push(
                tc.mpi_isend(sb, 0, sb.len, nb as u32, tag, MpiOpts::host())
                    .await,
            );
            let opp = NEIGHBORS - 1 - di;
            reqs.push(
                tc.mpi_irecv(
                    &recv_bufs[di],
                    0,
                    recv_bufs[di].len,
                    nb as u32,
                    100 + opp as i32,
                    MpiOpts::host(),
                )
                .await,
            );
        }
        tc.mpi_waitall(&reqs).await;
        tc.acc_kernel(None, phase_cost[1], || {}).await;
        tc.acc_kernel(None, phase_cost[2], || {}).await;

        // ---- time-constraint reduction ----------------------------------
        // Local constraint from the received boundary payloads (their
        // magnitude grows with the iteration stamp, so dt shrinks);
        // huge-scale runs without live data fall back to a deterministic
        // decreasing sequence.
        let mut boundary_max = 0.0f64;
        let mut have_data = false;
        for (di, nb) in peers.iter().enumerate() {
            if nb.is_none() {
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
        let dt = tc.mpi_allreduce_f64(&[local_dt], ReduceOp::Min).await;
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
    launch_app(spec, options, phys_cap, move |tc| {
        let params = params.clone();
        async move { lulesh_task(&tc, &params).await }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;

    /// LULESH's cube on the array grid: rank = x + q·(y + q·z).
    #[test]
    fn coordinates_round_trip() {
        for q in [1usize, 2, 3] {
            let grid = CartGrid {
                dims: vec![q, q, q],
            };
            for r in 0..q * q * q {
                let c = |d| grid.coord(r, d);
                assert_eq!(c(2) + q * (c(1) + q * c(0)), r);
            }
        }
    }

    /// The directions run `[dz, dy, dx]`, x fastest, and the exchange
    /// pairs direction `di` with its mirror at `NEIGHBORS - 1 - di`.
    #[test]
    fn directions_are_26_and_symmetric() {
        let dirs = directions(3, 3, true);
        assert_eq!(dirs.len(), NEIGHBORS);
        for (di, d) in dirs.iter().enumerate() {
            let neg: Vec<isize> = d.iter().map(|x| -x).collect();
            assert_eq!(dirs[NEIGHBORS - 1 - di], neg);
        }
        assert_eq!(
            (&dirs[12][..], &dirs[13][..]),
            (&[0, 0, -1][..], &[0, 0, 1][..])
        );
    }

    #[test]
    fn interior_task_has_26_neighbors() {
        let grid = CartGrid {
            dims: vec![3, 3, 3],
        };
        let dirs = directions(3, 3, true);
        // Rank 13 is the centre of the cube; a corner task has 7.
        let count = |r| dirs.iter().filter(|d| grid.step(r, d).is_some()).count();
        assert_eq!((count(13), count(0)), (26, 7));
    }

    #[test]
    fn patch_sizes_follow_geometry() {
        assert_eq!(patch_elems(&[0, 0, 1], 8), 64);
        assert_eq!(patch_elems(&[0, 1, 1], 8), 8);
        assert_eq!(patch_elems(&[1, 1, 1], 8), 1);
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
