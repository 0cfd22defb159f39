//! 2-D Jacobi iteration (§4.2): a five-point stencil on an `n×n` mesh,
//! partitioned in one dimension; each sweep exchanges boundary rows with
//! the two neighbours.
//!
//! The field lives in device memory for the whole run. Under IMPACC the
//! halo rows are sent straight from device memory
//! (`#pragma acc mpi sendbuf(device) async(1)`), so an intra-node exchange
//! between two GPUs fuses into one direct DtoD peer copy (the Figure 14
//! effect). The baseline stages: `update host`, host MPI, `update device`
//! every sweep.

use std::sync::Arc;

use impacc_array::{CartGrid, ResProbe};
use impacc_core::{BufView, HBuf, MpiOpts, RunSummary, RuntimeOptions, TaskCtx};
use impacc_machine::{KernelCost, MachineSpec};
use impacc_vtime::SimError;

use crate::common::{launch_app, math_ok, BlockPartition};

/// Jacobi workload parameters.
#[derive(Clone, Debug)]
pub struct JacobiParams {
    /// Mesh dimension (`n×n`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: usize,
    /// Gather and compare against a serial reference at the end.
    pub verify: bool,
}

const TAG_UP: i32 = 200; // travelling towards lower ranks
const TAG_DOWN: i32 = 201; // travelling towards higher ranks
const TAG_GATHER: i32 = 202;

/// Boundary condition: the global top row is held at 1, everything else
/// starts (and stays, on the other borders) at 0.
fn initial_value(global_row: isize) -> f64 {
    if global_row < 0 {
        1.0
    } else {
        0.0
    }
}

/// `max |a[k] − b[k]|`. `f64::max` chains do not vectorize (one dependent
/// max per element); eight independent lanes do, and a maximum does not
/// depend on the order it is taken in, so the bits match a plain fold.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let (mut ac, mut bc) = (a.chunks_exact(8), b.chunks_exact(8));
    for (x, y) in (&mut ac).zip(&mut bc) {
        for k in 0..8 {
            lanes[k] = lanes[k].max((x[k] - y[k]).abs());
        }
    }
    let tail = ac.remainder().iter().zip(bc.remainder());
    lanes
        .into_iter()
        .chain(tail.map(|(x, y)| (x - y).abs()))
        .fold(0.0, f64::max)
}

/// One five-point sweep over rows `1..=rows` of an `n`-wide field (row 0
/// and row `rows + 1` are ghosts, the first and last columns are held):
/// `dst` gets the new interior; with `residual`, returns `max |new − old|`.
/// Shared by the device kernel and the serial oracle so both evaluate the
/// same expression in the same association order — bit-identical results.
/// Whole-row slices hoist the bounds checks so the column loop vectorizes.
fn sweep_rows(src: &[f64], dst: &mut [f64], rows: usize, n: usize, residual: bool) -> f64 {
    let mut res = 0.0f64;
    if n < 3 {
        return res; // no interior column
    }
    for i in 1..=rows {
        let up = &src[(i - 1) * n..i * n];
        let mid = &src[i * n..(i + 1) * n];
        let down = &src[(i + 1) * n..(i + 2) * n];
        let out = &mut dst[i * n..(i + 1) * n];
        for j in 1..n - 1 {
            out[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
        }
        if residual {
            res = res.max(max_abs_diff(&out[1..n - 1], &mid[1..n - 1]));
        }
    }
    res
}

/// The serial reference: `iters` sweeps over the full mesh (ghost frame of
/// the same boundary conditions). Returns the `n × n` interior, row-major.
pub fn serial_jacobi(n: usize, iters: usize) -> Vec<f64> {
    // (n+2) x n with ghost top/bottom; left/right borders are the first
    // and last columns, held fixed.
    let mut u = vec![0.0f64; (n + 2) * n];
    let mut v = vec![0.0f64; (n + 2) * n];
    u[..n].fill(1.0); // ghost top = 1
    v[..n].fill(1.0);
    for _ in 0..iters {
        sweep_rows(&u, &mut v, n, n, false);
        std::mem::swap(&mut u, &mut v);
    }
    // Drop the ghost rows where the field is, not into a third mesh.
    u.truncate((n + 1) * n);
    u.drain(..n);
    u
}

/// The per-task Jacobi program. Returns the final local interior rows
/// (for tests); timing is in the run report.
pub fn jacobi_task(tc: &TaskCtx, p: &JacobiParams) {
    jacobi_task_probed(tc, p, None)
}

/// [`jacobi_task`] with an optional residual probe: rank 0 pushes every
/// globally-reduced residual, so harnesses can compare the convergence
/// history bit-for-bit against the array-API reimplementation.
pub fn jacobi_task_probed(tc: &TaskCtx, p: &JacobiParams, probe: Option<&ResProbe>) {
    let n = p.n;
    let rank = tc.rank() as usize;
    let size = tc.size() as usize;
    let part = BlockPartition::new(n, size);
    let rows = part.counts[rank];
    if rows == 0 {
        // Degenerate partition: still participate in the gather.
        if p.verify && rank != 0 {
            return;
        }
    }
    let impacc = tc.options().is_impacc();
    let row_bytes = (n * 8) as u64;

    // Local field: rows + 2 ghost rows, double buffered.
    let mut u = tc.malloc_f64((rows + 2) * n);
    let mut unew = tc.malloc_f64((rows + 2) * n);
    {
        let uv = tc.host_view(&u);
        if math_ok(&uv) {
            for view in [uv, tc.host_view(&unew)] {
                view.with_f64s_mut(0, (rows + 2) * n, |field| {
                    for (li, row) in field.chunks_exact_mut(n).enumerate() {
                        row.fill(initial_value(part.offsets[rank] as isize + li as isize - 1));
                    }
                });
            }
        }
    }
    tc.acc_copyin(&u);
    tc.acc_copyin(&unew);

    let grid = CartGrid::line(size);
    let up = grid.neighbor(rank, 0, -1).map(|r| r as u32);
    let down = (rows > 0)
        .then(|| grid.neighbor(rank, 0, 1).map(|r| r as u32))
        .flatten();

    let stencil_cost = KernelCost::new(
        6.0 * rows.max(1) as f64 * n as f64,
        (rows + 2) as f64 * n as f64 * 16.0,
    );

    // Setup (allocation + copyin) ends here; trace consumers cut on this
    // marker to attribute copies to the sweeps alone.
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    // Local residual max|unew − u| written by the sweep kernel (shared
    // because the kernel may run asynchronously on queue 1). Huge-scale
    // runs with capped backings skip the math; they fall back to a
    // deterministic decreasing sequence so the reduce stays meaningful.
    let local_res: Arc<parking_lot::Mutex<f64>> = Arc::new(parking_lot::Mutex::new(0.0));
    let mut residuals: Vec<f64> = Vec::new();

    for it in 0..p.iters {
        if rows > 0 {
            // ---- halo exchange on u -------------------------------------
            if impacc && tc.options().unified_queue {
                // Device-resident halos on the unified activity queue: the
                // sends complete at issue, the receives gate the kernel.
                if let Some(upr) = up {
                    tc.mpi_send(
                        &u,
                        row_bytes,
                        row_bytes,
                        upr,
                        TAG_UP,
                        MpiOpts::device().on_queue(1),
                    );
                }
                if let Some(dn) = down {
                    tc.mpi_send(
                        &u,
                        rows as u64 * row_bytes,
                        row_bytes,
                        dn,
                        TAG_DOWN,
                        MpiOpts::device().on_queue(1),
                    );
                }
                if let Some(upr) = up {
                    tc.mpi_recv(
                        &u,
                        0,
                        row_bytes,
                        upr,
                        TAG_DOWN,
                        MpiOpts::device().on_queue(1),
                    );
                }
                if let Some(dn) = down {
                    tc.mpi_recv(
                        &u,
                        (rows as u64 + 1) * row_bytes,
                        row_bytes,
                        dn,
                        TAG_UP,
                        MpiOpts::device().on_queue(1),
                    );
                }
            } else if impacc {
                // IMPACC without the unified queue (ablation): unified
                // device-buffer calls, explicit blocking order.
                let mut reqs = Vec::new();
                if let Some(upr) = up {
                    reqs.push(tc.mpi_isend(
                        &u,
                        row_bytes,
                        row_bytes,
                        upr,
                        TAG_UP,
                        MpiOpts::device(),
                    ));
                    reqs.push(tc.mpi_irecv(&u, 0, row_bytes, upr, TAG_DOWN, MpiOpts::device()));
                }
                if let Some(dn) = down {
                    reqs.push(tc.mpi_isend(
                        &u,
                        rows as u64 * row_bytes,
                        row_bytes,
                        dn,
                        TAG_DOWN,
                        MpiOpts::device(),
                    ));
                    reqs.push(tc.mpi_irecv(
                        &u,
                        (rows as u64 + 1) * row_bytes,
                        row_bytes,
                        dn,
                        TAG_UP,
                        MpiOpts::device(),
                    ));
                }
                tc.mpi_waitall(&reqs);
            } else {
                // Baseline: stage boundary rows through the host.
                if up.is_some() {
                    tc.acc_update_host(&u, row_bytes, row_bytes, None);
                }
                if down.is_some() {
                    tc.acc_update_host(&u, rows as u64 * row_bytes, row_bytes, None);
                }
                let mut reqs = Vec::new();
                if let Some(upr) = up {
                    reqs.push(tc.mpi_isend(&u, row_bytes, row_bytes, upr, TAG_UP, MpiOpts::host()));
                    reqs.push(tc.mpi_irecv(&u, 0, row_bytes, upr, TAG_DOWN, MpiOpts::host()));
                }
                if let Some(dn) = down {
                    reqs.push(tc.mpi_isend(
                        &u,
                        rows as u64 * row_bytes,
                        row_bytes,
                        dn,
                        TAG_DOWN,
                        MpiOpts::host(),
                    ));
                    reqs.push(tc.mpi_irecv(
                        &u,
                        (rows as u64 + 1) * row_bytes,
                        row_bytes,
                        dn,
                        TAG_UP,
                        MpiOpts::host(),
                    ));
                }
                tc.mpi_waitall(&reqs);
                if up.is_some() {
                    tc.acc_update_device(&u, 0, row_bytes, None);
                }
                if down.is_some() {
                    tc.acc_update_device(&u, (rows as u64 + 1) * row_bytes, row_bytes, None);
                }
            }

            // ---- stencil sweep ------------------------------------------
            let uv = tc.dev_view(&u);
            let vv = tc.dev_view(&unew);
            let res_out = local_res.clone();
            let sweep = move || {
                if !math_ok(&uv) {
                    *res_out.lock() = 1.0 / (it + 1) as f64;
                    return;
                }
                *res_out.lock() = BufView::with_views_mut(&[&uv], &vv, |src, dst| {
                    sweep_rows(src[0], dst, rows, n, true)
                });
            };
            if impacc && tc.options().unified_queue {
                tc.acc_kernel(Some(1), stencil_cost, sweep);
            } else {
                tc.acc_kernel(None, stencil_cost, sweep);
            }
        }
        // Convergence check: the global residual, reduced every sweep —
        // the log(p) term that eventually dominates at Titan scale. The
        // sweep kernel must have completed before its residual is read.
        if impacc && tc.options().unified_queue {
            tc.acc_wait(1);
        }
        let mine = *local_res.lock();
        let residual = tc.mpi_allreduce_f64(&[mine], impacc_mpi::ReduceOp::Max);
        assert!(
            residual[0].is_finite() && residual[0] >= mine,
            "global residual must bound the local one"
        );
        if let Some(pr) = probe {
            if rank == 0 {
                pr.push(residual[0]);
            }
        }
        residuals.push(residual[0]);
        std::mem::swap(&mut u, &mut unew);
    }
    // The reduced residual drives convergence: Jacobi on this boundary
    // problem relaxes, so the final global residual cannot exceed the
    // first (every rank agrees — it came out of the allreduce).
    if p.iters > 1 && rows > 0 {
        assert!(
            residuals.last().unwrap() <= residuals.first().unwrap(),
            "jacobi residual failed to relax: {residuals:?}"
        );
    }
    if impacc && tc.options().unified_queue {
        tc.acc_wait(1);
    }

    // ---- verification gather -------------------------------------------
    if p.verify {
        if rows > 0 {
            tc.acc_update_host(&u, row_bytes, rows as u64 * row_bytes, None);
        }
        if rank == 0 {
            let full = tc.malloc_f64(n * n);
            let fv = tc.host_view(&full);
            if rows > 0 {
                let uv = tc.host_view(&u);
                if math_ok(&uv) {
                    BufView::with_views_mut(&[&uv], &fv, |mine, full| {
                        full[..rows * n].copy_from_slice(&mine[0][n..(rows + 1) * n]);
                    });
                }
            }
            for r in 1..size {
                if part.counts[r] == 0 {
                    continue;
                }
                tc.mpi_recv(
                    &full,
                    (part.offsets[r] * n * 8) as u64,
                    (part.counts[r] * n * 8) as u64,
                    r as u32,
                    TAG_GATHER,
                    MpiOpts::host(),
                );
            }
            if math_ok(&fv) {
                let reference = serial_jacobi(n, p.iters);
                fv.with_f64s(0, n * n, |got| {
                    for (k, (g, e)) in got.iter().zip(reference.iter()).enumerate() {
                        assert!(
                            (g - e).abs() < 1e-12,
                            "mesh[{k}] = {g}, reference {e} (n={n}, {} tasks)",
                            size
                        );
                    }
                });
            }
        } else if rows > 0 {
            tc.mpi_send(
                &u,
                row_bytes,
                rows as u64 * row_bytes,
                0,
                TAG_GATHER,
                MpiOpts::host(),
            );
        }
    }
    let _: (HBuf, HBuf) = (u, unew);
}

/// Run Jacobi and return the report.
pub fn run_jacobi(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    params: JacobiParams,
) -> Result<RunSummary, SimError> {
    launch_app(spec, options, phys_cap, move |tc| jacobi_task(tc, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;

    #[test]
    fn serial_reference_converges_downward() {
        let u = serial_jacobi(16, 50);
        // Heat flows from the hot top edge: interior row 0 is warmer than
        // the last interior row.
        let top_mid = u[16 / 2];
        let bottom_mid = u[15 * 16 + 16 / 2];
        assert!(top_mid > bottom_mid);
        assert!(top_mid > 0.0 && top_mid < 1.0);
    }

    #[test]
    fn impacc_jacobi_matches_serial() {
        for tasks in [1usize, 2, 4] {
            run_jacobi(
                presets::test_cluster(1, tasks),
                RuntimeOptions::impacc(),
                None,
                JacobiParams {
                    n: 16,
                    iters: 7,
                    verify: true,
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn baseline_jacobi_matches_serial() {
        for tasks in [2usize, 3] {
            run_jacobi(
                presets::test_cluster(1, tasks.min(8)),
                RuntimeOptions::baseline(),
                None,
                JacobiParams {
                    n: 15,
                    iters: 5,
                    verify: true,
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn multinode_jacobi_matches_serial() {
        run_jacobi(
            presets::test_cluster(2, 2),
            RuntimeOptions::impacc(),
            None,
            JacobiParams {
                n: 12,
                iters: 6,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn impacc_halos_use_direct_dtod_on_psg() {
        let s = run_jacobi(
            presets::psg(),
            RuntimeOptions::impacc(),
            None,
            JacobiParams {
                n: 64,
                iters: 3,
                verify: false,
            },
        )
        .unwrap();
        assert!(
            s.report.metrics["DtoD"] > 0,
            "halos must fuse to peer copies"
        );
        // Host copies exist only for the (tiny) residual allreduce, never
        // for the halo payload itself.
        let htoh = s.report.metrics.get("HtoH").copied().unwrap_or(0);
        assert!(
            htoh < s.report.metrics["DtoD"] / 10,
            "halos must not stage through the host: HtoH = {htoh}"
        );
    }

    #[test]
    fn baseline_stages_through_host() {
        let s = run_jacobi(
            presets::psg(),
            RuntimeOptions::baseline(),
            None,
            JacobiParams {
                n: 64,
                iters: 3,
                verify: false,
            },
        )
        .unwrap();
        assert!(s.report.metrics["HtoD"] > 0);
        assert!(s.report.metrics["DtoH"] > 0);
        assert_eq!(s.report.metrics.get("DtoD"), None);
    }

    #[test]
    fn impacc_beats_baseline_on_psg() {
        let p = JacobiParams {
            n: 512,
            iters: 5,
            verify: false,
        };
        let i = run_jacobi(presets::psg(), RuntimeOptions::impacc(), None, p.clone()).unwrap();
        let b = run_jacobi(presets::psg(), RuntimeOptions::baseline(), None, p).unwrap();
        assert!(
            i.elapsed_secs() < b.elapsed_secs(),
            "IMPACC {} vs baseline {}",
            i.elapsed_secs(),
            b.elapsed_secs()
        );
    }
}
