//! Distributed DGEMM (§4.2): `C = A × B` over square `n×n` matrices.
//!
//! The root task owns `A` and `B`; it sends each task a row block of `A`
//! and broadcasts `B` to everyone, each task multiplies its block on its
//! accelerator, and the root gathers the row blocks of `C`.
//!
//! Under IMPACC the inputs are read-only, so node-local tasks *alias* the
//! root's `A` slices and the broadcast `B` (node heap aliasing), the
//! block transfers fuse into single copies, and the whole per-task
//! pipeline (HtoD, kernel, DtoH, sends) rides one activity queue with no
//! host synchronization (Figure 4(c) style). The baseline does the
//! Figure 4(b) thing: explicit staging plus `acc wait` / `MPI_Waitall`
//! between the MPI and OpenACC streamlines.

use impacc_core::{BufView, MpiOpts, RunSummary, RuntimeOptions, TaskCtx};
use impacc_machine::{KernelCost, MachineSpec};
use impacc_vtime::SimError;

use crate::common::{launch_app, math_ok, BlockPartition};

/// DGEMM workload parameters.
#[derive(Clone, Debug)]
pub struct DgemmParams {
    /// Matrix dimension (matrices are `n×n` doubles).
    pub n: usize,
    /// Check the product against a reference at the root (only sound for
    /// small `n` with full physical backing).
    pub verify: bool,
}

fn a_at(i: usize, j: usize) -> f64 {
    ((i + 2 * j) % 5) as f64 - 2.0
}

fn b_at(i: usize, j: usize) -> f64 {
    ((3 * i + j) % 7) as f64 - 3.0
}

const TAG_A: i32 = 100;
const TAG_C: i32 = 101;

/// The per-task DGEMM program.
pub fn dgemm_task(tc: &TaskCtx, p: &DgemmParams) {
    let n = p.n;
    let rank = tc.rank() as usize;
    let size = tc.size() as usize;
    let part = BlockPartition::new(n, size);
    let my_rows = part.counts[rank];
    let impacc = tc.options().is_impacc();

    // ---- allocation & input distribution -------------------------------
    let b = tc.malloc_f64(n * n);
    let a_block = tc.malloc_f64(my_rows.max(1) * n);
    let a_full = if rank == 0 {
        let a = tc.malloc_f64(n * n);
        let av = tc.host_view(&a);
        if math_ok(&av) {
            let fill = |view: BufView, at: fn(usize, usize) -> f64| {
                view.with_f64s_mut(0, n * n, |m| {
                    for (k, x) in m.iter_mut().enumerate() {
                        *x = at(k / n, k % n);
                    }
                })
            };
            fill(av, a_at);
            fill(tc.host_view(&b), b_at);
        }
        Some(a)
    } else {
        None
    };

    // Broadcast B. IMPACC: read-only → node heap aliasing (§3.8 collective).
    let bcast_opts = if impacc {
        MpiOpts::host().readonly()
    } else {
        MpiOpts::host()
    };
    tc.mpi_bcast(&b, 0, bcast_opts);

    // Root scatters A row blocks; the slices are read-only so node-local
    // tasks alias straight into the root's A (Figure 7).
    let send_opts = if impacc {
        MpiOpts::host().readonly()
    } else {
        MpiOpts::host()
    };
    if rank == 0 {
        let a = a_full.as_ref().expect("root owns A");
        for r in 1..size {
            if part.counts[r] == 0 {
                continue;
            }
            let off = (part.offsets[r] * n * 8) as u64;
            let len = (part.counts[r] * n * 8) as u64;
            tc.mpi_send(a, off, len, r as u32, TAG_A, send_opts);
        }
        // The root's own block travels as a self message so that — like
        // everyone else — only the block (not all of A) gets a device
        // mirror; under IMPACC the read-only self transfer aliases.
        if my_rows > 0 {
            let req = tc.mpi_isend(
                a,
                (part.offsets[0] * n * 8) as u64,
                (my_rows * n * 8) as u64,
                0,
                TAG_A,
                send_opts,
            );
            tc.mpi_recv(&a_block, 0, a_block.len, 0, TAG_A, send_opts);
            req.wait(tc.ctx());
        }
    } else if my_rows > 0 {
        tc.mpi_recv(&a_block, 0, a_block.len, 0, TAG_A, send_opts);
    }

    // ---- device compute -------------------------------------------------
    let c_block = tc.malloc_f64(my_rows.max(1) * n);
    if my_rows > 0 {
        let (a_buf, a_row0) = (&a_block, 0usize);
        tc.acc_create(a_buf);
        tc.acc_create(&b);
        tc.acc_create(&c_block);
        let cost = KernelCost::new(
            2.0 * my_rows as f64 * n as f64 * n as f64,
            (my_rows * n * 2 + n * n) as f64 * 8.0,
        );
        let gemm = {
            let av = tc.dev_view(a_buf);
            let bv = tc.dev_view(&b);
            let cv = tc.dev_view(&c_block);
            let rows = my_rows;
            move || {
                if !math_ok(&av) || !math_ok(&bv) {
                    return;
                }
                BufView::with_views_mut(&[&av, &bv], &cv, |ab, c| {
                    let (a, bm) = (ab[0], ab[1]);
                    let c = &mut c[..rows * n];
                    c.fill(0.0);
                    for i in 0..rows {
                        let ai = (a_row0 + i) * n;
                        for k in 0..n {
                            let aik = a[ai + k];
                            if aik == 0.0 {
                                continue;
                            }
                            let bk = &bm[k * n..(k + 1) * n];
                            let ci = &mut c[i * n..(i + 1) * n];
                            for j in 0..n {
                                ci[j] += aik * bk[j];
                            }
                        }
                    }
                });
            }
        };

        let use_queue = impacc && tc.options().unified_queue;
        if use_queue {
            // Unified activity queue: updates, kernel, result send all on
            // queue 1; the host never blocks until the final wait.
            tc.acc_update_device(a_buf, 0, a_buf.len, Some(1));
            tc.acc_update_device(&b, 0, b.len, Some(1));
            tc.acc_kernel(Some(1), cost, gemm);
            if rank != 0 {
                tc.mpi_send(
                    &c_block,
                    0,
                    c_block.len,
                    0,
                    TAG_C,
                    MpiOpts::device().on_queue(1),
                );
            } else {
                tc.acc_update_host(&c_block, 0, c_block.len, Some(1));
            }
        } else if impacc {
            // IMPACC without the unified queue (ablation): unified device
            // buffers, but Figure 4(b)-style synchronization points.
            tc.acc_update_device(a_buf, 0, a_buf.len, Some(1));
            tc.acc_update_device(&b, 0, b.len, Some(1));
            tc.acc_wait(1);
            tc.acc_kernel(None, cost, gemm);
            if rank != 0 {
                tc.mpi_send(&c_block, 0, c_block.len, 0, TAG_C, MpiOpts::device());
            } else {
                tc.acc_update_host(&c_block, 0, c_block.len, None);
            }
        } else {
            // Figure 4(b): async ops with explicit synchronization points.
            tc.acc_update_device(a_buf, 0, a_buf.len, Some(1));
            tc.acc_update_device(&b, 0, b.len, Some(1));
            tc.acc_wait(1);
            tc.acc_kernel(None, cost, gemm);
            tc.acc_update_host(&c_block, 0, c_block.len, None);
            if rank != 0 {
                tc.mpi_send(&c_block, 0, c_block.len, 0, TAG_C, MpiOpts::host());
            }
        }
    }

    // ---- gather ----------------------------------------------------------
    if rank == 0 {
        let c = tc.malloc_f64(n * n);
        // Root's own block.
        if my_rows > 0 {
            if impacc {
                tc.acc_wait(1);
            }
            let cb = tc.host_view(&c_block);
            let cv = tc.host_view(&c);
            if math_ok(&cb) {
                BufView::with_views_mut(&[&cb], &cv, |block, c| {
                    c[part.offsets[0] * n..][..my_rows * n]
                        .copy_from_slice(&block[0][..my_rows * n]);
                });
            }
        }
        for r in 1..size {
            if part.counts[r] == 0 {
                continue;
            }
            let off = (part.offsets[r] * n * 8) as u64;
            let len = (part.counts[r] * n * 8) as u64;
            tc.mpi_recv(&c, off, len, r as u32, TAG_C, MpiOpts::host());
        }
        if p.verify {
            verify_product(tc, &c, n);
        }
    } else if impacc && my_rows > 0 {
        // Drain the pipeline before exiting.
        tc.acc_wait(1);
    }
}

fn verify_product(tc: &TaskCtx, c: &impacc_core::HBuf, n: usize) {
    let cv = tc.host_view(c);
    if !math_ok(&cv) {
        return;
    }
    cv.with_f64s(0, n * n, |got| {
        for i in 0..n {
            for j in 0..n {
                let expect: f64 = (0..n).map(|k| a_at(i, k) * b_at(k, j)).sum();
                assert!(
                    (got[i * n + j] - expect).abs() < 1e-9,
                    "C[{i}][{j}] = {} expected {expect}",
                    got[i * n + j]
                );
            }
        }
    });
}

/// Run DGEMM on `spec` and return the report.
pub fn run_dgemm(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    params: DgemmParams,
) -> Result<RunSummary, SimError> {
    launch_app(spec, options, phys_cap, move |tc| dgemm_task(tc, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;

    #[test]
    fn impacc_dgemm_is_bit_correct() {
        let s = run_dgemm(
            presets::test_cluster(1, 4),
            RuntimeOptions::impacc(),
            None,
            DgemmParams {
                n: 24,
                verify: true,
            },
        )
        .unwrap();
        // Inputs were read-only: A-slices and B aliased node-locally.
        assert!(s.report.metrics["aliased_msgs"] >= 3);
    }

    #[test]
    fn baseline_dgemm_is_bit_correct() {
        run_dgemm(
            presets::test_cluster(1, 4),
            RuntimeOptions::baseline(),
            None,
            DgemmParams {
                n: 24,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn multinode_dgemm_correct_both_modes() {
        for opts in [RuntimeOptions::impacc(), RuntimeOptions::baseline()] {
            run_dgemm(
                presets::test_cluster(2, 2),
                opts,
                None,
                DgemmParams {
                    n: 20,
                    verify: true,
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn ragged_partition_works() {
        // 4 tasks, n = 10: blocks of 3,3,2,2.
        run_dgemm(
            presets::test_cluster(1, 4),
            RuntimeOptions::impacc(),
            None,
            DgemmParams {
                n: 10,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn single_task_dgemm() {
        run_dgemm(
            presets::test_cluster(1, 1),
            RuntimeOptions::impacc(),
            None,
            DgemmParams {
                n: 16,
                verify: true,
            },
        )
        .unwrap();
    }

    #[test]
    fn impacc_beats_baseline_on_small_matrices() {
        // The paper's headline: for small matrices the baseline's
        // communication dominates; IMPACC's aliasing + fused copies keep
        // it scaling (Figure 10(a)).
        let n = 256;
        let i = run_dgemm(
            presets::psg(),
            RuntimeOptions::impacc(),
            None,
            DgemmParams { n, verify: false },
        )
        .unwrap();
        let b = run_dgemm(
            presets::psg(),
            RuntimeOptions::baseline(),
            None,
            DgemmParams { n, verify: false },
        )
        .unwrap();
        assert!(
            i.elapsed_secs() < b.elapsed_secs(),
            "IMPACC {} vs baseline {}",
            i.elapsed_secs(),
            b.elapsed_secs()
        );
    }

    #[test]
    fn truncated_run_matches_full_run_timing() {
        let full = run_dgemm(
            presets::test_cluster(1, 2),
            RuntimeOptions::impacc(),
            None,
            DgemmParams {
                n: 64,
                verify: false,
            },
        )
        .unwrap();
        let capped = run_dgemm(
            presets::test_cluster(1, 2),
            RuntimeOptions::impacc(),
            Some(512),
            DgemmParams {
                n: 64,
                verify: false,
            },
        )
        .unwrap();
        assert_eq!(full.report.end_time, capped.report.end_time);
    }
}
