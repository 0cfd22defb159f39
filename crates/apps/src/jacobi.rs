//! 2-D Jacobi iteration (§4.2): a five-point stencil on an `n×n` mesh,
//! partitioned in one dimension; each sweep exchanges boundary rows with
//! the two neighbours.
//!
//! The rank body is the array scenario [`jacobi_task`]: the halo exchange
//! is inferred from the row decomposition and lowered to the active
//! runtime mode by `impacc-array`, so this module only launches it. Under
//! IMPACC the halo rows are sent straight from device memory on the
//! unified queue, so an intra-node exchange between two GPUs fuses into
//! one direct DtoD peer copy (the Figure 14 effect). The baseline stages:
//! `update host`, host MPI, `update device` every sweep.

use impacc_core::{RunSummary, RuntimeOptions};
use impacc_machine::MachineSpec;
use impacc_vtime::SimError;

pub use impacc_array::scenarios::{jacobi_task, serial_jacobi, JacobiParams};

use crate::common::launch_app;

/// Run Jacobi and return the report.
pub fn run_jacobi(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    params: JacobiParams,
) -> Result<RunSummary, SimError> {
    launch_app(spec, options, phys_cap, move |tc| {
        let params = params.clone();
        async move { jacobi_task(&tc, &params, None).await }
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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

    /// A run whose gathered field and last residual must equal the
    /// serial reference's bit for bit (checked inside the launch).
    fn verified(spec: MachineSpec, opts: RuntimeOptions, n: usize, iters: usize) {
        let p = JacobiParams {
            n,
            iters,
            verify: true,
        };
        run_jacobi(spec, opts, None, p).unwrap();
    }

    #[test]
    fn impacc_jacobi_matches_serial() {
        for tasks in [1usize, 2, 4] {
            let spec = presets::test_cluster(1, tasks);
            verified(spec, RuntimeOptions::impacc(), 16, 7);
        }
    }

    #[test]
    fn a_jacobi_rank_future_stays_small() {
        // Every collective algorithm is boxed at its dispatch, so a rank
        // future holds the app's own state and not the algorithm tree; the
        // largest Titan point keeps 8,192 of them alive at once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let size = Arc::new(AtomicUsize::new(0));
        let seen = size.clone();
        let p = JacobiParams {
            n: 16,
            iters: 1,
            verify: false,
        };
        launch_app(presets::psg(), RuntimeOptions::impacc(), None, move |tc| {
            let (p, seen) = (p.clone(), seen.clone());
            async move {
                let fut = jacobi_task(&tc, &p, None);
                seen.store(std::mem::size_of_val(&fut), Ordering::Relaxed);
                fut.await
            }
        })
        .unwrap();
        let size = size.load(Ordering::Relaxed);
        println!("SIZE jacobi rank future {size} bytes");
        assert!(size <= 2048, "jacobi rank future grew to {size} bytes");
    }

    #[test]
    fn baseline_jacobi_matches_serial() {
        for tasks in [2usize, 3] {
            let spec = presets::test_cluster(1, tasks);
            verified(spec, RuntimeOptions::baseline(), 15, 5);
        }
    }

    #[test]
    fn multinode_jacobi_matches_serial() {
        verified(presets::test_cluster(2, 2), RuntimeOptions::impacc(), 12, 6);
    }

    #[test]
    fn more_ranks_than_rows_completes_and_verifies() {
        // 16 ranks over 8 rows: the last eight tiles are empty, and an
        // empty neighbour is the global boundary, not a peer to wait on.
        for opts in [RuntimeOptions::impacc(), RuntimeOptions::baseline()] {
            verified(presets::test_cluster(2, 8), opts, 8, 4);
        }
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
