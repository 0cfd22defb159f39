//! The two micro-workloads: a verified allreduce loop and the fig-5-class
//! two-rank exchange. `impacc-bench`'s collective and chaos sweeps and
//! `impacc-serve`'s `allreduce`/`exchange` workloads run these bodies;
//! `seed` varies the payload values, never the traffic.

use impacc_core::{MpiOpts, TaskCtx};
use impacc_machine::KernelCost;
use impacc_mpi::ReduceOp;

use crate::common::math_ok;

/// `rounds` verified Sum-allreduces of `elems` f64s; `seed` shifts every
/// contribution so distinct seeds produce distinct payloads while staying
/// integer-valued (all fold orders bit-identical). One buffer per rank
/// for all rounds: filled, reduced and checked where it is.
pub fn allreduce_rounds(tc: &TaskCtx, elems: usize, rounds: u32, seed: u64) {
    let size = tc.size();
    let shift = (seed % 1024) as f64;
    let buf = tc.mpi_scratch_f64(elems);
    for round in 0..rounds {
        buf.with_f64s_mut(|vals| vals.fill((tc.rank() + round) as f64 + shift));
        tc.mpi_allreduce_in_place(&buf, ReduceOp::Sum);
        let expect = (0..size).map(|r| (r + round) as f64 + shift).sum::<f64>();
        assert!(
            buf.with_f64s(|out| out.len() == elems && out.iter().all(|&x| x == expect)),
            "allreduce corrupted: want {expect}"
        );
    }
}

/// The fig-5-class two-rank exchange of `n` f64s: kernel → copyout →
/// send/recv → copyin → kernel, `rounds` times, every consume kernel
/// asserting its input — so completion is itself a correctness result.
pub fn exchange(tc: &TaskCtx, n: usize, rounds: u32, seed: u64) {
    let peer = 1 - tc.rank();
    let shift = (seed % 1024) as f64;
    let me = tc.rank() as f64 + shift;
    let buf0 = tc.malloc_f64(n);
    let buf1 = tc.malloc_f64(n);
    tc.acc_create(&buf0);
    tc.acc_create(&buf1);
    let cost = KernelCost::new(10.0 * n as f64, 16.0 * n as f64);
    for round in 0..rounds {
        let produce = {
            let d = tc.dev_view(&buf0);
            let v = me + round as f64;
            move || {
                if math_ok(&d) {
                    d.with_f64s_mut(0, n, |out| out.fill(v));
                }
            }
        };
        let consume = {
            let d = tc.dev_view(&buf1);
            let expect = peer as f64 + shift + round as f64;
            move || {
                if math_ok(&d) {
                    d.with_f64s(0, n, |got| {
                        assert!(
                            got.iter().all(|&x| x == expect),
                            "round {round}: corrupted payload after recovery"
                        )
                    });
                }
            }
        };
        tc.acc_kernel(None, cost, produce);
        tc.acc_update_host(&buf0, 0, buf0.len, None);
        let sreq = tc.mpi_isend(&buf0, 0, buf0.len, peer, round as i32, MpiOpts::host());
        tc.mpi_recv(&buf1, 0, buf1.len, peer, round as i32, MpiOpts::host());
        sreq.wait(tc.ctx());
        tc.acc_update_device(&buf1, 0, buf1.len, None);
        tc.acc_kernel(None, cost, consume);
    }
}
