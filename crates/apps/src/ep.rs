//! NAS Parallel Benchmarks EP — Embarrassingly Parallel (§4.2).
//!
//! Each task generates Gaussian pairs with the Marsaglia polar method over
//! NPB's linear congruential generator (a = 5^13, modulus 2^46), counts
//! them by concentric square annuli, and the job ends with a single
//! `MPI_Allreduce`. There is essentially no communication — the paper uses
//! EP to show IMPACC matches MPI+OpenACC when there is nothing to optimize.
//!
//! Real runs of class E (2^40 pairs) are infeasible on the simulator host,
//! so the kernel *cost* is charged for the full class size while the
//! arithmetic actually executes on a deterministic sample (`sample_pairs`),
//! keeping the statistics verifiable.

use impacc_core::{Rank, RunSummary, RuntimeOptions};
use impacc_machine::{KernelCost, MachineSpec};
use impacc_mpi::ReduceOp;
use impacc_vtime::SimError;

use crate::common::launch_app;

/// NPB problem classes (number of random pairs = 2^exponent).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EpClass {
    /// 2^24 pairs.
    S,
    /// 2^25 pairs.
    W,
    /// 2^28 pairs.
    A,
    /// 2^30 pairs.
    B,
    /// 2^32 pairs.
    C,
    /// 2^36 pairs.
    D,
    /// 2^40 pairs.
    E,
    /// The paper's new class: 64 × class E = 2^46 pairs.
    E64,
}

impl EpClass {
    /// Total pairs for the class.
    pub fn pairs(self) -> u64 {
        1u64 << match self {
            EpClass::S => 24,
            EpClass::W => 25,
            EpClass::A => 28,
            EpClass::B => 30,
            EpClass::C => 32,
            EpClass::D => 36,
            EpClass::E => 40,
            EpClass::E64 => 46,
        }
    }
}

/// EP workload parameters.
#[derive(Clone, Debug)]
pub struct EpParams {
    /// Total pairs the class prescribes (drives the kernel cost model).
    pub total_pairs: u64,
    /// Pairs actually generated per job (split across tasks) for the
    /// verifiable statistics. Keep modest (≤ a few million).
    pub sample_pairs: u64,
}

impl EpParams {
    /// Parameters for an NPB class with a default-sized real sample.
    pub fn class(c: EpClass) -> EpParams {
        EpParams {
            total_pairs: c.pairs(),
            sample_pairs: 1 << 14,
        }
    }
}

/// NPB's LCG: x_{k+1} = a * x_k mod 2^46, a = 5^13.
#[derive(Clone, Debug)]
pub struct NpbRng {
    x: u64,
}

/// 5^13
const A_MULT: u64 = 1_220_703_125;
const MOD_MASK: u64 = (1 << 46) - 1;

impl NpbRng {
    /// Seed the generator (NPB uses 271828183).
    pub fn new(seed: u64) -> NpbRng {
        NpbRng { x: seed & MOD_MASK }
    }

    /// Jump the generator forward by `k` steps in O(log k) (NPB's
    /// `randlc`-power trick), so tasks can claim disjoint subsequences.
    pub fn skip(&mut self, mut k: u64) {
        let mut a = A_MULT;
        while k > 0 {
            if k & 1 == 1 {
                self.x = self.x.wrapping_mul(a) & MOD_MASK;
            }
            a = a.wrapping_mul(a) & MOD_MASK;
            k >>= 1;
        }
    }

    /// Next uniform deviate in (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.x = self.x.wrapping_mul(A_MULT) & MOD_MASK;
        self.x as f64 / (1u64 << 46) as f64
    }
}

/// The accumulated EP statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpStats {
    /// Sum of accepted Gaussian X deviates.
    pub sx: f64,
    /// Sum of accepted Gaussian Y deviates.
    pub sy: f64,
    /// Annulus counts `q[k]`: pairs with `k <= max(|X|,|Y|) < k+1`.
    pub q: [f64; 10],
}

impl EpStats {
    /// Total accepted pairs.
    pub fn accepted(&self) -> f64 {
        self.q.iter().sum()
    }
}

/// Generate `pairs` pairs starting from `rng` and accumulate statistics —
/// the EP inner kernel, exactly as NPB specifies it.
pub fn ep_kernel(rng: &mut NpbRng, pairs: u64) -> EpStats {
    let mut st = EpStats::default();
    for _ in 0..pairs {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = x * f;
            let gy = y * f;
            let k = gx.abs().max(gy.abs()) as usize;
            if k < 10 {
                st.q[k] += 1.0;
                st.sx += gx;
                st.sy += gy;
            }
        }
    }
    st
}

/// The per-task EP program. Returns the reduced global statistics.
pub async fn ep_task(tc: &Rank, p: &EpParams) -> EpStats {
    let rank = tc.rank() as u64;
    let size = tc.size() as u64;

    // Disjoint subsequence per task via the log-time generator jump.
    let my_sample = p.sample_pairs / size + u64::from(rank < p.sample_pairs % size);
    let start = (p.sample_pairs / size) * rank + rank.min(p.sample_pairs % size);
    let mut rng = NpbRng::new(271_828_183);
    rng.skip(start * 2);

    // The device does the real class-sized work in the cost model
    // (~40 flops per pair: two deviates, the rejection test, ln/sqrt).
    let my_total = p.total_pairs / size + u64::from(rank < p.total_pairs % size);
    let cost = KernelCost::flops(my_total as f64 * 40.0);
    let stats = std::sync::Arc::new(parking_lot::Mutex::new(EpStats::default()));
    {
        let stats = stats.clone();
        let mut rng = rng.clone();
        tc.acc_kernel(None, cost, move || {
            *stats.lock() = ep_kernel(&mut rng, my_sample);
        })
        .await;
    }
    let local = stats.lock().clone();

    // The only communication: one allreduce of [sx, sy, q0..q9].
    let mut v = vec![local.sx, local.sy];
    v.extend_from_slice(&local.q);
    let total = tc.mpi_allreduce_f64(&v, ReduceOp::Sum).await;
    let mut out = EpStats {
        sx: total[0],
        sy: total[1],
        q: [0.0; 10],
    };
    out.q.copy_from_slice(&total[2..12]);
    // Every rank sees identical totals, and every counted pair is
    // accounted for in exactly one annulus.
    assert!(out.accepted() > 0.0);
    assert!(out.accepted() <= p.sample_pairs as f64);
    out
}

/// Run EP and return the report.
pub fn run_ep(
    spec: MachineSpec,
    options: RuntimeOptions,
    params: EpParams,
) -> Result<RunSummary, SimError> {
    launch_app(spec, options, None, move |tc| {
        let params = params.clone();
        async move {
            ep_task(&tc, &params).await;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::launch_app;
    use impacc_machine::presets;

    #[test]
    fn lcg_matches_reference_structure() {
        let mut r = NpbRng::new(271_828_183);
        let first: Vec<f64> = (0..4).map(|_| r.next_f64()).collect();
        // Deterministic, in (0,1), not constant.
        assert!(first.iter().all(|v| *v > 0.0 && *v < 1.0));
        assert!(first.windows(2).any(|w| w[0] != w[1]));
        // Re-seeding reproduces the stream.
        let mut r2 = NpbRng::new(271_828_183);
        assert_eq!(first[0], r2.next_f64());
    }

    #[test]
    fn skip_is_equivalent_to_stepping() {
        let mut a = NpbRng::new(271_828_183);
        for _ in 0..1000 {
            a.next_f64();
        }
        let mut b = NpbRng::new(271_828_183);
        b.skip(1000);
        assert_eq!(a.next_f64(), b.next_f64());
    }

    #[test]
    fn kernel_statistics_are_sane() {
        let mut rng = NpbRng::new(271_828_183);
        let st = ep_kernel(&mut rng, 100_000);
        let acc = st.accepted();
        // Polar-method acceptance rate is π/4 ≈ 0.785.
        let rate = acc / 100_000.0;
        assert!((rate - 0.785).abs() < 0.02, "rate = {rate}");
        // Nearly all Gaussian deviates fall in the first few annuli.
        assert!(st.q[0] + st.q[1] + st.q[2] > 0.99 * acc);
        // Gaussian means are near zero.
        assert!((st.sx / acc).abs() < 0.05);
        assert!((st.sy / acc).abs() < 0.05);
    }

    #[test]
    fn distributed_ep_matches_serial_ep() {
        // Any task split must reproduce the exact serial statistics
        // because each task jumps to its disjoint subsequence.
        let serial = {
            let mut rng = NpbRng::new(271_828_183);
            ep_kernel(&mut rng, 1 << 12)
        };
        for tasks in [1usize, 2, 4] {
            let got = std::sync::Arc::new(parking_lot::Mutex::new(EpStats::default()));
            let got2 = got.clone();
            launch_app(
                presets::test_cluster(1, tasks),
                RuntimeOptions::impacc(),
                None,
                move |tc| {
                    let got2 = got2.clone();
                    async move {
                        let p = EpParams {
                            total_pairs: 1 << 12,
                            sample_pairs: 1 << 12,
                        };
                        let st = ep_task(&tc, &p).await;
                        if tc.rank() == 0 {
                            *got2.lock() = st;
                        }
                    }
                },
            )
            .unwrap();
            let got = got.lock().clone();
            assert!((got.sx - serial.sx).abs() < 1e-6, "{tasks} tasks");
            assert!((got.sy - serial.sy).abs() < 1e-6);
            assert_eq!(got.q, serial.q);
        }
    }

    #[test]
    fn impacc_and_baseline_are_equivalent_for_ep() {
        // The paper: "EP shows almost same performances in IMPACC and
        // MPI+OpenACC for all experiments."
        let p = EpParams {
            total_pairs: 1 << 30,
            sample_pairs: 1 << 10,
        };
        let i = run_ep(presets::psg(), RuntimeOptions::impacc(), p.clone()).unwrap();
        let b = run_ep(presets::psg(), RuntimeOptions::baseline(), p).unwrap();
        let ratio = b.elapsed_secs() / i.elapsed_secs();
        assert!(
            (0.95..1.1).contains(&ratio),
            "EP should not favour either model, ratio = {ratio}"
        );
    }

    #[test]
    fn class_sizes_match_npb() {
        assert_eq!(EpClass::A.pairs(), 1 << 28);
        assert_eq!(EpClass::E.pairs(), 1 << 40);
        assert_eq!(EpClass::E64.pairs(), 64 * EpClass::E.pairs());
    }
}
