//! # impacc-apps — the paper's benchmark applications
//!
//! MPI+OpenACC implementations of the four evaluation workloads (§4.2),
//! each written once against the [`Rank`](impacc_core::Rank) API and
//! runnable under both the IMPACC runtime and the legacy MPI+OpenACC
//! baseline:
//!
//! * [`dgemm`] — blocked dense matrix multiply with root-based
//!   distribution (exercises heap aliasing, bcast, unified queues).
//! * [`ep`] — NAS Parallel Benchmarks Embarrassingly Parallel kernel
//!   (exercises pure compute + one allreduce).
//! * [`jacobi`] — 2-D five-point stencil with 1-D partitioning, run on
//!   the `impacc-array` layer (device-resident halos, direct DtoD fusion).
//! * [`lulesh`] — a LULESH-2.0-style 3-D proxy with 26-neighbour halo
//!   exchange and host-resident communication buffers.
//! * [`micro`] — the verified allreduce loop and the two-rank exchange the
//!   collective/chaos sweeps and `impacc-serve` run.
//!
//! All apps do *real arithmetic* verified against serial references when
//! buffers carry full physical backing; under physical truncation (huge
//! scale) the arithmetic is skipped while timing is unchanged.

#![warn(missing_docs)]

pub mod common;
pub mod dgemm;
pub mod ep;
pub mod jacobi;
pub mod lulesh;
pub mod micro;

pub use common::{launch_app, math_ok, BlockPartition};
pub use dgemm::{dgemm_task, run_dgemm, DgemmParams};
pub use ep::{ep_kernel, ep_task, run_ep, EpClass, EpParams, EpStats, NpbRng};
pub use jacobi::{jacobi_task, run_jacobi, serial_jacobi, JacobiParams};
pub use lulesh::{lulesh_task, run_lulesh, Coord, LuleshParams};
pub use micro::{allreduce_rounds, exchange};
