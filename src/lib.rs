//! # IMPACC — a tightly integrated MPI+OpenACC framework (simulated)
//!
//! A from-scratch Rust reproduction of *"IMPACC: A Tightly Integrated
//! MPI+OpenACC Framework Exploiting Shared Memory Parallelism"* (Kim, Lee,
//! Vetter — HPDC 2016), built over a deterministic virtual-time cluster
//! simulator so the paper's Titan/PSG/Beacon experiments run on a laptop.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`vtime`] — the discrete-event engine (actors, virtual time, metrics).
//! * [`machine`] — cluster topology + cost model, with the paper's three
//!   systems as presets.
//! * [`mem`] — the unified node virtual address space, present tables and
//!   the refcounted node heap.
//! * [`acc`] — simulated accelerators and OpenACC activity queues.
//! * [`mpi`] — the system MPI substrate (matching, P2P, collectives).
//! * [`core`] — the IMPACC runtime itself (and the MPI+OpenACC baseline).
//! * [`directives`] — the `#pragma acc mpi` parser.
//! * [`apps`] — DGEMM, NPB EP, Jacobi and a LULESH proxy.
//! * [`obs`] — typed span recording ([`obs::Recorder`]) and its exporters.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the system inventory.

#![warn(missing_docs)]

pub use impacc_acc as acc;
pub use impacc_apps as apps;
pub use impacc_core as core;
pub use impacc_directives as directives;
pub use impacc_machine as machine;
pub use impacc_mem as mem;
pub use impacc_mpi as mpi;
pub use impacc_obs as obs;
pub use impacc_vtime as vtime;

/// The things almost every IMPACC program needs.
pub mod prelude {
    pub use impacc_core::{
        BufView, CollAlgo, CollOp, CollOpts, HBuf, Launch, Mode, MpiOpts, RunSummary,
        RuntimeOptions, TaskCtx,
    };
    pub use impacc_machine::{DeviceKind, DeviceTypeMask, KernelCost, MachineSpec};
    pub use impacc_mpi::{Comm, PointToPoint, ReduceOp, Request, Status};
}
