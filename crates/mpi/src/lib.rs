//! # impacc-mpi — the system MPI substrate
//!
//! A from-scratch MPI library simulation for the IMPACC reproduction:
//! tag/source matching with wildcards and FIFO non-overtaking,
//! blocking/non-blocking point-to-point with eager completion semantics,
//! requests, communicators (world + split), and collectives (barrier,
//! bcast, reduce, allreduce, allgather) derived over the
//! [`PointToPoint`] trait so the IMPACC runtime can reuse and selectively
//! override them.
//!
//! Transport timing models the paper's two regimes: intra-node
//! process-model staging (two host copies + IPC overhead — the Figure 6
//! baseline) and internode NIC transfers with optional GPUDirect RDMA.

#![warn(missing_docs)]

pub mod comm;
pub mod engine;
pub mod p2p;
pub mod types;

pub use comm::Comm;
pub use engine::{tags, MpiTask, Request, SysMpi, WaitCause};
pub use p2p::{deliver_fold, fold_buffer, CollSeq, PointToPoint, SysEndpoint};
pub use types::{BufLoc, MsgBuf, ReduceOp, SrcSel, Status, TagSel};
