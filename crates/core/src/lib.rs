//! # impacc-core — the IMPACC runtime
//!
//! The paper's primary contribution, reproduced over the simulation
//! substrates: automatic task-device mapping with NUMA-friendly pinning
//! ([`Launch`], §3.2–3.3), the unified node virtual address space and
//! per-task present tables (via `impacc-mem`, §3.4), unified MPI
//! communication routines accepting device buffers ([`Rank`], §3.5),
//! the unified activity queue (`MpiOpts::on_queue`, §3.6), the per-node
//! message handler with lock-free command queues and message fusion
//! ([`NodeHandler`], [`MpscQueue`], §3.7), and node heap aliasing (§3.8).
//!
//! The same launcher also provides the legacy MPI+OpenACC baseline
//! ([`RuntimeOptions::baseline`]) so every experiment compares the two
//! models over identical simulated hardware.

#![warn(missing_docs)]

pub mod cmd;
pub mod config;
pub mod handler;
pub mod launch;
pub mod mode;
pub mod mpsc;
pub mod task;

pub use cmd::{CmdKind, HeapRef, MsgCmd, PendingRecv, ResolvedBuf};
pub use handler::NodeHandler;
pub use impacc_coll::{CollAlgo, CollEngine, CollOp, CollOpts, NodeColl};
pub use launch::{Launch, RunSummary, TaskInfo};
pub use mode::{Mode, RuntimeOptions};
pub use mpsc::MpscQueue;
pub use task::{BufView, DataClause, HBuf, MpiOpts, Rank, TaskCtx};
