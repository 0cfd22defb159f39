//! Message commands exchanged between task threads and the node's message
//! handler (§3.7). A command's completion handle is the same
//! [`impacc_mpi::Request`] the system library hands out: the handler
//! completes it, naming itself, at the fused copy's finish instant.

use std::sync::Arc;

use impacc_mem::{Backing, HeapPtr, VirtAddr};
use impacc_mpi::{MsgBuf, Request};
use impacc_vtime::SimTime;

/// Heap provenance of a host buffer, carried so the handler can check the
/// node-heap-aliasing requirements (§3.8).
#[derive(Clone, Debug)]
pub struct HeapRef {
    /// The pointer variable the application passed (re-aimable).
    pub ptr: HeapPtr,
    /// Current address of the buffer view's first byte.
    pub addr: VirtAddr,
    /// Start address of the containing heap region.
    pub region_start: VirtAddr,
    /// Length of the containing heap region.
    pub region_len: u64,
}

/// A send or receive buffer resolved to storage + path information: the
/// library's [`MsgBuf`] plus what only the node handler needs.
#[derive(Clone, Debug)]
pub struct ResolvedBuf {
    /// Storage, range, residency (device index is node-local) and whether
    /// the runtime registered the buffer with the library.
    pub msg: MsgBuf,
    /// Whether the owning task is pinned on the far socket from the
    /// device (selects the NUMA-unfriendly PCIe path for fused copies).
    pub far: bool,
    /// Host-heap provenance, when the buffer is heap memory.
    pub heap: Option<HeapRef>,
}

/// Direction of a message command.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CmdKind {
    /// An `MPI_Send`-side command.
    Send,
    /// An `MPI_Recv`-side command.
    Recv,
}

/// One entry of the intra-node message queue.
pub struct MsgCmd {
    /// Send or receive side.
    pub kind: CmdKind,
    /// Global rank of the sender.
    pub src: u32,
    /// Communicator-relative rank of the sender (for the receive status).
    pub src_rel: u32,
    /// Global rank of the receiver.
    pub dst: u32,
    /// Message tag (exact; the unified intra-node path has no wildcards).
    pub tag: i32,
    /// Communicator id.
    pub comm_id: u64,
    /// The buffer.
    pub buf: ResolvedBuf,
    /// `readonly` attribute from the IMPACC directive (§3.8 requirement 3).
    pub readonly: bool,
    /// Completes when the task's side of the operation is complete; a
    /// `Recv` command's completion carries the receive status.
    pub done: Request,
    /// Submitting actor and submission instant, filled by
    /// `NodeHandler::submit` while a span sink is recording: the source end
    /// of the "deq"/"fuse" causal edges the handler emits.
    pub submitted_by: Option<(Arc<str>, SimTime)>,
}

/// Matching key for intra-node commands: FIFO per (comm, src, dst, tag).
pub type MatchKey = (u64, u32, u32, i32);

impl MsgCmd {
    /// The FIFO bucket this command matches within.
    pub fn key(&self) -> MatchKey {
        (self.comm_id, self.src, self.dst, self.tag)
    }
}

/// One entry of the pending internode message queue: a receive whose
/// network half (into pre-pinned host staging) is in flight and whose
/// device half (HtoD) the handler issues upon completion (§3.7).
pub struct PendingRecv {
    /// The in-flight system-MPI receive into `staging`.
    pub req: Request,
    /// Pre-pinned host bounce buffer.
    pub staging: Arc<Backing>,
    /// Final device destination.
    pub dev_buf: ResolvedBuf,
    /// Completes, with `req`'s status, when the data is in device memory.
    pub done: Request,
}
