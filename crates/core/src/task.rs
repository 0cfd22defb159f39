//! The rank: what an MPI+OpenACC program is written against.
//!
//! A [`Rank`] bundles the paper's programming surface; every operation
//! that can suspend is an `async fn` under its MPI/OpenACC name:
//!
//! * **MPI**: `mpi_send` / `mpi_recv` / `mpi_isend` / `mpi_irecv` plus
//!   collectives — *unified communication routines* (§3.5) that accept
//!   device buffers and route intra-node traffic through the node's
//!   message handler under IMPACC, or the plain system-MPI calls under the
//!   baseline model.
//! * **OpenACC**: heap allocation (hooked `malloc`), data constructs
//!   (`acc_create` / `acc_update_*` / `acc_delete` maintaining the present
//!   table), kernels and `async` activity queues, `acc_wait`.
//! * **IMPACC directives** ([`MpiOpts`]): the `sendbuf(device)`,
//!   `readonly` and `async(n)` clauses of `#pragma acc mpi`.
//!
//! A rank body is a future the engine polls as a handler on its node's
//! partition ([`crate::Launch::run_async`]). [`TaskCtx`] is the synchronous
//! facade of a rank whose body blocks, on a stack of its own
//! ([`crate::Launch::run`]): a handful of the same operations, each
//! blocking on the rank's future.

use std::collections::HashMap;
use std::sync::Arc;

use impacc_acc::{ActivityQueue, Device};
use impacc_coll::{CollAlgo, CollEngine, CollOpts, NodeColl};
use impacc_machine::{ClusterResources, DeviceKind, HdDir, KernelCost, LaunchConfig};
use impacc_mem::{AddressSpace, Backing, F64Span, HeapPtr, NodeHeap, PresentTable, VirtAddr};
use impacc_mem::{DevPtr, PresentEntry, ReducePool};
use impacc_mpi::{
    BufLoc, CollSeq, Comm, MpiTask, MsgBuf, PointToPoint, ReduceOp, Request, SrcSel, Status,
    TagSel, WaitCause,
};
use impacc_vtime::{Ctx, Latch, SimDur};
use parking_lot::Mutex;

use crate::cmd::{CmdKind, HeapRef, MsgCmd, PendingRecv, ResolvedBuf};
use crate::handler::NodeHandler;
use crate::mode::RuntimeOptions;

/// A data clause of a structured `#pragma acc data` region
/// (see [`Rank::acc_data`]).
#[derive(Copy, Clone, Debug)]
pub enum DataClause<'a> {
    /// `create(b)`: device mirror for the region's duration, no transfers.
    Create(&'a HBuf),
    /// `copyin(b)`: push on entry, delete on exit.
    Copyin(&'a HBuf),
    /// `copyout(b)`: create on entry, pull + delete on exit.
    Copyout(&'a HBuf),
    /// `copy(b)`: push on entry, pull + delete on exit.
    Copy(&'a HBuf),
    /// `present(b)`: assert an enclosing region already mapped it.
    Present(&'a HBuf),
}

/// A host heap buffer handle — a simulated pointer *variable*, so node heap
/// aliasing can transparently re-aim it (§3.8). Dereference through
/// [`Rank::host_view`].
#[derive(Copy, Clone, Debug)]
pub struct HBuf {
    pub(crate) ptr: HeapPtr,
    /// Length in bytes.
    pub len: u64,
}

impl HBuf {
    /// Length in f64 elements.
    pub fn elems(&self) -> usize {
        (self.len / 8) as usize
    }
}

/// A resolved view of storage (host or device side) for direct access in
/// kernels and tests.
#[derive(Clone)]
pub struct BufView {
    /// The storage.
    pub backing: Arc<Backing>,
    /// Byte offset of the view.
    pub off: u64,
    /// View length in bytes.
    pub len: u64,
}

impl BufView {
    /// Read `n` f64 elements starting at element `start`.
    pub fn read_f64s(&self, start: usize, n: usize) -> Vec<f64> {
        assert!((start + n) as u64 * 8 <= self.len, "read out of range");
        self.backing.read_f64s(self.off + start as u64 * 8, n)
    }

    /// Write f64 elements starting at element `start`.
    pub fn write_f64s(&self, start: usize, vals: &[f64]) {
        assert!(
            (start + vals.len()) as u64 * 8 <= self.len,
            "write out of range"
        );
        self.backing.write_f64s(self.off + start as u64 * 8, vals);
    }

    /// Run `f` on `n` elements starting at element `start`, borrowed in
    /// place (see [`Backing::with_f64s`]). `f` must not touch this
    /// allocation again; kernels over several views use
    /// [`BufView::with_views`].
    pub fn with_f64s<R>(&self, start: usize, n: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        assert!((start + n) as u64 * 8 <= self.len, "read out of range");
        self.backing.with_f64s(self.off + start as u64 * 8, n, f)
    }

    /// Let `f` edit `n` elements starting at element `start` in place
    /// (see [`Backing::with_f64s_mut`]).
    pub fn with_f64s_mut<R>(&self, start: usize, n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        assert!((start + n) as u64 * 8 <= self.len, "write out of range");
        self.backing
            .with_f64s_mut(self.off + start as u64 * 8, n, f)
    }

    /// Run `f` on every element of several views at once, `f`'s slices in
    /// `reads` order (see [`Backing::with_f64_views`]).
    pub fn with_views<R>(reads: &[&BufView], f: impl FnOnce(&[&[f64]]) -> R) -> R {
        let spans: Vec<F64Span<'_>> = reads.iter().map(|v| v.span()).collect();
        Backing::with_f64_views(&spans, f)
    }

    /// Run a kernel that reads every element of `reads` and updates
    /// `write` in place. A source sharing `write`'s allocation reaches `f`
    /// as a pre-edit copy (see [`Backing::with_f64_views_mut`]).
    pub fn with_views_mut<R>(
        reads: &[&BufView],
        write: &BufView,
        f: impl FnOnce(&[&[f64]], &mut [f64]) -> R,
    ) -> R {
        let spans: Vec<F64Span<'_>> = reads.iter().map(|v| v.span()).collect();
        Backing::with_f64_views_mut(&spans, write.span(), f)
    }

    fn span(&self) -> F64Span<'_> {
        F64Span {
            backing: &self.backing,
            off: self.off,
            n: self.elems(),
        }
    }

    /// Number of f64 elements in the view.
    pub fn elems(&self) -> usize {
        (self.len / 8) as usize
    }
}

/// The clauses of the IMPACC directive `#pragma acc mpi` (§3.5):
/// `sendbuf(device[,readonly]) / recvbuf(device[,readonly]) / async(n)`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MpiOpts {
    /// Use the device copy of the buffer (present-table translation).
    pub device: bool,
    /// The buffer is read-only around this call (aliasing requirement 3).
    pub readonly: bool,
    /// Enqueue the call on this activity queue (unified activity queue,
    /// §3.6) instead of executing it on the host thread.
    pub queue: Option<u32>,
}

impl MpiOpts {
    /// Plain host-buffer call (no directive).
    pub fn host() -> MpiOpts {
        MpiOpts::default()
    }

    /// `sendbuf(device)` / `recvbuf(device)`.
    pub fn device() -> MpiOpts {
        MpiOpts {
            device: true,
            ..Default::default()
        }
    }

    /// Add the `readonly` attribute.
    pub fn readonly(mut self) -> MpiOpts {
        self.readonly = true;
        self
    }

    /// Add an `async(q)` clause.
    pub fn on_queue(mut self, q: u32) -> MpiOpts {
        self.queue = Some(q);
        self
    }
}

/// Everything a communication operation needs, clonable into activity-queue
/// ops (the op may execute on a queue's handler, not the rank).
#[derive(Clone)]
pub(crate) struct CommCore {
    pub rank: u32,
    pub node: usize,
    pub node_of: Arc<Vec<usize>>,
    pub res: Arc<ClusterResources>,
    pub sysmpi: MpiTask,
    pub handler: Option<Arc<NodeHandler>>,
    pub devices: Vec<Device>,
    pub opts: RuntimeOptions,
    pub phys_cap: Option<u64>,
}

impl CommCore {
    fn gpudirect(&self) -> bool {
        self.res.spec.network.gpudirect_rdma
    }

    /// Route one send: resolves when the send buffer is reusable.
    pub async fn send(
        &self,
        ctx: &Ctx,
        buf: ResolvedBuf,
        dst_rel: u32,
        tag: i32,
        comm: &Comm,
        readonly: bool,
    ) {
        let req = self.isend(ctx, buf, dst_rel, tag, comm, readonly).await;
        req.completion(ctx).await;
    }

    /// Route one non-blocking send: `MPI_Isend`, and what a send enqueued
    /// on an activity queue awaits.
    pub async fn isend(
        &self,
        ctx: &Ctx,
        buf: ResolvedBuf,
        dst_rel: u32,
        tag: i32,
        comm: &Comm,
        readonly: bool,
    ) -> Request {
        let dst_global = comm.global_of(dst_rel);
        let dst_node = self.node_of[dst_global as usize];
        let fused = self.opts.is_impacc() && self.opts.fusion && dst_node == self.node;
        if fused {
            let handler = self.handler.as_ref().expect("IMPACC mode has a handler");
            let done = Request::pending(WaitCause::FusedSend {
                dst: dst_global,
                tag,
            });
            let cmd = MsgCmd {
                kind: CmdKind::Send,
                src: self.rank,
                src_rel: comm.rel_of(self.rank).expect("sender in communicator"),
                dst: dst_global,
                tag,
                comm_id: comm.id(),
                buf,
                readonly,
                done: done.clone(),
                submitted_by: None,
            };
            handler.submit(ctx, cmd).await;
            return done;
        }
        // System-MPI path; stage device buffers unless GPUDirect covers
        // this internode transfer.
        match buf.msg.loc {
            BufLoc::Device(d) if dst_node == self.node || !self.gpudirect() => {
                let staging = Backing::new(buf.msg.len, self.phys_cap);
                self.devices[d]
                    .copy(
                        ctx,
                        HdDir::DtoH,
                        buf.far,
                        true, // runtime staging is pre-pinned
                        (&staging, 0),
                        (&buf.msg.backing, buf.msg.off),
                        buf.msg.len,
                    )
                    .await;
                let m = MsgBuf::host(staging, 0, buf.msg.len).registered();
                self.sysmpi.isend(ctx, &m, dst_rel, tag, comm).await
            }
            _ => self.sysmpi.isend(ctx, &buf.msg, dst_rel, tag, comm).await,
        }
    }

    /// Route one receive to completion: `MPI_Recv`, and what a receive
    /// enqueued on an activity queue awaits.
    pub async fn recv(
        &self,
        ctx: &Ctx,
        buf: ResolvedBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
        readonly: bool,
    ) -> Status {
        let req = self.irecv(ctx, buf, src, tag, comm, readonly).await;
        let st = req.completion(ctx).await;
        st.expect("receives carry a status")
    }

    /// `MPI_Sendrecv`: deadlock-free even against synchronous fused sends.
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &self,
        ctx: &Ctx,
        sbuf: ResolvedBuf,
        dst: u32,
        rbuf: ResolvedBuf,
        src: u32,
        tag: i32,
        comm: &Comm,
        readonly: bool,
    ) -> Status {
        let sreq = self.isend(ctx, sbuf, dst, tag, comm, readonly).await;
        let st = self
            .recv(ctx, rbuf, Some(src), Some(tag), comm, readonly)
            .await;
        sreq.completion(ctx).await;
        st
    }

    /// Route one non-blocking receive (see [`CommCore::isend`]).
    pub async fn irecv(
        &self,
        ctx: &Ctx,
        buf: ResolvedBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
        readonly: bool,
    ) -> Request {
        let routed_intra = if self.opts.is_impacc() && self.opts.fusion {
            match src {
                Some(s) => self.node_of[comm.global_of(s) as usize] == self.node,
                None => false, // wildcard receives use the system path
            }
        } else {
            false
        };
        if routed_intra {
            let src_rel = src.expect("checked above");
            let tag = tag.expect("the unified intra-node path needs an exact tag");
            let handler = self.handler.as_ref().expect("IMPACC mode has a handler");
            let done = Request::pending(WaitCause::FusedRecv { src: src_rel, tag });
            let cmd = MsgCmd {
                kind: CmdKind::Recv,
                src: comm.global_of(src_rel),
                src_rel,
                dst: self.rank,
                tag,
                comm_id: comm.id(),
                buf,
                readonly,
                done: done.clone(),
                submitted_by: None,
            };
            handler.submit(ctx, cmd).await;
            return done;
        }
        match buf.msg.loc {
            BufLoc::Device(_) if !self.gpudirect() => {
                // Pre-pinned staging + pending internode message queue: the
                // handler issues the HtoD when the network half completes.
                let handler = self
                    .handler
                    .as_ref()
                    .expect("device receives without GPUDirect need the IMPACC runtime");
                let staging = Backing::new(buf.msg.len, self.phys_cap);
                let m = MsgBuf::host(staging.clone(), 0, buf.msg.len).registered();
                let req = self.sysmpi.irecv(ctx, &m, src, tag, comm).await;
                let done = Request::pending(WaitCause::PendingInternodeRecv);
                let pending = PendingRecv {
                    req,
                    staging,
                    dev_buf: buf,
                    done: done.clone(),
                };
                handler.submit_pending(ctx, pending).await;
                done
            }
            _ => self.sysmpi.irecv(ctx, &buf.msg, src, tag, comm).await,
        }
    }
}

/// One MPI task and its accelerator: the programming context a rank body
/// is written against. Created by the launcher and handed to the rank
/// body; every operation that can suspend is an `async fn`.
pub struct Rank {
    ctx: Ctx,
    world: Comm,
    socket: usize,
    dev_far: bool,
    device: Device,
    space: Arc<AddressSpace>,
    heap: Arc<NodeHeap>,
    present: PresentTable,
    queues: Mutex<HashMap<u32, ActivityQueue>>,
    comm: CommCore,
    coll: CollSeq,
    engine: CollEngine,
    /// This task's collective scratch ([`PointToPoint::scratch`]); gone
    /// with the task, so nothing outlives the launch.
    pool: ReducePool,
}

/// Bundle the launcher hands to each rank actor to build its [`Rank`].
pub(crate) struct TaskSeed {
    pub world: Comm,
    pub socket: usize,
    pub dev_far: bool,
    pub device: Device,
    pub space: Arc<AddressSpace>,
    pub heap: Arc<NodeHeap>,
    pub comm: CommCore,
    pub node_coll: Option<Arc<NodeColl>>,
    pub coll_algo: Option<CollAlgo>,
}

impl Rank {
    pub(crate) fn from_seed(ctx: Ctx, seed: TaskSeed) -> Rank {
        let costs = &seed.comm.res.spec.costs;
        let engine = CollEngine::new(
            seed.comm.node_of.clone(),
            seed.comm.node,
            costs.host_memcpy_bw,
            costs.host_memcpy_lat,
            seed.comm.res.chaos.clone(),
            seed.node_coll,
            seed.coll_algo,
        );
        Rank {
            ctx,
            world: seed.world,
            socket: seed.socket,
            dev_far: seed.dev_far,
            device: seed.device,
            space: seed.space,
            heap: seed.heap,
            present: PresentTable::new(),
            queues: Mutex::new(HashMap::new()),
            comm: seed.comm,
            coll: CollSeq::new(),
            engine,
            pool: ReducePool::new(),
        }
    }

    /// The collectives engine behind this task's `barrier` / `bcast` /
    /// `allreduce` / `allgather`: call it directly to pass per-call
    /// [`CollOpts`] (e.g. force a registry algorithm for one operation).
    pub fn coll_engine(&self) -> &CollEngine {
        &self.engine
    }

    /// The engine context (virtual time, metrics, spawning).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// This task's world rank.
    pub fn rank(&self) -> u32 {
        self.comm.rank
    }

    /// Total number of tasks (`MPI_Comm_size(MPI_COMM_WORLD)`).
    pub fn size(&self) -> u32 {
        self.world.size()
    }

    /// `MPI_COMM_WORLD`.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    fn world_ref(&self) -> &Comm {
        &self.world
    }

    /// The node this task runs on.
    pub fn node(&self) -> usize {
        self.comm.node
    }

    /// The socket this task's thread is pinned to (§3.3).
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// Whether this task sits on the far socket from its accelerator.
    pub fn is_far(&self) -> bool {
        self.dev_far
    }

    /// `acc_get_device_type()`: the kind of the attached accelerator.
    pub fn acc_device_kind(&self) -> DeviceKind {
        self.device.kind()
    }

    /// `acc_get_device_num()`: the node-local index of the attached
    /// accelerator.
    pub fn acc_get_device_num(&self) -> usize {
        self.device.idx()
    }

    /// `acc_set_device_num()`: under IMPACC the task-device mapping is
    /// fixed at launch and the runtime **ignores** this call (§3.2); it is
    /// provided so unmodified MPI+OpenACC sources still run.
    pub fn acc_set_device_num(&self, _num: usize) {
        // Deliberately a no-op: "the runtime ignores any additional
        // acc_set_device_num() calls by the host program."
    }

    /// `acc_get_num_devices()`: how many accelerators of `kind` this
    /// task's node has.
    pub fn acc_get_num_devices(&self, kind: DeviceKind) -> usize {
        self.comm.res.spec.nodes[self.comm.node]
            .devices
            .iter()
            .filter(|d| d.kind == kind)
            .count()
    }

    /// `acc_is_present()`: does the buffer currently have a device mirror?
    pub fn acc_is_present(&self, b: &HBuf) -> bool {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        self.present.find_by_host(addr).is_some()
    }

    /// The attached accelerator.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The runtime configuration.
    pub fn options(&self) -> &RuntimeOptions {
        &self.comm.opts
    }

    /// The machine resources (cost model access for workload builders).
    pub fn resources(&self) -> &Arc<ClusterResources> {
        &self.comm.res
    }

    // ---------------------------------------------------------------
    // Hooked heap
    // ---------------------------------------------------------------

    /// `malloc(len)` on the (node-shared) hooked heap.
    pub async fn malloc(&self, len: u64) -> HBuf {
        self.heap_op().await;
        let ptr = self.heap.malloc(&self.space, len).expect("host allocation");
        HBuf { ptr, len }
    }

    /// Allocate a buffer of `n` f64 elements.
    pub async fn malloc_f64(&self, n: usize) -> HBuf {
        self.malloc(n as u64 * 8).await
    }

    /// `calloc(n, size)` on the hooked heap (zero-initialized).
    pub async fn calloc(&self, n: u64, size: u64) -> HBuf {
        self.heap_op().await;
        let ptr = self
            .heap
            .calloc(&self.space, n, size)
            .expect("host allocation");
        HBuf { ptr, len: n * size }
    }

    /// `realloc(b, new_len)` on the hooked heap: the handle is re-aimed at
    /// a private block of `new_len` bytes with the old prefix copied (an
    /// aliased buffer is unshared by this).
    pub async fn realloc(&self, b: &mut HBuf, new_len: u64) {
        self.heap_op().await;
        self.heap
            .realloc(&self.space, b.ptr, new_len)
            .expect("valid realloc");
        b.len = new_len;
    }

    /// `free()`: drop this task's reference; storage is released when the
    /// heap-table refcount reaches zero.
    pub async fn free(&self, b: HBuf) {
        self.heap_op().await;
        self.heap.free(&self.space, b.ptr).expect("valid free");
    }

    /// The hooked allocator's per-call overhead.
    async fn heap_op(&self) {
        self.ctx
            .sleep(self.comm.res.heap_op_overhead(), "heap")
            .await;
    }

    /// Resolve the current host storage of a buffer (aliasing-aware).
    pub fn host_view(&self, b: &HBuf) -> BufView {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let (region, off) = self.space.resolve(addr).expect("mapped buffer");
        BufView {
            backing: region.backing,
            off,
            len: b.len,
        }
    }

    /// Declare an extra pointer variable into `b` (blocks aliasing —
    /// requirement 4). Returns the raw pointer for later release.
    pub fn hold_extra_pointer(&self, b: &HBuf) -> HeapPtr {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        self.heap.declare_ptr(addr)
    }

    /// Drop a pointer declared with [`Rank::hold_extra_pointer`].
    pub fn release_extra_pointer(&self, p: HeapPtr) {
        self.heap.drop_ptr(p);
    }

    // ---------------------------------------------------------------
    // OpenACC data constructs (present table)
    // ---------------------------------------------------------------

    /// `#pragma acc enter data create(b)`: allocate the device mirror and
    /// register it in the present table.
    pub fn acc_create(&self, b: &HBuf) {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let alloc = self.device.alloc(b.len).expect("device allocation");
        self.present.insert(PresentEntry {
            host_addr: addr,
            len: b.len,
            dev: alloc.ptr.clone(),
            dev_region: alloc.region.clone(),
        });
        // Keep the shadow region alive implicitly via the present entry;
        // the shadow address range is freed in acc_delete.
        if let Some(shadow) = alloc.shadow {
            // Shadow regions are resolved through the present table only.
            let _ = shadow;
        }
    }

    /// `#pragma acc exit data delete(b)`: drop the device mirror.
    pub fn acc_delete(&self, b: &HBuf) {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let entry = self.present.remove(addr).expect("buffer was present");
        self.space
            .free(entry.dev_region.addr)
            .expect("device region live");
        if let DevPtr::OpenCl { mapped, .. } = entry.dev {
            self.space.free(mapped).expect("shadow region live");
        }
    }

    /// `acc_deviceptr()`: device address of the (present) host buffer.
    pub fn acc_deviceptr(&self, b: &HBuf) -> VirtAddr {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let (entry, off) = self.present.find_by_host(addr).expect("present");
        entry.dev.lookup_addr().offset(off)
    }

    /// `acc_hostptr()`: host address corresponding to a device address.
    pub fn acc_hostptr(&self, dev_addr: VirtAddr) -> VirtAddr {
        let (entry, off) = self.present.find_by_dev(dev_addr).expect("present");
        entry.host_addr.offset(off)
    }

    /// The device-side view of a present buffer (for kernel closures).
    pub fn dev_view(&self, b: &HBuf) -> BufView {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let (entry, off) = self.present.find_by_host(addr).expect("present");
        BufView {
            backing: entry.dev_region.backing.clone(),
            off,
            len: entry.len - off,
        }
    }

    /// `#pragma acc update device(b[off..off+len])`. With `q`, enqueued
    /// asynchronously; otherwise resolves when the copy has landed.
    pub async fn acc_update_device(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        q: Option<u32>,
    ) -> Option<Latch> {
        self.update(b, off, len, HdDir::HtoD, q).await
    }

    /// `#pragma acc update host(b[off..off+len])`.
    pub async fn acc_update_host(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        q: Option<u32>,
    ) -> Option<Latch> {
        self.update(b, off, len, HdDir::DtoH, q).await
    }

    async fn update(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        dir: HdDir,
        q: Option<u32>,
    ) -> Option<Latch> {
        let addr = self.heap.deref(b.ptr).expect("live buffer");
        let (region, roff) = self.space.resolve(addr).expect("mapped buffer");
        let (entry, eoff) = self.present.find_by_host(addr).expect("present");
        assert!(off + len <= entry.len - eoff, "update out of present range");
        let host = (region.backing.clone(), roff + off);
        let dev = (entry.dev_region.backing.clone(), eoff + off);
        // Application `acc update` copies move pageable heap memory.
        match q {
            Some(q) => Some(self.device.enqueue_copy(
                &self.ctx,
                &self.queue(q),
                dir,
                self.dev_far,
                false,
                host,
                dev,
                len,
            )),
            None => {
                let (host, dev) = ((&host.0, host.1), (&dev.0, dev.1));
                self.device
                    .copy(&self.ctx, dir, self.dev_far, false, host, dev, len)
                    .await;
                None
            }
        }
    }

    /// `copyin`: create + full update-device.
    pub async fn acc_copyin(&self, b: &HBuf) {
        self.acc_create(b);
        self.acc_update_device(b, 0, b.len, None).await;
    }

    /// A structured `#pragma acc data` region: the clauses' entry actions
    /// run, then `body`, then the exit actions — device mirrors created by
    /// the region are deleted on the way out even for `copyin`-only data.
    ///
    /// ```ignore
    /// rank.acc_data(&[DataClause::Copyin(&a), DataClause::Copyout(&c)], async |rank| {
    ///     rank.acc_kernel(...).await;
    /// })
    /// .await;
    /// ```
    pub async fn acc_data<R>(
        &self,
        clauses: &[DataClause<'_>],
        body: impl AsyncFnOnce(&Rank) -> R,
    ) -> R {
        for c in clauses {
            match c {
                DataClause::Create(b) | DataClause::Copyout(b) => self.acc_create(b),
                DataClause::Copyin(b) | DataClause::Copy(b) => self.acc_copyin(b).await,
                DataClause::Present(b) => {
                    assert!(
                        self.acc_is_present(b),
                        "present() clause on data that is not on the device"
                    );
                }
            }
        }
        let out = body(self).await;
        for c in clauses {
            match c {
                DataClause::Create(b) | DataClause::Copyin(b) => self.acc_delete(b),
                DataClause::Copyout(b) | DataClause::Copy(b) => self.acc_copyout(b).await,
                DataClause::Present(b) => {
                    let _ = b; // owned by an enclosing region
                }
            }
        }
        out
    }

    /// `copyout`: full update-host + delete.
    pub async fn acc_copyout(&self, b: &HBuf) {
        self.acc_update_host(b, 0, b.len, None).await;
        self.acc_delete(b);
    }

    // ---------------------------------------------------------------
    // Kernels and queues
    // ---------------------------------------------------------------

    /// The activity queue with id `q` (created on first use).
    pub fn queue(&self, q: u32) -> ActivityQueue {
        let mut map = self.queues.lock();
        map.entry(q)
            .or_insert_with(|| {
                ActivityQueue::spawn_with_chaos(
                    &self.ctx,
                    format!("q{}.rank{}", q, self.comm.rank),
                    self.comm.res.chaos.clone(),
                )
            })
            .clone()
    }

    /// Launch a kernel (`#pragma acc kernels/parallel`). `f` performs the
    /// real computation; `cost` models its duration. With `q`, enqueued on
    /// that activity queue (`async(q)`); otherwise resolves once it has run
    /// (the implicit barrier of a synchronous construct, charged with sync
    /// overhead).
    pub async fn acc_kernel(
        &self,
        q: Option<u32>,
        cost: KernelCost,
        f: impl FnOnce() + Send + 'static,
    ) -> Option<Latch> {
        self.acc_kernel_cfg(q, cost, LaunchConfig::default(), f)
            .await
    }

    /// Launch a kernel with an explicit `num_gangs/num_workers/
    /// vector_length` configuration.
    pub async fn acc_kernel_cfg(
        &self,
        q: Option<u32>,
        cost: KernelCost,
        cfg: LaunchConfig,
        f: impl FnOnce() + Send + 'static,
    ) -> Option<Latch> {
        match q {
            Some(q) => {
                Some(
                    self.device
                        .enqueue_kernel_cfg(&self.ctx, &self.queue(q), cost, cfg, f),
                )
            }
            None => {
                self.device.kernel(&self.ctx, &cost, &cfg, f).await;
                self.sync_overhead("acc_wait").await;
                None
            }
        }
    }

    /// The host-side cost of one synchronization call, charged under `tag`.
    async fn sync_overhead(&self, tag: &'static str) {
        self.ctx.sleep(self.comm.res.sync_overhead(), tag).await;
    }

    /// `#pragma acc wait(q)`.
    pub async fn acc_wait(&self, q: u32) {
        self.sync_overhead("acc_wait").await;
        self.queue(q).wait_all(&self.ctx, "acc_wait").await;
    }

    /// `#pragma acc wait(wait_q) async(async_q)`: make queue `async_q`
    /// wait for everything currently on `wait_q`, without blocking the
    /// host thread.
    pub fn acc_wait_async(&self, wait_q: u32, async_q: u32) {
        let waiter = self.queue(async_q);
        let target = self.queue(wait_q);
        waiter.enqueue_wait_for(&self.ctx, &target);
    }

    /// `#pragma acc wait` (all queues this task ever used).
    pub async fn acc_wait_all(&self) {
        let queues: Vec<ActivityQueue> = self.queues.lock().values().cloned().collect();
        self.sync_overhead("acc_wait").await;
        for q in queues {
            q.wait_all(&self.ctx, "acc_wait").await;
        }
    }

    /// Charge host (CPU) computation time.
    pub async fn host_compute(&self, secs: f64) {
        self.ctx.sleep(SimDur::from_secs_f64(secs), "host").await;
    }

    // ---------------------------------------------------------------
    // Unified MPI communication routines
    // ---------------------------------------------------------------

    /// The one place a communication buffer's descriptor is built. The
    /// IMPACC runtime registers communication buffers with the library up
    /// front; the legacy model sends unregistered application buffers.
    fn resolved(&self, msg: MsgBuf, heap: Option<HeapRef>) -> ResolvedBuf {
        ResolvedBuf {
            msg: MsgBuf {
                pinned: self.comm.opts.is_impacc(),
                ..msg
            },
            far: self.dev_far,
            heap,
        }
    }

    fn resolve(&self, b: &HBuf, off: u64, len: u64, device: bool) -> ResolvedBuf {
        assert!(off + len <= b.len, "buffer view out of range");
        let addr = self.heap.deref(b.ptr).expect("live buffer").offset(off);
        if device {
            let (entry, eoff) = self
                .present
                .find_by_host(addr)
                .expect("sendbuf(device)/recvbuf(device) requires present data");
            assert!(eoff + len <= entry.len);
            let dev_idx = match entry.dev_region.space {
                impacc_mem::MemSpace::Device(i) => i,
                _ => unreachable!("present entries map device regions"),
            };
            let msg = MsgBuf::device(entry.dev_region.backing.clone(), eoff, len, dev_idx);
            self.resolved(msg, None)
        } else {
            let (region, roff) = self.space.resolve(addr).expect("mapped buffer");
            let heap = self.heap.entry_containing(addr).map(|e| HeapRef {
                ptr: b.ptr,
                addr,
                region_start: e.region.addr,
                region_len: e.region.len,
            });
            self.resolved(MsgBuf::host(region.backing, roff, len), heap)
        }
    }

    fn check_opts(&self, opts: &MpiOpts) {
        if !self.comm.opts.is_impacc() {
            assert!(
                !opts.device && !opts.readonly && opts.queue.is_none(),
                "IMPACC directive clauses require the IMPACC runtime \
                 (the baseline model stages and synchronizes explicitly)"
            );
        }
        if opts.queue.is_some() {
            assert!(
                self.comm.opts.unified_queue,
                "async MPI requires the unified activity queue (enable RuntimeOptions::unified_queue)"
            );
        }
    }

    /// `MPI_Send` over a byte range of `b` (world communicator).
    /// With `opts.queue`, the call is enqueued (returns immediately).
    pub async fn mpi_send(&self, b: &HBuf, off: u64, len: u64, dst: u32, tag: i32, opts: MpiOpts) {
        self.check_opts(&opts);
        let buf = self.resolve(b, off, len, opts.device);
        let world = self.world_ref().clone();
        match opts.queue {
            Some(q) => {
                // Enqueued non-blocking send (`#pragma acc mpi sendbuf(..)
                // async(q); MPI_Isend(..)`): the queue operation completes
                // at *issue* — like MPI_Isend itself — so two symmetric
                // tasks can both enqueue send-then-recv on one queue
                // (Figure 4(c)) without deadlocking. The send buffer must
                // not be overwritten by later operations until the message
                // is delivered, exactly as with any MPI_Isend.
                let core = self.comm.clone();
                self.queue(q)
                    .submit(&self.ctx, "mpi_isend", |qctx| async move {
                        let _issued = core
                            .isend(&qctx, buf, dst, tag, &world, opts.readonly)
                            .await;
                    });
            }
            None => {
                self.comm
                    .send(&self.ctx, buf, dst, tag, &world, opts.readonly)
                    .await
            }
        }
    }

    /// `MPI_Recv`. With `opts.queue`, enqueued (returns `None`).
    pub async fn mpi_recv(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        src: u32,
        tag: i32,
        opts: MpiOpts,
    ) -> Option<Status> {
        self.check_opts(&opts);
        let buf = self.resolve(b, off, len, opts.device);
        let world = self.world_ref().clone();
        match opts.queue {
            Some(q) => {
                let core = self.comm.clone();
                self.queue(q)
                    .submit(&self.ctx, "mpi_irecv", |qctx| async move {
                        let (src, tag) = (Some(src), Some(tag));
                        core.recv(&qctx, buf, src, tag, &world, opts.readonly).await;
                    });
                None
            }
            None => {
                let (src, tag) = (Some(src), Some(tag));
                let st = self
                    .comm
                    .recv(&self.ctx, buf, src, tag, &world, opts.readonly)
                    .await;
                Some(st)
            }
        }
    }

    /// `MPI_Isend`.
    pub async fn mpi_isend(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        dst: u32,
        tag: i32,
        opts: MpiOpts,
    ) -> Request {
        self.check_opts(&opts);
        assert!(
            opts.queue.is_none(),
            "use mpi_send with async(q) to enqueue"
        );
        let buf = self.resolve(b, off, len, opts.device);
        let world = self.world_ref();
        self.comm
            .isend(&self.ctx, buf, dst, tag, world, opts.readonly)
            .await
    }

    /// `MPI_Irecv`.
    pub async fn mpi_irecv(
        &self,
        b: &HBuf,
        off: u64,
        len: u64,
        src: u32,
        tag: i32,
        opts: MpiOpts,
    ) -> Request {
        self.check_opts(&opts);
        assert!(
            opts.queue.is_none(),
            "use mpi_recv with async(q) to enqueue"
        );
        let buf = self.resolve(b, off, len, opts.device);
        let (src, tag, world) = (Some(src), Some(tag), self.world_ref());
        self.comm
            .irecv(&self.ctx, buf, src, tag, world, opts.readonly)
            .await
    }

    /// `MPI_Sendrecv`: combined exchange over the unified routines,
    /// deadlock-free even against synchronous fused sends.
    #[allow(clippy::too_many_arguments)]
    pub async fn mpi_sendrecv(
        &self,
        send: &HBuf,
        dst: u32,
        recv: &HBuf,
        src: u32,
        tag: i32,
        opts: MpiOpts,
    ) -> Status {
        self.check_opts(&opts);
        assert!(opts.queue.is_none(), "enqueue the send and recv separately");
        let sbuf = self.resolve(send, 0, send.len, opts.device);
        let rbuf = self.resolve(recv, 0, recv.len, opts.device);
        let world = self.world_ref();
        self.comm
            .sendrecv(&self.ctx, sbuf, dst, rbuf, src, tag, world, opts.readonly)
            .await
    }

    /// `MPI_Irecv` with `MPI_ANY_SOURCE`/`MPI_ANY_TAG`. Wildcard receives
    /// go through the system-MPI path, so under the IMPACC runtime the
    /// matching sender must be on another node (node-local senders use
    /// the handler's exact-match queues).
    pub async fn mpi_irecv_any(&self, b: &HBuf, off: u64, len: u64, opts: MpiOpts) -> Request {
        self.check_opts(&opts);
        assert!(opts.queue.is_none(), "wildcard receives cannot be enqueued");
        let buf = self.resolve(b, off, len, opts.device);
        let world = self.world_ref();
        self.comm
            .irecv(&self.ctx, buf, None, None, world, opts.readonly)
            .await
    }

    /// `MPI_Waitall`.
    pub async fn mpi_waitall(&self, reqs: &[Request]) {
        self.sync_overhead("mpi_wait").await;
        for r in reqs {
            r.completion(&self.ctx).await;
        }
    }

    /// `MPI_Barrier(MPI_COMM_WORLD)`.
    pub async fn mpi_barrier(&self) {
        let world = self.world_ref().clone();
        self.barrier(&self.ctx, &world).await;
    }

    /// `MPI_Bcast` of a whole heap buffer. Under IMPACC with `readonly`,
    /// uses the node-leader pattern of §3.8: the root sends once per
    /// remote node; node-local redistribution goes through the handler
    /// with `readonly` attributes, so eligible receivers *alias* the
    /// buffer instead of copying.
    pub async fn mpi_bcast(&self, b: &HBuf, root: u32, opts: MpiOpts) {
        self.check_opts(&opts);
        let world = self.world_ref().clone();
        let use_alias = self.comm.opts.is_impacc() && self.comm.opts.aliasing && opts.readonly;
        if !use_alias {
            let m = self.resolve(b, 0, b.len, opts.device).msg;
            self.bcast(&self.ctx, &m, root, &world).await;
            return;
        }
        let tag = self.coll.next_tag(&world);
        let me = self.comm.rank;
        let my_node = self.comm.node;
        let node_of = &self.comm.node_of;
        let root_node = node_of[root as usize];
        // One leader per participating node: the root for its own node,
        // the lowest rank elsewhere.
        let leader_of = |n: usize| -> u32 {
            if n == root_node {
                return root;
            }
            (0..world.size())
                .find(|r| node_of[*r as usize] == n)
                .expect("every node with tasks has a leader")
        };
        let mut nodes: Vec<usize> = (0..world.size()).map(|r| node_of[r as usize]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let leaders: Vec<u32> = nodes.iter().map(|n| leader_of(*n)).collect();
        let o = MpiOpts {
            device: false,
            readonly: true,
            queue: None,
        };
        if let Some(li) = leaders.iter().position(|l| *l == me) {
            // Internode stage: a binomial tree over the node leaders (the
            // root leads its own node), so the critical path is
            // logarithmic in the node count.
            let nl = leaders.len() as u32;
            let li = li as u32;
            let ri = leaders
                .iter()
                .position(|l| *l == root)
                .expect("root leads its node") as u32;
            let vr = (li + nl - ri) % nl;
            let mut mask = 1u32;
            while mask < nl {
                if vr & mask != 0 {
                    let src = leaders[((vr - mask + ri) % nl) as usize];
                    self.mpi_recv(b, 0, b.len, src, tag, MpiOpts::host()).await;
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if vr + mask < nl {
                    let dst = leaders[((vr + mask + ri) % nl) as usize];
                    self.mpi_send(b, 0, b.len, dst, tag, MpiOpts::host()).await;
                }
                mask >>= 1;
            }
            // Intra-node stage: read-only redistribution through the
            // handler — eligible receivers alias instead of copying.
            for r in 0..world.size() {
                if r != me && node_of[r as usize] == my_node {
                    self.mpi_send(b, 0, b.len, r, tag, o).await;
                }
            }
        } else {
            self.mpi_recv(b, 0, b.len, leader_of(my_node), tag, o).await;
        }
    }

    /// `MPI_Comm_split`: collectively split the world communicator by
    /// `(color, key)`. Implemented as an allgather of every task's pair
    /// followed by the deterministic local grouping, so all members of a
    /// color agree on the sub-communicator (including its id).
    pub async fn mpi_comm_split(&self, color: i64, key: i64) -> Comm {
        let world = self.world_ref().clone();
        let n = world.size() as usize;
        let mine = self.staged(&[color as f64, key as f64]);
        let all = self.scratch(16 * n as u64);
        self.allgather(&self.ctx, &mine, &all, &world).await;
        let (colors, keys): (Vec<i64>, Vec<i64>) = all.with_f64s(|vals| {
            vals.chunks_exact(2)
                .map(|pair| (pair[0] as i64, pair[1] as i64))
                .unzip()
        });
        world.split(&colors, &keys, self.comm_rank(&world))
    }

    /// A host buffer of `n` f64s for [`Rank::mpi_allreduce_in_place`]:
    /// runtime scratch outside the simulated heap (no virtual time, real
    /// bytes even in phys-capped runs), contents unspecified — fill it
    /// through [`MsgBuf::with_f64s_mut`], read it through
    /// [`MsgBuf::with_f64s`], keep it for as many rounds as there are.
    pub fn mpi_scratch_f64(&self, n: usize) -> MsgBuf {
        self.scratch(n as u64 * 8)
    }

    /// `MPI_Allreduce(MPI_IN_PLACE, buf, ..)` over f64 elements on the
    /// world communicator: `buf` is contribution and result, and — when it
    /// is a buffer from [`Rank::mpi_scratch_f64`] — the running fold as
    /// well, so the call moves the payload through no other buffer of its
    /// size than the receive side of each exchange.
    pub async fn mpi_allreduce_in_place(&self, buf: &MsgBuf, op: ReduceOp) {
        let world = self.world_ref().clone();
        self.allreduce(&self.ctx, buf, buf, op, &world).await;
    }

    /// `MPI_Allreduce` convenience over f64 values, staged through the
    /// task's scratch ([`Rank::mpi_allreduce_in_place`] skips the
    /// staging copies; this form suits a residual, a dot product, a dt).
    pub async fn mpi_allreduce_f64(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let buf = self.staged(vals);
        self.mpi_allreduce_in_place(&buf, op).await;
        buf.read_f64s()
    }

    /// `MPI_Reduce` convenience over f64 values; result on `root`.
    pub async fn mpi_reduce_f64(&self, vals: &[f64], op: ReduceOp, root: u32) -> Option<Vec<f64>> {
        let world = self.world_ref().clone();
        let buf = self.staged(vals);
        self.reduce(&self.ctx, &buf, Some(&buf), op, root, &world)
            .await;
        (self.comm.rank == world.global_of(root)).then(|| buf.read_f64s())
    }

    /// Scratch holding `vals`.
    fn staged(&self, vals: &[f64]) -> MsgBuf {
        let buf = self.mpi_scratch_f64(vals.len());
        buf.write_f64s(vals);
        buf
    }
}

impl PointToPoint for Rank {
    async fn pt_send(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm) {
        let buf = self.resolved(buf.clone(), None);
        self.comm.send(ctx, buf, dst, tag, comm, false).await;
    }

    async fn pt_recv(
        &self,
        ctx: &Ctx,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Status {
        let buf = self.resolved(buf.clone(), None);
        self.comm.recv(ctx, buf, src, tag, comm, false).await
    }

    async fn pt_sendrecv(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        dst: u32,
        recvbuf: &MsgBuf,
        src: u32,
        tag: i32,
        comm: &Comm,
    ) -> Status {
        let sbuf = self.resolved(sendbuf.clone(), None);
        let rbuf = self.resolved(recvbuf.clone(), None);
        self.comm
            .sendrecv(ctx, sbuf, dst, rbuf, src, tag, comm, false)
            .await
    }

    fn comm_rank(&self, comm: &Comm) -> u32 {
        comm.rel_of(self.comm.rank).expect("task in communicator")
    }

    fn coll_seq(&self) -> &CollSeq {
        &self.coll
    }

    fn scratch(&self, len: u64) -> MsgBuf {
        MsgBuf::host(self.pool.take(len), 0, len)
    }

    // The four dispatched collectives route through the engine, which
    // selects a registry algorithm (hierarchical under IMPACC when the
    // placement has multi-rank nodes) instead of the flat p2p defaults.

    async fn barrier(&self, ctx: &Ctx, comm: &Comm) {
        let opts = CollOpts::default();
        self.engine.barrier(self, ctx, comm, opts).await;
    }

    async fn bcast(&self, ctx: &Ctx, buf: &MsgBuf, root: u32, comm: &Comm) {
        let opts = CollOpts::default();
        self.engine.bcast(self, ctx, buf, root, comm, opts).await;
    }

    async fn allreduce(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        op: ReduceOp,
        comm: &Comm,
    ) {
        let opts = CollOpts::default();
        let run = self
            .engine
            .allreduce(self, ctx, sendbuf, recvbuf, op, comm, opts);
        run.await;
    }

    async fn allgather(&self, ctx: &Ctx, sendbuf: &MsgBuf, recvbuf: &MsgBuf, comm: &Comm) {
        let opts = CollOpts::default();
        let run = self
            .engine
            .allgather(self, ctx, sendbuf, recvbuf, comm, opts);
        run.await;
    }
}

/// The synchronous facade of a rank whose body blocks on a stack of its
/// own ([`crate::Launch::run`]): a handful of [`Rank`]'s operations, each a
/// forward or a block on the rank's own future. Everything else is
/// written against [`Rank`] and launched with
/// [`crate::Launch::run_async`].
pub struct TaskCtx {
    rank: Rank,
}

impl TaskCtx {
    pub(crate) fn new(rank: Rank) -> TaskCtx {
        TaskCtx { rank }
    }

    /// [`Rank::rank`].
    pub fn rank(&self) -> u32 {
        self.rank.rank()
    }

    /// [`Rank::size`].
    pub fn size(&self) -> u32 {
        self.rank.size()
    }

    /// [`Rank::malloc`], blocking.
    #[track_caller]
    pub fn malloc(&self, len: u64) -> HBuf {
        self.rank.ctx.block_on(self.rank.malloc(len))
    }

    /// [`Rank::host_view`].
    pub fn host_view(&self, b: &HBuf) -> BufView {
        self.rank.host_view(b)
    }

    /// [`Rank::mpi_sendrecv`], blocking.
    #[allow(clippy::too_many_arguments)]
    #[track_caller]
    pub fn mpi_sendrecv(
        &self,
        send: &HBuf,
        dst: u32,
        recv: &HBuf,
        src: u32,
        tag: i32,
        opts: MpiOpts,
    ) -> Status {
        let op = self.rank.mpi_sendrecv(send, dst, recv, src, tag, opts);
        self.rank.ctx.block_on(op)
    }

    /// [`Rank::acc_kernel`], blocking.
    #[track_caller]
    pub fn acc_kernel(
        &self,
        q: Option<u32>,
        cost: KernelCost,
        f: impl FnOnce() + Send + 'static,
    ) -> Option<Latch> {
        self.rank.ctx.block_on(self.rank.acc_kernel(q, cost, f))
    }

    /// [`Rank::acc_wait`], blocking.
    #[track_caller]
    pub fn acc_wait(&self, q: u32) {
        self.rank.ctx.block_on(self.rank.acc_wait(q))
    }

    /// [`Rank::mpi_allreduce_f64`], blocking.
    #[track_caller]
    pub fn mpi_allreduce_f64(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        self.rank
            .ctx
            .block_on(self.rank.mpi_allreduce_f64(vals, op))
    }
}
