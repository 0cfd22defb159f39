//! Collective communication built generically over point-to-point.
//!
//! The [`PointToPoint`] trait abstracts "something that can send and
//! receive" — the system MPI endpoint implements it directly, and the
//! IMPACC runtime implements it with its unified communication routines
//! (which lets IMPACC inherit every collective while overriding the ones
//! it optimizes, e.g. `MPI_Bcast` with node heap aliasing, §3.8).
//!
//! Algorithms: dissemination barrier, binomial-tree broadcast and reduce,
//! linear gather/scatter rooted at the root's NIC (which is precisely the
//! bottleneck the paper's DGEMM scaling exposes).

use std::collections::HashMap;
use std::future::Future;
use std::sync::Arc;

use impacc_mem::Backing;
use impacc_vtime::Ctx;
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::engine::MpiTask;
use crate::types::{MsgBuf, ReduceOp, SrcSel, Status, TagSel};

/// Per-endpoint counter handing out a fresh internal tag for each
/// collective invocation on each communicator. MPI requires all members to
/// invoke collectives on a communicator in the same order, so matching
/// counters across ranks identify the same operation.
#[derive(Default)]
pub struct CollSeq {
    next: Mutex<HashMap<u64, i32>>,
}

impl CollSeq {
    /// A fresh counter set.
    pub fn new() -> CollSeq {
        CollSeq::default()
    }

    /// The internal tag for this endpoint's next collective on `comm`.
    /// Internal tags are negative so they can never collide with
    /// application tags (which must be non-negative).
    pub fn next_tag(&self, comm: &Comm) -> i32 {
        let mut m = self.next.lock();
        let c = m.entry(comm.id()).or_insert(0);
        *c += 1;
        -*c
    }
}

/// Await a collective's body inside an `mpi_coll` span (zero-cost when no
/// span sink is attached).
async fn coll_span<R>(ctx: &Ctx, op: &'static str, bytes: u64, body: impl Future<Output = R>) -> R {
    let t0 = ctx.now();
    let r = body.await;
    ctx.span("mpi_coll", t0, ctx.now(), || {
        vec![("op", op.to_string()), ("bytes", bytes.to_string())]
    });
    r
}

/// The running fold of a reduction over `sendbuf`: the caller's own
/// buffer when it is `recvbuf` as well and [`MsgBuf::folds_in_place`]
/// (no copy in, none out), else scratch holding a copy of `sendbuf`.
/// Either way steps fold into it and send slices of it directly, and the
/// wire sees host scratch — or what the cost model cannot tell from it —
/// whatever kind of buffer the caller passed.
pub fn fold_buffer<T: PointToPoint + ?Sized>(
    t: &T,
    sendbuf: &MsgBuf,
    recvbuf: Option<&MsgBuf>,
) -> MsgBuf {
    if let Some(rb) = recvbuf.filter(|rb| sendbuf.folds_in_place(rb)) {
        return rb.clone();
    }
    let acc = t.scratch(sendbuf.len);
    Backing::copy(&sendbuf.backing, sendbuf.off, &acc.backing, 0, sendbuf.len);
    acc
}

/// Hand a finished fold to `recvbuf`, without charging time: a copy,
/// unless the fold ran there.
pub fn deliver_fold(acc: &MsgBuf, recvbuf: &MsgBuf) {
    if !acc.same_range(recvbuf) {
        Backing::copy(
            &acc.backing,
            acc.off,
            &recvbuf.backing,
            recvbuf.off,
            acc.len,
        );
    }
}

/// Point-to-point transport with derived collectives. Every operation that
/// can suspend is an `async fn`: a rank awaits it wherever it runs.
#[allow(async_fn_in_trait)] // implemented and awaited on concrete types
pub trait PointToPoint {
    /// Send `buf` to communicator-relative rank `dst` with `tag`.
    async fn pt_send(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm);
    /// Receive into `buf`.
    async fn pt_recv(
        &self,
        ctx: &Ctx,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Status;
    /// This endpoint's communicator-relative rank.
    fn comm_rank(&self, comm: &Comm) -> u32;
    /// The endpoint's collective sequence counters.
    fn coll_seq(&self) -> &CollSeq;

    /// `len` bytes of host scratch for a collective's internals: uncapped
    /// (real bytes even in phys-capped runs), contents unspecified. A
    /// fresh allocation here; a launched runtime reissues its own.
    fn scratch(&self, len: u64) -> MsgBuf {
        MsgBuf::host(Backing::new(len, None), 0, len)
    }

    /// `MPI_Sendrecv`: a combined exchange that cannot deadlock even when
    /// both peers initiate simultaneously and the transport completes
    /// sends synchronously (as IMPACC's fused intra-node path does).
    /// Implementations must issue the send non-blockingly before waiting
    /// on the receive.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Sendrecv signature
    async fn pt_sendrecv(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        dst: u32,
        recvbuf: &MsgBuf,
        src: u32,
        tag: i32,
        comm: &Comm,
    ) -> Status;

    /// `MPI_Barrier`. Dispatches to the flat dissemination algorithm;
    /// runtimes with a collectives engine (`impacc-coll`) override this to
    /// route through the algorithm registry.
    async fn barrier(&self, ctx: &Ctx, comm: &Comm) {
        self.flat_barrier(ctx, comm).await
    }

    /// Flat dissemination barrier, ⌈log2 n⌉ rounds — the registry's
    /// `flat` entry and the correctness reference.
    async fn flat_barrier(&self, ctx: &Ctx, comm: &Comm) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let r = self.comm_rank(comm);
        let tag = self.coll_seq().next_tag(comm);
        coll_span(ctx, "barrier", 0, async {
            let token = self.scratch(0);
            let token_in = self.scratch(0);
            let mut k = 1u32;
            while k < n {
                let dst = (r + k) % n;
                let src = (r + n - k) % n;
                self.pt_sendrecv(ctx, &token, dst, &token_in, src, tag, comm)
                    .await;
                k <<= 1;
            }
        })
        .await
    }

    /// `MPI_Bcast`. Every rank passes its own `buf` of identical length;
    /// non-roots receive into it. Dispatches to the flat binomial tree;
    /// engine-backed runtimes override this.
    async fn bcast(&self, ctx: &Ctx, buf: &MsgBuf, root: u32, comm: &Comm) {
        self.flat_bcast(ctx, buf, root, comm).await
    }

    /// Flat binomial-tree broadcast rooted at `root` — the registry's
    /// `flat` entry and the correctness reference.
    async fn flat_bcast(&self, ctx: &Ctx, buf: &MsgBuf, root: u32, comm: &Comm) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let r = self.comm_rank(comm);
        let tag = self.coll_seq().next_tag(comm);
        coll_span(ctx, "bcast", buf.len, async {
            let vr = (r + n - root) % n;
            let mut mask = 1u32;
            while mask < n {
                if vr & mask != 0 {
                    let src = (vr - mask + root) % n;
                    self.pt_recv(ctx, buf, Some(src), Some(tag), comm).await;
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if vr + mask < n {
                    let dst = (vr + mask + root) % n;
                    self.pt_send(ctx, buf, dst, tag, comm).await;
                }
                mask >>= 1;
            }
        })
        .await
    }

    /// `MPI_Reduce` over f64 elements: binomial tree; the reduced vector
    /// lands in `recvbuf` on `root` (other ranks may pass `None`). A rank
    /// that passes its send buffer as `recvbuf` too (`MPI_IN_PLACE`) lends
    /// it as the running fold when [`MsgBuf::folds_in_place`] allows — a
    /// non-root is then left holding its subtree's partial result.
    async fn reduce(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: Option<&MsgBuf>,
        op: ReduceOp,
        root: u32,
        comm: &Comm,
    ) {
        let n = comm.size();
        let r = self.comm_rank(comm);
        let tag = self.coll_seq().next_tag(comm);
        let copy_out = |from: &MsgBuf| {
            if r == root {
                deliver_fold(from, recvbuf.expect("root must supply a receive buffer"));
            }
        };
        if n <= 1 {
            return copy_out(sendbuf);
        }
        let acc = fold_buffer(self, sendbuf, recvbuf);
        coll_span(ctx, "reduce", sendbuf.len, async {
            let vr = (r + n - root) % n;
            // One receive buffer for every child; leaves never need it.
            let mut tmp = None;
            let mut mask = 1u32;
            while mask < n {
                if vr & mask == 0 {
                    let child = vr | mask;
                    if child < n {
                        let src = (child + root) % n;
                        let tmp = tmp.get_or_insert_with(|| self.scratch(sendbuf.len));
                        self.pt_recv(ctx, tmp, Some(src), Some(tag), comm).await;
                        op.fold(&acc, tmp);
                    }
                } else {
                    let parent = vr & !mask;
                    let dst = (parent + root) % n;
                    self.pt_send(ctx, &acc, dst, tag, comm).await;
                    break;
                }
                mask <<= 1;
            }
        })
        .await;
        copy_out(&acc);
    }

    /// `MPI_Allreduce`. Every rank supplies `recvbuf`. Dispatches to the
    /// flat reduce+bcast composition; engine-backed runtimes override this.
    async fn allreduce(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        op: ReduceOp,
        comm: &Comm,
    ) {
        self.flat_allreduce(ctx, sendbuf, recvbuf, op, comm).await
    }

    /// Flat allreduce = binomial reduce to rank 0 + binomial broadcast —
    /// the registry's `flat` entry and the correctness reference.
    async fn flat_allreduce(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        op: ReduceOp,
        comm: &Comm,
    ) {
        self.reduce(ctx, sendbuf, Some(recvbuf), op, 0, comm).await;
        self.flat_bcast(ctx, recvbuf, 0, comm).await;
    }

    /// `MPI_Allgather`. `recvbuf` must hold `size * sendbuf.len` bytes on
    /// every rank. Dispatches to the flat gather+bcast composition;
    /// engine-backed runtimes override this.
    async fn allgather(&self, ctx: &Ctx, sendbuf: &MsgBuf, recvbuf: &MsgBuf, comm: &Comm) {
        self.flat_allgather(ctx, sendbuf, recvbuf, comm).await
    }

    /// Flat allgather = a linear gather to rank 0 + broadcast of the full
    /// vector — the registry's `flat` entry and the correctness reference.
    async fn flat_allgather(&self, ctx: &Ctx, sendbuf: &MsgBuf, recvbuf: &MsgBuf, comm: &Comm) {
        let tag = self.coll_seq().next_tag(comm);
        let t0 = ctx.now();
        if self.comm_rank(comm) == 0 {
            let n = comm.size();
            assert!(
                recvbuf.len >= sendbuf.len * n as u64,
                "gather buffer too small"
            );
            for i in 0..n {
                let slot = recvbuf.slice(i as u64 * sendbuf.len, sendbuf.len);
                if i == 0 {
                    Backing::copy(
                        &sendbuf.backing,
                        sendbuf.off,
                        &slot.backing,
                        slot.off,
                        sendbuf.len,
                    );
                } else {
                    self.pt_recv(ctx, &slot, Some(i), Some(tag), comm).await;
                }
            }
        } else {
            self.pt_send(ctx, sendbuf, 0, tag, comm).await;
        }
        let bytes = sendbuf.len;
        ctx.span("mpi_coll", t0, ctx.now(), || {
            vec![("op", "gather".to_string()), ("bytes", bytes.to_string())]
        });
        self.flat_bcast(ctx, recvbuf, 0, comm).await;
    }
}

/// The system MPI endpoint, with its collective counters.
pub struct SysEndpoint {
    task: MpiTask,
    seq: Arc<CollSeq>,
}

impl SysEndpoint {
    /// Wrap an endpoint.
    pub fn new(task: MpiTask) -> SysEndpoint {
        SysEndpoint {
            task,
            seq: Arc::new(CollSeq::new()),
        }
    }
}

impl PointToPoint for SysEndpoint {
    async fn pt_send(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm) {
        self.task.send(ctx, buf, dst, tag, comm).await;
    }

    #[allow(clippy::too_many_arguments)]
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
        self.task
            .sendrecv(ctx, sendbuf, dst, recvbuf, src, tag, comm)
            .await
    }

    async fn pt_recv(
        &self,
        ctx: &Ctx,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Status {
        self.task.recv(ctx, buf, src, tag, comm).await
    }

    fn comm_rank(&self, comm: &Comm) -> u32 {
        comm.rel_of(self.task.global_rank())
            .expect("endpoint not in communicator")
    }

    fn coll_seq(&self) -> &CollSeq {
        &self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SysMpi;
    use impacc_machine::{presets, ClusterResources};
    use impacc_vtime::Sim;

    fn run_world(
        nodes: usize,
        per_node: usize,
        f: impl Fn(&Ctx, SysEndpoint, Comm) + Send + Sync + 'static,
    ) {
        let n = nodes * per_node;
        let res = Arc::new(ClusterResources::new(Arc::new(presets::test_cluster(
            nodes,
            per_node.min(8),
        ))));
        let node_of: Vec<usize> = (0..n).map(|r| r / per_node).collect();
        let mut sim = Sim::new();
        let sys = SysMpi::new(&mut sim, res, node_of);
        let world = Comm::world(n as u32);
        let f = Arc::new(f);
        for r in 0..n {
            let sys = sys.clone();
            let world = world.clone();
            let f = f.clone();
            sim.spawn_on((r / per_node) as u32, format!("rank{r}"), move |ctx| {
                let ep = SysEndpoint::new(MpiTask::new(sys, r as u32));
                f(ctx, ep, world);
            });
        }
        sim.run().unwrap();
    }

    fn buf_of(vals: &[f64]) -> MsgBuf {
        let m = MsgBuf::host(
            Backing::new(vals.len() as u64 * 8, None),
            0,
            vals.len() as u64 * 8,
        );
        m.write_f64s(vals);
        m
    }

    #[test]
    fn barrier_synchronizes_everyone() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let before = Arc::new(AtomicU32::new(0));
        let b2 = before.clone();
        run_world(2, 3, move |ctx, ep, world| {
            let r = ep.comm_rank(&world);
            ctx.advance(impacc_vtime::SimDur::from_us(r as u64 * 100), "skew");
            b2.fetch_add(1, Ordering::SeqCst);
            ctx.block_on(ep.barrier(ctx, &world));
            assert_eq!(
                b2.load(Ordering::SeqCst),
                6,
                "all ranks entered before any exits"
            );
        });
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..4u32 {
            run_world(2, 2, move |ctx, ep, world| {
                let r = ep.comm_rank(&world);
                let buf = if r == root {
                    buf_of(&[root as f64 * 10.0, 1.0, 2.0])
                } else {
                    buf_of(&[0.0; 3])
                };
                ctx.block_on(ep.bcast(ctx, &buf, root, &world));
                assert_eq!(buf.read_f64s(), vec![root as f64 * 10.0, 1.0, 2.0]);
            });
        }
    }

    #[test]
    fn reduce_sums_across_ranks() {
        run_world(2, 4, |ctx, ep, world| {
            let r = ep.comm_rank(&world) as f64;
            let sb = buf_of(&[r, 2.0 * r]);
            let rb = buf_of(&[0.0, 0.0]);
            ctx.block_on(ep.reduce(ctx, &sb, Some(&rb), ReduceOp::Sum, 0, &world));
            if ep.comm_rank(&world) == 0 {
                assert_eq!(rb.read_f64s(), vec![28.0, 56.0]); // 0+..+7
            }
        });
    }

    #[test]
    fn allreduce_max_everywhere() {
        run_world(1, 5, |ctx, ep, world| {
            let r = ep.comm_rank(&world) as f64;
            let sb = buf_of(&[r, -r]);
            let rb = buf_of(&[0.0, 0.0]);
            ctx.block_on(ep.allreduce(ctx, &sb, &rb, ReduceOp::Max, &world));
            assert_eq!(rb.read_f64s(), vec![4.0, 0.0]);
        });
    }

    #[test]
    fn allgather_full_vector_everywhere() {
        run_world(1, 3, |ctx, ep, world| {
            let r = ep.comm_rank(&world);
            let sb = buf_of(&[r as f64]);
            let rb = buf_of(&[0.0; 3]);
            ctx.block_on(ep.allgather(ctx, &sb, &rb, &world));
            assert_eq!(rb.read_f64s(), vec![0.0, 1.0, 2.0]);
        });
    }

    #[test]
    fn allgather_orders_multi_element_blocks_across_nodes() {
        // Two nodes of two ranks: the gather to rank 0 crosses the node
        // boundary and lands each two-element block at its rank's offset.
        run_world(2, 2, |ctx, ep, world| {
            let r = ep.comm_rank(&world) as f64;
            let sb = buf_of(&[r, r + 0.5]);
            let rb = buf_of(&[-1.0; 8]);
            ctx.block_on(ep.allgather(ctx, &sb, &rb, &world));
            assert_eq!(rb.read_f64s(), vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        });
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        run_world(2, 2, |ctx, ep, world| {
            let r = ep.comm_rank(&world) as f64;
            let a = buf_of(&[r]);
            let b = buf_of(&[10.0 * r]);
            let ra = buf_of(&[0.0]);
            let rb = buf_of(&[0.0]);
            ctx.block_on(ep.allreduce(ctx, &a, &ra, ReduceOp::Sum, &world));
            ctx.block_on(ep.allreduce(ctx, &b, &rb, ReduceOp::Sum, &world));
            assert_eq!(ra.read_f64s(), vec![6.0]);
            assert_eq!(rb.read_f64s(), vec![60.0]);
        });
    }

    #[test]
    fn collectives_on_split_comms() {
        run_world(2, 2, |ctx, ep, world| {
            let r = ep.comm_rank(&world);
            let colors: Vec<i64> = (0..4).map(|i| (i % 2) as i64).collect();
            let keys = vec![0i64; 4];
            let sub = world.split(&colors, &keys, r);
            let sb = buf_of(&[r as f64]);
            let rb = buf_of(&[0.0]);
            ctx.block_on(ep.allreduce(ctx, &sb, &rb, ReduceOp::Sum, &sub));
            // Even ranks: 0 + 2 = 2; odd ranks: 1 + 3 = 4.
            let expect = if r % 2 == 0 { 2.0 } else { 4.0 };
            assert_eq!(rb.read_f64s(), vec![expect]);
        });
    }
}
