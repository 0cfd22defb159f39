//! # impacc-coll — the collectives engine
//!
//! Flat point-to-point collectives (`impacc_mpi::PointToPoint`'s default
//! bodies) treat every rank as remote: intra-node peers pay full
//! message-engine latency and large reductions serialize at a root. This
//! crate is the NCCL-shaped subsystem on top: an **algorithm registry**
//! (binomial tree, ring, recursive doubling, Rabenseifner
//! reduce-scatter+allgather, Bruck) plus a **two-level hierarchical path**
//! that elects one leader per node, runs the intra-node phase as direct
//! shared-memory reduction/copies through the node VAS (`impacc-mem`
//! backings + [`ReducePool`](impacc_mem::ReducePool) publish buffers), and
//! crosses the network only between leaders.
//!
//! A [`CollEngine`] picks the algorithm per call from message size,
//! communicator shape and job topology ([`impacc_machine::JobTopo`]);
//! the choice is overridable per launch (`Launch::coll_algo`, serve's
//! `algo=` field) and per call ([`CollOpts`]). Every collective
//! emits an `mpi_coll` span tagged with the chosen algorithm plus
//! `coll_intra` spans for the shared-memory phases, so `impacc-prof`
//! attributes collective stalls to the intra-node vs internode phase
//! (`free_intranode_coll` what-if).
//!
//! Every registry entry is semantically interchangeable with the `flat`
//! reference: for exactly-representable payloads the results are
//! bit-identical (the equivalence proptest suite pins this).

#![warn(missing_docs)]

pub mod algos;
pub mod hier;

use std::sync::Arc;

use impacc_machine::{Chaos, FaultSite, JobTopo};
use impacc_mpi::{BufLoc, Comm, MsgBuf, PointToPoint, ReduceOp};
use impacc_vtime::{Ctx, SimDur};

pub use hier::NodeColl;

/// A registry entry: one way to run a collective.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollAlgo {
    /// The flat p2p derivation from `impacc_mpi::PointToPoint` — the
    /// correctness reference.
    Flat,
    /// Binomial tree (reduce+bcast composition for allreduce).
    Binomial,
    /// Ring: chunked reduce-scatter + allgather rings (bandwidth-optimal).
    Ring,
    /// Recursive doubling (latency-optimal for small payloads).
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    /// allgather.
    Rabenseifner,
    /// Bruck's allgather (⌈log2 n⌉ steps at any n).
    Bruck,
    /// Two-level hierarchical: shared-memory intra-node phase, leaders-only
    /// internode phase.
    Hier,
}

impl CollAlgo {
    /// Every registry entry, in presentation order.
    pub const ALL: [CollAlgo; 7] = [
        CollAlgo::Flat,
        CollAlgo::Binomial,
        CollAlgo::Ring,
        CollAlgo::RecursiveDoubling,
        CollAlgo::Rabenseifner,
        CollAlgo::Bruck,
        CollAlgo::Hier,
    ];

    /// The registry/env spelling.
    pub fn label(self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::Binomial => "binomial",
            CollAlgo::Ring => "ring",
            CollAlgo::RecursiveDoubling => "rd",
            CollAlgo::Rabenseifner => "rabenseifner",
            CollAlgo::Bruck => "bruck",
            CollAlgo::Hier => "hier",
        }
    }

    /// Parse a registry spelling.
    pub fn parse(s: &str) -> Option<CollAlgo> {
        CollAlgo::ALL.iter().copied().find(|a| a.label() == s)
    }

    /// Metrics counter key counting calls dispatched to this entry.
    pub fn counter(self) -> &'static str {
        match self {
            CollAlgo::Flat => "coll_algo_flat",
            CollAlgo::Binomial => "coll_algo_binomial",
            CollAlgo::Ring => "coll_algo_ring",
            CollAlgo::RecursiveDoubling => "coll_algo_rd",
            CollAlgo::Rabenseifner => "coll_algo_rabenseifner",
            CollAlgo::Bruck => "coll_algo_bruck",
            CollAlgo::Hier => "coll_algo_hier",
        }
    }
}

/// The collective operations the engine dispatches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollOp {
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Barrier`.
    Barrier,
}

impl CollOp {
    /// Span/attr spelling.
    pub fn label(self) -> &'static str {
        match self {
            CollOp::Allreduce => "allreduce",
            CollOp::Bcast => "bcast",
            CollOp::Allgather => "allgather",
            CollOp::Barrier => "barrier",
        }
    }
}

/// Per-call options.
#[derive(Copy, Clone, Debug, Default)]
pub struct CollOpts {
    /// Force a registry entry for this call (still clamped to the entries
    /// that support the operation).
    pub algo: Option<CollAlgo>,
}

/// The per-task collectives engine: registry dispatch + selection policy.
///
/// One instance per task (cheap: a few `Arc`s). Generic over the
/// transport, so the same engine drives both the system MPI endpoint and
/// the IMPACC unified communication routines.
#[derive(Clone)]
pub struct CollEngine {
    /// Global rank → hosting node.
    node_of: Arc<Vec<usize>>,
    /// This task's node (sanity checks only; groups are derived from
    /// `node_of`).
    node: usize,
    /// Job placement shape, for the hierarchical pre-check.
    topo: JobTopo,
    /// Host memcpy bandwidth (bytes/s) for intra-node fold/copy charges.
    memcpy_bw: f64,
    /// Host memcpy latency (s) per intra-node fold/copy.
    memcpy_lat: f64,
    /// Fault injection: intra-node folds roll `FaultSite::CopyFault`.
    chaos: Chaos,
    /// This node's collective rendezvous, when the runtime provides one
    /// (IMPACC mode). `None` disables the hierarchical path.
    node_coll: Option<Arc<NodeColl>>,
    /// Launch-forced algorithm.
    forced: Option<CollAlgo>,
}

impl CollEngine {
    /// Build an engine. `forced` (from `Launch::coll_algo`) names one
    /// registry entry for every call; without it the size/topology policy
    /// picks.
    pub fn new(
        node_of: Arc<Vec<usize>>,
        node: usize,
        memcpy_bw: f64,
        memcpy_lat: f64,
        chaos: Chaos,
        node_coll: Option<Arc<NodeColl>>,
        forced: Option<CollAlgo>,
    ) -> CollEngine {
        let topo = JobTopo::from_node_of(&node_of);
        CollEngine {
            node_of,
            node,
            topo,
            memcpy_bw,
            memcpy_lat,
            chaos,
            node_coll,
            forced,
        }
    }

    /// A flat-only engine (no hierarchical path, no fault injection) —
    /// for endpoints outside a launched runtime.
    pub fn detached(node_of: Arc<Vec<usize>>, node: usize) -> CollEngine {
        CollEngine::new(node_of, node, 20e9, 0.2e-6, Chaos::default(), None, None)
    }

    /// rank→node map accessor (hier phase grouping).
    pub(crate) fn node_of(&self) -> &[usize] {
        &self.node_of
    }

    pub(crate) fn node(&self) -> usize {
        self.node
    }

    pub(crate) fn rendezvous(&self) -> &Arc<NodeColl> {
        self.node_coll
            .as_ref()
            .expect("hierarchical path requires a NodeColl rendezvous")
    }

    /// Does any node host ≥ 2 members of `comm`? (Deterministic: every
    /// member computes this from the same shared placement.)
    fn comm_multi_rank(&self, comm: &Comm) -> bool {
        let mut seen: Vec<usize> = Vec::with_capacity(comm.size() as usize);
        for rel in 0..comm.size() {
            let node = self.node_of[comm.global_of(rel) as usize];
            if seen.contains(&node) {
                return true;
            }
            seen.push(node);
        }
        false
    }

    /// The size/topology policy (no overrides applied).
    fn policy(&self, op: CollOp, bytes: u64, comm: &Comm) -> CollAlgo {
        if comm.size() <= 1 {
            return CollAlgo::Flat;
        }
        if self.node_coll.is_some() && self.topo.multi_rank() && self.comm_multi_rank(comm) {
            return CollAlgo::Hier;
        }
        match op {
            CollOp::Barrier => CollAlgo::Flat,
            CollOp::Bcast => CollAlgo::Binomial,
            CollOp::Allreduce => {
                if bytes <= 4096 {
                    CollAlgo::RecursiveDoubling
                } else if bytes <= 256 * 1024 {
                    CollAlgo::Rabenseifner
                } else {
                    CollAlgo::Ring
                }
            }
            CollOp::Allgather => {
                if bytes.saturating_mul(comm.size() as u64) <= 64 * 1024 {
                    CollAlgo::Bruck
                } else {
                    CollAlgo::Ring
                }
            }
        }
    }

    /// The deterministic fallback when a requested entry does not support
    /// an operation (documented in DESIGN.md §5g).
    fn fallback(op: CollOp) -> CollAlgo {
        match op {
            CollOp::Allreduce | CollOp::Bcast => CollAlgo::Binomial,
            CollOp::Allgather => CollAlgo::Ring,
            CollOp::Barrier => CollAlgo::Flat,
        }
    }

    /// Clamp `algo` to the entries implementing `op`.
    fn clamp(&self, op: CollOp, algo: CollAlgo) -> CollAlgo {
        use CollAlgo::*;
        match (op, algo) {
            (_, Flat) => Flat,
            (_, Hier) if self.node_coll.is_none() => CollEngine::fallback(op),
            (_, Hier) => Hier,
            (CollOp::Allreduce, Binomial | Ring | RecursiveDoubling | Rabenseifner) => algo,
            (CollOp::Allreduce, Bruck) => RecursiveDoubling,
            (CollOp::Allgather, Ring | Bruck) => algo,
            (CollOp::Allgather, _) => Ring,
            (CollOp::Bcast, _) => Binomial,
            (CollOp::Barrier, _) => Flat,
        }
    }

    /// Resolve the registry entry for one call: per-call override, then
    /// the launch/env force, then the policy; clamped to what `op`
    /// supports. Pure function of per-call inputs every member shares, so
    /// all ranks of a collective resolve identically.
    pub fn select(&self, op: CollOp, bytes: u64, comm: &Comm, opts: CollOpts) -> CollAlgo {
        let pick = opts
            .algo
            .or(self.forced)
            .unwrap_or_else(|| self.policy(op, bytes, comm));
        self.clamp(op, pick)
    }

    /// Can the hierarchical path touch these buffers directly? (Device
    /// payloads fall back: the rendezvous folds through host memory.)
    fn hier_bufs_ok(bufs: &[&MsgBuf]) -> bool {
        bufs.iter().all(|b| b.loc == BufLoc::Host)
    }

    /// Charge virtual time for `bytes` of intra-node shared-memory
    /// traffic, rolling the `copy_fault` chaos site per the faulty-copy
    /// idiom: failed folds occupy the memory system for a full pass, then
    /// retry.
    pub(crate) fn charge_intra(&self, ctx: &Ctx, bytes: u64) {
        let d = SimDur::from_secs_f64(self.memcpy_lat + bytes as f64 / self.memcpy_bw);
        let extra = self.chaos.extra_attempts(ctx, FaultSite::CopyFault);
        for attempt in 1..=extra {
            ctx.metrics().inc("retries");
            ctx.metrics().inc("chaos_copy_fault");
            let f0 = ctx.now();
            ctx.advance(d, "coll_intra");
            ctx.span("fault", f0, ctx.now(), || {
                vec![
                    ("site", "copy_fault".to_string()),
                    ("at", "coll_intra".to_string()),
                    ("attempt", attempt.to_string()),
                ]
            });
            ctx.event("retry", || {
                vec![
                    ("site", "copy_fault".to_string()),
                    ("at", "coll_intra".to_string()),
                ]
            });
        }
        ctx.advance(d, "coll_intra");
    }

    /// Emit the engine-level `mpi_coll` span around a dispatched body.
    fn dispatch_span<R>(
        ctx: &Ctx,
        op: CollOp,
        algo: CollAlgo,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = ctx.now();
        let r = f();
        ctx.span("mpi_coll", t0, ctx.now(), || {
            vec![
                ("op", op.label().to_string()),
                ("algo", algo.label().to_string()),
                ("bytes", bytes.to_string()),
            ]
        });
        r
    }

    /// Engine-dispatched `MPI_Allreduce`.
    #[allow(clippy::too_many_arguments)]
    pub fn allreduce<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        op: ReduceOp,
        comm: &Comm,
        opts: CollOpts,
    ) {
        let mut algo = self.select(CollOp::Allreduce, sendbuf.len, comm, opts);
        if algo == CollAlgo::Hier && !CollEngine::hier_bufs_ok(&[sendbuf, recvbuf]) {
            algo = CollEngine::fallback(CollOp::Allreduce);
        }
        ctx.metrics().inc(algo.counter());
        if algo == CollAlgo::Flat {
            return t.flat_allreduce(ctx, sendbuf, recvbuf, op, comm);
        }
        CollEngine::dispatch_span(ctx, CollOp::Allreduce, algo, sendbuf.len, || match algo {
            CollAlgo::Binomial => algos::binomial_allreduce(t, ctx, sendbuf, recvbuf, op, comm),
            CollAlgo::Ring => algos::ring_allreduce(t, ctx, sendbuf, recvbuf, op, comm),
            CollAlgo::RecursiveDoubling => algos::rd_allreduce(t, ctx, sendbuf, recvbuf, op, comm),
            CollAlgo::Rabenseifner => {
                algos::rabenseifner_allreduce(t, ctx, sendbuf, recvbuf, op, comm)
            }
            CollAlgo::Hier => self.hier_allreduce(t, ctx, sendbuf, recvbuf, op, comm, None),
            CollAlgo::Flat | CollAlgo::Bruck => unreachable!("clamped"),
        })
    }

    /// Engine-dispatched `MPI_Bcast`.
    pub fn bcast<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        buf: &MsgBuf,
        root: u32,
        comm: &Comm,
        opts: CollOpts,
    ) {
        let mut algo = self.select(CollOp::Bcast, buf.len, comm, opts);
        if algo == CollAlgo::Hier && !CollEngine::hier_bufs_ok(&[buf]) {
            algo = CollEngine::fallback(CollOp::Bcast);
        }
        ctx.metrics().inc(algo.counter());
        match algo {
            CollAlgo::Flat => t.flat_bcast(ctx, buf, root, comm),
            CollAlgo::Binomial => {
                // The flat body *is* the binomial tree; dispatching it under
                // the binomial label keeps the registry honest.
                CollEngine::dispatch_span(ctx, CollOp::Bcast, algo, buf.len, || {
                    t.flat_bcast(ctx, buf, root, comm)
                })
            }
            CollAlgo::Hier => CollEngine::dispatch_span(ctx, CollOp::Bcast, algo, buf.len, || {
                self.hier_bcast(t, ctx, buf, root, comm)
            }),
            _ => unreachable!("clamped"),
        }
    }

    /// Engine-dispatched `MPI_Allgather`.
    pub fn allgather<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        comm: &Comm,
        opts: CollOpts,
    ) {
        let mut algo = self.select(CollOp::Allgather, sendbuf.len, comm, opts);
        if algo == CollAlgo::Hier && !CollEngine::hier_bufs_ok(&[sendbuf, recvbuf]) {
            algo = CollEngine::fallback(CollOp::Allgather);
        }
        ctx.metrics().inc(algo.counter());
        if algo == CollAlgo::Flat {
            return t.flat_allgather(ctx, sendbuf, recvbuf, comm);
        }
        CollEngine::dispatch_span(ctx, CollOp::Allgather, algo, sendbuf.len, || match algo {
            CollAlgo::Ring => algos::ring_allgather(t, ctx, sendbuf, recvbuf, comm),
            CollAlgo::Bruck => algos::bruck_allgather(t, ctx, sendbuf, recvbuf, comm),
            CollAlgo::Hier => self.hier_allgather(t, ctx, sendbuf, recvbuf, comm),
            _ => unreachable!("clamped"),
        })
    }

    /// Engine-dispatched `MPI_Barrier`.
    pub fn barrier<T: PointToPoint>(&self, t: &T, ctx: &Ctx, comm: &Comm, opts: CollOpts) {
        let algo = self.select(CollOp::Barrier, 0, comm, opts);
        ctx.metrics().inc(algo.counter());
        match algo {
            CollAlgo::Flat => t.flat_barrier(ctx, comm),
            CollAlgo::Hier => CollEngine::dispatch_span(ctx, CollOp::Barrier, algo, 0, || {
                self.hier_barrier(t, ctx, comm)
            }),
            _ => unreachable!("clamped"),
        }
    }
}

/// Test-only world harness, public so the equivalence suite (and any
/// downstream crate's tests) can drive the engine without the full
/// runtime. Not part of the stable API.
#[doc(hidden)]
pub mod testutil {
    use std::sync::Arc;

    use impacc_machine::{presets, ClusterResources};
    use impacc_mem::{Backing, ReducePool};
    use impacc_mpi::{
        CollSeq, Comm, MpiTask, MsgBuf, PointToPoint, SrcSel, Status, SysEndpoint, SysMpi, TagSel,
    };
    use impacc_vtime::{Ctx, Sim, SimReport};

    use crate::{CollEngine, NodeColl};

    /// The system MPI endpoint with a launched task's scratch source: a
    /// [`ReducePool`] of its own, so collectives under test run on
    /// reissued — in debug builds poisoned — scratch.
    pub struct PooledEndpoint {
        ep: SysEndpoint,
        pool: ReducePool,
    }

    impl PointToPoint for PooledEndpoint {
        fn pt_send(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm) {
            self.ep.pt_send(ctx, buf, dst, tag, comm)
        }

        fn pt_recv(&self, ctx: &Ctx, buf: &MsgBuf, src: SrcSel, tag: TagSel, c: &Comm) -> Status {
            self.ep.pt_recv(ctx, buf, src, tag, c)
        }

        fn pt_sendrecv(
            &self,
            ctx: &Ctx,
            sendbuf: &MsgBuf,
            dst: u32,
            recvbuf: &MsgBuf,
            src: u32,
            tag: i32,
            comm: &Comm,
        ) -> Status {
            self.ep
                .pt_sendrecv(ctx, sendbuf, dst, recvbuf, src, tag, comm)
        }

        fn comm_rank(&self, comm: &Comm) -> u32 {
            self.ep.comm_rank(comm)
        }

        fn coll_seq(&self) -> &CollSeq {
            self.ep.coll_seq()
        }

        fn scratch(&self, len: u64) -> MsgBuf {
            MsgBuf::host(self.pool.take(len), 0, len)
        }
    }

    /// Spawn one actor per rank with a per-node rendezvous and an engine,
    /// mirroring `impacc-mpi`'s `run_world` but engine-backed. `shape[i]`
    /// = ranks hosted on node `i`. Returns the run's report.
    pub fn run_world_engine(
        shape: &[usize],
        forced: Option<crate::CollAlgo>,
        f: impl Fn(&Ctx, PooledEndpoint, CollEngine, Comm) + Send + Sync + 'static,
    ) -> SimReport {
        let n: usize = shape.iter().sum();
        assert!(n > 0, "empty world");
        let max_per_node = shape.iter().copied().max().unwrap();
        let res = Arc::new(ClusterResources::new(Arc::new(presets::test_cluster(
            shape.len(),
            max_per_node.clamp(1, 8),
        ))));
        let mut node_of: Vec<usize> = Vec::with_capacity(n);
        for (node, &cnt) in shape.iter().enumerate() {
            node_of.extend((0..cnt).map(|_| node));
        }
        let node_of = Arc::new(node_of);
        let colls: Vec<Arc<NodeColl>> = (0..shape.len()).map(|_| NodeColl::new()).collect();
        let mut sim = Sim::new();
        let sys = SysMpi::new(&mut sim, res, node_of.as_ref().clone());
        let world = Comm::world(n as u32);
        let f = Arc::new(f);
        for r in 0..n {
            let sys = sys.clone();
            let world = world.clone();
            let f = f.clone();
            let node = node_of[r];
            let engine = CollEngine::new(
                node_of.clone(),
                node,
                20e9,
                0.2e-6,
                Default::default(),
                Some(colls[node].clone()),
                forced,
            );
            sim.spawn_on(node as u32, format!("rank{r}"), move |ctx| {
                let ep = PooledEndpoint {
                    ep: SysEndpoint::new(MpiTask::new(sys, r as u32)),
                    pool: ReducePool::new(),
                };
                f(ctx, ep, engine, world);
            });
        }
        sim.run().unwrap()
    }

    /// Host buffer holding `vals`.
    pub fn buf_of(vals: &[f64]) -> MsgBuf {
        let m = MsgBuf::host(
            Backing::new(vals.len() as u64 * 8, None),
            0,
            vals.len() as u64 * 8,
        );
        m.write_f64s(vals);
        m
    }

    /// Zeroed host buffer of `elems` f64s.
    pub fn zeros(elems: usize) -> MsgBuf {
        buf_of(&vec![0.0; elems])
    }
}

#[cfg(test)]
mod tests {
    use impacc_mpi::{PointToPoint, ReduceOp};

    use super::testutil::{buf_of, run_world_engine, zeros};
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for a in CollAlgo::ALL {
            assert_eq!(CollAlgo::parse(a.label()), Some(a), "{a:?}");
        }
        assert_eq!(CollAlgo::parse("nccl"), None);
    }

    #[test]
    fn policy_prefers_hier_on_multi_rank_nodes() {
        let node_of = Arc::new(vec![0, 0, 1, 1]);
        let e = CollEngine::new(
            node_of.clone(),
            0,
            20e9,
            0.2e-6,
            Chaos::default(),
            Some(NodeColl::new()),
            None,
        );
        let comm = Comm::world(4);
        for (op, bytes) in [
            (CollOp::Allreduce, 64),
            (CollOp::Bcast, 1 << 20),
            (CollOp::Allgather, 64),
            (CollOp::Barrier, 0),
        ] {
            assert_eq!(
                e.select(op, bytes, &comm, CollOpts::default()),
                CollAlgo::Hier
            );
        }
        // Without a rendezvous the same policy degrades to flat-family picks.
        let d = CollEngine::detached(node_of, 0);
        assert_eq!(
            d.select(CollOp::Allreduce, 64, &comm, CollOpts::default()),
            CollAlgo::RecursiveDoubling
        );
        assert_eq!(
            d.select(CollOp::Allreduce, 1 << 20, &comm, CollOpts::default()),
            CollAlgo::Ring
        );
        assert_eq!(
            d.select(CollOp::Allreduce, 64 * 1024, &comm, CollOpts::default()),
            CollAlgo::Rabenseifner
        );
        assert_eq!(
            d.select(CollOp::Allgather, 1 << 20, &comm, CollOpts::default()),
            CollAlgo::Ring
        );
        assert_eq!(
            d.select(CollOp::Allgather, 16, &comm, CollOpts::default()),
            CollAlgo::Bruck
        );
    }

    #[test]
    fn unsupported_requests_clamp_deterministically() {
        let d = CollEngine::detached(Arc::new(vec![0, 1]), 0);
        let comm = Comm::world(2);
        let force = |a| CollOpts { algo: Some(a) };
        assert_eq!(
            d.select(CollOp::Allreduce, 8, &comm, force(CollAlgo::Bruck)),
            CollAlgo::RecursiveDoubling
        );
        assert_eq!(
            d.select(CollOp::Allgather, 8, &comm, force(CollAlgo::Rabenseifner)),
            CollAlgo::Ring
        );
        assert_eq!(
            d.select(CollOp::Barrier, 0, &comm, force(CollAlgo::Ring)),
            CollAlgo::Flat
        );
        // Hier without a rendezvous falls back, never panics.
        assert_eq!(
            d.select(CollOp::Allreduce, 8, &comm, force(CollAlgo::Hier)),
            CollAlgo::Binomial
        );
        assert_eq!(
            d.select(CollOp::Bcast, 8, &comm, force(CollAlgo::Ring)),
            CollAlgo::Binomial
        );
    }

    fn check_allreduce(shape: &'static [usize], algo: CollAlgo, elems: usize) {
        let n: usize = shape.iter().sum();
        run_world_engine(shape, None, move |ctx, ep, engine, world| {
            let r = ep.comm_rank(&world);
            let vals: Vec<f64> = (0..elems).map(|i| (r as usize * 7 + i) as f64).collect();
            let sb = buf_of(&vals);
            let rb = zeros(elems);
            engine.allreduce(
                &ep,
                ctx,
                &sb,
                &rb,
                ReduceOp::Sum,
                &world,
                CollOpts { algo: Some(algo) },
            );
            let expect: Vec<f64> = (0..elems)
                .map(|i| (0..n).map(|rr| (rr * 7 + i) as f64).sum())
                .collect();
            assert_eq!(rb.read_f64s(), expect, "{algo:?} n={n} elems={elems}");
        });
    }

    #[test]
    fn every_allreduce_entry_sums_correctly() {
        for algo in [
            CollAlgo::Flat,
            CollAlgo::Binomial,
            CollAlgo::Ring,
            CollAlgo::RecursiveDoubling,
            CollAlgo::Rabenseifner,
            CollAlgo::Hier,
        ] {
            // Non-power-of-two world across uneven nodes; elems not a
            // multiple of the rank count (uneven ring chunks).
            check_allreduce(&[3, 2, 1], algo, 10);
            // Power-of-two world, degenerate chunk sizes.
            check_allreduce(&[2, 2], algo, 3);
            // One-rank-per-node and all-on-one-node degenerate shapes.
            check_allreduce(&[1, 1, 1], algo, 5);
            check_allreduce(&[4], algo, 5);
        }
    }

    #[test]
    fn hier_allgather_and_bcast_deliver() {
        run_world_engine(&[3, 2], None, |ctx, ep, engine, world| {
            let r = ep.comm_rank(&world);
            let n = world.size();
            // allgather
            let sb = buf_of(&[r as f64 * 10.0, r as f64 * 10.0 + 1.0]);
            let rb = zeros(2 * n as usize);
            engine.allgather(
                &ep,
                ctx,
                &sb,
                &rb,
                &world,
                CollOpts {
                    algo: Some(CollAlgo::Hier),
                },
            );
            let expect: Vec<f64> = (0..n)
                .flat_map(|rr| [rr as f64 * 10.0, rr as f64 * 10.0 + 1.0])
                .collect();
            assert_eq!(rb.read_f64s(), expect);
            // bcast from a non-lowest root on node 1
            let b = if r == 4 {
                buf_of(&[42.0, 43.0])
            } else {
                zeros(2)
            };
            engine.bcast(
                &ep,
                ctx,
                &b,
                4,
                &world,
                CollOpts {
                    algo: Some(CollAlgo::Hier),
                },
            );
            assert_eq!(b.read_f64s(), vec![42.0, 43.0]);
            // barrier completes
            engine.barrier(
                &ep,
                ctx,
                &world,
                CollOpts {
                    algo: Some(CollAlgo::Hier),
                },
            );
        });
    }

    #[test]
    fn hier_counts_intra_and_inter_bytes() {
        run_world_engine(&[2, 2], None, |ctx, ep, engine, world| {
            let r = ep.comm_rank(&world);
            let sb = buf_of(&[r as f64; 8]);
            let rb = zeros(8);
            engine.allreduce(
                &ep,
                ctx,
                &sb,
                &rb,
                ReduceOp::Sum,
                &world,
                CollOpts::default(),
            );
            // Policy must have picked hier on this 2-ranks-per-node shape;
            // by the time any member returns, the leaders have folded
            // (intra) and exchanged (inter).
            assert!(ctx.metrics().get("coll_algo_hier") >= 1);
            assert!(ctx.metrics().get("coll_intra_bytes") > 0);
            assert!(ctx.metrics().get("coll_inter_bytes") > 0);
        });
    }
}
