//! The system MPI library: matching engine, point-to-point transport.
//!
//! This models the "underlying MPI library in the system" of §3.7 — the
//! thing IMPACC's task threads call for internode transfers, and the thing
//! the baseline MPI+OpenACC model uses for *everything* (where each task is
//! an OS process, so intra-node messages stage through a shared-memory
//! segment: two host copies plus IPC overhead, the exact inefficiency
//! Figure 6 shows IMPACC eliminating).
//!
//! ## Transport model
//!
//! * **Eager/buffered sends**: `MPI_Send` completes when the message has
//!   left the sender's buffer (staging copy done / NIC injection done) —
//!   it never waits for the receiver. Rendezvous-mode blocking is not
//!   modelled; the paper's benchmarks don't depend on it.
//! * **Data effects at match time**: bytes are copied when send and
//!   receive match; virtual completion instants are computed from link
//!   reservations made at initiation. Readers that poll a receive buffer
//!   before `MPI_Wait` returns would see data "early" — well-formed MPI
//!   programs cannot do that.
//! * **One wire path**: an internode send stops at the sender's NIC and
//!   parks the message in the destination node's mailbox; that node's
//!   delivery handler (an `impacc_vtime` handler pinned to the node's
//!   partition, installed by [`SysMpi::new`]) occupies the rx NIC when the
//!   head arrives and runs the matching engine there. A sender never
//!   touches destination-node state, whatever the worker count.
//! * **Injected link faults** (`impacc-chaos`) live on that path: the
//!   sender rolls them with its own dice. A dropped attempt occupies the tx
//!   NIC only — it never reaches the receiver — and is resent after the ack
//!   timeout plus exponential backoff; a duplicate is a second transmit
//!   whose ghost occupies the rx NIC and is then deduplicated; delay and
//!   brown-out penalties ride with the message and are charged after the
//!   rx NIC. The final allowed attempt always delivers (transient-fault
//!   model), so a faulted run is late, never wrong.
//! * **GPUDirect RDMA**: on machines with the capability, internode
//!   sends/recvs of device buffers stream straight between device memory
//!   and the NIC (bandwidth pinned to the slower of the two, PCIe links
//!   occupied). Without it, callers must stage explicitly — passing a
//!   device buffer is a runtime panic, as a real library would segfault.
//!
//! ## One completion handle
//!
//! [`Request`] is what every non-blocking operation of the message path
//! completes through — this library's own sends and receives, and, one
//! layer up, the IMPACC handler's fused copies and pending internode
//! receives (`impacc-core` builds them with [`Request::pending`] and
//! completes them with [`Request::complete_named`]). What the waiter waits
//! for is a [`WaitCause`] value, formatted only if it suspends.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use impacc_machine::{ClusterResources, FaultSite, MpiThreading, NetTx};
use impacc_mem::CowSnapshot;
use impacc_vtime::{Ctx, Latch, SerialResource, Sim, SimDur, SimTime, WaitToken, WakeReason};
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::types::{BufLoc, MsgBuf, SrcSel, Status, TagSel};

/// Accounting tags charged by the MPI substrate.
pub mod tags {
    /// Software overhead of MPI calls.
    pub const MPI_CALL: &str = "mpi_call";
    /// Time blocked in `MPI_Wait`/blocking send/recv.
    pub const MPI_WAIT: &str = "mpi_wait";
}

/// What a [`Request`]'s waiter is waiting for. A value, not a string: the
/// text lands on stall spans (where `impacc-prof` classifies the wait by
/// it) and is formatted only by a waiter that actually suspends or rides.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WaitCause {
    /// A system-library request with nothing more specific to say (sends).
    MpiReq,
    /// A system-library receive; `None` is the wildcard.
    Recv {
        /// Communicator-relative source selector.
        src: SrcSel,
        /// Tag selector.
        tag: TagSel,
    },
    /// The send side of a handler-fused intra-node message.
    FusedSend {
        /// Global rank of the receiver.
        dst: u32,
        /// Message tag.
        tag: i32,
    },
    /// The receive side of a handler-fused intra-node message.
    FusedRecv {
        /// Communicator-relative rank of the sender.
        src: u32,
        /// Message tag.
        tag: i32,
    },
    /// A device receive staged through the pending internode queue.
    PendingInternodeRecv,
}

/// A source/tag selector as stall causes spell it: the value, or `any`.
struct Sel<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for Sel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("any"),
        }
    }
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WaitCause::MpiReq => f.write_str("mpi_req"),
            WaitCause::Recv { src, tag } => write!(f, "recv src={} tag={}", Sel(src), Sel(tag)),
            WaitCause::FusedSend { dst, tag } => write!(f, "fused send dst={dst} tag={tag}"),
            WaitCause::FusedRecv { src, tag } => write!(f, "fused recv src={src} tag={tag}"),
            WaitCause::PendingInternodeRecv => f.write_str("pending internode recv"),
        }
    }
}

/// A non-blocking operation handle (`MPI_Request`): the one completion
/// handle of the message path. It opens once, at a virtual instant that
/// may lie in the future — the system library knows a matched receive's
/// arrival time, the node handler issues fused copies asynchronously
/// (`cuMemcpyAsync` + callback in the real runtime) and never blocks on
/// them — so the waiter, not the completer, advances to that instant.
#[derive(Clone)]
pub struct Request {
    inner: Arc<ReqInner>,
}

struct ReqInner {
    latch: Latch,
    cause: WaitCause,
    done: Mutex<Option<Done>>,
}

struct Done {
    at: SimTime,
    status: Option<Status>,
    /// The completing actor, when it handed over its name: the source of
    /// the wake edge a waiter emits when it rides virtual time out to
    /// `at`, so the critical path lands on the completer's async copy
    /// span instead of dead-ending in the waiter's advance.
    by: Option<Arc<str>>,
}

impl Request {
    /// A fresh, incomplete request whose waiter waits for `cause`.
    pub fn pending(cause: WaitCause) -> Request {
        Request {
            inner: Arc::new(ReqInner {
                latch: Latch::new(),
                cause,
                done: Mutex::new(None),
            }),
        }
    }

    /// Complete at instant `at` (may be in the virtual future) with the
    /// receive status, if any. A waiter's ride to `at` is not recorded.
    pub fn complete(&self, ctx: &Ctx, at: SimTime, status: Option<Status>) {
        self.finish(ctx, at, status, None);
    }

    /// [`Request::complete`], naming the calling actor as the completer:
    /// a waiter that has to ride to `at` records the ride as a `stall`
    /// span plus a `wake` edge from this actor.
    pub fn complete_named(&self, ctx: &Ctx, at: SimTime, status: Option<Status>) {
        self.finish(ctx, at, status, Some(ctx.name().clone()));
    }

    fn finish(&self, ctx: &Ctx, at: SimTime, status: Option<Status>, by: Option<Arc<str>>) {
        *self.inner.done.lock() = Some(Done { at, status, by });
        self.inner.latch.open(ctx);
    }

    /// `MPI_Wait`: resolves when the operation completes, with the status
    /// for receives. A blocking actor blocks on it with `Ctx::block_on`.
    pub async fn completion(&self, ctx: &Ctx) -> Option<Status> {
        let cause = self.inner.cause;
        self.inner
            .latch
            .opened(ctx, tags::MPI_WAIT)
            .cause(|| cause.to_string())
            .await;
        let woke = ctx.now();
        let (at, status, ride_from) = {
            let done = self.inner.done.lock();
            let done = done.as_ref().expect("latch open implies done");
            let by = done.by.as_ref();
            let by = by.filter(|_| done.at > woke && ctx.sink_enabled());
            (done.at, done.status, by.cloned())
        };
        ctx.sleep_until(at, tags::MPI_WAIT).await;
        if let Some(by) = ride_from {
            // The completer issued the copy asynchronously; the waiter rode
            // virtual time to the completion instant. Record the ride as a
            // stall and hand the critical path back to the completer, whose
            // copy span ends exactly at `at`.
            ctx.span("stall", woke, at, || {
                vec![
                    ("tag", tags::MPI_WAIT.to_string()),
                    ("cause", cause.to_string()),
                ]
            });
            ctx.edge_to_self("wake", &by, at, at, Vec::new);
        }
        status
    }

    /// `MPI_Test`: has the operation completed by now?
    pub fn test(&self, ctx: &Ctx) -> bool {
        self.completion_time().is_some_and(|at| ctx.now() >= at)
    }

    /// The completion instant, if known yet (matched receives and all
    /// sends know it; unmatched receives don't).
    pub fn completion_time(&self) -> Option<SimTime> {
        self.inner.done.lock().as_ref().map(|d| d.at)
    }

    /// Ping `n` when the request's completion instant becomes known (the
    /// underlying match happens). Lets one service actor — the IMPACC
    /// message handler polling its pending internode message queue —
    /// multiplex many requests. No ping if already matched: poll first.
    pub fn subscribe(&self, n: &impacc_vtime::Notify) {
        self.inner.latch.subscribe(n);
    }
}

struct SendRec {
    src_global: u32,
    tag: i32,
    /// Copy-on-write snapshot of the send buffer taken at initiation:
    /// eager semantics say the sender owns its buffer again as soon as
    /// the send returns, so the in-flight message must not alias it. A
    /// sender that never rewrites the buffer before the match (the common
    /// case) pays no copy at all.
    payload: Arc<CowSnapshot>,
    /// Message length in bytes.
    len: u64,
    /// When the payload is available at the destination side.
    arrival: SimTime,
    /// Same-node transport (needs the receiver-side staging copy-out).
    intra: bool,
    comm: Comm,
    /// Sending actor and send-initiation instant, captured only while a
    /// span sink is recording: the source end of the "msg" causal edge
    /// emitted when this send matches a receive.
    sent_by: Option<(Arc<str>, SimTime)>,
}

struct RecvRec {
    src: SrcSel,
    tag: TagSel,
    buf: MsgBuf,
    posted_at: SimTime,
    req: Request,
}

#[derive(Default)]
struct MatchState {
    /// (comm id, dst global rank) -> arrived-but-unmatched sends, in order.
    unexpected: HashMap<(u64, u32), VecDeque<SendRec>>,
    /// (comm id, dst global rank) -> posted-but-unmatched receives.
    posted: HashMap<(u64, u32), VecDeque<RecvRec>>,
}

/// What the sender's half of an internode transfer decided (see
/// [`SysMpi::transmit`]).
struct Wire {
    /// Head arrival and rx byte time of the attempt that delivers.
    head: SimTime,
    dur: SimDur,
    /// When that attempt has left the sender's buffer.
    tx_end: SimTime,
    /// Receive-side penalties rolled for it.
    late: Vec<(&'static str, SimDur)>,
    /// Head arrival and byte time of a duplicate's ghost, if one was rolled.
    ghost: Option<(SimTime, SimDur)>,
}

impl Wire {
    /// A transmit nothing went wrong with.
    fn clean(tx: NetTx) -> Wire {
        Wire {
            head: tx.head_arrival,
            dur: tx.dur,
            tx_end: tx.tx_end,
            late: Vec::new(),
            ghost: None,
        }
    }
}

/// One in-flight internode message parked at the destination node's
/// delivery handler.
struct Delivery {
    /// Instant the head of the message reaches the destination NIC. Never
    /// less than the sender's clock plus the wire latency, which is
    /// exactly the engine's lookahead bound.
    head: SimTime,
    /// Byte time the destination rx NIC is occupied from `head`.
    dur: SimDur,
    /// Drain-order tie-breaks: sender rank, then the sender's own push
    /// sequence (each sender bumps only its own slot, so both are
    /// schedule-independent).
    src_global: u32,
    seq: u64,
    dst_global: u32,
    /// Receive-side penalties the sender rolled for this message (link
    /// delay, NIC brown-out), by fault-site label, charged after the rx NIC.
    late: Vec<(&'static str, SimDur)>,
    /// `None` is the ghost of a duplicated message: it occupies the rx NIC
    /// and receiver-side dedup drops it — the matching engine never sees it.
    rec: Option<SendRec>,
}

#[derive(Default)]
struct MailboxState {
    pending: Vec<Delivery>,
    /// The delivery handler's wait token and the deadline it armed
    /// ([`SimTime::MAX`] when waiting unbounded). Senders wake it only
    /// for strictly earlier arrivals, so a wake never races a deadline
    /// it would lose to.
    armed: Option<(WaitToken, SimTime)>,
    /// Per-sender push counters for the drain-order tie-break.
    seqs: HashMap<u32, u64>,
}

/// The simulated MPI library.
pub struct SysMpi {
    res: Arc<ClusterResources>,
    node_of: Vec<usize>,
    state: Mutex<MatchState>,
    /// Present when the library lacks `MPI_THREAD_MULTIPLE`: all calls
    /// from one node serialize on this (§3.7).
    node_serial: Option<Vec<SerialResource>>,
    /// Per-node internode delivery mailboxes.
    mailboxes: Vec<Mutex<MailboxState>>,
}

impl SysMpi {
    /// Build the library on `sim` for a job with `node_of[rank] = node
    /// index`. Installs one delivery handler per node, pinned to partition
    /// `node` — where the node's ranks must be placed too
    /// ([`Sim::spawn_on`]): it drains arriving internode messages in
    /// deterministic `(arrival, sender, sequence)` order, finishes their
    /// rx-NIC reservations and runs the matching engine on the destination
    /// side, so internode sends never mutate destination-node state from
    /// the sender's partition in racy real-time order.
    pub fn new(sim: &mut Sim, res: Arc<ClusterResources>, node_of: Vec<usize>) -> Arc<SysMpi> {
        let node_serial = match res.spec.mpi_threading {
            MpiThreading::Multiple => None,
            MpiThreading::Serialized => Some(
                (0..res.spec.node_count())
                    .map(|_| SerialResource::new("mpi_serial"))
                    .collect(),
            ),
        };
        let mailboxes = (0..res.spec.node_count())
            .map(|_| Mutex::new(MailboxState::default()))
            .collect();
        let sys = Arc::new(SysMpi {
            res,
            node_of,
            state: Mutex::new(MatchState::default()),
            node_serial,
            mailboxes,
        });
        for node in 0..sys.res.spec.node_count() {
            let sys = sys.clone();
            sim.spawn_handler_on(
                node as u32,
                format!("mpi.dlv.n{node}"),
                move |ctx| async move { sys.serve_mailbox(&ctx, node).await },
            );
        }
        sys
    }

    /// Node `node`'s delivery handler: deliver everything that has arrived
    /// by now, then sleep until the earliest message still in flight — or
    /// until a sender posts an earlier one.
    async fn serve_mailbox(&self, ctx: &Ctx, node: usize) {
        loop {
            let now = ctx.now();
            let mut batch = {
                let mut m = self.mailboxes[node].lock();
                m.armed = None;
                let mut batch = Vec::new();
                let mut i = 0;
                while i < m.pending.len() {
                    if m.pending[i].head <= now {
                        batch.push(m.pending.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                batch
            };
            batch.sort_by_key(|a| (a.head, a.src_global, a.seq));
            for d in batch {
                self.deliver(ctx, node, d);
            }
            // Arm for the earliest not-yet-arrived message (new pushes are
            // visible here: senders hold the same lock).
            let tok = ctx.prepare_wait();
            let next = {
                let mut m = self.mailboxes[node].lock();
                let next = m.pending.iter().map(|d| d.head).min();
                m.armed = Some((tok, next.unwrap_or(SimTime::MAX)));
                next
            };
            let sleep = ctx.suspend(tok, "mpi_dlv_idle");
            let woke = match next {
                Some(at) => sleep.until(at).await,
                None => sleep.await,
            };
            if woke == WakeReason::Shutdown {
                return;
            }
        }
    }

    /// Finish one parked internode message on the destination partition:
    /// reserve the rx NIC from the head-arrival instant, charge what the
    /// sender rolled against the receive side, and run the matching engine.
    fn deliver(&self, ctx: &Ctx, dst_node: usize, d: Delivery) {
        let mut arrival = self.res.reserve_net_rx(dst_node, None, d.head, d.dur);
        let Some(mut rec) = d.rec else {
            return;
        };
        for (site, penalty) in d.late {
            ctx.span("fault", arrival, arrival + penalty, || {
                vec![("site", site.to_string())]
            });
            arrival += penalty;
        }
        rec.arrival = arrival;
        // The wire edge, emitted from protocol state so it is identical
        // run over run: the sender's transmit enabled this handler's work
        // at the head-arrival instant (the engine-level wake edge is
        // suppressed — see `post`).
        if let Some((src_name, sent)) = &rec.sent_by {
            ctx.edge("wake", src_name, *sent, ctx.name(), d.head, || {
                vec![("tag", "mpi_dlv_idle".to_string())]
            });
        }
        let mut st = self.state.lock();
        let key = (rec.comm.id(), d.dst_global);
        let posted = st.posted.entry(key).or_default();
        if let Some(pos) = posted.iter().position(|r| {
            r.src
                .is_none_or(|s| rec.comm.global_of(s) == rec.src_global)
                && r.tag.is_none_or(|t| t == rec.tag)
        }) {
            let recv = posted.remove(pos).expect("position valid");
            drop(st);
            self.complete_pair(ctx, rec, recv, dst_node);
        } else {
            st.unexpected.entry(key).or_default().push_back(rec);
        }
    }

    /// The machine resources this library charges against.
    pub fn resources(&self) -> &Arc<ClusterResources> {
        &self.res
    }

    /// Node hosting a global rank.
    pub fn node_of(&self, global: u32) -> usize {
        self.node_of[global as usize]
    }

    /// Charge the software cost of one MPI call, serializing per node when
    /// the library is not thread-safe.
    async fn charge_call(&self, ctx: &Ctx, node: usize) {
        let d = self.res.mpi_call_overhead();
        match &self.node_serial {
            Some(locks) => {
                let (_, end) = locks[node].reserve(ctx, d);
                ctx.sleep_until(end, tags::MPI_CALL).await;
            }
            None => ctx.sleep(d, tags::MPI_CALL).await,
        }
    }

    /// Initiate a send whose call the caller has charged. Returns the
    /// sender-completion instant and either performs the match (posted
    /// receive found) or queues the message.
    fn initiate_send(
        &self,
        ctx: &Ctx,
        src_global: u32,
        buf: &MsgBuf,
        dst_global: u32,
        tag: i32,
        comm: &Comm,
    ) -> SimTime {
        let src_node = self.node_of(src_global);
        let dst_node = self.node_of(dst_global);
        let now = ctx.now();

        // The sender's partition must not touch destination-node state, so
        // an internode send stops at the sender's NIC and parks the message
        // with the destination's delivery handler: `wire` is set for
        // internode sends only; intra-node and self traffic stays within
        // one partition.
        let (arrival, sender_done, intra, wire) = if src_global == dst_global {
            // Self message: a host memcpy at match time; available now.
            let end = self.res.reserve_host_copy(src_node, buf.len, now);
            (end, end, false, None)
        } else if src_node == dst_node {
            // Process-model intra-node transport: copy into the shared
            // staging segment; the receiver pays the copy-out at match.
            assert!(
                matches!(buf.loc, BufLoc::Host),
                "system MPI cannot read device memory for intra-node sends; stage explicitly"
            );
            let end =
                self.res.reserve_host_copy(src_node, buf.len, now) + self.res.ipc_msg_overhead();
            ctx.metrics().add("HtoH", buf.len);
            ctx.metrics().add("t_HtoH", end.since(now).0);
            ctx.span("HtoH", now, end, || {
                vec![
                    ("bytes", buf.len.to_string()),
                    ("staging", "ipc_in".to_string()),
                ]
            });
            (end, end, true, None)
        } else {
            let w = self.transmit(ctx, src_node, dst_node, dst_global, buf, now);
            // The provisional arrival is overwritten at delivery; the head
            // instant keeps the record causally ordered.
            (w.head, w.tx_end, false, Some(w))
        };

        ctx.metrics().add("mpi_bytes_sent", buf.len);
        let bytes = buf.len;
        let path = if src_global == dst_global {
            "self"
        } else if intra {
            "intra"
        } else {
            "inter"
        };
        ctx.span("mpi_send", now, sender_done, || {
            vec![
                ("bytes", bytes.to_string()),
                ("dst", dst_global.to_string()),
                ("tag", tag.to_string()),
                ("path", path.to_string()),
            ]
        });
        let rec = SendRec {
            src_global,
            tag,
            payload: buf.backing.snapshot(buf.off, buf.len),
            len: buf.len,
            arrival,
            intra,
            comm: comm.clone(),
            sent_by: ctx.sink_enabled().then(|| (ctx.name().clone(), now)),
        };

        if let Some(w) = wire {
            let arrival = |head, dur, late, rec| Delivery {
                head,
                dur,
                src_global,
                seq: 0, // assigned by `post`
                dst_global,
                late,
                rec,
            };
            self.post(ctx, dst_node, arrival(w.head, w.dur, w.late, Some(rec)));
            if let Some((head, dur)) = w.ghost {
                self.post(ctx, dst_node, arrival(head, dur, Vec::new(), None));
            }
            return sender_done;
        }

        let mut st = self.state.lock();
        let key = (comm.id(), dst_global);
        let posted = st.posted.entry(key).or_default();
        if let Some(pos) = posted.iter().position(|r| {
            r.src.is_none_or(|s| comm.global_of(s) == src_global) && r.tag.is_none_or(|t| t == tag)
        }) {
            let recv = posted.remove(pos).expect("position valid");
            drop(st);
            self.complete_pair(ctx, rec, recv, dst_node);
        } else {
            st.unexpected.entry(key).or_default().push_back(rec);
        }
        sender_done
    }

    /// The sender's half of an internode transfer, fault model included.
    /// Rolls are the sender's own (and are NOT gated on recording state:
    /// the fault schedule must be identical with and without a span sink).
    /// A dropped attempt is detected by ack timeout and resent after
    /// exponential backoff; resends are idempotent — the receiver sees
    /// exactly one `SendRec` — and the final allowed attempt always
    /// delivers.
    fn transmit(
        &self,
        ctx: &Ctx,
        src_node: usize,
        dst_node: usize,
        dst_global: u32,
        buf: &MsgBuf,
        now: SimTime,
    ) -> Wire {
        let src_dev = match buf.loc {
            BufLoc::Host => None,
            BufLoc::Device(d) => {
                assert!(
                    self.res.spec.network.gpudirect_rdma,
                    "internode send from device memory requires GPUDirect RDMA; stage explicitly"
                );
                Some(d)
            }
        };
        // The zero-copy registered-buffer path needs the runtime's special
        // NIC integration (Mellanox OFED GPUDirect on Titan); elsewhere
        // every host send stages through the library's internal pinned pool.
        let zero_copy = src_dev.is_some() || (buf.pinned && self.res.spec.network.gpudirect_rdma);
        let reserve_tx = |from| {
            self.res
                .reserve_net_tx(src_node, dst_node, buf.len, from, src_dev, None, zero_copy)
        };
        let chaos = &self.res.chaos;
        let Some(plan) = chaos.plan() else {
            return Wire::clean(reserve_tx(now));
        };
        let mut attempt = 0u32;
        let mut from = now;
        let tx = loop {
            let tx = reserve_tx(from);
            if attempt == plan.max_retries || !chaos.roll(ctx, FaultSite::LinkDrop) {
                break tx;
            }
            attempt += 1;
            let detected = tx.tx_end + plan.timeout;
            let resume = detected + chaos.backoff(attempt);
            ctx.metrics().inc("retries");
            ctx.metrics().inc("chaos_link_drop");
            for (label, t0, t1) in [("fault", from, detected), ("retry", detected, resume)] {
                ctx.span(label, t0, t1, || {
                    vec![
                        ("site", "link_drop".to_string()),
                        ("dst", dst_global.to_string()),
                        ("attempt", attempt.to_string()),
                    ]
                });
            }
            from = resume;
        };
        let ghost = chaos.roll(ctx, FaultSite::LinkDup).then(|| {
            // Duplicated on the wire: a second transmit behind the first.
            let dup = reserve_tx(tx.tx_end);
            ctx.metrics().inc("chaos_link_dup");
            ctx.span("fault", tx.tx_end, tx.tx_end, || {
                vec![
                    ("site", "link_dup".to_string()),
                    ("dst", dst_global.to_string()),
                ]
            });
            (dup.head_arrival, dup.dur)
        });
        let mut late = Vec::new();
        for (site, metric, penalty) in [
            (
                FaultSite::LinkDelay,
                "chaos_link_delay",
                plan.link_delay_penalty,
            ),
            (
                FaultSite::NicBrownout,
                "chaos_nic_brownout",
                plan.brownout_penalty,
            ),
        ] {
            if chaos.roll(ctx, site) {
                ctx.metrics().inc(metric);
                late.push((site.label(), penalty));
            }
        }
        Wire {
            late,
            ghost,
            ..Wire::clean(tx)
        }
    }

    /// Park one arrival — a message, or with `rec: None` a duplicate's
    /// ghost — in `dst_node`'s mailbox under the sender's next sequence
    /// number, and make sure the node's delivery handler is up by its head.
    fn post(&self, ctx: &Ctx, dst_node: usize, mut d: Delivery) {
        let head = d.head;
        let wake = {
            let mut m = self.mailboxes[dst_node].lock();
            let seq = m.seqs.entry(d.src_global).or_insert(0);
            *seq += 1;
            d.seq = *seq;
            m.pending.push(d);
            // Wake the handler only for a strictly earlier arrival than it
            // armed for; otherwise its own deadline (or a prior wake)
            // already covers this message.
            match m.armed {
                Some((tok, at)) if head < at => {
                    m.armed = Some((tok, head));
                    Some(tok)
                }
                _ => None,
            }
        };
        if let Some(tok) = wake {
            // The engine clamps cross-partition wakes to the lookahead
            // bound; `head ≥ now + wire ≥ now + lookahead`, so the instant
            // is delivered exactly. The return value is schedule-dependent
            // and deliberately ignored. Untraced: whether the handler
            // resumes via this wake or via the deadline it armed is a
            // real-time race (the virtual instant is identical either
            // way), so the causal edge is emitted deterministically in
            // `deliver` instead.
            ctx.wake_at_untraced(tok, head);
        }
    }

    /// Post a receive whose call the caller has charged; match against the
    /// unexpected queue if possible.
    fn post_recv(
        &self,
        ctx: &Ctx,
        dst_global: u32,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Request {
        let dst_node = self.node_of(dst_global);
        if let BufLoc::Device(_) = buf.loc {
            assert!(
                self.res.spec.network.gpudirect_rdma,
                "receive into device memory requires GPUDirect RDMA; stage explicitly"
            );
        }
        let req = Request::pending(WaitCause::Recv { src, tag });
        let rec = RecvRec {
            src,
            tag,
            buf: buf.clone(),
            posted_at: ctx.now(),
            req: req.clone(),
        };

        let mut st = self.state.lock();
        let key = (comm.id(), dst_global);
        let unexpected = st.unexpected.entry(key).or_default();
        if let Some(pos) = unexpected.iter().position(|s| {
            src.is_none_or(|want| comm.global_of(want) == s.src_global)
                && tag.is_none_or(|want| want == s.tag)
        }) {
            let send = unexpected.remove(pos).expect("position valid");
            drop(st);
            self.complete_pair(ctx, send, rec, dst_node);
        } else {
            st.posted.entry(key).or_default().push_back(rec);
        }
        req
    }

    /// Complete a matched pair: move the bytes, compute the receive
    /// completion instant, fill the status, open the request.
    fn complete_pair(&self, ctx: &Ctx, send: SendRec, recv: RecvRec, dst_node: usize) {
        assert!(
            send.len <= recv.buf.len,
            "message truncation: {} byte message into {} byte receive buffer",
            send.len,
            recv.buf.len
        );
        send.payload
            .copy_to(&recv.buf.backing, recv.buf.off, send.len);
        let earliest = send.arrival.max(recv.posted_at);
        let complete = if send.intra {
            // Receiver-side copy-out of the staging segment.
            let end = self.res.reserve_host_copy(dst_node, send.len, earliest);
            ctx.metrics().add("HtoH", send.len);
            ctx.metrics().add("t_HtoH", end.since(earliest).0);
            ctx.span("HtoH", earliest, end, || {
                vec![
                    ("bytes", send.len.to_string()),
                    ("staging", "ipc_out".to_string()),
                ]
            });
            end
        } else {
            earliest
        };
        let status = Status {
            src: send
                .comm
                .rel_of(send.src_global)
                .expect("sender is a communicator member"),
            tag: send.tag,
            len: send.len,
        };
        // Emitted by whichever actor performed the match; the span covers
        // posted-receive to payload-available.
        ctx.span("mpi_recv", recv.posted_at, complete, || {
            vec![
                ("bytes", status.len.to_string()),
                ("src", send.src_global.to_string()),
                ("tag", send.tag.to_string()),
                ("intra", send.intra.to_string()),
            ]
        });
        // Send→recv matching edge: the completed receive was enabled by the
        // sender initiating the send. Lets the profiler tell a late sender
        // (send started after the receive was posted) from transit time.
        if let Some((src_actor, sent_at)) = &send.sent_by {
            ctx.edge_to_self("msg", src_actor, *sent_at, complete, || {
                vec![
                    ("bytes", send.len.to_string()),
                    ("tag", send.tag.to_string()),
                    ("posted_at", recv.posted_at.0.to_string()),
                ]
            });
        }
        recv.req.complete(ctx, complete, Some(status));
    }

    /// `MPI_Iprobe` support: peek at the earliest matching unexpected
    /// message's envelope, honouring arrival time (a message that is still
    /// "in flight" at the current virtual time is not yet visible).
    async fn probe(
        &self,
        ctx: &Ctx,
        dst_global: u32,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Option<Status> {
        let dst_node = self.node_of(dst_global);
        self.charge_call(ctx, dst_node).await;
        let now = ctx.now();
        let st = self.state.lock();
        let key = (comm.id(), dst_global);
        st.unexpected.get(&key).and_then(|q| {
            q.iter()
                .find(|s| {
                    s.arrival <= now
                        && src.is_none_or(|want| comm.global_of(want) == s.src_global)
                        && tag.is_none_or(|want| want == s.tag)
                })
                .map(|s| Status {
                    src: s.comm.rel_of(s.src_global).expect("member"),
                    tag: s.tag,
                    len: s.len,
                })
        })
    }
}

/// A task's endpoint into the MPI library. Created once per task.
#[derive(Clone)]
pub struct MpiTask {
    sys: Arc<SysMpi>,
    global: u32,
}

impl MpiTask {
    /// Endpoint for global rank `global`.
    pub fn new(sys: Arc<SysMpi>, global: u32) -> MpiTask {
        assert!((global as usize) < sys.node_of.len());
        MpiTask { sys, global }
    }

    /// The library this endpoint belongs to.
    pub fn sys(&self) -> &Arc<SysMpi> {
        &self.sys
    }

    /// This task's global rank.
    pub fn global_rank(&self) -> u32 {
        self.global
    }

    /// The node this task runs on.
    pub fn node(&self) -> usize {
        self.sys.node_of(self.global)
    }

    /// `MPI_Send` (eager): returns when the message has left `buf`.
    pub async fn send(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm) {
        let dst_global = comm.global_of(dst);
        self.sys.charge_call(ctx, self.node()).await;
        let done = self
            .sys
            .initiate_send(ctx, self.global, buf, dst_global, tag, comm);
        ctx.sleep_until(done, tags::MPI_WAIT).await;
    }

    /// `MPI_Isend`: returns at once with a request.
    pub async fn isend(&self, ctx: &Ctx, buf: &MsgBuf, dst: u32, tag: i32, comm: &Comm) -> Request {
        let dst_global = comm.global_of(dst);
        self.sys.charge_call(ctx, self.node()).await;
        let done = self
            .sys
            .initiate_send(ctx, self.global, buf, dst_global, tag, comm);
        let req = Request::pending(WaitCause::MpiReq);
        req.complete(ctx, done, None);
        req
    }

    /// `MPI_Recv`: returns when a matching message is in `buf`.
    pub async fn recv(
        &self,
        ctx: &Ctx,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Status {
        let req = self.irecv(ctx, buf, src, tag, comm).await;
        let st = req.completion(ctx).await;
        st.expect("receive requests carry a status")
    }

    /// `MPI_Irecv`: post a receive, returning a request.
    pub async fn irecv(
        &self,
        ctx: &Ctx,
        buf: &MsgBuf,
        src: SrcSel,
        tag: TagSel,
        comm: &Comm,
    ) -> Request {
        self.sys.charge_call(ctx, self.node()).await;
        self.sys.post_recv(ctx, self.global, buf, src, tag, comm)
    }

    /// `MPI_Sendrecv`: a combined exchange that cannot deadlock when both
    /// peers initiate simultaneously.
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &self,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        dst: u32,
        recvbuf: &MsgBuf,
        src: u32,
        tag: i32,
        comm: &Comm,
    ) -> Status {
        let sreq = self.isend(ctx, sendbuf, dst, tag, comm).await;
        let st = self.recv(ctx, recvbuf, Some(src), Some(tag), comm).await;
        sreq.completion(ctx).await;
        st
    }

    /// `MPI_Iprobe`: is a matching message already waiting (without
    /// receiving it)? Returns its envelope if so.
    pub async fn iprobe(&self, ctx: &Ctx, src: SrcSel, tag: TagSel, comm: &Comm) -> Option<Status> {
        self.sys.probe(ctx, self.global, src, tag, comm).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_machine::presets;
    use impacc_mem::Backing;
    use impacc_vtime::{Sim, SimDur};

    /// Run `n` ranks placed contiguously over the spec's nodes, `per_node`
    /// to a node and each on its node's partition, with `chaos` installed.
    fn run_ranks_chaos(
        spec: impacc_machine::MachineSpec,
        chaos: impacc_machine::Chaos,
        per_node: usize,
        n: usize,
        f: impl Fn(&Ctx, MpiTask, Comm) + Send + Sync + 'static,
    ) -> impacc_vtime::SimReport {
        let res = Arc::new(ClusterResources::with_chaos(Arc::new(spec), chaos));
        let node_of: Vec<usize> = (0..n).map(|r| r / per_node).collect();
        // The lookahead `Launch` would derive: cross-node traffic really
        // crosses partitions here.
        let mut sim = Sim::with_config(impacc_vtime::SimConfig {
            lookahead: res.min_cross_node_latency(),
            ..Default::default()
        });
        let sys = SysMpi::new(&mut sim, res, node_of.clone());
        let world = Comm::world(n as u32);
        let f = Arc::new(f);
        for (r, node) in node_of.into_iter().enumerate() {
            let sys = sys.clone();
            let world = world.clone();
            let f = f.clone();
            sim.spawn_on(node as u32, format!("rank{r}"), move |ctx| {
                let ep = MpiTask::new(sys, r as u32);
                f(ctx, ep, world);
            });
        }
        sim.run().unwrap()
    }

    /// `run_ranks_chaos` without a fault plan.
    fn run_ranks(
        spec: impacc_machine::MachineSpec,
        per_node: usize,
        n: usize,
        f: impl Fn(&Ctx, MpiTask, Comm) + Send + Sync + 'static,
    ) -> impacc_vtime::SimReport {
        run_ranks_chaos(spec, impacc_machine::Chaos::disabled(), per_node, n, f)
    }

    fn buf_with(vals: &[f64]) -> MsgBuf {
        let b = Backing::new(vals.len() as u64 * 8, None);
        let m = MsgBuf::host(b, 0, vals.len() as u64 * 8);
        m.write_f64s(vals);
        m
    }

    fn empty_buf(n: usize) -> MsgBuf {
        MsgBuf::host(Backing::new(n as u64 * 8, None), 0, n as u64 * 8)
    }

    const ST: Status = Status {
        src: 3,
        tag: 7,
        len: 64,
    };

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(us)
    }

    #[test]
    fn request_returns_its_status_to_early_and_late_waiters() {
        let req = Request::pending(WaitCause::MpiReq);
        let mut sim = Sim::new();
        for (name, start, end) in [("early", 0, 2), ("late", 5, 5)] {
            let req = req.clone();
            sim.spawn(name, move |ctx| {
                ctx.advance(SimDur::from_us(start), "sleep");
                assert_eq!(ctx.block_on(req.completion(ctx)), Some(ST));
                assert_eq!(ctx.now(), at_us(end));
            });
        }
        sim.spawn("completer", move |ctx| {
            ctx.advance(SimDur::from_us(2), "work");
            req.complete(ctx, ctx.now(), Some(ST));
        });
        sim.run().unwrap();
    }

    #[test]
    fn future_completion_gates_test_and_wait() {
        let req = Request::pending(WaitCause::MpiReq);
        let mut sim = Sim::new();
        {
            let req = req.clone();
            sim.spawn("completer", move |ctx| req.complete(ctx, at_us(10), None));
        }
        sim.spawn("waiter", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            assert_eq!(req.completion_time(), Some(at_us(10)));
            assert!(!req.test(ctx), "matched, but complete only at 10 us");
            ctx.advance(SimDur::from_us(8), "sleep");
            assert!(!req.test(ctx));
            assert_eq!(ctx.block_on(req.completion(ctx)), None);
            assert_eq!(ctx.now(), at_us(10), "wait returns exactly at the instant");
            assert!(req.test(ctx));
        });
        sim.run().unwrap();
    }

    /// A sink that keeps every span and edge as one line of text.
    #[derive(Default, Clone)]
    struct Collect(Arc<std::sync::Mutex<Vec<String>>>);

    impl impacc_vtime::SpanSink for Collect {
        fn enabled(&self) -> bool {
            true
        }

        fn lane(&self, actor: &str) -> Arc<dyn impacc_vtime::SpanLane> {
            Arc::new(CollectLane(self.clone(), actor.to_string()))
        }

        fn edge(
            &self,
            kind: &'static str,
            src_actor: &str,
            src_t: SimTime,
            dst_actor: &str,
            dst_t: SimTime,
            _attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
        ) {
            let line = format!(
                "edge {kind} {src_actor}@{}->{dst_actor}@{}",
                src_t.0, dst_t.0
            );
            self.0.lock().unwrap().push(line);
        }
    }

    struct CollectLane(Collect, String);

    impl impacc_vtime::SpanLane for CollectLane {
        fn span(
            &self,
            label: &'static str,
            t0: SimTime,
            t1: SimTime,
            attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
        ) {
            let line = format!("span {label} {} {}..{} {:?}", self.1, t0.0, t1.0, attrs());
            (self.0).0.lock().unwrap().push(line);
        }
    }

    /// What a sink sees when a waiter arrives at 1 us at a request that
    /// `complete` completed for 5 us: no suspension, only the ride.
    fn ride_record(complete: fn(&Request, &Ctx)) -> Vec<String> {
        let seen = Collect::default();
        let mut sim = Sim::with_config(impacc_vtime::SimConfig {
            sink: Some(Arc::new(seen.clone())),
            ..Default::default()
        });
        let req = Request::pending(WaitCause::FusedRecv { src: 0, tag: 3 });
        {
            let req = req.clone();
            sim.spawn("handler", move |ctx| complete(&req, ctx));
        }
        sim.spawn("waiter", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            assert_eq!(ctx.block_on(req.completion(ctx)), Some(ST));
            assert_eq!(ctx.now(), at_us(5));
        });
        sim.run().unwrap();
        let seen = seen.0.lock().unwrap();
        seen.iter()
            .filter(|l| l.starts_with("span stall") || l.starts_with("edge wake"))
            .cloned()
            .collect()
    }

    #[test]
    fn ride_to_a_future_completion_is_recorded_iff_the_completer_is_named() {
        let (t1, t5) = (at_us(1).0, at_us(5).0);
        assert_eq!(
            ride_record(|req, ctx| req.complete_named(ctx, at_us(5), Some(ST))),
            vec![
                format!(
                    "span stall waiter {t1}..{t5} \
                     [(\"tag\", \"mpi_wait\"), (\"cause\", \"fused recv src=0 tag=3\")]"
                ),
                format!("edge wake handler@{t5}->waiter@{t5}"),
            ]
        );
        assert_eq!(
            ride_record(|req, ctx| req.complete(ctx, at_us(5), Some(ST))),
            Vec::<String>::new()
        );
    }

    #[test]
    fn subscribe_pings_once_and_only_if_registered_before_the_match() {
        let work = impacc_vtime::Notify::new();
        let (early, late) = (
            Request::pending(WaitCause::MpiReq),
            Request::pending(WaitCause::MpiReq),
        );
        let mut sim = Sim::new();
        {
            let (early, late) = (early.clone(), late.clone());
            sim.spawn("completer", move |ctx| {
                late.complete(ctx, ctx.now(), None);
                ctx.advance(SimDur::from_us(3), "work");
                early.complete(ctx, ctx.now(), None);
            });
        }
        sim.spawn("service", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            early.subscribe(&work);
            late.subscribe(&work); // already matched: poll, no ping
            assert!(late.test(ctx) && !early.test(ctx));
            work.wait_deadline(ctx, at_us(50), "idle");
            assert_eq!(ctx.now(), at_us(3), "pinged by the match");
            assert!(early.test(ctx));
            work.wait_deadline(ctx, at_us(50), "idle");
            assert_eq!(ctx.now(), at_us(50), "no second ping");
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_causes_render_the_strings_the_profiler_classifies() {
        let text = |c: WaitCause| c.to_string();
        assert_eq!(text(WaitCause::MpiReq), "mpi_req");
        assert_eq!(
            text(WaitCause::Recv {
                src: Some(0),
                tag: Some(7)
            }),
            "recv src=0 tag=7"
        );
        assert_eq!(
            text(WaitCause::Recv {
                src: None,
                tag: None
            }),
            "recv src=any tag=any"
        );
        assert_eq!(
            text(WaitCause::FusedSend { dst: 1, tag: 7 }),
            "fused send dst=1 tag=7"
        );
        assert_eq!(
            text(WaitCause::FusedRecv { src: 0, tag: 3 }),
            "fused recv src=0 tag=3"
        );
        assert_eq!(
            text(WaitCause::PendingInternodeRecv),
            "pending internode recv"
        );
    }

    #[test]
    fn blocking_send_recv_moves_data() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                let buf = buf_with(&[1.0, 2.0, 3.0]);
                ctx.block_on(ep.send(ctx, &buf, 1, 7, &world));
            } else {
                let buf = empty_buf(3);
                let st = ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(7), &world));
                assert_eq!(
                    st,
                    Status {
                        src: 0,
                        tag: 7,
                        len: 24
                    }
                );
                assert_eq!(buf.read_f64s(), vec![1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn recv_before_send_works() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                ctx.advance(SimDur::from_ms(1), "sleep");
                ctx.block_on(ep.send(ctx, &buf_with(&[9.0]), 1, 0, &world));
            } else {
                let buf = empty_buf(1);
                let st = ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
                assert_eq!(buf.read_f64s(), vec![9.0]);
                assert_eq!(st.len, 8);
                // Receiver waited for the sender's sleep + transfer.
                assert!(ctx.now().as_secs_f64() > 1e-3);
            }
        });
    }

    #[test]
    fn wildcard_source_and_tag() {
        run_ranks(presets::test_cluster(3, 1), 1, 3, |ctx, ep, world| {
            match ep.global_rank() {
                0 => ctx.block_on(ep.send(ctx, &buf_with(&[1.0]), 2, 5, &world)),
                1 => {
                    ctx.advance(SimDur::from_us(50), "sleep");
                    ctx.block_on(ep.send(ctx, &buf_with(&[2.0]), 2, 6, &world));
                }
                _ => {
                    let buf = empty_buf(1);
                    let st1 = ctx.block_on(ep.recv(ctx, &buf, None, None, &world));
                    let first = buf.read_f64s()[0];
                    let st2 = ctx.block_on(ep.recv(ctx, &buf, None, None, &world));
                    let second = buf.read_f64s()[0];
                    // Deterministic engine: rank 0's message arrives first.
                    assert_eq!((st1.src, st1.tag, first), (0, 5, 1.0));
                    assert_eq!((st2.src, st2.tag, second), (1, 6, 2.0));
                }
            }
        });
    }

    #[test]
    fn fifo_ordering_same_pair() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                for i in 0..5 {
                    ctx.block_on(ep.send(ctx, &buf_with(&[i as f64]), 1, 3, &world));
                }
            } else {
                for i in 0..5 {
                    let buf = empty_buf(1);
                    ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(3), &world));
                    assert_eq!(buf.read_f64s()[0], i as f64, "non-overtaking violated");
                }
            }
        });
    }

    #[test]
    fn nonblocking_overlap() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                let buf = buf_with(&vec![1.0; 1 << 17]); // 1 MiB
                let t0 = ctx.now();
                let req = ctx.block_on(ep.isend(ctx, &buf, 1, 0, &world));
                // isend returns immediately (call overhead only).
                assert!(ctx.now().since(t0).as_secs_f64() < 5e-6);
                ctx.advance(SimDur::from_us(30), "useful_work");
                ctx.block_on(req.completion(ctx));
            } else {
                let buf = empty_buf(1 << 17);
                let req = ctx.block_on(ep.irecv(ctx, &buf, Some(0), Some(0), &world));
                assert!(!req.test(ctx));
                let st = ctx.block_on(req.completion(ctx)).unwrap();
                assert_eq!(st.len, 1 << 20);
                assert!(req.test(ctx));
            }
        });
    }

    #[test]
    fn intra_node_costs_more_than_one_copy() {
        // Baseline process-model: 1 MiB intra-node = two host copies.
        let report = run_ranks(presets::psg(), 8, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                ctx.block_on(ep.send(ctx, &buf_with(&vec![0.5; 1 << 17]), 1, 0, &world));
            } else {
                let buf = empty_buf(1 << 17);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
                let t = ctx.now().as_secs_f64();
                let one_copy = (1u64 << 20) as f64 / 20e9;
                assert!(t > 2.0 * one_copy, "t = {t}, one copy = {one_copy}");
                assert!(t < 4.0 * one_copy, "t = {t}");
            }
        });
        assert_eq!(report.metrics["mpi_bytes_sent"], 1 << 20);
    }

    #[test]
    fn internode_respects_wire_and_nic() {
        run_ranks(presets::titan(2), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                ctx.block_on(ep.send(ctx, &buf_with(&vec![0.5; 1 << 17]), 1, 0, &world));
                // Sender done at tx_end, before the receiver.
                let t = ctx.now().as_secs_f64();
                let expected = (1u64 << 20) as f64 / 4.5e9;
                assert!(t > expected && t < expected * 1.5, "t = {t}");
            } else {
                let buf = empty_buf(1 << 17);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
            }
        });
    }

    #[test]
    fn gpudirect_allows_device_buffers() {
        run_ranks(presets::titan(2), 1, 2, |ctx, ep, world| {
            let b = Backing::new(1 << 20, None);
            if ep.global_rank() == 0 {
                b.write(0, &[1; 8]);
                let buf = MsgBuf::device(b, 0, 1 << 20, 0);
                ctx.block_on(ep.send(ctx, &buf, 1, 0, &world));
            } else {
                let buf = MsgBuf::device(b, 0, 1 << 20, 0);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
                let mut out = [0u8; 8];
                buf.backing.read(0, &mut out);
                assert_eq!(out, [1; 8]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "GPUDirect RDMA")]
    fn device_send_without_gpudirect_panics() {
        run_ranks(presets::beacon(2), 4, 8, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                let buf = MsgBuf::device(Backing::new(64, None), 0, 64, 0);
                ctx.block_on(ep.send(ctx, &buf, 4, 0, &world)); // rank 4 is on node 1
            } else if ep.global_rank() == 4 {
                let buf = empty_buf(8);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
            }
        });
    }

    #[test]
    fn eager_send_buffer_reuse_is_safe() {
        // MPI_Send's eager contract: once it returns, the sender owns the
        // buffer again. An unmatched in-flight message must therefore hold
        // the bytes as of the send, not alias the live buffer (the COW
        // snapshot materializes exactly when the sender rewrites it).
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                let buf = buf_with(&[1.0, 2.0]);
                ctx.block_on(ep.send(ctx, &buf, 1, 0, &world));
                buf.write_f64s(&[-9.0, -9.0]);
                ctx.block_on(ep.send(ctx, &buf, 1, 1, &world));
            } else {
                // Let both sends land in the unexpected queue first.
                ctx.advance(SimDur::from_ms(5), "sleep");
                let buf = empty_buf(2);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
                assert_eq!(
                    buf.read_f64s(),
                    vec![1.0, 2.0],
                    "in-flight eager message must not see the sender's overwrite"
                );
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(1), &world));
                assert_eq!(buf.read_f64s(), vec![-9.0, -9.0]);
            }
        });
    }

    #[test]
    fn self_send_completes() {
        run_ranks(presets::test_cluster(1, 1), 1, 1, |ctx, ep, world| {
            let req = ctx.block_on(ep.isend(ctx, &buf_with(&[4.0]), 0, 1, &world));
            let buf = empty_buf(1);
            ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(1), &world));
            ctx.block_on(req.completion(ctx));
            assert_eq!(buf.read_f64s(), vec![4.0]);
        });
    }

    #[test]
    #[should_panic(expected = "truncation")]
    fn truncation_is_an_error() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                ctx.block_on(ep.send(ctx, &buf_with(&[1.0, 2.0]), 1, 0, &world));
            } else {
                let buf = empty_buf(1);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
            }
        });
    }

    #[test]
    fn unmatched_recv_deadlocks_cleanly() {
        let res = Arc::new(ClusterResources::new(Arc::new(presets::test_cluster(1, 1))));
        let mut sim = Sim::new();
        let sys = SysMpi::new(&mut sim, res, vec![0]);
        let world = Comm::world(1);
        sim.spawn_on(0, "rank0", move |ctx| {
            let ep = MpiTask::new(sys, 0);
            let buf = empty_buf(1);
            ctx.block_on(ep.recv(ctx, &buf, None, None, &world));
        });
        match sim.run() {
            Err(impacc_vtime::SimError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        run_ranks(presets::test_cluster(1, 2), 2, 2, |ctx, ep, world| {
            let me = ep.global_rank();
            let peer = 1 - me;
            let out = buf_with(&[me as f64]);
            let inn = empty_buf(1);
            let st = ctx.block_on(ep.sendrecv(ctx, &out, peer, &inn, peer, 42, &world));
            assert_eq!(st.src, peer);
            assert_eq!(inn.read_f64s(), vec![peer as f64]);
        });
    }

    #[test]
    fn iprobe_sees_arrived_messages_only() {
        run_ranks(presets::test_cluster(2, 1), 1, 2, |ctx, ep, world| {
            if ep.global_rank() == 0 {
                ctx.block_on(ep.send(ctx, &buf_with(&[5.0]), 1, 9, &world));
            } else {
                // Nothing has been sent yet at t=0.
                assert!(ctx
                    .block_on(ep.iprobe(ctx, Some(0), Some(9), &world))
                    .is_none());
                // Wait long enough for the eager message to arrive.
                ctx.advance(impacc_vtime::SimDur::from_ms(10), "sleep");
                let st = ctx
                    .block_on(ep.iprobe(ctx, Some(0), Some(9), &world))
                    .expect("message arrived");
                assert_eq!((st.src, st.tag, st.len), (0, 9, 8));
                // Probing does not consume: the receive still matches.
                let buf = empty_buf(1);
                ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(9), &world));
                assert_eq!(buf.read_f64s(), vec![5.0]);
                assert!(ctx
                    .block_on(ep.iprobe(ctx, Some(0), Some(9), &world))
                    .is_none());
            }
        });
    }

    #[test]
    fn link_drop_retries_deliver_correct_data_late() {
        use impacc_machine::{Chaos, FaultPlan};
        // Every send drops until the retry budget runs out; the final
        // attempt delivers, so data is bit-correct and only timing moves.
        let chaos = Chaos::new(
            FaultPlan::new(11)
                .with_rate(FaultSite::LinkDrop, 1.0)
                .with_max_retries(2),
        );
        let report = run_ranks_chaos(
            presets::test_cluster(2, 1),
            chaos,
            1,
            2,
            |ctx, ep, world| {
                if ep.global_rank() == 0 {
                    ctx.block_on(ep.send(ctx, &buf_with(&[3.0, 4.0]), 1, 0, &world));
                } else {
                    let buf = empty_buf(2);
                    ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(0), &world));
                    assert_eq!(buf.read_f64s(), vec![3.0, 4.0]);
                }
            },
        );
        assert_eq!(report.metrics["retries"], 2, "budget fully consumed");
        assert_eq!(report.metrics["chaos_link_drop"], 2);
    }

    #[test]
    fn faulted_run_is_slower_but_identical_data() {
        use impacc_machine::{Chaos, FaultPlan};
        let body = |ctx: &Ctx, ep: MpiTask, world: Comm| {
            if ep.global_rank() == 0 {
                for i in 0..8 {
                    ctx.block_on(ep.send(ctx, &buf_with(&[i as f64]), 1, i, &world));
                }
            } else {
                for i in 0..8 {
                    let buf = empty_buf(1);
                    ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(i), &world));
                    assert_eq!(buf.read_f64s(), vec![i as f64]);
                }
            }
        };
        let clean = run_ranks(presets::test_cluster(2, 1), 1, 2, body);
        let faulted = run_ranks_chaos(
            presets::test_cluster(2, 1),
            Chaos::new(FaultPlan::new(5).with_rate(FaultSite::LinkDrop, 0.5)),
            1,
            2,
            body,
        );
        assert!(faulted.metrics.get("retries").copied().unwrap_or(0) > 0);
        assert!(
            faulted.end_time > clean.end_time,
            "retries must cost virtual time"
        );
    }

    #[test]
    fn link_dup_is_deduped() {
        use impacc_machine::{Chaos, FaultPlan};
        // Every message is duplicated on the wire; the receiver must see
        // each exactly once (dedup) and FIFO order must hold.
        let report = run_ranks_chaos(
            presets::test_cluster(2, 1),
            Chaos::new(FaultPlan::new(0).with_rate(FaultSite::LinkDup, 1.0)),
            1,
            2,
            |ctx, ep, world| {
                if ep.global_rank() == 0 {
                    for i in 0..4 {
                        ctx.block_on(ep.send(ctx, &buf_with(&[i as f64]), 1, 3, &world));
                    }
                } else {
                    for i in 0..4 {
                        let buf = empty_buf(1);
                        ctx.block_on(ep.recv(ctx, &buf, Some(0), Some(3), &world));
                        assert_eq!(buf.read_f64s()[0], i as f64);
                    }
                    // No ghost copies left behind.
                    assert!(ctx
                        .block_on(ep.iprobe(ctx, Some(0), Some(3), &world))
                        .is_none());
                }
            },
        );
        assert_eq!(report.metrics["chaos_link_dup"], 4);
    }

    #[test]
    fn serialized_mpi_contends_per_node() {
        let mut spec = presets::psg();
        spec.mpi_threading = MpiThreading::Serialized;
        spec.nodes.push(spec.nodes[0].clone()); // 2 nodes, 8 ranks each
        let report = run_ranks(spec, 8, 16, |ctx, ep, world| {
            // All 8 ranks of node 0 send internode simultaneously.
            if ep.global_rank() < 8 {
                ctx.block_on(ep.send(ctx, &buf_with(&[0.0]), 8 + ep.global_rank(), 0, &world));
            } else {
                let buf = empty_buf(1);
                ctx.block_on(ep.recv(ctx, &buf, Some(ep.global_rank() - 8), Some(0), &world));
            }
        });
        // With serialization, the 8th sender's call start is pushed back by
        // 7 call-overheads; total call time across senders ~ 8+7+...  — just
        // check the aggregate exceeds the thread-multiple baseline.
        let serial_total = report.tag_total(tags::MPI_CALL).as_secs_f64();
        assert!(serial_total > 8.0 * 0.6e-6, "serialized calls must queue");
    }
}
