//! The per-node message handler (§3.7).
//!
//! One handler runs per node: in the paper a thread, here an
//! `impacc_vtime` handler — an actor that owns no thread, whose body
//! ([`NodeHandler::run`]) the engine polls inline and which advances and
//! waits by awaiting. Task threads push message commands onto two
//! lock-free MPSC queues:
//!
//! * the **intra-node message queue** — send/receive commands the handler
//!   matches by `(comm, src, dst, tag)` in FIFO order and *fuses* into a
//!   single accelerator memory copy (HtoH / HtoD / DtoH / DtoD), applying
//!   *node heap aliasing* instead of copying when the five §3.8
//!   requirements hold;
//! * the **pending internode message queue** — receives whose network half
//!   (into pre-pinned staging) is in flight; on completion the handler
//!   issues the device write.
//!
//! The handler is a single serial actor: bursts of intra-node messages
//! queue behind each other here, which is exactly the overhead the paper
//! observes costing ~5% on host-to-host-only LULESH on Beacon.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use impacc_acc::{tags, Device};
use impacc_machine::{ClusterResources, FaultSite, HdDir};
use impacc_mem::{AddressSpace, Backing, NodeHeap};
use impacc_mpi::{BufLoc, Status};
use impacc_vtime::{Ctx, Notify, SimDur, SimTime, WakeReason};

use crate::cmd::{CmdKind, MatchKey, MsgCmd, PendingRecv};
use crate::mode::RuntimeOptions;
use crate::mpsc::MpscQueue;

/// The node message handler. Construct with [`NodeHandler::new`], then
/// spawn [`NodeHandler::run`] as the node's handler actor.
pub struct NodeHandler {
    node: usize,
    res: Arc<ClusterResources>,
    space: Arc<AddressSpace>,
    heap: Arc<NodeHeap>,
    devices: Vec<Device>,
    opts: RuntimeOptions,
    phys_cap: Option<u64>,
    intra: MpscQueue<MsgCmd>,
    pending: MpscQueue<PendingRecv>,
    work: Notify,
}

impl NodeHandler {
    /// Build the handler for `node` with the node-shared structures.
    pub fn new(
        node: usize,
        res: Arc<ClusterResources>,
        space: Arc<AddressSpace>,
        heap: Arc<NodeHeap>,
        devices: Vec<Device>,
        opts: RuntimeOptions,
        phys_cap: Option<u64>,
    ) -> Arc<NodeHandler> {
        Arc::new(NodeHandler {
            node,
            res,
            space,
            heap,
            devices,
            opts,
            phys_cap,
            intra: MpscQueue::new(),
            pending: MpscQueue::new(),
            work: Notify::new(),
        })
    }

    /// Submit an intra-node message command (task side). Charges the
    /// command-creation overhead to the caller.
    pub async fn submit(&self, ctx: &Ctx, mut cmd: MsgCmd) {
        ctx.sleep(self.res.handler_cmd_overhead(), impacc_mpi::tags::MPI_CALL)
            .await;
        self.enqueue_jitter(ctx).await;
        cmd.submitted_by = ctx.sink_enabled().then(|| (ctx.name().clone(), ctx.now()));
        self.intra.push(cmd);
        self.work.notify_one(ctx);
    }

    /// Submit a pending internode receive (task side).
    pub async fn submit_pending(&self, ctx: &Ctx, p: PendingRecv) {
        ctx.sleep(self.res.handler_cmd_overhead(), impacc_mpi::tags::MPI_CALL)
            .await;
        self.enqueue_jitter(ctx).await;
        p.req.subscribe(&self.work);
        self.pending.push(p);
        self.work.notify_one(ctx);
    }

    /// Injected MPSC enqueue jitter: a scheduling hiccup between building a
    /// command and it landing on the handler queue, charged to the caller.
    async fn enqueue_jitter(&self, ctx: &Ctx) {
        if self.res.chaos.roll(ctx, FaultSite::EnqueueJitter) {
            let p = self
                .res
                .chaos
                .plan()
                .expect("fault implies plan")
                .stall_penalty;
            ctx.metrics().inc("chaos_enqueue_jitter");
            let t0 = ctx.now();
            ctx.span("fault", t0, t0 + p, || {
                vec![("site", "enqueue_jitter".to_string())]
            });
            ctx.sleep(p, impacc_mpi::tags::MPI_CALL).await;
        }
    }

    /// The handler's body: drain both queues, then sleep until a command
    /// arrives or the earliest pending internode receive completes. Spawn
    /// it as the node's handler actor (`handler.nX`).
    pub async fn run(&self, ctx: &Ctx) {
        let mut unmatched_send: HashMap<MatchKey, VecDeque<MsgCmd>> = HashMap::new();
        let mut unmatched_recv: HashMap<MatchKey, VecDeque<MsgCmd>> = HashMap::new();
        let mut pendings: Vec<PendingRecv> = Vec::new();
        loop {
            let mut progressed = false;
            while let Some(cmd) = self.intra.pop() {
                let t0 = ctx.now();
                let kind = match cmd.kind {
                    CmdKind::Send => "send",
                    CmdKind::Recv => "recv",
                };
                // Handler dequeue edge: this command's processing could
                // not start before the task pushed it.
                if let Some((by, at)) = &cmd.submitted_by {
                    ctx.edge_to_self("deq", by, *at, t0, || vec![("kind", kind.to_string())]);
                }
                // Dequeue + scheduling cost of one message command.
                ctx.sleep(self.res.handler_cmd_overhead(), "handler").await;
                if self.res.chaos.roll(ctx, FaultSite::HandlerStall) {
                    // The handler thread loses its core for a scheduling
                    // quantum; every queued command behind this one waits.
                    let p = self
                        .res
                        .chaos
                        .plan()
                        .expect("fault implies plan")
                        .stall_penalty;
                    ctx.metrics().inc("chaos_handler_stall");
                    let s0 = ctx.now();
                    ctx.span("fault", s0, s0 + p, || {
                        vec![("site", "handler_stall".to_string())]
                    });
                    ctx.sleep(p, "handler").await;
                }
                self.process(ctx, cmd, &mut unmatched_send, &mut unmatched_recv)
                    .await;
                ctx.span("handler_cmd", t0, ctx.now(), || {
                    vec![("kind", kind.to_string())]
                });
                progressed = true;
            }
            while let Some(p) = self.pending.pop() {
                pendings.push(p);
                progressed = true;
            }
            let now = ctx.now();
            let mut i = 0;
            while i < pendings.len() {
                match pendings[i].req.completion_time() {
                    Some(t) if t <= now => {
                        let p = pendings.swap_remove(i);
                        self.finish_pending(ctx, p).await;
                        progressed = true;
                    }
                    _ => i += 1,
                }
            }
            if progressed {
                continue;
            }
            let deadline = pendings
                .iter()
                .filter_map(|p| p.req.completion_time())
                .min();
            let idle = self.work.notified(ctx, "handler_idle");
            let woke = match deadline {
                Some(t) => {
                    let n = pendings.len();
                    idle.until(t)
                        .cause(|| format!("pending internode recv x{n}"))
                        .await
                }
                None => idle.cause(|| "intra queue empty".to_string()).await,
            };
            if woke == WakeReason::Shutdown {
                return;
            }
        }
    }

    async fn process(
        &self,
        ctx: &Ctx,
        cmd: MsgCmd,
        unmatched_send: &mut HashMap<MatchKey, VecDeque<MsgCmd>>,
        unmatched_recv: &mut HashMap<MatchKey, VecDeque<MsgCmd>>,
    ) {
        let key = cmd.key();
        match cmd.kind {
            CmdKind::Send => {
                if let Some(recv) = unmatched_recv.get_mut(&key).and_then(|q| q.pop_front()) {
                    self.fuse(ctx, cmd, recv).await;
                } else {
                    unmatched_send.entry(key).or_default().push_back(cmd);
                }
            }
            CmdKind::Recv => {
                if let Some(send) = unmatched_send.get_mut(&key).and_then(|q| q.pop_front()) {
                    self.fuse(ctx, send, cmd).await;
                } else {
                    unmatched_recv.entry(key).or_default().push_back(cmd);
                }
            }
        }
    }

    /// Message fusion (§3.7, Figure 6): one matched send/recv pair becomes
    /// a single memory copy — or no copy at all under node heap aliasing.
    ///
    /// The handler never blocks on the copy itself: it reserves the links
    /// (issuing the asynchronous device copy, `cuMemcpyAsync`-style) and
    /// completes both sides' handles at the computed finish instant, so a
    /// burst of messages streams onto the PCIe links back-to-back while
    /// the handler keeps draining its queue.
    async fn fuse(&self, ctx: &Ctx, send: MsgCmd, recv: MsgCmd) {
        let path = self.fuse_path(ctx, &send, &recv);
        // Node heap aliasing is the one step of a fusion that moves the
        // handler's clock; the copy paths only reserve links.
        let aliased = path == "HtoH" && self.try_alias(ctx, &send, &recv).await;
        self.fused_copy(ctx, send, recv, path, aliased);
    }

    /// The start of a fusion: check the sizes, count it and name its copy
    /// path.
    fn fuse_path(&self, ctx: &Ctx, send: &MsgCmd, recv: &MsgCmd) -> &'static str {
        let (sbuf, rbuf) = (&send.buf.msg, &recv.buf.msg);
        assert!(
            sbuf.len <= rbuf.len,
            "message truncation: {} byte message into {} byte buffer (tag {})",
            sbuf.len,
            rbuf.len,
            send.tag
        );
        ctx.metrics().inc("fused_msgs");
        let path = match (sbuf.loc, rbuf.loc) {
            (BufLoc::Host, BufLoc::Host) => "HtoH",
            (BufLoc::Host, BufLoc::Device(_)) => "HtoD",
            (BufLoc::Device(_), BufLoc::Host) => "DtoH",
            (BufLoc::Device(_), BufLoc::Device(_)) => "DtoD",
        };
        ctx.event("fuse", || {
            vec![
                ("src", send.src.to_string()),
                ("dst", send.dst.to_string()),
                ("tag", send.tag.to_string()),
                ("bytes", sbuf.len.to_string()),
                ("path", path.to_string()),
            ]
        });
        path
    }

    /// The rest of a fusion: the one copy (none when `aliased`) and both
    /// sides' completions at its finish instant.
    fn fused_copy(&self, ctx: &Ctx, send: MsgCmd, recv: MsgCmd, path: &str, aliased: bool) {
        let (sbuf, rbuf) = (&send.buf.msg, &recv.buf.msg);
        let len = sbuf.len;
        let now = ctx.now();
        let copy_bytes = || Backing::copy(&sbuf.backing, sbuf.off, &rbuf.backing, rbuf.off, len);

        let complete: SimTime = match (sbuf.loc, rbuf.loc) {
            (BufLoc::Host, BufLoc::Host) => {
                if aliased {
                    ctx.metrics().inc("aliased_msgs");
                    ctx.event("alias", || {
                        vec![("outcome", "hit".to_string()), ("bytes", len.to_string())]
                    });
                    ctx.now()
                } else {
                    let end = self.res.reserve_host_copy(self.node, len, now);
                    copy_bytes();
                    ctx.metrics().add(tags::HTOH, len);
                    ctx.metrics().add("t_HtoH", end.since(now).0);
                    ctx.span(tags::HTOH, now, end, || {
                        vec![("bytes", len.to_string()), ("fused", "true".to_string())]
                    });
                    end
                }
            }
            (BufLoc::Host, BufLoc::Device(d)) => self.issue_hd(
                ctx,
                d,
                HdDir::HtoD,
                recv.buf.far,
                (&sbuf.backing, sbuf.off),
                (&rbuf.backing, rbuf.off),
                len,
            ),
            (BufLoc::Device(d), BufLoc::Host) => self.issue_hd(
                ctx,
                d,
                HdDir::DtoH,
                send.buf.far,
                (&sbuf.backing, sbuf.off),
                (&rbuf.backing, rbuf.off),
                len,
            ),
            (BufLoc::Device(sd), BufLoc::Device(rd)) => {
                if sd == rd {
                    // Same device: an on-device copy at device-memory speed.
                    let spec = self.devices[sd].spec();
                    let end = now
                        + self.res.acc_copy_overhead(spec.kind)
                        + SimDur::for_transfer(len, spec.mem_bw);
                    copy_bytes();
                    ctx.metrics().add(tags::DTOD, len);
                    ctx.metrics().add("t_DtoD", end.since(now).0);
                    ctx.span(tags::DTOD, now, end, || {
                        vec![("bytes", len.to_string()), ("fused", "true".to_string())]
                    });
                    end
                } else if self.res.spec.nodes[self.node].p2p_dtod
                    && !self.dtod_faulted(ctx, sd, rd, len)
                {
                    // Direct peer copy over the shared PCIe root complex
                    // (GPUDirect / DirectGMA): no CPU, no system memory.
                    let kind = self.devices[sd].spec().kind;
                    let end = self.res.reserve_p2p_copy(
                        self.node,
                        sd,
                        rd,
                        len,
                        now + self.res.acc_copy_overhead(kind),
                    );
                    copy_bytes();
                    ctx.metrics().add(tags::DTOD, len);
                    ctx.metrics().add("t_DtoD", end.since(now).0);
                    ctx.span(tags::DTOD, now, end, || {
                        vec![("bytes", len.to_string()), ("p2p", "true".to_string())]
                    });
                    end
                } else {
                    // Fused staging: DtoH into a runtime bounce buffer, then
                    // HtoD — still two copies fewer than the baseline.
                    let scratch = Backing::new(len, self.phys_cap);
                    let mid = self.issue_hd(
                        ctx,
                        sd,
                        HdDir::DtoH,
                        send.buf.far,
                        (&sbuf.backing, sbuf.off),
                        (&scratch, 0),
                        len,
                    );
                    let kind = self.devices[rd].spec().kind;
                    let end = self.res.reserve_hd_copy(
                        self.node,
                        rd,
                        HdDir::HtoD,
                        recv.buf.far,
                        true,
                        len,
                        mid + self.res.acc_copy_overhead(kind),
                    );
                    Backing::copy(&scratch, 0, &rbuf.backing, rbuf.off, len);
                    ctx.metrics().add(tags::HTOD, len);
                    ctx.span(tags::HTOD, mid, end, || {
                        vec![("bytes", len.to_string()), ("staged", "true".to_string())]
                    });
                    end
                }
            }
        };

        let status = Status {
            src: send.src_rel,
            tag: send.tag,
            len,
        };
        // Fusion-pairing edges: the fused copy's completion instant depends
        // on *both* sides having submitted their command.
        for (side, cmd) in [("send", &send), ("recv", &recv)] {
            if let Some((by, at)) = &cmd.submitted_by {
                ctx.edge_to_self("fuse", by, *at, complete, || {
                    vec![
                        ("side", side.to_string()),
                        ("tag", send.tag.to_string()),
                        ("bytes", len.to_string()),
                        ("path", path.to_string()),
                    ]
                });
            }
        }
        send.done.complete_named(ctx, complete, None);
        recv.done.complete_named(ctx, complete, Some(status));
    }

    /// Roll the direct-DtoD fault site for a peer copy; on a fault the
    /// caller falls back to the staged (DtoH + HtoD) path, which does not
    /// depend on the faulted peer link.
    fn dtod_faulted(&self, ctx: &Ctx, sd: usize, rd: usize, len: u64) -> bool {
        let now = ctx.now();
        if !self.res.chaos.roll(ctx, FaultSite::DtodFault) {
            return false;
        }
        ctx.metrics().inc("chaos_dtod_fault");
        ctx.span("fault", now, now, || {
            vec![
                ("site", "dtod_fault".to_string()),
                ("pair", format!("d{sd}->d{rd}")),
                ("bytes", len.to_string()),
                ("fallback", "staged".to_string()),
            ]
        });
        true
    }

    /// Issue an asynchronous host<->device copy: reserve the PCIe link
    /// (behind the driver-call latency), move the bytes, return the
    /// completion instant. `src`/`dst` are in copy direction.
    #[allow(clippy::too_many_arguments)]
    fn issue_hd(
        &self,
        ctx: &Ctx,
        dev: usize,
        dir: HdDir,
        far: bool,
        src: (&std::sync::Arc<Backing>, u64),
        dst: (&std::sync::Arc<Backing>, u64),
        len: u64,
    ) -> SimTime {
        let kind = self.devices[dev].spec().kind;
        // Handler-issued copies stream through the runtime's pre-pinned
        // staging pool, so they run at full PCIe rate. The reservation is
        // chaos-aware: transient DMA faults re-reserve the link, and the
        // bytes land only at the final attempt's completion instant.
        let end = impacc_mem::reserve_hd_with_faults(
            ctx,
            &self.res,
            self.node,
            dev,
            dir,
            far,
            true,
            len,
            ctx.now() + self.res.acc_copy_overhead(kind),
        );
        Backing::copy(src.0, src.1, dst.0, dst.1, len);
        let (tag, tkey) = match dir {
            HdDir::HtoD => (tags::HTOD, "t_HtoD"),
            HdDir::DtoH => (tags::DTOH, "t_DtoH"),
        };
        ctx.metrics().add(tag, len);
        ctx.metrics().add(tkey, end.since(ctx.now()).0);
        ctx.span(tag, ctx.now(), end, || {
            vec![("bytes", len.to_string()), ("fused", "true".to_string())]
        });
        end
    }

    /// Check the five §3.8 requirements and, if all hold, re-aim the
    /// receiver's pointer at the sender's buffer instead of copying.
    ///
    /// 1. Same node — implied (both commands reached this handler).
    /// 2. Both buffers in host heap memory.
    /// 3. Both calls used the IMPACC directive with `readonly`.
    /// 4. The receiver has no other pointer to the receive buffer.
    /// 5. The receive fully overwrites the receive buffer.
    async fn try_alias(&self, ctx: &Ctx, send: &MsgCmd, recv: &MsgCmd) -> bool {
        let miss = |reason: &'static str| {
            ctx.event("alias", || {
                vec![
                    ("outcome", "miss".to_string()),
                    ("reason", reason.to_string()),
                ]
            });
            false
        };
        if !self.opts.aliasing {
            return false; // not attempted: no event
        }
        if !send.readonly || !recv.readonly {
            return miss("not_readonly"); // requirement 3
        }
        let (Some(sh), Some(rh)) = (&send.buf.heap, &recv.buf.heap) else {
            return miss("not_heap"); // requirement 2
        };
        if self.heap.pointer_count(rh.addr) != 1 {
            return miss("other_pointers"); // requirement 4
        }
        if rh.addr != rh.region_start
            || send.buf.msg.len != rh.region_len
            || send.buf.msg.len != recv.buf.msg.len
        {
            return miss("partial_overwrite"); // requirement 5
        }
        ctx.sleep(self.res.heap_op_overhead(), "handler").await;
        self.heap
            .alias(&self.space, rh.ptr, sh.addr)
            .expect("alias requirements were checked");
        true
    }

    async fn finish_pending(&self, ctx: &Ctx, p: PendingRecv) {
        let st = p.req.completion(ctx).await;
        let st = st.expect("pending receives carry a status");
        let BufLoc::Device(d) = p.dev_buf.msg.loc else {
            unreachable!("pending internode commands target device memory");
        };
        let end = self.issue_hd(
            ctx,
            d,
            HdDir::HtoD,
            p.dev_buf.far,
            (&p.staging, 0),
            (&p.dev_buf.msg.backing, p.dev_buf.msg.off),
            st.len,
        );
        p.done.complete_named(ctx, end, Some(st));
    }
}
