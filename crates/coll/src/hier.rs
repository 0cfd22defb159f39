//! The two-level hierarchical path: per-node shared-memory rendezvous
//! plus leaders-only internode schedules.
//!
//! One [`NodeColl`] per node (created by the launcher alongside the node
//! VAS) is shared by every task the node hosts. A collective elects one
//! leader per node — the lowest comm-relative rank, or the root's rank on
//! the root's node — and splits into:
//!
//! 1. **intra-node up**: members post their send buffers into a slot
//!    keyed `(comm id, collective tag)`; the leader reads them *in place*
//!    through the shared backings (the node VAS makes a peer's buffer a
//!    plain pointer, §3.4) and folds in ascending rank order;
//! 2. **internode**: only leaders exchange, over the ordinary p2p engine
//!    (so link-fault sites and NIC contention apply unchanged);
//! 3. **intra-node down**: the leader publishes the result into a shared
//!    backing reissued by the node's [`ReducePool`] and members copy out.
//!
//! Intra-node folds/copies charge host-memcpy time and roll the
//! `copy_fault` chaos site; they emit `coll_intra` spans so the profiler
//! can separate the phases (`free_intranode_coll`).
//!
//! The wait loops follow the engine's check-then-wait idiom: actors are
//! serialized, so re-checking the slot under the lock and only then
//! parking on the [`Notify`] is race-free.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use impacc_mem::{Backing, ReducePool};
use impacc_mpi::{deliver_fold, fold_buffer, Comm, MsgBuf, PointToPoint, ReduceOp};
use impacc_vtime::{Ctx, Notify};
use parking_lot::Mutex;

use crate::algos::copy_local;
use crate::CollEngine;

/// One in-flight collective's per-node state.
#[derive(Default)]
struct Slot {
    /// `(comm-relative rank, send buffer)` posted by non-leader members.
    contribs: Vec<(u32, MsgBuf)>,
    /// The leader's published result, once ready.
    result: Option<Arc<Backing>>,
    /// Members that copied the result out (the last one retires the slot).
    taken: usize,
}

/// Per-node rendezvous for hierarchical collectives.
pub struct NodeColl {
    slots: Mutex<HashMap<(u64, i32), Slot>>,
    notify: Notify,
    pool: ReducePool,
}

impl NodeColl {
    /// A fresh rendezvous (one per node, shared by its tasks).
    pub fn new() -> Arc<NodeColl> {
        Arc::new(NodeColl {
            slots: Mutex::new(HashMap::new()),
            notify: Notify::new(),
            pool: ReducePool::new(),
        })
    }

    /// Post a member contribution and wake any waiting leader.
    fn post(&self, ctx: &Ctx, key: (u64, i32), r: u32, buf: MsgBuf) {
        self.slots
            .lock()
            .entry(key)
            .or_default()
            .contribs
            .push((r, buf));
        self.notify.notify_all(ctx);
    }

    /// Leader side: park until `want` members have posted, then return
    /// their contributions sorted by rank.
    fn await_contribs(&self, ctx: &Ctx, key: (u64, i32), want: usize) -> Vec<(u32, MsgBuf)> {
        loop {
            {
                let slots = self.slots.lock();
                if slots.get(&key).map_or(0, |s| s.contribs.len()) == want {
                    break;
                }
            }
            self.notify.wait(ctx, "coll_intra");
        }
        let mut c = self
            .slots
            .lock()
            .get(&key)
            .map_or_else(Vec::new, |s| s.contribs.clone());
        c.sort_by_key(|(r, _)| *r);
        c
    }

    /// Leader side: publish `len` bytes of `src` as the slot result and
    /// release the members.
    fn publish(&self, ctx: &Ctx, key: (u64, i32), src: (&Arc<Backing>, u64), len: u64) {
        let out = self.pool.take(len);
        Backing::copy(src.0, src.1, &out, 0, len);
        self.slots.lock().entry(key).or_default().result = Some(out);
        self.notify.notify_all(ctx);
    }

    /// Member side: park until the leader publishes, then return the
    /// result backing.
    fn await_result(&self, ctx: &Ctx, key: (u64, i32)) -> Arc<Backing> {
        loop {
            {
                let slots = self.slots.lock();
                if let Some(res) = slots.get(&key).and_then(|s| s.result.clone()) {
                    break res;
                }
            }
            self.notify.wait(ctx, "coll_intra");
        }
    }

    /// Member side: mark the result consumed; the last of `takers`
    /// non-leader takers retires the slot. (The pool reissues the result
    /// backing once the slot and every taker have let go of it.)
    fn retire(&self, key: (u64, i32), takers: usize) {
        let mut slots = self.slots.lock();
        let s = slots.get_mut(&key).expect("retiring a live slot");
        s.taken += 1;
        if s.taken == takers {
            slots.remove(&key);
        }
    }
}

/// One node's member group for a collective, leader included.
struct Group {
    node: usize,
    leader: u32,
    members: Vec<u32>,
}

impl CollEngine {
    /// Partition `comm` into per-node groups, deterministically ordered by
    /// leader rank. The leader is the lowest member — except on the root's
    /// node (when `root` is given), where the root leads so rooted
    /// collectives need no extra intra-node hop.
    fn groups(&self, comm: &Comm, root: Option<u32>) -> Vec<Group> {
        let mut by_node: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for rel in 0..comm.size() {
            let node = self.node_of()[comm.global_of(rel) as usize];
            by_node.entry(node).or_default().push(rel);
        }
        let mut gs: Vec<Group> = by_node
            .into_iter()
            .map(|(node, members)| {
                let leader = match root {
                    Some(rt) if members.contains(&rt) => rt,
                    _ => members[0],
                };
                Group {
                    node,
                    leader,
                    members,
                }
            })
            .collect();
        gs.sort_by_key(|g| g.leader);
        gs
    }

    /// This rank's group (and sanity-check it lives on our node).
    fn my_group<'a>(&self, groups: &'a [Group], r: u32) -> &'a Group {
        let g = groups
            .iter()
            .find(|g| g.members.contains(&r))
            .expect("rank is a member of its communicator");
        debug_assert_eq!(g.node, self.node(), "rendezvous is per-node");
        g
    }

    /// Wrap an intra-node phase: charge memcpy time (with chaos), count
    /// bytes, and emit the `coll_intra` span.
    fn intra_phase(&self, ctx: &Ctx, op: &'static str, phase: &'static str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let t0 = ctx.now();
        self.charge_intra(ctx, bytes);
        ctx.metrics().add("coll_intra_bytes", bytes);
        ctx.span("coll_intra", t0, ctx.now(), || {
            vec![
                ("op", op.to_string()),
                ("phase", phase.to_string()),
                ("bytes", bytes.to_string()),
            ]
        });
    }

    /// Hierarchical allreduce: intra-node fold → binomial reduce+bcast
    /// over leaders → publish/copy-out. `lead` names a rank that leads its
    /// node in place of the node's lowest (the dispatcher passes `None`;
    /// the fold-order test does not).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hier_allreduce<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        op: ReduceOp,
        comm: &Comm,
        lead: Option<u32>,
    ) {
        let n = comm.size();
        if n <= 1 {
            return deliver_fold(sendbuf, recvbuf);
        }
        let r = t.comm_rank(comm);
        let tag = t.coll_seq().next_tag(comm);
        let key = (comm.id(), tag);
        let groups = self.groups(comm, lead);
        let g = self.my_group(&groups, r);
        let nc = self.rendezvous().clone();
        let bytes = sendbuf.len;
        if r != g.leader {
            nc.post(ctx, key, r, sendbuf.clone());
            let res = nc.await_result(ctx, key);
            Backing::copy(&res, 0, &recvbuf.backing, recvbuf.off, bytes);
            self.intra_phase(ctx, "allreduce", "copy_out", bytes);
            nc.retire(key, g.members.len() - 1);
            return;
        }
        // Leader: fold the node's contributions in ascending rank order
        // (canonical order — identical to the flat reference for exact
        // payloads regardless of where ranks live).
        let contribs = nc.await_contribs(ctx, key, g.members.len() - 1);
        let mut fold: Vec<(u32, &MsgBuf)> = contribs.iter().map(|(rr, b)| (*rr, b)).collect();
        fold.push((r, sendbuf));
        fold.sort_by_key(|(rr, _)| *rr);
        // The running fold starts from the lowest rank's contribution — in
        // place when that is the leader's own `recvbuf` — and the rest fold
        // in straight from the buffers the members posted.
        let acc = fold_buffer(t, fold[0].1, Some(recvbuf));
        for (_, b) in &fold[1..] {
            op.fold(&acc, b);
        }
        self.intra_phase(
            ctx,
            "allreduce",
            "fold",
            bytes * (g.members.len() as u64 - 1),
        );
        // Internode: binomial reduce to the first leader, binomial bcast
        // back over the leader overlay.
        let leaders: Vec<u32> = groups.iter().map(|g| g.leader).collect();
        let ln = leaders.len() as u32;
        let li = leaders.iter().position(|&l| l == r).unwrap() as u32;
        if ln > 1 {
            let tmp = t.scratch(bytes);
            let mut mask = 1u32;
            while mask < ln {
                if li & mask == 0 {
                    let child = li | mask;
                    if child < ln {
                        t.pt_recv(ctx, &tmp, Some(leaders[child as usize]), Some(tag), comm);
                        op.fold(&acc, &tmp);
                    }
                } else {
                    let parent = li & !mask;
                    t.pt_send(ctx, &acc, leaders[parent as usize], tag, comm);
                    ctx.metrics().add("coll_inter_bytes", bytes);
                    break;
                }
                mask <<= 1;
            }
        }
        deliver_fold(&acc, recvbuf);
        if ln > 1 {
            overlay_bcast(t, ctx, recvbuf, &leaders, li, 0, tag, comm);
        }
        // Publish for the members.
        if g.members.len() > 1 {
            self.intra_phase(ctx, "allreduce", "publish", bytes);
            nc.publish(ctx, key, (&recvbuf.backing, recvbuf.off), bytes);
        }
    }

    /// Hierarchical bcast: binomial over the leader overlay (root leads
    /// its node), then a single shared publish each member copies from —
    /// the §3.8 shape: one node-shared buffer instead of per-pair
    /// messages.
    pub(crate) fn hier_bcast<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        buf: &MsgBuf,
        root: u32,
        comm: &Comm,
    ) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let r = t.comm_rank(comm);
        let tag = t.coll_seq().next_tag(comm);
        let key = (comm.id(), tag);
        let groups = self.groups(comm, Some(root));
        let g = self.my_group(&groups, r);
        let nc = self.rendezvous().clone();
        let bytes = buf.len;
        if r != g.leader {
            let res = nc.await_result(ctx, key);
            Backing::copy(&res, 0, &buf.backing, buf.off, bytes);
            self.intra_phase(ctx, "bcast", "copy_out", bytes);
            nc.retire(key, g.members.len() - 1);
            return;
        }
        let leaders: Vec<u32> = groups.iter().map(|g| g.leader).collect();
        let ln = leaders.len() as u32;
        if ln > 1 {
            let li = leaders.iter().position(|&l| l == r).unwrap() as u32;
            let ri = leaders.iter().position(|&l| l == root).unwrap() as u32;
            overlay_bcast(t, ctx, buf, &leaders, li, ri, tag, comm);
        }
        if g.members.len() > 1 {
            self.intra_phase(ctx, "bcast", "publish", bytes);
            nc.publish(ctx, key, (&buf.backing, buf.off), bytes);
        }
    }

    /// Hierarchical allgather: intra-node gather at the leader, a ring of
    /// variable-size node blocks over the leader overlay, then
    /// publish/copy-out of the assembled vector.
    pub(crate) fn hier_allgather<T: PointToPoint>(
        &self,
        t: &T,
        ctx: &Ctx,
        sendbuf: &MsgBuf,
        recvbuf: &MsgBuf,
        comm: &Comm,
    ) {
        let n = comm.size();
        let b = sendbuf.len;
        assert!(recvbuf.len >= b * n as u64, "allgather buffer too small");
        let r = t.comm_rank(comm);
        if n <= 1 {
            return copy_local(sendbuf, &recvbuf.slice(r as u64 * b, b));
        }
        let tag = t.coll_seq().next_tag(comm);
        let key = (comm.id(), tag);
        let groups = self.groups(comm, None);
        let gi = groups
            .iter()
            .position(|g| g.members.contains(&r))
            .expect("rank is a member");
        let g = &groups[gi];
        debug_assert_eq!(g.node, self.node());
        let nc = self.rendezvous().clone();
        let total = b * n as u64;
        if r != g.leader {
            nc.post(ctx, key, r, sendbuf.clone());
            let res = nc.await_result(ctx, key);
            Backing::copy(&res, 0, &recvbuf.backing, recvbuf.off, total);
            self.intra_phase(ctx, "allgather", "copy_out", total);
            nc.retire(key, g.members.len() - 1);
            return;
        }
        // Leader: place every member's block (own included) at its rank
        // offset in recvbuf.
        let contribs = nc.await_contribs(ctx, key, g.members.len() - 1);
        for (mr, mb) in contribs
            .iter()
            .map(|(mr, mb)| (*mr, mb))
            .chain([(r, sendbuf)])
        {
            Backing::copy(
                &mb.backing,
                mb.off,
                &recvbuf.backing,
                recvbuf.off + mr as u64 * b,
                b,
            );
        }
        self.intra_phase(ctx, "allgather", "gather", b * (g.members.len() as u64 - 1));
        // Internode ring of packed node blocks (sizes derived from the
        // shared placement, so every leader knows every block size).
        let ln = groups.len();
        if ln > 1 {
            let li = gi;
            let next = groups[(li + 1) % ln].leader;
            let prev = groups[(li + ln - 1) % ln].leader;
            let pack = |j: usize| -> MsgBuf {
                let blk = t.scratch(groups[j].members.len() as u64 * b);
                for (k, &mr) in groups[j].members.iter().enumerate() {
                    Backing::copy(
                        &recvbuf.backing,
                        recvbuf.off + mr as u64 * b,
                        &blk.backing,
                        k as u64 * b,
                        b,
                    );
                }
                blk
            };
            let mut blocks: Vec<Option<MsgBuf>> = (0..ln).map(|_| None).collect();
            blocks[li] = Some(pack(li));
            for s in 0..ln - 1 {
                let sj = (li + ln - s) % ln;
                let rj = (li + ln - s - 1) % ln;
                let rblk = t.scratch(groups[rj].members.len() as u64 * b);
                t.pt_sendrecv(
                    ctx,
                    blocks[sj].as_ref().expect("block circulated in order"),
                    next,
                    &rblk,
                    prev,
                    tag,
                    comm,
                );
                ctx.metrics()
                    .add("coll_inter_bytes", blocks[sj].as_ref().unwrap().len);
                for (k, &mr) in groups[rj].members.iter().enumerate() {
                    Backing::copy(
                        &rblk.backing,
                        k as u64 * b,
                        &recvbuf.backing,
                        recvbuf.off + mr as u64 * b,
                        b,
                    );
                }
                blocks[rj] = Some(rblk);
            }
        }
        if g.members.len() > 1 {
            self.intra_phase(ctx, "allgather", "publish", total);
            nc.publish(ctx, key, (&recvbuf.backing, recvbuf.off), total);
        }
    }

    /// Hierarchical barrier: members check in at their leader, leaders run
    /// a dissemination barrier, then the leader releases the node.
    pub(crate) fn hier_barrier<T: PointToPoint>(&self, t: &T, ctx: &Ctx, comm: &Comm) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let r = t.comm_rank(comm);
        let tag = t.coll_seq().next_tag(comm);
        let key = (comm.id(), tag);
        let groups = self.groups(comm, None);
        let g = self.my_group(&groups, r);
        let nc = self.rendezvous().clone();
        if r != g.leader {
            nc.post(ctx, key, r, t.scratch(0));
            let _ = nc.await_result(ctx, key);
            nc.retire(key, g.members.len() - 1);
            return;
        }
        let _ = nc.await_contribs(ctx, key, g.members.len() - 1);
        let leaders: Vec<u32> = groups.iter().map(|g| g.leader).collect();
        let ln = leaders.len() as u32;
        if ln > 1 {
            let li = leaders.iter().position(|&l| l == r).unwrap() as u32;
            let token = t.scratch(0);
            let token_in = t.scratch(0);
            let mut k = 1u32;
            while k < ln {
                let dst = leaders[((li + k) % ln) as usize];
                let src = leaders[((li + ln - k) % ln) as usize];
                t.pt_sendrecv(ctx, &token, dst, &token_in, src, tag, comm);
                k <<= 1;
            }
        }
        if g.members.len() > 1 {
            nc.publish(ctx, key, (&t.scratch(0).backing, 0), 0);
        }
    }
}

/// Binomial bcast over a leader overlay: ranks `leaders[..]`, rooted at
/// overlay index `ri`; `li` is this leader's overlay index.
#[allow(clippy::too_many_arguments)]
fn overlay_bcast<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    buf: &MsgBuf,
    leaders: &[u32],
    li: u32,
    ri: u32,
    tag: i32,
    comm: &Comm,
) {
    let ln = leaders.len() as u32;
    let vr = (li + ln - ri) % ln;
    let mut mask = 1u32;
    while mask < ln {
        if vr & mask != 0 {
            let src = leaders[((vr - mask + ri) % ln) as usize];
            t.pt_recv(ctx, buf, Some(src), Some(tag), comm);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vr + mask < ln {
            let dst = leaders[((vr + mask + ri) % ln) as usize];
            t.pt_send(ctx, buf, dst, tag, comm);
            ctx.metrics().add("coll_inter_bytes", buf.len);
        }
        mask >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use impacc_mpi::{PointToPoint, ReduceOp};

    use crate::testutil::{buf_of, run_world_engine};

    #[test]
    fn a_leader_that_is_not_the_lowest_rank_still_folds_in_ascending_order() {
        // Inexact on purpose: (v0 + v1) + v2 = 0, (v2 + v0) + v1 = 1.
        const VALS: [f64; 5] = [1e16, 1.0, -1e16, 3.0, 4.0];
        run_world_engine(&[3, 2], None, |ctx, ep, engine, world| {
            let r = ep.comm_rank(&world);
            let buf = buf_of(&[VALS[r as usize]]);
            assert!(buf.folds_in_place(&buf));
            // Rank 2 leads ranks 0, 1, 2: its own buffer is not where the
            // fold starts, so it cannot be where the fold runs.
            engine.hier_allreduce(&ep, ctx, &buf, &buf, ReduceOp::Sum, &world, Some(2));
            assert_eq!(buf.read_f64s(), vec![7.0], "((v0 + v1) + v2) + (v3 + v4)");
        });
    }
}
