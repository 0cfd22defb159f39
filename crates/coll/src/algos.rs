//! Flat-transport registry entries: the classic collective schedules,
//! written generically over [`PointToPoint`].
//!
//! Every function here consumes exactly one internal collective tag per
//! call (binomial composition delegates to trait bodies that take their
//! own), and all members of a communicator resolve the same entry for the
//! same call, so the `(comm, tag)` operation keys line up across ranks.
//!
//! Reductions fold f64 vectors. Fold orders differ between entries (ring
//! folds in rotated rank order, recursive doubling pairs by distance), so
//! results are bit-identical to the flat reference exactly when the
//! payload arithmetic is exact — integer-valued sums, Max/Min, power-of-
//! two products. The equivalence suite pins that contract.

use impacc_mem::Backing;
use impacc_mpi::{deliver_fold, fold_buffer, Comm, MsgBuf, PointToPoint, ReduceOp};
use impacc_vtime::Ctx;

/// Copy `src`'s bytes into `dst` (same length) without charging time:
/// the local half of a degenerate (single-rank) collective.
pub(crate) fn copy_local(src: &MsgBuf, dst: &MsgBuf) {
    Backing::copy(&src.backing, src.off, &dst.backing, dst.off, src.len);
}

/// Binomial allreduce: the reduce+bcast composition, dispatched as its own
/// registry entry.
pub(crate) fn binomial_allreduce<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    sendbuf: &MsgBuf,
    recvbuf: &MsgBuf,
    op: ReduceOp,
    comm: &Comm,
) {
    t.reduce(ctx, sendbuf, Some(recvbuf), op, 0, comm);
    t.flat_bcast(ctx, recvbuf, 0, comm);
}

/// Chunk length (in elems) of ring chunk `i` when `e` elems split over
/// `n` ranks: the first `e % n` chunks get one extra.
fn chunk_cnt(e: usize, n: u32, i: u32) -> usize {
    e / n as usize + usize::from((i as usize) < e % n as usize)
}

fn chunk_start(e: usize, n: u32, i: u32) -> usize {
    i as usize * (e / n as usize) + (i as usize).min(e % n as usize)
}

/// Ring allreduce: chunked reduce-scatter ring (n−1 steps) followed by an
/// allgather ring (n−1 steps). Bandwidth-optimal: each rank moves
/// 2·(n−1)/n of the payload regardless of n.
pub(crate) fn ring_allreduce<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    sendbuf: &MsgBuf,
    recvbuf: &MsgBuf,
    op: ReduceOp,
    comm: &Comm,
) {
    let n = comm.size();
    if n <= 1 {
        return deliver_fold(sendbuf, recvbuf);
    }
    let r = t.comm_rank(comm);
    let tag = t.coll_seq().next_tag(comm);
    let acc = fold_buffer(t, sendbuf, Some(recvbuf));
    let e = (acc.len / 8) as usize;
    let chunk = |i: u32| {
        acc.slice(
            chunk_start(e, n, i) as u64 * 8,
            chunk_cnt(e, n, i) as u64 * 8,
        )
    };
    let next = (r + 1) % n;
    let prev = (r + n - 1) % n;
    // Reduce-scatter: after step s, rank r holds the running sum of
    // chunks (r−s)..r; after n−1 steps it owns chunk (r+1) mod n fully.
    // One receive buffer, sized for the largest chunk (the first).
    let rb = t.scratch(chunk_cnt(e, n, 0) as u64 * 8);
    for s in 0..n - 1 {
        let (out, inn) = (chunk((r + n - s) % n), chunk((r + n - s - 1) % n));
        let rb = rb.slice(0, inn.len);
        t.pt_sendrecv(ctx, &out, next, &rb, prev, tag, comm);
        op.fold(&inn, &rb);
    }
    // Allgather ring: circulate the completed chunks, received in place.
    for s in 0..n - 1 {
        let (out, inn) = (chunk((r + 1 + n - s) % n), chunk((r + n - s) % n));
        t.pt_sendrecv(ctx, &out, next, &inn, prev, tag, comm);
    }
    deliver_fold(&acc, recvbuf);
}

/// The non-power-of-two remainder fold shared by recursive doubling and
/// Rabenseifner (MPICH's scheme): the first `2·rem` ranks pair up, evens
/// fold into their odd neighbour and sit out; the survivors renumber into
/// a power-of-two group. `rb` is the call's receive scratch (at least
/// `acc.len` bytes). Returns `(pof2, rem, newrank)`; `newrank < 0` means
/// this rank sat out and must receive the final result.
#[allow(clippy::too_many_arguments)]
fn fold_remainder<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    acc: &MsgBuf,
    rb: &MsgBuf,
    op: ReduceOp,
    r: u32,
    n: u32,
    tag: i32,
    comm: &Comm,
) -> (u32, u32, i64) {
    let mut pof2 = 1u32;
    while pof2 * 2 <= n {
        pof2 *= 2;
    }
    let rem = n - pof2;
    let newrank = if r < 2 * rem {
        if r.is_multiple_of(2) {
            t.pt_send(ctx, acc, r + 1, tag, comm);
            -1
        } else {
            t.pt_recv(ctx, rb, Some(r - 1), Some(tag), comm);
            op.fold(acc, rb);
            (r / 2) as i64
        }
    } else {
        (r - rem) as i64
    };
    (pof2, rem, newrank)
}

/// The reverse of [`fold_remainder`]: deliver the final result to the
/// ranks that sat out.
fn unfold_remainder<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    acc: &MsgBuf,
    r: u32,
    rem: u32,
    tag: i32,
    comm: &Comm,
) {
    if r >= 2 * rem {
        return;
    }
    if r.is_multiple_of(2) {
        t.pt_recv(ctx, acc, Some(r + 1), Some(tag), comm);
    } else {
        t.pt_send(ctx, acc, r - 1, tag, comm);
    }
}

/// Translate a renumbered (power-of-two group) rank back to its
/// communicator-relative rank.
fn real_rank(newrank: u32, rem: u32) -> u32 {
    if newrank < rem {
        2 * newrank + 1
    } else {
        newrank + rem
    }
}

/// Recursive-doubling allreduce: ⌈log2 n⌉ full-payload exchanges —
/// latency-optimal for small messages.
pub(crate) fn rd_allreduce<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    sendbuf: &MsgBuf,
    recvbuf: &MsgBuf,
    op: ReduceOp,
    comm: &Comm,
) {
    let n = comm.size();
    if n <= 1 {
        return deliver_fold(sendbuf, recvbuf);
    }
    let r = t.comm_rank(comm);
    let tag = t.coll_seq().next_tag(comm);
    let acc = fold_buffer(t, sendbuf, Some(recvbuf));
    let rb = t.scratch(acc.len);
    let (pof2, rem, newrank) = fold_remainder(t, ctx, &acc, &rb, op, r, n, tag, comm);
    if newrank >= 0 {
        let nr = newrank as u32;
        let mut mask = 1u32;
        while mask < pof2 {
            let partner = real_rank(nr ^ mask, rem);
            t.pt_sendrecv(ctx, &acc, partner, &rb, partner, tag, comm);
            op.fold(&acc, &rb);
            mask <<= 1;
        }
    }
    unfold_remainder(t, ctx, &acc, r, rem, tag, comm);
    deliver_fold(&acc, recvbuf);
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter then a
/// recursive-doubling allgather that replays the split history in
/// reverse — bandwidth-optimal with log-latency, the classic mid-size
/// choice.
pub(crate) fn rabenseifner_allreduce<T: PointToPoint>(
    t: &T,
    ctx: &Ctx,
    sendbuf: &MsgBuf,
    recvbuf: &MsgBuf,
    op: ReduceOp,
    comm: &Comm,
) {
    let n = comm.size();
    if n <= 1 {
        return deliver_fold(sendbuf, recvbuf);
    }
    let r = t.comm_rank(comm);
    let tag = t.coll_seq().next_tag(comm);
    let acc = fold_buffer(t, sendbuf, Some(recvbuf));
    let rb = t.scratch(acc.len);
    let (pof2, rem, newrank) = fold_remainder(t, ctx, &acc, &rb, op, r, n, tag, comm);
    if newrank >= 0 {
        let nr = newrank as u32;
        let e = (acc.len / 8) as usize;
        let elems = |lo: usize, hi: usize| acc.slice(lo as u64 * 8, (hi - lo) as u64 * 8);
        let (mut lo, mut hi) = (0usize, e);
        // (mask, lo, mid, hi, kept_lower) per halving level.
        let mut hist: Vec<(u32, usize, usize, usize, bool)> = Vec::new();
        let mut mask = pof2 >> 1;
        while mask >= 1 {
            let partner = real_rank(nr ^ mask, rem);
            let mid = lo + (hi - lo) / 2;
            let keep_lower = nr & mask == 0;
            let (out, keep) = if keep_lower {
                (elems(mid, hi), elems(lo, mid))
            } else {
                (elems(lo, mid), elems(mid, hi))
            };
            let rb = rb.slice(0, keep.len);
            t.pt_sendrecv(ctx, &out, partner, &rb, partner, tag, comm);
            op.fold(&keep, &rb);
            hist.push((mask, lo, mid, hi, keep_lower));
            if keep_lower {
                hi = mid;
            } else {
                lo = mid;
            }
            mask >>= 1;
        }
        // Allgather: unwind the levels deepest-first; at each level the
        // kept half is complete, so partners swap halves of that level's
        // range, each received in place.
        for &(mask, flo, fmid, fhi, keep_lower) in hist.iter().rev() {
            let partner = real_rank(nr ^ mask, rem);
            let (out, inn) = if keep_lower {
                (elems(flo, fmid), elems(fmid, fhi))
            } else {
                (elems(fmid, fhi), elems(flo, fmid))
            };
            t.pt_sendrecv(ctx, &out, partner, &inn, partner, tag, comm);
        }
    }
    unfold_remainder(t, ctx, &acc, r, rem, tag, comm);
    deliver_fold(&acc, recvbuf);
}

/// Ring allgather: circulate blocks around the ring directly in
/// `recvbuf`, n−1 steps of one block each.
pub(crate) fn ring_allgather<T: PointToPoint>(
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
    Backing::copy(
        &sendbuf.backing,
        sendbuf.off,
        &recvbuf.backing,
        recvbuf.off + r as u64 * b,
        b,
    );
    if n <= 1 {
        return;
    }
    let tag = t.coll_seq().next_tag(comm);
    let next = (r + 1) % n;
    let prev = (r + n - 1) % n;
    for s in 0..n - 1 {
        let si = (r + n - s) % n;
        let ri = (r + n - s - 1) % n;
        let out = recvbuf.slice(si as u64 * b, b);
        let inn = recvbuf.slice(ri as u64 * b, b);
        t.pt_sendrecv(ctx, &out, next, &inn, prev, tag, comm);
    }
}

/// Bruck allgather: ⌈log2 n⌉ steps of doubling block counts in a rotated
/// working buffer, then one local rotation into rank order.
pub(crate) fn bruck_allgather<T: PointToPoint>(
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
    // work block i holds rank (r+i) mod n's contribution.
    let work = t.scratch(n as u64 * b);
    Backing::copy(&sendbuf.backing, sendbuf.off, &work.backing, 0, b);
    let mut pof2 = 1u32;
    while pof2 < n {
        let cnt = pof2.min(n - pof2);
        let dst = (r + n - pof2) % n;
        let src = (r + pof2) % n;
        let out = work.slice(0, cnt as u64 * b);
        let inn = work.slice(pof2 as u64 * b, cnt as u64 * b);
        t.pt_sendrecv(ctx, &out, dst, &inn, src, tag, comm);
        pof2 <<= 1;
    }
    for i in 0..n {
        let owner = (r + i) % n;
        Backing::copy(
            &work.backing,
            i as u64 * b,
            &recvbuf.backing,
            recvbuf.off + owner as u64 * b,
            b,
        );
    }
}
