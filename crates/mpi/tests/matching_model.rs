//! Model-based test of the matching engine: a random message train with a
//! mix of exact-tag and wildcard receives must deliver exactly what a
//! reference implementation of MPI matching semantics predicts
//! (per-(source,tag) FIFO, wildcard takes the earliest arrival).

use std::sync::Arc;

use impacc_machine::{presets, ClusterResources};
use impacc_mem::Backing;
use impacc_mpi::{Comm, MpiTask, MsgBuf, SysMpi};
use impacc_vtime::Sim;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum RecvSel {
    Exact(i32),
    Any,
}

/// Build a feasible program: `tags` are sent in order; receives are
/// generated by consuming the remaining multiset (so every receive has a
/// guaranteed match under MPI semantics), recording which payload index
/// the reference model says each receive gets.
fn plan(tags: Vec<i32>, wildcard_at: Vec<bool>) -> (Vec<i32>, Vec<(RecvSel, usize)>) {
    let mut remaining: Vec<(usize, i32)> = tags.iter().copied().enumerate().collect();
    let mut recvs = Vec::new();
    for wild in wildcard_at.iter().take(tags.len()) {
        if remaining.is_empty() {
            break;
        }
        if *wild {
            let (idx, _) = remaining.remove(0);
            recvs.push((RecvSel::Any, idx));
        } else {
            // Pick the tag of the median remaining message, then consume
            // its earliest instance (what exact-tag matching does).
            let tag = remaining[remaining.len() / 2].1;
            let pos = remaining
                .iter()
                .position(|(_, t)| *t == tag)
                .expect("tag present");
            let (idx, _) = remaining.remove(pos);
            recvs.push((RecvSel::Exact(tag), idx));
        }
    }
    // Consume anything left over with wildcards.
    while let Some((idx, _)) = remaining.first().copied() {
        remaining.remove(0);
        recvs.push((RecvSel::Any, idx));
    }
    (tags, recvs)
}

fn run_program(tags: Vec<i32>, recvs: Vec<(RecvSel, usize)>) {
    let res = Arc::new(ClusterResources::new(Arc::new(presets::test_cluster(2, 1))));
    let mut sim = Sim::new();
    let sys = SysMpi::new(&mut sim, res, vec![0, 1]);
    let world = Comm::world(2);
    {
        let sys = sys.clone();
        let world = world.clone();
        let tags = tags.clone();
        sim.spawn_on(0, "sender", move |ctx| {
            let ep = MpiTask::new(sys, 0);
            for (i, tag) in tags.iter().enumerate() {
                let buf = MsgBuf::host(Backing::new(8, None), 0, 8);
                buf.write_f64s(&[i as f64]); // payload = send index
                ctx.block_on(ep.send(ctx, &buf, 1, *tag, &world));
            }
        });
    }
    sim.spawn_on(1, "receiver", move |ctx| {
        let ep = MpiTask::new(sys, 1);
        for (sel, expect_idx) in &recvs {
            let buf = MsgBuf::host(Backing::new(8, None), 0, 8);
            let (src, tag) = match sel {
                RecvSel::Exact(t) => (Some(0), Some(*t)),
                RecvSel::Any => (None, None),
            };
            let st = ctx.block_on(ep.recv(ctx, &buf, src, tag, &world));
            let got = buf.read_f64s()[0] as usize;
            assert_eq!(
                got, *expect_idx,
                "receive {sel:?} got payload {got}, reference says {expect_idx} (status {st:?})"
            );
        }
    });
    sim.run().expect("program is feasible by construction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matching_agrees_with_the_reference_model(
        tags in prop::collection::vec(0i32..4, 1..24),
        wilds in prop::collection::vec(any::<bool>(), 24),
    ) {
        let (tags, recvs) = plan(tags, wilds);
        run_program(tags, recvs);
    }

    #[test]
    fn all_wildcards_preserve_send_order(
        n in 1usize..20,
        tag_base in 0i32..100,
    ) {
        // With a single sender, wildcard receives must observe exact send
        // order regardless of tags (non-overtaking).
        let tags: Vec<i32> = (0..n as i32).map(|i| tag_base + (i % 3)).collect();
        let recvs: Vec<(RecvSel, usize)> = (0..n).map(|i| (RecvSel::Any, i)).collect();
        run_program(tags, recvs);
    }
}
