//! Registry equivalence: every collective algorithm — the flat p2p
//! schedules, the dedicated trees/rings, and the two-level hierarchical
//! path — must deliver bit-identical results to the flat reference, on
//! random communicator splits, roots, message sizes and node shapes
//! (including the 1-rank-per-node and all-on-one-node degenerate cases).
//!
//! Payloads are chosen so that every reduction order is exact (integer
//! sums, order-independent Max/Min, power-of-two products); a divergence
//! is therefore a real schedule bug, never float noise.
//!
//! The second half holds the in-place fold to the accumulator it replaces:
//! `sendbuf == recvbuf` must match distinct buffers in value bits *and* in
//! every virtual-time observable, and buffers that cannot hold the fold
//! must keep taking the accumulator path. The harness endpoint draws its
//! scratch from a `ReducePool`, so in debug builds every collective here
//! runs on poisoned scratch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use impacc_coll::testutil::{buf_of, run_world_engine, zeros};
use impacc_coll::{CollAlgo, CollOpts};
use impacc_mem::Backing;
use impacc_mpi::{MsgBuf, PointToPoint, ReduceOp};
use proptest::prelude::*;

/// Node shapes under test; indices pick one per case. The first three are
/// the degenerate placements the hierarchical path must survive.
const SHAPES: &[&[usize]] = &[
    &[1],          // single rank
    &[5],          // all on one node
    &[1, 1, 1, 1], // one rank per node (no intra phase anywhere)
    &[3, 2],
    &[2, 2, 1],
    &[1, 3],
    &[2, 1, 2, 1],
    &[4, 4],
];

fn opts(algo: CollAlgo) -> CollOpts {
    CollOpts { algo: Some(algo) }
}

/// Exact payload for rank `r`: integers for Sum/Max/Min, powers of two
/// for Prod, so every fold order is bit-identical.
fn payload(op: ReduceOp, r: u32, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| match op {
            ReduceOp::Prod => {
                if (r as usize + i).is_multiple_of(2) {
                    1.0
                } else {
                    2.0
                }
            }
            _ => ((r as usize * 13 + i * 7) % 97) as f64 - 40.0,
        })
        .collect()
}

fn bits(b: &MsgBuf) -> Vec<u64> {
    b.read_f64s().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_algorithm_matches_the_flat_reference(
        shape_idx in 0usize..8,
        elems in 0usize..12,
        op_idx in 0usize..4,
        root_sel in 0u32..64,
        ncolors in 1i64..4,
        color_mul in 1i64..5,
    ) {
        let shape = SHAPES[shape_idx];
        let n: usize = shape.iter().sum();
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op_idx];
        let barriers = Arc::new(AtomicUsize::new(0));
        let barriers_in = barriers.clone();
        // Shared split parameters: every rank derives the identical
        // colors/keys vectors locally, like an application would.
        let colors: Vec<i64> = (0..n as i64).map(|r| (r * color_mul) % ncolors).collect();
        let keys: Vec<i64> = (0..n as i64).map(|r| (r * 7919) % n as i64).collect();

        run_world_engine(shape, None, move |ctx, ep, engine, world| {
            let barriers = barriers_in.clone();
            let suite = |comm: &impacc_mpi::Comm| {
                let me = ep.comm_rank(comm);
                let size = comm.size();
                let root = root_sel % size;
                // Payloads are keyed by *global* rank so sub-communicator
                // reductions mix distinct contributions.
                let mine = payload(op, comm.global_of(me), elems);

                // ---- allreduce ----
                let sb = buf_of(&mine);
                let flat = zeros(elems);
                ctx.block_on(engine.allreduce(&ep, ctx, &sb, &flat, op, comm, opts(CollAlgo::Flat)));
                for algo in CollAlgo::ALL {
                    let rb = zeros(elems);
                    ctx.block_on(engine.allreduce(&ep, ctx, &sb, &rb, op, comm, opts(algo)));
                    assert_eq!(
                        bits(&rb),
                        bits(&flat),
                        "allreduce {algo:?} diverged from flat (rank {me}, op {op:?})"
                    );
                }

                // ---- bcast ----
                let base = payload(op, comm.global_of(root), elems.max(1));
                let flat_b = if me == root { buf_of(&base) } else { zeros(base.len()) };
                ctx.block_on(engine.bcast(&ep, ctx, &flat_b, root, comm, opts(CollAlgo::Flat)));
                for algo in CollAlgo::ALL {
                    let b = if me == root { buf_of(&base) } else { zeros(base.len()) };
                    ctx.block_on(engine.bcast(&ep, ctx, &b, root, comm, opts(algo)));
                    assert_eq!(
                        bits(&b),
                        bits(&flat_b),
                        "bcast {algo:?} diverged from flat (rank {me}, root {root})"
                    );
                }

                // ---- allgather ----
                let block = payload(op, comm.global_of(me), elems.max(1));
                let sb = buf_of(&block);
                let flat_g = zeros(block.len() * size as usize);
                ctx.block_on(engine.allgather(&ep, ctx, &sb, &flat_g, comm, opts(CollAlgo::Flat)));
                for algo in CollAlgo::ALL {
                    let rb = zeros(block.len() * size as usize);
                    ctx.block_on(engine.allgather(&ep, ctx, &sb, &rb, comm, opts(algo)));
                    assert_eq!(
                        bits(&rb),
                        bits(&flat_g),
                        "allgather {algo:?} diverged from flat (rank {me})"
                    );
                }

                // ---- barrier ----
                for algo in CollAlgo::ALL {
                    ctx.block_on(engine.barrier(&ep, ctx, comm, opts(algo)));
                    barriers.fetch_add(1, Ordering::Relaxed);
                }
            };

            suite(&world);
            let my_rel = ep.comm_rank(&world);
            let sub = world.split(&colors, &keys, my_rel);
            suite(&sub);
        });

        // Every rank completed every barrier variant on both comms.
        prop_assert_eq!(
            barriers.load(Ordering::Relaxed),
            n * CollAlgo::ALL.len() * 2
        );
    }
}

/// What one world observed: every rank's result bits (in rank order) and
/// the run's virtual-time observables.
type Observed = (Vec<Vec<u64>>, String);

/// One world, one reduction per rank: `bufs(rank)` builds the rank's
/// `(sendbuf, recvbuf)` — pass one buffer twice for `MPI_IN_PLACE` —
/// `algo` picks the allreduce entry, `None` the rooted `reduce` (whose
/// result only rank 0 holds).
fn reduce_world(
    shape: &'static [usize],
    algo: Option<CollAlgo>,
    op: ReduceOp,
    bufs: impl Fn(u32) -> (MsgBuf, MsgBuf) + Send + Sync + 'static,
) -> Observed {
    let n: usize = shape.iter().sum();
    let results = Arc::new(std::sync::Mutex::new(vec![Vec::new(); n]));
    let out = results.clone();
    let report = run_world_engine(shape, None, move |ctx, ep, engine, world| {
        let me = ep.comm_rank(&world);
        let (sb, rb) = bufs(me);
        match algo {
            Some(algo) => {
                ctx.block_on(engine.allreduce(&ep, ctx, &sb, &rb, op, &world, opts(algo)))
            }
            None => ctx.block_on(ep.reduce(ctx, &sb, Some(&rb), op, 0, &world)),
        }
        if algo.is_some() || me == 0 {
            out.lock().unwrap()[me as usize] = bits(&rb);
        }
    });
    let ticks = format!(
        "{:?}/{}/{:?}",
        report.end_time, report.events, report.metrics
    );
    let bits = results.lock().unwrap().clone();
    (bits, ticks)
}

/// Every reduction entry: the allreduce registry (Bruck clamps to
/// recursive doubling) and, as `None`, the rooted binomial `reduce`.
fn reductions() -> impl Iterator<Item = Option<CollAlgo>> {
    CollAlgo::ALL.into_iter().map(Some).chain([None])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `sendbuf == recvbuf` on a plain host buffer folds where the data is;
    /// distinct buffers fold in scratch and copy out. Nothing observable
    /// may tell the two apart: not the values, not a tick, not a counter.
    #[test]
    fn in_place_equals_out_of_place_in_bits_and_ticks(
        shape_idx in 0usize..8,
        size_idx in 0usize..7,
        op_idx in 0usize..4,
    ) {
        // 0, 1, fewer than the ranks, primes no rank count divides, and
        // 64 KiB with and without a ragged tail.
        let elems = [0, 1, 3, 10, 131, 8192, 8197][size_idx];
        let shape = SHAPES[shape_idx];
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op_idx];
        for algo in reductions() {
            let in_place = reduce_world(shape, algo, op, move |r| {
                let buf = buf_of(&payload(op, r, elems));
                (buf.clone(), buf)
            });
            let out_of_place = reduce_world(shape, algo, op, move |r| {
                (buf_of(&payload(op, r, elems)), zeros(elems))
            });
            prop_assert_eq!(&in_place.0, &out_of_place.0, "{:?} {:?}: value bits", algo, op);
            prop_assert_eq!(&in_place.1, &out_of_place.1, "{:?} {:?}: ticks", algo, op);
        }
    }
}

/// Builds a buffer the fold must not run in, holding `vals`.
type Kind = fn(&[f64]) -> MsgBuf;

fn pinned(vals: &[f64]) -> MsgBuf {
    buf_of(vals).registered()
}

fn device(vals: &[f64]) -> MsgBuf {
    let b = buf_of(vals);
    MsgBuf::device(b.backing, 0, b.len, 0)
}

/// The second half of an allocation twice the size.
fn offset(vals: &[f64]) -> MsgBuf {
    let len = vals.len() as u64 * 8;
    let b = MsgBuf::host(Backing::new(2 * len, None), len, len);
    b.write_f64s(vals);
    b
}

/// Stores only the first half of what it logically holds.
fn capped(vals: &[f64]) -> MsgBuf {
    let len = vals.len() as u64 * 8;
    let b = MsgBuf::host(Backing::new(len, Some(len / 2)), 0, len);
    b.write_f64s(vals);
    b
}

/// Buffers that must not become the running fold — the wire would see a
/// registered or device buffer where it saw host scratch, a phys-capped
/// fold would drop what passes through it — take the accumulator path:
/// `sendbuf == recvbuf` is indistinguishable from two such buffers, and
/// the values are the flat reference's.
#[test]
fn buffers_that_cannot_hold_the_fold_use_the_accumulator() {
    const ELEMS: usize = 134;
    let op = ReduceOp::Sum;
    // `(kind, on every rank?)`. Only the last rank's buffer is capped, so
    // the other ranks' halves of the result have to pass through it whole.
    let kinds: [(&str, Kind, bool); 4] = [
        ("pinned", pinned, true),
        ("device", device, true),
        ("offset", offset, true),
        ("capped", capped, false),
    ];
    for shape in [SHAPES[3], SHAPES[7]] {
        let last = shape.iter().sum::<usize>() as u32 - 1;
        for (name, kind, everywhere) in kinds {
            let special = move |r: u32| everywhere || r == last;
            let of = move |r: u32, vals: &[f64]| {
                if special(r) {
                    kind(vals)
                } else {
                    buf_of(vals)
                }
            };
            // The oracle: the flat reference on plain buffers, fed and read
            // back through what a capped buffer stores.
            let stored = move |r: u32| {
                if name == "capped" && r == last {
                    ELEMS / 2
                } else {
                    ELEMS
                }
            };
            let (mut want, _) = reduce_world(shape, Some(CollAlgo::Flat), op, move |r| {
                let mut vals = payload(op, r, ELEMS);
                vals[stored(r)..].fill(0.0);
                (buf_of(&vals), zeros(ELEMS))
            });
            want[last as usize][stored(last)..].fill(0);

            for algo in reductions() {
                // A device buffer cannot receive off the wire without
                // GPUDirect, which rules out the entries that broadcast
                // into `recvbuf` itself.
                let keeps_recvbuf_off_the_wire = matches!(
                    algo,
                    Some(CollAlgo::Ring | CollAlgo::RecursiveDoubling | CollAlgo::Rabenseifner)
                );
                if name == "device" && !keeps_recvbuf_off_the_wire {
                    continue;
                }
                let one = reduce_world(shape, algo, op, move |r| {
                    let buf = of(r, &payload(op, r, ELEMS));
                    assert_eq!(buf.folds_in_place(&buf), !special(r), "{name}");
                    (buf.clone(), buf)
                });
                let two = reduce_world(shape, algo, op, move |r| {
                    (of(r, &payload(op, r, ELEMS)), of(r, &[0.0; ELEMS]))
                });
                assert_eq!(one.0, two.0, "{name} {algo:?}: value bits");
                assert_eq!(one.1, two.1, "{name} {algo:?}: ticks");
                match algo {
                    Some(_) => assert_eq!(one.0, want, "{name} {algo:?}: flat reference"),
                    None => assert_eq!(one.0[0], want[0], "{name} reduce: flat reference"),
                }
            }
        }
    }
}
