//! Property-based tests over the core invariants.

use impacc::mem::{AddressSpace, Backing, MemSpace, NodeHeap};
use impacc::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Backing: the logical/physical split never changes observable prefixes.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_backing_agrees_on_stored_prefix(
        logical in 1u64..4096,
        cap in 0u64..4096,
        writes in prop::collection::vec((0u64..4096, prop::collection::vec(any::<u8>(), 1..64)), 0..16),
    ) {
        let full = Backing::new(logical, None);
        let trunc = Backing::new(logical, Some(cap));
        for (off, data) in &writes {
            let off = off % logical;
            let n = data.len().min((logical - off) as usize);
            full.write(off, &data[..n]);
            trunc.write(off, &data[..n]);
        }
        let stored = logical.min(cap) as usize;
        let mut a = vec![0u8; stored];
        let mut b = vec![0u8; stored];
        full.read(0, &mut a);
        trunc.read(0, &mut b);
        prop_assert_eq!(a, b, "stored prefixes must agree");
    }

    #[test]
    fn copy_respects_bounds_under_truncation(
        len in 1u64..2048,
        cap_src in 0u64..2048,
        cap_dst in 0u64..2048,
        n in 0u64..2048,
        s_off in 0u64..2048,
        d_off in 0u64..2048,
    ) {
        let src = Backing::new(len, Some(cap_src));
        let dst = Backing::new(len, Some(cap_dst));
        let s_off = s_off % len;
        let d_off = d_off % len;
        let n = n.min(len - s_off).min(len - d_off);
        // Never panics, regardless of how the caps fall.
        Backing::copy(&src, s_off, &dst, d_off, n);
    }
}

// ---------------------------------------------------------------------
// Heap table: a random malloc/alias/free program never leaks or double
// frees, and storage survives exactly as long as its refcount.
// ---------------------------------------------------------------------
#[derive(Clone, Debug)]
enum HeapOp {
    Malloc(u16),
    AliasInto { src: u8, dst: u8, off: u16 },
    Free(u8),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (1u16..512).prop_map(HeapOp::Malloc),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(src, dst, off)| HeapOp::AliasInto {
            src,
            dst,
            off
        }),
        any::<u8>().prop_map(HeapOp::Free),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_table_random_program_is_leak_free(ops in prop::collection::vec(heap_op(), 1..40)) {
        let space = AddressSpace::new(1 << 30, Some(0));
        let heap = NodeHeap::new();
        let mut live: Vec<impacc::mem::HeapPtr> = Vec::new();
        for op in ops {
            match op {
                HeapOp::Malloc(len) => {
                    live.push(heap.malloc(&space, len as u64).unwrap());
                }
                HeapOp::AliasInto { src, dst, off } => {
                    if live.len() < 2 {
                        continue;
                    }
                    let s = live[src as usize % live.len()];
                    let d = live[dst as usize % live.len()];
                    if s == d {
                        continue;
                    }
                    let s_addr = heap.deref(s).unwrap();
                    let entry = heap.entry_containing(s_addr).unwrap();
                    let off = off as u64 % entry.region.len.max(1);
                    heap.alias(&space, d, entry.region.addr.offset(off)).unwrap();
                }
                HeapOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let p = live.swap_remove(i as usize % live.len());
                    heap.free(&space, p).unwrap();
                }
            }
            // Invariant: every live pointer dereferences into a live entry.
            for p in &live {
                let addr = heap.deref(*p).unwrap();
                prop_assert!(heap.entry_containing(addr).is_some());
            }
        }
        // Free everything that's left: the space must end empty.
        for p in live {
            heap.free(&space, p).unwrap();
        }
        prop_assert_eq!(heap.entry_count(), 0);
        prop_assert_eq!(space.region_count(), 0);
    }
}

// ---------------------------------------------------------------------
// Aliasing transparency: a random producer/consumer exchange observes
// identical bytes with aliasing on and off (MPI semantics preserved).
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aliasing_is_transparent_to_the_program(
        elems in 1usize..64,
        off_elems in 0usize..64,
        seed in any::<u32>(),
    ) {
        let total = off_elems + elems;
        let observed = std::sync::Arc::new(parking_lot::Mutex::new(Vec::<Vec<f64>>::new()));
        for aliasing in [true, false] {
            let mut opts = RuntimeOptions::impacc();
            opts.aliasing = aliasing;
            let observed = observed.clone();
            Launch::new(impacc::machine::presets::test_cluster(1, 2), opts)
                .run_async(move |tc| {
                    let observed = observed.clone();
                    async move {
                        if tc.rank() == 0 {
                            let src = tc.malloc_f64(total).await;
                            let vals: Vec<f64> = (0..total)
                                .map(|i| (seed as f64) + i as f64)
                                .collect();
                            tc.host_view(&src).write_f64s(0, &vals);
                            tc.mpi_send(
                                &src,
                                (off_elems * 8) as u64,
                                (elems * 8) as u64,
                                1,
                                0,
                                MpiOpts::host().readonly(),
                            ).await;
                        } else {
                            let dst = tc.malloc_f64(elems).await;
                            tc.mpi_recv(&dst, 0, dst.len, 0, 0, MpiOpts::host().readonly()).await;
                            let got = tc.host_view(&dst).read_f64s(0, elems);
                            observed.lock().push(got);
                        }
                    }
                })
                .unwrap();
        }
        let obs = observed.lock();
        prop_assert_eq!(&obs[0], &obs[1], "aliasing must not change observable data");
        let expect: Vec<f64> = (0..elems).map(|i| seed as f64 + (off_elems + i) as f64).collect();
        prop_assert_eq!(&obs[0], &expect);
    }
}

// ---------------------------------------------------------------------
// Collectives agree with their serial definitions for arbitrary inputs.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_matches_serial_reduction(
        vals in prop::collection::vec(-1e6f64..1e6, 4..12),
        op_sel in 0usize..4,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod][op_sel];
        let tasks = 4;
        let per = vals.len() / tasks + usize::from(vals.len() % tasks != 0);
        // Pad so every rank contributes `per` values.
        let mut padded = vals.clone();
        let pad = match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        };
        padded.resize(per * tasks, pad);
        let expect = padded.chunks(per).fold(vec![pad; per], |mut acc, chunk| {
            op.combine(&mut acc, chunk);
            acc
        });
        let padded2 = padded.clone();
        let results = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let r2 = results.clone();
        Launch::new(impacc::machine::presets::test_cluster(2, 2), RuntimeOptions::impacc())
            .run_async(move |tc| {
                let padded2 = padded2.clone();
                let r2 = r2.clone();
                async move {
                    let r = tc.rank() as usize;
                    let mine = &padded2[r * per..(r + 1) * per];
                    let got = tc.mpi_allreduce_f64(mine, op).await;
                    r2.lock().push(got);
                }
            })
            .unwrap();
        for got in results.lock().iter() {
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() <= 1e-9 * e.abs().max(1.0), "{g} vs {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// FIFO non-overtaking holds for random message trains through both the
// handler path (IMPACC) and the staging path (baseline).
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn message_trains_never_overtake(
        count in 1usize..12,
        tag in 0i32..4,
        impacc_mode in any::<bool>(),
    ) {
        let opts = if impacc_mode {
            RuntimeOptions::impacc()
        } else {
            RuntimeOptions::baseline()
        };
        Launch::new(impacc::machine::presets::test_cluster(1, 2), opts)
            .run_async(move |tc| async move {
                let buf = tc.malloc_f64(1).await;
                if tc.rank() == 0 {
                    for i in 0..count {
                        tc.host_view(&buf).write_f64s(0, &[i as f64]);
                        tc.mpi_send(&buf, 0, 8, 1, tag, MpiOpts::host()).await;
                    }
                } else {
                    for i in 0..count {
                        tc.mpi_recv(&buf, 0, 8, 0, tag, MpiOpts::host()).await;
                        assert_eq!(tc.host_view(&buf).read_f64s(0, 1)[0], i as f64);
                    }
                }
            })
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// Address-space resolution is exact for random allocation patterns.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resolve_finds_exactly_the_owning_region(
        lens in prop::collection::vec(1u64..512, 1..24),
        probe_region in any::<u16>(),
        probe_off in any::<u16>(),
    ) {
        let space = AddressSpace::new(1 << 30, Some(0));
        let regions: Vec<_> = lens
            .iter()
            .map(|l| space.alloc(MemSpace::Host, *l).unwrap())
            .collect();
        let r = &regions[probe_region as usize % regions.len()];
        let off = probe_off as u64 % r.len;
        let (found, foff) = space.resolve(r.addr.offset(off)).unwrap();
        prop_assert_eq!(found.id, r.id);
        prop_assert_eq!(foff, off);
        // One past the end never resolves into this region.
        if let Some((other, _)) = space.resolve(r.addr.offset(r.len)) {
            prop_assert_ne!(other.id, r.id);
        }
    }
}
