//! Schedule-inference properties, over random shapes, grids and halo
//! depths (corners on, so edge/corner ghosts are in scope too):
//!
//! 1. **Exact ghost coverage** — on every rank, the receive regions are
//!    pairwise disjoint and cover a boundary ghost cell exactly once iff
//!    the cell's global coordinates fall inside the domain. Ghosts that
//!    map outside the domain (physical boundaries) are never written.
//! 2. **Sends come from owned cells** — every send region lies inside
//!    the owned box, so no rank ever forwards another rank's ghosts.
//! 3. **Run congruence** — the two endpoints of each exchange decompose
//!    their regions into the same number of runs with the same lengths,
//!    which is what makes per-run FIFO message matching line up.

use impacc_array::{
    directions, infer, max_halo, tile_extents, tile_geom, ArraySpec, CartGrid, RegionBox,
};
use proptest::prelude::*;

/// Geometry of one rank plus its global placement.
fn geom_and_offsets(spec: &ArraySpec, rank: usize) -> (impacc_array::TileGeom, Vec<usize>) {
    let (_counts, offsets) = tile_extents(spec, rank);
    (tile_geom(spec, rank), offsets)
}

/// Global coordinate of local padded index `idx[d]` on a tile at
/// `offsets` with pads `pad`: may be negative or beyond the extent for
/// ghost cells on physical boundaries.
fn global(idx: &[usize], offsets: &[usize], pad: &[usize]) -> Vec<isize> {
    idx.iter()
        .zip(offsets)
        .zip(pad)
        .map(|((&i, &o), &p)| o as isize + i as isize - p as isize)
        .collect()
}

fn for_each_cell(padded: &[usize], mut f: impl FnMut(&[usize])) {
    if padded.contains(&0) {
        return;
    }
    let nd = padded.len();
    let mut idx = vec![0usize; nd];
    loop {
        f(&idx);
        let mut d = nd;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < padded[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ghosts_covered_exactly_once(
        nd in 1usize..4,
        e0 in 1usize..12,
        e1 in 1usize..12,
        e2 in 1usize..12,
        g0 in 1usize..5,
        g1 in 1usize..4,
        g2 in 1usize..3,
        raw_halo in 1usize..4,
    ) {
        let shape: Vec<usize> = [e0, e1, e2][..nd].to_vec();
        let gdims: Vec<usize> = [g0, g1, g2][..nd].to_vec();
        let grid = CartGrid { dims: gdims };
        let cap = max_halo(&shape, &grid.dims);
        let halo = raw_halo.min(cap.max(1)).max(1);
        let mut spec = ArraySpec::block(shape.clone(), grid.clone(), halo);
        spec.corners = true;
        prop_assert!(spec.validate(grid.ranks()).is_ok());

        let dirs = directions(nd, grid.ndims(), true);
        for rank in 0..grid.ranks() {
            let (geom, offsets) = geom_and_offsets(&spec, rank);
            let sched = infer(&grid, rank, halo, true, &|r| tile_geom(&spec, r));
            if geom.is_empty() {
                prop_assert!(sched.pairs.is_empty());
                continue;
            }

            // Property 2: sends drawn from owned cells only.
            let owned = RegionBox {
                lo: geom.pad.clone(),
                hi: geom.pad.iter().zip(&geom.counts).map(|(p, c)| p + c).collect(),
            };
            for pair in &sched.pairs {
                let s = &pair.send.region;
                for d in 0..nd {
                    prop_assert!(owned.lo[d] <= s.lo[d] && s.hi[d] <= owned.hi[d],
                        "rank {rank} send region {:?} escapes owned box {:?}", s, owned);
                }
                // Property 3: congruent run decompositions per exchange.
                let (peer_geom, _) = geom_and_offsets(&spec, pair.send.peer as usize);
                // The peer's receive region for this message is its ghost
                // slab for the same travel direction; it has the peer's
                // pads but the same per-dim cell counts.
                let srt: Vec<usize> =
                    s.runs(&geom.padded).iter().map(|r| r.1).collect();
                let peer_sched =
                    infer(&grid, pair.send.peer as usize, halo, true, &|r| tile_geom(&spec, r));
                let back = peer_sched
                    .pairs
                    .iter()
                    .find(|p| p.recv.tag == pair.send.tag && p.recv.peer == rank as u32)
                    .expect("peer has the matching receive");
                let rrt: Vec<usize> =
                    back.recv.region.runs(&peer_geom.padded).iter().map(|r| r.1).collect();
                prop_assert_eq!(&srt, &rrt,
                    "run shapes differ for dir {:?} rank {}->{}", pair.send.dir, rank, pair.send.peer);
            }

            // Property 1: exact ghost coverage.
            for_each_cell(&geom.padded, |idx| {
                if owned.contains(idx) {
                    // Receives never land on owned cells.
                    for pair in &sched.pairs {
                        assert!(!pair.recv.region.contains(idx),
                            "rank {rank} recv region overlaps owned cell {idx:?}");
                    }
                    return;
                }
                let gcoord = global(idx, &offsets, &geom.pad);
                let inside = gcoord
                    .iter()
                    .zip(&shape)
                    .all(|(&gc, &n)| gc >= 0 && (gc as usize) < n);
                // A ghost inside the domain is owned by some neighbour —
                // unless every rank on the path there is empty, in which
                // case the block layout puts the cell outside any owned
                // tile and the exchange rightly skips it. Under a block
                // partition (counts non-increasing) an in-domain ghost at
                // halo ≤ min_nonzero always has a non-empty owner, so
                // coverage must be exactly 1.
                let hits = sched
                    .pairs
                    .iter()
                    .filter(|p| p.recv.region.contains(idx))
                    .count();
                if inside {
                    assert_eq!(hits, 1,
                        "rank {rank} ghost {idx:?} (global {gcoord:?}) covered {hits} times");
                } else {
                    assert_eq!(hits, 0,
                        "rank {rank} out-of-domain ghost {idx:?} written by an exchange");
                }
            });

            // Sanity: every pair's direction is one of the enumerated ones.
            for pair in &sched.pairs {
                assert!(dirs.contains(&pair.send.dir));
            }
        }
    }
}
