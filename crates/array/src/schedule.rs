//! Halo-exchange schedule inference.
//!
//! Given a tile geometry (per-dimension owned counts, pads and padded
//! extents) and the Cartesian grid it came from, this module enumerates
//! the exchange *directions* (face neighbours by default, edge/corner
//! neighbours with `corners`), assigns each direction a deterministic
//! tag, and compiles per-rank send/receive region boxes in local padded
//! coordinates, each lowered once to its contiguous runs. The runtime
//! (`dist`) issues one p2p message per run every exchange — the simulated
//! equivalent of an MPI derived datatype.
//!
//! Direction convention: a message with direction `δ` *travels* along
//! `δ` — rank `c` sends its interior slab on the `δ` side to the
//! neighbour at `c+δ`, which receives it into the ghost slab facing
//! back. Tags are `200 + i` with `i` the index of `δ` in lexicographic
//! enumeration (`-1 < 0 < +1`); a 1-d line therefore uses tag 200 for
//! up-travelling and 201 for down-travelling messages.

use crate::decomp::CartGrid;

/// Base tag for inferred halo messages.
pub const HALO_TAG_BASE: i32 = 200;

/// An axis-aligned box in local padded coordinates, half-open per dim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionBox {
    /// Inclusive lower corner.
    pub lo: Vec<usize>,
    /// Exclusive upper corner.
    pub hi: Vec<usize>,
}

impl RegionBox {
    /// Number of cells in the box.
    pub fn cells(&self) -> usize {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| h.saturating_sub(*l))
            .product()
    }

    /// True when `pt` lies inside the box.
    pub fn contains(&self, pt: &[usize]) -> bool {
        pt.iter()
            .enumerate()
            .all(|(d, &p)| self.lo[d] <= p && p < self.hi[d])
    }

    /// Decompose the box into maximal contiguous `(offset, len)` element
    /// runs under row-major `padded` extents. Trailing dimensions the box
    /// covers entirely are merged into each run; the remaining leading
    /// dimensions are looped row-major, so run order equals the row-major
    /// cell order of the box — both endpoints of an exchange enumerate
    /// their runs identically, which is what makes per-run message
    /// matching (FIFO per tag) line up.
    pub fn runs(&self, padded: &[usize]) -> Vec<(usize, usize)> {
        let nd = padded.len();
        assert_eq!(self.lo.len(), nd);
        if self.cells() == 0 {
            return Vec::new();
        }
        let stride = |d: usize| padded[d + 1..].iter().product::<usize>();
        // `k` = first dim of the merged tail: dims k..nd are either fully
        // covered or (for k-1 itself) form the run extent.
        let mut k = nd;
        while k > 0 && self.lo[k - 1] == 0 && self.hi[k - 1] == padded[k - 1] {
            k -= 1;
        }
        if k == 0 {
            return vec![(0, padded.iter().product())];
        }
        let run_dim = k - 1;
        let tail: usize = padded[k..].iter().product();
        let run_len = (self.hi[run_dim] - self.lo[run_dim]) * tail;
        // Loop dims 0..run_dim row-major.
        let mut idx: Vec<usize> = self.lo[..run_dim].to_vec();
        let mut out = Vec::new();
        loop {
            let off = self.lo[run_dim] * stride(run_dim)
                + idx
                    .iter()
                    .enumerate()
                    .map(|(d, &i)| i * stride(d))
                    .sum::<usize>();
            out.push((off, run_len));
            // Odometer increment over dims 0..run_dim.
            let mut d = run_dim;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.hi[d] {
                    break;
                }
                idx[d] = self.lo[d];
            }
        }
    }
}

/// One half of a neighbour exchange: a region to send from (or receive
/// into), the peer rank, and the message tag.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Travel direction of the message (length = array rank; zero on
    /// unsplit dims).
    pub dir: Vec<isize>,
    /// The peer rank.
    pub peer: u32,
    /// Message tag (`HALO_TAG_BASE + direction index`).
    pub tag: i32,
    /// Region in local padded coordinates.
    pub region: RegionBox,
    /// The region lowered once, at inference, to its contiguous
    /// `(offset, len)` element runs in the tile ([`RegionBox::runs`]).
    pub runs: Vec<(usize, usize)>,
}

/// A send/receive pair with one neighbour. `send` carries direction `δ`
/// (to the neighbour at `c+δ`); `recv` carries direction `−δ` (from that
/// same neighbour, into the ghost slab facing it). Both halves always
/// exist together — a neighbour that exists and is non-empty both sends
/// and receives.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Outgoing half.
    pub send: Entry,
    /// Incoming half.
    pub recv: Entry,
}

/// The full inferred schedule for one rank: neighbour pairs in direction
/// enumeration order.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Per-neighbour exchange pairs.
    pub pairs: Vec<Pair>,
}

/// Geometry of one rank's tile, in the shapes `dist` materializes.
#[derive(Clone, Debug)]
pub struct TileGeom {
    /// Owned cells per dim (any zero ⇒ the tile is empty).
    pub counts: Vec<usize>,
    /// Ghost pad per dim (halo on grid-mapped dims, 0 elsewhere).
    pub pad: Vec<usize>,
    /// Padded extents (`counts[d] + 2*pad[d]`).
    pub padded: Vec<usize>,
}

impl TileGeom {
    /// True when the tile owns no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.contains(&0)
    }
}

/// Enumerate exchange directions for `g` grid dims embedded in an
/// `nd`-dim array: vectors in `{-1,0,1}^g` (zero-extended to `nd`),
/// excluding zero, lexicographic with `-1 < 0 < 1`. Faces only unless
/// `corners`, which adds every edge/corner direction.
pub fn directions(nd: usize, g: usize, corners: bool) -> Vec<Vec<isize>> {
    assert!(g <= nd);
    let mut out = Vec::new();
    let total = 3usize.pow(g as u32);
    for code in 0..total {
        // Base-3 digit of `code` for grid dimension `d` (the last one
        // least significant); digit 1 is no step.
        let digit = |d: usize| (code / 3usize.pow((g - 1 - d) as u32)) % 3;
        let nonzero = (0..g).filter(|&d| digit(d) != 1).count();
        if nonzero == 0 || (!corners && nonzero != 1) {
            continue;
        }
        let mut v = vec![0isize; nd];
        for (d, x) in v.iter_mut().enumerate().take(g) {
            *x = digit(d) as isize - 1;
        }
        out.push(v);
    }
    out
}

/// Infer the halo schedule for `rank`.
///
/// `geom_of(r)` supplies any rank's tile geometry (the caller derives it
/// from the partition); `halo` is the exchange depth. Empty tiles get an
/// empty schedule, and exchanges with empty neighbours are skipped:
/// under a block partition an empty neighbour owns nothing between this
/// tile and the domain edge, so the facing ghost *is* the global
/// boundary and keeps its boundary-condition fill.
pub fn infer(
    grid: &CartGrid,
    rank: usize,
    halo: usize,
    corners: bool,
    geom_of: &dyn Fn(usize) -> TileGeom,
) -> Schedule {
    let is_empty = |r| geom_of(r).is_empty();
    infer_for(grid, rank, halo, corners, &geom_of(rank), &is_empty)
}

/// [`infer`] for a tile of geometry `mine`, asking of a neighbour only
/// whether it `is_empty`: what [`crate::DistArray::build`] calls, so
/// inferring a schedule builds no neighbour's geometry.
pub(crate) fn infer_for(
    grid: &CartGrid,
    rank: usize,
    halo: usize,
    corners: bool,
    mine: &TileGeom,
    is_empty: &dyn Fn(usize) -> bool,
) -> Schedule {
    if halo == 0 || mine.is_empty() {
        return Schedule::default();
    }
    let g = grid.ndims();
    let all = directions(mine.counts.len(), g, corners);
    // The directions are closed under negation and enumerated
    // lexicographically, so `−δ` sits at the mirror index of `δ`.
    let count = all.len();
    let mut pairs = Vec::new();
    for (i, dir) in all.into_iter().enumerate() {
        let Some(peer) = grid.step(rank, &dir[..g]) else {
            continue;
        };
        if is_empty(peer) {
            continue;
        }
        let send = slab(mine, &dir, halo, Side::Interior);
        let recv = slab(mine, &dir, halo, Side::Ghost);
        let neg = dir.iter().map(|x| -x).collect();
        pairs.push(Pair {
            send: Entry {
                dir,
                peer: peer as u32,
                tag: HALO_TAG_BASE + i as i32,
                runs: send.runs(&mine.padded),
                region: send,
            },
            recv: Entry {
                dir: neg,
                peer: peer as u32,
                tag: HALO_TAG_BASE + (count - 1 - i) as i32,
                runs: recv.runs(&mine.padded),
                region: recv,
            },
        });
    }
    Schedule { pairs }
}

enum Side {
    /// The owned slab adjacent to the `δ` face (what we send).
    Interior,
    /// The ghost slab beyond the `δ` face (what we receive from `c+δ`).
    Ghost,
}

/// Build the slab region for direction `dir` on tile `g`. On dims where
/// `dir` is zero the region spans the owned extent only — never the
/// pads — so receive regions of distinct directions are disjoint and
/// cover each ghost cell exactly once (the property test pins this).
fn slab(g: &TileGeom, dir: &[isize], halo: usize, side: Side) -> RegionBox {
    let nd = g.counts.len();
    let mut lo = vec![0usize; nd];
    let mut hi = vec![0usize; nd];
    for d in 0..nd {
        let p = g.pad[d];
        let c = g.counts[d];
        let h = halo.min(c); // build-time validation keeps halo ≤ c on split dims
        match (dir[d], &side) {
            (0, _) => {
                lo[d] = p;
                hi[d] = p + c;
            }
            (-1, Side::Interior) => {
                lo[d] = p;
                hi[d] = p + h;
            }
            (1, Side::Interior) => {
                lo[d] = p + c - h;
                hi[d] = p + c;
            }
            // Receiving a `δ`-travelling message from the neighbour at
            // `c+δ`: it lands in the ghost slab on the `δ` side.
            (-1, Side::Ghost) => {
                lo[d] = p - h;
                hi[d] = p;
            }
            (1, Side::Ghost) => {
                lo[d] = p + c;
                hi[d] = p + c + h;
            }
            _ => unreachable!("direction components are in -1..=1"),
        }
    }
    RegionBox { lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::BlockPartition;

    fn line_geom(n: usize, cols: usize, p: usize, halo: usize) -> impl Fn(usize) -> TileGeom {
        move |r: usize| {
            let part = BlockPartition::new(n, p);
            TileGeom {
                counts: vec![part.counts[r], cols],
                pad: vec![halo, 0],
                padded: vec![part.counts[r] + 2 * halo, cols],
            }
        }
    }

    #[test]
    fn every_direction_is_mirrored_by_its_negation() {
        let neg = |d: &Vec<isize>| d.iter().map(|x| -x).collect::<Vec<_>>();
        for (nd, g) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)] {
            for corners in [false, true] {
                let all = directions(nd, g, corners);
                let mirrored: Vec<_> = all.iter().rev().map(neg).collect();
                assert_eq!(mirrored, all, "nd {nd} g {g} corners {corners}");
            }
        }
    }

    #[test]
    fn line_tags_are_200_up_and_201_down() {
        let grid = CartGrid::line(3);
        let geom = line_geom(12, 8, 3, 1);
        let s = infer(&grid, 1, 1, false, &|r| geom(r));
        assert_eq!(s.pairs.len(), 2);
        // δ = -1 (towards rank 0): tag 200, travelling up.
        assert_eq!(s.pairs[0].send.tag, 200);
        assert_eq!(s.pairs[0].send.peer, 0);
        assert_eq!(s.pairs[0].recv.tag, 201); // receives down-travelling
        assert_eq!(s.pairs[0].recv.peer, 0);
        // δ = +1 (towards rank 2): tag 201, travelling down.
        assert_eq!(s.pairs[1].send.tag, 201);
        assert_eq!(s.pairs[1].send.peer, 2);
        assert_eq!(s.pairs[1].recv.tag, 200);

        // Rank 1 of 3 on n=12: 4 rows, pad 1 ⇒ padded 6 x 8.
        // Send up = first interior row; recv from up = ghost row 0.
        assert_eq!(s.pairs[0].send.region.runs(&[6, 8]), vec![(8, 8)]);
        assert_eq!(s.pairs[0].recv.region.runs(&[6, 8]), vec![(0, 8)]);
        // Send down = last interior row; recv from down = ghost row 5.
        assert_eq!(s.pairs[1].send.region.runs(&[6, 8]), vec![(4 * 8, 8)]);
        assert_eq!(s.pairs[1].recv.region.runs(&[6, 8]), vec![(5 * 8, 8)]);
    }

    #[test]
    fn edge_ranks_have_one_neighbor() {
        let grid = CartGrid::line(3);
        let geom = line_geom(12, 8, 3, 1);
        let s0 = infer(&grid, 0, 1, false, &|r| geom(r));
        assert_eq!(s0.pairs.len(), 1);
        assert_eq!(s0.pairs[0].send.tag, 201); // only δ=+1 exists
        let s2 = infer(&grid, 2, 1, false, &|r| geom(r));
        assert_eq!(s2.pairs.len(), 1);
        assert_eq!(s2.pairs[0].send.tag, 200);
    }

    #[test]
    fn empty_neighbors_are_boundaries() {
        // n=3 over 5 ranks: counts [1,1,1,0,0]. Rank 2's down neighbour
        // owns nothing ⇒ no exchange in that direction.
        let grid = CartGrid::line(5);
        let geom = line_geom(3, 4, 5, 1);
        let s = infer(&grid, 2, 1, false, &|r| geom(r));
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(s.pairs[0].send.peer, 1);
        // Empty ranks have empty schedules.
        assert!(infer(&grid, 3, 1, false, &|r| geom(r)).pairs.is_empty());
    }

    #[test]
    fn face_directions_enumerate_lexicographically() {
        let d = directions(3, 2, false);
        assert_eq!(
            d,
            vec![vec![-1, 0, 0], vec![0, -1, 0], vec![0, 1, 0], vec![1, 0, 0],]
        );
        assert_eq!(directions(2, 2, true).len(), 8);
        assert_eq!(directions(1, 1, false), vec![vec![-1], vec![1]]);
    }

    #[test]
    fn runs_merge_trailing_full_dims() {
        // 3-d padded [4, 6, 5]; region = rows 1..2 x cols 1..5 x full.
        let r = RegionBox {
            lo: vec![1, 1, 0],
            hi: vec![2, 5, 5],
        };
        let runs = r.runs(&[4, 6, 5]);
        // Cols 1..5 with dim 2 fully covered fold into one 20-elem run.
        assert_eq!(runs, vec![(30 + 5, 20)]);
        assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), r.cells());

        // A partial trailing dim forces one run per (row, col).
        let strided = RegionBox {
            lo: vec![1, 1, 1],
            hi: vec![3, 3, 2],
        };
        let runs = strided.runs(&[4, 6, 5]);
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0], (30 + 5 + 1, 1));
        assert_eq!(runs[3], (2 * 30 + 2 * 5 + 1, 1));
        assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), strided.cells());

        // Fully-covering region is a single run.
        let whole = RegionBox {
            lo: vec![0, 0, 0],
            hi: vec![4, 6, 5],
        };
        assert_eq!(whole.runs(&[4, 6, 5]), vec![(0, 120)]);
    }

    #[test]
    fn paired_regions_have_matching_runs() {
        // 2-d split 2x2 on a 7x6 array, halo 2: the dim-1 exchange slabs
        // are strided; both endpoints must produce equal run counts/lens.
        let grid = CartGrid::new(4, 2);
        let geom = |r: usize| {
            let p0 = BlockPartition::new(7, 2);
            let p1 = BlockPartition::new(6, 2);
            let counts = vec![p0.counts[grid.coord(r, 0)], p1.counts[grid.coord(r, 1)]];
            TileGeom {
                pad: vec![2, 2],
                padded: vec![counts[0] + 4, counts[1] + 4],
                counts,
            }
        };
        for r in 0..4 {
            let s = infer(&grid, r, 2, false, &|x| geom(x));
            for pair in &s.pairs {
                let peer = pair.send.peer as usize;
                let ps = infer(&grid, peer, 2, false, &|x| geom(x));
                // Find the peer's recv that matches our send (same tag).
                let back = ps
                    .pairs
                    .iter()
                    .find(|q| q.recv.peer as usize == r && q.recv.tag == pair.send.tag)
                    .expect("peer posts a matching recv");
                let a = pair.send.region.runs(&geom(r).padded);
                let b = back.recv.region.runs(&geom(peer).padded);
                assert_eq!(a.len(), b.len(), "run counts must match");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.1, y.1, "run lengths must match");
                }
            }
        }
    }
}
