//! Decomposition math: block partitions, Cartesian rank grids, layouts.
//!
//! This module is the single home for the partition/neighbour arithmetic
//! that the hand-written apps used to duplicate. Everything here is pure
//! integer math — no simulator state — so it is shared by the runtime
//! lowering (`dist`), the schedule inference (`schedule`), the serve-side
//! job validation and the property tests.

/// Row-block partition of `n` items over `p` parts: part `i` gets
/// `counts[i]` items starting at `offsets[i]` (ragged when `p ∤ n`).
#[derive(Clone, Debug)]
pub struct BlockPartition {
    /// Items per part.
    pub counts: Vec<usize>,
    /// Start item per part.
    pub offsets: Vec<usize>,
}

impl BlockPartition {
    /// Split `n` items over `p` parts as evenly as possible. The extras
    /// go to the first `n mod p` parts, so counts are non-increasing —
    /// an empty part implies every later part is empty too, which the
    /// halo-schedule inference relies on (an empty neighbour *is* the
    /// global boundary).
    pub fn new(n: usize, p: usize) -> BlockPartition {
        assert!(p > 0);
        let (counts, offsets) = (0..p).map(|i| block_part(n, p, i)).unzip();
        BlockPartition { counts, offsets }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.counts.len()
    }

    /// Half-open global index range owned by part `i`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i] + self.counts[i]
    }

    /// Smallest non-zero part, or 0 when every part is empty. This bounds
    /// the halo depth a decomposition can support without multi-hop
    /// exchanges.
    pub fn min_nonzero(&self) -> usize {
        self.counts
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(0)
    }
}

/// Part `i` of `BlockPartition::new(n, p)` as `(count, offset)`, in O(1):
/// every part holds `n / p` items and the first `n mod p` one more.
pub(crate) fn block_part(n: usize, p: usize, i: usize) -> (usize, usize) {
    assert!(p > 0 && i < p);
    let (base, extra) = (n / p, n % p);
    (base + usize::from(i < extra), i * base + i.min(extra))
}

/// [`BlockPartition::min_nonzero`] of `BlockPartition::new(n, p)`, without
/// building the partition: every part holds `n / p` or one more, so the
/// smallest non-empty one holds `n / p`, or 1 when some parts are empty.
fn min_block(n: usize, p: usize) -> usize {
    match n / p {
        0 => usize::from(n > 0),
        base => base,
    }
}

/// How each decomposed dimension assigns global indices to ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One contiguous block per rank (the default, and the only layout
    /// the stencil driver accepts).
    Block,
    /// Round-robin blocks of `block` indices per rank. Supported by the
    /// decomposition math and `map`/`reduce`; halo exchange over a
    /// cyclic layout is rejected at build time.
    BlockCyclic {
        /// Indices per cyclic block.
        block: usize,
    },
}

/// A Cartesian process grid: `dims[d]` ranks along grid dimension `d`,
/// row-major rank numbering (dimension 0 varies slowest), non-periodic.
/// Grid dimension `d` decomposes array dimension `d`; trailing array
/// dimensions are unsplit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CartGrid {
    /// Ranks per grid dimension.
    pub dims: Vec<usize>,
}

impl CartGrid {
    /// Factor `ranks` over `nd` dimensions as squarely as possible
    /// (an `MPI_Dims_create` equivalent): prime factors are folded,
    /// largest first, onto the currently-smallest dimension, then the
    /// dimensions are sorted descending so earlier (slower-varying)
    /// array dimensions get the larger splits.
    pub fn new(ranks: usize, nd: usize) -> CartGrid {
        let mut dims = vec![1usize; nd];
        dims_create(ranks, &mut dims);
        CartGrid { dims }
    }

    /// A 1-d grid over `ranks` ranks — the decomposition every
    /// row-partitioned app (jacobi) uses.
    pub fn line(ranks: usize) -> CartGrid {
        assert!(ranks > 0);
        CartGrid { dims: vec![ranks] }
    }

    /// Number of grid dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total ranks the grid addresses.
    pub fn ranks(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinate of `rank` along grid dimension `d` (row-major:
    /// dimension 0 slowest).
    pub fn coord(&self, rank: usize, d: usize) -> usize {
        let below: usize = self.dims[d + 1..].iter().product();
        rank / below % self.dims[d]
    }

    /// The rank `delta` grid steps away from `rank`, or `None` when the
    /// shift leaves the (non-periodic) grid. Builds no coordinate vector.
    pub fn step(&self, rank: usize, delta: &[isize]) -> Option<usize> {
        assert!(rank < self.ranks());
        assert_eq!(delta.len(), self.ndims());
        let mut r = 0;
        for (d, (&dim, &step)) in self.dims.iter().zip(delta).enumerate() {
            let c = self.coord(rank, d) as isize + step;
            if c < 0 || c >= dim as isize {
                return None;
            }
            r = r * dim + c as usize;
        }
        Some(r)
    }
}

/// Largest halo depth a block decomposition of `shape` over a grid of
/// extents `dims` (a [`CartGrid`]'s `dims`) can exchange in one hop: the
/// smallest non-zero block length over every grid dimension that actually
/// splits (more than one rank). Unsplit dimensions do not constrain the
/// halo. Takes the extents, not the grid, so a caller can check a
/// decomposition without building one.
pub fn max_halo(shape: &[usize], dims: &[usize]) -> usize {
    let mut h = usize::MAX;
    for (&n, &dim) in shape.iter().zip(dims) {
        if dim > 1 {
            h = h.min(min_block(n, dim));
        }
    }
    h
}

/// [`CartGrid::new`]'s factoring of `ranks` into `dims`, one slot per grid
/// dimension, in place: the prime factors of `ranks`, largest first, each
/// multiplied onto the currently smallest dimension, then the dimensions
/// sorted descending.
pub fn dims_create(ranks: usize, dims: &mut [usize]) {
    assert!(ranks > 0 && !dims.is_empty());
    dims.fill(1);
    // Trial division finds the factors smallest first; a usize has fewer
    // prime factors than bits.
    let mut factors = [0usize; usize::BITS as usize];
    let (mut k, mut n, mut f) = (0, ranks, 2);
    while f * f <= n {
        while n.is_multiple_of(f) {
            factors[k] = f;
            k += 1;
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        factors[k] = n;
        k += 1;
    }
    for &f in factors[..k].iter().rev() {
        let i = (0..dims.len()).min_by_key(|&i| dims[i]).unwrap();
        dims[i] *= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exact_and_ordered() {
        let p = BlockPartition::new(10, 3);
        assert_eq!(p.counts, vec![4, 3, 3]);
        assert_eq!(p.offsets, vec![0, 4, 7]);
        assert_eq!(p.counts.iter().sum::<usize>(), 10);

        let p = BlockPartition::new(8, 4);
        assert_eq!(p.counts, vec![2; 4]);

        let p = BlockPartition::new(3, 5);
        assert_eq!(p.counts, vec![1, 1, 1, 0, 0]);
        assert_eq!(p.offsets, vec![0, 1, 2, 3, 3]);
        assert_eq!(p.min_nonzero(), 1);
        assert_eq!(p.range(1), 1..2);
    }

    #[test]
    fn min_block_is_the_partitions_smallest_nonzero_part() {
        for n in 0..40 {
            for p in 1..12 {
                assert_eq!(
                    min_block(n, p),
                    BlockPartition::new(n, p).min_nonzero(),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn grid_factors_squarely() {
        assert_eq!(CartGrid::new(4, 2).dims, vec![2, 2]);
        assert_eq!(CartGrid::new(6, 2).dims, vec![3, 2]);
        assert_eq!(CartGrid::new(8, 3).dims, vec![2, 2, 2]);
        assert_eq!(CartGrid::new(12, 2).dims, vec![4, 3]);
        assert_eq!(CartGrid::new(7, 2).dims, vec![7, 1]);
        assert_eq!(CartGrid::new(1, 3).dims, vec![1, 1, 1]);
        assert_eq!(CartGrid::line(5).dims, vec![5]);
    }

    #[test]
    fn coords_and_steps() {
        let g = CartGrid::new(6, 2); // 3 x 2
        assert_eq!((g.coord(0, 0), g.coord(0, 1)), (0, 0));
        assert_eq!((g.coord(3, 0), g.coord(3, 1)), (1, 1));
        assert_eq!(g.step(0, &[1, 0]), Some(2));
        assert_eq!(g.step(0, &[-1, 0]), None);
        assert_eq!(g.step(0, &[0, 1]), Some(1));
        assert_eq!(g.step(1, &[0, 1]), None);
        assert_eq!(g.step(2, &[1, 1]), Some(5));
        assert_eq!(g.step(4, &[0, 0]), Some(4));

        let line = CartGrid::line(4);
        assert_eq!(line.step(2, &[-1]), Some(1));
        assert_eq!(line.step(3, &[1]), None);
    }

    #[test]
    fn max_halo_tracks_smallest_split_block() {
        assert_eq!(max_halo(&[16, 16], &CartGrid::line(4).dims), 4);
        assert_eq!(max_halo(&[10, 10], &CartGrid::new(4, 2).dims), 5);
        // Unsplit dims don't constrain.
        assert_eq!(max_halo(&[4, 1000], &CartGrid::line(2).dims), 2);
        // No split dims at all: unconstrained.
        assert_eq!(max_halo(&[8], &CartGrid::line(1).dims), usize::MAX);
    }
}
