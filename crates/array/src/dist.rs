//! The distributed array runtime: materialize tiles, lower inferred
//! schedules to the unified queues, and run kernels.
//!
//! A [`DistArray`] owns one node-heap buffer per task holding the local
//! tile (owned block plus ghost pads on the grid-mapped dimensions). The
//! exchange lowering covers the three runtime modes — IMPACC with the
//! unified activity queue (device sends enqueued on queue 1, completing at
//! issue), IMPACC without it (device-buffer isend/irecv + waitall), and the
//! baseline that stages every halo through the host. For a 1-d block row
//! decomposition that is the paper's Jacobi exchange (§4.2) message for
//! message: the Jacobi the stack runs is [`crate::scenarios::jacobi_task`].
//!
//! Per sweep the layer allocates nothing of its own beyond the residual
//! slot: the schedule is lowered to runs at build, global coordinates are
//! computed from each dimension's `Axis` rule rather than stored, and loop
//! indices live in fixed arrays of `MAX_RANK` (8) entries.

use std::sync::Arc;

use impacc_core::{BufView, HBuf, MpiOpts, Rank};
use impacc_machine::KernelCost;
use impacc_mpi::ReduceOp;
use parking_lot::Mutex;

use crate::decomp::{block_part, max_halo, CartGrid, Layout};
use crate::schedule::{infer_for, RegionBox, Schedule, TileGeom};

/// Tag for gather/redistribution traffic, outside the halo tag range.
pub const GATHER_TAG: i32 = 1900;

/// Most dimensions a distributed array may have. Sweeps keep per-dimension
/// loop indices and bounds in fixed arrays of this length.
const MAX_RANK: usize = 8;

/// True when real math over this view is meaningful: the physical backing
/// holds every logical byte (no truncation). Timing-only runs skip the
/// arithmetic but keep identical cost-model behaviour.
pub fn math_ok(view: &BufView) -> bool {
    view.backing.phys_len() == view.backing.logical_len()
}

/// Declaration of a distributed global array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArraySpec {
    /// Global extents, row-major (dimension 0 slowest).
    pub shape: Vec<usize>,
    /// Process grid; grid dimension `d` decomposes array dimension `d`.
    pub grid: CartGrid,
    /// Per-dimension index-to-rank layout.
    pub layout: Layout,
    /// Ghost depth on every grid-mapped dimension.
    pub halo: usize,
    /// Exchange edge/corner neighbours too (needed only by kernels with
    /// diagonal dependencies). Face-only schedules still keep edge ghosts
    /// deterministic — they just lag by an exchange.
    pub corners: bool,
}

impl ArraySpec {
    /// Block-decomposed spec with face-only exchange.
    pub fn block(shape: Vec<usize>, grid: CartGrid, halo: usize) -> ArraySpec {
        ArraySpec {
            shape,
            grid,
            layout: Layout::Block,
            halo,
            corners: false,
        }
    }

    /// Check the declaration against a launch of `size` ranks.
    pub fn validate(&self, size: usize) -> Result<(), String> {
        check_decomposition(&self.shape, &self.grid.dims, self.layout, self.halo, size)
    }
}

/// [`ArraySpec::validate`] over the parts of a spec (`dims` is the grid's
/// extents), so a caller checks a declaration without building its spec.
/// Allocates only for the error it returns.
pub fn check_decomposition(
    shape: &[usize],
    dims: &[usize],
    layout: Layout,
    halo: usize,
    size: usize,
) -> Result<(), String> {
    if shape.is_empty() {
        return Err("array shape must have at least one dimension".into());
    }
    if shape.len() > MAX_RANK {
        return Err(format!(
            "array rank {} exceeds the supported {MAX_RANK}",
            shape.len()
        ));
    }
    if shape.contains(&0) {
        return Err("array extents must be positive".into());
    }
    let g = dims.len();
    if g == 0 || g > shape.len() {
        return Err(format!("grid rank {g} must be in 1..={}", shape.len()));
    }
    let ranks: usize = dims.iter().product();
    if ranks != size {
        return Err(format!(
            "grid addresses {ranks} ranks but the launch has {size}"
        ));
    }
    match layout {
        Layout::Block => {
            let cap = max_halo(shape, dims);
            if halo > cap {
                return Err(format!(
                    "halo {halo} exceeds the smallest split block ({cap}); \
                     multi-hop halos are not supported"
                ));
            }
        }
        Layout::BlockCyclic { block } => {
            if block == 0 {
                return Err("cyclic block length must be positive".into());
            }
            if halo != 0 {
                return Err("halo exchange over a block-cyclic layout is not supported".into());
            }
        }
    }
    Ok(())
}

/// Shared local-residual slot written by an asynchronous stencil kernel.
#[derive(Clone, Default)]
pub struct StencilRes(Arc<Mutex<f64>>);

impl StencilRes {
    /// Read the residual. Only meaningful after the kernel's queue has
    /// been waited on (or for synchronous launches).
    pub fn get(&self) -> f64 {
        *self.0.lock()
    }
}

/// Residual probe: scenario tasks push each globally-reduced residual
/// (rank 0 only) so harnesses can compare convergence histories
/// bit-for-bit across implementations.
#[derive(Clone, Default)]
pub struct ResProbe(Arc<Mutex<Vec<f64>>>);

impl ResProbe {
    /// Fresh empty probe.
    pub fn new() -> ResProbe {
        ResProbe::default()
    }

    /// Append one reduced residual.
    pub fn push(&self, v: f64) {
        self.0.lock().push(v);
    }

    /// Snapshot the recorded sequence.
    pub fn take(&self) -> Vec<f64> {
        self.0.lock().clone()
    }
}

/// One row of a stencil sweep: a contiguous run of the innermost
/// dimension, handed to [`RowFn`] kernels. Cell `k` of the row is `k`
/// cells along the innermost dimension from the first.
pub struct Row<'a> {
    src: &'a [f64],
    /// Linear index of the first cell.
    start: usize,
    len: usize,
    /// Padded index of the first cell, per dim.
    idx: &'a [usize],
    padded: &'a [usize],
    strides: &'a [isize],
    /// Global coordinates of the first cell.
    g: &'a [isize],
}

impl<'a> Row<'a> {
    /// The one-cell row at linear index `lin` (padded index `idx`,
    /// global coordinates `g`): how the serial oracle calls a kernel
    /// without sharing the distributed row loop.
    pub(crate) fn cell(
        src: &'a [f64],
        lin: usize,
        idx: &'a [usize],
        padded: &'a [usize],
        strides: &'a [isize],
        g: &'a [isize],
    ) -> Row<'a> {
        Row {
            src,
            start: lin,
            len: 1,
            idx,
            padded,
            strides,
            g,
        }
    }

    /// Cells in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a row of no cells (a sweep never hands one out).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row's own values.
    pub fn center(&self) -> &'a [f64] {
        &self.src[self.start..self.start + self.len]
    }

    /// The values at relative offset `off` (per dimension) from every
    /// cell of the row. Offsets must stay within the halo on mapped dims
    /// and the margin on unmapped ones; one that reaches past the padded
    /// tile panics.
    pub fn at(&self, off: &[isize]) -> &'a [f64] {
        let last = self.padded.len() - 1;
        let mut start = self.start as isize;
        for (d, &o) in off.iter().enumerate() {
            let lo = self.idx[d] as isize + o;
            let hi = lo + if d == last { self.len as isize } else { 1 };
            assert!(
                lo >= 0 && hi <= self.padded[d] as isize,
                "row offset {off:?} reaches past the padded tile"
            );
            start += o * self.strides[d];
        }
        &self.src[start as usize..start as usize + self.len]
    }

    /// Global coordinate of the row's first cell along dimension `d`.
    pub fn global(&self, d: usize) -> isize {
        self.g[d]
    }
}

/// Stencil kernel: writes one row of new values (`out.len() ==
/// row.len()`) from the row's neighbourhood.
pub type RowFn = Arc<dyn Fn(&Row<'_>, &mut [f64]) + Send + Sync>;

/// `max |a[k] − b[k]|` over both slices, `0.0` when empty: the residual
/// of one row. NaN differences are skipped, as `f64::max` skips them, and
/// every candidate is non-negative, so eight independent select-max lanes
/// give the sequential fold's bits in any order.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let select = |m: f64, d: f64| if d > m { d } else { m };
    let mut lanes = [0.0f64; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for k in 0..8 {
            lanes[k] = select(lanes[k], (x[k] - y[k]).abs());
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        lanes[0] = select(lanes[0], (x - y).abs());
    }
    lanes.into_iter().fold(0.0, select)
}

/// How one tile dimension maps a padded index to its global coordinate.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Axis {
    /// A block or unsplit dimension: padded index `i` is global
    /// `origin + i` (`origin` = block offset − pad).
    Block { origin: isize },
    /// A split block-cyclic dimension (never padded): index `i` is the
    /// `i`-th global index grid coordinate `coord` owns.
    Cyclic {
        parts: usize,
        block: usize,
        coord: usize,
    },
}

impl Axis {
    fn global(self, i: usize) -> isize {
        match self {
            Axis::Block { origin } => origin + i as isize,
            Axis::Cyclic {
                parts,
                block,
                coord,
            } => (((i / block) * parts + coord) * block + i % block) as isize,
        }
    }
}

/// A tile's index frame: its padded extents, their row-major strides and
/// each dimension's index → global-coordinate rule. Coordinates are
/// computed, not stored: a frame is a few words per dimension however
/// large the tile.
pub(crate) struct Frame {
    padded: Vec<usize>,
    strides: Vec<isize>,
    axes: Vec<Axis>,
}

impl Frame {
    /// `rank`'s frame under `spec`, for a tile of `extents` cells per dim
    /// whose first `pad` are ghosts (`offsets` from [`tile_extents`]).
    fn new(
        spec: &ArraySpec,
        rank: usize,
        offsets: &[usize],
        extents: Vec<usize>,
        pad: &[usize],
    ) -> Frame {
        let axes = (0..extents.len())
            .map(|d| match spec.layout {
                Layout::BlockCyclic { block } if d < spec.grid.ndims() => Axis::Cyclic {
                    parts: spec.grid.dims[d],
                    block,
                    coord: spec.grid.coord(rank, d),
                },
                _ => Axis::Block {
                    origin: offsets[d] as isize - pad[d] as isize,
                },
            })
            .collect();
        Frame {
            strides: strides_of(&extents),
            padded: extents,
            axes,
        }
    }
}

/// Per-dimension indices on the stack; the first `nd` are used.
type Ix = [usize; MAX_RANK];

/// The rows of one box `lo..hi` of a tile (padded coordinates): each row
/// is the box's run along the innermost dimension. Kernels build it from
/// the frame they share with their array, so queueing one allocates
/// nothing per dimension.
pub(crate) struct Rows<'a> {
    frame: &'a Frame,
    lo: Ix,
    hi: Ix,
}

impl<'a> Rows<'a> {
    pub(crate) fn new(frame: &'a Frame, lo: &[usize], hi: &[usize]) -> Rows<'a> {
        let (mut l, mut h) = ([0; MAX_RANK], [0; MAX_RANK]);
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        Rows {
            frame,
            lo: l,
            hi: h,
        }
    }

    /// Cells per row.
    pub(crate) fn len(&self) -> usize {
        let last = self.frame.padded.len() - 1;
        self.hi[last].saturating_sub(self.lo[last])
    }

    /// Global coordinates of every row's cells along the innermost
    /// dimension.
    pub(crate) fn inner(&self) -> Vec<isize> {
        let last = self.frame.padded.len() - 1;
        let axis = self.frame.axes[last];
        (self.lo[last]..self.hi[last])
            .map(|i| axis.global(i))
            .collect()
    }

    /// Visit the rows in row-major order. `body` gets the padded index and
    /// global coordinates of each row's first cell, and its linear index.
    /// An empty box visits nothing.
    pub(crate) fn each(&self, mut body: impl FnMut(&[usize], &[isize], usize)) {
        let Frame { strides, axes, .. } = self.frame;
        let nd = strides.len();
        let (lo, hi) = (&self.lo, &self.hi);
        if (0..nd).any(|d| hi[d] <= lo[d]) {
            return;
        }
        let mut idx = *lo;
        let mut g = [0isize; MAX_RANK];
        loop {
            let mut lin = 0isize;
            for d in 0..nd {
                lin += idx[d] as isize * strides[d];
                g[d] = axes[d].global(idx[d]);
            }
            body(&idx[..nd], &g[..nd], lin as usize);
            let mut d = nd - 1;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < hi[d] {
                    break;
                }
                idx[d] = lo[d];
            }
        }
    }

    /// Rewrite every row of `vals` (laid out by the tile's padded
    /// extents) with `f(g, inner, row)`: `g` holds the global coordinates
    /// of the row's first cell, `inner` those of each of its cells along
    /// the innermost dimension.
    pub(crate) fn update(
        &self,
        vals: &mut [f64],
        mut f: impl FnMut(&[isize], &[isize], &mut [f64]),
    ) {
        let (len, inner) = (self.len(), self.inner());
        self.each(|_, g, lin| f(g, &inner, &mut vals[lin..lin + len]));
    }

    /// The one stencil row loop of [`DistArray::stencil`]: runs `f` over
    /// every row, reading `src` and writing `dst`, and returns
    /// `max |new − old|` over updated cells. Uncolored rows are written
    /// straight into `dst`. A colored row is computed whole into a scratch
    /// row and only its on-colour cells (global coordinate sum of parity
    /// `color`) are copied.
    pub(crate) fn sweep(
        &self,
        src: &[f64],
        dst: &mut [f64],
        color: Option<usize>,
        f: &RowFn,
    ) -> f64 {
        assert!(
            color.is_none_or(|c| c < 2),
            "a stencil color is a parity, 0 or 1"
        );
        let len = self.len();
        let mut scratch = vec![0.0f64; if color.is_some() { len } else { 0 }];
        let mut r = 0.0f64;
        self.each(|idx, g, lin| {
            let row = Row {
                src,
                start: lin,
                len,
                idx,
                padded: &self.frame.padded,
                strides: &self.frame.strides,
                g,
            };
            let old = row.center();
            let out = &mut dst[lin..lin + len];
            match color {
                None => {
                    f(&row, out);
                    r = r.max(max_abs_diff(out, old));
                }
                Some(c) => {
                    f(&row, &mut scratch);
                    let first = (c + g.iter().sum::<isize>().rem_euclid(2) as usize) % 2;
                    for k in (first..len).step_by(2) {
                        r = r.max((scratch[k] - old[k]).abs());
                        out[k] = scratch[k];
                    }
                }
            }
        });
        r
    }

    /// Copy the box's cells of `tile` (laid out by the tile's padded
    /// extents) to their global row-major places in `full`.
    pub(crate) fn scatter(&self, tile: &[f64], shape: &[usize], full: &mut [f64]) {
        let len = self.len();
        let last = shape.len() - 1;
        let gstrides = strides_of(shape);
        let inner = self.inner();
        self.each(|_, g, lin| {
            let base: isize = (0..last).map(|d| g[d] * gstrides[d]).sum();
            for (v, &gi) in tile[lin..lin + len].iter().zip(&inner) {
                full[(base + gi) as usize] = *v;
            }
        });
    }
}

/// Row-major strides of a padded box.
pub(crate) fn strides_of(padded: &[usize]) -> Vec<isize> {
    let nd = padded.len();
    let mut s = vec![1isize; nd];
    for d in (0..nd.saturating_sub(1)).rev() {
        s[d] = s[d + 1] * padded[d + 1] as isize;
    }
    s
}

/// Lift a per-cell `f(global_coords, old) -> new` to a row function that
/// rewrites one row in place from its first cell's coordinates and the
/// innermost coordinates of its cells.
pub(crate) fn per_cell(
    f: impl Fn(&[isize], f64) -> f64,
) -> impl FnMut(&[isize], &[isize], &mut [f64]) {
    let mut g = Vec::new();
    move |first, inner, vals| {
        g.clear();
        g.extend_from_slice(first);
        let last = g.len() - 1;
        for (v, &gi) in vals.iter_mut().zip(inner) {
            g[last] = gi;
            *v = f(&g, *v);
        }
    }
}

/// Fold `vals` into a running reduction, sequentially in order: the
/// first value seeds an empty one.
fn fold(acc: Option<f64>, op: ReduceOp, vals: &[f64]) -> Option<f64> {
    let (mut a, rest) = match (acc, vals.split_first()) {
        (Some(a), _) => (a, vals),
        (None, Some((&v, rest))) => (v, rest),
        (None, None) => return None,
    };
    match op {
        ReduceOp::Sum => rest.iter().for_each(|v| a += v),
        ReduceOp::Prod => rest.iter().for_each(|v| a *= v),
        ReduceOp::Max => rest.iter().for_each(|&v| a = a.max(v)),
        ReduceOp::Min => rest.iter().for_each(|&v| a = a.min(v)),
    }
    Some(a)
}

/// Per-sweep stencil configuration.
#[derive(Clone, Debug)]
pub struct StencilSpec {
    /// Per-dimension `(lo, hi)` *global* margins: cells within the margin
    /// of the global domain edge are never updated (in-domain boundary
    /// conditions). Use `(0, 0)` on dims whose boundary lives in the
    /// ghost pad.
    pub margin: Vec<(usize, usize)>,
    /// Flops charged per *owned* cell (the whole tile, margins included).
    pub flops_per_cell: f64,
    /// Residual to report when physical truncation disables real math.
    pub fallback: f64,
    /// Red-black coloring: update only cells whose global coordinate sum
    /// has this parity.
    pub color: Option<usize>,
}

/// What stays fixed of one rank's tile after [`DistArray::build`]: shared
/// by the array and every kernel it queues, so neither a sweep nor the
/// rank's future copies it.
struct Geometry {
    spec: ArraySpec,
    rank: usize,
    /// Owned cells per dim.
    counts: Vec<usize>,
    /// Global offset per dim (Block layout; 0 on cyclic/unsplit dims).
    offsets: Vec<usize>,
    /// Ghost pad per dim.
    pad: Vec<usize>,
    /// Padded extents, strides and coordinates.
    frame: Frame,
    /// The inferred halo schedule, its regions lowered to runs.
    sched: Schedule,
}

impl Geometry {
    fn is_empty(&self) -> bool {
        self.counts.contains(&0)
    }

    fn owned_cells(&self) -> usize {
        self.counts.iter().product()
    }

    fn total_padded(&self) -> usize {
        self.frame.padded.iter().product()
    }

    /// The rows of the owned region.
    fn owned_rows(&self) -> Rows<'_> {
        let mut hi = [0; MAX_RANK];
        for (d, (p, c)) in self.pad.iter().zip(&self.counts).enumerate() {
            hi[d] = p + c;
        }
        Rows::new(&self.frame, &self.pad, &hi[..self.pad.len()])
    }
}

/// A distributed N-d array of `f64`, one tile per task.
pub struct DistArray {
    geo: Arc<Geometry>,
    buf: HBuf,
}

/// Compute any rank's tile geometry under `spec`.
pub fn tile_geom(spec: &ArraySpec, rank: usize) -> TileGeom {
    geom_of_counts(spec, tile_extents(spec, rank).0)
}

/// The tile geometry of owned `counts` under `spec`: pads of the halo
/// depth on grid-mapped dimensions.
fn geom_of_counts(spec: &ArraySpec, counts: Vec<usize>) -> TileGeom {
    let g = spec.grid.ndims();
    let pad: Vec<usize> = (0..counts.len())
        .map(|d| if d < g { spec.halo } else { 0 })
        .collect();
    let padded = counts.iter().zip(&pad).map(|(c, p)| c + 2 * p).collect();
    TileGeom {
        counts,
        pad,
        padded,
    }
}

/// Bytes of the largest padded `f64` tile a [`Layout::Block`] decomposition
/// of `shape` over a grid of extents `dims` (a [`CartGrid`]'s `dims`) with
/// ghost depth `halo` gives any rank: the product of rank 0's
/// [`tile_geom`] `padded` extents (a block partition hands its larger
/// blocks to the first ranks), times 8. Computed on the stack and
/// saturating, so admission can refuse a mesh no host can hold before a
/// [`DistArray::build`] allocates anything.
pub fn tile_bytes(shape: &[usize], dims: &[usize], halo: usize) -> u128 {
    let extents = shape.iter().enumerate().map(|(d, &n)| match dims.get(d) {
        Some(&p) => n.div_ceil(p) as u128 + 2 * halo as u128,
        None => n as u128,
    });
    extents.fold(8, u128::saturating_mul)
}

/// Owned counts and (block) offsets of `rank`'s tile, per dim: O(1) per
/// dimension.
pub fn tile_extents(spec: &ArraySpec, rank: usize) -> (Vec<usize>, Vec<usize>) {
    (0..spec.shape.len()).map(|d| extent(spec, rank, d)).unzip()
}

/// True when `rank` owns no cells under `spec`, computed without
/// allocating: schedule inference asks it of every neighbour.
fn owns_nothing(spec: &ArraySpec, rank: usize) -> bool {
    (0..spec.shape.len()).any(|d| extent(spec, rank, d).0 == 0)
}

/// Owned cells and (block) offset of `rank`'s tile along dimension `d`.
fn extent(spec: &ArraySpec, rank: usize, d: usize) -> (usize, usize) {
    let n = spec.shape[d];
    if d >= spec.grid.ndims() {
        return (n, 0);
    }
    let (p, c) = (spec.grid.dims[d], spec.grid.coord(rank, d));
    match spec.layout {
        Layout::Block => block_part(n, p, c),
        Layout::BlockCyclic { block } => (cyclic_count(n, p, block, c), 0),
    }
}

fn cyclic_count(n: usize, p: usize, block: usize, coord: usize) -> usize {
    let mut total = 0;
    let mut k = 0;
    loop {
        let base = (k * p + coord) * block;
        if base >= n {
            return total;
        }
        total += block.min(n - base);
        k += 1;
    }
}

impl DistArray {
    /// Materialize this task's tile: validates the declaration, infers
    /// the halo schedule, and allocates the padded local buffer on the
    /// node heap. The tile starts on the host; call [`DistArray::fill`]
    /// then [`DistArray::to_device`].
    pub async fn build(tc: &Rank, spec: &ArraySpec) -> DistArray {
        spec.validate(tc.size() as usize)
            .unwrap_or_else(|e| panic!("invalid array spec: {e}"));
        let rank = tc.rank() as usize;
        let (counts, offsets) = tile_extents(spec, rank);
        let geom = geom_of_counts(spec, counts);
        let sched = match spec.layout {
            Layout::Block => infer_for(&spec.grid, rank, spec.halo, spec.corners, &geom, &|r| {
                owns_nothing(spec, r)
            }),
            Layout::BlockCyclic { .. } => Schedule::default(),
        };
        let TileGeom {
            counts,
            pad,
            padded,
        } = geom;
        let buf = tc.malloc_f64(padded.iter().product()).await;
        let frame = Frame::new(spec, rank, &offsets, padded, &pad);
        let geo = Geometry {
            spec: spec.clone(),
            rank,
            counts,
            offsets,
            pad,
            frame,
            sched,
        };
        DistArray {
            geo: Arc::new(geo),
            buf,
        }
    }

    /// Materialize another tile of this array's declaration on the same
    /// rank: a fresh buffer sharing this tile's geometry and halo
    /// schedule, which [`DistArray::build`] would infer again. The second
    /// buffer of a double-buffered sweep is built this way.
    pub async fn build_like(&self, tc: &Rank) -> DistArray {
        assert_eq!(self.geo.rank, tc.rank() as usize, "a tile is per rank");
        DistArray {
            geo: self.geo.clone(),
            buf: tc.malloc_f64(self.geo.total_padded()).await,
        }
    }

    /// The declaration this tile was built from.
    pub fn spec(&self) -> &ArraySpec {
        &self.geo.spec
    }

    /// Owned cells per dim.
    pub fn counts(&self) -> &[usize] {
        &self.geo.counts
    }

    /// Global block offsets per dim.
    pub fn offsets(&self) -> &[usize] {
        &self.geo.offsets
    }

    /// Padded local extents.
    pub fn padded(&self) -> &[usize] {
        &self.geo.frame.padded
    }

    /// The inferred halo schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.geo.sched
    }

    /// The backing buffer handle.
    pub fn buf(&self) -> &HBuf {
        &self.buf
    }

    /// True when this rank owns no cells.
    pub fn is_empty(&self) -> bool {
        self.geo.is_empty()
    }

    /// Number of owned cells.
    pub fn owned_cells(&self) -> usize {
        self.geo.owned_cells()
    }

    /// The owned region in padded coordinates.
    pub fn owned_region(&self) -> RegionBox {
        let geo = &self.geo;
        RegionBox {
            lo: geo.pad.clone(),
            hi: geo
                .pad
                .iter()
                .zip(&geo.counts)
                .map(|(p, c)| p + c)
                .collect(),
        }
    }

    /// Initialize every cell — ghosts included — from its global
    /// coordinates (ghost coordinates fall outside `0..shape`, which is
    /// where boundary conditions live). Host-side; no simulated cost.
    pub fn fill(&self, tc: &Rank, f: impl Fn(&[isize]) -> f64) {
        self.fill_rows(tc, per_cell(move |g, _| f(g)));
    }

    /// [`DistArray::fill`] a row at a time: `f(g, inner, out)` writes one
    /// row of the padded tile, where `g` holds the global coordinates of
    /// its first cell and `inner` those of each of its cells along the
    /// innermost dimension.
    pub fn fill_rows(&self, tc: &Rank, f: impl FnMut(&[isize], &[isize], &mut [f64])) {
        let hv = tc.host_view(&self.buf);
        if !math_ok(&hv) {
            return;
        }
        let total = self.geo.total_padded();
        if total == 0 {
            return;
        }
        let frame = &self.geo.frame;
        let rows = Rows::new(frame, &[0; MAX_RANK][..frame.padded.len()], &frame.padded);
        hv.with_f64s_mut(0, total, |vals| rows.update(vals, f));
    }

    /// `#pragma acc enter data copyin` for the tile.
    pub async fn to_device(&self, tc: &Rank) {
        tc.acc_copyin(&self.buf).await;
    }

    /// Exchange halos per the inferred schedule, lowered to the active
    /// runtime mode. Non-contiguous slabs go as one message per
    /// contiguous run (the simulated analogue of a derived datatype);
    /// run order is row-major on both endpoints, so per-tag FIFO
    /// matching pairs them correctly. A non-empty tile without neighbours
    /// still waits on its (empty) request set in the split and staged
    /// modes, as any MPI code that posts its exchange unconditionally does.
    pub async fn exchange(&self, tc: &Rank) {
        let pairs = &self.geo.sched.pairs;
        let opts = tc.options();
        let impacc = opts.is_impacc();
        let unified = impacc && opts.unified_queue;
        if self.is_empty() || (unified && pairs.is_empty()) {
            return;
        }
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let mut bytes: u64 = 0;
        let mut msgs: u64 = 0;
        if unified {
            // Unified activity queue: every send completes at issue, the
            // receives gate whatever kernel is enqueued next (Figure 4(c)).
            for p in pairs {
                for &(off, len) in &p.send.runs {
                    tc.mpi_send(
                        &self.buf,
                        off as u64 * 8,
                        len as u64 * 8,
                        p.send.peer,
                        p.send.tag,
                        MpiOpts::device().on_queue(1),
                    )
                    .await;
                    bytes += len as u64 * 8;
                    msgs += 1;
                }
            }
            for p in pairs {
                for &(off, len) in &p.recv.runs {
                    tc.mpi_recv(
                        &self.buf,
                        off as u64 * 8,
                        len as u64 * 8,
                        p.recv.peer,
                        p.recv.tag,
                        MpiOpts::device().on_queue(1),
                    )
                    .await;
                }
            }
        } else {
            // IMPACC without the unified queue sends from device buffers;
            // the baseline stages each slab through the host around host
            // MPI. Both pair isend/irecv per neighbour, then one waitall.
            let mpi = if impacc {
                MpiOpts::device()
            } else {
                MpiOpts::host()
            };
            if !impacc {
                for p in pairs {
                    for &(off, len) in &p.send.runs {
                        tc.acc_update_host(&self.buf, off as u64 * 8, len as u64 * 8, None)
                            .await;
                    }
                }
            }
            let mut reqs = Vec::new();
            for p in pairs {
                for &(off, len) in &p.send.runs {
                    reqs.push(
                        tc.mpi_isend(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.send.peer,
                            p.send.tag,
                            mpi,
                        )
                        .await,
                    );
                    bytes += len as u64 * 8;
                    msgs += 1;
                }
                for &(off, len) in &p.recv.runs {
                    reqs.push(
                        tc.mpi_irecv(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.recv.peer,
                            p.recv.tag,
                            mpi,
                        )
                        .await,
                    );
                }
            }
            tc.mpi_waitall(&reqs).await;
            if !impacc {
                for p in pairs {
                    for &(off, len) in &p.recv.runs {
                        tc.acc_update_device(&self.buf, off as u64 * 8, len as u64 * 8, None)
                            .await;
                    }
                }
            }
        }
        ctx.metrics().add("array_halo_bytes", bytes);
        let mode = match (unified, impacc) {
            (true, _) => "unified",
            (false, true) => "impacc",
            (false, false) => "baseline",
        };
        ctx.span("array.halo", t0, ctx.now(), || {
            vec![
                ("bytes", bytes.to_string()),
                ("msgs", msgs.to_string()),
                ("mode", mode.to_string()),
            ]
        });
    }

    /// Run one stencil sweep reading `self`, writing `out` (pass the same
    /// array for an in-place colored sweep), and set `res` to the local
    /// residual (`max |new − old|` over updated cells; 0 on an empty
    /// tile). Wait on the queue before reading it under the unified-queue
    /// mode. The caller owns the slot, so a sweep loop reuses one; two
    /// stencils share a slot only if each is waited on before the next
    /// is issued, since a queued kernel writes its slot when it runs.
    pub async fn stencil(
        &self,
        tc: &Rank,
        out: &DistArray,
        spec: &StencilSpec,
        f: RowFn,
        res: &StencilRes,
    ) {
        let geo = &self.geo;
        assert_eq!(
            geo.spec.layout,
            Layout::Block,
            "stencil requires a block layout"
        );
        assert_eq!(
            geo.frame.padded, out.geo.frame.padded,
            "stencil arrays must be congruent"
        );
        let nd = geo.frame.padded.len();
        assert_eq!(spec.margin.len(), nd);
        *res.0.lock() = 0.0;
        if geo.is_empty() {
            return;
        }
        // Loop bounds in padded coords: owned region clipped by global
        // margins.
        let (mut plo, mut phi) = ([0usize; MAX_RANK], [0usize; MAX_RANK]);
        for d in 0..nd {
            let (mlo, mhi) = spec.margin[d];
            let off = geo.offsets[d] as isize;
            let lo = (mlo as isize - off).max(0) as usize;
            let hi_global = geo.spec.shape[d] as isize - mhi as isize - off;
            let hi = hi_global.clamp(lo as isize, geo.counts[d] as isize) as usize;
            plo[d] = geo.pad[d] + lo;
            phi[d] = geo.pad[d] + hi.max(lo);
        }
        let cells: u64 = (0..nd).map(|d| (phi[d] - plo[d]) as u64).product();
        let uv = tc.dev_view(&self.buf);
        let vv = tc.dev_view(&out.buf);
        // Cost convention: flops over the whole owned tile, bytes over the
        // padded tile (read + write).
        let cost = KernelCost::new(
            spec.flops_per_cell * geo.owned_cells().max(1) as f64,
            geo.total_padded() as f64 * 16.0,
        );
        let (color, fallback) = (spec.color, spec.fallback);
        let (geo, res_out) = (geo.clone(), res.clone());
        let sweep = move || {
            let r = if !math_ok(&uv) {
                fallback
            } else if cells == 0 {
                0.0 // nothing to update
            } else {
                let rows = Rows::new(&geo.frame, &plo[..nd], &phi[..nd]);
                // A colored sweep passes `out == self`: the view primitive
                // then hands the kernel a pre-sweep copy as `src`.
                BufView::with_views_mut(&[&uv], &vv, |src, dst| rows.sweep(src[0], dst, color, &f))
            };
            *res_out.0.lock() = r;
        };
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let q = (tc.options().is_impacc() && tc.options().unified_queue).then_some(1);
        tc.acc_kernel(q, cost, sweep).await;
        ctx.metrics().add("array_cells", cells);
        ctx.span("array.kernel", t0, ctx.now(), || {
            vec![
                ("cells", cells.to_string()),
                ("kind", "stencil".to_string()),
            ]
        });
    }

    /// Apply `f(global_coords, old) -> new` to every owned cell on the
    /// device (works for any layout, cyclic included).
    pub async fn map(
        &self,
        tc: &Rank,
        flops_per_cell: f64,
        f: impl Fn(&[isize], f64) -> f64 + Send + Sync + 'static,
    ) {
        self.map_rows(tc, flops_per_cell, per_cell(f)).await;
    }

    /// [`DistArray::map`] a row at a time: `f(g, inner, vals)` rewrites
    /// one owned row in place, where `g` holds the global coordinates of
    /// its first cell and `inner` those of each of its cells along the
    /// innermost dimension.
    pub async fn map_rows(
        &self,
        tc: &Rank,
        flops_per_cell: f64,
        f: impl FnMut(&[isize], &[isize], &mut [f64]) + Send + 'static,
    ) {
        if self.is_empty() {
            return;
        }
        let uv = tc.dev_view(&self.buf);
        let total = self.geo.total_padded();
        let cells = self.owned_cells() as u64;
        let cost = KernelCost::new(
            flops_per_cell * self.owned_cells().max(1) as f64,
            total as f64 * 16.0,
        );
        let geo = self.geo.clone();
        let body = move || {
            if !math_ok(&uv) {
                return;
            }
            let rows = geo.owned_rows();
            uv.with_f64s_mut(0, total, |vals| rows.update(vals, f));
        };
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let q = (tc.options().is_impacc() && tc.options().unified_queue).then_some(1);
        tc.acc_kernel(q, cost, body).await;
        ctx.metrics().add("array_cells", cells);
        ctx.span("array.kernel", t0, ctx.now(), || {
            vec![("cells", cells.to_string()), ("kind", "map".to_string())]
        });
    }

    /// Fold `f(global_coords, value)` over every owned cell, then combine
    /// across ranks with `op`. Collective: every rank must call it.
    /// Returns 0.0 (deterministically) when truncation disables math.
    pub async fn reduce(
        &self,
        tc: &Rank,
        op: ReduceOp,
        flops_per_cell: f64,
        f: impl Fn(&[isize], f64) -> f64 + Send + Sync + 'static,
    ) -> f64 {
        let mut cell = per_cell(f);
        self.reduce_rows(tc, &[], op, flops_per_cell, move |g, inner, rows, out| {
            out.copy_from_slice(rows[0]);
            cell(g, inner, out);
        })
        .await
    }

    /// [`DistArray::reduce`] a row at a time over `self` and the congruent
    /// arrays `with`: `f(g, inner, rows, out)` writes one owned row's
    /// contributions into `out` from the matching row of each array
    /// (`rows[0]` is `self`'s, then `with`'s in order), where `g` holds
    /// the global coordinates of the row's first cell and `inner` those of
    /// each of its cells along the innermost dimension. Contributions fold
    /// sequentially in cell order, then combine across ranks with `op`.
    /// Collective: every rank must call it. Returns 0.0
    /// (deterministically) when truncation disables math.
    pub async fn reduce_rows(
        &self,
        tc: &Rank,
        with: &[&DistArray],
        op: ReduceOp,
        flops_per_cell: f64,
        mut f: impl FnMut(&[isize], &[isize], &[&[f64]], &mut [f64]) + Send + 'static,
    ) -> f64 {
        let local: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
        let unified = tc.options().is_impacc() && tc.options().unified_queue;
        if !self.is_empty() {
            let views: Vec<BufView> = std::iter::once(self)
                .chain(with.iter().copied())
                .map(|a| {
                    assert_eq!(
                        a.padded(),
                        self.padded(),
                        "reduced arrays must be congruent"
                    );
                    tc.dev_view(&a.buf)
                })
                .collect();
            let total = self.geo.total_padded();
            let cost = KernelCost::new(
                flops_per_cell * self.owned_cells().max(1) as f64,
                views.len() as f64 * total as f64 * 8.0,
            );
            let geo = self.geo.clone();
            let slot = local.clone();
            let body = move || {
                if views.iter().any(|v| !math_ok(v)) {
                    *slot.lock() = Some(0.0);
                    return;
                }
                let views: Vec<&BufView> = views.iter().collect();
                let rows = geo.owned_rows();
                let (len, inner) = (rows.len(), rows.inner());
                let mut out = vec![0.0f64; len];
                *slot.lock() = BufView::with_views(&views, |data| {
                    let mut acc = None;
                    let mut row: Vec<&[f64]> = Vec::with_capacity(data.len());
                    rows.each(|_, g, lin| {
                        row.clear();
                        row.extend(data.iter().map(|d| &d[lin..lin + len]));
                        f(g, &inner, &row, &mut out);
                        acc = fold(acc, op, &out);
                    });
                    acc
                });
            };
            let q = unified.then_some(1);
            tc.acc_kernel(q, cost, body).await;
        }
        if unified {
            tc.acc_wait(1).await;
        }
        let mine = (*local.lock()).unwrap_or(match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::MIN,
            ReduceOp::Min => f64::MAX,
            ReduceOp::Prod => 1.0,
        });
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let out = tc.mpi_allreduce_f64(&[mine], op).await;
        ctx.span("array.redist", t0, ctx.now(), || {
            vec![("kind", "reduce".to_string())]
        });
        out[0]
    }

    /// Gather the global array to `root`'s host memory and return a copy
    /// of it there, when real math is enabled. Collective. See
    /// [`DistArray::gather_with`].
    pub async fn gather(&self, tc: &Rank, root: u32) -> Option<Vec<f64>> {
        self.gather_with(tc, root, <[f64]>::to_vec).await
    }

    /// Gather the global array to `root`'s host memory and let `read` see
    /// it there, in place, row-major over the global shape. Collective.
    /// Returns `Some(read(field))` on the root when real math is enabled.
    /// Ranks whose owned block is globally contiguous are received
    /// straight into the assembled buffer (a 1-d row decomposition sends
    /// one message per rank); strided blocks stage through a packed
    /// buffer and scatter cell-by-cell.
    pub async fn gather_with<R>(
        &self,
        tc: &Rank,
        root: u32,
        read: impl FnOnce(&[f64]) -> R,
    ) -> Option<R> {
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let geo = &self.geo;
        let spec = &geo.spec;
        let owned = self.owned_region();
        if !self.is_empty() {
            for (off, len) in owned.runs(self.padded()) {
                tc.acc_update_host(&self.buf, off as u64 * 8, len as u64 * 8, None)
                    .await;
            }
        }
        let total_global: usize = spec.shape.iter().product();
        let out = if geo.rank as u32 == root {
            let full = tc.malloc_f64(total_global).await;
            let fv = tc.host_view(&full);
            let ok = math_ok(&fv);
            if !self.is_empty() && ok {
                let hv = tc.host_view(&self.buf);
                if math_ok(&hv) {
                    BufView::with_views_mut(&[&hv], &fv, |tile, full| {
                        geo.owned_rows().scatter(tile[0], &spec.shape, full)
                    });
                }
            }
            for r in 0..tc.size() as usize {
                if r as u32 == root {
                    continue;
                }
                let (counts, offsets) = tile_extents(spec, r);
                if counts.contains(&0) {
                    continue;
                }
                let geom = geom_of_counts(spec, counts.clone());
                let region = RegionBox {
                    hi: geom.pad.iter().zip(&counts).map(|(p, c)| p + c).collect(),
                    lo: geom.pad,
                };
                let (dst, staging) = match contiguous_global_offset(spec, &counts, &offsets) {
                    // The sender emits one message per owned run, in the
                    // tile's row-major order — which, for a globally
                    // contiguous block, is also global row-major order.
                    // Receive each run straight into place.
                    Some(goff) => (goff, None),
                    None => (0, Some(tc.malloc_f64(counts.iter().product()).await)),
                };
                let mut at = dst as u64;
                for (_off, len) in region.runs(&geom.padded) {
                    tc.mpi_recv(
                        staging.as_ref().unwrap_or(&full),
                        at * 8,
                        len as u64 * 8,
                        r as u32,
                        GATHER_TAG,
                        MpiOpts::host(),
                    )
                    .await;
                    at += len as u64;
                }
                if let Some(staging) = staging {
                    if ok {
                        let sv = tc.host_view(&staging);
                        if math_ok(&sv) {
                            scatter_packed(spec, r, &counts, &offsets, &sv, &fv);
                        }
                    }
                    tc.free(staging).await;
                }
            }
            ok.then(|| fv.with_f64s(0, total_global, read))
        } else {
            if !self.is_empty() {
                for (off, len) in owned.runs(self.padded()) {
                    tc.mpi_send(
                        &self.buf,
                        off as u64 * 8,
                        len as u64 * 8,
                        root,
                        GATHER_TAG,
                        MpiOpts::host(),
                    )
                    .await;
                }
            }
            None
        };
        ctx.span("array.redist", t0, ctx.now(), || {
            vec![
                ("kind", "gather".to_string()),
                ("cells", total_global.to_string()),
            ]
        });
        out
    }

    /// Swap the tiles of two congruent arrays (double buffering).
    pub fn swap(&mut self, other: &mut DistArray) {
        assert_eq!(
            self.padded(),
            other.padded(),
            "swapped arrays must be congruent"
        );
        std::mem::swap(&mut self.buf, &mut other.buf);
    }
}

/// If `counts/offsets` describe a globally-contiguous row-major block
/// (full extent on every dim but the first), its global element offset.
fn contiguous_global_offset(
    spec: &ArraySpec,
    counts: &[usize],
    offsets: &[usize],
) -> Option<usize> {
    let tail = &spec.shape[1..];
    (spec.layout == Layout::Block && counts[1..] == *tail)
        .then(|| offsets[0] * tail.iter().product::<usize>())
}

/// Scatter a packed (run-ordered) tile of rank `r` (owned `counts` at
/// block `offsets`) into the global host buffer.
fn scatter_packed(
    spec: &ArraySpec,
    r: usize,
    counts: &[usize],
    offsets: &[usize],
    sv: &BufView,
    fv: &BufView,
) {
    let zeros = vec![0; counts.len()];
    let frame = Frame::new(spec, r, offsets, counts.to_vec(), &zeros);
    let rows = Rows::new(&frame, &zeros, counts);
    BufView::with_views_mut(&[sv], fv, |packed, full| {
        rows.scatter(packed[0], &spec.shape, full)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::SerialField;

    #[test]
    fn max_abs_diff_is_the_sequential_max_fold_bit_for_bit() {
        let palette = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            3.25,
            1e300,
            -1e-300,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut pick = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            palette[(state >> 33) as usize % palette.len()]
        };
        for n in 0..=17 {
            for _ in 0..200 {
                let a: Vec<f64> = (0..n).map(|_| pick()).collect();
                let b: Vec<f64> = (0..n).map(|_| pick()).collect();
                let want = a
                    .iter()
                    .zip(&b)
                    .fold(0.0f64, |r, (x, y)| r.max((x - y).abs()));
                let got = max_abs_diff(&a, &b);
                assert_eq!(got.to_bits(), want.to_bits(), "{a:?} vs {b:?}");
            }
        }
    }

    /// Kernel over the interior of a 6×6 field padded one deep on dim 0,
    /// margin one on dim 1, through the oracle's one-cell rows.
    fn oracle(f: RowFn) {
        let init = |g: &[isize]| (g[0] * 6 + g[1]) as f64;
        SerialField::new(&[6, 6], 1, 1, &init).step(&[(0, 0), (1, 1)], None, &f);
    }

    /// The same sweep through the row loop's four-cell rows.
    fn row_loop(f: RowFn) {
        let frame = Frame {
            padded: vec![8, 6],
            strides: vec![6, 1],
            axes: vec![Axis::Block { origin: -1 }, Axis::Block { origin: 0 }],
        };
        let src: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let mut dst = src.clone();
        Rows::new(&frame, &[1, 1], &[7, 5]).sweep(&src, &mut dst, None, &f);
    }

    fn read(off: [isize; 2]) -> RowFn {
        Arc::new(move |r: &Row<'_>, out: &mut [f64]| out.copy_from_slice(r.at(&off)))
    }

    #[test]
    fn row_reads_within_the_halo() {
        oracle(read([-1, 0]));
        row_loop(read([-1, 0]));
        row_loop(read([0, 1]));
    }

    #[test]
    #[should_panic(expected = "reaches past the padded tile")]
    fn row_offset_past_the_halo_panics() {
        oracle(read([-2, 0]));
    }

    #[test]
    #[should_panic(expected = "reaches past the padded tile")]
    fn row_offset_past_the_margin_panics() {
        oracle(read([0, 2]));
    }

    #[test]
    #[should_panic(expected = "reaches past the padded tile")]
    fn row_offset_past_the_halo_panics_in_the_row_loop() {
        row_loop(read([-2, 0]));
    }

    #[test]
    #[should_panic(expected = "reaches past the padded tile")]
    fn row_offset_past_the_margin_panics_in_the_row_loop() {
        row_loop(read([0, 2]));
    }
}
