//! The distributed array runtime: materialize tiles, lower inferred
//! schedules to the unified queues, and run kernels.
//!
//! A [`DistArray`] owns one node-heap buffer per task holding the local
//! tile (owned block plus ghost pads on the grid-mapped dimensions). The
//! exchange lowering mirrors the three runtime modes the hand-written
//! apps implement — IMPACC with the unified activity queue (device sends
//! enqueued on queue 1, completing at issue), IMPACC without it
//! (device-buffer isend/irecv + waitall), and the baseline that stages
//! every halo through the host — and for a 1-d block row decomposition
//! it issues the *identical* operation sequence as the hand-written
//! jacobi, which the parity tests exploit: residuals, byte counters and
//! the virtual end time all match bit-for-bit.

use std::sync::Arc;

use impacc_core::{BufView, HBuf, MpiOpts, Rank};
use impacc_machine::KernelCost;
use impacc_mpi::ReduceOp;
use parking_lot::Mutex;

use crate::decomp::{max_halo, BlockPartition, CartGrid, Layout};
use crate::schedule::{infer, RegionBox, Schedule, TileGeom};

/// Tag for gather/redistribution traffic, outside the halo tag range.
pub const GATHER_TAG: i32 = 1900;

/// True when real math over this view is meaningful: the physical backing
/// holds every logical byte (no truncation). Timing-only runs skip the
/// arithmetic but keep identical cost-model behaviour.
pub fn math_ok(view: &BufView) -> bool {
    view.backing.phys_len() == view.backing.logical_len()
}

/// Declaration of a distributed global array.
#[derive(Clone, Debug)]
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

/// The rows of one box `lo..hi` of a padded tile (padded coordinates),
/// owned so a kernel can carry them: each row is the box's run along the
/// innermost dimension.
pub(crate) struct Rows {
    lo: Vec<usize>,
    hi: Vec<usize>,
    padded: Vec<usize>,
    /// Padded-index → global-coordinate map of the tile, per dim.
    gmap: Arc<Vec<Vec<isize>>>,
}

impl Rows {
    pub(crate) fn new(
        lo: Vec<usize>,
        hi: Vec<usize>,
        padded: &[usize],
        gmap: &Arc<Vec<Vec<isize>>>,
    ) -> Rows {
        Rows {
            lo,
            hi,
            padded: padded.to_vec(),
            gmap: gmap.clone(),
        }
    }

    /// Cells per row.
    pub(crate) fn len(&self) -> usize {
        let last = self.lo.len() - 1;
        self.hi[last].saturating_sub(self.lo[last])
    }

    /// Global coordinates of every row's cells along the innermost
    /// dimension.
    pub(crate) fn inner(&self) -> &[isize] {
        let last = self.lo.len() - 1;
        self.gmap[last]
            .get(self.lo[last]..self.hi[last])
            .unwrap_or(&[])
    }

    /// Visit the rows in row-major order. `body` gets the padded index and
    /// global coordinates of each row's first cell, and its linear index.
    /// An empty box visits nothing.
    pub(crate) fn each(&self, mut body: impl FnMut(&[usize], &[isize], usize)) {
        let (lo, hi) = (&self.lo, &self.hi);
        let nd = lo.len();
        if (0..nd).any(|d| hi[d] <= lo[d]) {
            return;
        }
        let strides = strides_of(&self.padded);
        let mut idx = lo.clone();
        let mut g = vec![0isize; nd];
        loop {
            let mut lin = 0isize;
            for d in 0..nd {
                lin += idx[d] as isize * strides[d];
                g[d] = self.gmap[d][idx[d]];
            }
            body(&idx, &g, lin as usize);
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
        self.each(|_, g, lin| f(g, inner, &mut vals[lin..lin + len]));
    }

    /// The one stencil row loop, shared by [`DistArray::stencil`] and the
    /// serial oracle: runs `f` over every row, reading `src` and writing
    /// `dst`, and returns `max |new − old|` over updated cells. Uncolored
    /// rows are written straight into `dst`. A colored row is computed
    /// whole into a scratch row and only its on-colour cells (global
    /// coordinate sum of parity `color`) are copied.
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
        let strides = strides_of(&self.padded);
        let mut scratch = vec![0.0f64; if color.is_some() { len } else { 0 }];
        let mut r = 0.0f64;
        self.each(|idx, g, lin| {
            let row = Row {
                src,
                start: lin,
                len,
                idx,
                padded: &self.padded,
                strides: &strides,
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
            for (v, &gi) in tile[lin..lin + len].iter().zip(inner) {
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
    /// Flops charged per *owned* cell (matching the hand-written apps,
    /// which charge the whole tile, margins included).
    pub flops_per_cell: f64,
    /// Residual to report when physical truncation disables real math.
    pub fallback: f64,
    /// Red-black coloring: update only cells whose global coordinate sum
    /// has this parity.
    pub color: Option<usize>,
}

/// A distributed N-d array of `f64`, one tile per task.
pub struct DistArray {
    spec: ArraySpec,
    rank: usize,
    /// Owned cells per dim.
    counts: Vec<usize>,
    /// Global offset per dim (Block layout; 0 on cyclic/unsplit dims).
    offsets: Vec<usize>,
    /// Ghost pad per dim.
    pad: Vec<usize>,
    /// Local padded extents.
    padded: Vec<usize>,
    /// Padded-index → global-coordinate map, per dim.
    gmap: Arc<Vec<Vec<isize>>>,
    sched: Schedule,
    buf: HBuf,
}

/// Compute any rank's tile geometry under `spec`.
pub fn tile_geom(spec: &ArraySpec, rank: usize) -> TileGeom {
    let (counts, _offsets) = tile_extents(spec, rank);
    let nd = spec.shape.len();
    let g = spec.grid.ndims();
    let mut pad = vec![0usize; nd];
    for p in pad.iter_mut().take(g) {
        *p = spec.halo;
    }
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

/// Owned counts and (block) offsets of `rank`'s tile, per dim.
pub fn tile_extents(spec: &ArraySpec, rank: usize) -> (Vec<usize>, Vec<usize>) {
    let nd = spec.shape.len();
    let g = spec.grid.ndims();
    let coords = spec.grid.coords(rank);
    let mut counts = Vec::with_capacity(nd);
    let mut offsets = Vec::with_capacity(nd);
    #[allow(clippy::needless_range_loop)] // four parallel arrays, indices read best
    for d in 0..nd {
        if d < g {
            match spec.layout {
                Layout::Block => {
                    let part = BlockPartition::new(spec.shape[d], spec.grid.dims[d]);
                    counts.push(part.counts[coords[d]]);
                    offsets.push(part.offsets[coords[d]]);
                }
                Layout::BlockCyclic { block } => {
                    counts.push(cyclic_count(
                        spec.shape[d],
                        spec.grid.dims[d],
                        block,
                        coords[d],
                    ));
                    offsets.push(0);
                }
            }
        } else {
            counts.push(spec.shape[d]);
            offsets.push(0);
        }
    }
    (counts, offsets)
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

/// The `l`-th owned global index of `coord` along a cyclic dim.
fn cyclic_global(p: usize, block: usize, coord: usize, l: usize) -> isize {
    (((l / block) * p + coord) * block + l % block) as isize
}

/// Index → global-coordinate map of `rank`'s tile, per dim, for a tile of
/// `extents` cells whose first `pad` cells per dim are ghosts (`offsets`
/// from [`tile_extents`]).
fn global_map(
    spec: &ArraySpec,
    rank: usize,
    offsets: &[usize],
    extents: &[usize],
    pad: &[usize],
) -> Vec<Vec<isize>> {
    let coords = spec.grid.coords(rank);
    (0..spec.shape.len())
        .map(|d| {
            (0..extents[d])
                .map(|li| match spec.layout {
                    Layout::Block => offsets[d] as isize + li as isize - pad[d] as isize,
                    Layout::BlockCyclic { block } if d < spec.grid.ndims() => {
                        cyclic_global(spec.grid.dims[d], block, coords[d], li)
                    }
                    Layout::BlockCyclic { .. } => li as isize,
                })
                .collect()
        })
        .collect()
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
        let geom = tile_geom(spec, rank);
        let gmap = Arc::new(global_map(spec, rank, &offsets, &geom.padded, &geom.pad));
        let sched = match spec.layout {
            Layout::Block => infer(&spec.grid, rank, spec.halo, spec.corners, &|r| {
                tile_geom(spec, r)
            }),
            Layout::BlockCyclic { .. } => Schedule::default(),
        };
        let total: usize = geom.padded.iter().product();
        let buf = tc.malloc_f64(total).await;
        DistArray {
            spec: spec.clone(),
            rank,
            counts,
            offsets,
            pad: geom.pad,
            padded: geom.padded,
            gmap,
            sched,
            buf,
        }
    }

    /// Owned cells per dim.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Global block offsets per dim.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Padded local extents.
    pub fn padded(&self) -> &[usize] {
        &self.padded
    }

    /// The inferred halo schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// The backing buffer handle.
    pub fn buf(&self) -> &HBuf {
        &self.buf
    }

    /// True when this rank owns no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.contains(&0)
    }

    /// Number of owned cells.
    pub fn owned_cells(&self) -> usize {
        self.counts.iter().product()
    }

    fn total_padded(&self) -> usize {
        self.padded.iter().product()
    }

    /// The rows of the owned region.
    fn owned_rows(&self) -> Rows {
        let region = self.owned_region();
        Rows::new(region.lo, region.hi, &self.padded, &self.gmap)
    }

    /// The owned region in padded coordinates.
    pub fn owned_region(&self) -> RegionBox {
        RegionBox {
            lo: self.pad.clone(),
            hi: self
                .pad
                .iter()
                .zip(&self.counts)
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
        let total = self.total_padded();
        if total == 0 {
            return;
        }
        let rows = Rows::new(
            vec![0; self.padded.len()],
            self.padded.clone(),
            &self.padded,
            &self.gmap,
        );
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
    /// matching pairs them correctly.
    pub async fn exchange(&self, tc: &Rank) {
        if self.sched.pairs.is_empty() {
            return;
        }
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let opts = tc.options();
        let impacc = opts.is_impacc();
        let unified = impacc && opts.unified_queue;
        let mut bytes: u64 = 0;
        let mut msgs: u64 = 0;
        if unified {
            // Unified activity queue: every send completes at issue, the
            // receives gate whatever kernel is enqueued next (Figure 4(c)).
            for p in &self.sched.pairs {
                for (off, len) in p.send.region.runs(&self.padded) {
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
            for p in &self.sched.pairs {
                for (off, len) in p.recv.region.runs(&self.padded) {
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
        } else if impacc {
            // IMPACC without the unified queue: device-buffer isend/irecv
            // paired per neighbour, then a single waitall.
            let mut reqs = Vec::new();
            for p in &self.sched.pairs {
                for (off, len) in p.send.region.runs(&self.padded) {
                    reqs.push(
                        tc.mpi_isend(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.send.peer,
                            p.send.tag,
                            MpiOpts::device(),
                        )
                        .await,
                    );
                    bytes += len as u64 * 8;
                    msgs += 1;
                }
                for (off, len) in p.recv.region.runs(&self.padded) {
                    reqs.push(
                        tc.mpi_irecv(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.recv.peer,
                            p.recv.tag,
                            MpiOpts::device(),
                        )
                        .await,
                    );
                }
            }
            tc.mpi_waitall(&reqs).await;
        } else {
            // Baseline: stage each slab through the host around host MPI.
            for p in &self.sched.pairs {
                for (off, len) in p.send.region.runs(&self.padded) {
                    tc.acc_update_host(&self.buf, off as u64 * 8, len as u64 * 8, None)
                        .await;
                }
            }
            let mut reqs = Vec::new();
            for p in &self.sched.pairs {
                for (off, len) in p.send.region.runs(&self.padded) {
                    reqs.push(
                        tc.mpi_isend(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.send.peer,
                            p.send.tag,
                            MpiOpts::host(),
                        )
                        .await,
                    );
                    bytes += len as u64 * 8;
                    msgs += 1;
                }
                for (off, len) in p.recv.region.runs(&self.padded) {
                    reqs.push(
                        tc.mpi_irecv(
                            &self.buf,
                            off as u64 * 8,
                            len as u64 * 8,
                            p.recv.peer,
                            p.recv.tag,
                            MpiOpts::host(),
                        )
                        .await,
                    );
                }
            }
            tc.mpi_waitall(&reqs).await;
            for p in &self.sched.pairs {
                for (off, len) in p.recv.region.runs(&self.padded) {
                    tc.acc_update_device(&self.buf, off as u64 * 8, len as u64 * 8, None)
                        .await;
                }
            }
        }
        ctx.metrics().add("array_halo_bytes", bytes);
        let mode = if unified {
            "unified"
        } else if impacc {
            "impacc"
        } else {
            "baseline"
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
    /// array for an in-place colored sweep). Returns the local residual
    /// slot (`max |new − old|` over updated cells); wait on the queue
    /// before reading it under the unified-queue mode.
    pub async fn stencil(
        &self,
        tc: &Rank,
        out: &DistArray,
        spec: &StencilSpec,
        f: RowFn,
    ) -> StencilRes {
        assert_eq!(
            self.spec.layout,
            Layout::Block,
            "stencil requires a block layout"
        );
        assert_eq!(self.padded, out.padded, "stencil arrays must be congruent");
        assert_eq!(spec.margin.len(), self.padded.len());
        let res = StencilRes::default();
        if self.is_empty() {
            return res;
        }
        let nd = self.padded.len();
        // Loop bounds in padded coords: owned region clipped by global
        // margins.
        let mut plo = vec![0usize; nd];
        let mut phi = vec![0usize; nd];
        for d in 0..nd {
            let (mlo, mhi) = spec.margin[d];
            let lo = (mlo as isize - self.offsets[d] as isize).max(0) as usize;
            let hi_global = self.spec.shape[d] as isize - mhi as isize - self.offsets[d] as isize;
            let hi = hi_global.clamp(lo as isize, self.counts[d] as isize) as usize;
            plo[d] = self.pad[d] + lo;
            phi[d] = self.pad[d] + hi.max(lo);
        }
        let cells: u64 = plo.iter().zip(&phi).map(|(l, h)| (h - l) as u64).product();
        let uv = tc.dev_view(&self.buf);
        let vv = tc.dev_view(&out.buf);
        let total = self.total_padded();
        let rows = Rows::new(plo, phi, &self.padded, &self.gmap);
        let color = spec.color;
        let fallback = spec.fallback;
        let res_out = res.clone();
        let sweep = move || {
            if !math_ok(&uv) {
                *res_out.0.lock() = fallback;
                return;
            }
            if cells == 0 {
                return; // nothing to update: the residual stays 0
            }
            // A colored sweep passes `out == self`: the view primitive then
            // hands the kernel a pre-sweep copy as `src`.
            *res_out.0.lock() =
                BufView::with_views_mut(&[&uv], &vv, |src, dst| rows.sweep(src[0], dst, color, &f));
        };
        // Cost convention from the hand-written apps: flops over the whole
        // owned tile, bytes over the padded tile (read + write).
        let cost = KernelCost::new(
            spec.flops_per_cell * self.owned_cells().max(1) as f64,
            total as f64 * 16.0,
        );
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
        res
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
        let total = self.total_padded();
        let rows = self.owned_rows();
        let cells = self.owned_cells() as u64;
        let body = move || {
            if !math_ok(&uv) {
                return;
            }
            uv.with_f64s_mut(0, total, |vals| rows.update(vals, f));
        };
        let cost = KernelCost::new(
            flops_per_cell * self.owned_cells().max(1) as f64,
            total as f64 * 16.0,
        );
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
                    assert_eq!(a.padded, self.padded, "reduced arrays must be congruent");
                    tc.dev_view(&a.buf)
                })
                .collect();
            let total = self.total_padded();
            let rows = self.owned_rows();
            let slot = local.clone();
            let nviews = views.len();
            let body = move || {
                if views.iter().any(|v| !math_ok(v)) {
                    *slot.lock() = Some(0.0);
                    return;
                }
                let views: Vec<&BufView> = views.iter().collect();
                let (len, inner) = (rows.len(), rows.inner());
                let mut out = vec![0.0f64; len];
                *slot.lock() = BufView::with_views(&views, |data| {
                    let mut acc = None;
                    let mut row: Vec<&[f64]> = Vec::with_capacity(data.len());
                    rows.each(|_, g, lin| {
                        row.clear();
                        row.extend(data.iter().map(|d| &d[lin..lin + len]));
                        f(g, inner, &row, &mut out);
                        acc = fold(acc, op, &out);
                    });
                    acc
                });
            };
            let cost = KernelCost::new(
                flops_per_cell * self.owned_cells().max(1) as f64,
                nviews as f64 * total as f64 * 8.0,
            );
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

    /// Gather the global array to `root`'s host memory. Collective.
    /// Returns `Some(values)` on the root when real math is enabled.
    /// Ranks whose owned block is globally contiguous are received
    /// straight into the assembled buffer (for a 1-d row decomposition
    /// this reproduces the hand-written gather exactly); strided blocks
    /// stage through a packed buffer and scatter cell-by-cell.
    pub async fn gather(&self, tc: &Rank, root: u32) -> Option<Vec<f64>> {
        let ctx = tc.ctx();
        let t0 = ctx.now();
        let rank = self.rank as u32;
        let size = tc.size() as usize;
        let owned = self.owned_region();
        if !self.is_empty() {
            for (off, len) in owned.runs(&self.padded) {
                tc.acc_update_host(&self.buf, off as u64 * 8, len as u64 * 8, None)
                    .await;
            }
        }
        let total_global: usize = self.spec.shape.iter().product();
        let out = if rank == root {
            let full = tc.malloc_f64(total_global).await;
            let fv = tc.host_view(&full);
            let ok = math_ok(&fv);
            if !self.is_empty() && ok {
                let hv = tc.host_view(&self.buf);
                if math_ok(&hv) {
                    self.scatter_local_into(&hv, &fv);
                }
            }
            for r in 0..size {
                if r as u32 == root {
                    continue;
                }
                let (counts, offsets) = tile_extents(&self.spec, r);
                if counts.contains(&0) {
                    continue;
                }
                let cells: usize = counts.iter().product();
                let geom = tile_geom(&self.spec, r);
                let region = RegionBox {
                    lo: geom.pad.clone(),
                    hi: geom
                        .pad
                        .iter()
                        .zip(&geom.counts)
                        .map(|(p, c)| p + c)
                        .collect(),
                };
                if let Some(goff) = contiguous_global_offset(&self.spec, &counts, &offsets) {
                    // The sender emits one message per owned run, in the
                    // tile's row-major order — which, for a globally
                    // contiguous block, is also global row-major order.
                    // Receive each run straight into place (a 1-d row
                    // decomposition has a single run: the hand-written
                    // jacobi gather, message for message).
                    let mut at = goff as u64;
                    for (_off, len) in region.runs(&geom.padded) {
                        tc.mpi_recv(
                            &full,
                            at * 8,
                            len as u64 * 8,
                            r as u32,
                            GATHER_TAG,
                            MpiOpts::host(),
                        )
                        .await;
                        at += len as u64;
                    }
                } else {
                    let staging = tc.malloc_f64(cells).await;
                    let mut at = 0u64;
                    for (_off, len) in region.runs(&geom.padded) {
                        tc.mpi_recv(
                            &staging,
                            at * 8,
                            len as u64 * 8,
                            r as u32,
                            GATHER_TAG,
                            MpiOpts::host(),
                        )
                        .await;
                        at += len as u64;
                    }
                    if ok {
                        let sv = tc.host_view(&staging);
                        if math_ok(&sv) {
                            scatter_packed(&self.spec, r, &sv, &fv);
                        }
                    }
                    tc.free(staging).await;
                }
            }
            ok.then(|| fv.read_f64s(0, total_global))
        } else {
            if !self.is_empty() {
                for (off, len) in owned.runs(&self.padded) {
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

    /// Copy this rank's owned cells from its host tile into the global
    /// host buffer (no simulated cost — host view traffic).
    fn scatter_local_into(&self, hv: &BufView, fv: &BufView) {
        let rows = self.owned_rows();
        BufView::with_views_mut(&[hv], fv, |tile, full| {
            rows.scatter(tile[0], &self.spec.shape, full)
        });
    }

    /// Swap the tiles of two congruent arrays (double buffering).
    pub fn swap(&mut self, other: &mut DistArray) {
        assert_eq!(
            self.padded, other.padded,
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
    if spec.layout != Layout::Block {
        return None;
    }
    if counts[1..]
        .iter()
        .zip(&spec.shape[1..])
        .any(|(&c, &s)| c != s)
    {
        return None;
    }
    let tail: usize = spec.shape[1..].iter().product();
    Some(offsets[0] * tail)
}

/// Scatter a packed (run-ordered) tile of rank `r` into the global host
/// buffer.
fn scatter_packed(spec: &ArraySpec, r: usize, sv: &BufView, fv: &BufView) {
    let (counts, offsets) = tile_extents(spec, r);
    let gmap = Arc::new(global_map(
        spec,
        r,
        &offsets,
        &counts,
        &vec![0; counts.len()],
    ));
    let rows = Rows::new(vec![0; counts.len()], counts.clone(), &counts, &gmap);
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
        let padded = [8usize, 6];
        let gmap = Arc::new(vec![(-1..7).collect(), (0..6).collect()]);
        let src: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let mut dst = src.clone();
        Rows::new(vec![1, 1], vec![7, 5], &padded, &gmap).sweep(&src, &mut dst, None, &f);
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
