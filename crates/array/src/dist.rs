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

/// One cell's neighbourhood, handed to stencil closures.
pub struct Cell<'a> {
    pub(crate) src: &'a [f64],
    pub(crate) idx: usize,
    pub(crate) strides: &'a [isize],
    pub(crate) g: &'a [isize],
}

impl<'a> Cell<'a> {
    /// The cell's own value.
    pub fn center(&self) -> f64 {
        self.src[self.idx]
    }

    /// The value at relative offset `off` (per dimension). Offsets must
    /// stay within the halo on mapped dims and the margin on unmapped
    /// ones; violations panic on the out-of-bounds index.
    pub fn at(&self, off: &[isize]) -> f64 {
        let mut i = self.idx as isize;
        for (d, o) in off.iter().enumerate() {
            i += o * self.strides[d];
        }
        self.src[i as usize]
    }

    /// Global coordinate of the cell along dimension `d`.
    pub fn global(&self, d: usize) -> isize {
        self.g[d]
    }
}

/// Stencil closure: new value of a cell from its neighbourhood.
pub type CellFn = Arc<dyn Fn(&Cell<'_>) -> f64 + Send + Sync>;

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
    gmap: Vec<Vec<isize>>,
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
        let coords = spec.grid.coords(rank);
        let nd = spec.shape.len();
        let mut gmap = Vec::with_capacity(nd);
        for d in 0..nd {
            let mut m = Vec::with_capacity(geom.padded[d]);
            for li in 0..geom.padded[d] {
                let v = match spec.layout {
                    Layout::Block => offsets[d] as isize + li as isize - geom.pad[d] as isize,
                    Layout::BlockCyclic { block } => {
                        if d < spec.grid.ndims() {
                            cyclic_global(spec.grid.dims[d], block, coords[d], li)
                        } else {
                            li as isize
                        }
                    }
                };
                m.push(v);
            }
            gmap.push(m);
        }
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

    fn strides(&self) -> Vec<isize> {
        let nd = self.padded.len();
        let mut s = vec![1isize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.padded[d + 1] as isize;
        }
        s
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
        let hv = tc.host_view(&self.buf);
        if !math_ok(&hv) {
            return;
        }
        let total = self.total_padded();
        if total == 0 {
            return;
        }
        let nd = self.padded.len();
        let mut idx = vec![0usize; nd];
        let mut g = vec![0isize; nd];
        hv.with_f64s_mut(0, total, |vals| {
            for v in vals.iter_mut() {
                for d in 0..nd {
                    g[d] = self.gmap[d][idx[d]];
                }
                *v = f(&g);
                let mut d = nd;
                while d > 0 {
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < self.padded[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        });
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
        f: CellFn,
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
        let strides = self.strides();
        let gmap = self.gmap.clone();
        let color = spec.color;
        let fallback = spec.fallback;
        let res_out = res.clone();
        let sweep = move || {
            if !math_ok(&uv) {
                *res_out.0.lock() = fallback;
                return;
            }
            if (0..nd).any(|d| phi[d] <= plo[d]) {
                return; // nothing to update: the residual stays 0
            }
            // A colored sweep passes `out == self`: the view primitive then
            // hands the kernel a pre-sweep copy as `src`.
            *res_out.0.lock() = BufView::with_views_mut(&[&uv], &vv, |src, dst| {
                let src = src[0];
                let mut r = 0.0f64;
                let mut idx = plo.clone();
                let mut g = vec![0isize; nd];
                'cells: loop {
                    let mut lin = 0isize;
                    for d in 0..nd {
                        lin += idx[d] as isize * strides[d];
                        g[d] = gmap[d][idx[d]];
                    }
                    let lin = lin as usize;
                    let on_color = match color {
                        Some(c) => g.iter().sum::<isize>().rem_euclid(2) as usize == c,
                        None => true,
                    };
                    if on_color {
                        let cell = Cell {
                            src,
                            idx: lin,
                            strides: &strides,
                            g: &g,
                        };
                        let next = f(&cell);
                        r = r.max((next - src[lin]).abs());
                        dst[lin] = next;
                    }
                    let mut d = nd;
                    loop {
                        if d == 0 {
                            break 'cells r;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < phi[d] {
                            break;
                        }
                        idx[d] = plo[d];
                    }
                }
            });
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
        if self.is_empty() {
            return;
        }
        let nd = self.padded.len();
        let region = self.owned_region();
        let (plo, phi) = (region.lo, region.hi);
        let uv = tc.dev_view(&self.buf);
        let total = self.total_padded();
        let strides = self.strides();
        let gmap = self.gmap.clone();
        let cells = self.owned_cells() as u64;
        let body = move || {
            if !math_ok(&uv) {
                return;
            }
            uv.with_f64s_mut(0, total, |vals| {
                let mut idx = plo.clone();
                let mut g = vec![0isize; nd];
                'cells: loop {
                    let mut lin = 0isize;
                    for d in 0..nd {
                        lin += idx[d] as isize * strides[d];
                        g[d] = gmap[d][idx[d]];
                    }
                    let lin = lin as usize;
                    vals[lin] = f(&g, vals[lin]);
                    let mut d = nd;
                    loop {
                        if d == 0 {
                            break 'cells;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < phi[d] {
                            break;
                        }
                        idx[d] = plo[d];
                    }
                }
            });
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
        let local: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
        let unified = tc.options().is_impacc() && tc.options().unified_queue;
        if !self.is_empty() {
            let nd = self.padded.len();
            let region = self.owned_region();
            let (plo, phi) = (region.lo, region.hi);
            let uv = tc.dev_view(&self.buf);
            let total = self.total_padded();
            let strides = self.strides();
            let gmap = self.gmap.clone();
            let slot = local.clone();
            let body = move || {
                if !math_ok(&uv) {
                    *slot.lock() = Some(0.0);
                    return;
                }
                *slot.lock() = uv.with_f64s(0, total, |vals| {
                    let mut acc: Option<f64> = None;
                    let mut idx = plo.clone();
                    let mut g = vec![0isize; nd];
                    'cells: loop {
                        let mut lin = 0isize;
                        for d in 0..nd {
                            lin += idx[d] as isize * strides[d];
                            g[d] = gmap[d][idx[d]];
                        }
                        let v = f(&g, vals[lin as usize]);
                        acc = Some(match (acc, op) {
                            (None, _) => v,
                            (Some(a), ReduceOp::Sum) => a + v,
                            (Some(a), ReduceOp::Max) => a.max(v),
                            (Some(a), ReduceOp::Min) => a.min(v),
                            (Some(a), ReduceOp::Prod) => a * v,
                        });
                        let mut d = nd;
                        loop {
                            if d == 0 {
                                break 'cells acc;
                            }
                            d -= 1;
                            idx[d] += 1;
                            if idx[d] < phi[d] {
                                break;
                            }
                            idx[d] = plo[d];
                        }
                    }
                });
            };
            let cost = KernelCost::new(
                flops_per_cell * self.owned_cells().max(1) as f64,
                total as f64 * 8.0,
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
        let nd = self.padded.len();
        let strides = self.strides();
        let region = self.owned_region();
        let (plo, phi) = (region.lo, region.hi);
        BufView::with_views_mut(&[hv], fv, |tile, full| {
            let mut idx = plo.clone();
            'cells: loop {
                let mut lin = 0isize;
                let mut gidx = 0usize;
                for d in 0..nd {
                    lin += idx[d] as isize * strides[d];
                    gidx = gidx * self.spec.shape[d] + self.gmap[d][idx[d]] as usize;
                }
                full[gidx] = tile[0][lin as usize];
                let mut d = nd;
                loop {
                    if d == 0 {
                        break 'cells;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < phi[d] {
                        break;
                    }
                    idx[d] = plo[d];
                }
            }
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
    let cells: usize = counts.iter().product();
    let nd = counts.len();
    let coords = spec.grid.coords(r);
    let mut idx = vec![0usize; nd];
    BufView::with_views_mut(&[sv], fv, |packed, full| {
        for v in &packed[0][..cells] {
            let mut gidx = 0usize;
            for d in 0..nd {
                let g = match spec.layout {
                    Layout::Block => (offsets[d] + idx[d]) as isize,
                    Layout::BlockCyclic { block } => {
                        if d < spec.grid.ndims() {
                            cyclic_global(spec.grid.dims[d], block, coords[d], idx[d])
                        } else {
                            idx[d] as isize
                        }
                    }
                };
                gidx = gidx * spec.shape[d] + g as usize;
            }
            full[gidx] = *v;
            let mut d = nd;
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < counts[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    });
}
