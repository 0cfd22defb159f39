//! Scenarios written against the array API.
//!
//! Each scenario declares a global array, lets the library infer the
//! halo exchange, and drives sweeps through [`DistArray::stencil`] —
//! the whole point of the layer is that none of them hand-writes a
//! single send. Verification replays the *same* row kernel on a
//! serial [`SerialField`] and asserts bit-for-bit equality of both the
//! gathered field and the reduced residual history: the distributed
//! sweeps compute every cell from identically-valued neighbours, so
//! exact equality is the correct expectation, not a tolerance. Jacobi,
//! the paper's application and the one run at full size, is held to its
//! own serial oracle instead, [`serial_jacobi`]: a plain loop over the
//! whole mesh that shares no code with the layer.

use std::sync::Arc;

use impacc_core::Rank;
use impacc_mpi::ReduceOp;

use crate::decomp::CartGrid;
use crate::dist::{ArraySpec, DistArray, ResProbe, Row, RowFn, StencilRes, StencilSpec};

/// Jacobi boundary conditions: the ghost row above the global top is
/// held at 1, everything else starts at 0.
pub fn jacobi_bc(g: &[isize]) -> f64 {
    if g[0] < 0 {
        1.0
    } else {
        0.0
    }
}

/// [`DistArray::fill`] with [`jacobi_bc`], one value per row: the
/// condition reads the row coordinate only.
fn fill_jacobi_bc(tc: &Rank, a: &DistArray) {
    a.fill_rows(tc, |g, _, row| row.fill(jacobi_bc(g)));
}

/// The five-point Jacobi update: north, south, west, east, then the
/// quarter — the operand order [`serial_jacobi`] uses.
pub fn jacobi_cell() -> RowFn {
    Arc::new(|r: &Row<'_>, out: &mut [f64]| {
        let (n, s, w, e) = (r.at(&[-1, 0]), r.at(&[1, 0]), r.at(&[0, -1]), r.at(&[0, 1]));
        for (k, o) in out.iter_mut().enumerate() {
            *o = 0.25 * (n[k] + s[k] + w[k] + e[k]);
        }
    })
}

/// Jacobi workload parameters.
#[derive(Clone, Debug)]
pub struct JacobiParams {
    /// Mesh dimension (`n×n`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: usize,
    /// Gather and compare against [`serial_jacobi`] at the end.
    pub verify: bool,
}

/// 2-D Jacobi iteration (§4.2): a five-point stencil on an `n×n` mesh
/// partitioned in rows, one ghost row exchanged with each neighbour per
/// sweep and the global residual reduced every sweep — the log(p) term
/// that dominates at Titan scale.
///
/// The field lives in device memory for the whole run. Under IMPACC the
/// halo rows go straight from device memory on the unified queue, so an
/// intra-node exchange between two GPUs fuses into one direct DtoD peer
/// copy (the Figure 14 effect); the baseline stages every halo row
/// through the host. Rank 0 pushes each reduced residual into `probe`.
/// With `verify`, the gathered field and the last sweep's residual must
/// equal [`serial_jacobi`]'s bit for bit.
pub async fn jacobi_task(tc: &Rank, p: &JacobiParams, probe: Option<&ResProbe>) {
    let spec = ArraySpec::block(vec![p.n, p.n], CartGrid::line(tc.size() as usize), 1);
    let mut sspec = StencilSpec {
        margin: vec![(0, 0), (1, 1)],
        flops_per_cell: 6.0,
        fallback: 0.0,
        color: None,
    };
    let (u, residuals) = sweep_loop(
        tc,
        &spec,
        fill_jacobi_bc,
        &mut sspec,
        jacobi_cell(),
        p.iters,
        probe,
    )
    .await;
    // Jacobi on this boundary problem relaxes, so the final global
    // residual cannot exceed the first (every rank agrees — it came out of
    // the allreduce).
    if p.iters > 1 && !u.is_empty() {
        assert!(
            residuals.last().unwrap() <= residuals.first().unwrap(),
            "jacobi residual failed to relax: {residuals:?}"
        );
    }
    if p.verify {
        let last = residuals.last().copied();
        u.gather_with(tc, 0, |got| {
            let (reference, serial_res) = serial_jacobi_run(p.n, p.iters);
            assert_bits_eq(got, &reference, "jacobi field");
            if let Some(last) = last {
                assert_bits_eq(&[last], &[serial_res], "jacobi final residual");
            }
        })
        .await;
    }
}

/// The double-buffered sweep loop of the stencil scenarios: build the
/// field and its partner under `spec`, `fill` both and copy them in,
/// then `iters` times exchange halos, sweep into the partner, reduce the
/// global residual and swap. Capped runs skip the math; the residual
/// then falls back to `1/(sweep+1)`, a decreasing stand-in that keeps
/// the reduction meaningful. Rank 0 pushes each reduced residual into
/// `probe`. Returns the field, its last sweep complete, and the
/// residual history.
async fn sweep_loop(
    tc: &Rank,
    spec: &ArraySpec,
    fill: fn(&Rank, &DistArray),
    sspec: &mut StencilSpec,
    f: RowFn,
    iters: usize,
    probe: Option<&ResProbe>,
) -> (DistArray, Vec<f64>) {
    let mut u = DistArray::build(tc, spec).await;
    let mut unew = u.build_like(tc).await;
    fill(tc, &u);
    fill(tc, &unew);
    u.to_device(tc).await;
    unew.to_device(tc).await;
    // Setup (allocation + copyin) ends here; trace consumers cut on this
    // marker to attribute copies to the sweeps alone.
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let res = StencilRes::default();
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..iters {
        u.exchange(tc).await;
        sspec.fallback = 1.0 / (it + 1) as f64;
        u.stencil(tc, &unew, sspec, f.clone(), &res).await;
        // The sweep kernel must have completed before its residual is read.
        if unified {
            tc.acc_wait(1).await;
        }
        let mine = res.get();
        let residual = tc.mpi_allreduce_f64(&[mine], ReduceOp::Max).await;
        assert!(
            residual[0].is_finite() && residual[0] >= mine,
            "global residual must bound the local one"
        );
        if let Some(pr) = probe {
            if tc.rank() == 0 {
                pr.push(residual[0]);
            }
        }
        residuals.push(residual[0]);
        u.swap(&mut unew);
    }
    if unified {
        tc.acc_wait(1).await;
    }
    (u, residuals)
}

/// The serial Jacobi reference: `iters` sweeps over the whole mesh in a
/// ghost frame holding the same boundary conditions. Returns the `n × n`
/// interior, row-major.
pub fn serial_jacobi(n: usize, iters: usize) -> Vec<f64> {
    serial_jacobi_run(n, iters).0
}

/// [`serial_jacobi`] and the residual of its last sweep, `max |new − old|`
/// over the mesh (0 without sweeps), as a sequential fold of its own.
fn serial_jacobi_run(n: usize, iters: usize) -> (Vec<f64>, f64) {
    // (n+2) x n with ghost top/bottom; left/right borders are the first
    // and last columns, held fixed.
    let mut u = vec![0.0f64; (n + 2) * n];
    let mut v = vec![0.0f64; (n + 2) * n];
    u[..n].fill(1.0); // ghost top = 1
    v[..n].fill(1.0);
    for _ in 0..iters {
        serial_sweep(&u, &mut v, n);
        std::mem::swap(&mut u, &mut v);
    }
    let interior = n..(n + 1) * n;
    let residual = match iters {
        0 => 0.0,
        _ => u[interior.clone()]
            .iter()
            .zip(&v[interior])
            .fold(0.0f64, |r, (new, old)| r.max((new - old).abs())),
    };
    // Drop the ghost rows where the field is, not into a third mesh.
    u.truncate((n + 1) * n);
    u.drain(..n);
    (u, residual)
}

/// One five-point sweep of the `n`-wide ghost-framed mesh: `dst` gets the
/// new values of rows `1..=n`, columns `1..n-1`. Whole-row slices hoist
/// the bounds checks so the column loop vectorizes.
fn serial_sweep(src: &[f64], dst: &mut [f64], n: usize) {
    if n < 3 {
        return; // no interior column
    }
    for i in 1..=n {
        let up = &src[(i - 1) * n..i * n];
        let mid = &src[i * n..(i + 1) * n];
        let down = &src[(i + 1) * n..(i + 2) * n];
        let out = &mut dst[i * n..(i + 1) * n];
        for j in 1..n - 1 {
            out[j] = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
        }
    }
}

/// 3-d 7-point stencil parameters.
#[derive(Clone, Debug)]
pub struct Stencil3dParams {
    /// Cube edge (`n×n×n`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: usize,
    /// Gather and compare against the serial replay at the end.
    pub verify: bool,
}

fn stencil3d_bc(g: &[isize]) -> f64 {
    0.01 * ((g[0] * g[0] - g[1] + 2 * g[2]) as f64)
}

fn stencil3d_cell() -> RowFn {
    Arc::new(|r: &Row<'_>, out: &mut [f64]| {
        let c = r.center();
        let (a, b) = (r.at(&[-1, 0, 0]), r.at(&[1, 0, 0]));
        let (n, s) = (r.at(&[0, -1, 0]), r.at(&[0, 1, 0]));
        let (w, e) = (r.at(&[0, 0, -1]), r.at(&[0, 0, 1]));
        for (k, o) in out.iter_mut().enumerate() {
            let sum6 = a[k] + b[k] + n[k] + s[k] + w[k] + e[k];
            *o = c[k] + 0.1 * (sum6 - 6.0 * c[k]);
        }
    })
}

/// 3-d 7-point smoothing sweep over a 2-d-decomposed cube: dimensions
/// 0 and 1 split across the rank grid (so dim-1 halos exercise the
/// strided multi-run lowering), dimension 2 unsplit with in-domain
/// boundaries.
pub async fn stencil3d_task(tc: &Rank, p: &Stencil3dParams, probe: Option<&ResProbe>) {
    let spec = ArraySpec::block(vec![p.n, p.n, p.n], CartGrid::new(tc.size() as usize, 2), 1);
    let f = stencil3d_cell();
    let mut sspec = StencilSpec {
        margin: vec![(0, 0), (0, 0), (1, 1)],
        flops_per_cell: 9.0,
        fallback: 0.0,
        color: None,
    };
    let fill = |tc: &Rank, a: &DistArray| a.fill(tc, stencil3d_bc);
    let (u, residuals) = sweep_loop(tc, &spec, fill, &mut sspec, f.clone(), p.iters, probe).await;
    if p.verify {
        u.gather_with(tc, 0, |got| {
            let mut reference = SerialField::new(&[p.n, p.n, p.n], 2, 1, &stencil3d_bc);
            let serial_res: Vec<f64> = (0..p.iters)
                .map(|_| reference.step(&sspec.margin, None, &f))
                .collect();
            assert_bits_eq(got, &reference.interior(), "stencil3d field");
            assert_bits_eq(&residuals, &serial_res, "stencil3d residuals");
        })
        .await;
    }
}

/// Variable-halo 2-d stencil parameters.
#[derive(Clone, Debug)]
pub struct Stencil2dParams {
    /// Mesh dimension (`n×n`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: usize,
    /// Star radius = exchanged halo depth.
    pub halo: usize,
    /// Gather and compare against the serial replay at the end.
    pub verify: bool,
}

fn stencil2d_cell(h: usize) -> RowFn {
    Arc::new(move |r: &Row<'_>, out: &mut [f64]| {
        out.copy_from_slice(r.center());
        for k in 1..=h as isize {
            let (n, s, w, e) = (r.at(&[-k, 0]), r.at(&[k, 0]), r.at(&[0, -k]), r.at(&[0, k]));
            for (i, o) in out.iter_mut().enumerate() {
                *o += n[i] + s[i] + w[i] + e[i];
            }
        }
        let div = (4 * h + 1) as f64;
        out.iter_mut().for_each(|o| *o /= div);
    })
}

/// Radius-`halo` star average on a row-decomposed square: the halo
/// depth is a runtime parameter, so one sweep exchanges `halo` rows per
/// neighbour — the knob the campaign files and the bench sweep turn.
pub async fn stencil2d_task(tc: &Rank, p: &Stencil2dParams, probe: Option<&ResProbe>) {
    assert!(p.halo >= 1, "stencil2d needs a positive halo");
    let spec = ArraySpec::block(vec![p.n, p.n], CartGrid::line(tc.size() as usize), p.halo);
    let f = stencil2d_cell(p.halo);
    let mut sspec = StencilSpec {
        margin: vec![(0, 0), (p.halo, p.halo)],
        flops_per_cell: (4 * p.halo + 2) as f64,
        fallback: 0.0,
        color: None,
    };
    let (u, residuals) = sweep_loop(
        tc,
        &spec,
        fill_jacobi_bc,
        &mut sspec,
        f.clone(),
        p.iters,
        probe,
    )
    .await;
    if p.verify {
        u.gather_with(tc, 0, |got| {
            let mut reference = SerialField::new(&[p.n, p.n], 1, p.halo, &jacobi_bc);
            let serial_res: Vec<f64> = (0..p.iters)
                .map(|_| reference.step(&sspec.margin, None, &f))
                .collect();
            assert_bits_eq(got, &reference.interior(), "stencil2d field");
            assert_bits_eq(&residuals, &serial_res, "stencil2d residuals");
        })
        .await;
    }
}

/// Red-black Gauss-Seidel parameters.
#[derive(Clone, Debug)]
pub struct RedBlackParams {
    /// Mesh dimension (`n×n`).
    pub n: usize,
    /// Number of full (red + black) sweeps.
    pub iters: usize,
    /// Gather and compare against the serial replay at the end.
    pub verify: bool,
}

/// Red-black Gauss-Seidel relaxation: two colored in-place half-sweeps
/// per iteration, with a halo exchange before each so the black pass
/// sees the red updates from the neighbouring tiles.
pub async fn redblack_task(tc: &Rank, p: &RedBlackParams, probe: Option<&ResProbe>) {
    let spec = ArraySpec::block(vec![p.n, p.n], CartGrid::line(tc.size() as usize), 1);
    let u = DistArray::build(tc, &spec).await;
    fill_jacobi_bc(tc, &u);
    u.to_device(tc).await;
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let f = jacobi_cell();
    let margin = vec![(0, 0), (1, 1)];
    let (red, black) = (StencilRes::default(), StencilRes::default());
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..p.iters {
        let half = async |color: usize, res: &StencilRes| {
            u.exchange(tc).await;
            let sspec = StencilSpec {
                margin: margin.clone(),
                flops_per_cell: 3.0,
                fallback: 1.0 / (it + 1) as f64,
                color: Some(color),
            };
            u.stencil(tc, &u, &sspec, f.clone(), res).await
        };
        half(0, &red).await;
        half(1, &black).await;
        if unified {
            tc.acc_wait(1).await;
        }
        let mine = red.get().max(black.get());
        let residual = tc.mpi_allreduce_f64(&[mine], ReduceOp::Max).await;
        assert!(residual[0].is_finite());
        if let Some(pr) = probe {
            if tc.rank() == 0 {
                pr.push(residual[0]);
            }
        }
        residuals.push(residual[0]);
    }
    if unified {
        tc.acc_wait(1).await;
    }
    if p.verify {
        u.gather_with(tc, 0, |got| {
            let mut reference = SerialField::new(&[p.n, p.n], 1, 1, &jacobi_bc);
            let serial_res: Vec<f64> = (0..p.iters)
                .map(|_| {
                    let r0 = reference.step(&margin, Some(0), &f);
                    let r1 = reference.step(&margin, Some(1), &f);
                    r0.max(r1)
                })
                .collect();
            assert_bits_eq(got, &reference.interior(), "redblack field");
            assert_bits_eq(&residuals, &serial_res, "redblack residuals");
        })
        .await;
    }
}

fn assert_bits_eq(got: &[f64], expect: &[f64], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length mismatch");
    for (k, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            g.to_bits() == e.to_bits(),
            "{what}[{k}] = {g:?}, expected {e:?} (bitwise)"
        );
    }
}

/// Serial replay of a padded field: the verification oracle. Runs the
/// *same* [`RowFn`] the distributed sweep ran, over the whole domain,
/// with the same ghost-pad boundary semantics, but through its own cell
/// walk: every kernel call gets a one-cell row, the colour test is made
/// per cell and the residual is a sequential `f64::max` fold, so a fault
/// in the distributed row loop cannot hide in the reference.
pub struct SerialField {
    shape: Vec<usize>,
    pad: Vec<usize>,
    padded: Vec<usize>,
    vals: Vec<f64>,
}

impl SerialField {
    /// Build and fill: pads of depth `halo` on the first `mapped` dims.
    pub fn new(
        shape: &[usize],
        mapped: usize,
        halo: usize,
        f: &dyn Fn(&[isize]) -> f64,
    ) -> SerialField {
        let nd = shape.len();
        let mut pad = vec![0usize; nd];
        for p in pad.iter_mut().take(mapped) {
            *p = halo;
        }
        let padded: Vec<usize> = shape.iter().zip(&pad).map(|(s, p)| s + 2 * p).collect();
        let total: usize = padded.iter().product();
        let mut vals = vec![0.0f64; total];
        let mut idx = vec![0usize; nd];
        let mut g = vec![0isize; nd];
        for v in vals.iter_mut() {
            for d in 0..nd {
                g[d] = idx[d] as isize - pad[d] as isize;
            }
            *v = f(&g);
            let mut d = nd;
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < padded[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        SerialField {
            shape: shape.to_vec(),
            pad,
            padded,
            vals,
        }
    }

    /// One sweep; returns `max |new − old|` over updated cells.
    pub fn step(&mut self, margin: &[(usize, usize)], color: Option<usize>, f: &RowFn) -> f64 {
        let nd = self.shape.len();
        let mut strides = vec![1isize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.padded[d + 1] as isize;
        }
        let src = self.vals.clone();
        let mut res = 0.0f64;
        let plo: Vec<usize> = (0..nd).map(|d| self.pad[d] + margin[d].0).collect();
        let phi: Vec<usize> = (0..nd)
            .map(|d| self.pad[d] + self.shape[d] - margin[d].1)
            .collect();
        if (0..nd).any(|d| phi[d] <= plo[d]) {
            return res;
        }
        let mut idx = plo.clone();
        let mut g = vec![0isize; nd];
        'cells: loop {
            let mut lin = 0isize;
            for d in 0..nd {
                lin += idx[d] as isize * strides[d];
                g[d] = idx[d] as isize - self.pad[d] as isize;
            }
            let lin = lin as usize;
            let on_color = match color {
                Some(c) => g.iter().sum::<isize>().rem_euclid(2) as usize == c,
                None => true,
            };
            if on_color {
                let cell = Row::cell(&src, lin, &idx, &self.padded, &strides, &g);
                let mut next = [0.0f64];
                f(&cell, &mut next);
                res = res.max((next[0] - src[lin]).abs());
                self.vals[lin] = next[0];
            }
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
        res
    }

    /// The un-padded field, row-major over the global shape.
    pub fn interior(&self) -> Vec<f64> {
        let nd = self.shape.len();
        let mut strides = vec![1usize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.padded[d + 1];
        }
        let total: usize = self.shape.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; nd];
        for _ in 0..total {
            let lin: usize = (0..nd).map(|d| (idx[d] + self.pad[d]) * strides[d]).sum();
            out.push(self.vals[lin]);
            let mut d = nd;
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }
}
