//! Scenarios written against the array API.
//!
//! Each scenario declares a global array, lets the library infer the
//! halo exchange, and drives sweeps through [`DistArray::stencil`] —
//! the whole point of the layer is that none of them hand-writes a
//! single send. Verification replays the *same* row kernel on a
//! serial [`SerialField`] and asserts bit-for-bit equality of both the
//! gathered field and the reduced residual history: the distributed
//! sweeps compute every cell from identically-valued neighbours, so
//! exact equality is the correct expectation, not a tolerance.

use std::sync::Arc;

use impacc_core::Rank;
use impacc_mpi::ReduceOp;

use crate::decomp::CartGrid;
use crate::dist::{ArraySpec, DistArray, ResProbe, Row, RowFn, StencilSpec};

/// Jacobi boundary conditions: the ghost row above the global top is
/// held at 1, everything else starts at 0 (matching the hand-written
/// app's `initial_row`).
pub fn jacobi_bc(g: &[isize]) -> f64 {
    if g[0] < 0 {
        1.0
    } else {
        0.0
    }
}

/// The five-point Jacobi update, in the hand-written operand order.
pub fn jacobi_cell() -> RowFn {
    Arc::new(|r: &Row<'_>, out: &mut [f64]| {
        let (n, s, w, e) = (r.at(&[-1, 0]), r.at(&[1, 0]), r.at(&[0, -1]), r.at(&[0, 1]));
        for (k, o) in out.iter_mut().enumerate() {
            *o = 0.25 * (n[k] + s[k] + w[k] + e[k]);
        }
    })
}

/// Parameters shared by the square 2-d scenarios.
#[derive(Clone, Debug)]
pub struct ArrayJacobiParams {
    /// Mesh dimension (`n×n`).
    pub n: usize,
    /// Number of sweeps.
    pub iters: usize,
    /// Gather and compare against the serial replay at the end.
    pub verify: bool,
}

/// Jacobi re-expressed on the array API. With a 1-d block row
/// decomposition this issues the identical operation sequence as the
/// hand-written `jacobi_task`, which the parity tests verify down to
/// byte-equal metrics and end times.
pub async fn jacobi_array_task(tc: &Rank, p: &ArrayJacobiParams, probe: Option<&ResProbe>) {
    let spec = ArraySpec::block(vec![p.n, p.n], CartGrid::line(tc.size() as usize), 1);
    let mut u = DistArray::build(tc, &spec).await;
    let mut unew = DistArray::build(tc, &spec).await;
    u.fill(tc, jacobi_bc);
    unew.fill(tc, jacobi_bc);
    u.to_device(tc).await;
    unew.to_device(tc).await;
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let f = jacobi_cell();
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..p.iters {
        u.exchange(tc).await;
        let sspec = StencilSpec {
            margin: vec![(0, 0), (1, 1)],
            flops_per_cell: 6.0,
            fallback: 1.0 / (it + 1) as f64,
            color: None,
        };
        let res = u.stencil(tc, &unew, &sspec, f.clone()).await;
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
    if p.iters > 1 && !u.is_empty() {
        assert!(
            residuals.last().unwrap() <= residuals.first().unwrap(),
            "jacobi residual failed to relax: {residuals:?}"
        );
    }
    if unified {
        tc.acc_wait(1).await;
    }
    if p.verify {
        let got = u.gather(tc, 0).await;
        if let Some(got) = got {
            let mut reference = SerialField::new(&[p.n, p.n], 1, 1, &jacobi_bc);
            let mut serial_res = Vec::new();
            for _ in 0..p.iters {
                serial_res.push(reference.step(&[(0, 0), (1, 1)], None, &f));
            }
            assert_bits_eq(&got, &reference.interior(), "jacobi_array field");
            assert_bits_eq(&residuals, &serial_res, "jacobi_array residuals");
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
    let mut u = DistArray::build(tc, &spec).await;
    let mut unew = DistArray::build(tc, &spec).await;
    u.fill(tc, stencil3d_bc);
    unew.fill(tc, stencil3d_bc);
    u.to_device(tc).await;
    unew.to_device(tc).await;
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let f = stencil3d_cell();
    let margin = vec![(0, 0), (0, 0), (1, 1)];
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..p.iters {
        u.exchange(tc).await;
        let sspec = StencilSpec {
            margin: margin.clone(),
            flops_per_cell: 9.0,
            fallback: 1.0 / (it + 1) as f64,
            color: None,
        };
        let res = u.stencil(tc, &unew, &sspec, f.clone()).await;
        if unified {
            tc.acc_wait(1).await;
        }
        let residual = tc.mpi_allreduce_f64(&[res.get()], ReduceOp::Max).await;
        assert!(residual[0].is_finite());
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
    if p.verify {
        if let Some(got) = u.gather(tc, 0).await {
            let mut reference = SerialField::new(&[p.n, p.n, p.n], 2, 1, &stencil3d_bc);
            let mut serial_res = Vec::new();
            for _ in 0..p.iters {
                serial_res.push(reference.step(&margin, None, &f));
            }
            assert_bits_eq(&got, &reference.interior(), "stencil3d field");
            assert_bits_eq(&residuals, &serial_res, "stencil3d residuals");
        }
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
    let mut u = DistArray::build(tc, &spec).await;
    let mut unew = DistArray::build(tc, &spec).await;
    u.fill(tc, jacobi_bc);
    unew.fill(tc, jacobi_bc);
    u.to_device(tc).await;
    unew.to_device(tc).await;
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let f = stencil2d_cell(p.halo);
    let margin = vec![(0, 0), (p.halo, p.halo)];
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..p.iters {
        u.exchange(tc).await;
        let sspec = StencilSpec {
            margin: margin.clone(),
            flops_per_cell: (4 * p.halo + 2) as f64,
            fallback: 1.0 / (it + 1) as f64,
            color: None,
        };
        let res = u.stencil(tc, &unew, &sspec, f.clone()).await;
        if unified {
            tc.acc_wait(1).await;
        }
        let residual = tc.mpi_allreduce_f64(&[res.get()], ReduceOp::Max).await;
        assert!(residual[0].is_finite());
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
    if p.verify {
        if let Some(got) = u.gather(tc, 0).await {
            let mut reference = SerialField::new(&[p.n, p.n], 1, p.halo, &jacobi_bc);
            let mut serial_res = Vec::new();
            for _ in 0..p.iters {
                serial_res.push(reference.step(&margin, None, &f));
            }
            assert_bits_eq(&got, &reference.interior(), "stencil2d field");
            assert_bits_eq(&residuals, &serial_res, "stencil2d residuals");
        }
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
    u.fill(tc, jacobi_bc);
    u.to_device(tc).await;
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let f = jacobi_cell();
    let margin = vec![(0, 0), (1, 1)];
    let mut residuals: Vec<f64> = Vec::new();
    for it in 0..p.iters {
        let half = async |color: usize| {
            u.exchange(tc).await;
            let sspec = StencilSpec {
                margin: margin.clone(),
                flops_per_cell: 3.0,
                fallback: 1.0 / (it + 1) as f64,
                color: Some(color),
            };
            u.stencil(tc, &u, &sspec, f.clone()).await
        };
        let red = half(0).await;
        let black = half(1).await;
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
        if let Some(got) = u.gather(tc, 0).await {
            let mut reference = SerialField::new(&[p.n, p.n], 1, 1, &jacobi_bc);
            let mut serial_res = Vec::new();
            for _ in 0..p.iters {
                let r0 = reference.step(&margin, Some(0), &f);
                let r1 = reference.step(&margin, Some(1), &f);
                serial_res.push(r0.max(r1));
            }
            assert_bits_eq(&got, &reference.interior(), "redblack field");
            assert_bits_eq(&residuals, &serial_res, "redblack residuals");
        }
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
