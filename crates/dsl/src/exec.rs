//! The runtime executor: drive a [`Compiled`] program through a
//! [`Rank`].
//!
//! The op walk reproduces the hand-written scenario structure *exactly*
//! — build every array in declaration order, fill, copyin, emit the
//! `marker` event, run the plan, and finally drain queue 1 under the
//! unified mode — so a DSL program lowered to the same operations as a
//! hand-written task produces bit-identical residuals, byte-identical
//! stripped metrics and the same virtual end time. The parity suite
//! holds compiled `jacobi.acc` to that standard against
//! `jacobi_array_task` in all three runtime modes.
//!
//! Reduction loops are hand-lowered (rather than calling
//! [`DistArray::reduce`]) because their cell expressions may read
//! several arrays (`sum += x[i] * y[i]`), but the lowering mirrors
//! `reduce` operation for operation: device fold kernel on the unified
//! queue, queue drain, identity for empty ranks, allreduce under an
//! `array.redist` span.

use std::collections::BTreeMap;
use std::sync::Arc;

use impacc_array::{math_ok, ArraySpec, CartGrid, Cell, CellFn, DistArray, ResProbe, StencilSpec};
use impacc_core::{BufView, Rank};
use impacc_machine::KernelCost;
use parking_lot::Mutex;

use crate::sema::{apply_bin, apply_call, ArrayInfo, Compiled, KExpr, Op, ReduceOp};

/// Everything a finished run hands back to the host harness.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Final values of every host scalar.
    pub scalars: BTreeMap<String, f64>,
    /// Gathered global arrays (rank 0 only, and only when real math is
    /// enabled), keyed by array name. Empty unless `gather` was set.
    pub fields: BTreeMap<String, Vec<f64>>,
}

/// Evaluate a lowered expression. The three handlers supply the leaves;
/// contexts that cannot produce a leaf kind panic inside their handler
/// (semantic analysis rules those programs out).
fn eval(
    e: &KExpr,
    coord: &dyn Fn(usize) -> f64,
    at: &dyn Fn(usize, &[isize]) -> f64,
    scalar: &dyn Fn(&str) -> f64,
) -> f64 {
    match e {
        KExpr::Num(v) => *v,
        KExpr::Coord(d) => coord(*d),
        KExpr::Scalar(n) => scalar(n),
        KExpr::At(s, offs) => at(*s, offs),
        KExpr::Un(op, a) => {
            let a = eval(a, coord, at, scalar);
            match op {
                crate::ast::UnOp::Neg => -a,
                crate::ast::UnOp::Not => {
                    if a == 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        }
        KExpr::Bin(op, a, b) => {
            let a = eval(a, coord, at, scalar);
            let b = eval(b, coord, at, scalar);
            apply_bin(*op, a, b)
        }
        KExpr::Ternary(c, a, b) => {
            if eval(c, coord, at, scalar) != 0.0 {
                eval(a, coord, at, scalar)
            } else {
                eval(b, coord, at, scalar)
            }
        }
        KExpr::Call(f, args) => {
            let vals: Vec<f64> = args.iter().map(|a| eval(a, coord, at, scalar)).collect();
            apply_call(f, &vals)
        }
    }
}

fn no_at(_: usize, _: &[isize]) -> f64 {
    unreachable!("host expressions never read arrays")
}

fn no_scalar(_: &str) -> f64 {
    unreachable!("device expressions never read host scalars")
}

/// Evaluate a host expression over the scalar environment.
pub(crate) fn eval_host(e: &KExpr, env: &BTreeMap<String, f64>) -> f64 {
    eval(
        e,
        &|_| unreachable!("host expressions have no coordinates"),
        &no_at,
        &|n| *env.get(n).expect("sema checked scalar visibility"),
    )
}

/// Evaluate an `init(...)` expression at global coordinates `g`.
pub(crate) fn eval_init(e: &KExpr, g: &[isize]) -> f64 {
    eval(e, &|d| g[d] as f64, &no_at, &no_scalar)
}

/// Build the stencil cell closure for a lowered cell expression
/// (slot 0 is the source array).
pub(crate) fn cell_fn(e: &KExpr) -> CellFn {
    let e = e.clone();
    Arc::new(move |c: &Cell<'_>| {
        eval(
            &e,
            &|d| c.global(d) as f64,
            &|_, offs| c.at(offs),
            &no_scalar,
        )
    })
}

fn build_grid(info: &ArrayInfo, size: usize) -> CartGrid {
    if info.grid_nd == 1 {
        CartGrid::line(size)
    } else {
        CartGrid::new(size, info.grid_nd)
    }
}

/// The [`ArraySpec`] a declaration lowers to for a launch of `size`
/// ranks.
pub fn array_spec(info: &ArrayInfo, size: usize) -> ArraySpec {
    ArraySpec::block(info.shape.clone(), build_grid(info, size), info.halo)
}

fn two(v: &mut [DistArray], a: usize, b: usize) -> (&mut DistArray, &mut DistArray) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

struct Exec<'a> {
    tc: &'a Rank,
    c: &'a Compiled,
    arrays: Vec<DistArray>,
    env: BTreeMap<String, f64>,
    probe: Option<&'a ResProbe>,
    /// Completed sweeps per stencil site, for the `1/(sweeps+1)`
    /// truncation-fallback convention.
    sweeps: Vec<usize>,
    unified: bool,
}

impl Exec<'_> {
    async fn run_ops(&mut self, ops: &[Op]) {
        for op in ops {
            self.run_op(op).await;
        }
    }

    async fn run_op(&mut self, op: &Op) {
        let tc = self.tc;
        match op {
            Op::CommSplitShared => {
                // The testmpi.cpp idiom: split by node, bind the device
                // indexed by the shared-memory rank. Under IMPACC the
                // set call is a documented no-op — the launcher already
                // bound compactly, which is exactly this mapping when
                // the node has one device per task.
                let shm = tc.mpi_comm_split(tc.node() as i64, tc.rank() as i64).await;
                let shmrank = shm.rel_of(tc.rank()).unwrap_or(0) as usize;
                tc.acc_set_device_num(shmrank);
                if shm.size() as usize == tc.acc_get_num_devices(tc.acc_device_kind()) {
                    assert_eq!(
                        tc.acc_get_device_num(),
                        shmrank,
                        "compact binding must equal the shared-memory rank"
                    );
                }
            }
            Op::SetScalar { name, value } => {
                let v = eval_host(value, &self.env);
                self.env.insert(name.clone(), v);
            }
            Op::Assert { value, text } => {
                assert!(
                    eval_host(value, &self.env) != 0.0,
                    "dsl assert failed: {text}"
                );
            }
            Op::For {
                var,
                lo,
                count,
                body,
            } => {
                for k in 0..*count {
                    self.env.insert(var.clone(), (*lo + k as i64) as f64);
                    // A loop nests the plan: its body's future is boxed.
                    Box::pin(self.run_ops(body)).await;
                }
            }
            Op::Exchange { arr } => self.arrays[*arr].exchange(tc).await,
            Op::Stencil {
                site,
                src,
                dst,
                margin,
                flops,
                cell,
                reduce,
            } => {
                let sspec = StencilSpec {
                    margin: margin.clone(),
                    flops_per_cell: *flops,
                    fallback: 1.0 / (self.sweeps[*site] + 1) as f64,
                    color: None,
                };
                self.sweeps[*site] += 1;
                let res = self.arrays[*src]
                    .stencil(tc, &self.arrays[*dst], &sspec, cell_fn(cell))
                    .await;
                if let Some(var) = reduce {
                    if self.unified {
                        tc.acc_wait(1).await;
                    }
                    let mine = res.get();
                    let residual = tc.mpi_allreduce_f64(&[mine], ReduceOp::Max).await;
                    assert!(
                        residual[0].is_finite() && residual[0] >= mine,
                        "global residual must bound the local one"
                    );
                    if let Some(pr) = self.probe {
                        if tc.rank() == 0 {
                            pr.push(residual[0]);
                        }
                    }
                    self.env.insert(var.clone(), residual[0]);
                }
            }
            Op::Map { arr, flops, cell } => {
                let e = cell.clone();
                self.arrays[*arr]
                    .map(tc, *flops, move |g, old| {
                        eval(&e, &|d| g[d] as f64, &|_, _| old, &no_scalar)
                    })
                    .await;
            }
            Op::Reduce {
                arrays,
                op,
                var,
                flops,
                cell,
            } => {
                let v = self.run_reduce(arrays, *op, *flops, cell).await;
                self.env.insert(var.clone(), v);
            }
            Op::Swap { a, b } => {
                if a != b {
                    let (a, b) = two(&mut self.arrays, *a, *b);
                    a.swap(b);
                }
            }
        }
    }

    /// Multi-array fold + allreduce, operation-for-operation parallel to
    /// [`DistArray::reduce`].
    async fn run_reduce(&mut self, idxs: &[usize], op: ReduceOp, flops: f64, cell: &KExpr) -> f64 {
        let tc = self.tc;
        let anchor = &self.arrays[idxs[0]];
        let local: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
        if !anchor.is_empty() {
            let views: Vec<BufView> = idxs
                .iter()
                .map(|&i| tc.dev_view(self.arrays[i].buf()))
                .collect();
            let nd = anchor.padded().len();
            let region = anchor.owned_region();
            let (plo, phi) = (region.lo, region.hi);
            let total: usize = anchor.padded().iter().product();
            let padded = anchor.padded().to_vec();
            let mut strides = vec![1isize; nd];
            for d in (0..nd.saturating_sub(1)).rev() {
                strides[d] = strides[d + 1] * padded[d + 1] as isize;
            }
            let offsets = anchor.offsets().to_vec();
            let info = &self.c.arrays[idxs[0]];
            let mut pad = vec![0isize; nd];
            for p in pad.iter_mut().take(info.grid_nd) {
                *p = info.halo as isize;
            }
            let e = cell.clone();
            let slot = local.clone();
            let body = move || {
                if views.iter().any(|v| !math_ok(v)) {
                    *slot.lock() = Some(0.0);
                    return;
                }
                let views: Vec<&BufView> = views.iter().collect();
                *slot.lock() = BufView::with_views(&views, |data| {
                    let mut acc: Option<f64> = None;
                    let mut idx = plo.clone();
                    let mut g = vec![0isize; nd];
                    'cells: loop {
                        let mut lin = 0isize;
                        for d in 0..nd {
                            lin += idx[d] as isize * strides[d];
                            g[d] = offsets[d] as isize + idx[d] as isize - pad[d];
                        }
                        let lin = lin as usize;
                        let v = eval(&e, &|d| g[d] as f64, &|s, _| data[s][lin], &no_scalar);
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
                flops * anchor.owned_cells().max(1) as f64,
                idxs.len() as f64 * total as f64 * 8.0,
            );
            let q = self.unified.then_some(1);
            tc.acc_kernel(q, cost, body).await;
        }
        if self.unified {
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
}

/// Execute a compiled program on one task. Collective: every launched
/// rank must call it with the same `Compiled`.
///
/// `probe` records every globally-reduced stencil residual on rank 0;
/// `gather` additionally collects each global array to rank 0's host at
/// the end (extra simulated traffic — leave off for tick-parity runs).
pub async fn run_program(
    tc: &Rank,
    c: &Compiled,
    probe: Option<&ResProbe>,
    gather: bool,
) -> RunOut {
    let size = tc.size() as usize;
    let mut arrays = Vec::with_capacity(c.arrays.len());
    for info in &c.arrays {
        arrays.push(DistArray::build(tc, &array_spec(info, size)).await);
    }
    for (arr, info) in arrays.iter().zip(&c.arrays) {
        match &info.init {
            Some(e) => {
                let e = e.clone();
                arr.fill(tc, move |g| eval_init(&e, g));
            }
            None => arr.fill(tc, |_| 0.0),
        }
    }
    for arr in &arrays {
        arr.to_device(tc).await;
    }
    tc.ctx()
        .event("marker", || vec![("phase", "sweep".to_string())]);

    let unified = tc.options().is_impacc() && tc.options().unified_queue;
    let mut params: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v) in &c.params {
        params.insert(name.clone(), *v);
    }
    let mut ex = Exec {
        tc,
        c,
        arrays,
        env: params,
        probe,
        sweeps: vec![0; c.stencil_sites],
        unified,
    };
    ex.run_ops(&c.plan).await;
    if unified && c.has_device_ops {
        tc.acc_wait(1).await;
    }

    let mut out = RunOut {
        scalars: ex.env,
        fields: BTreeMap::new(),
    };
    if gather {
        for (i, info) in c.arrays.iter().enumerate() {
            if let Some(vals) = ex.arrays[i].gather(tc, 0).await {
                out.fields.insert(info.name.clone(), vals);
            }
        }
    }
    out
}
