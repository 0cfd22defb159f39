//! The runtime executor: drive a [`Compiled`] program through a
//! [`Rank`].
//!
//! The op walk reproduces the array scenarios' structure *exactly*
//! — build every array in declaration order, fill, copyin, emit the
//! `marker` event, run the plan, and finally drain queue 1 under the
//! unified mode — so a DSL program lowered to the same operations as a
//! scenario produces bit-identical residuals, byte-identical stripped
//! metrics and the same virtual end time. The parity suite holds
//! compiled `jacobi.acc` to that standard against
//! `impacc_array::scenarios::jacobi_task` in all three runtime modes.
//!
//! Every device expression — stencil cell, map cell, reduction term,
//! `init(...)` — runs a row at a time: `RowEval` evaluates the lowered
//! expression once per row into row-length buffers, each node's operator
//! matched once per row and applied over the whole row. Reduction loops
//! read several arrays (`sum += x[i] * y[i]`) through
//! [`DistArray::reduce_rows`].

use std::collections::BTreeMap;
use std::sync::Arc;

use impacc_array::{ArraySpec, CartGrid, DistArray, ResProbe, Row, RowFn, StencilRes, StencilSpec};
use impacc_core::Rank;
use parking_lot::Mutex;

use crate::ast::{BinOp, UnOp};
use crate::sema::{
    apply_bin, apply_call, apply_un, builtin1, builtin2, ArrayInfo, Compiled, KExpr, Op, ReduceOp,
};

/// Everything a finished run hands back to the host harness.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Final values of every host scalar.
    pub scalars: BTreeMap<String, f64>,
    /// Gathered global arrays (rank 0 only, and only when real math is
    /// enabled), keyed by array name. Empty unless `gather` was set.
    pub fields: BTreeMap<String, Vec<f64>>,
}

/// Evaluate a host expression over the scalar environment.
pub(crate) fn eval_host(e: &KExpr, env: &BTreeMap<String, f64>) -> f64 {
    let ev = |e| eval_host(e, env);
    match e {
        KExpr::Num(v) => *v,
        KExpr::Scalar(n) => *env.get(n).expect("sema checked scalar visibility"),
        KExpr::Coord(_) | KExpr::At(..) => {
            unreachable!("host expressions read neither coordinates nor arrays")
        }
        KExpr::Un(op, a) => apply_un(*op, ev(a)),
        KExpr::Bin(op, a, b) => apply_bin(*op, ev(a), ev(b)),
        KExpr::Ternary(c, a, b) => {
            if ev(c) != 0.0 {
                ev(a)
            } else {
                ev(b)
            }
        }
        KExpr::Call(f, args) => {
            let vals: Vec<f64> = args.iter().map(ev).collect();
            apply_call(f, &vals)
        }
    }
}

/// What the leaves of a device expression read for one row: the global
/// coordinates of the row's first cell, and the row of values an array
/// read yields.
trait Leaves {
    /// Global coordinate of the row's first cell along dimension `d`.
    fn global(&self, d: usize) -> isize;
    /// The row read by referenced array `slot` at per-dim offsets `offs`.
    fn at(&self, slot: usize, offs: &[isize]) -> &[f64];
}

/// A stencil row: slot 0 (the source array) read at any offset.
impl Leaves for Row<'_> {
    fn global(&self, d: usize) -> isize {
        Row::global(self, d)
    }

    fn at(&self, _slot: usize, offs: &[isize]) -> &[f64] {
        Row::at(self, offs)
    }
}

/// An element-wise row: every slot reads its array's row at the cell
/// itself (map, reduction and `init` expressions have no offsets).
struct Cells<'a> {
    g: &'a [isize],
    rows: &'a [&'a [f64]],
}

impl Leaves for Cells<'_> {
    fn global(&self, d: usize) -> isize {
        self.g[d]
    }

    fn at(&self, slot: usize, _offs: &[isize]) -> &[f64] {
        self.rows[slot]
    }
}

/// A device expression evaluated a row at a time. Each inner node writes
/// its row into the buffer its parent hands it and borrows row buffers
/// from `tmp` for its other operands; [`depth`] buffers suffice. The
/// buffers live as long as the evaluator — one kernel launch — and are
/// sized on its first row.
struct RowEval {
    e: KExpr,
    /// Index of the innermost dimension, along which a row runs.
    last: usize,
    tmp: Vec<Vec<f64>>,
}

impl RowEval {
    fn new(e: &KExpr, ndims: usize) -> RowEval {
        RowEval {
            e: e.clone(),
            last: ndims - 1,
            tmp: vec![Vec::new(); depth(e)],
        }
    }

    /// Write the expression's value at every cell of the row into `out`.
    fn eval(&mut self, lv: &impl Leaves, out: &mut [f64]) {
        for t in &mut self.tmp {
            t.resize(out.len(), 0.0);
        }
        eval_row(&self.e, self.last, lv, out, &mut self.tmp);
    }
}

/// Row buffers [`eval_row`] needs beside its output to evaluate `e`.
fn depth(e: &KExpr) -> usize {
    match e {
        KExpr::Num(_) | KExpr::Coord(_) | KExpr::Scalar(_) | KExpr::At(..) => 0,
        KExpr::Un(_, a) => depth(a),
        KExpr::Bin(_, a, b) => depth(a).max(1 + depth(b)),
        KExpr::Ternary(c, a, b) => depth(c).max(1 + depth(a)).max(2 + depth(b)),
        KExpr::Call(_, args) => args
            .iter()
            .enumerate()
            .map(|(i, a)| i + depth(a))
            .max()
            .unwrap_or(0),
    }
}

/// `out[k] = f(out[k], b[k])` over the row.
fn zip_row(out: &mut [f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for (o, &y) in out.iter_mut().zip(b) {
        *o = f(*o, y);
    }
}

/// Evaluate `e` over one row into `out`, using `tmp` for operands.
fn eval_row(e: &KExpr, last: usize, lv: &impl Leaves, out: &mut [f64], tmp: &mut [Vec<f64>]) {
    match e {
        KExpr::Num(v) => out.fill(*v),
        KExpr::Coord(d) => {
            let g0 = lv.global(*d);
            if *d == last {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = (g0 + k as isize) as f64;
                }
            } else {
                out.fill(g0 as f64);
            }
        }
        KExpr::Scalar(_) => unreachable!("device expressions never read host scalars"),
        KExpr::At(s, offs) => out.copy_from_slice(lv.at(*s, offs)),
        KExpr::Un(op, a) => {
            eval_row(a, last, lv, out, tmp);
            // One loop per operator, as for binary ones below.
            match op {
                UnOp::Neg => out.iter_mut().for_each(|x| *x = apply_un(UnOp::Neg, *x)),
                UnOp::Not => out.iter_mut().for_each(|x| *x = apply_un(UnOp::Not, *x)),
            }
        }
        KExpr::Bin(op, a, b) => {
            eval_row(a, last, lv, out, tmp);
            let (t, rest) = tmp.split_first_mut().expect("depth() sized the buffers");
            eval_row(b, last, lv, t, rest);
            // One loop per operator: `apply_bin` with a constant operator
            // inlines to the bare arithmetic or comparison.
            macro_rules! per_op {
                ($($v:ident),*) => {
                    match op {
                        $(BinOp::$v => zip_row(out, t, |x, y| apply_bin(BinOp::$v, x, y)),)*
                    }
                };
            }
            per_op!(Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Ne, And, Or);
        }
        KExpr::Ternary(c, a, b) => {
            // Both branches are evaluated (device expressions are pure and
            // read in bounds); each cell selects one, never a blend.
            eval_row(c, last, lv, out, tmp);
            let (ta, rest) = tmp.split_first_mut().expect("depth() sized the buffers");
            eval_row(a, last, lv, ta, rest);
            let (tb, rest) = rest.split_first_mut().expect("depth() sized the buffers");
            eval_row(b, last, lv, tb, rest);
            for ((o, &x), &y) in out.iter_mut().zip(ta.iter()).zip(tb.iter()) {
                *o = if *o != 0.0 { x } else { y };
            }
        }
        KExpr::Call(f, args) => {
            eval_row(&args[0], last, lv, out, tmp);
            if let [_, b] = args.as_slice() {
                let (t, rest) = tmp.split_first_mut().expect("depth() sized the buffers");
                eval_row(b, last, lv, t, rest);
                zip_row(out, t, builtin2(f));
            } else {
                let g = builtin1(f);
                out.iter_mut().for_each(|x| *x = g(*x));
            }
        }
    }
}

/// Build the stencil row kernel for a lowered cell expression over
/// `ndims`-d arrays (slot 0 is the source array).
pub(crate) fn row_fn(e: &KExpr, ndims: usize) -> RowFn {
    let ev = Mutex::new(RowEval::new(e, ndims));
    Arc::new(move |r: &Row<'_>, out: &mut [f64]| ev.lock().eval(r, out))
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
    let mut spec = ArraySpec::block(info.shape.clone(), build_grid(info, size), info.halo);
    spec.corners = info.corners;
    spec
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
    sites: Vec<Site>,
    unified: bool,
}

/// One stencil site's state across a run.
#[derive(Default)]
struct Site {
    /// Completed sweeps, for the `1/(sweeps+1)` truncation-fallback
    /// convention.
    sweeps: usize,
    /// The local residual slot. A site's queued kernel writes only its own
    /// slot, so a reducing site never reads a residual another site's
    /// kernel left behind.
    res: StencilRes,
    /// The sweep's spec and row kernel, built on the site's first sweep; a
    /// later sweep sets only `fallback`. Device expressions read no host
    /// scalar, so one kernel serves every sweep.
    kernel: Option<(StencilSpec, RowFn)>,
}

impl Exec<'_> {
    /// Set host scalar `name`, updating its slot in place once it exists.
    fn set(&mut self, name: &str, v: f64) {
        match self.env.get_mut(name) {
            Some(slot) => *slot = v,
            None => {
                self.env.insert(name.to_string(), v);
            }
        }
    }

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
                self.set(name, v);
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
                // A loop nests the plan: its future is boxed, once.
                Box::pin(async {
                    for k in 0..*count {
                        self.set(var, (*lo + k as i64) as f64);
                        self.run_ops(body).await;
                    }
                })
                .await;
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
                let ndims = self.c.arrays[*src].shape.len();
                let st = &mut self.sites[*site];
                let (sspec, f) = st.kernel.get_or_insert_with(|| {
                    let sspec = StencilSpec {
                        margin: margin.clone(),
                        flops_per_cell: *flops,
                        fallback: 0.0,
                        color: None,
                    };
                    (sspec, row_fn(cell, ndims))
                });
                sspec.fallback = 1.0 / (st.sweeps + 1) as f64;
                st.sweeps += 1;
                self.arrays[*src]
                    .stencil(tc, &self.arrays[*dst], sspec, f.clone(), &st.res)
                    .await;
                if let Some(var) = reduce {
                    if self.unified {
                        tc.acc_wait(1).await;
                    }
                    let mine = self.sites[*site].res.get();
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
                    self.set(var, residual[0]);
                }
            }
            Op::Map { arr, flops, cell } => {
                let mut ev = RowEval::new(cell, self.c.arrays[*arr].shape.len());
                let mut old = Vec::new();
                self.arrays[*arr]
                    .map_rows(tc, *flops, move |g, _, vals| {
                        old.clear();
                        old.extend_from_slice(vals);
                        ev.eval(&Cells { g, rows: &[&old] }, vals);
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
                let (anchor, rest) = arrays.split_first().expect("a reduction reads an array");
                let with: Vec<&DistArray> = rest.iter().map(|&i| &self.arrays[i]).collect();
                let mut ev = RowEval::new(cell, self.c.arrays[*anchor].shape.len());
                let v = self.arrays[*anchor]
                    .reduce_rows(tc, &with, *op, *flops, move |g, _, rows, out| {
                        ev.eval(&Cells { g, rows }, out)
                    })
                    .await;
                self.set(var, v);
            }
            Op::Swap { a, b } => {
                if a != b {
                    let (a, b) = two(&mut self.arrays, *a, *b);
                    a.swap(b);
                }
            }
        }
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
    let mut arrays: Vec<DistArray> = Vec::with_capacity(c.arrays.len());
    for info in &c.arrays {
        let spec = array_spec(info, size);
        // Arrays of one declaration share a tile geometry and schedule.
        let arr = match arrays.iter().find(|a| *a.spec() == spec) {
            Some(like) => like.build_like(tc).await,
            None => DistArray::build(tc, &spec).await,
        };
        arrays.push(arr);
    }
    for (arr, info) in arrays.iter().zip(&c.arrays) {
        match &info.init {
            Some(e) => {
                let mut ev = RowEval::new(e, info.shape.len());
                arr.fill_rows(tc, |g, _, out| ev.eval(&Cells { g, rows: &[] }, out));
            }
            None => arr.fill_rows(tc, |_, _, out| out.fill(0.0)),
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
        sites: (0..c.stencil_sites).map(|_| Site::default()).collect(),
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
