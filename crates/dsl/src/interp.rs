//! Serial reference interpreter: the correctness oracle.
//!
//! Runs a compiled program over plain padded host fields — the same
//! ghost-pad semantics the distributed tiles have (pads of the inferred
//! halo depth on grid-mapped dimensions, initialized from `init(...)`
//! at out-of-domain coordinates and never updated) — with no runtime,
//! no decomposition and no cost model. Because every distributed sweep
//! computes each cell from identically-valued neighbours, the gathered
//! distributed field and every globally-reduced `max` residual match
//! this replay *bit for bit*; sum/product folds are exact only when the
//! data makes them order-independent (the shipped `dot.acc` does).

use std::collections::BTreeMap;

use crate::exec::eval_host;
use crate::lex::DslError;
use crate::sema::{apply_bin, apply_call, ArrayInfo, Compiled, KExpr, Op, ReduceOp};

/// Result of a serial run.
#[derive(Debug, Clone, Default)]
pub struct SerialOut {
    /// Final host scalar values.
    pub scalars: BTreeMap<String, f64>,
    /// Residual of every reducing stencil sweep, in execution order.
    pub residuals: Vec<f64>,
    /// Un-padded global fields, row-major, keyed by array name.
    pub fields: BTreeMap<String, Vec<f64>>,
}

struct Field {
    pad: Vec<isize>,
    strides: Vec<isize>,
    vals: Vec<f64>,
}

impl Field {
    fn new(info: &ArrayInfo) -> Field {
        let nd = info.shape.len();
        let mut pad = vec![0isize; nd];
        for p in pad.iter_mut().take(info.grid_nd) {
            *p = info.halo as isize;
        }
        let padded: Vec<usize> = info
            .shape
            .iter()
            .zip(&pad)
            .map(|(s, p)| s + 2 * *p as usize)
            .collect();
        let mut strides = vec![1isize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded[d + 1] as isize;
        }
        let total: usize = padded.iter().product();
        let mut vals = vec![0.0f64; total];
        if let Some(e) = &info.init {
            let mut idx = vec![0usize; nd];
            let mut g = vec![0isize; nd];
            for v in vals.iter_mut() {
                for d in 0..nd {
                    g[d] = idx[d] as isize - pad[d];
                }
                *v = eval_cell(e, &g, &|_, _| {
                    unreachable!("init expressions read no arrays")
                });
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
        }
        Field { pad, strides, vals }
    }

    /// Un-padded global contents, row-major.
    fn interior(&self, shape: &[usize]) -> Vec<f64> {
        let nd = shape.len();
        let total: usize = shape.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; nd];
        for _ in 0..total {
            let lin: isize = (0..nd)
                .map(|d| (idx[d] as isize + self.pad[d]) * self.strides[d])
                .sum();
            out.push(self.vals[lin as usize]);
            let mut d = nd;
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }
}

fn eval_cell(e: &KExpr, g: &[isize], at: &dyn Fn(usize, &[isize]) -> f64) -> f64 {
    match e {
        KExpr::Num(v) => *v,
        KExpr::Coord(d) => g[*d] as f64,
        KExpr::Scalar(_) => unreachable!("device expressions never read host scalars"),
        KExpr::At(s, offs) => at(*s, offs),
        KExpr::Un(op, a) => {
            let a = eval_cell(a, g, at);
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
            let a = eval_cell(a, g, at);
            let b = eval_cell(b, g, at);
            apply_bin(*op, a, b)
        }
        KExpr::Ternary(c, a, b) => {
            if eval_cell(c, g, at) != 0.0 {
                eval_cell(a, g, at)
            } else {
                eval_cell(b, g, at)
            }
        }
        KExpr::Call(f, args) => {
            let vals: Vec<f64> = args.iter().map(|a| eval_cell(a, g, at)).collect();
            apply_call(f, &vals)
        }
    }
}

/// Iterate `idx` row-major over `lo..hi` (padded coordinates), calling
/// `body(idx)`. Returns immediately on an empty box.
fn walk(lo: &[usize], hi: &[usize], mut body: impl FnMut(&[usize])) {
    let nd = lo.len();
    if (0..nd).any(|d| hi[d] <= lo[d]) {
        return;
    }
    let mut idx = lo.to_vec();
    'cells: loop {
        body(&idx);
        let mut d = nd;
        loop {
            if d == 0 {
                break 'cells;
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

struct Interp<'a> {
    c: &'a Compiled,
    fields: Vec<Field>,
    env: BTreeMap<String, f64>,
    residuals: Vec<f64>,
}

impl Interp<'_> {
    fn run_ops(&mut self, ops: &[Op]) -> Result<(), DslError> {
        for op in ops {
            self.run_op(op)?;
        }
        Ok(())
    }

    fn run_op(&mut self, op: &Op) -> Result<(), DslError> {
        match op {
            // Serial world: one domain, nothing to exchange or split.
            Op::CommSplitShared | Op::Exchange { .. } => {}
            Op::SetScalar { name, value } => {
                let v = eval_host(value, &self.env);
                self.env.insert(name.clone(), v);
            }
            Op::Assert { value, text } => {
                if eval_host(value, &self.env) == 0.0 {
                    return Err(DslError::new(0, format!("assert failed: {text}")));
                }
            }
            Op::For {
                var,
                lo,
                count,
                body,
            } => {
                for k in 0..*count {
                    self.env.insert(var.clone(), (*lo + k as i64) as f64);
                    self.run_ops(body)?;
                }
            }
            Op::Stencil {
                src,
                dst,
                margin,
                cell,
                reduce,
                ..
            } => {
                let shape = &self.c.arrays[*src].shape;
                let nd = shape.len();
                let sf = &self.fields[*src];
                let lo: Vec<usize> = (0..nd).map(|d| sf.pad[d] as usize + margin[d].0).collect();
                let hi: Vec<usize> = (0..nd)
                    .map(|d| sf.pad[d] as usize + shape[d] - margin[d].1)
                    .collect();
                let src_vals = sf.vals.clone();
                let strides = sf.strides.clone();
                let pad = sf.pad.clone();
                let mut res = 0.0f64;
                let mut updates: Vec<(usize, f64)> = Vec::new();
                let mut g = vec![0isize; nd];
                walk(&lo, &hi, |idx| {
                    let mut lin = 0isize;
                    for d in 0..nd {
                        lin += idx[d] as isize * strides[d];
                        g[d] = idx[d] as isize - pad[d];
                    }
                    let lin = lin as usize;
                    let at = |_s: usize, offs: &[isize]| {
                        let mut i = lin as isize;
                        for (d, o) in offs.iter().enumerate() {
                            i += o * strides[d];
                        }
                        src_vals[i as usize]
                    };
                    let next = eval_cell(cell, &g, &at);
                    res = res.max((next - src_vals[lin]).abs());
                    updates.push((lin, next));
                });
                for (lin, v) in updates {
                    self.fields[*dst].vals[lin] = v;
                }
                if let Some(var) = reduce {
                    self.residuals.push(res);
                    self.env.insert(var.clone(), res);
                }
            }
            Op::Map { arr, cell, .. } => {
                let shape = &self.c.arrays[*arr].shape;
                let nd = shape.len();
                let f = &self.fields[*arr];
                let lo: Vec<usize> = f.pad.iter().map(|&p| p as usize).collect();
                let hi: Vec<usize> = (0..nd).map(|d| f.pad[d] as usize + shape[d]).collect();
                let strides = f.strides.clone();
                let pad = f.pad.clone();
                let old = f.vals.clone();
                let mut updates: Vec<(usize, f64)> = Vec::new();
                let mut g = vec![0isize; nd];
                walk(&lo, &hi, |idx| {
                    let mut lin = 0isize;
                    for d in 0..nd {
                        lin += idx[d] as isize * strides[d];
                        g[d] = idx[d] as isize - pad[d];
                    }
                    let lin = lin as usize;
                    let next = eval_cell(cell, &g, &|_, _| old[lin]);
                    updates.push((lin, next));
                });
                for (lin, v) in updates {
                    self.fields[*arr].vals[lin] = v;
                }
            }
            Op::Reduce {
                arrays,
                op,
                var,
                cell,
                ..
            } => {
                let shape = &self.c.arrays[arrays[0]].shape;
                let nd = shape.len();
                let anchor = &self.fields[arrays[0]];
                let lo: Vec<usize> = anchor.pad.iter().map(|&p| p as usize).collect();
                let hi: Vec<usize> = (0..nd).map(|d| anchor.pad[d] as usize + shape[d]).collect();
                let strides = anchor.strides.clone();
                let pad = anchor.pad.clone();
                let data: Vec<&Vec<f64>> = arrays.iter().map(|&i| &self.fields[i].vals).collect();
                let mut acc: Option<f64> = None;
                let mut g = vec![0isize; nd];
                walk(&lo, &hi, |idx| {
                    let mut lin = 0isize;
                    for d in 0..nd {
                        lin += idx[d] as isize * strides[d];
                        g[d] = idx[d] as isize - pad[d];
                    }
                    let lin = lin as usize;
                    let v = eval_cell(cell, &g, &|s, _| data[s][lin]);
                    acc = Some(match (acc, op) {
                        (None, _) => v,
                        (Some(a), ReduceOp::Sum) => a + v,
                        (Some(a), ReduceOp::Max) => a.max(v),
                        (Some(a), ReduceOp::Min) => a.min(v),
                        (Some(a), ReduceOp::Prod) => a * v,
                    });
                });
                let v = acc.unwrap_or(match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Max => f64::MIN,
                    ReduceOp::Min => f64::MAX,
                    ReduceOp::Prod => 1.0,
                });
                self.env.insert(var.clone(), v);
            }
            Op::Swap { a, b } => {
                if a != b {
                    let (x, y) = (*a.min(b), *a.max(b));
                    let (lo, hi) = self.fields.split_at_mut(y);
                    std::mem::swap(&mut lo[x].vals, &mut hi[0].vals);
                }
            }
        }
        Ok(())
    }
}

/// Run the program serially. Errors only on a failed `assert(...)`.
pub fn interpret_serial(c: &Compiled) -> Result<SerialOut, DslError> {
    let fields: Vec<Field> = c.arrays.iter().map(Field::new).collect();
    let mut env = BTreeMap::new();
    for (name, v) in &c.params {
        env.insert(name.clone(), *v);
    }
    let mut it = Interp {
        c,
        fields,
        env,
        residuals: Vec::new(),
    };
    it.run_ops(&c.plan)?;
    let mut out = SerialOut {
        scalars: it.env,
        residuals: it.residuals,
        fields: BTreeMap::new(),
    };
    for (i, info) in c.arrays.iter().enumerate() {
        out.fields
            .insert(info.name.clone(), it.fields[i].interior(&info.shape));
    }
    Ok(out)
}
