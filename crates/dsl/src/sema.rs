//! Semantic analysis and lowering.
//!
//! This is the IPMACC move: classify every `#pragma acc`-annotated loop
//! nest by its subscript structure and lower it onto the runtime's
//! distributed-array operations —
//!
//! * an assignment whose right-hand side reads one *other* array at
//!   constant offsets is a **stencil** sweep (`DistArray::stencil`),
//!   preceded by the halo exchange its offsets imply;
//! * an assignment reading no neighbours is a **map**
//!   (`DistArray::map`);
//! * `acc += expr` under a `reduction` clause is a device **fold**
//!   followed by an `MPI_Allreduce` — the testmpi.cpp pattern.
//!
//! Halo depths are *inferred*: the ghost depth of an array is the
//! largest grid-mapped subscript offset any stencil reads from it, and
//! arrays connected by stencils, swaps or shared reductions are forced
//! into one congruence group (equal shape, grid and halo) so their
//! padded tiles line up.
//!
//! The flop model matches the hand-written scenarios: each `+ - * /`
//! (and builtin call) in a kernel expression costs one flop per cell, a
//! stencil residual reduction adds two (the subtract + max fold a delta
//! residual performs), and a fold loop adds one for the combine.

use std::collections::{BTreeMap, BTreeSet};

use impacc_directives::parse_acc_directive;
pub use impacc_mpi::ReduceOp;

use crate::ast::{BinOp, Expr, Item, Kernel, Program, Stmt, UnOp};
use crate::lex::DslError;

/// Coordinate spellings in `init(...)` expressions and plan dumps:
/// `i`/`j`/`k`/`l` name global dimensions 0–3.
pub const COORD_NAMES: [&str; 4] = ["i", "j", "k", "l"];

/// A fully resolved array declaration.
#[derive(Debug, Clone)]
pub struct ArrayInfo {
    /// Array name.
    pub name: String,
    /// Global extents.
    pub shape: Vec<usize>,
    /// Decomposition grid dimensionality (1 = row blocks).
    pub grid_nd: usize,
    /// Inferred ghost depth on grid-mapped dimensions.
    pub halo: usize,
    /// Exchange edge and corner ghosts too: a stencil reads this array,
    /// or one congruent with it, at an offset that moves along two
    /// grid-mapped dimensions at once (a diagonal read).
    pub corners: bool,
    /// Initial value over global coordinates (ghosts included);
    /// `None` = all zeros.
    pub init: Option<KExpr>,
}

/// A lowered kernel expression: references are resolved, parameters are
/// constant-folded, and array reads carry their inferred offsets.
#[derive(Debug, Clone, PartialEq)]
pub enum KExpr {
    /// Constant.
    Num(f64),
    /// Global coordinate along dimension `d`.
    Coord(usize),
    /// A host scalar (host expressions only).
    Scalar(String),
    /// Read of referenced array `slot` at the given per-dim offsets.
    At(usize, Vec<isize>),
    /// Unary operation.
    Un(UnOp, Box<KExpr>),
    /// Binary operation.
    Bin(BinOp, Box<KExpr>, Box<KExpr>),
    /// `c ? a : b` (selects, never blends — bit-exact branches).
    Ternary(Box<KExpr>, Box<KExpr>, Box<KExpr>),
    /// Builtin call.
    Call(String, Vec<KExpr>),
}

impl KExpr {
    /// Render for the plan dump; `slots` names the referenced arrays.
    pub fn pretty(&self, slots: &[String]) -> String {
        match self {
            KExpr::Num(v) => format!("{v:?}"),
            KExpr::Coord(d) => COORD_NAMES.get(*d).unwrap_or(&"?").to_string(),
            KExpr::Scalar(n) => n.clone(),
            KExpr::At(s, offs) => {
                let name = slots.get(*s).map(|s| s.as_str()).unwrap_or("?");
                let offs: Vec<String> = offs.iter().map(|o| o.to_string()).collect();
                format!("{name}@[{}]", offs.join(", "))
            }
            KExpr::Un(op, e) => format!(
                "({}{})",
                match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                },
                e.pretty(slots)
            ),
            KExpr::Bin(op, a, b) => {
                format!("({} {} {})", a.pretty(slots), op.sym(), b.pretty(slots))
            }
            KExpr::Ternary(c, a, b) => format!(
                "({} ? {} : {})",
                c.pretty(slots),
                a.pretty(slots),
                b.pretty(slots)
            ),
            KExpr::Call(f, args) => {
                let parts: Vec<String> = args.iter().map(|a| a.pretty(slots)).collect();
                format!("{}({})", f, parts.join(", "))
            }
        }
    }
}

/// One lowered operation. Array operands are indices into
/// [`Compiled::arrays`].
#[derive(Debug, Clone)]
pub enum Op {
    /// Split the world communicator by node and bind the device indexed
    /// by the shared-memory rank.
    CommSplitShared,
    /// Host scalar write.
    SetScalar {
        /// Scalar name.
        name: String,
        /// Value (host expression).
        value: KExpr,
    },
    /// Host-side assertion.
    Assert {
        /// Condition (nonzero = pass).
        value: KExpr,
        /// Source text for the failure message.
        text: String,
    },
    /// Sequential host loop.
    For {
        /// Counter name (visible to host expressions in the body).
        var: String,
        /// First value.
        lo: i64,
        /// Trip count.
        count: usize,
        /// Body operations.
        body: Vec<Op>,
    },
    /// Halo exchange on the inferred schedule.
    Exchange {
        /// Array to refresh.
        arr: usize,
    },
    /// One stencil sweep reading `src`, writing `dst`.
    Stencil {
        /// Stable per-source-site id (fallback residuals count sweeps
        /// per site, matching the hand-written `1/(it+1)` convention).
        site: usize,
        /// Source array.
        src: usize,
        /// Destination array.
        dst: usize,
        /// Per-dimension global margins from the loop bounds.
        margin: Vec<(usize, usize)>,
        /// Flops per cell.
        flops: f64,
        /// Cell expression (slot 0 = `src`).
        cell: KExpr,
        /// `reduction(max:var)`: allreduce the delta residual into
        /// `var` after the sweep.
        reduce: Option<String>,
    },
    /// Element-wise update of one array.
    Map {
        /// Updated array (slot 0 = its own old value).
        arr: usize,
        /// Flops per cell.
        flops: f64,
        /// Cell expression.
        cell: KExpr,
    },
    /// Device fold + `MPI_Allreduce` into a host scalar.
    Reduce {
        /// Referenced arrays (slots of `cell`, in first-read order).
        arrays: Vec<usize>,
        /// Combine operator.
        op: ReduceOp,
        /// Destination scalar.
        var: String,
        /// Flops per element.
        flops: f64,
        /// Per-element contribution.
        cell: KExpr,
    },
    /// Exchange two congruent arrays (host metadata only).
    Swap {
        /// First array.
        a: usize,
        /// Second array.
        b: usize,
    },
}

/// A compiled program: resolved parameters, congruence-grouped array
/// declarations, and the lowered operation plan.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The original source text.
    pub source: String,
    /// The parsed AST.
    pub program: Program,
    /// Parameters after overrides, in declaration order.
    pub params: Vec<(String, f64)>,
    /// Array declarations with inferred halos.
    pub arrays: Vec<ArrayInfo>,
    /// The lowered plan.
    pub plan: Vec<Op>,
    /// Number of stencil sites (distinct source-level stencil loops).
    pub stencil_sites: usize,
    /// True when the plan issues any device kernel (the executor then
    /// drains queue 1 at program end under the unified mode, exactly
    /// like the hand-written scenarios).
    pub has_device_ops: bool,
}

impl Compiled {
    /// The program's *normal form*: its canonical pretty-printed source
    /// with every `param` default replaced by the value it resolved to.
    /// A shipped example, the same source inlined, and a default spelled
    /// out as an override all share one normal form; any source edit or
    /// effective-parameter change moves it. Content addresses of
    /// compiled programs are taken over this text.
    pub fn normal_form(&self) -> String {
        self.program.pretty_resolved(&self.params)
    }
}

fn err(message: impl Into<String>) -> DslError {
    DslError::new(0, message)
}

fn const_eval(e: &Expr, env: &BTreeMap<String, f64>) -> Result<f64, DslError> {
    match e {
        Expr::Num(v) => Ok(*v),
        Expr::Var(n) => env
            .get(n)
            .copied()
            .ok_or_else(|| err(format!("'{n}' is not a compile-time constant"))),
        Expr::Index(n, _) => Err(err(format!("array '{n}' used where a constant is needed"))),
        Expr::Un(op, a) => Ok(apply_un(*op, const_eval(a, env)?)),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_eval(a, env)?, const_eval(b, env)?);
            Ok(apply_bin(*op, a, b))
        }
        Expr::Ternary(c, a, b) => {
            if const_eval(c, env)? != 0.0 {
                const_eval(a, env)
            } else {
                const_eval(b, env)
            }
        }
        Expr::Call(f, args) => {
            let vals: Vec<f64> = args
                .iter()
                .map(|a| const_eval(a, env))
                .collect::<Result<_, _>>()?;
            Ok(apply_call(f, &vals))
        }
    }
}

fn truth(t: bool) -> f64 {
    if t {
        1.0
    } else {
        0.0
    }
}

pub(crate) fn apply_un(op: UnOp, a: f64) -> f64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Not => truth(a == 0.0),
    }
}

pub(crate) fn apply_bin(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Lt => truth(a < b),
        BinOp::Le => truth(a <= b),
        BinOp::Gt => truth(a > b),
        BinOp::Ge => truth(a >= b),
        BinOp::Eq => truth(a == b),
        BinOp::Ne => truth(a != b),
        BinOp::And => truth(a != 0.0 && b != 0.0),
        BinOp::Or => truth(a != 0.0 || b != 0.0),
    }
}

/// The one-argument builtin named `f`.
pub(crate) fn builtin1(f: &str) -> fn(f64) -> f64 {
    match f {
        "abs" => f64::abs,
        "sqrt" => f64::sqrt,
        _ => unreachable!("parser admits only abs/sqrt with one argument"),
    }
}

/// The two-argument builtin named `f`.
pub(crate) fn builtin2(f: &str) -> fn(f64, f64) -> f64 {
    match f {
        "min" => f64::min,
        "max" => f64::max,
        _ => unreachable!("parser admits only min/max with two arguments"),
    }
}

pub(crate) fn apply_call(f: &str, args: &[f64]) -> f64 {
    match *args {
        [a] => builtin1(f)(a),
        [a, b] => builtin2(f)(a, b),
        _ => unreachable!("parser admits builtins of one or two arguments"),
    }
}

fn as_index(v: f64, what: &str) -> Result<i64, DslError> {
    if v.fract() != 0.0 || !v.is_finite() {
        return Err(err(format!("{what} must be an integer, got {v}")));
    }
    Ok(v as i64)
}

/// Count the arithmetic operations (and builtin calls) in a lowered
/// expression — the per-cell flop charge.
pub fn arith_ops(e: &KExpr) -> f64 {
    match e {
        KExpr::Num(_) | KExpr::Coord(_) | KExpr::Scalar(_) | KExpr::At(..) => 0.0,
        KExpr::Un(_, a) => arith_ops(a),
        KExpr::Bin(op, a, b) => {
            (if op.is_arith() { 1.0 } else { 0.0 }) + arith_ops(a) + arith_ops(b)
        }
        KExpr::Ternary(c, a, b) => arith_ops(c) + arith_ops(a) + arith_ops(b),
        KExpr::Call(_, args) => 1.0 + args.iter().map(arith_ops).sum::<f64>(),
    }
}

fn collect_ats(e: &KExpr, out: &mut Vec<(usize, Vec<isize>)>) {
    match e {
        KExpr::At(s, offs) => out.push((*s, offs.clone())),
        KExpr::Un(_, a) => collect_ats(a, out),
        KExpr::Bin(_, a, b) => {
            collect_ats(a, out);
            collect_ats(b, out);
        }
        KExpr::Ternary(c, a, b) => {
            collect_ats(c, out);
            collect_ats(a, out);
            collect_ats(b, out);
        }
        KExpr::Call(_, args) => {
            for a in args {
                collect_ats(a, out);
            }
        }
        _ => {}
    }
}

struct Analyzer {
    params: BTreeMap<String, f64>,
    param_order: Vec<(String, f64)>,
    array_names: Vec<String>,
    shapes: Vec<Vec<usize>>,
    grid_explicit: Vec<Option<u32>>,
    init_exprs: Vec<Option<Expr>>,
    halo_need: Vec<usize>,
    corners_need: Vec<bool>,
    group: Vec<usize>,
    scalars: BTreeSet<String>,
    stencil_sites: usize,
}

impl Analyzer {
    fn array_idx(&self, name: &str) -> Option<usize> {
        self.array_names.iter().position(|n| n == name)
    }

    fn root(&mut self, mut i: usize) -> usize {
        while self.group[i] != i {
            self.group[i] = self.group[self.group[i]];
            i = self.group[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) -> Result<(), DslError> {
        if self.shapes[a] != self.shapes[b] {
            return Err(err(format!(
                "arrays '{}' and '{}' must be congruent (same shape) to share a kernel",
                self.array_names[a], self.array_names[b]
            )));
        }
        let (ra, rb) = (self.root(a), self.root(b));
        self.group[rb] = ra;
        Ok(())
    }

    fn grid_nd_of(&self, i: usize) -> usize {
        self.grid_explicit[i].unwrap_or(1) as usize
    }

    // Lower a device kernel expression; `refs` accumulates the
    // referenced arrays (slot order) and `loop_vars` are the nest
    // indices outermost-first.
    fn lower_device(
        &self,
        e: &Expr,
        loop_vars: &[String],
        refs: &mut Vec<usize>,
    ) -> Result<KExpr, DslError> {
        match e {
            Expr::Num(v) => Ok(KExpr::Num(*v)),
            Expr::Var(n) => {
                if let Some(d) = loop_vars.iter().position(|v| v == n) {
                    Ok(KExpr::Coord(d))
                } else if let Some(v) = self.params.get(n) {
                    Ok(KExpr::Num(*v))
                } else {
                    Err(err(format!(
                        "'{n}' is not visible in a device kernel (only loop indices and params are)"
                    )))
                }
            }
            Expr::Index(name, subs) => {
                let idx = self
                    .array_idx(name)
                    .ok_or_else(|| err(format!("unknown array '{name}'")))?;
                if subs.len() != loop_vars.len() || subs.len() != self.shapes[idx].len() {
                    return Err(err(format!(
                        "'{name}' has rank {}, but the loop nest is {}-deep",
                        self.shapes[idx].len(),
                        loop_vars.len()
                    )));
                }
                let mut offs = Vec::with_capacity(subs.len());
                for (d, sub) in subs.iter().enumerate() {
                    offs.push(self.subscript_offset(sub, &loop_vars[d], name)?);
                }
                let slot = match refs.iter().position(|&r| r == idx) {
                    Some(s) => s,
                    None => {
                        refs.push(idx);
                        refs.len() - 1
                    }
                };
                Ok(KExpr::At(slot, offs))
            }
            Expr::Un(op, a) => Ok(KExpr::Un(
                *op,
                Box::new(self.lower_device(a, loop_vars, refs)?),
            )),
            Expr::Bin(op, a, b) => Ok(KExpr::Bin(
                *op,
                Box::new(self.lower_device(a, loop_vars, refs)?),
                Box::new(self.lower_device(b, loop_vars, refs)?),
            )),
            Expr::Ternary(c, a, b) => Ok(KExpr::Ternary(
                Box::new(self.lower_device(c, loop_vars, refs)?),
                Box::new(self.lower_device(a, loop_vars, refs)?),
                Box::new(self.lower_device(b, loop_vars, refs)?),
            )),
            Expr::Call(f, args) => Ok(KExpr::Call(
                f.clone(),
                args.iter()
                    .map(|a| self.lower_device(a, loop_vars, refs))
                    .collect::<Result<_, _>>()?,
            )),
        }
    }

    // `v`, `v + c` or `v - c` where `c` is parameter-constant.
    fn subscript_offset(&self, sub: &Expr, var: &str, array: &str) -> Result<isize, DslError> {
        let bad = || {
            err(format!(
                "subscript of '{array}' must be '{var}', '{var} + c' or '{var} - c' \
                 with c a parameter constant"
            ))
        };
        match sub {
            Expr::Var(v) if v == var => Ok(0),
            Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => match a.as_ref() {
                Expr::Var(v) if v == var => {
                    let c = const_eval(b, &self.params).map_err(|_| bad())?;
                    let c = as_index(c, "a subscript offset")?;
                    Ok(if *op == BinOp::Add { c } else { -c } as isize)
                }
                _ => Err(bad()),
            },
            _ => Err(bad()),
        }
    }

    fn lower_host(&self, e: &Expr) -> Result<KExpr, DslError> {
        match e {
            Expr::Num(v) => Ok(KExpr::Num(*v)),
            Expr::Var(n) => {
                if let Some(v) = self.params.get(n) {
                    Ok(KExpr::Num(*v))
                } else if self.scalars.contains(n) {
                    Ok(KExpr::Scalar(n.clone()))
                } else {
                    Err(err(format!("unknown scalar '{n}' in host expression")))
                }
            }
            Expr::Index(n, _) => Err(err(format!(
                "array '{n}' cannot be read in a host expression (use a reduction loop)"
            ))),
            Expr::Un(op, a) => Ok(KExpr::Un(*op, Box::new(self.lower_host(a)?))),
            Expr::Bin(op, a, b) => Ok(KExpr::Bin(
                *op,
                Box::new(self.lower_host(a)?),
                Box::new(self.lower_host(b)?),
            )),
            Expr::Ternary(c, a, b) => Ok(KExpr::Ternary(
                Box::new(self.lower_host(c)?),
                Box::new(self.lower_host(a)?),
                Box::new(self.lower_host(b)?),
            )),
            Expr::Call(f, args) => Ok(KExpr::Call(
                f.clone(),
                args.iter()
                    .map(|a| self.lower_host(a))
                    .collect::<Result<_, _>>()?,
            )),
        }
    }

    fn lower_init(&self, e: &Expr, rank: usize) -> Result<KExpr, DslError> {
        match e {
            Expr::Num(v) => Ok(KExpr::Num(*v)),
            Expr::Var(n) => {
                if let Some(d) = COORD_NAMES.iter().position(|c| c == n) {
                    if d < rank {
                        return Ok(KExpr::Coord(d));
                    }
                }
                if let Some(v) = self.params.get(n) {
                    Ok(KExpr::Num(*v))
                } else {
                    Err(err(format!(
                        "'{n}' is not visible in init() (coordinates {:?} and params are)",
                        &COORD_NAMES[..rank.min(4)]
                    )))
                }
            }
            Expr::Index(n, _) => Err(err(format!("array '{n}' cannot be read in init()"))),
            Expr::Un(op, a) => Ok(KExpr::Un(*op, Box::new(self.lower_init(a, rank)?))),
            Expr::Bin(op, a, b) => Ok(KExpr::Bin(
                *op,
                Box::new(self.lower_init(a, rank)?),
                Box::new(self.lower_init(b, rank)?),
            )),
            Expr::Ternary(c, a, b) => Ok(KExpr::Ternary(
                Box::new(self.lower_init(c, rank)?),
                Box::new(self.lower_init(a, rank)?),
                Box::new(self.lower_init(b, rank)?),
            )),
            Expr::Call(f, args) => Ok(KExpr::Call(
                f.clone(),
                args.iter()
                    .map(|a| self.lower_init(a, rank))
                    .collect::<Result<_, _>>()?,
            )),
        }
    }

    fn lower_stmt(&mut self, s: &Stmt, ops: &mut Vec<Op>) -> Result<(), DslError> {
        match s {
            Stmt::Var { name, value } => {
                if self.params.contains_key(name) || self.array_idx(name).is_some() {
                    return Err(err(format!("'{name}' is already declared")));
                }
                let value = self.lower_host(value)?;
                self.scalars.insert(name.clone());
                ops.push(Op::SetScalar {
                    name: name.clone(),
                    value,
                });
            }
            Stmt::Assign { name, value } => {
                if !self.scalars.contains(name) {
                    return Err(err(format!(
                        "assignment to undeclared scalar '{name}' (use 'var {name} = ...;')"
                    )));
                }
                ops.push(Op::SetScalar {
                    name: name.clone(),
                    value: self.lower_host(value)?,
                });
            }
            Stmt::Assert { cond } => ops.push(Op::Assert {
                value: self.lower_host(cond)?,
                text: cond.pretty(),
            }),
            Stmt::Swap { a, b } => {
                let ia = self
                    .array_idx(a)
                    .ok_or_else(|| err(format!("unknown array '{a}' in swap")))?;
                let ib = self
                    .array_idx(b)
                    .ok_or_else(|| err(format!("unknown array '{b}' in swap")))?;
                self.union(ia, ib)?;
                ops.push(Op::Swap { a: ia, b: ib });
            }
            Stmt::CommSplitShared => ops.push(Op::CommSplitShared),
            Stmt::For { header, body } => {
                let lo = as_index(const_eval(&header.lo, &self.params)?, "a loop bound")?;
                let hi = as_index(const_eval(&header.hi, &self.params)?, "a loop bound")?;
                let count = (hi - lo).max(0) as usize;
                let fresh = self.scalars.insert(header.var.clone());
                let mut inner = Vec::new();
                for stmt in body {
                    self.lower_stmt(stmt, &mut inner)?;
                }
                if fresh {
                    self.scalars.remove(&header.var);
                }
                ops.push(Op::For {
                    var: header.var.clone(),
                    lo,
                    count,
                    body: inner,
                });
            }
            Stmt::ParLoop {
                pragma,
                loops,
                kernel,
            } => self.lower_par_loop(pragma, loops, kernel, ops)?,
        }
        Ok(())
    }

    fn lower_par_loop(
        &mut self,
        pragma: &str,
        loops: &[crate::ast::LoopHeader],
        kernel: &Kernel,
        ops: &mut Vec<Op>,
    ) -> Result<(), DslError> {
        let d = parse_acc_directive(pragma).map_err(|e| err(format!("in '{pragma}': {e}")))?;
        use impacc_directives::AccKind;
        if !matches!(d.kind, AccKind::Parallel | AccKind::Kernels) {
            return Err(err(format!(
                "only 'parallel'/'kernels' constructs can annotate a loop nest: '{pragma}'"
            )));
        }
        for vl in &d.data {
            if !matches!(
                vl.clause.as_str(),
                "copy" | "copyin" | "copyout" | "create" | "present"
            ) {
                return Err(err(format!(
                    "data clause '{}' is not valid on a compute loop",
                    vl.clause
                )));
            }
            for v in &vl.vars {
                if self.array_idx(v).is_none() {
                    return Err(err(format!(
                        "data clause '{}' lists unknown array '{v}'",
                        vl.clause
                    )));
                }
            }
        }
        if d.reductions.len() > 1 {
            return Err(err("at most one reduction clause per loop"));
        }
        let reduction = match d.reductions.first() {
            Some(r) => {
                if r.vars.len() != 1 {
                    return Err(err("reduction clauses here take exactly one variable"));
                }
                let var = r.vars[0].clone();
                if !self.scalars.contains(&var) {
                    return Err(err(format!(
                        "reduction variable '{var}' must be a declared scalar"
                    )));
                }
                Some((r.op.clone(), var))
            }
            None => None,
        };

        let depth = loops.len();
        let loop_vars: Vec<String> = loops.iter().map(|h| h.var.clone()).collect();
        let mut bounds = Vec::with_capacity(depth);
        for h in loops {
            let lo = as_index(const_eval(&h.lo, &self.params)?, "a parallel loop bound")?;
            let hi = as_index(const_eval(&h.hi, &self.params)?, "a parallel loop bound")?;
            if lo < 0 || hi < lo {
                return Err(err(format!(
                    "degenerate parallel loop bounds {lo}..{hi} on '{}'",
                    h.var
                )));
            }
            bounds.push((lo as usize, hi as usize));
        }

        match kernel {
            Kernel::Assign { array, subs, rhs } => {
                let dst = self
                    .array_idx(array)
                    .ok_or_else(|| err(format!("unknown array '{array}'")))?;
                let shape = self.shapes[dst].clone();
                if shape.len() != depth {
                    return Err(err(format!(
                        "'{array}' has rank {}, but the loop nest is {depth}-deep",
                        shape.len()
                    )));
                }
                for (d, sub) in subs.iter().enumerate() {
                    if !matches!(sub, Expr::Var(v) if *v == loop_vars[d]) {
                        return Err(err(format!(
                            "left-hand subscripts of '{array}' must be the loop indices in order"
                        )));
                    }
                }
                let mut margin = Vec::with_capacity(depth);
                for (d, &(lo, hi)) in bounds.iter().enumerate() {
                    if hi > shape[d] {
                        return Err(err(format!(
                            "loop over '{}' runs to {hi}, past extent {}",
                            loop_vars[d], shape[d]
                        )));
                    }
                    margin.push((lo, shape[d] - hi));
                }
                let mut refs = Vec::new();
                let cell = self.lower_device(rhs, &loop_vars, &mut refs)?;
                let mut ats = Vec::new();
                collect_ats(&cell, &mut ats);
                let pure_map = refs.is_empty()
                    || (refs == [dst] && ats.iter().all(|(_, o)| o.iter().all(|&x| x == 0)));
                if pure_map {
                    if margin.iter().any(|&(a, b)| a != 0 || b != 0) {
                        return Err(err(format!(
                            "a map loop over '{array}' must cover the full index range"
                        )));
                    }
                    if reduction.is_some() {
                        return Err(err("a map loop cannot carry a reduction clause"));
                    }
                    ops.push(Op::Map {
                        arr: dst,
                        flops: arith_ops(&cell),
                        cell,
                    });
                    return Ok(());
                }
                if refs.len() != 1 || refs[0] == dst {
                    return Err(err(format!(
                        "a stencil writing '{array}' must read exactly one other array \
                         (found {:?})",
                        refs.iter()
                            .map(|&r| self.array_names[r].clone())
                            .collect::<Vec<_>>()
                    )));
                }
                let src = refs[0];
                self.union(src, dst)?;
                let gnd = self.grid_nd_of(src);
                let mut halo_req = 0usize;
                for (_, offs) in &ats {
                    let moved = offs.iter().take(gnd).filter(|&&o| o != 0).count();
                    self.corners_need[src] |= moved >= 2;
                    for (dim, &o) in offs.iter().enumerate() {
                        let mag = o.unsigned_abs();
                        if dim < gnd {
                            halo_req = halo_req.max(mag);
                        } else {
                            let (mlo, mhi) = margin[dim];
                            if (o < 0 && mag > mlo) || (o > 0 && mag > mhi) {
                                return Err(err(format!(
                                    "stencil reads offset {o} on unmapped dimension {dim}, \
                                     outside the fixed margin ({mlo}, {mhi}) the loop bounds give"
                                )));
                            }
                        }
                    }
                }
                self.halo_need[src] = self.halo_need[src].max(halo_req);
                let reduce = match reduction {
                    Some((op, var)) => {
                        if op != "max" {
                            return Err(err(format!(
                                "a stencil residual reduction must be 'max', got '{op}' \
                                 (use an accumulation loop for '+')"
                            )));
                        }
                        Some(var)
                    }
                    None => None,
                };
                let flops = arith_ops(&cell) + if reduce.is_some() { 2.0 } else { 0.0 };
                let site = self.stencil_sites;
                self.stencil_sites += 1;
                ops.push(Op::Exchange { arr: src });
                ops.push(Op::Stencil {
                    site,
                    src,
                    dst,
                    margin,
                    flops,
                    cell,
                    reduce,
                });
            }
            Kernel::Accum { var, rhs } => {
                let (op_name, red_var) = reduction
                    .ok_or_else(|| err("an accumulation loop needs a reduction clause"))?;
                if red_var != *var {
                    return Err(err(format!(
                        "loop accumulates '{var}' but the reduction clause names '{red_var}'"
                    )));
                }
                let op = match op_name.as_str() {
                    "+" => ReduceOp::Sum,
                    "*" => ReduceOp::Prod,
                    "max" => ReduceOp::Max,
                    "min" => ReduceOp::Min,
                    other => return Err(err(format!("unsupported reduction operator '{other}'"))),
                };
                let mut refs = Vec::new();
                let cell = self.lower_device(rhs, &loop_vars, &mut refs)?;
                if refs.is_empty() {
                    return Err(err("a reduction loop must read at least one array"));
                }
                let mut ats = Vec::new();
                collect_ats(&cell, &mut ats);
                if ats.iter().any(|(_, o)| o.iter().any(|&x| x != 0)) {
                    return Err(err(
                        "reduction loops read arrays element-wise (no neighbour offsets)",
                    ));
                }
                let shape = self.shapes[refs[0]].clone();
                if shape.len() != depth {
                    return Err(err(format!(
                        "reduction arrays have rank {}, but the loop nest is {depth}-deep",
                        shape.len()
                    )));
                }
                for (d, &(lo, hi)) in bounds.iter().enumerate() {
                    if lo != 0 || hi != shape[d] {
                        return Err(err(
                            "a reduction loop must cover the full index range of its arrays",
                        ));
                    }
                }
                for win in refs.windows(2) {
                    self.union(win[0], win[1])?;
                }
                ops.push(Op::Reduce {
                    arrays: refs,
                    op,
                    var: var.clone(),
                    flops: arith_ops(&cell) + 1.0,
                    cell,
                });
            }
        }
        Ok(())
    }
}

fn plan_has_device_ops(ops: &[Op]) -> bool {
    ops.iter().any(|op| match op {
        Op::Stencil { .. } | Op::Map { .. } | Op::Reduce { .. } => true,
        Op::For { body, .. } => plan_has_device_ops(body),
        _ => false,
    })
}

/// Analyze and lower a parsed program. `overrides` replace `param`
/// defaults by name (unknown names are ignored, so generic job knobs
/// apply cleanly).
pub fn analyze(
    source: &str,
    program: Program,
    overrides: &[(String, f64)],
) -> Result<Compiled, DslError> {
    let mut a = Analyzer {
        params: BTreeMap::new(),
        param_order: Vec::new(),
        array_names: Vec::new(),
        shapes: Vec::new(),
        grid_explicit: Vec::new(),
        init_exprs: Vec::new(),
        halo_need: Vec::new(),
        corners_need: Vec::new(),
        group: Vec::new(),
        scalars: BTreeSet::new(),
        stencil_sites: 0,
    };
    let mut plan = Vec::new();
    for item in &program.items {
        match item {
            Item::Param { name, value } => {
                if a.params.contains_key(name) {
                    return Err(err(format!("duplicate param '{name}'")));
                }
                let v = match overrides.iter().rev().find(|(n, _)| n == name) {
                    Some((_, v)) => *v,
                    None => const_eval(value, &a.params)?,
                };
                a.params.insert(name.clone(), v);
                a.param_order.push((name.clone(), v));
            }
            Item::Array {
                name,
                dims,
                grid,
                init,
            } => {
                if a.array_idx(name).is_some() || a.params.contains_key(name) {
                    return Err(err(format!("duplicate declaration of '{name}'")));
                }
                let mut shape = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = as_index(const_eval(d, &a.params)?, "an array extent")?;
                    if v < 1 {
                        return Err(err(format!("array '{name}' has a non-positive extent")));
                    }
                    shape.push(v as usize);
                }
                if let Some(g) = grid {
                    if *g as usize > shape.len() {
                        return Err(err(format!(
                            "array '{name}' is rank {} but asks for a {g}-d grid",
                            shape.len()
                        )));
                    }
                }
                if shape.len() > COORD_NAMES.len() {
                    return Err(err(format!(
                        "array '{name}' exceeds the supported rank {}",
                        COORD_NAMES.len()
                    )));
                }
                a.array_names.push(name.clone());
                a.shapes.push(shape);
                a.grid_explicit.push(*grid);
                a.init_exprs.push(init.clone());
                a.halo_need.push(0);
                a.corners_need.push(false);
                a.group.push(a.group.len());
            }
            Item::Stmt(s) => a.lower_stmt(s, &mut plan)?,
        }
    }

    // Finalize congruence groups: everything a stencil/swap/reduction
    // ties together shares one grid, the max inferred halo and the
    // corner exchange.
    let n = a.array_names.len();
    let mut arrays = Vec::with_capacity(n);
    let roots: Vec<usize> = (0..n).map(|i| a.root(i)).collect();
    for i in 0..n {
        let mut halo = a.halo_need[i];
        let mut corners = false;
        let mut grid: Option<u32> = a.grid_explicit[i];
        for j in 0..n {
            if roots[j] == roots[i] {
                halo = halo.max(a.halo_need[j]);
                corners |= a.corners_need[j];
                match (grid, a.grid_explicit[j]) {
                    (Some(g1), Some(g2)) if g1 != g2 => {
                        return Err(err(format!(
                            "arrays '{}' and '{}' share kernels but declare different grids",
                            a.array_names[i], a.array_names[j]
                        )));
                    }
                    (None, Some(g)) => grid = Some(g),
                    _ => {}
                }
            }
        }
        let rank = a.shapes[i].len();
        let init = match &a.init_exprs[i] {
            Some(e) => Some(a.lower_init(e, rank)?),
            None => None,
        };
        arrays.push(ArrayInfo {
            name: a.array_names[i].clone(),
            shape: a.shapes[i].clone(),
            grid_nd: grid.unwrap_or(1) as usize,
            halo,
            corners,
            init,
        });
    }

    let has_device_ops = plan_has_device_ops(&plan);
    Ok(Compiled {
        source: source.to_string(),
        program,
        params: a.param_order,
        arrays,
        plan,
        stencil_sites: a.stencil_sites,
        has_device_ops,
    })
}
