//! Typed AST for the `.acc` kernel language, plus the canonical
//! pretty-printer.
//!
//! The printer emits fully parenthesized expressions, so
//! pretty-print → reparse is the identity on the AST (the proptest
//! round-trip suite holds the compiler to that). Pragma lines are kept
//! verbatim: the directive text *is* their canonical form, and semantic
//! analysis re-parses them through `impacc-directives`.

use std::fmt::Write as _;

/// Binary operators, C precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Source spelling.
    pub fn sym(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// True for the four arithmetic operators the flop model counts.
    pub fn is_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An expression. Everything is f64; comparisons and logic yield
/// 1.0/0.0.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// A parameter, scalar variable, or loop index.
    Var(String),
    /// An array subscript `a[e0][e1]...`.
    Index(String, Vec<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `c ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Builtin call (`min`, `max`, `abs`, `sqrt`).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Fully parenthesized canonical form.
    pub fn pretty(&self) -> String {
        match self {
            Expr::Num(v) => format!("{v:?}"),
            Expr::Var(n) => n.clone(),
            Expr::Index(n, subs) => {
                let mut s = n.clone();
                for e in subs {
                    let _ = write!(s, "[{}]", e.pretty());
                }
                s
            }
            Expr::Un(op, e) => format!(
                "({}{})",
                match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                },
                e.pretty()
            ),
            Expr::Bin(op, a, b) => format!("({} {} {})", a.pretty(), op.sym(), b.pretty()),
            Expr::Ternary(c, a, b) => {
                format!("({} ? {} : {})", c.pretty(), a.pretty(), b.pretty())
            }
            Expr::Call(f, args) => {
                let parts: Vec<String> = args.iter().map(|a| a.pretty()).collect();
                format!("{}({})", f, parts.join(", "))
            }
        }
    }
}

/// One level of a parallel loop nest: `for (var = lo; var < hi; ++var)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopHeader {
    /// The index variable.
    pub var: String,
    /// Inclusive lower bound (a parameter-constant expression).
    pub lo: Expr,
    /// Exclusive upper bound (a parameter-constant expression).
    pub hi: Expr,
}

impl LoopHeader {
    fn pretty(&self) -> String {
        format!(
            "for ({v} = {lo}; {v} < {hi}; ++{v})",
            v = self.var,
            lo = self.lo.pretty(),
            hi = self.hi.pretty()
        )
    }
}

/// The single statement at the bottom of a parallel loop nest.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// `dst[i][j] = rhs;` — a map or stencil sweep.
    Assign {
        /// Target array.
        array: String,
        /// Subscripts (must be the loop indices, in order).
        subs: Vec<Expr>,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `acc += rhs;` — a reduction fold.
    Accum {
        /// The reduced scalar (must match the `reduction` clause).
        var: String,
        /// Per-element contribution.
        rhs: Expr,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var x = expr;` — declare a host scalar.
    Var {
        /// Scalar name.
        name: String,
        /// Initial value (host expression).
        value: Expr,
    },
    /// `x = expr;` — host scalar assignment.
    Assign {
        /// Scalar name.
        name: String,
        /// New value (host expression).
        value: Expr,
    },
    /// `assert(expr);` — host-side check (nonzero = pass).
    Assert {
        /// Condition.
        cond: Expr,
    },
    /// `swap(a, b);` — exchange two congruent arrays.
    Swap {
        /// First array.
        a: String,
        /// Second array.
        b: String,
    },
    /// `comm_split_shared;` — the testmpi.cpp idiom: split the world
    /// communicator by node and bind each task to the device indexed by
    /// its shared-memory rank.
    CommSplitShared,
    /// Sequential host loop `for (v = lo; v < hi; ++v) { ... }`.
    For {
        /// Loop header.
        header: LoopHeader,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// A `#pragma acc`-annotated parallel loop nest.
    ParLoop {
        /// The pragma line, verbatim.
        pragma: String,
        /// The loop nest, outermost first.
        loops: Vec<LoopHeader>,
        /// The innermost statement.
        kernel: Kernel,
    },
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `param n = expr;` — a compile-time constant (overridable).
    Param {
        /// Parameter name.
        name: String,
        /// Default value (constant over earlier params).
        value: Expr,
    },
    /// `array u[n][n] grid(2) init(expr);` — a distributed array.
    Array {
        /// Array name.
        name: String,
        /// Global extents (parameter-constant expressions).
        dims: Vec<Expr>,
        /// Decomposition grid dimensionality (1 = row blocks, default).
        grid: Option<u32>,
        /// Initial value over global coordinates `i`/`j`/`k`/`l`
        /// (ghost coordinates fall outside the domain — boundary
        /// conditions live there). Default 0.
        init: Option<Expr>,
    },
    /// An executable statement.
    Stmt(Stmt),
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Canonical source form; parsing it back yields an identical AST.
    pub fn pretty(&self) -> String {
        self.pretty_resolved(&[])
    }

    /// [`Program::pretty`] with the default of every `param` named in
    /// `resolved` printed as that value instead of its declared
    /// expression.
    pub(crate) fn pretty_resolved(&self, resolved: &[(String, f64)]) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Param { name, value } => {
                    let value = match resolved.iter().find(|(n, _)| n == name) {
                        Some((_, v)) => Expr::Num(*v).pretty(),
                        None => value.pretty(),
                    };
                    let _ = writeln!(out, "param {name} = {value};");
                }
                Item::Array {
                    name,
                    dims,
                    grid,
                    init,
                } => {
                    let _ = write!(out, "array {name}");
                    for d in dims {
                        let _ = write!(out, "[{}]", d.pretty());
                    }
                    if let Some(g) = grid {
                        let _ = write!(out, " grid({g})");
                    }
                    if let Some(e) = init {
                        let _ = write!(out, " init({})", e.pretty());
                    }
                    out.push_str(";\n");
                }
                Item::Stmt(s) => pretty_stmt(&mut out, s, 0),
            }
        }
        out
    }
}

fn pretty_stmt(out: &mut String, s: &Stmt, depth: usize) {
    let pad = "  ".repeat(depth);
    match s {
        Stmt::Var { name, value } => {
            let _ = writeln!(out, "{pad}var {name} = {};", value.pretty());
        }
        Stmt::Assign { name, value } => {
            let _ = writeln!(out, "{pad}{name} = {};", value.pretty());
        }
        Stmt::Assert { cond } => {
            let _ = writeln!(out, "{pad}assert({});", cond.pretty());
        }
        Stmt::Swap { a, b } => {
            let _ = writeln!(out, "{pad}swap({a}, {b});");
        }
        Stmt::CommSplitShared => {
            let _ = writeln!(out, "{pad}comm_split_shared;");
        }
        Stmt::For { header, body } => {
            let _ = writeln!(out, "{pad}{} {{", header.pretty());
            for inner in body {
                pretty_stmt(out, inner, depth + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::ParLoop {
            pragma,
            loops,
            kernel,
        } => {
            let _ = writeln!(out, "{pad}{pragma}");
            for (i, h) in loops.iter().enumerate() {
                let ipad = "  ".repeat(depth + i);
                let _ = writeln!(out, "{ipad}{} {{", h.pretty());
            }
            let kpad = "  ".repeat(depth + loops.len());
            match kernel {
                Kernel::Assign { array, subs, rhs } => {
                    let _ = write!(out, "{kpad}{array}");
                    for e in subs {
                        let _ = write!(out, "[{}]", e.pretty());
                    }
                    let _ = writeln!(out, " = {};", rhs.pretty());
                }
                Kernel::Accum { var, rhs } => {
                    let _ = writeln!(out, "{kpad}{var} += {};", rhs.pretty());
                }
            }
            for i in (0..loops.len()).rev() {
                let ipad = "  ".repeat(depth + i);
                let _ = writeln!(out, "{ipad}}}");
            }
        }
    }
}
