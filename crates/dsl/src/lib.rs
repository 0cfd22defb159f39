//! `impacc-dsl`: an IPMACC/JACC-style source-to-source kernel compiler
//! over a small C-like `acc` DSL.
//!
//! Pipeline (§5l of DESIGN.md):
//!
//! 1. [`lex`] — tokenize; `#pragma` lines are captured verbatim.
//! 2. [`parse`] — recursive descent to a typed [`ast::Program`], with a
//!    canonical pretty-printer (`pretty → reparse` is the identity).
//! 3. [`sema`] — resolve params (with overrides), classify every
//!    annotated loop nest as stencil / map / reduction from its
//!    subscript structure, *infer* halo depths from the offsets, force
//!    congruence groups, and lower to an [`sema::Op`] plan. Pragmas are
//!    re-parsed through `impacc-directives`, so the DSL speaks the
//!    existing OpenACC clause grammar (including the new
//!    `reduction(+:x)` clauses).
//! 4. [`lower`] — byte-stable plan dump (the golden-translation gate).
//! 5. [`exec`] — run the plan on the simulated runtime through
//!    `impacc-array`, reproducing the hand-written scenario structure
//!    exactly (the parity suite proves bit-and-tick equality for
//!    `jacobi.acc`); [`interp`] is the serial correctness oracle.
//!
//! The surface covers the testmpi.cpp pattern end to end:
//! `comm_split_shared` (split by node + device binding by shm rank), a
//! `parallel loop` with `reduction(+:sum)` lowered to a device fold
//! plus `MPI_Allreduce`, and JACC-style splitting of a single annotated
//! loop across all of a node's devices by launching one rank per GPU.

pub mod ast;
pub mod exec;
pub mod interp;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod sema;

pub use ast::Program;
pub use exec::{run_program, RunOut};
pub use interp::{interpret_serial, SerialOut};
pub use lex::DslError;
pub use lower::dump_plan;
pub use sema::{ArrayInfo, Compiled, KExpr, Op};

/// Compile a source text with default parameters.
pub fn compile(src: &str) -> Result<Compiled, DslError> {
    compile_with_overrides(src, &[])
}

/// Compile with `param` overrides (by name; unknown names are ignored).
pub fn compile_with_overrides(
    src: &str,
    overrides: &[(String, f64)],
) -> Result<Compiled, DslError> {
    let program = parse::parse(src)?;
    sema::analyze(src, program, overrides)
}

/// Content hash of a DSL source: FNV-1a over a versioned preamble with
/// a splitmix64 finalizer, 16 hex digits. Canonical cache keys for
/// compiled programs are derived from this, so editing one character of
/// a kernel is a guaranteed cache miss.
pub fn source_hash(src: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in "impacc-dsl-v1\n".bytes().chain(src.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    format!("{h:016x}")
}

/// The shipped example programs, compiled into the library so every
/// layer (CLI, serve, bench, campaigns) resolves the same sources.
pub const EXAMPLES: [(&str, &str); 3] = [
    ("jacobi", include_str!("../../../examples/jacobi.acc")),
    ("dot", include_str!("../../../examples/dot.acc")),
    ("stencil2d", include_str!("../../../examples/stencil2d.acc")),
];

/// Look up a shipped example by name.
pub fn example(name: &str) -> Option<&'static str> {
    EXAMPLES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Check that every declared array decomposes over a launch of `tasks`
/// ranks (halo fits the smallest block, grid addresses the ranks).
pub fn validate_launch(c: &Compiled, tasks: usize) -> Result<(), String> {
    for info in &c.arrays {
        // The grid `exec::array_spec` builds, factored on the stack: a
        // declaration names a 1-d or 2-d grid.
        let mut grid = [0usize; 2];
        let dims = grid
            .get_mut(..info.grid_nd)
            .filter(|d| !d.is_empty())
            .ok_or_else(|| {
                format!(
                    "array '{}': grid rank {} is not 1 or 2",
                    info.name, info.grid_nd
                )
            })?;
        impacc_array::dims_create(tasks, dims);
        impacc_array::check_decomposition(
            &info.shape,
            dims,
            impacc_array::Layout::Block,
            info.halo,
            tasks,
        )
        .map_err(|e| format!("array '{}': {e}", info.name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_examples_compile() {
        for (name, src) in EXAMPLES {
            let c = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!c.plan.is_empty(), "{name} lowered to an empty plan");
            validate_launch(&c, 1).unwrap();
            validate_launch(&c, 4).unwrap();
        }
    }

    #[test]
    fn source_hash_is_stable_and_sensitive() {
        let a = source_hash("param n = 4;");
        assert_eq!(a.len(), 16);
        assert_eq!(a, source_hash("param n = 4;"));
        assert_ne!(a, source_hash("param n = 5;"));
    }

    #[test]
    fn jacobi_lowering_matches_the_hand_written_scenario() {
        let c = compile(example("jacobi").unwrap()).unwrap();
        assert_eq!(c.arrays.len(), 2);
        assert_eq!(c.arrays[0].halo, 1, "halo inferred from the ±1 offsets");
        assert_eq!(c.arrays[1].halo, 1, "congruence group shares the halo");
        assert_eq!(c.arrays[0].grid_nd, 1);
        assert!(c.has_device_ops);
        // One sequential loop wrapping exchange + stencil + swap.
        let body = match &c.plan[..] {
            [Op::SetScalar { .. }, Op::For { body, count, .. }, Op::Assert { .. }] => {
                assert_eq!(*count, 4);
                body
            }
            other => panic!("unexpected plan shape: {other:?}"),
        };
        match &body[..] {
            [Op::Exchange { arr: 0 }, Op::Stencil {
                src: 0,
                dst: 1,
                margin,
                flops,
                reduce: Some(var),
                ..
            }, Op::Swap { a: 0, b: 1 }] => {
                assert_eq!(margin, &vec![(0, 0), (1, 1)]);
                assert_eq!(*flops, 6.0, "4 arith ops + 2 for the residual fold");
                assert_eq!(var, "res");
            }
            other => panic!("unexpected sweep body: {other:?}"),
        }
    }

    #[test]
    fn dot_lowering_is_a_fold_with_allreduce() {
        let c = compile(example("dot").unwrap()).unwrap();
        let red = c
            .plan
            .iter()
            .find_map(|op| match op {
                Op::Reduce {
                    arrays, op, flops, ..
                } => Some((arrays.clone(), *op, *flops)),
                _ => None,
            })
            .expect("dot must lower to a reduce");
        assert_eq!(red.0.len(), 2, "reads both x and y");
        assert_eq!(red.1, sema::ReduceOp::Sum);
        assert_eq!(red.2, 2.0, "one multiply + one fold combine");
        assert!(
            c.plan.iter().any(|op| matches!(op, Op::CommSplitShared)),
            "dot carries the testmpi comm-split prologue"
        );
    }

    #[test]
    fn stencil2d_infers_a_deep_halo_from_param_offsets() {
        let c = compile(example("stencil2d").unwrap()).unwrap();
        assert_eq!(c.arrays[0].halo, 2, "halo h=2 inferred from u[i - h]");
        let c3 = compile_with_overrides(example("stencil2d").unwrap(), &[("h".to_string(), 3.0)])
            .unwrap();
        assert_eq!(c3.arrays[0].halo, 3, "override flows into inference");
        assert!(
            c.plan.iter().any(|op| matches!(op, Op::Map { .. })),
            "stencil2d ends with a clamp map"
        );
    }

    #[test]
    fn serial_oracle_agrees_with_itself_and_dot_sum_is_exact() {
        let src = example("dot").unwrap();
        let c = compile_with_overrides(src, &[("n".to_string(), 512.0)]).unwrap();
        let out = interpret_serial(&c).unwrap();
        assert_eq!(out.scalars["sum"], 512.0 * 512.0);
    }

    #[test]
    fn rejects_programs_that_cannot_lower() {
        // Stencil reading two source arrays.
        let two_src = "
            param n = 8;
            array a[n][n];
            array b[n][n];
            array c[n][n];
            #pragma acc parallel loop
            for (i = 0; i < n; ++i) {
              for (j = 1; j < n - 1; ++j) {
                c[i][j] = a[i][j - 1] + b[i][j + 1];
              }
            }
        ";
        let e = compile(two_src).unwrap_err();
        assert!(e.message.contains("exactly one other array"), "{e}");

        // Reduction loop with neighbour offsets.
        let off_red = "
            param n = 8;
            array a[n];
            var s = 0.0;
            #pragma acc parallel loop reduction(+:s)
            for (i = 1; i < n; ++i) {
              s += a[i - 1];
            }
        ";
        let e = compile(off_red).unwrap_err();
        assert!(
            e.message.contains("element-wise") || e.message.contains("full index range"),
            "{e}"
        );

        // Unmapped-dimension read outside the margin.
        let past_margin = "
            param n = 8;
            array a[n][n];
            array b[n][n];
            #pragma acc parallel loop
            for (i = 0; i < n; ++i) {
              for (j = 1; j < n - 1; ++j) {
                b[i][j] = a[i][j - 2];
              }
            }
        ";
        let e = compile(past_margin).unwrap_err();
        assert!(e.message.contains("outside the fixed margin"), "{e}");

        // Mismatched shapes in one congruence group.
        let shapes = "
            param n = 8;
            array a[n][n];
            array b[n][4];
            swap(a, b);
        ";
        let e = compile(shapes).unwrap_err();
        assert!(e.message.contains("congruent"), "{e}");

        // Reduction clause on an unknown scalar.
        let unknown = "
            param n = 8;
            array a[n];
            #pragma acc parallel loop reduction(+:zz)
            for (i = 0; i < n; ++i) {
              zz += a[i];
            }
        ";
        let e = compile(unknown).unwrap_err();
        assert!(e.message.contains("declared scalar"), "{e}");
    }

    #[test]
    fn plan_dump_is_deterministic() {
        let src = example("jacobi").unwrap();
        let a = dump_plan(&compile(src).unwrap());
        let b = dump_plan(&compile(src).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("stencil[0] unew <- u"), "{a}");
        assert!(a.contains("halo(1)"), "{a}");
        assert!(a.contains("reduce(max -> res)"), "{a}");
    }
}
