//! The directive grammar, pinned line by line: what `parse_directive`
//! (the `#pragma acc mpi` family, §3.5) and `parse_acc_directive` (the
//! OpenACC family) make of each line, as the `Debug` of the parsed value
//! or of the first `ParseError { at, message }`. Every line goes through
//! both entry points. Then `render` against `parse_directive`, the §3.5
//! call rule (`Directive::check_call`), and a property that neither entry
//! panics on arbitrary or mutated lines.

use impacc_directives::{parse_acc_directive, parse_directive, BufClause, Directive};
use proptest::prelude::*;

/// `(line, parse_directive, parse_acc_directive)`.
const CASES: &[(&str, &str, &str)] = &[
    // The crate's own tests: the `#pragma acc mpi` family.
    (
        "#pragma acc mpi sendbuf(device)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) async(1)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: None, asyncq: Some(Some(1)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(readonly)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: false, readonly: true }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf(readonly)",
        r##"Ok(Directive { sendbuf: None, recvbuf: Some(BufClause { device: false, readonly: true }), asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device, readonly)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: true }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device readonly)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: true }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf( device , readonly )",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: true }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf(device) async",
        r##"Ok(Directive { sendbuf: None, recvbuf: Some(BufClause { device: true, readonly: false }), asyncq: Some(None) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf()",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: false, readonly: false }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) recvbuf(device, readonly) async(3)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: Some(BufClause { device: true, readonly: true }), asyncq: Some(Some(3)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi",
        r##"Err(ParseError { at: 15, message: "directive has no clauses" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf",
        r##"Err(ParseError { at: 23, message: "expected '(' after buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device",
        r##"Err(ParseError { at: 30, message: "unterminated buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(writable)",
        r##"Err(ParseError { at: 24, message: "unknown attribute 'writable' (expected device or readonly)" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi foo(device)",
        r##"Err(ParseError { at: 16, message: "unknown clause 'foo' (expected sendbuf, recvbuf or async)" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(x)",
        r##"Err(ParseError { at: 22, message: "async expects a non-negative integer, found Ident(\"x\")" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(1",
        r##"Err(ParseError { at: 23, message: "expected ')' after async queue" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) sendbuf(readonly)",
        r##"Err(ParseError { at: 32, message: "duplicate 'sendbuf' clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async async(1)",
        r##"Err(ParseError { at: 22, message: "duplicate 'async' clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device,device)",
        r##"Err(ParseError { at: 31, message: "duplicate 'device' attribute" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(,device)",
        r##"Err(ParseError { at: 24, message: "leading comma in buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma omp parallel",
        r##"Err(ParseError { at: 8, message: "expected 'acc', found Ident(\"omp\")" })"##,
        r##"Err(ParseError { at: 8, message: "expected 'acc'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) $",
        r##"Err(ParseError { at: 32, message: "unexpected character '$'" })"##,
        r##"Err(ParseError { at: 32, message: "unexpected character '$'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device, readonly) async(2)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: true }), recvbuf: None, asyncq: Some(Some(2)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf(readonly) async",
        r##"Ok(Directive { sendbuf: None, recvbuf: Some(BufClause { device: false, readonly: true }), asyncq: Some(None) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) recvbuf(device) async(7)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: Some(BufClause { device: true, readonly: false }), asyncq: Some(Some(7)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    // The crate's own tests: the OpenACC family.
    (
        "#pragma acc kernels loop copyout(buf0) async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: true, asyncq: Some(Some(1)), waits: [], data: [VarList { clause: "copyout", vars: ["buf0"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels loop copyin(buf1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["buf1"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc data copyin(a, b) create(c) present(d) copyout(r)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"data\")" })"##,
        r##"Ok(AccDirective { kind: Data, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["a", "b"] }, VarList { clause: "create", vars: ["c"] }, VarList { clause: "present", vars: ["d"] }, VarList { clause: "copyout", vars: ["r"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc enter data create(u) async(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"enter\")" })"##,
        r##"Ok(AccDirective { kind: EnterData, has_loop: false, asyncq: Some(Some(2)), waits: [], data: [VarList { clause: "create", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc exit data delete(u)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"exit\")" })"##,
        r##"Ok(AccDirective { kind: ExitData, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "delete", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc update host(u) device(v) async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: Some(Some(1)), waits: [], data: [VarList { clause: "host", vars: ["u"] }, VarList { clause: "device", vars: ["v"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait(1, 2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [1, 2], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop gang vector num_gangs(128) vector_length(256) collapse(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: Some(128), num_workers: None, vector_length: Some(256), collapse: Some(2), loop_modes: ["gang", "vector"], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:sum) copyin(a, b)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["a", "b"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["sum"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(max:res, err)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "max", vars: ["res", "err"] }] })"##,
    ),
    (
        "#pragma acc loop reduction(*:prod) reduction(min:lo)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"loop\")" })"##,
        r##"Ok(AccDirective { kind: Loop, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "*", vars: ["prod"] }, Reduction { op: "min", vars: ["lo"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(^:x)",
        r##"Err(ParseError { at: 36, message: "unexpected character '^'" })"##,
        r##"Err(ParseError { at: 36, message: "unexpected character '^'" })"##,
    ),
    (
        "#pragma acc parallel loop reduction(sum)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 36, message: "expected a reduction operator (+, *, max, min), found Ident(\"sum\")" })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 38, message: "expected a reduction variable, found RParen" })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:x",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 39, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc frobnicate",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"frobnicate\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"frobnicate\")" })"##,
    ),
    (
        "#pragma acc kernels quux(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "unknown clause 'quux'" })"##,
    ),
    (
        "#pragma acc kernels copyin()",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 27, message: "expected a variable name, found RParen" })"##,
    ),
    (
        "#pragma acc kernels async(1, 2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "async takes exactly one queue" })"##,
    ),
    (
        "#pragma acc update host(u",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Err(ParseError { at: 25, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc parallel num_gangs()",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 31, message: "expected an integer, found RParen" })"##,
    ),
    (
        "#pragma acc wait(3) async(4)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: Some(Some(4)), waits: [3], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    // The former C-text scanner's and translator's tests.
    (
        "#pragma acc kernels loop async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: true, asyncq: Some(Some(1)), waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc mpi recvbuf(device) async(1)",
        r##"Ok(Directive { sendbuf: None, recvbuf: Some(BufClause { device: true, readonly: false }), asyncq: Some(Some(1)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf(device)",
        r##"Ok(Directive { sendbuf: None, recvbuf: Some(BufClause { device: true, readonly: false }), asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "  #pragma acc mpi sendbuf(writable)",
        r##"Err(ParseError { at: 26, message: "unknown attribute 'writable' (expected device or readonly)" })"##,
        r##"Err(ParseError { at: 14, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(readonly) recvbuf(readonly)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: false, readonly: true }), recvbuf: Some(BufClause { device: false, readonly: true }), asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc kernels",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc update host(u) async(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: Some(Some(2)), waits: [], data: [VarList { clause: "host", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [2], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc update device(u)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "device", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc enter data create(u) copyin(v)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"enter\")" })"##,
        r##"Ok(AccDirective { kind: EnterData, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "create", vars: ["u"] }, VarList { clause: "copyin", vars: ["v"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc exit data copyout(u) delete(v)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"exit\")" })"##,
        r##"Ok(AccDirective { kind: ExitData, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "copyout", vars: ["u"] }, VarList { clause: "delete", vars: ["v"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop num_gangs(64) num_workers(4) vector_length(128) async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: Some(Some(1)), waits: [], data: [], num_gangs: Some(64), num_workers: Some(4), vector_length: Some(128), collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    // Every pragma of `examples/*.acc` and `crates/dsl/{src,tests}`.
    (
        "#pragma acc parallel loop",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop copyin(x, y) reduction(+:sum)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["x", "y"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["sum"] }] })"##,
    ),
    (
        "#pragma acc parallel loop copy(u, unew) reduction(max:res)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copy", vars: ["u", "unew"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "max", vars: ["res"] }] })"##,
    ),
    (
        "#pragma acc parallel loop copy(u)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copy", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(max:res) copyin(u) copyout(unew)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["u"] }, VarList { clause: "copyout", vars: ["unew"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "max", vars: ["res"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:zz)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["zz"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:sum) copyin(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["a"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["sum"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:s)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["s"] }] })"##,
    ),
    (
        "#pragma acc parallel loop reduction(+:sum)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["sum"] }] })"##,
    ),
    (
        "#pragma acc parallel loop copy(u, w2) reduction(max:res)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copy", vars: ["u", "w2"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "max", vars: ["res"] }] })"##,
    ),
    (
        "#pragma acc parallel loop copyin(u) copyout(w2) reduction(+:res)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["u"] }, VarList { clause: "copyout", vars: ["w2"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["res"] }] })"##,
    ),
    (
        "#pragma acc parallel loop copyin(x) reduction(+:s)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyin", vars: ["x"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [Reduction { op: "+", vars: ["s"] }] })"##,
    ),
    // The paper: Fig 4(a) synchronous, 4(b) asynchronous (4(c) and Fig 7
    // are above).
    (
        "#pragma acc kernels loop copyout(buf0)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: true, asyncq: None, waits: [], data: [VarList { clause: "copyout", vars: ["buf0"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc data create(buf0, buf1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"data\")" })"##,
        r##"Ok(AccDirective { kind: Data, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "create", vars: ["buf0", "buf1"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc update host(buf0) async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: Some(Some(1)), waits: [], data: [VarList { clause: "host", vars: ["buf0"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [1], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc update device(buf1) async(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: Some(Some(1)), waits: [], data: [VarList { clause: "device", vars: ["buf1"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    // Edges: headers, every clause's error paths, bytes outside the grammar.
    (
        "",
        r##"Err(ParseError { at: 0, message: "expected '#pragma', found end of line" })"##,
        r##"Err(ParseError { at: 0, message: "expected '#pragma'" })"##,
    ),
    (
        "   ",
        r##"Err(ParseError { at: 3, message: "expected '#pragma', found end of line" })"##,
        r##"Err(ParseError { at: 3, message: "expected '#pragma'" })"##,
    ),
    (
        "#pragma",
        r##"Err(ParseError { at: 7, message: "expected 'acc', found end of line" })"##,
        r##"Err(ParseError { at: 7, message: "expected 'acc'" })"##,
    ),
    (
        "pragma acc mpi sendbuf(device)",
        r##"Err(ParseError { at: 0, message: "expected '#pragma', found Ident(\"pragma\")" })"##,
        r##"Err(ParseError { at: 0, message: "expected '#pragma'" })"##,
    ),
    (
        "acc mpi sendbuf(device)",
        r##"Err(ParseError { at: 0, message: "expected '#pragma', found Ident(\"acc\")" })"##,
        r##"Err(ParseError { at: 0, message: "expected '#pragma'" })"##,
    ),
    (
        "#pragma ACC mpi sendbuf(device)",
        r##"Err(ParseError { at: 8, message: "expected 'acc', found Ident(\"ACC\")" })"##,
        r##"Err(ParseError { at: 8, message: "expected 'acc'" })"##,
    ),
    (
        "#pragma acc MPI sendbuf(device)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"MPI\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"MPI\")" })"##,
    ),
    (
        "#pragma acc mpi async()",
        r##"Err(ParseError { at: 22, message: "async expects a non-negative integer, found RParen" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(1,2)",
        r##"Err(ParseError { at: 26, message: "expected ')' after async queue" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(1 2)",
        r##"Err(ParseError { at: 26, message: "expected ')' after async queue" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(4294967295)",
        r##"Ok(Directive { sendbuf: None, recvbuf: None, asyncq: Some(Some(4294967295)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(4294967296)",
        r##"Err(ParseError { at: 22, message: "integer literal out of range: 4294967296" })"##,
        r##"Err(ParseError { at: 22, message: "integer literal out of range: 4294967296" })"##,
    ),
    (
        "#pragma acc mpi async(",
        r##"Err(ParseError { at: 22, message: "unterminated async clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(1) async",
        r##"Err(ParseError { at: 25, message: "duplicate 'async' clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async 3",
        r##"Err(ParseError { at: 22, message: "expected a clause, found Int(3)" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async(+)",
        r##"Err(ParseError { at: 22, message: "async expects a non-negative integer, found Sym('+')" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device))",
        r##"Err(ParseError { at: 31, message: "expected a clause, found RParen" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device,)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device,,readonly)",
        r##"Err(ParseError { at: 31, message: "unexpected Comma in buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(readonly device)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: true }), recvbuf: None, asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(readonly, readonly)",
        r##"Err(ParseError { at: 34, message: "duplicate 'readonly' attribute" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(1)",
        r##"Err(ParseError { at: 24, message: "unexpected Int(1) in buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(:)",
        r##"Err(ParseError { at: 24, message: "unexpected Sym(':') in buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf device",
        r##"Err(ParseError { at: 30, message: "expected '(' after buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(",
        r##"Err(ParseError { at: 24, message: "unterminated buffer clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf() recvbuf()",
        r##"Err(ParseError { at: 26, message: "duplicate 'recvbuf' clause" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi recvbuf(device) sendbuf(device)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: Some(BufClause { device: true, readonly: false }), asyncq: None })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi ,",
        r##"Err(ParseError { at: 16, message: "expected a clause, found Comma" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi (device)",
        r##"Err(ParseError { at: 16, message: "expected a clause, found LParen" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi 7",
        r##"Err(ParseError { at: 16, message: "expected a clause, found Int(7)" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(dévice)",
        r##"Err(ParseError { at: 25, message: "unexpected character 'Ã'" })"##,
        r##"Err(ParseError { at: 25, message: "unexpected character 'Ã'" })"##,
    ),
    (
        "#pragma acc mpi\tsendbuf(device)\tasync(0)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: None, asyncq: Some(Some(0)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) async(00012)",
        r##"Ok(Directive { sendbuf: Some(BufClause { device: true, readonly: false }), recvbuf: None, asyncq: Some(Some(12)) })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi copyin(a)",
        r##"Err(ParseError { at: 16, message: "unknown clause 'copyin' (expected sendbuf, recvbuf or async)" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi async-1",
        r##"Err(ParseError { at: 21, message: "expected a clause, found Sym('-')" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) // comment",
        r##"Err(ParseError { at: 32, message: "expected a clause, found Sym('/')" })"##,
        r##"Err(ParseError { at: 12, message: "use parse_directive() for '#pragma acc mpi'" })"##,
    ),
    (
        "#pragma acc mpi sendbuf(device) ;",
        r##"Err(ParseError { at: 32, message: "unexpected character ';'" })"##,
        r##"Err(ParseError { at: 32, message: "unexpected character ';'" })"##,
    ),
    (
        "#pragma acc",
        r##"Err(ParseError { at: 11, message: "expected 'mpi', found end of line" })"##,
        r##"Err(ParseError { at: 11, message: "unknown OpenACC directive None" })"##,
    ),
    (
        "#pragma acc (",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found LParen" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive None" })"##,
    ),
    (
        "#pragma acc 7",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Int(7)" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive None" })"##,
    ),
    (
        "#pragma acc enter",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"enter\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"enter\")" })"##,
    ),
    (
        "#pragma acc enter data",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"enter\")" })"##,
        r##"Ok(AccDirective { kind: EnterData, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc enter copyin(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"enter\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"enter\")" })"##,
    ),
    (
        "#pragma acc exit copyin(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"exit\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"exit\")" })"##,
    ),
    (
        "#pragma acc kernels loop loop",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 25, message: "unknown clause 'loop'" })"##,
    ),
    (
        "#pragma acc loop loop",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"loop\")" })"##,
        r##"Err(ParseError { at: 17, message: "unknown clause 'loop'" })"##,
    ),
    (
        "#pragma acc data loop",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"data\")" })"##,
        r##"Err(ParseError { at: 17, message: "unknown clause 'loop'" })"##,
    ),
    (
        "#pragma acc wait async",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: Some(None), waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait()",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 17, message: "expected an integer, found RParen" })"##,
    ),
    (
        "#pragma acc wait(1,)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 19, message: "expected an integer, found RParen" })"##,
    ),
    (
        "#pragma acc wait(1 2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 21, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc wait(3) (",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 20, message: "expected a clause, found LParen" })"##,
    ),
    (
        "#pragma acc wait(x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 17, message: "expected an integer, found Ident(\"x\")" })"##,
    ),
    (
        "#pragma acc wait(1",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Err(ParseError { at: 18, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc wait wait(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [1], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc wait(1) wait(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"wait\")" })"##,
        r##"Ok(AccDirective { kind: Wait, has_loop: false, asyncq: None, waits: [2], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels async",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: Some(None), waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels async()",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 26, message: "expected an integer, found RParen" })"##,
    ),
    (
        "#pragma acc kernels async(x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 26, message: "expected an integer, found Ident(\"x\")" })"##,
    ),
    (
        "#pragma acc kernels async(1) async(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: Some(Some(2)), waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels async async(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: Some(Some(2)), waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels wait(1) wait(2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: None, waits: [2], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels wait",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 24, message: "expected LParen, found end of line" })"##,
    ),
    (
        "#pragma acc kernels num_gangs(1,2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "num_gangs takes exactly one integer" })"##,
    ),
    (
        "#pragma acc kernels num_workers",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 31, message: "expected LParen, found end of line" })"##,
    ),
    (
        "#pragma acc kernels vector_length(4294967296)",
        r##"Err(ParseError { at: 34, message: "integer literal out of range: 4294967296" })"##,
        r##"Err(ParseError { at: 34, message: "integer literal out of range: 4294967296" })"##,
    ),
    (
        "#pragma acc kernels collapse(2) collapse(3)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Ok(AccDirective { kind: Kernels, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: Some(3), loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels copyin(a b)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 31, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc kernels copyin(a,)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 29, message: "expected a variable name, found RParen" })"##,
    ),
    (
        "#pragma acc kernels copyin",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 26, message: "expected LParen, found end of line" })"##,
    ),
    (
        "#pragma acc kernels copyin(1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 27, message: "expected a variable name, found Int(1)" })"##,
    ),
    (
        "#pragma acc kernels copyin(a",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 28, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc kernels reduction",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 29, message: "expected LParen, found end of line" })"##,
    ),
    (
        "#pragma acc kernels reduction(",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 30, message: "unterminated reduction clause" })"##,
    ),
    (
        "#pragma acc kernels reduction(+",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 31, message: "expected Sym(':'), found end of line" })"##,
    ),
    (
        "#pragma acc kernels reduction(+ x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 32, message: "expected Sym(':'), found Ident(\"x\")" })"##,
    ),
    (
        "#pragma acc kernels reduction(-:x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 30, message: "expected a reduction operator (+, *, max, min), found Sym('-')" })"##,
    ),
    (
        "#pragma acc kernels reduction(/:x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 30, message: "expected a reduction operator (+, *, max, min), found Sym('/')" })"##,
    ),
    (
        "#pragma acc kernels reduction(min x)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 34, message: "expected Sym(':'), found Ident(\"x\")" })"##,
    ),
    (
        "#pragma acc kernels reduction(+:x y)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 36, message: "expected ',' or ')'" })"##,
    ),
    (
        "#pragma acc kernels reduction(+:x,)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 34, message: "expected a reduction variable, found RParen" })"##,
    ),
    (
        "#pragma acc kernels reduction(+:1)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 32, message: "expected a reduction variable, found Int(1)" })"##,
    ),
    (
        "#pragma acc kernels 5",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "expected a clause, found Int(5)" })"##,
    ),
    (
        "#pragma acc kernels ,",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "expected a clause, found Comma" })"##,
    ),
    (
        "#pragma acc kernels )",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "expected a clause, found RParen" })"##,
    ),
    (
        "#pragma acc kernels :",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "expected a clause, found Sym(':')" })"##,
    ),
    (
        "#pragma acc data copy(a) copy(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"data\")" })"##,
        r##"Ok(AccDirective { kind: Data, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "copy", vars: ["a"] }, VarList { clause: "copy", vars: ["a"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc loop seq independent gang worker vector",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"loop\")" })"##,
        r##"Ok(AccDirective { kind: Loop, has_loop: false, asyncq: None, waits: [], data: [], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: ["seq", "independent", "gang", "worker", "vector"], reductions: [] })"##,
    ),
    (
        "#pragma acc parallel loop gang(4)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 30, message: "expected a clause, found LParen" })"##,
    ),
    (
        "#pragma acc update self(x) host(y)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Ok(AccDirective { kind: Update, has_loop: false, asyncq: None, waits: [], data: [VarList { clause: "self", vars: ["x"] }, VarList { clause: "host", vars: ["y"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels default(none)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"kernels\")" })"##,
        r##"Err(ParseError { at: 20, message: "unknown clause 'default'" })"##,
    ),
    (
        "#pragma acc parallel deviceptr(p)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Err(ParseError { at: 21, message: "unknown clause 'deviceptr'" })"##,
    ),
    (
        "#pragma acc update async(1) wait(2, 3) if",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"update\")" })"##,
        r##"Err(ParseError { at: 39, message: "unknown clause 'if'" })"##,
    ),
    (
        "#pragma acc exit data delete(u) async",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"exit\")" })"##,
        r##"Ok(AccDirective { kind: ExitData, has_loop: false, asyncq: Some(None), waits: [], data: [VarList { clause: "delete", vars: ["u"] }], num_gangs: None, num_workers: None, vector_length: None, collapse: None, loop_modes: [], reductions: [] })"##,
    ),
    (
        "#pragma acc kernels copyin(é)",
        r##"Err(ParseError { at: 27, message: "unexpected character 'Ã'" })"##,
        r##"Err(ParseError { at: 27, message: "unexpected character 'Ã'" })"##,
    ),
    (
        "#pragma acc serial",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"serial\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"serial\")" })"##,
    ),
    (
        "#pragma acc host_data use_device(a)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"host_data\")" })"##,
        r##"Err(ParseError { at: 12, message: "unknown OpenACC directive Some(\"host_data\")" })"##,
    ),
    (
        "#pragma acc parallel loop collapse(2) gang vector_length(32) copy(a) reduction(+:s) async(5) wait(1, 2)",
        r##"Err(ParseError { at: 12, message: "expected 'mpi', found Ident(\"parallel\")" })"##,
        r##"Ok(AccDirective { kind: Parallel, has_loop: true, asyncq: Some(Some(5)), waits: [1, 2], data: [VarList { clause: "copy", vars: ["a"] }], num_gangs: None, num_workers: None, vector_length: Some(32), collapse: Some(2), loop_modes: ["gang"], reductions: [Reduction { op: "+", vars: ["s"] }] })"##,
    ),
];

#[test]
fn every_line_parses_to_its_pinned_value_through_both_entries() {
    let mut wrong = Vec::new();
    for &(line, mpi, acc) in CASES {
        let got = format!("{:?}", parse_directive(line));
        if got != mpi {
            wrong.push(format!(
                "parse_directive({line:?})\n  want {mpi}\n  got  {got}"
            ));
        }
        let got = format!("{:?}", parse_acc_directive(line));
        if got != acc {
            wrong.push(format!(
                "parse_acc_directive({line:?})\n  want {acc}\n  got  {got}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Every `Directive` the grammar can express: each buffer clause absent or
/// one of its four attribute sets, `async` absent, bare or a queue.
fn every_directive() -> Vec<Directive> {
    let bufs = [
        None,
        Some(BufClause::default()),
        Some(BufClause {
            device: true,
            readonly: false,
        }),
        Some(BufClause {
            device: false,
            readonly: true,
        }),
        Some(BufClause {
            device: true,
            readonly: true,
        }),
    ];
    let asyncs = [
        None,
        Some(None),
        Some(Some(0)),
        Some(Some(7)),
        Some(Some(u32::MAX)),
    ];
    let mut all = Vec::new();
    for sendbuf in bufs {
        for recvbuf in bufs {
            for asyncq in asyncs {
                all.push(Directive {
                    sendbuf,
                    recvbuf,
                    asyncq,
                });
            }
        }
    }
    all
}

#[test]
fn render_then_parse_directive_is_the_identity() {
    for d in every_directive() {
        let text = d.render();
        if d == Directive::default() {
            // No clause renders as the bare header, which is refused.
            assert!(parse_directive(&text).is_err(), "{text}");
        } else {
            assert_eq!(parse_directive(&text), Ok(d), "{text}");
        }
    }
    for &(line, _, _) in CASES {
        if let Ok(d) = parse_directive(line) {
            assert_eq!(parse_directive(&d.render()), Ok(d), "{line}");
        }
    }
}

#[test]
fn check_call_applies_the_section_3_5_rule() {
    // `(directive, annotated call, Debug of check_call)`.
    let cases = [
        // Fig 4(c): the unified-queue pair.
        (
            "#pragma acc mpi sendbuf(device) async(1)",
            "MPI_Isend",
            "Ok(())",
        ),
        (
            "#pragma acc mpi recvbuf(device) async(1)",
            "MPI_Irecv",
            "Ok(())",
        ),
        // Fig 7: the read-only pair eligible for node-heap aliasing.
        ("#pragma acc mpi sendbuf(readonly)", "MPI_Send", "Ok(())"),
        ("#pragma acc mpi recvbuf(readonly)", "MPI_Recv", "Ok(())"),
        // A broadcast may alias (§3.8), a sendrecv carries both sides.
        (
            "#pragma acc mpi sendbuf(readonly) recvbuf(readonly)",
            "MPI_Bcast",
            "Ok(())",
        ),
        (
            "#pragma acc mpi sendbuf(device) recvbuf(device)",
            "MPI_Sendrecv",
            "Ok(())",
        ),
        ("#pragma acc mpi sendbuf(device)", "MPI_Ssend", "Ok(())"),
        // Clause mismatch, both directions.
        (
            "#pragma acc mpi recvbuf(device)",
            "MPI_Isend",
            r#"Err("recvbuf clause on send call MPI_Isend")"#,
        ),
        (
            "#pragma acc mpi sendbuf(device)",
            "MPI_Recv",
            r#"Err("sendbuf clause on receive call MPI_Recv")"#,
        ),
        (
            "#pragma acc mpi sendbuf(device) recvbuf(device)",
            "MPI_Irecv",
            r#"Err("sendbuf clause on receive call MPI_Irecv")"#,
        ),
        // `async` queues a non-blocking point-to-point call only.
        (
            "#pragma acc mpi sendbuf(device) async(1)",
            "MPI_Send",
            r#"Err("async clause on MPI_Send: only MPI_Isend and MPI_Irecv are queued")"#,
        ),
        (
            "#pragma acc mpi recvbuf(device) async",
            "MPI_Recv",
            r#"Err("async clause on MPI_Recv: only MPI_Isend and MPI_Irecv are queued")"#,
        ),
        (
            "#pragma acc mpi sendbuf(readonly) async(2)",
            "MPI_Bcast",
            r#"Err("async clause on MPI_Bcast: only MPI_Isend and MPI_Irecv are queued")"#,
        ),
        // The clause mismatch is reported before the async one.
        (
            "#pragma acc mpi recvbuf(device) async(1)",
            "MPI_Send",
            r#"Err("recvbuf clause on send call MPI_Send")"#,
        ),
        // The directive annotates an MPI call and nothing else.
        (
            "#pragma acc mpi sendbuf(device)",
            "memcpy",
            r#"Err("the directive must annotate an MPI call, not 'memcpy'")"#,
        ),
    ];
    for (line, call, want) in cases {
        let d = parse_directive(line).unwrap();
        assert_eq!(format!("{:?}", d.check_call(call)), want, "{line} / {call}");
    }
}

/// A parse outcome is sane: an error points inside the line (or at its
/// end), and an accepted `acc mpi` line renders back to itself.
fn check_outcome(line: &str) {
    match parse_directive(line) {
        Ok(d) => assert_eq!(parse_directive(&d.render()), Ok(d), "{line:?}"),
        Err(e) => assert!(e.at <= line.len(), "{line:?}: {e:?}"),
    }
    if let Err(e) = parse_acc_directive(line) {
        assert!(e.at <= line.len(), "{line:?}: {e:?}");
    }
}

/// The lines of `CASES` that at least one entry point accepts.
fn accepted() -> Vec<&'static str> {
    CASES
        .iter()
        .filter(|(_, mpi, acc)| mpi.starts_with("Ok") || acc.starts_with("Ok"))
        .map(|&(line, _, _)| line)
        .collect()
}

/// Printable ASCII, a tab, and a few multi-byte characters.
fn printable_char() -> impl Strategy<Value = char> {
    (0u32..100).prop_map(|x| match x {
        0..=94 => char::from(b' ' + x as u8),
        95 => '\t',
        96 => '\u{a0}',
        97 => 'é',
        98 => '…',
        _ => '\u{3000}',
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    fn neither_entry_panics_on_printable_lines(
        prefix in 0usize..3,
        body in prop::collection::vec(printable_char(), 0..48),
    ) {
        let head = ["", "#pragma acc ", "#pragma acc mpi "][prefix];
        let line: String = head.chars().chain(body).collect();
        check_outcome(&line);
    }

    fn neither_entry_panics_on_a_single_byte_mutation(
        which in any::<usize>(),
        at in any::<usize>(),
        byte in 0x20u8..0x7f,
        op in 0u8..3,
    ) {
        let lines = accepted();
        let mut bytes = lines[which % lines.len()].as_bytes().to_vec();
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        check_outcome(std::str::from_utf8(&bytes).expect("accepted lines are ASCII"));
    }
}
