//! General OpenACC directive parsing — the other half of what the IMPACC
//! compiler's front end consumes.
//!
//! The paper's compiler translates `parallel`/`kernels` regions and data
//! constructs into accelerator programs and runtime calls; the `#pragma
//! acc mpi` extension (see [`crate::parser`]) rides alongside them. This
//! module parses the OpenACC 2.x directives those programs use: compute
//! constructs, structured/unstructured data constructs, `update`, `wait`
//! and loop annotations, with the clause set the evaluation applications
//! exercise. It reads the line through the same token cursor as the
//! `acc mpi` grammar.

use crate::parser::{err, int, Cursor, ParseError, Tok};

/// Which OpenACC directive a line carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccKind {
    /// `#pragma acc kernels` (optionally `kernels loop`).
    Kernels,
    /// `#pragma acc parallel` (optionally `parallel loop`).
    Parallel,
    /// `#pragma acc data` (structured region).
    Data,
    /// `#pragma acc enter data`.
    EnterData,
    /// `#pragma acc exit data`.
    ExitData,
    /// `#pragma acc update`.
    Update,
    /// `#pragma acc wait`.
    Wait,
    /// `#pragma acc loop` (inside a compute construct).
    Loop,
}

/// One data clause's variable list, e.g. `copyin(a, b)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarList {
    /// The clause name (`copy`, `copyin`, `copyout`, `create`, `present`,
    /// `delete`, `device`, `self`).
    pub clause: String,
    /// The listed variable names.
    pub vars: Vec<String>,
}

/// One `reduction(op:var, ...)` clause, e.g. `reduction(+:sum)` or
/// `reduction(max:res)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reduction {
    /// The reduction operator: `+`, `*`, `max` or `min`.
    pub op: String,
    /// The reduced scalar variables.
    pub vars: Vec<String>,
}

/// A parsed OpenACC directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccDirective {
    /// Directive kind.
    pub kind: AccKind,
    /// `loop` suffix on a compute construct (`kernels loop`).
    pub has_loop: bool,
    /// `async` clause: absent / bare / `async(q)`.
    pub asyncq: Option<Option<u32>>,
    /// `wait` clause arguments (`wait(1, 2)`), or the `wait` directive's.
    pub waits: Vec<u32>,
    /// Data clauses in source order.
    pub data: Vec<VarList>,
    /// `num_gangs(n)`.
    pub num_gangs: Option<u32>,
    /// `num_workers(n)`.
    pub num_workers: Option<u32>,
    /// `vector_length(n)`.
    pub vector_length: Option<u32>,
    /// `collapse(n)` on a loop.
    pub collapse: Option<u32>,
    /// Bare parallelism clauses present on a loop (`gang`, `worker`,
    /// `vector`, `independent`, `seq`).
    pub loop_modes: Vec<String>,
    /// `reduction(op:var, ...)` clauses in source order.
    pub reductions: Vec<Reduction>,
}

const DATA_CLAUSES: &[&str] = &[
    "copy", "copyin", "copyout", "create", "present", "delete", "device", "self", "host",
];
const LOOP_MODES: &[&str] = &["gang", "worker", "vector", "independent", "seq"];

/// Parse one `#pragma acc ...` line (any directive except `acc mpi`,
/// which [`crate::parse_directive`] owns).
pub fn parse_acc_directive(line: &str) -> Result<AccDirective, ParseError> {
    let mut c = Cursor::new(line)?;
    c.header(&["#pragma", "acc"])
        .map_err(|w| err(c.at(), format!("expected '{w}'")))?;
    let (kind, words) = match (c.word(0), c.word(1)) {
        (Some("kernels"), _) => (AccKind::Kernels, 1),
        (Some("parallel"), _) => (AccKind::Parallel, 1),
        (Some("enter"), Some("data")) => (AccKind::EnterData, 2),
        (Some("exit"), Some("data")) => (AccKind::ExitData, 2),
        (Some("data"), _) => (AccKind::Data, 1),
        (Some("update"), _) => (AccKind::Update, 1),
        (Some("wait"), _) => (AccKind::Wait, 1),
        (Some("loop"), _) => (AccKind::Loop, 1),
        (Some("mpi"), _) => return Err(err(c.at(), "use parse_directive() for '#pragma acc mpi'")),
        (other, _) => return Err(err(c.at(), format!("unknown OpenACC directive {other:?}"))),
    };
    c.skip(words);

    let mut d = AccDirective {
        kind,
        // `kernels loop` / `parallel loop`.
        has_loop: matches!(kind, AccKind::Kernels | AccKind::Parallel) && c.eat(Tok::Ident("loop")),
        asyncq: None,
        waits: Vec::new(),
        data: Vec::new(),
        num_gangs: None,
        num_workers: None,
        vector_length: None,
        collapse: None,
        loop_modes: Vec::new(),
        reductions: Vec::new(),
    };
    // The `wait` *directive* takes an optional bare argument list, and
    // clauses may follow it (`wait(1) async(2)`).
    if kind == AccKind::Wait && c.peek(0) == Some(Tok::LParen) {
        d.waits = int_list(&mut c)?;
    }
    while let Some((at, name)) = c.clause()? {
        match name {
            "async" => {
                d.asyncq = Some(match c.peek(0) {
                    Some(Tok::LParen) => Some(one(&mut c, at, name, "queue")?),
                    _ => None,
                })
            }
            "wait" => d.waits = int_list(&mut c)?,
            "num_gangs" | "num_workers" | "vector_length" | "collapse" => {
                let v = one(&mut c, at, name, "integer")?;
                *match name {
                    "num_gangs" => &mut d.num_gangs,
                    "num_workers" => &mut d.num_workers,
                    "vector_length" => &mut d.vector_length,
                    _ => &mut d.collapse,
                } = Some(v);
            }
            "reduction" => {
                c.expect(Tok::LParen)?;
                let unterminated = "unterminated reduction clause";
                let op = c.item(
                    |t| match t {
                        Tok::Sym(s @ ('+' | '*')) => Some(s.to_string()),
                        Tok::Ident(w @ ("max" | "min")) => Some(w.to_string()),
                        _ => None,
                    },
                    "expected a reduction operator (+, *, max, min)",
                    unterminated,
                )?;
                c.expect(Tok::Sym(':'))?;
                let vars = c.list(name_of, "expected a reduction variable", unterminated)?;
                d.reductions.push(Reduction { op, vars });
            }
            clause if DATA_CLAUSES.contains(&clause) => {
                c.expect(Tok::LParen)?;
                let vars = c.list(
                    name_of,
                    "expected a variable name",
                    "unterminated variable list",
                )?;
                d.data.push(VarList {
                    clause: clause.to_string(),
                    vars,
                });
            }
            mode if LOOP_MODES.contains(&mode) => d.loop_modes.push(mode.to_string()),
            other => return Err(err(at, format!("unknown clause '{other}'"))),
        }
    }
    Ok(d)
}

/// `( int, ... )`.
fn int_list(c: &mut Cursor) -> Result<Vec<u32>, ParseError> {
    c.expect(Tok::LParen)?;
    c.list(int, "expected an integer", "unterminated argument list")
}

/// `( int )`: the list of clause `name` at `at`, which holds one value.
fn one(c: &mut Cursor, at: usize, name: &str, noun: &str) -> Result<u32, ParseError> {
    match int_list(c)?[..] {
        [v] => Ok(v),
        _ => Err(err(at, format!("{name} takes exactly one {noun}"))),
    }
}

fn name_of(t: Tok) -> Option<String> {
    match t {
        Tok::Ident(v) => Some(v.to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The variables listed under data clause `clause`.
    fn vars<'a>(d: &'a AccDirective, clause: &str) -> Vec<&'a str> {
        d.data
            .iter()
            .filter(|v| v.clause == clause)
            .flat_map(|v| v.vars.iter().map(String::as_str))
            .collect()
    }

    #[test]
    fn parses_the_papers_kernels_lines() {
        // Figure 4: "#pragma acc kernels loop copyout(buf0) async(1)"
        let d = parse_acc_directive("#pragma acc kernels loop copyout(buf0) async(1)").unwrap();
        assert_eq!(d.kind, AccKind::Kernels);
        assert!(d.has_loop);
        assert_eq!(vars(&d, "copyout"), vec!["buf0"]);
        assert_eq!(d.asyncq, Some(Some(1)));

        let d = parse_acc_directive("#pragma acc kernels loop copyin(buf1)").unwrap();
        assert_eq!(vars(&d, "copyin"), vec!["buf1"]);
        assert_eq!(d.asyncq, None);
    }

    #[test]
    fn parses_data_constructs() {
        let d =
            parse_acc_directive("#pragma acc data copyin(a, b) create(c) present(d) copyout(r)")
                .unwrap();
        assert_eq!(d.kind, AccKind::Data);
        assert_eq!(vars(&d, "copyin"), vec!["a", "b"]);
        assert_eq!(vars(&d, "create"), vec!["c"]);
        assert_eq!(vars(&d, "present"), vec!["d"]);
        assert_eq!(vars(&d, "copyout"), vec!["r"]);

        let d = parse_acc_directive("#pragma acc enter data create(u) async(2)").unwrap();
        assert_eq!(d.kind, AccKind::EnterData);
        assert_eq!(d.asyncq, Some(Some(2)));
        let d = parse_acc_directive("#pragma acc exit data delete(u)").unwrap();
        assert_eq!(d.kind, AccKind::ExitData);
    }

    #[test]
    fn parses_update_and_wait() {
        let d = parse_acc_directive("#pragma acc update host(u) device(v) async(1)").unwrap();
        assert_eq!(d.kind, AccKind::Update);
        assert_eq!(vars(&d, "host"), vec!["u"]);
        assert_eq!(vars(&d, "device"), vec!["v"]);

        let d = parse_acc_directive("#pragma acc wait(1, 2)").unwrap();
        assert_eq!(d.kind, AccKind::Wait);
        assert_eq!(d.waits, vec![1, 2]);

        let d = parse_acc_directive("#pragma acc wait").unwrap();
        assert!(d.waits.is_empty());
    }

    #[test]
    fn parses_parallel_tuning_clauses() {
        let d = parse_acc_directive(
            "#pragma acc parallel loop gang vector num_gangs(128) vector_length(256) collapse(2)",
        )
        .unwrap();
        assert_eq!(d.kind, AccKind::Parallel);
        assert!(d.has_loop);
        assert_eq!(d.num_gangs, Some(128));
        assert_eq!(d.vector_length, Some(256));
        assert_eq!(d.collapse, Some(2));
        assert_eq!(d.loop_modes, vec!["gang", "vector"]);
    }

    #[test]
    fn parses_reduction_clauses() {
        // The testmpi.cpp pattern: "#pragma acc parallel loop reduction(+:sum)".
        let d =
            parse_acc_directive("#pragma acc parallel loop reduction(+:sum) copyin(a, b)").unwrap();
        assert_eq!(
            d.reductions,
            vec![Reduction {
                op: "+".into(),
                vars: vec!["sum".into()]
            }]
        );
        assert_eq!(vars(&d, "copyin"), vec!["a", "b"]);

        let d = parse_acc_directive("#pragma acc parallel loop reduction(max:res, err)").unwrap();
        assert_eq!(d.reductions[0].op, "max");
        assert_eq!(d.reductions[0].vars, vec!["res", "err"]);

        let d =
            parse_acc_directive("#pragma acc loop reduction(*:prod) reduction(min:lo)").unwrap();
        assert_eq!(d.reductions.len(), 2);
        assert_eq!(d.reductions[1].op, "min");
    }

    #[test]
    fn rejects_malformed_acc_directives() {
        for (text, needle) in [
            ("#pragma acc mpi sendbuf(device)", "use parse_directive"),
            (
                "#pragma acc parallel loop reduction(^:x)",
                "unexpected character",
            ),
            (
                "#pragma acc parallel loop reduction(sum)",
                "expected a reduction operator",
            ),
            (
                "#pragma acc parallel loop reduction(+:)",
                "expected a reduction variable",
            ),
            (
                "#pragma acc parallel loop reduction(+:x",
                "expected ',' or ')'",
            ),
            ("#pragma acc frobnicate", "unknown OpenACC directive"),
            ("#pragma acc kernels quux(a)", "unknown clause"),
            ("#pragma acc kernels copyin()", "expected a variable name"),
            ("#pragma acc kernels async(1, 2)", "exactly one queue"),
            ("#pragma acc update host(u", "expected ',' or ')'"),
            ("#pragma acc parallel num_gangs()", "expected an integer"),
        ] {
            let err = parse_acc_directive(text).unwrap_err();
            assert!(err.message.contains(needle), "{text}: {}", err.message);
        }
    }

    #[test]
    fn wait_directive_with_async_continuation() {
        let d = parse_acc_directive("#pragma acc wait(3) async(4)").unwrap();
        assert_eq!(d.waits, vec![3]);
        assert_eq!(d.asyncq, Some(Some(4)));
    }

    #[test]
    fn figure4c_kernels_share_the_mpi_queue() {
        // Figure 4(c): the kernels and the `acc mpi` pair sit on queue 1.
        let d = parse_acc_directive("#pragma acc kernels loop async(1)").unwrap();
        assert_eq!((d.kind, d.has_loop), (AccKind::Kernels, true));
        assert_eq!(d.asyncq, Some(Some(1)));
        assert!(d.data.is_empty());
        let m = crate::parse_directive("#pragma acc mpi sendbuf(device) async(1)").unwrap();
        assert_eq!(m.asyncq, Some(Some(1)));
    }

    #[test]
    fn update_and_wait_on_one_queue() {
        let d = parse_acc_directive("#pragma acc update host(u) async(2)").unwrap();
        assert_eq!(d.kind, AccKind::Update);
        assert_eq!(vars(&d, "host"), vec!["u"]);
        assert_eq!(d.asyncq, Some(Some(2)));
        let d = parse_acc_directive("#pragma acc wait(2)").unwrap();
        assert_eq!((d.kind, d.waits.as_slice()), (AccKind::Wait, &[2][..]));
        let d = parse_acc_directive("#pragma acc update device(u)").unwrap();
        assert_eq!(vars(&d, "device"), vec!["u"]);
        assert_eq!(d.asyncq, None);
    }

    #[test]
    fn enter_exit_data_pair() {
        let d = parse_acc_directive("#pragma acc enter data create(u) copyin(v)").unwrap();
        assert_eq!(d.kind, AccKind::EnterData);
        assert_eq!(vars(&d, "create"), vec!["u"]);
        assert_eq!(vars(&d, "copyin"), vec!["v"]);
        let d = parse_acc_directive("#pragma acc exit data copyout(u) delete(v)").unwrap();
        assert_eq!(d.kind, AccKind::ExitData);
        assert_eq!(vars(&d, "copyout"), vec!["u"]);
        assert_eq!(vars(&d, "delete"), vec!["v"]);
    }

    #[test]
    fn tuning_clauses_are_all_read() {
        let d = parse_acc_directive(
            "#pragma acc parallel loop num_gangs(64) num_workers(4) vector_length(128) async(1)",
        )
        .unwrap();
        assert_eq!(d.num_gangs, Some(64));
        assert_eq!(d.num_workers, Some(4));
        assert_eq!(d.vector_length, Some(128));
        assert_eq!(d.asyncq, Some(Some(1)));
    }

    #[test]
    fn each_entry_refuses_the_other_family() {
        let e = parse_acc_directive("#pragma acc mpi sendbuf(device)").unwrap_err();
        assert!(e.message.contains("use parse_directive"), "{}", e.message);
        assert!(crate::parse_directive("#pragma acc kernels loop async(1)").is_err());
    }
}
