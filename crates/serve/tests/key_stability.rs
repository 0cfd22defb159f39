//! Content addresses cannot drift. A key names stored results — in every
//! spool's `cache/` directory and in `JOB_<key>.json` artifacts — so the
//! bytes of [`JobSpec::canonical`] and [`JobSpec::key`] are a wire format:
//! a faster rendering must produce exactly the bytes the slower one did.
//!
//! - The `PINNED` literals were captured on the commit *before* the
//!   streaming rendering (PR 16's parent): one job per workload, a job
//!   with a fault plan, and the DSL spellings (named example, defaults
//!   spelled out via `params=`, inline source, an effective override).
//! - The property holds the streaming rendering to a reference: the
//!   `BTreeMap` rendering that commit shipped, kept here as the oracle.
//!
//! A deliberate change of the canonical form or the code version moves
//! every literal; recapture them from `canonical()`/`key()` then.

use std::collections::BTreeMap;

use impacc_serve::job::{escape_src, unescape_src};
use impacc_serve::{JobSpec, Priority, Workload};
use proptest::prelude::*;

/// `(name, request text, key, canonical)`.
const PINNED: [(&str, &str, &str, &str); 10] = [
    (
        "allreduce",
        "workload=allreduce\nelems=64\nrounds=3\ngpus=2\nseed=7\nalgo=ring",
        "627c02714faca850",
        "algo=ring chaos_rate=0 chaos_seed=0 elems=64 fail_device= gpus=2 nodes=2 rounds=3 seed=7 spec=test_cluster workload=allreduce",
    ),
    (
        "exchange",
        "workload=exchange\nnodes=2\ngpus=1\nrounds=3",
        "f2662f7672804c0d",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=1 nodes=2 rounds=3 seed=0 spec=test_cluster workload=exchange",
    ),
    (
        "jacobi",
        "workload=jacobi\nspec=psg\nnodes=1\ngpus=4\nn=32\niters=5",
        "6a14951f6efba1e7",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=4 iters=5 n=32 nodes=1 seed=0 spec=psg workload=jacobi",
    ),
    (
        "stencil3d",
        "workload=stencil3d\nnodes=2\ngpus=2\nn=8\niters=3",
        "85522cb51d74abd4",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 iters=3 n=8 nodes=2 seed=0 spec=test_cluster workload=stencil3d",
    ),
    (
        "stencil2d",
        "workload=stencil2d\nnodes=1\ngpus=2\nn=16\niters=3\nhalo=2",
        "7568bc324e70e04e",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 halo=2 iters=3 n=16 nodes=1 seed=0 spec=test_cluster workload=stencil2d",
    ),
    (
        "redblack",
        "workload=redblack\nspec=titan\nnodes=2\nn=16\niters=3",
        "52e298e2e07a7317",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=1 iters=3 n=16 nodes=2 seed=0 spec=titan workload=redblack",
    ),
    (
        "faults",
        "workload=allreduce\nspec=psg\nnodes=1\ngpus=3\nfail_device=0:2,0:0\nchaos_rate=0.05\nchaos_seed=9",
        "0eb6bb45b3d76eb8",
        "algo=auto chaos_rate=0.05 chaos_seed=9 elems=128 fail_device=0:0,0:2 gpus=3 nodes=1 rounds=2 seed=0 spec=psg workload=allreduce",
    ),
    (
        "dsl_named",
        "workload=dsl\nprogram=jacobi\ngpus=2",
        "dc024cfe00c2e69b",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 nodes=2 program=param\\sn\\s=\\s64.0;\\nparam\\siters\\s=\\s4.0;\\narray\\su[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\narray\\sunew[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\nvar\\sres\\s=\\s0.0;\\nfor\\s(it\\s=\\s0.0;\\sit\\s<\\siters;\\s++it)\\s{\\n\\s\\s\\hpragma\\sacc\\sparallel\\sloop\\scopy(u,\\sunew)\\sreduction(max:res)\\n\\s\\sfor\\s(i\\s=\\s0.0;\\si\\s<\\sn;\\s++i)\\s{\\n\\s\\s\\s\\sfor\\s(j\\s=\\s1.0;\\sj\\s<\\s(n\\s-\\s1.0);\\s++j)\\s{\\n\\s\\s\\s\\s\\s\\sunew[i][j]\\s=\\s(0.25\\s*\\s(((u[(i\\s-\\s1.0)][j]\\s+\\su[(i\\s+\\s1.0)][j])\\s+\\su[i][(j\\s-\\s1.0)])\\s+\\su[i][(j\\s+\\s1.0)]));\\n\\s\\s\\s\\s}\\n\\s\\s}\\n\\s\\sswap(u,\\sunew);\\n}\\nassert((res\\s>=\\s0.0));\\n seed=0 spec=test_cluster src_hash=de934840992ea811 workload=dsl",
    ),
    (
        "dsl_spelled",
        "workload=dsl\nprogram=jacobi\ngpus=2\nparams=n:64,iters:4",
        "dc024cfe00c2e69b",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 nodes=2 program=param\\sn\\s=\\s64.0;\\nparam\\siters\\s=\\s4.0;\\narray\\su[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\narray\\sunew[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\nvar\\sres\\s=\\s0.0;\\nfor\\s(it\\s=\\s0.0;\\sit\\s<\\siters;\\s++it)\\s{\\n\\s\\s\\hpragma\\sacc\\sparallel\\sloop\\scopy(u,\\sunew)\\sreduction(max:res)\\n\\s\\sfor\\s(i\\s=\\s0.0;\\si\\s<\\sn;\\s++i)\\s{\\n\\s\\s\\s\\sfor\\s(j\\s=\\s1.0;\\sj\\s<\\s(n\\s-\\s1.0);\\s++j)\\s{\\n\\s\\s\\s\\s\\s\\sunew[i][j]\\s=\\s(0.25\\s*\\s(((u[(i\\s-\\s1.0)][j]\\s+\\su[(i\\s+\\s1.0)][j])\\s+\\su[i][(j\\s-\\s1.0)])\\s+\\su[i][(j\\s+\\s1.0)]));\\n\\s\\s\\s\\s}\\n\\s\\s}\\n\\s\\sswap(u,\\sunew);\\n}\\nassert((res\\s>=\\s0.0));\\n seed=0 spec=test_cluster src_hash=de934840992ea811 workload=dsl",
    ),
    (
        "dsl_h3",
        "workload=dsl\nprogram=stencil2d\nnodes=2\ngpus=2\nparams=h:3",
        "4f826339c53c9154",
        "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 nodes=2 program=param\\sn\\s=\\s48.0;\\nparam\\siters\\s=\\s3.0;\\nparam\\sh\\s=\\s3.0;\\narray\\su[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\narray\\sunew[n][n]\\sinit(((i\\s<\\s0.0)\\s?\\s1.0\\s:\\s0.0));\\nvar\\sres\\s=\\s0.0;\\nfor\\s(it\\s=\\s0.0;\\sit\\s<\\siters;\\s++it)\\s{\\n\\s\\s\\hpragma\\sacc\\sparallel\\sloop\\scopy(u,\\sunew)\\sreduction(max:res)\\n\\s\\sfor\\s(i\\s=\\s0.0;\\si\\s<\\sn;\\s++i)\\s{\\n\\s\\s\\s\\sfor\\s(j\\s=\\sh;\\sj\\s<\\s(n\\s-\\sh);\\s++j)\\s{\\n\\s\\s\\s\\s\\s\\sunew[i][j]\\s=\\s(0.2\\s*\\s((((u[(i\\s-\\sh)][j]\\s+\\su[(i\\s+\\sh)][j])\\s+\\su[i][(j\\s-\\sh)])\\s+\\su[i][(j\\s+\\sh)])\\s+\\su[i][j]));\\n\\s\\s\\s\\s}\\n\\s\\s}\\n\\s\\sswap(u,\\sunew);\\n}\\nassert((res\\s>=\\s0.0));\\n\\hpragma\\sacc\\sparallel\\sloop\\scopy(u)\\nfor\\s(i\\s=\\s0.0;\\si\\s<\\sn;\\s++i)\\s{\\n\\s\\sfor\\s(j\\s=\\s0.0;\\sj\\s<\\sn;\\s++j)\\s{\\n\\s\\s\\s\\su[i][j]\\s=\\smax(u[i][j],\\s0.0);\\n\\s\\s}\\n}\\n seed=0 spec=test_cluster src_hash=e662d04954784840 workload=dsl",
    ),
];

/// Key and canonical form of the dot example inlined with `params=n:1024`.
const INLINE_DOT: (&str, &str) = (
    "9813d0ce7bacd70f",
    "chaos_rate=0 chaos_seed=0 fail_device= gpus=2 nodes=1 program=param\\sn\\s=\\s1024.0;\\narray\\sx[n]\\sinit((0.5\\s+\\si));\\narray\\sy[n]\\sinit(2.0);\\ncomm_split_shared;\\nvar\\ssum\\s=\\s0.0;\\n\\hpragma\\sacc\\sparallel\\sloop\\scopyin(x,\\sy)\\sreduction(+:sum)\\nfor\\s(i\\s=\\s0.0;\\si\\s<\\sn;\\s++i)\\s{\\n\\s\\ssum\\s+=\\s(x[i]\\s*\\sy[i]);\\n}\\nassert((sum\\s==\\s(n\\s*\\sn)));\\n seed=0 spec=test_cluster src_hash=c06a438591272ff0 workload=dsl",
);

/// Key and canonical form of a DSL job whose program does not compile.
const UNCOMPILABLE: (&str, &str) = (
    "d7b17519ef3f54d5",
    "chaos_rate=0 chaos_seed=0 fail_device= gpus=1 nodes=2 program=<invalid:\\sdsl\\scompile\\sfailed:\\sline\\s2:\\sunknown\\sfunction\\s'frob'> seed=0 spec=test_cluster src_hash=0000000000000000 workload=dsl",
);

fn uncompilable_job() -> JobSpec {
    JobSpec {
        workload: Workload::Dsl,
        program: escape_src("param n = 4;\nvar x = frob(n);\n"),
        ..JobSpec::default()
    }
}

#[test]
fn pinned_jobs_keep_their_canonical_form_and_key() {
    for (name, request, key, canonical) in PINNED {
        let job = JobSpec::parse(request).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(job.canonical(), canonical, "{name}: canonical form drifted");
        assert_eq!(job.key(), key, "{name}: key drifted");
    }
    let by_name = |n: &str| PINNED.iter().find(|p| p.0 == n).expect("pinned").2;
    assert_eq!(
        by_name("dsl_named"),
        by_name("dsl_spelled"),
        "a default spelled out via params= is the same program"
    );

    let dot = escape_src(impacc_dsl::example("dot").expect("shipped"));
    let inline = JobSpec::parse(&format!(
        "workload=dsl\nprogram={dot}\nnodes=1\ngpus=2\nparams=n:1024"
    ))
    .expect("inline dot parses");
    assert_eq!(
        (inline.key().as_str(), inline.canonical().as_str()),
        INLINE_DOT
    );
    // The named example with the same override is the same job.
    let named =
        JobSpec::parse("workload=dsl\nprogram=dot\nnodes=1\ngpus=2\nparams=n:1024").unwrap();
    assert_eq!(named.key(), INLINE_DOT.0);
}

#[test]
fn an_uncompilable_program_keeps_its_invalid_rendering() {
    let bad = uncompilable_job();
    assert!(bad.validate().is_err());
    assert_eq!((bad.key().as_str(), bad.canonical().as_str()), UNCOMPILABLE);
    assert_eq!(bad.canonical(), reference_canonical(&bad));
}

/// The canonical rendering as shipped before the streaming one: every
/// pair into a `BTreeMap`, then joined. Compiles the DSL program itself,
/// clones the AST and folds the resolved params in — none of
/// `impacc_serve`'s front path.
fn reference_canonical(job: &JobSpec) -> String {
    let mut m: BTreeMap<&'static str, String> = BTreeMap::new();
    m.insert("workload", job.workload.label().to_string());
    m.insert("spec", job.spec.clone());
    m.insert("nodes", job.nodes.to_string());
    m.insert("gpus", job.gpus.to_string());
    m.insert("seed", job.seed.to_string());
    match job.workload {
        Workload::Allreduce => {
            m.insert("elems", job.elems.to_string());
            m.insert("rounds", job.rounds.to_string());
            m.insert("algo", job.algo.map_or("auto", |a| a.label()).to_string());
        }
        Workload::Exchange => {
            m.insert("rounds", job.rounds.to_string());
        }
        Workload::Jacobi | Workload::Stencil3d | Workload::Redblack => {
            m.insert("n", job.n.to_string());
            m.insert("iters", job.iters.to_string());
        }
        Workload::Stencil2d => {
            m.insert("n", job.n.to_string());
            m.insert("iters", job.iters.to_string());
            m.insert("halo", job.halo.to_string());
        }
        Workload::Dsl => {
            let (canon, hash) = reference_dsl_canonical(job)
                .unwrap_or_else(|e| (format!("<invalid: {e}>"), "0".repeat(16)));
            m.insert("program", escape_src(&canon));
            m.insert("src_hash", hash);
        }
    }
    m.insert("chaos_rate", format!("{}", job.chaos_rate));
    m.insert("chaos_seed", job.chaos_seed.to_string());
    m.insert(
        "fail_device",
        job.fail_device
            .iter()
            .map(|(n, d)| format!("{n}:{d}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    m.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn reference_dsl_canonical(job: &JobSpec) -> Result<(String, String), String> {
    let src = match impacc_dsl::example(&job.program) {
        Some(src) => src.to_string(),
        None => unescape_src(&job.program),
    };
    let c = impacc_dsl::compile_with_overrides(&src, &job.params)
        .map_err(|e| format!("dsl compile failed: {e}"))?;
    let mut prog = c.program.clone();
    for item in &mut prog.items {
        if let impacc_dsl::ast::Item::Param { name, value } = item {
            if let Some((_, v)) = c.params.iter().find(|(n, _)| n == name) {
                *value = impacc_dsl::ast::Expr::Num(*v);
            }
        }
    }
    let canon = prog.pretty();
    let hash = impacc_dsl::source_hash(&canon);
    Ok((canon, hash))
}

const WORKLOADS: [Workload; 7] = [
    Workload::Allreduce,
    Workload::Exchange,
    Workload::Jacobi,
    Workload::Stencil3d,
    Workload::Stencil2d,
    Workload::Redblack,
    Workload::Dsl,
];

const ALGOS: [&str; 8] = [
    "auto",
    "flat",
    "binomial",
    "ring",
    "rd",
    "rabenseifner",
    "bruck",
    "hier",
];

const CHAOS_RATES: [f64; 6] = [0.0, 0.05, 0.001, 0.5, 1.0, 1e-7];

/// `(program, params)` a DSL job may carry; the last one does not compile.
fn dsl_program(pick: usize) -> (String, Vec<(String, f64)>) {
    let p = |name: &str, v: f64| (name.to_string(), v);
    match pick % 6 {
        0 => ("jacobi".to_string(), vec![]),
        1 => ("jacobi".to_string(), vec![p("iters", 2.0), p("n", 16.0)]),
        2 => ("dot".to_string(), vec![p("n", 512.0)]),
        3 => ("stencil2d".to_string(), vec![p("h", 1.0), p("n", 24.0)]),
        4 => (
            escape_src(impacc_dsl::example("dot").expect("shipped")),
            vec![p("n", 256.0)],
        ),
        _ => (escape_src("param n = 4;\nvar x = frob(n);\n"), vec![]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Over random jobs of all seven workloads — valid or not — the
    /// streaming `canonical()` is the reference rendering, and every job
    /// that validates survives the spool wire format with its key.
    #[test]
    fn streaming_canonical_is_the_reference_rendering(
        shape in (0usize..7, 0usize..3, 1usize..4, 1usize..4, any::<u64>()),
        sizes in (1usize..5000, 1u32..5, 2usize..40, 1usize..6, 1usize..4),
        faults in (0usize..6, any::<u64>(), prop::collection::vec((0usize..3, 0usize..3), 0..3)),
        knobs in (0usize..8, 0usize..6, 0usize..3, any::<bool>()),
    ) {
        let (workload, spec, nodes, gpus, seed) = shape;
        let (elems, rounds, n, iters, halo) = sizes;
        let (rate, chaos_seed, fail_device) = faults;
        let (algo, program, priority, prof) = knobs;
        // Steer most cases to jobs that validate (the wire round trip
        // needs one): psg is one node, failed devices exist, and a
        // jacobi job wants an even mesh.
        let nodes = if spec == 1 { 1 } else { nodes };
        let mut fail_device: Vec<(usize, usize)> =
            fail_device.iter().map(|(a, b)| (a % nodes, b % gpus)).collect();
        fail_device.sort_unstable();
        fail_device.dedup();
        let n = if WORKLOADS[workload] == Workload::Jacobi { (n + 8) & !1 } else { n };
        let (program, params) = dsl_program(program);
        let job = JobSpec {
            workload: WORKLOADS[workload],
            spec: ["test_cluster", "psg", "titan"][spec].to_string(),
            nodes,
            gpus,
            seed,
            elems,
            rounds,
            n,
            iters,
            halo,
            program,
            params,
            algo: impacc_core::CollAlgo::parse(ALGOS[algo]),
            chaos_rate: CHAOS_RATES[rate],
            chaos_seed,
            fail_device,
            prof,
            priority: [Priority::High, Priority::Normal, Priority::Low][priority],
            campaign: if prof { "sweep".to_string() } else { String::new() },
        };
        prop_assert_eq!(job.canonical(), reference_canonical(&job));
        if job.validate().is_ok() {
            let back = JobSpec::parse(&job.to_file())
                .unwrap_or_else(|e| panic!("to_file of a valid job must parse: {e}\n{}", job.to_file()));
            prop_assert_eq!(back.key(), job.key());
            prop_assert_eq!(back.canonical(), job.canonical());
            prop_assert_eq!(
                (back.prof, back.priority, &back.campaign),
                (job.prof, job.priority, &job.campaign)
            );
        }
    }
}
