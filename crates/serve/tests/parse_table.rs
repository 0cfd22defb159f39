//! What `JobSpec::parse` makes of a job text, pinned case by case: line
//! endings, comments, where a line splits, whitespace, repeats, and the
//! exact first error. Then a round trip over generated jobs of every
//! workload: the spool wire format (`to_file`) re-parses to the job it
//! was rendered from, under the same key.

use impacc_serve::job::escape_src;
use impacc_serve::{JobSpec, Workload};
use proptest::prelude::*;

/// The job every accepting case below is compared against, field by field.
fn allreduce(elems: usize) -> JobSpec {
    JobSpec {
        elems,
        ..JobSpec::default()
    }
}

#[test]
fn every_text_parses_to_its_pinned_job() {
    let cases: Vec<(&str, &str, JobSpec)> = vec![
        ("no trailing newline", "elems=32", allreduce(32)),
        ("trailing newline", "elems=32\n", allreduce(32)),
        ("crlf", "workload=allreduce\r\nelems=32\r\n", allreduce(32)),
        ("a lone final cr", "elems=32\r", allreduce(32)),
        ("comment line", "# a job\nelems=32", allreduce(32)),
        (
            "comment after a value",
            "elems=32 # padded\n",
            allreduce(32),
        ),
        ("comment right after a value", "elems=32#x", allreduce(32)),
        (
            "comment with an = in it",
            "elems=32 # elems=64",
            allreduce(32),
        ),
        (
            "blank and comment-only lines",
            "\n\n   \n\t\n# x\n  # y = z\nelems=32\n\n",
            allreduce(32),
        ),
        (
            "whitespace around key and value",
            "  elems \t=   32  \n \tworkload=  allreduce",
            allreduce(32),
        ),
        (
            "unicode whitespace is trimmed too",
            "\u{a0}elems\u{2003}=\u{3000}32\u{a0}\n\u{b}workload=allreduce\u{c}",
            allreduce(32),
        ),
        (
            "a repeated key: the later wins",
            "elems=1\nelems=2\nelems=32",
            allreduce(32),
        ),
        (
            "# inside campaign= starts a comment",
            "elems=32\ncampaign=sweep#7",
            JobSpec {
                campaign: "sweep".into(),
                ..allreduce(32)
            },
        ),
        (
            "a line splits at its first =",
            "campaign=a=b = c\nelems=32",
            JobSpec {
                campaign: "a=b = c".into(),
                ..allreduce(32)
            },
        ),
        (
            "an empty value where a string is wanted",
            "campaign=\nelems=32",
            allreduce(32),
        ),
        (
            "empty params and fail_device lists",
            "params=\nfail_device= , \nelems=32",
            allreduce(32),
        ),
        (
            "every field",
            "workload=stencil2d\nspec=psg\nnodes=1\ngpus=4\nseed=9\nelems=7\nrounds=3\nn=40\n\
             iters=2\nhalo=2\nprogram=dot\nparams=b:2,a:1,b:3\nalgo=ring\nchaos_rate=0.25\n\
             chaos_seed=4\nfail_device=0:3,0:1,0:3\nprof=true\npriority=high\ncampaign=c",
            JobSpec {
                workload: Workload::Stencil2d,
                spec: "psg".into(),
                nodes: 1,
                gpus: 4,
                seed: 9,
                elems: 7,
                rounds: 3,
                n: 40,
                iters: 2,
                halo: 2,
                program: "dot".into(),
                params: vec![("a".into(), 1.0), ("b".into(), 3.0)],
                algo: impacc_core::CollAlgo::parse("ring"),
                chaos_rate: 0.25,
                chaos_seed: 4,
                fail_device: vec![(0, 1), (0, 3)],
                prof: true,
                priority: impacc_serve::Priority::High,
                campaign: "c".into(),
            },
        ),
        (
            "numbers: padding and a + sign",
            "elems=+0032\nseed=007",
            JobSpec {
                seed: 7,
                ..allreduce(32)
            },
        ),
    ];
    for (what, text, want) in cases {
        match JobSpec::parse(text) {
            Ok(job) => assert_eq!(job, want, "{what}: {text:?}"),
            Err(e) => panic!("{what}: {text:?} was rejected: {e}"),
        }
    }
}

#[test]
fn every_rejected_text_reports_its_pinned_first_error() {
    let cases: [(&str, &str, &str); 17] = [
        ("unknown key", "bogus=1", "unknown job field \"bogus\""),
        ("empty key", "=1", "unknown job field \"\""),
        (
            "a line without =",
            "workload=allreduce\njust words # and a comment",
            "expected key=value, got \"just words\"",
        ),
        (
            "an = only inside the comment",
            "elems # =32",
            "expected key=value, got \"elems\"",
        ),
        (
            "the first offending line wins",
            "elems=x\nno pair\nbogus=1",
            "field elems: cannot parse \"x\"",
        ),
        (
            "an error before an unknown key",
            "no pair\nelems=x",
            "expected key=value, got \"no pair\"",
        ),
        ("empty number", "elems=", "field elems: cannot parse \"\""),
        (
            "negative count",
            "nodes=-1",
            "field nodes: cannot parse \"-1\"",
        ),
        (
            "u32 overflow",
            "rounds=4294967296",
            "field rounds: cannot parse \"4294967296\"",
        ),
        (
            "a cr inside a value",
            "elems=3\r2",
            "field elems: cannot parse \"3\\r2\"",
        ),
        (
            "empty workload",
            "workload=",
            "unknown workload \"\" (allreduce|exchange|jacobi|stencil3d|stencil2d|redblack|dsl)",
        ),
        (
            "unknown preset",
            "spec=cray",
            "unknown machine preset \"cray\" (test_cluster|psg|titan)",
        ),
        (
            "bad boolean",
            "prof=yes",
            "field prof: want 0|1|true|false, got \"yes\"",
        ),
        (
            "bad priority",
            "priority=urgent",
            "unknown priority \"urgent\" (high|normal|low)",
        ),
        (
            "chaos rate out of range",
            "chaos_rate=2",
            "chaos_rate 2 out of [0,1]",
        ),
        (
            "params entry without a value",
            "params=n",
            "params entry \"n\": want name:value",
        ),
        (
            "validation runs after the last line",
            "workload=exchange\ngpus=4\nelems=8",
            "exchange needs exactly 2 tasks, spec hosts 8",
        ),
    ];
    for (what, text, want) in cases {
        match JobSpec::parse(text) {
            Ok(job) => panic!("{what}: {text:?} was accepted as {job:?}"),
            Err(e) => assert_eq!(e, want, "{what}: {text:?}"),
        }
    }
}

/// Inline DSL sources a generated job may carry: two shipped examples
/// spelled out, and a program whose text needs every escape.
fn inline_source(pick: usize) -> String {
    match pick % 3 {
        0 => impacc_dsl::example("jacobi").expect("shipped").to_string(),
        1 => impacc_dsl::example("dot").expect("shipped").to_string(),
        _ => "param n = 16; # a comment\narray\tx[n] init(1.0);\nvar s = 0.0;\n\
              #pragma acc parallel loop copyin(x) reduction(+:s)\n\
              for (i = 0; i < n; ++i) {\n  s += x[i];\n}\n"
            .to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A valid job of any workload survives the spool wire format: the
    /// re-parsed job is the job itself, except that a DSL program travels
    /// as its normal form with its `params` folded in.
    #[test]
    fn to_file_round_trips_every_workload(
        shape in (0usize..7, 0usize..3, 1usize..4, 1usize..5, any::<u64>()),
        sizes in (1usize..5000, 1u32..5, 4usize..40, 1usize..6, 1usize..4),
        dsl in (0usize..5, 0usize..3, 8usize..64, any::<bool>()),
        knobs in (0usize..7, 0usize..4, any::<u64>(), 0usize..3, any::<bool>()),
    ) {
        const WORKLOADS: [&str; 7] =
            ["allreduce", "exchange", "jacobi", "stencil3d", "stencil2d", "redblack", "dsl"];
        const ALGOS: [&str; 7] = ["auto", "flat", "binomial", "ring", "rd", "rabenseifner", "hier"];
        const RATES: [&str; 4] = ["0", "0.05", "1e-7", "1"];
        let (workload, spec, nodes, gpus, seed) = shape;
        let (elems, rounds, n, iters, halo) = sizes;
        let (program, source, pn, with_params) = dsl;
        let (algo, rate, chaos_seed, priority, prof) = knobs;
        let spec = ["test_cluster", "psg", "titan"][spec];
        let nodes = if spec == "psg" { 1 } else { nodes };
        let mut pairs: Vec<(&str, String)> = vec![
            ("workload", WORKLOADS[workload].to_string()),
            ("spec", spec.to_string()),
            ("nodes", nodes.to_string()),
            ("gpus", gpus.to_string()),
            ("seed", seed.to_string()),
            ("chaos_rate", RATES[rate].to_string()),
            ("chaos_seed", chaos_seed.to_string()),
            ("priority", ["high", "normal", "low"][priority].to_string()),
            ("prof", u8::from(prof).to_string()),
            ("campaign", if prof { "sweep".to_string() } else { String::new() }),
        ];
        // A field the workload does not read is not on the wire either.
        let reads: &[&str] = match WORKLOADS[workload] {
            "allreduce" => &["algo", "elems", "rounds"],
            "exchange" => &["rounds"],
            "stencil2d" => &["halo", "iters", "n"],
            "dsl" => &[],
            _ => &["iters", "n"],
        };
        for (field, value) in [
            ("algo", ALGOS[algo].to_string()),
            ("elems", elems.to_string()),
            ("rounds", rounds.to_string()),
            ("n", n.to_string()),
            ("iters", iters.to_string()),
            ("halo", halo.to_string()),
        ] {
            if reads.contains(&field) {
                pairs.push((field, value));
            }
        }
        if WORKLOADS[workload] == "dsl" {
            let named = ["jacobi", "dot", "stencil2d"];
            let program = match program {
                0..=2 => named[program].to_string(),
                _ => escape_src(&inline_source(source)),
            };
            pairs.push(("program", program));
            if with_params {
                pairs.push(("params", format!("n:{pn}")));
            }
        }
        let job = JobSpec::from_pairs(pairs.iter().map(|(k, v)| (*k, v.as_str())));
        // Only a job that validates has a wire form to round-trip.
        if let Ok(job) = job {
            let back = JobSpec::parse(&job.to_file())
                .unwrap_or_else(|e| panic!("to_file must re-parse: {e}\n{}", job.to_file()));
            let want = if job.workload == Workload::Dsl {
                let front = job.dsl_front().expect("a valid dsl job compiles");
                JobSpec {
                    program: front.normal_form.clone(),
                    params: Vec::new(),
                    ..job.clone()
                }
            } else {
                job.clone()
            };
            prop_assert_eq!(&back, &want);
            prop_assert_eq!(back.key(), job.key());
            prop_assert_eq!(JobSpec::parse(&back.to_file()).as_ref(), Ok(&back));
        }
    }
}
