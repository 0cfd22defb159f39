//! Golden-translation gate: the canonical source and lowered plan for
//! every shipped example are pinned byte-for-byte under
//! `crates/dsl/golden/`. Any change to the pretty-printer, the flop
//! model, halo inference or the plan dump shows up here as a readable
//! diff — regenerate with `cargo run --bin impaccc -- translate <name>`
//! after deciding the change is intentional.

use impacc_dsl::{compile, dump_plan, example};

const GOLDEN: [(&str, &str); 3] = [
    ("jacobi", include_str!("../golden/jacobi.plan")),
    ("dot", include_str!("../golden/dot.plan")),
    ("stencil2d", include_str!("../golden/stencil2d.plan")),
];

fn translate(src: &str) -> String {
    let c = compile(src).expect("shipped example compiles");
    format!(
        "== canonical source ==\n{}== lowered plan ==\n{}",
        c.program.pretty(),
        dump_plan(&c)
    )
}

#[test]
fn translations_match_their_golden_snapshots() {
    for (name, want) in GOLDEN {
        let got = translate(example(name).expect("example exists"));
        assert_eq!(
            got, want,
            "{name}: translation drifted from crates/dsl/golden/{name}.plan \
             (regenerate via `cargo run --bin impaccc -- translate {name}` if intended)"
        );
    }
}

#[test]
fn translation_is_byte_stable_across_compiles() {
    for (name, _) in GOLDEN {
        let src = example(name).unwrap();
        assert_eq!(translate(src), translate(src), "{name}: unstable output");
    }
}
