//! The reproduction's numbers, byte for byte: every `all_figures`
//! section in quick mode, and every shipped campaign as `sweep` renders
//! it, must equal its snapshot under `crates/bench/golden/`. A change that
//! moves a number shows here as a diff. Regenerate a snapshot by piping
//! its binary, after deciding the move is intended:
//!
//! ```text
//! IMPACC_BENCH_QUICK=1 target/release/fig13 > crates/bench/golden/fig13.txt
//! target/release/sweep campaigns/dsl.campaign > crates/bench/golden/sweep_dsl.txt
//! ```
//!
//! (`table1` prints a two-line title before its section: `| tail -n +3`.)

use std::path::{Path, PathBuf};

use impacc_bench::{sweep, FIGURES};

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn check(name: &str, got: &str) {
    let path = repo(&format!("crates/bench/golden/{name}.txt"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        format!("{got}\n"),
        want,
        "{name} drifted from {}",
        path.display()
    );
}

#[test]
fn figures_match_their_goldens() {
    std::env::set_var("IMPACC_BENCH_QUICK", "1");
    for (name, _, run) in FIGURES {
        check(name, &run());
    }
}

#[test]
fn sweeps_match_their_goldens() {
    let mut campaigns: Vec<PathBuf> = std::fs::read_dir(repo("campaigns"))
        .expect("campaigns/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "campaign"))
        .collect();
    campaigns.sort();
    assert!(!campaigns.is_empty(), "campaigns/ holds the shipped sweeps");
    for path in campaigns {
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        check(
            &format!("sweep_{stem}"),
            &sweep::run(&path).expect("campaign runs"),
        );
    }
}
