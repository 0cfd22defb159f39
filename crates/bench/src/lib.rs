//! # impacc-bench — the paper's evaluation, reproduced
//!
//! One module per table/figure of §4; each exposes a `run()` that returns
//! the rendered report, and a thin binary under `src/bin/` prints it.
//! Figures 10, 12, 13 and 15 are lists of [`panel::Panel`]s, and every
//! DGEMM, EP, Jacobi or LULESH launch goes through [`panel::App`].
//! `cargo run -p impacc-bench --release --bin all_figures` regenerates
//! everything (EXPERIMENTS.md records the output; `golden/` holds the
//! quick-mode reports the `golden` test byte-diffs). The one binary that
//! is not a figure, `sweep <file.campaign>`, renders a shipped serve
//! campaign as a table ([`sweep`]).
//!
//! Everything here is virtual time: no module reads a clock, so two runs
//! of a binary print the same bytes and write the same `BENCH_<name>.json`.
//! How fast the simulator itself runs is measured by the standalone
//! `benchmark/` package and nowhere else.
//!
//! Environment switch: `IMPACC_BENCH_QUICK=1` trims sweeps. The default
//! runs every point the paper plots, the 8,192-task Titan ones included.

#![warn(missing_docs)]

pub mod ablations;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod panel;
pub mod prof;
pub mod specs;
pub mod sweep;
pub mod util;

/// One `all_figures` section: the `BENCH_<name>.json` name, the heading,
/// and the report.
pub type Figure = (&'static str, &'static str, fn() -> String);

/// Every section `all_figures` prints, in order.
pub const FIGURES: [Figure; 11] = [
    ("table1", "Table 1", impacc_machine::presets::table1),
    ("fig5", "Figures 4/5", fig5::run),
    ("fig8", "Figure 8", fig8::run),
    ("fig9", "Figure 9", fig9::run),
    ("fig10", "Figure 10", fig10::run),
    ("fig11", "Figure 11", fig10::run_fig11),
    ("fig12", "Figure 12", fig12::run),
    ("fig13", "Figure 13", fig13::run),
    ("fig14", "Figure 14", fig13::run_fig14),
    ("fig15", "Figure 15", fig15::run),
    ("ablations", "Ablations", ablations::run),
];

/// What a harness binary's command line asked for.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--critical-path`: append a critical-path profile to the figure.
    pub critical_path: bool,
    /// `--slack`: `prof`'s ranked off-path slack view.
    pub slack: bool,
    /// `--trace <path>` / `--trace=<path>`: also write a Chrome trace.
    pub trace: Option<String>,
    /// The one positional word (`prof`'s workload, `sweep`'s campaign).
    pub word: Option<String>,
}

/// Parse a command line against the words one binary `accepts`: any of
/// the flags above, plus one bare upper-case name (`WORKLOAD`, `CAMPAIGN`)
/// for one positional word. Everything else — an unknown or misspelt
/// flag, a second positional, `--trace` without a path — is an error
/// naming the offender.
pub fn parse_args(
    accepts: &[&str],
    argv: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut out = Args::default();
    let mut argv = argv.into_iter();
    while let Some(a) = argv.next() {
        let (word, inline) = match a.split_once('=') {
            Some(("--trace", path)) => ("--trace", Some(path.to_string())),
            _ => (a.as_str(), None),
        };
        let known = if word.starts_with("--") {
            accepts.contains(&word)
        } else {
            out.word.is_none() && accepts.iter().any(|w| !w.starts_with("--"))
        };
        match word {
            _ if !known => return Err(format!("unknown argument {a:?}")),
            "--critical-path" => out.critical_path = true,
            "--slack" => out.slack = true,
            "--trace" => {
                let path = inline.or_else(|| argv.next().filter(|p| !p.starts_with("--")));
                let path = path.filter(|p| !p.is_empty());
                out.trace = Some(path.ok_or("--trace needs a path")?);
            }
            _ => out.word = Some(a),
        }
    }
    Ok(out)
}

/// [`parse_args`] over this process's command line. A bad line is the
/// error plus a usage line on stderr and exit code 2 — a misspelt flag
/// must not run the plain figure as if nothing had been asked.
pub fn args_or_exit(bin: &str, accepts: &[&str]) -> Args {
    parse_args(accepts, std::env::args().skip(1)).unwrap_or_else(|e| {
        let usage: String = accepts
            .iter()
            .map(|w| match *w {
                "--trace" => " [--trace PATH]".to_string(),
                w => format!(" [{w}]"),
            })
            .collect();
        eprintln!("{bin}: {e}\nusage: {bin}{usage}");
        std::process::exit(2);
    })
}

/// Shared entry point for the figure binaries: print the figure and write
/// `BENCH_<name>.json`. A figure that accepts `--critical-path` appends a
/// critical-path profile of one representative run (and writes
/// `PROF_<name>.json`) when the flag asks for it.
pub fn figure_bin(name: &str, accepts: &[&str], run: impl FnOnce(&Args) -> String) {
    let args = args_or_exit(name, accepts);
    let profile = accepts.contains(&"--critical-path") && args.critical_path;
    util::bench_main(name, || {
        let mut out = run(&args);
        if profile {
            out.push('\n');
            out.push_str(&prof::profile_figure(name, None, false).expect("known workload"));
        }
        out
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepts: &[&str], line: &str) -> Result<Args, String> {
        parse_args(accepts, line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_args_takes_known_words_and_names_the_rest() {
        let fig = ["--trace", "--critical-path"];
        assert_eq!(parse(&fig, ""), Ok(Args::default()));
        let both = Args {
            critical_path: true,
            trace: Some("out.json".into()),
            ..Args::default()
        };
        assert_eq!(parse(&fig, "--critical-path --trace out.json"), Ok(both));
        assert_eq!(
            parse(&fig, "--trace=t.json").unwrap().trace.as_deref(),
            Some("t.json")
        );
        // A flag after the path is a flag; the first bare word, wherever
        // it stands, is the workload.
        let prof = ["WORKLOAD", "--trace", "--slack"];
        let got = parse(&prof, "--trace out.json fig5 --slack").unwrap();
        assert_eq!(got.word.as_deref(), Some("fig5"));
        assert_eq!(got.trace.as_deref(), Some("out.json"));
        assert!(got.slack);

        for (accepts, line, offender) in [
            (&fig[..], "--critcal-path", "--critcal-path"),
            (&fig[..], "--quick", "--quick"),
            (&fig[..], "fig5", "fig5"),
            (&prof[..], "fig5 fig12", "fig12"),
            (&fig[..], "--trace", "--trace needs a path"),
            (&fig[..], "--trace --critical-path", "--trace needs a path"),
            (&fig[..], "--trace=", "--trace needs a path"),
            (&fig[..], "--trace= out.json", "--trace needs a path"),
        ] {
            let err = parse(accepts, line).unwrap_err();
            assert!(err.contains(offender), "{line:?}: {err}");
        }
    }
}
