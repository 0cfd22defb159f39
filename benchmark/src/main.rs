//! `impacc-benchmark`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! impacc-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! impacc-benchmark run [--seed N] [--seconds S] [--smoke]          all six, writes out/result.json
//! impacc-benchmark compare A1.json B1.json [A2.json B2.json ...]   judge B against A, pair by pair
//! impacc-benchmark spec                                            print BENCHMARK.json
//! ```

mod compare;
mod json;
mod one;
mod probes;
mod run;
mod serve;
mod sim;
mod spec;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// `--flag value` pairs and bare words of a command line.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--smoke"];

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            if SWITCHES.contains(&arg.as_str()) {
                cli.flags.push((arg, String::new()));
            } else if arg.starts_with("--") {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                cli.flags.push((arg, value));
            } else {
                cli.words.push(arg);
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.flag("--out").unwrap_or(run::DEFAULT_OUT_DIR))
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    match cli.words.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("compare") => {
            // A1 B1 A2 B2 ...: the order the alternating runs were made in.
            let files = &cli.words[1..];
            if files.is_empty() || files.len() % 2 != 0 {
                return Err(
                    "usage: impacc-benchmark compare A1.json B1.json [A2.json B2.json ...]"
                        .to_string(),
                );
            }
            let read = |side: usize| -> Result<Vec<Json>, String> {
                files
                    .iter()
                    .skip(side)
                    .step_by(2)
                    .map(|path| read_json(path))
                    .collect()
            };
            compare::compare(&read(0)?, &read(1)?)
        }
        Some("run") => run::run(&run::RunArgs {
            seed: cli.num("--seed", 1)?,
            seconds: cli.num("--seconds", spec::RUN_SECONDS as f64)?,
            smoke: cli.flag("--smoke").is_some(),
            out_dir: cli.out_dir(),
        }),
        Some(other) => Err(format!("unknown command {other:?} (run, compare, spec)")),
        None => {
            let workload = cli
                .flag("--workload")
                .ok_or("usage: impacc-benchmark --workload W --seed N --seconds S --trace 0|1")?;
            // Before any thread exists: the numbers must describe the
            // default configuration, on one CPU.
            let stripped = sys::strip_impacc_env();
            let pinned = sys::pin_to_first_cpu();
            let args = one::OneArgs {
                workload: workload.to_string(),
                seed: cli.num("--seed", 1)?,
                seconds: cli.num("--seconds", spec::RUN_SECONDS as f64)?,
                trace: cli.num::<u8>("--trace", 0)? != 0,
                smoke: cli.flag("--smoke").is_some(),
                out_dir: cli.out_dir(),
            };
            let outcome = one::run_one(&args, pinned, &stripped)?;
            for (name, value, unit) in &outcome.metrics {
                println!("{name:<34} {value:>16.6} {unit}");
            }
            for note in &outcome.notes {
                println!("{note}");
            }
            println!(
                "failed_share {} of {} operations",
                outcome.failed, outcome.attempted
            );
            println!("detail {}", outcome.detail.render());
            println!("{}", outcome.result_line());
            // A failed operation is a result (`correct: false`), not a
            // crash: the line above is still the run's outcome.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("impacc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
