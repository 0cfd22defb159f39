//! Standalone critical-path profiler: re-runs a figure workload with the
//! span/edge recorder attached, prints the blame/wait-state/what-if
//! report, and writes `PROF_<name>.json`.
//!
//! Usage: `prof [fig5|fig12|fig14] [--trace out.json] [--slack]`
//!
//! `--trace` also writes a Chrome trace with the critical path rendered
//! as a dedicated track (pid 0) plus flow arrows over the cross-actor
//! hops; open via ui.perfetto.dev.
//!
//! `--slack` prints the ranked off-path slack view instead of the full
//! blame report: the top segments by how much they could grow before
//! joining the critical path (second-order optimization targets).
//!
//! An unknown workload name is a readable error and exit code 1, an
//! unknown flag a usage line and exit code 2, so scripts piping this
//! binary fail loudly instead of shipping an empty profile.
fn main() {
    let args = impacc_bench::args_or_exit("prof", &["WORKLOAD", "--trace", "--slack"]);
    let name = args.word.as_deref().unwrap_or("fig14");
    match impacc_bench::prof::profile_figure(name, args.trace.as_deref(), args.slack) {
        Ok(out) => print!("{out}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
