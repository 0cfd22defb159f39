//! See `impacc_bench::fig13::run_fig14`. Pass `--trace out.json` to also
//! dump a merged IMPACC + baseline Chrome trace and the span-derived copy
//! breakdown. Pass `--critical-path` (or set `IMPACC_PROF=1`) to append a
//! critical-path profile of one IMPACC run and write `PROF_fig14.json`.
fn main() {
    impacc_bench::figure_bin("fig14", &["--trace", "--critical-path"], |args| {
        impacc_bench::fig13::run_fig14_traced(args.trace.as_deref())
    });
}
