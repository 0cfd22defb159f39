//! See `impacc_bench::fig5`. Pass `--trace out.json` to also dump a merged
//! Chrome trace of the three synchronization styles. Pass
//! `--critical-path` (or set `IMPACC_PROF=1`) to append a critical-path
//! profile of the unified-queue exchange and write `PROF_fig5.json`.
fn main() {
    impacc_bench::figure_bin("fig5", &["--trace", "--critical-path"], |args| {
        impacc_bench::fig5::run_traced(args.trace.as_deref())
    });
}
