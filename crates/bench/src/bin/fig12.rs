//! See `impacc_bench::fig12`. Pass `--critical-path` (or set
//! `IMPACC_PROF=1`) to append a critical-path profile of one EP run and
//! write `PROF_fig12.json`.
fn main() {
    impacc_bench::figure_bin("fig12", &["--critical-path"], |_| {
        impacc_bench::fig12::run()
    });
}
