//! See `impacc_bench::fig10::run_fig11`.
fn main() {
    impacc_bench::figure_bin("fig11", &[], |_| impacc_bench::fig10::run_fig11());
}
