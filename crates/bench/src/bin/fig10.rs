//! See `impacc_bench::fig10`.
fn main() {
    impacc_bench::figure_bin("fig10", &[], |_| impacc_bench::fig10::run());
}
