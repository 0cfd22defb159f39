//! See `impacc_bench::fig8`.
fn main() {
    impacc_bench::figure_bin("fig8", &[], |_| impacc_bench::fig8::run());
}
