//! See `impacc_bench::fig9`.
fn main() {
    impacc_bench::figure_bin("fig9", &[], |_| impacc_bench::fig9::run());
}
