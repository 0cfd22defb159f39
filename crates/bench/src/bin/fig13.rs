//! See `impacc_bench::fig13`.
fn main() {
    impacc_bench::figure_bin("fig13", &[], |_| impacc_bench::fig13::run());
}
