//! See `impacc_bench::fig15`.
fn main() {
    impacc_bench::figure_bin("fig15", &[], |_| impacc_bench::fig15::run());
}
