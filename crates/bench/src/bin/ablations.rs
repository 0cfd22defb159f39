//! See `impacc_bench::ablations`.
fn main() {
    impacc_bench::figure_bin("ablations", &[], |_| impacc_bench::ablations::run());
}
